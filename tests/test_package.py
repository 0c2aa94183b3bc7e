import ast
import contextlib
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ofdmsync
from ofdmsync import (ChannelConfig, FrameDetectConfig, FrameEvent, OfdmSyncError, SampleBuffer,
                      StreamingFrameDetector, TimeSyncConfig, TimingEstimate, TrialPlan, apply_cfo,
                      autocorrelation, correct_cfo, cross_correlate, detect_frames, estimate_cfo,
                      estimate_timing, generate_preamble, inverse_dft, plateau_from_event,
                      preamble_train, run_trials, transmit, variance, write_csv, write_iq)


def _referenced_names(path: Path) -> set[str]:
    """Names a module's code reads: loaded names and attributes, not definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    # A public helper that no module uses is a second entry point that only
    # tests call; its job belongs to the one path the package runs.
    used = set().union(*(_referenced_names(path)
                         for path in Path(ofdmsync.__file__).parent.glob("*.py")
                         if path.name != "__init__.py"))
    assert sorted(set(ofdmsync.__all__) - used) == []


# --- hostile arguments ---------------------------------------------------------

class _Huge(int):
    """Stands for 10**5000 in a drawn value: hypothesis cannot print that int itself."""

    def __repr__(self):
        return "10**5000"


class _Objects(list):
    """Stands for an object array of its items in a drawn value."""

    def __repr__(self):
        return f"object array of {list.__repr__(self)}"


def _build(drawn):
    """The hostile value that ``drawn`` stands for."""
    if isinstance(drawn, _Huge):
        return 10**5000 if drawn > 0 else -10**5000
    if isinstance(drawn, (list, tuple)):
        items = [_build(item) for item in drawn]
        if isinstance(drawn, _Objects):
            array = np.empty(len(items), object)
            array[:] = items
            return array
        return tuple(items) if isinstance(drawn, tuple) else items
    return drawn


# What a caller may hand a public name that takes samples or a number: ints
# past or near float64's range, non-finite floats, None, text, bytes, numpy scalars,
# and tuples, lists and object arrays of them, ragged ones too.
_SCALARS = st.one_of(
    st.sampled_from([_Huge(1), _Huge(-1), 10**308, math.nan, math.inf, -math.inf, None, 1j,
                     True, np.float32(np.nan), np.float32(3e38), np.float64(-np.inf),
                     np.int64(-2**63), np.uint64(2**64 - 1), np.complex64(1j), np.bool_(True),
                     np.float16(7)]),
    st.integers(), st.floats(), st.text(max_size=3), st.binary(max_size=3))
_HOSTILE = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(_Objects)), max_leaves=8)

_BUFFER = SampleBuffer(np.concatenate([generate_preamble().samples, np.zeros(80)]))
_EVENT = FrameEvent(0, 100, 1.0)
# (name, call, whether the README lets it raise TypeError: a free function
# given an argument of the wrong type; never a constructor)
_ARRAY_CALLS = [
    ("SampleBuffer", SampleBuffer, False),
    ("detect_frames", detect_frames, True),
    ("StreamingFrameDetector.process", lambda v: StreamingFrameDetector().process(v), True),
    ("autocorrelation", autocorrelation, True),
    ("cross_correlate", lambda v: cross_correlate(v, np.ones(4)), True),
    ("cross_correlate template", lambda v: cross_correlate(_BUFFER, v), True),
    ("estimate_timing", estimate_timing, True),
    ("inverse_dft", inverse_dft, True),
    ("estimate_cfo", lambda v: estimate_cfo(v, 16, (0, 50)), True),
    ("variance", variance, True),
]
_NUMBER_CALLS = [
    ("SampleBuffer sample_rate", lambda v: SampleBuffer(np.ones(4), v), False),
    ("ChannelConfig cfo_hz", lambda v: ChannelConfig(cfo_hz=v), False),
    ("ChannelConfig snr_db", lambda v: ChannelConfig(snr_db=v), False),
    ("FrameDetectConfig threshold", lambda v: FrameDetectConfig(threshold=v), False),
    ("FrameDetectConfig lag", lambda v: FrameDetectConfig(lag=v), False),
    ("TimeSyncConfig search_window", lambda v: TimeSyncConfig(search_window=v), False),
    ("TrialPlan n_trials", lambda v: TrialPlan(n_trials=v), False),
    ("TrialPlan gap_len", lambda v: TrialPlan(gap_len=v), False),
    ("apply_cfo", lambda v: apply_cfo(_BUFFER, v), True),
    ("correct_cfo", lambda v: correct_cfo(_BUFFER, v), True),
    ("autocorrelation lag", lambda v: autocorrelation(_BUFFER, v), True),
    ("autocorrelation window", lambda v: autocorrelation(_BUFFER, 16, v), True),
    ("estimate_cfo lag", lambda v: estimate_cfo(_BUFFER, v, (0, 50)), True),
    ("estimate_cfo plateau", lambda v: estimate_cfo(_BUFFER, 16, v), True),
    ("plateau_from_event", lambda v: plateau_from_event(_EVENT, v), True),
    ("transmit seed", lambda v: transmit(_BUFFER, ChannelConfig(), seed=v), True),
    ("transmit tail_len", lambda v: transmit(_BUFFER, ChannelConfig(), v), True),
    ("preamble_train", lambda v: preamble_train(_BUFFER, v, 0), True),
]
# names that take a SampleBuffer or a config object, given anything else
_OBJECT_CALLS = [
    ("apply_cfo buffer", lambda v: apply_cfo(v, 0.0), True),
    ("correct_cfo buffer", lambda v: correct_cfo(v, 0.0), True),
    ("transmit preamble", lambda v: transmit(v, ChannelConfig()), True),
    ("transmit config", lambda v: transmit(_BUFFER, v), True),
    ("preamble_train preamble", lambda v: preamble_train(v, 1, 0), True),
    ("write_iq", lambda v: write_iq(v, os.devnull), True),
    ("write_csv", lambda v: write_csv(v, os.devnull), True),
    ("run_trials", run_trials, True),
    ("detect_frames config", lambda v: detect_frames(_BUFFER, v), True),
    ("estimate_timing config", lambda v: estimate_timing(_BUFFER, v), True),
]


@settings(max_examples=400, deadline=None)
@given(call=st.sampled_from(_ARRAY_CALLS + _NUMBER_CALLS + _OBJECT_CALLS), drawn=_HOSTILE)
def test_hostile_arguments_raise_only_the_documented_errors(call, drawn):
    # the library-level twin of test_fuzzed_arguments_keep_the_exit_code_contract:
    # a bad value ends in an OfdmSyncError, or in a TypeError where the README
    # allows one, and never in a warning. Arithmetic on an array whose squares
    # pass float64's range overflows, which numpy reports as a floating-point
    # warning; the detectors meet such samples by design (see
    # test_a_step_whose_metric_holds_nan), so for the array-taking calls only
    # those reports are silenced.
    name, function, type_error_allowed = call
    value = _build(drawn)
    allowed = (OfdmSyncError, TypeError) if type_error_allowed else OfdmSyncError
    floating = np.errstate(all="ignore") if call in _ARRAY_CALLS else contextlib.nullcontext()
    with warnings.catch_warnings(), floating:
        warnings.simplefilter("error")
        try:
            function(value)
        except allowed:
            pass
        except Exception as exc:  # noqa: BLE001 - the assertion names it
            raise AssertionError(f"{name}({drawn!r}) raised {exc!r}") from exc


@pytest.mark.parametrize("value", [np.ones(400, complex), None])
def test_a_wrong_type_is_a_type_error_naming_the_class_taken(value):
    got = type(value).__name__
    for taker, call, taken in (
            ("apply_cfo", lambda: apply_cfo(value, 0.0), "SampleBuffer"),
            ("correct_cfo", lambda: correct_cfo(value, 0.0), "SampleBuffer"),
            ("transmit", lambda: transmit(value, ChannelConfig()), "SampleBuffer"),
            ("preamble_train", lambda: preamble_train(value, 1, 0), "SampleBuffer"),
            ("write_iq", lambda: write_iq(value, os.devnull), "SampleBuffer"),
            ("write_csv", lambda: write_csv(value, os.devnull), "SampleBuffer"),
            ("estimate_cfo", lambda: estimate_cfo(value, 16, (0, 50)), "SampleBuffer"),
            ("transmit", lambda: transmit(_BUFFER, value), "ChannelConfig"),
            ("run_trials", lambda: run_trials(value), "TrialPlan"),
            ("detect_frames", lambda: detect_frames(_BUFFER, value), "FrameDetectConfig"),
            ("estimate_timing", lambda: estimate_timing(_BUFFER, value), "TimeSyncConfig")):
        with pytest.raises(TypeError, match=f"^{taker} takes a {taken}, got {got}$"):
            call()


@pytest.mark.parametrize("record, fields, values, text", [
    (FrameEvent, ("start_index", "end_index", "peak_metric"), (3, 40, 0.75),
     "FrameEvent(start_index=3, end_index=40, peak_metric=0.75)"),
    (TimingEstimate, ("n_xc_max", "peak_magnitude"), (320, 1.5),
     "TimingEstimate(n_xc_max=320, peak_magnitude=1.5)")])
def test_result_records_keep_their_fields_repr_and_immutability(record, fields, values, text):
    made = record(*values)
    assert made == record(**dict(zip(fields, values)))
    assert [getattr(made, name) for name in fields] == list(values)
    assert repr(made) == text
    # the records are tuples: equal to a plain tuple of the same values
    assert made == values and hash(made) == hash(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(made, name, 0)
    assert [getattr(made, name) for name in fields] == list(values)
