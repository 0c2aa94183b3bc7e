import os
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmsync import IqFormatError, SampleBuffer, read_iq, write_csv, write_iq
from ofdmsync import iqfile
from ofdmsync.core import BLOCK_LEN
from ofdmsync.iqfile import ROWS_PER_WRITE, iq_blocks, write_table

from conftest import random_buffer


def test_write_iq_byte_count(tmp_path, preamble):
    path = tmp_path / "p.iq"
    assert write_iq(preamble, path) == 2560
    assert path.stat().st_size == 2560


def test_empty_buffer(tmp_path):
    path = tmp_path / "empty.iq"
    assert write_iq(SampleBuffer(np.zeros(0)), path) == 0
    assert len(read_iq(path)) == 0


def test_iq_roundtrip_float32_precision(tmp_path, rng):
    buf = random_buffer(rng, 1000)
    path = tmp_path / "x.iq"
    write_iq(buf, path)
    back = read_iq(path, buf.sample_rate)
    assert len(back) == 1000
    assert back.sample_rate == buf.sample_rate
    f32 = buf.samples.real.astype(np.float32).astype(np.float64) \
        + 1j * buf.samples.imag.astype(np.float32).astype(np.float64)
    assert np.array_equal(back.samples, f32)


def test_iq_second_roundtrip_bit_exact(tmp_path, rng):
    # float32-representable data survives write -> read -> write untouched
    buf = random_buffer(rng, 64)
    first = tmp_path / "a.iq"
    second = tmp_path / "b.iq"
    write_iq(buf, first)
    write_iq(read_iq(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_iq_roundtrip_keeps_signed_zeros(tmp_path):
    first = tmp_path / "a.iq"
    second = tmp_path / "b.iq"
    first.write_bytes(np.array([-0.0, -0.0, 1.0, -0.0, -0.0, 1.0], "<f4").tobytes())
    write_iq(read_iq(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_truncated_file_names_offset(tmp_path):
    path = tmp_path / "trunc.iq"
    path.write_bytes(b"\x00" * 21)
    with pytest.raises(IqFormatError, match="offset 16"):
        read_iq(path)


@pytest.mark.parametrize("word", [0, 1], ids=["i", "q"])
def test_non_finite_sample_in_a_later_block_names_its_index(tmp_path, word):
    bad = 2 * BLOCK_LEN + 7
    words = np.ones(2 * (3 * BLOCK_LEN), "<f4")
    words[2 * bad + word] = -np.inf
    path = tmp_path / "late_inf.iq"
    path.write_bytes(words.tobytes())
    with pytest.raises(IqFormatError, match=f"sample {bad} is not finite"):
        read_iq(path)


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1])
       | st.integers(0, 3 * BLOCK_LEN),
       seed=st.integers(0, 2**32 - 1), zeros=st.floats(0, 1))
def test_read_iq_equals_one_whole_file_conversion(n, seed, zeros):
    # any finite float32 words, a share of them signed zeros
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**32, 2 * n, dtype=np.uint32)
    bits[(bits & 0x7F800000) == 0x7F800000] ^= 0x00800000  # inf/nan exponent -> finite
    bits[rng.random(2 * n) < zeros] &= 0x80000000
    data = bits.astype("<u4").tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.iq"
        path.write_bytes(data)
        samples = read_iq(path).samples
    reference = np.frombuffer(data, "<c8").astype(np.complex128)
    assert samples.dtype == reference.dtype
    assert samples.tobytes() == reference.tobytes()


def test_iq_blocks_are_separate_complex64_arrays(tmp_path):
    # three whole blocks and a partial one; a consumer may keep every block
    rng = np.random.default_rng(4)
    words = rng.standard_normal(2 * (3 * BLOCK_LEN + 100)).astype("<f4")
    path = tmp_path / "x.iq"
    path.write_bytes(words.tobytes())
    blocks = list(iq_blocks(path))
    assert [len(b) for b in blocks] == [BLOCK_LEN] * 3 + [100]
    assert all(b.dtype == np.complex64 for b in blocks)
    assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:])
    assert np.concatenate(blocks).view("<f4").tobytes() == words.tobytes()


@pytest.mark.parametrize("call, extra, read", [
    ("stat", 1, read_iq), ("stat", -1, read_iq), ("fstat", 1, lambda path: list(iq_blocks(path))),
], ids=["read-iq-sees-more", "read-iq-sees-less", "block-reader-sees-more"])
def test_a_file_that_changes_while_being_read_is_rejected(tmp_path, monkeypatch, call, extra,
                                                          read):
    # the size read_iq allocates for, or the size the block reader counts on,
    # differs by one sample from what the file holds
    path = tmp_path / "x.iq"
    path.write_bytes(bytes(8 * (BLOCK_LEN + 3)))

    def changed(*args):
        st = getattr(os, call)(*args)
        return os.stat_result((*st[:6], st.st_size + 8 * extra, *st[7:10]))

    fake_os = types.SimpleNamespace(stat=os.stat, fstat=os.fstat)
    setattr(fake_os, call, changed)
    monkeypatch.setattr(iqfile, "os", fake_os)
    with pytest.raises(IqFormatError, match="changed while being read"):
        read(path)


def test_read_iq_sample_count(tmp_path):
    path = tmp_path / "n.iq"
    path.write_bytes(b"\x00" * 2560)
    assert len(read_iq(path)) == 320


def test_write_iq_rejects_float32_overflow(tmp_path):
    path = tmp_path / "big.iq"
    with pytest.raises(IqFormatError, match="sample 1 is not finite"):
        write_iq(SampleBuffer(np.array([1.0, 1e39j, 0.0])), path)
    assert not path.exists()


def test_csv_roundtrip(tmp_path, rng):
    buf = random_buffer(rng, 50)
    path = tmp_path / "x.csv"
    assert write_csv(buf, path) == 50
    lines = path.read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 51
    rows = [line.split(",") for line in lines[1:]]
    assert [int(i) for i, _, _ in rows] == list(range(50))
    back = np.array([complex(float(re), float(im)) for _, re, im in rows])
    assert np.array_equal(back, buf.samples)  # repr() round-trips float64


# Rows either side of the first batch boundary, and of a later one after
# many full batches (1 << 16 is a whole number of batches).
@pytest.mark.parametrize("n_rows", [0, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1,
                                    (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_write_table_matches_one_string_reference(tmp_path, rng, n_rows):
    assert (1 << 16) % ROWS_PER_WRITE == 0
    values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    flags = values > 0
    names = ["frame", "cfo"] * (n_rows // 2) + ["time_lts"] * (n_rows % 2)
    narrow = rng.standard_normal(n_rows).astype(np.float32)
    path = tmp_path / "t.csv"
    # numpy columns, and Python lists of ints, floats and bools
    assert write_table(path, "n,value,flag,name,narrow,n,value,flag",
                       (np.arange(n_rows), values, flags, names, narrow,
                        list(range(n_rows)), values.tolist(), flags.tolist())) == n_rows
    reference = ["n,value,flag,name,narrow,n,value,flag"] + [
        f"{i},{float(v)!r},{int(f)},{name},{float(w)!r},{i},{float(v)!r},{int(f)}"
        for i, (v, f, name, w) in enumerate(zip(values, flags, names, narrow))]
    assert path.read_text() == "\n".join(reference) + "\n"


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_table(tmp_path / "t.csv", "a,b", ([1, 2], [1.0]))
