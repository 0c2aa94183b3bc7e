import numpy as np
import pytest

from ofdmsync import (IqFormatError, SampleBuffer, generate_preamble, read_csv,
                      read_iq, write_csv, write_iq)

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


def test_truncated_file_names_offset(tmp_path):
    path = tmp_path / "trunc.iq"
    path.write_bytes(b"\x00" * 21)
    with pytest.raises(IqFormatError, match="offset 16"):
        read_iq(path)


def test_read_iq_sample_count(tmp_path):
    path = tmp_path / "n.iq"
    path.write_bytes(b"\x00" * 2560)
    assert len(read_iq(path)) == 320


def test_csv_roundtrip(tmp_path, rng):
    buf = random_buffer(rng, 50)
    path = tmp_path / "x.csv"
    assert write_csv(buf, path) == 50
    lines = path.read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 51
    back = read_csv(path, buf.sample_rate)
    assert np.array_equal(back.samples, buf.samples)  # repr() round-trips float64


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re,im\n0.0,0.0\n")
    with pytest.raises(IqFormatError, match="header"):
        read_csv(path)
    path.write_text("index,re,im\n0,1.0\n")
    with pytest.raises(IqFormatError, match="3 columns"):
        read_csv(path)


def test_csv_rejects_non_finite_sample(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("index,re,im\n0,1.0,2.0\n1,1.0,inf\n")
    with pytest.raises(IqFormatError, match="sample 1 is not finite"):
        read_csv(path)
