import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.errors import MalformedHeader, TruncatedData, UnsupportedMaxval
from biofuse.pgm import load_pgm, write_pgm


def test_minimal_p5_roundtrip(tmp_path):
    # hand-built binary file: header + 16 raster bytes
    raster = bytes(range(16))
    payload = b"P5\n4 4\n255\n" + raster
    path = tmp_path / "mini.pgm"
    path.write_bytes(payload)
    img = load_pgm(path)
    assert img.shape == (4, 4)
    assert img.dtype == np.uint8
    assert img.tobytes() == raster


def test_p5_header_with_comments(tmp_path):
    payload = b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6)
    path = tmp_path / "c.pgm"
    path.write_bytes(payload)
    assert load_pgm(path).shape == (2, 3)


def test_p2_ascii_variant(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# gradient\n3 2\n255\n0 10 20\n30 40 50\n")
    img = load_pgm(path)
    assert img.tolist() == [[0, 10, 20], [30, 40, 50]]


def test_unsupported_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n4 4\n255\n" + bytes(16))
    with pytest.raises(MalformedHeader):
        load_pgm(path)


def test_truncated_p5(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(8))
    with pytest.raises(TruncatedData):
        load_pgm(path)


def test_truncated_p2(tmp_path):
    path = tmp_path / "short2.pgm"
    path.write_text("P2\n4 4\n255\n1 2 3")
    with pytest.raises(TruncatedData):
        load_pgm(path)


def test_maxval_over_255(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(UnsupportedMaxval):
        load_pgm(path)


@pytest.mark.parametrize("header", [
    b"P5\n0 4\n255\n", b"P5\n4 -1\n255\n", b"P5\nx 4\n255\n",
    b"P5\n4 4\n0\n", b"P5\n4 4\nabc\n",
])
def test_malformed_headers(tmp_path, header):
    path = tmp_path / "m.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(MalformedHeader):
        load_pgm(path)


def test_p2_sample_out_of_range(tmp_path):
    path = tmp_path / "r.pgm"
    path.write_text("P2\n2 1\n100\n5 101\n")
    with pytest.raises(MalformedHeader):
        load_pgm(path)


def test_p5_sample_above_maxval(tmp_path):
    path = tmp_path / "r.pgm"
    path.write_bytes(b"P5\n2 1\n15\n" + bytes([3, 200]))
    with pytest.raises(MalformedHeader, match=r"sample outside \[0, maxval\]"):
        load_pgm(path)


def test_small_maxval_values_kept_raw(tmp_path):
    path = tmp_path / "dim.pgm"
    path.write_bytes(b"P5\n2 1\n15\n" + bytes([3, 15]))
    assert load_pgm(path).tolist() == [[3, 15]]


def test_writer_rejects_non_uint8():
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2), dtype=np.float64), "/tmp/never.pgm")


@settings(max_examples=25, deadline=None)
@given(
    w=st.integers(min_value=1, max_value=12),
    h=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_write_load_roundtrip(tmp_path_factory, w, h, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w)).astype(np.uint8)
    path = tmp_path_factory.mktemp("rt") / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(load_pgm(path), img)
