import json
import os
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.atomic import (_orjson_spells_it, read_json, write_atomic,
                            write_json)


def test_replaces_the_file_with_open_permissions(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    write_atomic(path, b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.txt"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()     # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        write_atomic(target, b"data")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        write_atomic(tmp_path / "out.bin", "text, not bytes")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "out.json", {"calibration": [0.0, value]})
    assert os.listdir(tmp_path) == []


# the edges of the floats orjson spells as json.dumps does, and of int64
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05,
               9.999999999999999e-05, 1e-4, 1.5, 9999999999999998.0, 1e16,
               1e300, -1e-05, -1e16]
EDGE_INTS = [2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 2 ** 64,
             10 ** 30]
EDGE_TEXT = ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline",
             "\x00\x1f", "\x7f", "caf\u00e9", "\u2603", "\U0001f600"]
SCALARS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.floats(min_value=5e-324, max_value=1e300)
           | st.sampled_from(EDGE_FLOATS) | st.integers()
           | st.sampled_from(EDGE_INTS) | st.text()
           | st.sampled_from(EDGE_TEXT) | st.booleans() | st.none())
# json.dumps turns int, float, bool and None keys into strings; a dict of
# mixed key types cannot be sorted, and json.dumps raises TypeError
KEYS = (st.text() | st.sampled_from(EDGE_TEXT) | st.integers()
        | st.floats(allow_nan=False) | st.booleans() | st.none())
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.tuples(inner, inner)
                   | st.dictionaries(KEYS, inner, max_size=5)),
    max_leaves=25)


def _dumps(obj):
    """The bytes write_json promises: json.dumps's, or its exception."""
    try:
        return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
                + "\n").encode("utf-8")
    except (TypeError, ValueError) as exc:
        return type(exc)


def _same(a, b):
    """Equal with equal types throughout; floats by repr, so -0.0 != 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


@settings(max_examples=400, deadline=None)
@given(obj=DOCUMENTS)
def test_write_json_writes_the_bytes_of_json_dumps(obj):
    want = _dumps(obj)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "doc.json")
        if isinstance(want, bytes):
            assert write_json(path, obj) == want
            with open(path, "rb") as fh:
                assert fh.read() == want
        else:
            with pytest.raises(want):
                write_json(path, obj)
            assert os.listdir(root) == []


PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e))
PLAIN_DOCUMENTS = st.recursive(
    st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
    | st.floats(min_value=-1e16, max_value=-1e-4, exclude_min=True)
    | st.sampled_from([0.0, -0.0]) | st.integers(-2 ** 63, 2 ** 63 - 1)
    | PLAIN_TEXT | st.booleans() | st.none(),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(PLAIN_TEXT, inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(obj=PLAIN_DOCUMENTS)
def test_orjson_writes_its_domain_in_the_bytes_of_json_dumps(obj):
    assert _orjson_spells_it(obj)
    with tempfile.TemporaryDirectory() as root:
        assert write_json(os.path.join(root, "doc.json"), obj) == _dumps(obj)


def test_write_json_of_deep_nesting_writes_the_bytes_of_json_dumps(
        tmp_path):
    # orjson nests at most 255 arrays; json.dumps is not so limited
    for depth in (254, 255, 256, 300):
        doc = [0.5]
        for _ in range(depth - 1):
            doc = [doc]
        assert write_json(tmp_path / "deep.json", doc) == _dumps(doc)


@settings(max_examples=400, deadline=None)
@given(obj=DOCUMENTS)
def test_read_json_reads_the_document_of_json_loads(obj):
    data = _dumps(obj)
    if isinstance(data, bytes):
        assert _same(read_json(data), json.loads(data.decode("utf-8")))


@pytest.mark.parametrize("data", [
    b"", b"{not json", b"[1, 2,]", b'{"a": 1} trailing', b"\xef\xbb\xbf{}",
    b'"\x01"', b"[NaN, Infinity, -Infinity]", b'"\\ud800"', b"1e400",
    b"[18446744073709551616, -9223372036854775809]",
    b'{"a": 1, "a": 2}', b"\xff", b'"caf\xc3\xa9"', b'"caf\xe9"'])
def test_read_json_gives_what_json_loads_gives(data):
    # a document, or the error with its message
    def parsed(parse):
        try:
            return parse(data)
        except (ValueError, UnicodeDecodeError) as exc:
            return type(exc), str(exc)

    want = parsed(lambda raw: json.loads(raw.decode("utf-8")))
    got = parsed(read_json)
    if isinstance(want, tuple):
        assert got == want
    else:
        # NaN != NaN, so these compare by repr
        assert repr(got) == repr(want) and _same(got, want)
