import os
import stat

import pytest

from biofuse.atomic import write_atomic, write_json


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


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "out.json", {"calibration": [0.0, value]})
    assert os.listdir(tmp_path) == []
