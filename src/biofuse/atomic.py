"""Atomic file replacement: readers see the old file or the new one, never
a partial write."""

import json
import os
import uuid
from contextlib import suppress


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file beside path, then rename it over path.

    The temp name is unique per call, so concurrent writers never share
    one, and the temp file is removed when the write or the rename fails.
    It is created by open(), so it gets the usual umask permissions.
    """
    tmp = f"{path}.tmp{uuid.uuid4().hex}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def move_aside(path):
    """Rename the file at path to a unique sibling name and return that
    name, or return None when there is no file at path."""
    aside = f"{path}.aside{uuid.uuid4().hex}"
    try:
        os.replace(path, aside)
    except FileNotFoundError:
        return None
    return aside


def write_json(path, obj) -> None:
    """Atomically write obj as key-sorted, 2-space-indented JSON plus a
    final newline (the layout of model, stats and manifest files). A NaN
    or infinity is not JSON, so it raises ValueError and nothing is
    written."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    write_atomic(path, text.encode("utf-8"))
