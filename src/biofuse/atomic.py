"""Atomic file replacement: readers see the old file or the new one, never
a partial write; and the JSON files written that way, in json's bytes and
read back as json reads them, by orjson wherever it agrees."""

import itertools
import json
import os
import uuid
from contextlib import suppress

import orjson


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


# orjson nests at most this many arrays and objects
_ORJSON_DEPTH = 255
_INT64 = 2 ** 63
# orjson and repr spell a float alike (shortest digits, no exponent) when
# it is 0 or of magnitude in [PLAIN_MIN, PLAIN_MAX): 1e-05 is 0.00001 to
# orjson, and 1e+16 is 1e16
PLAIN_MIN, PLAIN_MAX = 1e-4, 1e16


def _plain_text(s) -> bool:
    """A str of printable ASCII, which json.dumps and orjson both write
    as itself, escaping only '"' and backslash."""
    return type(s) is str and s.isascii() and s.isprintable()


def _orjson_spells_it(obj, depth=0) -> bool:
    """Whether orjson writes obj, indented and key-sorted, in exactly the
    bytes json.dumps does: dicts with printable ASCII keys, lists, tuples,
    None, bools, ints within int64, printable ASCII strings, and floats
    that are 0 or of magnitude in [PLAIN_MIN, PLAIN_MAX), which both
    spell as repr's shortest digits. Only these exact types: json.dumps
    spells a subclass by its base type's repr, orjson refuses some and not
    others. A NaN or an infinity fails the float test, so json.dumps
    refuses it."""
    kind = type(obj)
    if kind is float:
        return obj == 0.0 or PLAIN_MIN <= abs(obj) < PLAIN_MAX
    if kind is list or kind is tuple or kind is dict:
        if depth >= _ORJSON_DEPTH:
            return False
        below = itertools.repeat(depth + 1)
        if kind is dict:
            return (all(map(_plain_text, obj))
                    and all(map(_orjson_spells_it, obj.values(), below)))
        return all(map(_orjson_spells_it, obj, below))
    if kind is int:
        return -_INT64 <= obj < _INT64
    return obj is None or kind is bool or _plain_text(obj)


def write_json(path, obj) -> bytes:
    """Atomically write obj as key-sorted, 2-space-indented JSON plus a
    final newline (the layout of model, stats and manifest files), and
    return the bytes written: those of json.dumps(obj, sort_keys=True,
    indent=2, allow_nan=False) + "\n", always. orjson writes them when
    every value is one it spells as json.dumps does (_orjson_spells_it),
    json.dumps any other document. A NaN or infinity is not JSON, so it
    raises ValueError and nothing is written."""
    if _orjson_spells_it(obj):
        data = orjson.dumps(obj, option=orjson.OPT_INDENT_2
                            | orjson.OPT_SORT_KEYS) + b"\n"
    else:
        text = json.dumps(obj, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
        data = text.encode("utf-8")
    write_atomic(path, data)
    return data


def _holds_wide_number(doc) -> bool:
    """Whether a parsed document holds a number of magnitude 2**63 or
    more: orjson parses an integer beyond int64 as a float, where json
    keeps it an int."""
    kind = type(doc)
    if kind is dict:
        return any(map(_holds_wide_number, doc.values()))
    if kind is list:
        try:
            return max(map(abs, doc), default=0) >= _INT64
        except TypeError:   # it holds more than numbers
            return any(map(_holds_wide_number, doc))
    return (kind is float or kind is int) and abs(doc) >= _INT64


def read_json(data: bytes):
    """The document json.loads(data.decode("utf-8")) gives, parsed by
    orjson where that gives the same. Bytes that orjson refuses, and a
    document holding a number of magnitude 2**63 or more, are parsed by
    json, so every error is json's own: a json.JSONDecodeError, or a
    UnicodeDecodeError for bytes that are not UTF-8."""
    try:
        doc = orjson.loads(data)
        if not _holds_wide_number(doc):
            return doc
    except orjson.JSONDecodeError:
        pass
    return json.loads(data.decode("utf-8"))
