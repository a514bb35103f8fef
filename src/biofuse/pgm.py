"""PGM (portable graymap) reader and a debug writer.

Grayscale images are plain 2D ``uint8`` numpy arrays of shape
``(height, width)``, row-major, intensities in [0, 255].
"""

import numpy as np

from .atomic import write_atomic
from .errors import MalformedHeader, TruncatedData, UnsupportedMaxval

_WHITESPACE = b" \t\r\n\v\f"


def _next_token(data: bytes, pos: int):
    """Return (token, new_pos), skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c in (b"#",):
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise MalformedHeader("unexpected end of header")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str):
    tok, pos = _next_token(data, pos)
    try:
        value = int(tok)
    except ValueError:
        raise MalformedHeader(f"non-numeric {what}: {tok!r}") from None
    return value, pos


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) or ASCII (P2) PGM file.

    Raises MalformedHeader, TruncatedData, or UnsupportedMaxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise MalformedHeader(f"unsupported magic {magic!r}")
    pos = 2

    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width <= 0 or height <= 0:
        raise MalformedHeader(f"invalid dimensions {width}x{height}")
    if maxval > 255:
        raise UnsupportedMaxval(f"maxval {maxval} > 255")
    if maxval <= 0:
        raise MalformedHeader(f"invalid maxval {maxval}")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the raster.
        if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
            raise MalformedHeader("missing raster separator")
        pos += 1
        raster = data[pos:pos + count]
        if len(raster) < count:
            raise TruncatedData(
                f"expected {count} raster bytes, found {len(raster)}")
        pixels = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        values = []
        try:
            while len(values) < count:
                value, pos = _header_int(data, pos, "sample")
                values.append(value)
        except MalformedHeader as exc:
            if "end of header" in str(exc):
                raise TruncatedData(
                    f"expected {count} samples, found {len(values)}") from None
            raise
        pixels = np.array(values)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise MalformedHeader("sample outside [0, maxval]")
    return pixels.astype(np.uint8, copy=False).reshape(height, width)


def write_pgm(img: np.ndarray, path) -> None:
    """Write a P5 file (debug writer; round-trips through load_pgm)."""
    a = np.asarray(img)
    if a.ndim != 2 or a.dtype != np.uint8:
        raise ValueError("expected a 2D uint8 image")
    height, width = a.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + a.tobytes())
