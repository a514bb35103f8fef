"""Geometric and photometric normalization of face and ear images.

Images are aligned by a similarity transform (rotation + uniform scale +
translation) that carries the annotated landmarks onto fixed canonical
positions, cropped to a canonical frame, and histogram-equalized. All
functions are pure; none mutate their inputs.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .atomic import read_json
from .errors import BiofuseError, DegenerateLandmarks, ManifestError

FACE_LABELS = ("left_eye", "right_eye", "mouth_center")
EAR_LABELS = ("triangular_fossa", "antitragus")

_LABELS = {"face": FACE_LABELS, "ear": EAR_LABELS}

# the pooled background model is stored under this id, so no subject may
# take it
BACKGROUND_ID = "background"


def check_subject_id(subject_id: str) -> None:
    """BiofuseError unless subject_id can name a subject's files: `train`
    writes <modality>_<subject>.json and `prep` puts the id in each image
    name, so it must be one file-name component (no '/', os.sep or NUL)
    and not the reserved BACKGROUND_ID."""
    if subject_id == BACKGROUND_ID:
        raise BiofuseError(f"subject id {subject_id!r} is reserved for the "
                           f"background model")
    if any(c in subject_id for c in ("/", os.sep, "\0")):
        raise BiofuseError(f"subject id {subject_id!r} is not one file-name "
                           f"component: it holds a path separator or NUL")


@dataclass(frozen=True)
class LandmarkSet:
    """Labeled 2D points in source-image pixel space (x right, y down).

    Face sets carry exactly left_eye / right_eye / mouth_center; ear sets
    exactly triangular_fossa / antitragus.
    """

    modality: str
    points: dict

    def __post_init__(self):
        if self.modality not in _LABELS:
            raise ValueError(f"unknown modality {self.modality!r}")
        expected = set(_LABELS[self.modality])
        got = set(self.points)
        if got != expected:
            raise ValueError(
                f"{self.modality} landmarks must be exactly {sorted(expected)}, "
                f"got {sorted(got)}")

    def ordered(self):
        """Points as complex numbers x + iy, in canonical label order."""
        labels = _LABELS[self.modality]
        return labels, np.array(
            [complex(*self.points[lb]) for lb in labels])


@dataclass(frozen=True)
class CanonicalLayout:
    """Canonical frame geometry: crop size plus fixed landmark targets."""

    width: int = 200
    height: int = 220
    face: MappingProxyType = field(default_factory=lambda: {
        "left_eye": (60.0, 70.0),
        "right_eye": (140.0, 70.0),
        "mouth_center": (100.0, 170.0),
    })
    ear: MappingProxyType = field(default_factory=lambda: {
        "triangular_fossa": (100.0, 60.0),
        "antitragus": (100.0, 160.0),
    })

    def __post_init__(self):
        """The frame is at least 1x1, and each modality's landmark targets
        are finite, pairwise distinct and spread little enough that their
        squared spread about their mean is finite, so a similarity fit
        onto them neither collapses nor overflows. A ValueError names the
        offending config key. The targets are stored read-only, as (x, y)
        tuples of the values given, so the checks hold for the layout's
        whole life."""
        for key in ("width", "height"):
            if getattr(self, key) < 1:
                raise ValueError(
                    f"{key} must be at least 1, got {getattr(self, key)}")
        for modality in _LABELS:
            points = MappingProxyType({
                label: (x, y) for label, (x, y) in
                getattr(self, modality).items()})
            object.__setattr__(self, modality, points)
            keys = [f"{modality}_{label}" for label in points]
            xy = [(float(x), float(y)) for x, y in points.values()]
            for key, (x, y) in zip(keys, xy):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"{key} must be finite, got {x}, {y}")
            for i, j in itertools.combinations(range(len(xy)), 2):
                if xy[i] == xy[j]:
                    raise ValueError(f"{keys[i]} and {keys[j]} coincide at "
                                     f"{xy[i][0]}, {xy[i][1]}")
            # float sums and products overflow to inf (or NaN), not raise
            cx = sum(x for x, _ in xy) / len(xy)
            cy = sum(y for _, y in xy) / len(xy)
            spread = sum((x - cx) * (x - cx) + (y - cy) * (y - cy)
                         for x, y in xy)
            if not math.isfinite(spread):
                far = max(range(len(xy)), key=lambda i: max(map(abs, xy[i])))
                raise ValueError(f"{keys[far]} is too far from the other "
                                 f"{modality} targets: their squared spread "
                                 f"overflows")

    def positions(self, modality: str) -> MappingProxyType:
        if modality == "face":
            return self.face
        if modality == "ear":
            return self.ear
        raise ValueError(f"unknown modality {modality!r}")


def _similarity_fit(src: np.ndarray, dst: np.ndarray):
    """Least-squares similarity transform z -> a*z + b (complex form).

    Exact for two points; least-squares for three or more. Rotation and
    uniform scale only, never a reflection. A fit that is not finite (a
    target that is not, or one so large that the fit overflows) raises
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        src_mean = src.mean()
        dst_mean = dst.mean()
        zc = src - src_mean
        wc = dst - dst_mean
        denom = np.sum((zc * np.conj(zc)).real)
        if denom <= 0.0:
            raise DegenerateLandmarks("all landmarks coincide")
        a = np.sum(wc * np.conj(zc)) / denom
        if abs(a) < 1e-12:
            raise DegenerateLandmarks("fitted scale is zero")
        b = dst_mean - a * src_mean
    # a non-finite fit would send every sample to an arbitrary pixel
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"similarity fit is not finite (scale-rotation "
                         f"{a}, offset {b}); landmark targets must be "
                         f"finite")
    return a, b


def _inverse_map(coeff, offset, height: int, width: int):
    """(xs, ys), each (height, width): the source coordinates
    (w - offset) / coeff of every canonical pixel w = x + iy.

    They are formed from the row vector x - Re offset and the column vector
    y - Im offset by Smith's complex division (R. L. Smith, "Algorithm 116:
    Complex division", CACM 1962), the formula and the order of operations
    numpy's complex128 divide uses, so they are bit-equal to the complex
    division over the full grid without building that grid.
    """
    u = np.arange(width) - offset.real
    v = np.arange(height)[:, None] - offset.imag
    ar, ai = coeff.real, coeff.imag
    if abs(ar) >= abs(ai):
        rat = ai / ar
        scale = 1.0 / (ar + ai * rat)
        xs = u + v * rat
        ys = v - u * rat
    else:
        rat = ar / ai
        scale = 1.0 / (ai + ar * rat)
        xs = u * rat + v
        ys = v * rat - u
    xs *= scale
    ys *= scale
    return xs, ys


def _bilinear(img: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample img at finite float coords, zero outside the source plane.

    The image is copied once into a float64 plane with a 2-pixel zero
    border. Each sample's top-left corner is clipped to [-2, w] x [-2, h],
    so all four of its corners read from that plane, through one flat
    index each: a corner off the image, however far, lands in the border
    and reads 0. The corners are weighted and summed in a fixed order,
    (1-dx)(1-dy) s00 + dx(1-dy) s01 + (1-dx)dy s10 + dx dy s11, each
    weight product formed before it multiplies its sample. The index and
    the weights are formed in place, in arrays that each serve more than
    one step, and each corner is gathered through a view of the plane
    shifted by its offset; xs and ys are not modified.
    """
    h, w = img.shape
    stride = w + 4
    plane = np.zeros((h + 4, stride), dtype=np.float64)
    plane[2:h + 2, 2:w + 2] = img
    flat = plane.ravel()
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    dx = xs - x0
    dy = ys - y0
    # the flat index of the top-left corner; small integers, so the float
    # arithmetic is exact
    np.clip(x0, -2, w, out=x0)
    np.clip(y0, -2, h, out=y0)
    y0 *= stride
    y0 += x0
    y0 += 2 * stride + 2
    base = y0.astype(np.intp)
    ex = np.subtract(1.0, dx, out=x0)
    ey = np.subtract(1.0, dy, out=y0)
    sample = np.empty_like(dx)

    def corner(offset):
        # every base + offset lies in the plane, so "clip" clips nothing;
        # it spares the buffered copy that take(out=) makes under "raise"
        return flat[offset:].take(base, out=sample, mode="clip")

    out = ex * ey
    out *= corner(0)
    term = np.multiply(dx, ey, out=ey)
    term *= corner(1)
    out += term
    term = np.multiply(ex, dy, out=ex)
    term *= corner(stride)
    out += term
    term = np.multiply(dx, dy, out=dy)
    term *= corner(stride + 1)
    out += term
    return out


def geometric_normalize(img: np.ndarray, marks: LandmarkSet,
                        layout: CanonicalLayout) -> np.ndarray:
    """Align img so its landmarks land on the canonical positions, then
    crop to the canonical frame.

    Bilinear resampling; samples falling outside the source are 0.
    Output is always exactly (layout.height, layout.width) uint8.
    """
    a = np.asarray(img)
    if a.ndim != 2:
        raise ValueError("expected a 2D grayscale image")
    h, w = a.shape

    labels, src = marks.ordered()
    for i in range(len(src)):
        x, y = src[i].real, src[i].imag
        if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
            raise ValueError(
                f"landmark {labels[i]} at ({x}, {y}) outside {w}x{h} image")
        for j in range(i + 1, len(src)):
            if src[i] == src[j]:
                raise DegenerateLandmarks(
                    f"landmarks {labels[i]} and {labels[j]} coincide")

    positions = layout.positions(marks.modality)
    dst = np.array([complex(*positions[lb]) for lb in labels])
    coeff, offset = _similarity_fit(src, dst)

    # Inverse-map every canonical pixel back into the source plane.
    sampled = _bilinear(a, *_inverse_map(coeff, offset, layout.height,
                                         layout.width))
    np.rint(sampled, out=sampled)
    np.clip(sampled, 0, 255, out=sampled)
    return sampled.astype(np.uint8)


def histogram_equalize(img: np.ndarray) -> np.ndarray:
    """Standard CDF remap: out = round(255 * (cdf(v) - cdf_min) / (1 - cdf_min)).

    Monotone nondecreasing in input intensity. A constant image is returned
    unchanged (the remap is 0/0 there and any constant output is equivalent).
    """
    a = np.asarray(img)
    if a.ndim != 2 or a.dtype != np.uint8:
        raise ValueError("expected a 2D uint8 image")
    hist = np.bincount(a.ravel(), minlength=256)
    cdf = np.cumsum(hist) / a.size
    cdf_min = cdf[np.nonzero(hist)[0][0]]
    if cdf_min >= 1.0:
        return a.copy()
    lut = np.rint(255.0 * (cdf - cdf_min) / (1.0 - cdf_min))
    lut = np.clip(lut, 0, 255).astype(np.uint8)
    return lut.take(a)


@dataclass(frozen=True)
class ManifestEntry:
    image_path: str
    modality: str
    subject_id: str
    session: int
    landmarks: LandmarkSet
    prepped: bool = False  # the record's image is `prep`'s output


def load_manifest(path) -> list:
    """Parse a dataset manifest: a JSON array of records
    {image_path, modality, subject_id, session, landmarks: {label: [x, y]}}
    with an optional "prepped": true, which `prep` writes into each record
    it emits (absent reads as false).

    Raises ManifestError naming the offending record on any defect,
    including a session other than the integer 1 (gallery) or 2 (probe),
    a subject id that is neither a string nor an integer (an integer
    becomes its decimal string), one that check_subject_id refuses and a
    prepped value that is not a JSON bool.
    """
    try:
        with open(path, "rb") as fh:
            records = read_json(fh.read())
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid UTF-8: {exc}") \
            from exc
    if not isinstance(records, list):
        raise ManifestError(f"manifest {path} must be a JSON array")

    entries = []
    for i, rec in enumerate(records):
        where = f"manifest record {i}"
        if not isinstance(rec, dict):
            raise ManifestError(f"{where}: not an object")
        for key in ("image_path", "modality", "subject_id", "session", "landmarks"):
            if key not in rec:
                raise ManifestError(f"{where}: missing key {key!r}")
        image_path = rec["image_path"]
        where = f"{where} ({image_path})"
        modality = rec["modality"]
        if modality not in _LABELS:
            raise ManifestError(f"{where}: unknown modality {modality!r}")
        raw_marks = rec["landmarks"]
        if not isinstance(raw_marks, dict):
            raise ManifestError(f"{where}: landmarks not an object")
        for label in _LABELS[modality]:
            if label not in raw_marks:
                raise ManifestError(f"{where}: missing landmark {label!r}")
        points = {}
        for label, xy in raw_marks.items():
            if label not in _LABELS[modality]:
                raise ManifestError(f"{where}: unexpected landmark {label!r}")
            try:
                points[label] = (float(xy[0]), float(xy[1]))
            except (TypeError, ValueError, IndexError):
                raise ManifestError(
                    f"{where}: landmark {label!r} is not [x, y]") from None
        session = rec["session"]
        # JSON true and 1.0 compare equal to 1, so the type is checked too
        if type(session) is not int or session not in (1, 2):
            raise ManifestError(
                f"{where}: session must be 1 or 2, got {session!r}")
        subject_id = rec["subject_id"]
        # an integer id reads as its decimal string; true is no integer
        if type(subject_id) is int:
            subject_id = str(subject_id)
        elif not isinstance(subject_id, str):
            raise ManifestError(f"{where}: subject_id must be a string or "
                                f"an integer, got {subject_id!r}")
        try:
            check_subject_id(subject_id)
        except BiofuseError as exc:
            raise ManifestError(f"{where}: {exc}") from None
        prepped = rec.get("prepped", False)
        if type(prepped) is not bool:
            raise ManifestError(f"{where}: prepped must be true or false, "
                                f"got {prepped!r}")
        entries.append(ManifestEntry(
            image_path=str(image_path),
            modality=modality,
            subject_id=subject_id,
            session=session,
            landmarks=LandmarkSet(modality, points),
            prepped=prepped,
        ))
    return entries
