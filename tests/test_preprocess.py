import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.errors import DegenerateLandmarks, ManifestError
from biofuse.preprocess import (CanonicalLayout, LandmarkSet, _bilinear,
                                _inverse_map, _similarity_fit,
                                geometric_normalize, histogram_equalize,
                                load_manifest)

FACE = {"left_eye": (60.0, 70.0), "right_eye": (140.0, 70.0),
        "mouth_center": (100.0, 170.0)}
EAR = {"triangular_fossa": (100.0, 60.0), "antitragus": (100.0, 160.0)}
LAYOUT = CanonicalLayout()


def _smooth(xs, ys):
    return (128.0 + 60.0 * np.sin(xs / 23.0) * np.cos(ys / 17.0)
            + 40.0 * np.sin((xs + ys) / 31.0))


class TestLandmarkSet:
    def test_face_needs_exact_labels(self):
        with pytest.raises(ValueError):
            LandmarkSet("face", {"left_eye": (0, 0), "right_eye": (1, 1)})
        with pytest.raises(ValueError):
            LandmarkSet("face", {**FACE, "nose": (5, 5)})

    def test_ear_needs_exact_labels(self):
        with pytest.raises(ValueError):
            LandmarkSet("ear", {"triangular_fossa": (0, 0)})

    def test_unknown_modality(self):
        with pytest.raises(ValueError):
            LandmarkSet("iris", {})

    @pytest.mark.parametrize("xy", [
        "12", [True, False], [1, 2, 3], ["60", "70"], {"x": 1, "y": 2},
        [10 ** 400, 70.0], [math.nan, 70.0], [60.0, -math.inf], None, [60.0]],
        ids=["string", "bools", "three", "strings", "object", "huge-int",
             "nan", "infinity", "null", "one"])
    def test_point_that_is_not_two_finite_numbers(self, xy):
        with pytest.raises(ValueError) as refused:
            LandmarkSet("ear", {**EAR, "antitragus": xy})
        assert str(refused.value) == (
            f"ear landmark 'antitragus' must be [x, y] of two finite "
            f"numbers, got {xy!r}")

    @pytest.mark.parametrize("points", [None, 5, [1, 2], "ab"],
                             ids=["null", "int", "list", "string"])
    def test_points_that_are_no_mapping(self, points):
        with pytest.raises(ValueError) as refused:
            LandmarkSet("ear", points)
        assert str(refused.value) == (
            f"ear landmarks must map each label to [x, y], got {points!r}")

    @pytest.mark.parametrize("modality", [["face"], {"face": 1}],
                             ids=["list", "object"])
    def test_modality_that_is_no_string(self, modality):
        with pytest.raises(ValueError) as refused:
            LandmarkSet(modality, FACE)
        assert str(refused.value) == f"unknown modality {modality!r}"

    def test_points_are_float_pairs_in_the_order_given(self):
        given = {"antitragus": [3, 4], "triangular_fossa": (np.float32(1.5),
                                                          np.int64(2))}
        marks = LandmarkSet("ear", given)
        assert list(marks.points.items()) == [
            ("antitragus", (3.0, 4.0)), ("triangular_fossa", (1.5, 2.0))]
        assert all(type(v) is float for xy in marks.points.values()
                   for v in xy)
        # the checked points are a copy
        given["antitragus"] = "12"
        assert marks.points["antitragus"] == (3.0, 4.0)


class TestGeometricNormalize:
    def test_identity_landmarks_is_exact_crop(self):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 256, (260, 240)).astype(np.uint8)
        out = geometric_normalize(src, LandmarkSet("face", FACE), LAYOUT)
        assert out.shape == (220, 200)
        assert np.array_equal(out, src[:220, :200])

    def test_identity_landmarks_ear(self):
        rng = np.random.default_rng(2)
        src = rng.integers(0, 256, (230, 210)).astype(np.uint8)
        out = geometric_normalize(src, LandmarkSet("ear", EAR), LAYOUT)
        assert np.array_equal(out, src[:220, :200])

    def test_rotated_input_matches_unrotated(self):
        # same smooth scene sampled unrotated and rotated by 10 degrees,
        # with landmarks rotated correspondingly
        h = w = 300
        ys, xs = np.mgrid[0:h, 0:w]
        img_a = np.clip(np.rint(_smooth(xs, ys)), 0, 255).astype(np.uint8)
        marks_a = {"left_eye": (110.0, 120.0), "right_eye": (190.0, 120.0),
                   "mouth_center": (150.0, 220.0)}

        theta = math.radians(10.0)
        center = 150.0 + 150.0j
        back = (xs + 1j * ys - center) * complex(math.cos(-theta),
                                                 math.sin(-theta)) + center
        img_b = np.clip(np.rint(_smooth(back.real, back.imag)),
                        0, 255).astype(np.uint8)
        fwd = complex(math.cos(theta), math.sin(theta))

        def rotated(point):
            z = (complex(*point) - center) * fwd + center
            return (z.real, z.imag)

        marks_b = {k: rotated(v) for k, v in marks_a.items()}
        out_a = geometric_normalize(img_a, LandmarkSet("face", marks_a),
                                    LAYOUT)
        out_b = geometric_normalize(img_b, LandmarkSet("face", marks_b),
                                    LAYOUT)
        mad = np.abs(out_a.astype(float) - out_b.astype(float)).mean()
        assert mad <= 2.0

    def test_coincident_landmarks(self):
        src = np.zeros((260, 240), dtype=np.uint8)
        marks = LandmarkSet("face", {**FACE, "right_eye": FACE["left_eye"]})
        with pytest.raises(DegenerateLandmarks):
            geometric_normalize(src, marks, LAYOUT)

    def test_landmark_outside_bounds(self):
        src = np.zeros((100, 100), dtype=np.uint8)
        with pytest.raises(ValueError):
            geometric_normalize(src, LandmarkSet("face", FACE), LAYOUT)

    @pytest.mark.parametrize("shape", [(230, 210), (400, 500), (221, 201)])
    def test_output_always_target_sized(self, shape):
        rng = np.random.default_rng(3)
        src = rng.integers(0, 256, shape).astype(np.uint8)
        out = geometric_normalize(src, LandmarkSet("ear", EAR), LAYOUT)
        assert out.shape == (220, 200)

    def test_custom_layout(self):
        layout = CanonicalLayout(width=100, height=110,
                                 face={"left_eye": (30.0, 35.0),
                                       "right_eye": (70.0, 35.0),
                                       "mouth_center": (50.0, 85.0)},
                                 ear={"triangular_fossa": (50.0, 30.0),
                                      "antitragus": (50.0, 80.0)})
        src = np.zeros((130, 120), dtype=np.uint8)
        marks = LandmarkSet("face", layout.face)
        assert geometric_normalize(src, marks, layout).shape == (110, 100)

    def test_zero_fill_outside_source(self):
        # source landmarks twice as far apart as canonical -> the crop
        # window doubles and overruns the source borders
        src = np.full((230, 210), 200, dtype=np.uint8)
        marks = LandmarkSet("ear", {"triangular_fossa": (100.0, 10.0),
                                    "antitragus": (100.0, 210.0)})
        out = geometric_normalize(src, marks, LAYOUT)
        assert out[0, 0] == 0       # corner maps outside the source
        assert out[110, 100] == 200  # center stays inside
        assert out.max() == 200

    @pytest.mark.parametrize("target, message", [
        ((float("nan"), 70.0), "face_left_eye must be finite, got nan, 70.0"),
        ((60.0, float("inf")), "face_left_eye must be finite, got 60.0, inf"),
        ((1e308, 70.0), "face_left_eye is too far from the other face "
                        "targets: their squared spread overflows"),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_layout_is_refused(self, target, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CanonicalLayout(face={**FACE, "left_eye": target})

    @pytest.mark.parametrize("changes, message", [
        (dict(width=0), "width must be at least 1, got 0"),
        (dict(height=-3), "height must be at least 1, got -3"),
        (dict(face={k: (5.0, 5.0) for k in FACE}),
         "face_left_eye and face_right_eye coincide at 5.0, 5.0"),
        (dict(ear={**EAR, "antitragus": EAR["triangular_fossa"]}),
         "ear_triangular_fossa and ear_antitragus coincide at 100.0, 60.0"),
    ], ids=["width-0", "height-negative", "face-coincide", "ear-coincide"])
    def test_library_layout_is_validated(self, changes, message):
        # a layout that never passed through load_config is checked too,
        # when it is made
        with pytest.raises(ValueError, match=re.escape(message)):
            CanonicalLayout(**changes)

    def test_overflowing_fit_is_refused(self):
        # valid targets can still overflow the fit when the source
        # landmarks are almost coincident
        with pytest.raises(ValueError, match="similarity fit is not finite"):
            _similarity_fit(np.array([0.0, 1e-150j]),
                            np.array([0.0, 1e160 + 0.0j]))


def _bilinear_reference(img, xs, ys):
    """The masked warp _bilinear replaced, kept as its oracle."""
    h, w = img.shape
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    dx = xs - x0
    dy = ys - y0

    out = np.zeros(xs.shape, dtype=np.float64)
    vals = img.astype(np.float64)
    for oy, wy in ((0, 1.0 - dy), (1, dy)):
        for ox, wx in ((0, 1.0 - dx), (1, dx)):
            xi = x0 + ox
            yi = y0 + oy
            valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            sample = np.where(
                valid, vals[yi.clip(0, h - 1), xi.clip(0, w - 1)], 0.0)
            out += wx * wy * sample
    return out


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       h=st.integers(min_value=1, max_value=40),
       w=st.integers(min_value=1, max_value=40))
def test_bilinear_equals_the_masked_reference(seed, h, w):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w), dtype=np.uint8)
    # a random similarity map of a 30x30 output grid, as in
    # geometric_normalize; small scales spread it far beyond the plane
    a = 10.0 ** rng.uniform(-2.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    b = complex(*rng.uniform(-50.0, 50.0, 2))
    ys_c, xs_c = np.mgrid[0:30, 0:30]
    z = ((xs_c + 1j * ys_c - b) / a).ravel()
    # points 3 px to 1e4 px off each side of the plane
    far = 3.0 + 10.0 ** rng.uniform(0.0, 4.0, 8)
    inside_x = rng.uniform(0.0, w - 1, 8)
    inside_y = rng.uniform(0.0, h - 1, 8)
    off = np.concatenate([-far[:2] + 1j * inside_y[:2],
                          w - 1 + far[2:4] + 1j * inside_y[2:4],
                          inside_x[4:6] - 1j * far[4:6],
                          inside_x[6:] + 1j * (h - 1 + far[6:])])
    # exactly on the last row and column, and just below 0
    below = -np.array([5e-324, 1e-12, 0.5])
    edge = np.concatenate([(w - 1) + 1j * inside_y[:3],
                           inside_x[:3] + 1j * (h - 1),
                           [(w - 1) + 1j * (h - 1)],
                           below + 1j * inside_y[:3],
                           inside_x[:3] + 1j * below,
                           below + 1j * below])
    points = np.concatenate([z, off, edge])
    got = _bilinear(img, points.real, points.imag)
    assert np.array_equal(got, _bilinear_reference(img, points.real,
                                                   points.imag))


def _mgrid_inverse_map(coeff, offset, height, width):
    """The complex division over the full grid that _inverse_map replaced,
    kept as its oracle."""
    ys_c, xs_c = np.mgrid[0:height, 0:width]
    z = (xs_c + 1j * ys_c - offset) / coeff
    return z.real, z.imag


def _assert_bit_equal(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       real_dominates=st.booleans())
def test_inverse_map_equals_the_complex_division(seed, real_dominates):
    # Smith's formula takes one branch where |Re a| >= |Im a| and the
    # other where it is not; each example picks its branch
    rng = np.random.default_rng(seed)
    big, small = sorted(np.abs(rng.normal(size=2)) + 1e-3, reverse=True)
    scale = 10.0 ** rng.uniform(-2.0, 1.0) / math.hypot(big, small)
    signs = rng.choice([-1.0, 1.0], 2)
    parts = (big, small) if real_dominates else (small, big)
    coeff = np.complex128(complex(*(scale * signs * parts)))
    assert (abs(coeff.real) >= abs(coeff.imag)) == real_dominates
    offset = np.complex128(complex(*rng.uniform(-300.0, 300.0, 2)))
    height, width = (int(n) for n in rng.integers(1, 80, 2))
    _assert_bit_equal(_inverse_map(coeff, offset, height, width),
                      _mgrid_inverse_map(coeff, offset, height, width))


@pytest.mark.parametrize("offset", [12.25 - 7.5j, 3.0 + 1.0j])
@pytest.mark.parametrize("coeff", [1j, -1j, 1.0, -1.0, 0.5 + 0.5j,
                                   -2.0 + 2.0j, 0.3 - 0.7j])
def test_inverse_map_equals_the_complex_division_at(coeff, offset):
    # a pure rotation by +-90 degrees has Re a = 0. |Re a| = |Im a| ties
    # take the first branch; the second gives the same values there, but
    # with the other sign where a coordinate is 0, which an offset of
    # integers brings about
    coeff = np.complex128(coeff)
    offset = np.complex128(offset)
    _assert_bit_equal(_inverse_map(coeff, offset, 220, 200),
                      _mgrid_inverse_map(coeff, offset, 220, 200))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_geometric_normalize_equals_the_grid_route(seed):
    # random landmarks: any rotation, scale and shift, both branches
    rng = np.random.default_rng(seed)
    h, w = (int(n) for n in rng.integers(20, 120, 2))
    img = rng.integers(0, 256, (h, w), dtype=np.uint8)
    points = {label: (float(rng.uniform(0, w - 1)),
                      float(rng.uniform(0, h - 1))) for label in FACE}
    marks = LandmarkSet("face", points)
    labels, src = marks.ordered()
    dst = np.array([complex(*LAYOUT.face[label]) for label in labels])
    coeff, offset = _similarity_fit(src, dst)
    sampled = _bilinear_reference(
        img, *_mgrid_inverse_map(coeff, offset, LAYOUT.height, LAYOUT.width))
    want = np.clip(np.rint(sampled), 0, 255).astype(np.uint8)
    assert np.array_equal(geometric_normalize(img, marks, LAYOUT), want)


class TestHistogramEqualize:
    def test_constant_image(self):
        img = np.full((8, 8), 128, dtype=np.uint8)
        out = histogram_equalize(img)
        assert len(np.unique(out)) == 1

    def test_two_level_image(self):
        # cdf(0) = 0.5 = cdf_min, cdf(255) = 1:
        # map(0) = 0, map(255) = round(255 * 0.5/0.5) = 255
        img = np.array([[0, 0, 0, 0], [255, 255, 255, 255]], dtype=np.uint8)
        out = histogram_equalize(img)
        assert set(np.unique(out)) == {0, 255}
        assert np.all(out[0] < out[1])

    def test_uniform_histogram_is_near_identity(self):
        # linear cdf: map(v) = round(255 * v / 255) = v exactly
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = histogram_equalize(img)
        assert np.max(np.abs(out.astype(int) - img.astype(int))) <= 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_monotone_in_intensity(self, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        out = histogram_equalize(img)
        flat_in = img.ravel()
        flat_out = out.ravel().astype(int)
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0)


class TestManifest:
    def _write(self, tmp_path, records):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(records))
        return path

    def test_load_valid(self, tmp_path):
        records = [{"image_path": "x.pgm", "modality": "ear",
                    "subject_id": "s1", "session": 1,
                    "landmarks": {"triangular_fossa": [1, 2],
                                  "antitragus": [3, 4]}}]
        entries = load_manifest(self._write(tmp_path, records))
        assert entries[0].subject_id == "s1"
        assert entries[0].landmarks.points["antitragus"] == (3.0, 4.0)

    def test_missing_landmark_names_image_and_label(self, tmp_path):
        records = [{"image_path": "face7.pgm", "modality": "face",
                    "subject_id": "s1", "session": 1,
                    "landmarks": {"left_eye": [1, 2], "right_eye": [3, 4]}}]
        with pytest.raises(ManifestError, match="face7.pgm.*mouth_center"):
            load_manifest(self._write(tmp_path, records))

    def test_not_a_list(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(self._write(tmp_path, {"images": []}))

    def test_missing_key(self, tmp_path):
        with pytest.raises(ManifestError, match="session"):
            load_manifest(self._write(tmp_path, [{
                "image_path": "x", "modality": "ear", "subject_id": "s",
                "landmarks": {}}]))

    @pytest.mark.parametrize("session", [3, 0, 1.7, 1.0, True, "1", None])
    def test_session_other_than_1_or_2(self, tmp_path, session):
        good = {"image_path": "a.pgm", "modality": "ear", "subject_id": "s",
                "session": 2, "landmarks": EAR}
        path = self._write(tmp_path, [good, {**good, "image_path": "b.pgm",
                                             "session": session}])
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest record 1 (b.pgm): session must be 1 or 2, "
                f"got {session!r}")):
            load_manifest(path)

    @pytest.mark.parametrize("prepped", [1, 0, "true", None, []],
                             ids=["one", "zero", "string", "null", "list"])
    def test_prepped_other_than_a_bool(self, tmp_path, prepped):
        # 1 and 0 compare equal to true and false, so the type is checked
        good = {"image_path": "a.pgm", "modality": "ear", "subject_id": "s",
                "session": 2, "landmarks": EAR, "prepped": True}
        path = self._write(tmp_path, [good, {**good, "image_path": "b.pgm",
                                             "prepped": prepped}])
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest record 1 (b.pgm): prepped must be true or "
                f"false, got {prepped!r}")):
            load_manifest(path)

    def test_prepped_reads_as_given_and_absent_as_false(self, tmp_path):
        good = {"image_path": "a.pgm", "modality": "ear", "subject_id": "s",
                "session": 2, "landmarks": EAR}
        entries = load_manifest(self._write(tmp_path, [
            good, {**good, "prepped": True}, {**good, "prepped": False}]))
        assert [e.prepped for e in entries] == [False, True, False]

    @pytest.mark.parametrize("subject_id", [None, True, 1.5, [1, 2],
                                            {"a": 1}],
                             ids=["null", "true", "float", "list", "object"])
    def test_subject_id_neither_string_nor_integer(self, tmp_path,
                                                   subject_id):
        # none is an id; str() would name a subject 'None', 'True', ...
        good = {"image_path": "a.pgm", "modality": "ear", "subject_id": "s",
                "session": 2, "landmarks": EAR}
        path = self._write(tmp_path, [good, {**good, "image_path": "b.pgm",
                                             "subject_id": subject_id}])
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest record 1 (b.pgm): subject_id must be a string "
                f"or an integer, got {subject_id!r}")):
            load_manifest(path)

    def test_integer_subject_id_reads_as_its_string(self, tmp_path):
        entries = load_manifest(self._write(tmp_path, [{
            "image_path": "a.pgm", "modality": "ear", "subject_id": 7,
            "session": 1, "landmarks": EAR}]))
        assert entries[0].subject_id == "7"

    def test_unknown_modality(self, tmp_path):
        with pytest.raises(ManifestError, match="gait"):
            load_manifest(self._write(tmp_path, [{
                "image_path": "x", "modality": "gait", "subject_id": "s",
                "session": 1, "landmarks": {}}]))

    @pytest.mark.parametrize("image_path", [None, 5, True, [], {}],
                             ids=["null", "int", "true", "list", "object"])
    def test_image_path_that_is_no_string(self, tmp_path, image_path):
        # str() would read a file named 'None', '5', ...
        good = {"image_path": "a.pgm", "modality": "ear", "subject_id": "s",
                "session": 2, "landmarks": EAR}
        path = self._write(tmp_path, [good, {**good,
                                             "image_path": image_path}])
        with pytest.raises(ManifestError) as refused:
            load_manifest(path)
        assert str(refused.value) == (f"manifest record 1: image_path must "
                                      f"be a string, got {image_path!r}")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{")
        with pytest.raises(ManifestError):
            load_manifest(path)


# any JSON value, nested or not; the numbers include NaN, the infinities
# and integers beyond float range, and pairs of numbers are drawn often
_NUMBERS = st.integers() | st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])
_LEAVES = (st.none() | st.booleans() | _NUMBERS | st.text()
           | st.sampled_from(["face", "ear"]))
_JSON_VALUES = (_LEAVES | st.lists(_NUMBERS, min_size=2, max_size=2)
                | st.recursive(_LEAVES, lambda inner: st.lists(
                    inner, max_size=3) | st.dictionaries(
                        st.text(max_size=8), inner, max_size=3),
                    max_leaves=6))
_FIELDS = ("modality", "image_path", "subject_id", "session", "prepped",
           "landmarks", "point")


@settings(max_examples=1000, deadline=None)
@given(modality=st.sampled_from(["face", "ear"]),
       field=st.sampled_from(_FIELDS), value=_JSON_VALUES,
       label_index=st.integers(0, 2))
def test_malformed_record_is_refused_or_read_as_finite_float_pairs(
        modality, field, value, label_index):
    # one field of a valid record, or one landmark point, is replaced
    marks = dict(FACE if modality == "face" else EAR)
    record = {"image_path": "a.pgm", "modality": modality,
              "subject_id": "s", "session": 1, "landmarks": marks}
    if field == "point":
        marks[sorted(marks)[label_index % len(marks)]] = value
    else:
        record[field] = value
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([record], fh)
        try:
            entries = load_manifest(path)
        except ManifestError as exc:
            assert str(exc).startswith("manifest record 0")
            return
    (entry,) = entries
    assert isinstance(entry.image_path, str)
    assert entry.landmarks.modality == entry.modality
    for xy in entry.landmarks.points.values():
        assert len(xy) == 2
        assert all(type(v) is float and math.isfinite(v) for v in xy)
