import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import biofuse.evaluate as evaluate
from biofuse.config import (DEFAULT_SYNTH, EvalSettings, FusionSettings,
                            Paths, PipelineConfig, SynthModality)
from biofuse.dempster import (GENUINE_MASK, IMPOSTOR_MASK, bpa_from_score,
                              combine_dempster)
from biofuse.errors import (DegenerateCalibration, EmptyScoreList,
                            ManifestError, TotalConflict)
from biofuse.evaluate import (RocCurve, compute_roc, eer,
                              fused_genuine_mass, run_fusion_experiment,
                              run_image_experiment, synth_scores)

PHI_MINUS_HALF = 0.5 * math.erfc(0.5 / math.sqrt(2.0))  # ~0.30854


def _synth_config(alpha_face, alpha_ear, synth=DEFAULT_SYNTH,
                  **eval_settings):
    """Default settings with these synthetic matchers, alphas and [eval]
    values."""
    return PipelineConfig(
        synth=dict(synth),
        fusion=FusionSettings(alpha_face=alpha_face, alpha_ear=alpha_ear),
        eval=EvalSettings(**eval_settings))


def _image_config(tmp_path):
    """Default settings over an empty model_dir, so the run trains."""
    return PipelineConfig(paths=Paths(model_dir=str(tmp_path / "models")))


def _assert_built_from(report, rocs, scores, config):
    """The report rows and ROC curves are those of the returned scores,
    methods in face, ear, fusion order."""
    methods = ["face", "ear", "fusion"]
    assert list(scores) == list(rocs) == methods
    assert [row.method for row in report.rows] == methods
    for method, (genuine, impostor) in scores.items():
        assert genuine.dtype == impostor.dtype == np.float64
        roc = compute_roc(genuine, impostor, config.eval.num_thresholds)
        assert np.array_equal(rocs[method].thresholds, roc.thresholds)
        assert np.array_equal(rocs[method].far, roc.far)
        assert np.array_equal(rocs[method].frr, roc.frr)
        assert report.row(method).eer == eer(roc) * 100.0


def _roc_invariants(roc):
    assert np.all(np.diff(roc.thresholds) > 0)
    assert np.all(np.diff(roc.far) <= 0)
    assert np.all(np.diff(roc.frr) >= 0)
    assert np.all((roc.far >= 0) & (roc.far <= 1))
    assert np.all((roc.frr >= 0) & (roc.frr <= 1))


class TestRoc:
    def test_perfectly_separable(self):
        roc = compute_roc(np.ones(50), np.zeros(50), 201)
        _roc_invariants(roc)
        joint = roc.far + roc.frr
        assert joint.min() == 0.0  # some threshold has FAR = FRR = 0
        assert eer(roc) == 0.0

    def test_identical_distributions(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(0, 1, 2000)
        roc = compute_roc(scores, scores.copy(), 2001)
        _roc_invariants(roc)
        assert np.allclose(roc.far + roc.frr, 1.0)
        assert eer(roc) == pytest.approx(0.5, abs=1e-9)

    def test_gaussian_pair_matches_analytic_eer(self):
        # equal-variance normals cross at the midpoint: EER = Phi(-1/2)
        rng = np.random.default_rng(7)
        genuine = rng.normal(1.0, 1.0, 100_000)
        impostor = rng.normal(0.0, 1.0, 100_000)
        roc = compute_roc(genuine, impostor, 10_001)
        assert eer(roc) == pytest.approx(PHI_MINUS_HALF, abs=0.01)

    def test_empty_inputs(self):
        with pytest.raises(EmptyScoreList):
            compute_roc([], [1.0], 11)
        with pytest.raises(EmptyScoreList):
            compute_roc([1.0], [], 11)

    def test_all_equal_scores(self):
        roc = compute_roc([2.0, 2.0], [2.0], 11)
        _roc_invariants(roc)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        roc = compute_roc(rng.normal(1, 2, 40), rng.normal(0, 1, 30), 101)
        _roc_invariants(roc)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_eer_is_rank_statistic(self, seed):
        # a strictly increasing transform of all scores preserves EER up to
        # threshold-grid resolution
        rng = np.random.default_rng(seed)
        genuine = rng.normal(1.2, 1, 500)
        impostor = rng.normal(0, 1, 500)
        base = eer(compute_roc(genuine, impostor, 20_001))
        warped = eer(compute_roc(np.exp(genuine / 2), np.exp(impostor / 2),
                                 20_001))
        assert warped == pytest.approx(base, abs=0.01)

    def test_csv_format(self):
        roc = compute_roc([1.0, 2.0], [0.0], 5)
        lines = roc.to_csv().strip().splitlines()
        assert lines[0] == "threshold,far,frr"
        assert len(lines) == 6
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows == np.column_stack(
            [roc.thresholds, roc.far, roc.frr]).tolist()


def _to_csv_reference(roc):
    """RocCurve.to_csv as one repr per field: the byte oracle."""
    lines = ["threshold,far,frr"]
    for t, fa, fr in zip(roc.thresholds.tolist(), roc.far.tolist(),
                         roc.frr.tolist()):
        lines.append(f"{t!r},{fa!r},{fr!r}")
    return "\n".join(lines) + "\n"


def _curve(columns):
    thresholds, far, frr = (np.asarray(c, dtype=np.float64) for c in columns)
    return RocCurve(thresholds=thresholds, far=far, frr=frr)


# the edges of the magnitudes that orjson and repr spell alike, one ulp
# either side, and the lowest threshold of a fused curve whose lowest mass
# is 0
_EDGES = [float(v) for x in (1e-4, 1e16, -1e-4, -1e16)
          for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]
_EDGES.append(-1e-06)


class TestRocCsvBytes:
    """to_csv equals the repr oracle byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(table=st.integers(0, 40).flatmap(lambda n: arrays(
        np.float64, (3, n),
        elements=st.one_of(
            st.floats(),
            st.integers(0, 159_600).map(lambda c: c / 159_600)))))
    def test_arbitrary_columns(self, table):
        roc = _curve(table)
        assert roc.to_csv() == _to_csv_reference(roc)

    @pytest.mark.parametrize("column", range(3))
    def test_magnitude_edges(self, column):
        columns = [np.full(len(_EDGES), 0.5) for _ in range(3)]
        columns[column] = _EDGES
        roc = _curve(columns)
        assert roc.to_csv() == _to_csv_reference(roc)

    @pytest.mark.parametrize("n", [10_000, 240, 159_600])
    def test_count_fractions(self, n):
        # FAR and FRR as compute_roc forms them, c / n for a count c
        counts = np.arange(n + 1)
        roc = _curve((np.linspace(-1e-06, 1.0, n + 1), (n - counts) / n,
                      counts / n))
        assert roc.to_csv() == _to_csv_reference(roc)

    def test_signed_zeros_and_non_finite(self):
        values = [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]
        roc = _curve((values, values[::-1], values[3:] + values[:3]))
        assert roc.to_csv() == _to_csv_reference(roc)


# values that orjson spells otherwise than repr, or not at all: each
# fails one or both halves of to_csv's whole-curve plainness test
_ODD = [np.nan, np.inf, -np.inf, 1e20, -1e16, 1e-05, -5e-324, -1e-06]


def _full_size_curve():
    """A 10,001-row curve as compute_roc makes it for synth-eval."""
    rng = np.random.default_rng(0)
    return compute_roc(rng.normal(2.0, 1.0, 10_000),
                       rng.normal(0.0, 1.0, 10_000), 10_001)


def _assert_csv_is_reference(roc):
    """to_csv() == _to_csv_reference(roc), failing on the first line that
    differs (pytest's diff of two 10,001-line strings takes minutes)."""
    got = roc.to_csv().split("\n")
    want = _to_csv_reference(roc).split("\n")
    first = next(((i, a, b) for i, (a, b) in enumerate(zip(got, want))
                  if a != b), None)
    assert first is None
    assert len(got) == len(want)


class TestRocCsvFullSize:
    """to_csv equals the repr oracle on curves of synth-eval's size."""

    def test_plain_curve(self):
        _assert_csv_is_reference(_full_size_curve())

    @pytest.mark.parametrize("value", _ODD)
    @pytest.mark.parametrize("row", [
        0, 5_000, 10_000,
        pytest.param([0, 10_000], id="0+10000")])  # the first and the last
    def test_one_odd_row(self, row, value):
        plain = _full_size_curve()
        for k in range(3):
            columns = [plain.thresholds.copy(), plain.far.copy(),
                       plain.frr.copy()]
            columns[k][row] = value
            roc = _curve(columns)
            _assert_csv_is_reference(roc)

    @pytest.mark.parametrize("value", [0.5, *_ODD])
    def test_one_row(self, value):
        _assert_csv_is_reference(_curve(([value], [1.0], [0.0])))

    def test_every_row_odd(self):
        roc = _full_size_curve()
        thresholds = roc.thresholds * 1e-6
        assert ((thresholds != 0) & (np.abs(thresholds) < 1e-4)).all()
        roc = _curve((thresholds, roc.far, roc.frr))
        _assert_csv_is_reference(roc)

    @pytest.mark.parametrize("seed", [42, 7, 123_456, 2**31, 0])
    def test_fusion_experiment_curves(self, seed):
        _, rocs, _ = run_fusion_experiment(PipelineConfig().with_seed(seed))
        for roc in rocs.values():
            assert len(roc.thresholds) == 10_001
            _assert_csv_is_reference(roc)


class TestSynthScores:
    def test_deterministic_given_seed(self):
        a = synth_scores(DEFAULT_SYNTH, 100, 100, seed=5)
        b = synth_scores(DEFAULT_SYNTH, 100, 100, seed=5)
        for modality in a:
            assert np.array_equal(a[modality][0], b[modality][0])
            assert np.array_equal(a[modality][1], b[modality][1])
        c = synth_scores(DEFAULT_SYNTH, 100, 100, seed=6)
        assert not np.array_equal(a["face"][0], c["face"][0])

    def test_indistinguishable_spec_gives_half_eer(self):
        spec = {"face": SynthModality(genuine_mean=0.0),
                "ear": SynthModality(genuine_mean=0.0)}
        scores = synth_scores(spec, 10_000, 10_000, seed=9)
        g, i = scores["face"]
        assert eer(compute_roc(g, i, 10_001)) == pytest.approx(0.5, abs=0.02)

    def test_tuned_separations_hit_target_eers(self):
        # EER = Phi(-sep/2) for equal-variance normals
        scores = synth_scores(DEFAULT_SYNTH, 10_000, 10_000, seed=11)
        for modality, sep in (("face", 2.81), ("ear", 3.00)):
            target = 0.5 * math.erfc(sep / (2.0 * math.sqrt(2.0)))
            g, i = scores[modality]
            measured = eer(compute_roc(g, i, 10_001))
            assert measured == pytest.approx(target, abs=0.01)

    def test_validates_counts(self):
        with pytest.raises(ValueError):
            synth_scores(DEFAULT_SYNTH, 0, 10, seed=1)


@st.composite
def _two_sources(draw):
    """[(scores, calibration, alpha)] for face and ear, equally many scores
    each; scores fall inside the bounds or anywhere, +-inf included."""
    n = draw(st.integers(1, 8))
    sources = []
    for _ in range(2):
        lo, hi = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2,
                                      max_size=2, unique=True)))
        score = st.floats(lo, hi) | st.floats(allow_nan=False)
        scores = draw(st.lists(score, min_size=n, max_size=n))
        alpha = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        sources.append((scores, (lo, hi), alpha))
    return sources


class TestFusedGenuineMass:
    @settings(max_examples=300, deadline=None)
    @given(sources=_two_sources())
    # certain sources that disagree: total conflict
    @example(sources=[([1.0], (0.0, 1.0), 1.0), ([0.0], (0.0, 1.0), 1.0)])
    # K = 1 - 2e-12, the near-total conflict pinned on
    # test_dempster.py::TestDecide::test_monotone_in_evidence
    @example(sources=[([1.0 - 1e-12], (0.0, 1.0), 1.0),
                      ([1e-12], (0.0, 1.0), 1.0)])
    def test_matches_the_general_engine(self, sources):
        (face, calib_face, alpha_face), (ear, calib_ear, alpha_ear) = sources
        genuine, impostor, conflict, flagged = fused_genuine_mass(
            face, ear, calib_face, calib_ear, alpha_face, alpha_ear)
        for k, (fs, es) in enumerate(zip(face, ear)):
            try:
                combined, ref_conflict = combine_dempster(
                    bpa_from_score(fs, calib_face, alpha_face),
                    bpa_from_score(es, calib_ear, alpha_ear))
            except TotalConflict:
                assert flagged[k]
                assert (genuine[k], impostor[k], conflict[k]) == \
                    (0.0, 0.0, 1.0)
                continue
            assert not flagged[k]
            assert conflict[k] == ref_conflict
            assert abs(genuine[k] - combined.mass(GENUINE_MASK)) <= 1e-15
            assert abs(impostor[k] - combined.mass(IMPOSTOR_MASK)) <= 1e-15

    def test_scalar_trial_worked_value(self):
        # s = 0.8 and 0.7, alpha 1: K = .8*.3 + .2*.7, m(g) = .56 / .62
        genuine, impostor, conflict, flagged = fused_genuine_mass(
            0.8, 0.7, (0.0, 1.0), (0.0, 1.0), 1.0, 1.0)
        assert genuine.shape == impostor.shape == conflict.shape == ()
        assert not flagged
        assert conflict == pytest.approx(0.38, abs=1e-15)
        assert genuine == pytest.approx(0.56 / 0.62, abs=1e-15)
        assert impostor == pytest.approx(0.06 / 0.62, abs=1e-15)

    @pytest.mark.parametrize("calib_face, calib_ear", [
        ((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (2.0, 1.0))])
    def test_degenerate_calibration(self, calib_face, calib_ear):
        with pytest.raises(DegenerateCalibration):
            fused_genuine_mass([0.5], [0.5], calib_face, calib_ear, 0.9, 0.9)

    @pytest.mark.parametrize("alpha_face, alpha_ear", [
        (1.5, 0.9), (0.9, -0.1), (math.nan, 0.9)])
    def test_alpha_out_of_range(self, alpha_face, alpha_ear):
        with pytest.raises(ValueError, match=r"alpha .* must lie in \[0, 1\]"):
            fused_genuine_mass([0.5], [0.5], (0.0, 1.0), (0.0, 1.0),
                               alpha_face, alpha_ear)

    @pytest.mark.parametrize("modality", ["face", "ear"])
    def test_nan_score_names_the_modality(self, modality):
        scores = {"face": [0.5, 0.5], "ear": [0.5, 0.5]}
        scores[modality] = [0.5, math.nan]
        with pytest.raises(ValueError, match=f"{modality} score is NaN"):
            fused_genuine_mass(scores["face"], scores["ear"], (0.0, 1.0),
                               (0.0, 1.0), 0.9, 0.9)


class TestFusionExperiment:
    def test_returns_the_scores_the_report_was_built_from(self):
        config = _synth_config(0.9, 0.8, seed=5, n_genuine=300,
                               n_impostor=500)
        report, rocs, scores = run_fusion_experiment(config)
        _assert_built_from(report, rocs, scores, config)
        drawn = synth_scores(config.synth, 300, 500, seed=5)
        calib = {}
        for modality in ("face", "ear"):
            assert all(np.array_equal(got, want) for got, want in
                       zip(scores[modality], drawn[modality]))
            pool = np.concatenate(drawn[modality])
            calib[modality] = (pool.min(), pool.max())
        for k in (0, 1):  # genuine, impostor
            fused = fused_genuine_mass(
                scores["face"][k], scores["ear"][k], calib["face"],
                calib["ear"], 0.9, 0.8)[0]
            assert np.array_equal(scores["fusion"][k], fused)

    def test_fusion_beats_both_unimodal(self):
        report, rocs, _ = run_fusion_experiment(_synth_config(
            0.9, 0.9, seed=42, n_genuine=4000, n_impostor=4000))
        face = report.row("face").eer
        ear = report.row("ear").eer
        fused = report.row("fusion").eer
        assert fused < min(face, ear)
        for roc in rocs.values():
            _roc_invariants(roc)

    def test_recognition_rate_identity(self):
        report, _, _ = run_fusion_experiment(_synth_config(
            0.9, 0.9, seed=1, n_genuine=500, n_impostor=500))
        for row in report.rows:
            assert row.recognition_rate == pytest.approx(100.0 - row.eer,
                                                         abs=1e-12)

    def test_discounted_noise_modality_does_not_poison_fusion(self):
        # the pure-noise source gets a low reliability alpha (discounting);
        # the fused rate then stays within a point of the good modality
        spec = {"face": SynthModality(genuine_mean=0.0),   # EER ~ 50%
                "ear": SynthModality(genuine_mean=4.0)}    # well separated
        report, _, _ = run_fusion_experiment(_synth_config(
            0.1, 0.9, synth=spec, seed=13, n_genuine=4000, n_impostor=4000))
        assert report.row("fusion").eer <= report.row("ear").eer + 1.0

    def test_unequal_trial_counts(self):
        # n_genuine and n_impostor are separate keys; the calibration pool
        # must not assume the two score arrays have the same length
        report, rocs, _ = run_fusion_experiment(_synth_config(
            0.9, 0.9, seed=3, n_genuine=300, n_impostor=500))
        assert [row.method for row in report.rows] == ["face", "ear",
                                                       "fusion"]
        for roc in rocs.values():
            _roc_invariants(roc)

    def test_zero_alpha_is_chance(self):
        report, _, _ = run_fusion_experiment(_synth_config(
            0.0, 0.0, seed=21, n_genuine=2000, n_impostor=2000))
        assert report.row("fusion").eer == pytest.approx(50.0, abs=2.0)

    def test_csv_shape(self):
        report, _, _ = run_fusion_experiment(_synth_config(
            0.9, 0.9, seed=2, n_genuine=200, n_impostor=200))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "method,frr,far,eer,recognition_rate"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["face", "ear",
                                                          "fusion"]


class TestImageExperiment:
    def test_returns_the_scores_the_report_was_built_from(
            self, toy_corpus, tmp_path, monkeypatch):
        train_gallery = evaluate.train_gallery
        trained = {}

        def keep_artifacts(*args, **kwargs):
            trained.update(train_gallery(*args, **kwargs))
            return trained

        monkeypatch.setattr(evaluate, "train_gallery", keep_artifacts)
        config = _image_config(tmp_path)
        report, rocs, scores = run_image_experiment(toy_corpus["manifest"],
                                                    config)
        _assert_built_from(report, rocs, scores, config)
        n = 2  # subjects: one genuine claim each, n - 1 impostor claims
        for genuine, impostor in scores.values():
            assert (len(genuine), len(impostor)) == (n, n * (n - 1))
        # trial k of the fused row fuses trial k of the face and ear rows
        for k in (0, 1):  # genuine, impostor
            fused = fused_genuine_mass(
                scores["face"][k], scores["ear"][k],
                trained["face"].calibration, trained["ear"].calibration,
                config.fusion.alpha_face, config.fusion.alpha_ear)[0]
            assert np.array_equal(scores["fusion"][k], fused)

    def test_toy_corpus_fully_separable(self, toy_corpus, tmp_path):
        report, rocs, scores = run_image_experiment(
            toy_corpus["manifest"], _image_config(tmp_path))
        assert report.row("fusion").eer == 0.0
        genuine, impostor = scores["fusion"]
        assert len(genuine) + len(impostor) == 4  # 2 genuine + 2 impostor
        assert min(genuine) > max(impostor)
        for roc in rocs.values():
            _roc_invariants(roc)

    def test_holds_one_probe_observation_matrix_at_a_time(
            self, toy_corpus, tmp_path, monkeypatch):
        # evaluate's image_observations computes only the probes'; the
        # gallery's come from pipeline's
        real = evaluate.image_observations
        live = []
        seen = []

        def observations(*args, **kwargs):
            obs = real(*args, **kwargs)
            live.append(obs.shape)
            weakref.finalize(obs, live.pop)
            seen.append(len(live))
            return obs

        monkeypatch.setattr(evaluate, "image_observations", observations)
        run_image_experiment(toy_corpus["manifest"], _image_config(tmp_path))
        assert seen == [1, 1, 1, 1]  # 2 subjects x 2 modalities
        assert live == []

    def test_gallery_as_probes_self_match(self, toy_corpus, tmp_path):
        # degenerate train-on-test run: session 2 re-uses the gallery files
        records = []
        for rec in toy_corpus["records"]:
            if rec["session"] != 1:
                continue
            records.append(rec)
            records.append({**rec, "session": 2})
        manifest = tmp_path / "selfmatch.json"
        manifest.write_text(json.dumps(records))
        _, _, scores = run_image_experiment(str(manifest),
                                            _image_config(tmp_path))
        genuine, impostor = scores["fusion"]
        ok = sum(1 for t in genuine for u in impostor if t >= u)
        total = len(genuine) * len(impostor)
        assert ok / total >= 0.95

    def test_missing_image_file_names_path(self, toy_corpus, tmp_path):
        records = [dict(r) for r in toy_corpus["records"]]
        records[0]["image_path"] = "/nonexistent/ghost.pgm"
        manifest = tmp_path / "missing.json"
        manifest.write_text(json.dumps(records))
        with pytest.raises(ManifestError, match="ghost.pgm"):
            run_image_experiment(str(manifest), PipelineConfig())

    def test_single_subject_rejected(self, toy_corpus, tmp_path):
        records = [r for r in toy_corpus["records"]
                   if r["subject_id"] == "alice"]
        manifest = tmp_path / "single.json"
        manifest.write_text(json.dumps(records))
        with pytest.raises(ManifestError):
            run_image_experiment(str(manifest), PipelineConfig())

    def test_missing_session_rejected(self, toy_corpus, tmp_path):
        records = [r for r in toy_corpus["records"]
                   if not (r["subject_id"] == "bob" and r["session"] == 2
                           and r["modality"] == "ear")]
        manifest = tmp_path / "nosession.json"
        manifest.write_text(json.dumps(records))
        with pytest.raises(ManifestError, match="bob"):
            run_image_experiment(str(manifest), PipelineConfig())

    def test_second_probe_rejected_before_training(self, toy_corpus,
                                                   tmp_path, monkeypatch):
        import biofuse.pipeline as pipeline

        def no_training(*args, **kwargs):
            raise AssertionError("the protocol check must precede training")

        monkeypatch.setattr(pipeline, "train_modality", no_training)
        probe = next(r for r in toy_corpus["records"]
                     if r["subject_id"] == "bob" and r["session"] == 2
                     and r["modality"] == "face")
        manifest = tmp_path / "twoprobes.json"
        manifest.write_text(json.dumps([*toy_corpus["records"], probe]))
        with pytest.raises(ManifestError,
                           match="subject bob has multiple session-2 face"):
            run_image_experiment(str(manifest), PipelineConfig())
