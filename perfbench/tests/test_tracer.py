"""Tracer coverage: traced call counts equal the counts the corpus shape
predicts and repeat exactly, and a missed import site fails loudly.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import biofuse.cli  # noqa: E402
import biofuse.gmm  # noqa: E402
import biofuse.pipeline  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import Loop, Timed  # noqa: E402

RESTARTS = 3          # EmConfig default: k-means++ starts per em_fit


def enroll_counts(s):
    """Calls in one prep -> train -> eval cycle on S subjects with one
    session-1 and one session-2 image per (subject, modality)."""
    return {
        "cli.main": 3, "cli.cmd_prep": 1, "cli.cmd_train": 1,
        "cli.cmd_eval": 1, "config.load_config": 3,
        "preprocess.load_manifest": 3,
        # prep and eval each normalize all 4S images
        "preprocess.geometric_normalize": 8 * s,
        "preprocess.histogram_equalize": 8 * s,
        "pgm.load_pgm": 4 * s + 2 * s + 4 * s, "pgm.write_pgm": 4 * s,
        "gabor.build_bank": 2,
        # train: 2S gallery misses; eval: 2S gallery hits + 2S probe misses
        "pipeline.image_observations": 2 * s + 4 * s,
        "gabor.convolve": 4 * s, "gabor.downsample": 4 * s,
        "pipeline.train_modality": 4,
        # S clients + 1 background per modality, in train and again in eval
        "gmm.em_fit": 4 * (s + 1), "gmm.kmeans_init": 4 * (s + 1) * RESTARTS,
        "gmm.save_model": 2 * (s + 1),
        # S^2 calibration scores per modality in train and in eval, plus
        # S^2 probe scores per modality in eval
        "gmm.match_score": 6 * s * s, "pipeline.probe_score": 2 * s * s,
        "evaluate.run_image_experiment": 1,
        "evaluate.fused_genuine_mass": s * s,
        "dempster.combine_dempster": s * s,
        "evaluate.compute_roc": 3, "evaluate.eer": 3,
        "evaluate.RocCurve.to_csv": 3,
    }


VERIFY_COUNTS = {
    "cli.main": 1, "config.load_config": 1, "cli.cmd_verify": 1,
    "gabor.build_bank": 1, "gmm.load_model": 4, "pgm.load_pgm": 2,
    "pipeline.image_observations": 2, "gabor.convolve": 2,
    "gabor.downsample": 2, "gmm.match_score": 2, "dempster.decide": 1,
    "dempster.combine_dempster": 1,
}


def synth_counts(trials):
    return {
        "cli.main": 1, "config.load_config": 1, "cli.cmd_synth_eval": 1,
        "evaluate.run_fusion_experiment": 1,
        "evaluate.fused_genuine_mass": trials,
        "dempster.combine_dempster": trials,
        "evaluate.compute_roc": 3, "evaluate.eer": 3,
        "evaluate.RocCurve.to_csv": 3,
    }


def as_vector(counts):
    unknown = set(counts) - set(SPAN_NAMES)
    assert not unknown, unknown
    return tuple(counts.get(name, 0) for name in SPAN_NAMES)


def traced_run(workload, tmp_path):
    """One benchmark run with tracing; the shortest run has one untraced
    and one traced op."""
    tracer = Tracer()
    loop = Loop(1e-3, tracer)
    workload(loop, str(tmp_path), seed=7)
    assert loop.failed == 0, loop.failures
    assert len(loop.latency_ms) == 1 and len(loop.traced_ms) == 1
    (calls,) = tracer.calls_per_op().values()
    return calls, tracer.summary(1)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "ENROLL_SUBJECTS", 3)
    monkeypatch.setattr(workloads, "VERIFY_SUBJECTS", 2)
    monkeypatch.setattr(workloads, "VERIFY_PROBE_PAIRS", 4)


def test_enroll_counts_match_shape_and_repeat(small, tmp_path):
    runs = [traced_run(workloads.enroll, tmp_path / str(i)) for i in (0, 1)]
    for calls, summary in runs:
        assert calls == as_vector(enroll_counts(3))
        assert summary["pipeline.cache_hits"] == 2 * 3
        assert summary["pipeline.cache_misses"] == 4 * 3
        assert summary["gmm.em_iters"] > 0
        assert summary["gabor.kept_ratio"] == pytest.approx(
            22 * 20 / (220 * 200))
    assert runs[0][1]["gmm.em_iters"] == runs[1][1]["gmm.em_iters"]


def test_verify_counts_match_shape_and_repeat(small, tmp_path):
    runs = [traced_run(workloads.verify, tmp_path / str(i)) for i in (0, 1)]
    for calls, summary in runs:
        assert calls == as_vector(VERIFY_COUNTS)
        assert summary["pipeline.cache_misses"] == 2
        assert summary["pipeline.cache_hits"] == 0


def test_synth_counts_match_shape(tmp_path):
    calls, summary = traced_run(workloads.synth, tmp_path)
    assert calls == as_vector(synth_counts(2 * 10000))
    assert summary["gmm.em_fit.calls"] == 0


def test_install_wraps_every_import_site_and_restores():
    original = biofuse.gmm.match_score
    with Tracer():
        assert biofuse.cli.match_score is biofuse.pipeline.match_score
        assert biofuse.pipeline.match_score is not original
    assert biofuse.cli.match_score is original
    assert biofuse.pipeline.match_score is original


def test_missed_import_site_fails_loudly(monkeypatch):
    patch = Tracer._patch

    def skip_pipeline(self, owner, key, original, wrapped):
        if owner is not biofuse.pipeline:
            patch(self, owner, key, original, wrapped)
    monkeypatch.setattr(Tracer, "_patch", skip_pipeline)
    with pytest.raises(RuntimeError, match="biofuse.pipeline"):
        Tracer().install()
    assert biofuse.cli.match_score is biofuse.gmm.match_score


def test_metric_names_match_benchmark_json():
    import json

    import run
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    loop = Loop(1.0)
    loop.setup_s = [1.0]
    loop.latencies = [Timed(0.002, ((0.0, 0.002),))]
    assert sorted(run.end_to_end(loop, [2.0])) == \
        sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(run.per_layer(loop, Tracer(), 1, [2.0], [3.0])) == \
        sorted(m["name"] for m in spec["per_layer"])
