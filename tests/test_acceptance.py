"""Acceptance gate: one test per release criterion.

Each test prints a PASS line with its headline numbers (visible under
``pytest -s``); a failure anywhere here blocks release.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from biofuse.cli import main
from biofuse.config import DEFAULT_SYNTH, PipelineConfig
from biofuse.dempster import (Frame, MassFunction, VERIFICATION_FRAME,
                              combine_dempster)
from biofuse.evaluate import compute_roc, eer, run_fusion_experiment, \
    run_image_experiment
from biofuse.gabor import GaborParams, build_bank, convolve
from biofuse.gmm import EmConfig, em_fit

from conftest import build_toy_corpus

F2 = VERIFICATION_FRAME
G = F2.subset(["genuine"])
I = F2.subset(["impostor"])
TH = F2.theta


def _ok(name, detail=""):
    print(f"\nACCEPTANCE PASS {name}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# Evidence combination: oracle equivalence over random frames


def _oracle_combine(m1, m2):
    """Independent brute force over label-set pairs."""
    def by_labels(m):
        return {frozenset(m.frame.labels(mask)): v
                for mask, v in m.masses.items()}

    a_masses, b_masses = by_labels(m1), by_labels(m2)
    conflict = 0.0
    raw = {}
    for a, wa in a_masses.items():
        for b, wb in b_masses.items():
            meet = a & b
            if not meet:
                conflict += wa * wb
            else:
                raw[meet] = raw.get(meet, 0.0) + wa * wb
    return {c: v / (1.0 - conflict) for c, v in raw.items()}, conflict


def test_ds_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    alphabets = ("ab", "abc", "abcd")
    pairs = 0
    for trial in range(1000):
        frame = Frame(tuple(alphabets[trial % 3]))
        subsets = list(range(1, frame.theta + 1))

        def draw():
            raw = rng.random(len(subsets))
            return MassFunction(frame, dict(zip(subsets, raw / raw.sum())))

        m1, m2 = draw(), draw()
        combined, conflict = combine_dempster(m1, m2)
        expected, expected_k = _oracle_combine(m1, m2)
        assert abs(conflict - expected_k) <= 1e-12
        got = {frozenset(frame.labels(mask)): v
               for mask, v in combined.masses.items()}
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-12

        # commutativity must be exact
        swapped, k_swapped = combine_dempster(m2, m1)
        assert k_swapped == conflict
        assert swapped.masses == combined.masses

        # associativity within 1e-9 on every third trial
        if trial % 3 == 0:
            m3 = draw()
            left, _ = combine_dempster(combine_dempster(m1, m2)[0], m3)
            right, _ = combine_dempster(m1, combine_dempster(m2, m3)[0])
            for mask in set(left.masses) | set(right.masses):
                assert abs(left.mass(mask) - right.mass(mask)) <= 1e-9
        pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 1000
    assert elapsed < 5.0
    _ok("ds-oracle-equivalence",
        f"1000 random pairs vs brute force <= 1e-12, {elapsed:.2f}s")


def test_dempster_worked_values():
    combined, conflict = combine_dempster(
        MassFunction(F2, {G: 0.6, TH: 0.4}),
        MassFunction(F2, {G: 0.5, TH: 0.5}))
    assert abs(conflict - 0.0) <= 1e-12
    assert abs(combined.mass(G) - 0.8) <= 1e-12
    assert abs(combined.mass(TH) - 0.2) <= 1e-12

    combined, conflict = combine_dempster(
        MassFunction(F2, {G: 0.9, TH: 0.1}),
        MassFunction(F2, {I: 0.8, TH: 0.2}))
    assert abs(conflict - 0.72) <= 1e-12
    assert abs(combined.mass(G) - 0.18 / 0.28) <= 1e-12
    assert abs(combined.mass(I) - 0.08 / 0.28) <= 1e-12
    assert abs(combined.mass(TH) - 0.02 / 0.28) <= 1e-12
    _ok("dempster-worked-values", "both hand-enumerated cases <= 1e-12")


# ---------------------------------------------------------------------------
# EM: monotone likelihood ascent and the closed-form single-Gaussian check


def test_em_guarantee():
    start = time.perf_counter()
    checked_m1 = 0
    for i in range(200):
        rng = np.random.default_rng(5000 + i)
        n_components = 1 + i % 4
        dim = 1 + (i // 4) % 5
        true_k = int(rng.integers(1, 4))
        sizes = rng.integers(15, 50, true_k)
        data = np.concatenate([
            rng.normal(rng.uniform(-4, 4, dim), rng.uniform(0.4, 1.6), (s, dim))
            for s in sizes])
        config = EmConfig(n_components=n_components, max_iters=80, tol=1e-8,
                          restarts=1, seed=i)
        model, trace = em_fit(data, config)

        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9), f"dataset {i}: trace decreased"
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.variances >= config.cov_floor)

        if n_components == 1:
            checked_m1 += 1
            ml_mean = data.mean(axis=0)
            ml_var = np.maximum(data.var(axis=0), config.cov_floor)
            assert np.allclose(model.means[0], ml_mean, atol=1e-9)
            assert np.allclose(model.variances[0], ml_var, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert checked_m1 == 50
    assert elapsed < 60.0
    _ok("em-guarantee",
        f"200 fits monotone within 1e-9, {checked_m1} closed-form checks, "
        f"{elapsed:.1f}s")


def test_gmm_recovery():
    rng = np.random.default_rng(123)
    data = np.concatenate([rng.normal(-5.0, 1.0, 1000),
                           rng.normal(5.0, 1.0, 1000)]).reshape(-1, 1)
    model, _ = em_fit(data, EmConfig(n_components=2, seed=7))
    order = np.argsort(model.means[:, 0])
    means = model.means[order, 0]
    weights = model.weights[order]
    assert abs(means[0] - (-5.0)) <= 0.2
    assert abs(means[1] - 5.0) <= 0.2
    assert abs(weights[0] - 0.5) <= 0.05
    assert abs(weights[1] - 0.5) <= 0.05
    _ok("gmm-recovery",
        f"means {means.round(3).tolist()}, weights {weights.round(3).tolist()}")


# ---------------------------------------------------------------------------
# Filter bank arithmetic and the dual convolution routes


def test_gabor_arithmetic():
    start = time.perf_counter()
    bank = build_bank(GaborParams())
    assert len(bank) == 40  # five frequencies x eight orientations

    rng = np.random.default_rng(99)
    img = rng.integers(0, 256, (220, 200)).astype(np.uint8)
    field = convolve(img, bank)
    assert field.size == 1_760_000
    assert field.size == 200 * 220 * 40

    constant = np.full((220, 200), 77, dtype=np.uint8)
    assert float(convolve(constant, bank).max()) <= 1e-6

    subset = [bank[i] for i in (0, 17, 39)]
    for seed in range(3):
        small = np.random.default_rng(seed).integers(
            0, 256, (32, 32)).astype(np.uint8)
        via_fft = convolve(small, subset, method="fft")
        via_direct = convolve(small, subset, method="direct")
        rel = np.max(np.abs(via_fft - via_direct)) / np.max(np.abs(via_direct))
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok("gabor-arithmetic",
        f"40 kernels, 1760000 responses, fft==direct, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# ROC analytics


def test_roc_analytics():
    rng = np.random.default_rng(7)
    genuine = rng.normal(1.0, 1.0, 100_000)
    impostor = rng.normal(0.0, 1.0, 100_000)
    gauss_eer = eer(compute_roc(genuine, impostor, 10_001))
    target = 0.5 * math.erfc(0.5 / math.sqrt(2.0))  # Phi(-1/2) ~ 0.3085
    assert abs(gauss_eer - target) <= 0.01

    same = rng.normal(0.0, 1.0, 20_000)
    identical_eer = eer(compute_roc(same, same.copy(), 10_001))
    assert abs(identical_eer - 0.5) <= 0.02

    separable_eer = eer(compute_roc(np.ones(1000), np.zeros(1000), 10_001))
    assert separable_eer == 0.0
    _ok("roc-analytics",
        f"gaussian {gauss_eer:.4f} vs {target:.4f}, identical "
        f"{identical_eer:.3f}, separable {separable_eer}")


# ---------------------------------------------------------------------------
# Synthetic fusion: the fused error must undercut both modalities


def test_synth_fusion_ordering():
    start = time.perf_counter()
    report, _ = run_fusion_experiment(DEFAULT_SYNTH, 0.9, 0.9, seed=42,
                                      n_genuine=10_000, n_impostor=10_000)
    face = report.row("face").eer
    ear = report.row("ear").eer
    fused = report.row("fusion").eer

    assert abs(face - 8.0) <= 1.0    # configured unimodal operating points
    assert abs(ear - 6.7) <= 1.0
    assert fused < ear < face        # fused beats ear beats face
    assert fused <= min(face, ear) - 1.0
    for row in report.rows:
        assert row.recognition_rate == pytest.approx(100.0 - row.eer,
                                                     abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok("synth-fusion-ordering",
        f"face {face:.2f}%, ear {ear:.2f}%, fused {fused:.2f}% "
        f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# End-to-end image pipeline on a separable toy corpus


def test_end_to_end_toy_run(tmp_path):
    start = time.perf_counter()
    manifest, _ = build_toy_corpus(str(tmp_path / "corpus"))
    report, _, trials = run_image_experiment(manifest, PipelineConfig())
    elapsed = time.perf_counter() - start

    assert report.row("fusion").eer == 0.0
    assert report.row("face").eer == 0.0
    assert report.row("ear").eer == 0.0
    genuine = [t.fused_genuine_mass for t in trials if t.label == "genuine"]
    impostor = [t.fused_genuine_mass for t in trials if t.label == "impostor"]
    assert min(genuine) > max(impostor)
    assert elapsed < 120.0
    _ok("end-to-end-toy",
        f"2-subject corpus EER 0 across all methods, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Determinism of every persisted artifact


def _read_all(directory, suffix):
    return {name: Path(directory, name).read_bytes()
            for name in sorted(os.listdir(directory))
            if name.endswith(suffix)}


def test_determinism(tmp_path):
    manifest, _ = build_toy_corpus(str(tmp_path / "corpus"))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(
        f"[paths]\nmanifest = {manifest}\n"
        f"model_dir = {tmp_path}/models\noutput_dir = {tmp_path}/out\n"
        "[eval]\nn_genuine = 1000\nn_impostor = 1000\n")
    cfg = str(cfg_path)

    # synth-eval CSVs
    assert main(["--config", cfg, "--seed", "42", "synth-eval"]) == 0
    first_csv = _read_all(str(tmp_path / "out"), ".csv")
    assert main(["--config", cfg, "--seed", "42", "synth-eval"]) == 0
    second_csv = _read_all(str(tmp_path / "out"), ".csv")
    assert first_csv == second_csv and first_csv

    # prep + train model files
    prep_dir = str(tmp_path / "prepped")
    assert main(["--config", cfg, "prep", "--out-dir", prep_dir]) == 0
    prepped = os.path.join(prep_dir, "manifest.json")
    assert main(["--config", cfg, "train", "--manifest", prepped]) == 0
    first_models = _read_all(str(tmp_path / "models"), ".json")
    assert main(["--config", cfg, "train", "--manifest", prepped]) == 0
    second_models = _read_all(str(tmp_path / "models"), ".json")
    assert first_models == second_models
    assert len(first_models) == 8  # 4 clients + 2 backgrounds + 2 stats

    # eval report + ROC files
    assert main(["--config", cfg, "eval"]) == 0
    first_eval = _read_all(str(tmp_path / "out"), ".csv")
    assert main(["--config", cfg, "eval"]) == 0
    second_eval = _read_all(str(tmp_path / "out"), ".csv")
    assert first_eval == second_eval
    _ok("determinism",
        "synth-eval CSVs, model JSONs, and eval CSVs byte-identical on re-run")
