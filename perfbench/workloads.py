"""The three benchmark workloads, each a closed loop with one client.

Every op is a call of the real CLI entry point `biofuse.cli.main([...])`
in this process, with stdout captured so the benchmark can check it. Each
workload runs from a fresh work directory: empty model_dir, output_dir and
observation cache, so no run reads entries another run wrote.

- enroll: the research loop. One op is a prep -> train -> eval cycle on a
  16-subject corpus; it is the only workload that runs EM while timed and
  the only one that reads the feature cache (eval hits the 2S gallery
  entries train wrote and misses the 2S probes).
- verify: a stream of face+ear claims, alternating genuine and impostor,
  against a 4-subject gallery trained in setup. Every claim misses the
  feature cache, so Gabor dominates and no EM runs.
- synth: repeated synth-eval at the default 10k/10k trials, with the seed
  stepping per op. No images; fusion and ROC writing dominate.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import time
import traceback
from collections import namedtuple

import numpy as np

import biofuse.cli
from biofuse.config import PipelineConfig
from biofuse.evaluate import compute_roc, eer
from biofuse.gabor import build_bank, convolve, downsample
from biofuse.pgm import load_pgm
from biofuse.pipeline import model_filename, stats_filename

from corpus import build_corpus, build_probes, subject_ids

SETUP_REPEATS = 3
ENROLL_SUBJECTS = 16
VERIFY_SUBJECTS = 4
VERIFY_PROBE_PAIRS = 64
VERIFY_REFERENCE_CLAIMS = 6
NUM_THRESHOLDS = 10001

REPORT_TOLERANCE = 0.01  # percentage points; report.csv has 4 decimals
# README table, synth-eval at seed 42 with the default config: EER %
SYNTH_SEED42_EER = {"face": 8.04, "ear": 7.13, "fusion": 2.14}
M_GENUINE_TOLERANCE = 1e-9
SCORE_TOLERANCE = 1e-6   # relative


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def cli(argv):
    """Run `biofuse.cli.main(argv)`; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = biofuse.cli.main(argv)
    return rc, out.getvalue()


def write_config(path, manifest, model_dir, output_dir):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[paths]\nmanifest = {manifest}\nmodel_dir = {model_dir}\n"
                 f"output_dir = {output_dir}\n")
    return path


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def read_report(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["method"]: row for row in csv.DictReader(fh)}


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


class Loop:
    """Closed-loop runner: issues ops one at a time until the next op
    would end after `seconds`, and tallies attempts and failures.

    With a tracer, ops alternate untraced and traced, so one run gives
    both the per-layer spans and the tracing overhead."""

    def __init__(self, seconds, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = set()     # output defects that do not fail an op
        self.setup_s = []
        self.latencies = []    # Timed, untraced ops
        self.traced = []       # Timed, traced ops
        self.phases = {}

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def attempt(self, fn, *args):
        """Run one checked op; an exception or a failed check counts it
        as failed. Returns fn's result, or None on failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.fail(f"check: {exc}")
        except Exception:
            self.fail(traceback.format_exc(limit=3))
        return None

    def setup(self, fn):
        """Run fn SETUP_REPEATS times; record each wall time and return
        the last result."""
        result = None
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            result = fn(rep)
            self.setup_s.append(time.perf_counter() - t0)
        return result

    def run(self, op):
        """Call op(k) for k = 0, 1, ...; op returns the Timed latency of
        its timed part, or None when it failed. Traced ops are the odd
        ones."""
        min_ops = 2 if self.tracer is not None else 1
        begin = time.perf_counter()
        walls = []
        k = 0
        while True:
            traced = self.tracer is not None and k % 2 == 1
            t0 = time.perf_counter()
            if traced:
                self.tracer.current_op = k
                with self.tracer:
                    latency = op(k)
            else:
                latency = op(k)
            now = time.perf_counter()
            walls.append(now - t0)
            if latency is not None:
                (self.traced if traced else self.latencies).append(latency)
            k += 1
            if k >= min_ops and \
                    now - begin + statistics.median(walls) > self.seconds:
                break

    @property
    def latency_ms(self):
        return [t.seconds * 1e3 for t in self.latencies]

    @property
    def traced_ms(self):
        return [t.seconds * 1e3 for t in self.traced]

    def phase(self, name, seconds):
        self.phases.setdefault(name, []).append(seconds)


def timed_cli(argv):
    """Run the CLI once; returns (exit code, stdout, Timed)."""
    t0 = time.perf_counter()
    rc, out = cli(argv)
    t1 = time.perf_counter()
    return rc, out, Timed(t1 - t0, ((t0, t1),))


class Timed(namedtuple("Timed", "seconds intervals")):
    """A latency: wall seconds, and the (start, end) perf_counter intervals
    of the CLI calls that make it up."""

    def __add__(self, other):
        return Timed(self.seconds + other.seconds,
                     self.intervals + other.intervals)


# --- reference route ------------------------------------------------------
# The checks recompute outputs outside the program: features by full-field
# FFT convolution and grid sampling, the models read straight from their
# JSON files, mixture likelihoods, fusion and the synthetic scores by the
# benchmark's own arithmetic. Only compute_roc/eer are shared with the
# program; the README table, checked at seed 42, anchors those.

def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mean_log_likelihood(model, x):
    """Average log-density of the rows of x under a diagonal-covariance
    mixture given as (weights, means, variances)."""
    weights, means, variances = model
    quad = (((x[:, None, :] - means) ** 2) / variances).sum(axis=2)
    with np.errstate(divide="ignore"):
        log_norm = np.log(weights) - \
            0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)
    a = log_norm - 0.5 * quad
    top = a.max(axis=1, keepdims=True)
    return float(np.mean(top[:, 0] + np.log(np.exp(a - top).sum(axis=1))))


def fused_m_genuine(face, ear, calibration, fusion):
    """Combined genuine mass of the two score-derived mass functions, by the
    closed form of Dempster's rule on {genuine, impostor}. Takes scalars or
    arrays of scores."""
    g, i, t = [], [], []
    for score, modality, alpha in ((face, "face", fusion.alpha_face),
                                   (ear, "ear", fusion.alpha_ear)):
        lo, hi = calibration[modality]
        s = np.clip((np.asarray(score, dtype=np.float64) - lo) / (hi - lo),
                    0.0, 1.0)
        g.append(alpha * s)
        i.append(alpha * (1.0 - s))
        t.append(1.0 - alpha)
    conflict = g[0] * i[1] + i[0] * g[1]
    return (g[0] * g[1] + g[0] * t[1] + t[0] * g[1]) / (1.0 - conflict)


def reference_results(trials):
    """{method: (report row, RocCurve)} from {method: (genuine scores,
    impostor scores)}; a row is (frr, far, eer, recognition_rate) in %."""
    out = {}
    for method, (genuine, impostor) in trials.items():
        roc = compute_roc(genuine, impostor, NUM_THRESHOLDS)
        rate = eer(roc) * 100.0
        at = int(np.argmin(np.abs(roc.far - roc.frr)))
        out[method] = ((roc.frr[at] * 100.0, roc.far[at] * 100.0, rate,
                        100.0 - rate), roc)
    return out


def csv_number(field, notes):
    """A ROC CSV field as a float. RocCurve.to_csv writes repr() of numpy
    scalars, which numpy 2 spells `np.float64(x)`: the value inside is
    checked, and the wrapper is reported in `notes` as a format defect
    rather than failing every enroll and synth op."""
    if field.startswith("np.float64(") and field.endswith(")"):
        notes.add("ROC CSV fields are written as np.float64(...) reprs, "
                  "not plain numbers")
        field = field[len("np.float64("):-1]
    return float(field)


def check_outputs(out_dir, prefix, want, what, notes):
    """report.csv rows within REPORT_TOLERANCE of the reference rows, and
    every ROC CSV of full length and matching the reference curve at five
    evenly spaced thresholds. Returns the report rows."""
    report = read_report(os.path.join(out_dir, f"{prefix}report.csv"))
    expect(sorted(report) == sorted(want), f"{what}: report methods")
    for method, (row, roc) in want.items():
        got = tuple(float(report[method][key]) for key in
                    ("frr", "far", "eer", "recognition_rate"))
        expect(all(abs(g - r) <= REPORT_TOLERANCE for g, r in zip(got, row)),
               f"{what}: {method} row {got}, reference {row}")
        with open(os.path.join(out_dir, f"{prefix}roc_{method}.csv"),
                  encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        expect(len(lines) == NUM_THRESHOLDS + 1,
               f"{what}: roc_{method} length")
        for k in np.linspace(0, NUM_THRESHOLDS - 1, 5).astype(int):
            got = np.array([csv_number(v, notes)
                            for v in lines[k + 1].split(",")])
            ref = np.array([roc.thresholds[k], roc.far[k], roc.frr[k]])
            expect(np.allclose(got, ref, rtol=1e-9, atol=1e-12),
                   f"{what}: roc_{method} row {k} {got}, reference {ref}")
    return report


class ReferenceScorer:
    """Match scores and fused masses against the models a `train` saved."""

    def __init__(self, model_dir):
        self.model_dir = model_dir
        self.config = PipelineConfig()
        self.bank = build_bank(self.config.gabor)
        self.models = {}
        self.scaler = {}
        self.calibration = {}
        for modality in ("face", "ear"):
            doc = read_json(os.path.join(model_dir, stats_filename(modality)))
            self.scaler[modality] = (np.array(doc["scaler"]["mean"]),
                                     np.array(doc["scaler"]["std"]))
            self.calibration[modality] = tuple(doc["calibration"])

    def model(self, modality, sid):
        if (modality, sid) not in self.models:
            doc = read_json(os.path.join(self.model_dir,
                                         model_filename(modality, sid)))
            self.models[modality, sid] = tuple(
                np.array(doc[key])
                for key in ("weights", "means", "variances"))
        return self.models[modality, sid]

    def observations(self, modality, probe_path):
        obs = downsample(convolve(load_pgm(probe_path), self.bank),
                         self.config.stride).observations
        mean, std = self.scaler[modality]
        return (obs - mean) / std

    def score(self, modality, claim, x):
        return mean_log_likelihood(self.model(modality, claim), x) - \
            mean_log_likelihood(self.model(modality, "background"), x)

    def m_genuine(self, face_score, ear_score):
        return float(fused_m_genuine(face_score, ear_score, self.calibration,
                                     self.config.fusion))

    def results(self, probes, subjects):
        """Reference results of the image experiment: every session-2
        probe pair claims every subject. probes maps (subject_id, modality)
        to a prepped probe image."""
        obs = {key: self.observations(key[1], path)
               for key, path in probes.items()}
        trials = {m: ([], []) for m in ("face", "ear", "fusion")}
        for true_sid in subjects:
            for claim in subjects:
                fs = self.score("face", claim, obs[true_sid, "face"])
                es = self.score("ear", claim, obs[true_sid, "ear"])
                side = 0 if claim == true_sid else 1
                trials["face"][side].append(fs)
                trials["ear"][side].append(es)
                trials["fusion"][side].append(self.m_genuine(fs, es))
        return reference_results(trials)


def synth_results(seed):
    """Reference results of synth-eval at `seed` with the default config:
    the score draws of synth_scores (modalities in sorted order, genuine
    then impostor), pooled min/max calibration, closed-form fusion."""
    config = PipelineConfig()
    rng = np.random.default_rng(seed)
    trials = {}
    for modality in sorted(config.synth):
        m = config.synth[modality]
        trials[modality] = (
            rng.normal(m.genuine_mean, m.genuine_std, config.eval.n_genuine),
            rng.normal(m.impostor_mean, m.impostor_std,
                       config.eval.n_impostor))
    calibration = {m: (min(g.min(), i.min()), max(g.max(), i.max()))
                   for m, (g, i) in trials.items()}
    trials["fusion"] = tuple(
        fused_m_genuine(trials["face"][k], trials["ear"][k], calibration,
                        config.fusion) for k in (0, 1))
    return reference_results(trials)


# --- enroll ---------------------------------------------------------------

def enroll(loop, work, seed):
    n = ENROLL_SUBJECTS

    def make_corpus(rep):
        return build_corpus(fresh_dir(os.path.join(work, f"corpus{rep}")),
                            n, seed)[0]
    manifest = loop.setup(make_corpus)

    def command(name, argv, check, cycle_times):
        rc, out, timed = timed_cli(argv)
        cycle_times[name] = timed
        expect(rc == 0, f"{name} exited {rc}")
        check(out)
        return True

    def op(k):
        cyc = fresh_dir(os.path.join(work, "cycle"))
        cfg = write_config(os.path.join(cyc, "biofuse.ini"), manifest,
                           "models", "out")
        prepped = os.path.join(cyc, "prepped")
        model_dir = os.path.join(cyc, "models")
        out_dir = os.path.join(cyc, "out")
        times = {}

        def check_prep(out):
            expect(f"prepped {4 * n} images" in out, "prep output")
            expect(len(os.listdir(prepped)) == 4 * n + 1, "prepped files")

        def check_train(out):
            expect(out.count(f"trained {n} ") == 2, "train output")
            names = set(os.listdir(model_dir))
            for modality in ("face", "ear"):
                for sid in subject_ids(n) + ["background"]:
                    expect(model_filename(modality, sid) in names,
                           f"missing model {modality} {sid}")
                expect(stats_filename(modality) in names, "missing stats")

        def check_eval(out):
            # eval retrains on the same gallery, so its models are the ones
            # train saved; rescoring its probes gives the reference rows
            probes = {(r["subject_id"], r["modality"]): r["image_path"]
                      for r in read_json(os.path.join(prepped,
                                                      "manifest.json"))
                      if r["session"] == 2}
            want = ReferenceScorer(model_dir).results(probes, subject_ids(n))
            check_outputs(out_dir, "", want, "eval", loop.notes)

        steps = (
            ("prep", ["--config", cfg, "prep", "--out-dir", prepped],
             check_prep),
            ("train", ["--config", cfg, "train", "--manifest",
                       os.path.join(prepped, "manifest.json")], check_train),
            ("eval", ["--config", cfg, "eval"], check_eval),
        )
        for name, argv, check in steps:
            if loop.attempt(command, name, argv, check, times) is None:
                return None
        for name, timed in times.items():
            loop.phase(f"{name}_s", timed.seconds)
        return sum(times.values(), Timed(0.0, ()))

    loop.run(op)


# --- verify ---------------------------------------------------------------

def verify(loop, work, seed):
    n = VERIFY_SUBJECTS
    sids = subject_ids(n)

    def make_gallery(rep):
        root = fresh_dir(os.path.join(work, f"setup{rep}"))
        manifest, theta = build_corpus(os.path.join(root, "gallery"), n,
                                       seed, sessions=(1,))
        cfg = write_config(os.path.join(root, "biofuse.ini"), manifest,
                           "models", "out")
        prepped = os.path.join(root, "prepped")
        probes, owners = build_probes(os.path.join(root, "probes"), theta,
                                      VERIFY_PROBE_PAIRS, seed)
        probe_dir = os.path.join(root, "probes_prepped")
        for argv in (["prep", "--out-dir", prepped],
                     ["train", "--manifest",
                      os.path.join(prepped, "manifest.json")],
                     ["prep", "--manifest", probes, "--out-dir", probe_dir]):
            rc, _ = cli(["--config", cfg] + argv)
            if rc != 0:
                raise RuntimeError(f"verify setup: {argv} exited {rc}")
        records = read_json(os.path.join(probe_dir, "manifest.json"))
        pairs = [(records[2 * p]["image_path"],
                  records[2 * p + 1]["image_path"])
                 for p in range(VERIFY_PROBE_PAIRS)]
        return root, pairs, owners

    root, pairs, owners = loop.setup(make_gallery)
    reference = ReferenceScorer(os.path.join(root, "models"))
    threshold = reference.config.fusion.threshold
    # claims score against the setup's models but cache into a fresh dir
    claim_out = os.path.join(work, "claims_out")
    cfg = write_config(os.path.join(root, "claims.ini"), "unused.json",
                       "models", claim_out)
    claims = []

    def claim_for(k):
        """Claim k on probe pair k mod P: genuine for k mod 4 in {0, 3},
        else naming another gallery subject. Genuine and impostor claims
        alternate in pairs, so the odd (traced) ops see both kinds."""
        p = k % len(pairs)
        owner = owners[p]
        if k % 4 in (0, 3):
            return p, owner
        shift = 1 + (k // 4) % (n - 1)
        return p, sids[(sids.index(owner) + shift) % n]

    def check_decision(k, detail, rc, ref):
        expect(abs(detail["m_genuine"] - ref) <= M_GENUINE_TOLERANCE,
               f"claim {k}: m_genuine {detail['m_genuine']}, reference {ref}")
        if abs(ref - threshold) > M_GENUINE_TOLERANCE:
            want = "ACCEPT" if ref >= threshold else "REJECT"
            expect(detail["decision"] == want,
                   f"claim {k}: {detail['decision']}, reference {want}")
        expect((rc == 0) == (detail["decision"] == "ACCEPT"),
               f"claim {k}: exit code {rc} for {detail['decision']}")

    def one_claim(k):
        p, claim = claim_for(k)
        face, ear = pairs[p]
        rc, out, timed = timed_cli(["--config", cfg, "verify", "--face",
                                    face, "--ear", ear, "--claim", claim])
        expect(rc in (0, 1), f"claim {k}: verify exited {rc}")
        detail = json.loads(out.splitlines()[1])
        # fusion is rechecked on every claim from the scores it reports
        check_decision(k, detail, rc, reference.m_genuine(
            detail["face_score"], detail["ear_score"]))
        claims.append((k, face, ear, claim, rc, detail))
        return timed

    def op(k):
        if k > 0 and k % len(pairs) == 0:
            # a reused probe must miss again
            shutil.rmtree(os.path.join(claim_out, "cache"))
        return loop.attempt(one_claim, k)

    loop.run(op)

    def rescore(entry):
        k, face, ear, claim, rc, detail = entry
        scores = []
        for modality, path in (("face", face), ("ear", ear)):
            score = reference.score(modality, claim,
                                    reference.observations(modality, path))
            got = detail[f"{modality}_score"]
            expect(abs(got - score) <= SCORE_TOLERANCE * max(1.0, abs(score)),
                   f"claim {k}: {modality} score {got}, reference {score}")
            scores.append(score)
        check_decision(k, detail, rc, reference.m_genuine(*scores))

    # the scores are recomputed for a spread of claims only: the reference
    # route costs as much as the claim itself
    picks = np.linspace(0, len(claims) - 1,
                        min(VERIFY_REFERENCE_CLAIMS, len(claims)))
    for i in np.unique(picks.round().astype(int)):
        loop.attempt(rescore, claims[i])


# --- synth ----------------------------------------------------------------

def synth(loop, work, seed):
    out_dir = os.path.join(work, "out")
    cfg = write_config(os.path.join(work, "biofuse.ini"), "unused.json",
                       "models", out_dir)

    def synth_eval(op_seed, what):
        rc, out, timed = timed_cli(["--config", cfg, "--seed",
                                    str(op_seed), "synth-eval"])
        expect(rc == 0, f"{what}: synth-eval exited {rc}")
        expect("fusion" in out, f"{what}: synth-eval table")
        report = check_outputs(out_dir, "synth_", synth_results(op_seed),
                               what, loop.notes)
        eers = {m: float(row["eer"]) for m, row in report.items()}
        expect(eers["fusion"] < min(eers["face"], eers["ear"]),
               f"{what}: fused EER not below both unimodal EERs: {eers}")
        return eers, timed

    def readme_table(rep):
        eers, _ = synth_eval(42, "seed 42")
        for method, want in SYNTH_SEED42_EER.items():
            expect(abs(eers[method] - want) <= 0.005,
                   f"seed 42: {method} EER {eers[method]}, README {want}")

    # set-up warms the process and checks the README table
    loop.setup(lambda rep: loop.attempt(readme_table, rep))

    base = int(np.random.SeedSequence(seed).generate_state(1)[0])
    loop.run(lambda k: loop.attempt(
        lambda: synth_eval(base + k, f"op {k}")[1]))


WORKLOADS = {"enroll": enroll, "verify": verify, "synth": synth}

# per-command names of the headline latency, for the lines before the result
LATENCY_NAMES = {"enroll": "cycle", "verify": "verify", "synth": "synth_eval"}
