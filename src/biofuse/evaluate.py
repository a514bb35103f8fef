"""Verification experiments: trial generation, FAR/FRR/EER/ROC, reports.

FAR(t) is the fraction of impostor scores >= t, FRR(t) the fraction of
genuine scores < t, swept over a uniform threshold grid spanning the
pooled score range. The equal-error rate is read off the FAR/FRR crossing
by linear interpolation. Reported recognition rate is 100 - EER.

Two experiments, a synthetic-matcher run (seeded normal score generators
per modality) and a full image run (prep -> filter bank -> mixture
scoring -> evidence fusion) over a dataset manifest, share one contract:
each takes a PipelineConfig and returns (report, rocs, scores),
where scores maps each method (face, ear, fusion) to the (genuine,
impostor) score arrays the report and ROC curves were built from.
"""

from dataclasses import dataclass

import numpy as np
import orjson

from .atomic import PLAIN_MAX, PLAIN_MIN
from .config import PipelineConfig
from .dempster import CONFLICT_EPS
from .errors import DegenerateCalibration, EmptyScoreList, ManifestError
from .gabor import build_bank
from .pipeline import (MODALITIES, entry_image, image_observations,
                       probe_score, train_gallery)
from .preprocess import load_manifest


@dataclass(frozen=True)
class RocCurve:
    """Parallel arrays of (threshold, FAR, FRR); thresholds strictly
    increasing, FAR nonincreasing, FRR nondecreasing."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def to_csv(self) -> str:
        """One `threshold,far,frr` row per threshold, each field the
        float64 value's repr(). orjson spells the same shortest digits as
        repr for 0 and every |x| in [PLAIN_MIN, PLAIN_MAX), so the rows are
        dumped as one flat list right after the header: its brackets
        become the header's and the last row's newlines, and every third
        comma ends a row (orjson writes no comma inside a number). Only
        when some value is another one (a NaN, an infinity, or a
        magnitude that repr writes with an exponent) are the rows holding
        one written again with repr, spliced in between the row ends."""
        rows = np.column_stack((self.thresholds, self.far, self.frr)
                               ).astype(np.float64, copy=False)
        if not len(rows):
            return "threshold,far,frr\n"
        header = b"threshold,far,frr"
        # threshold,far,frr[t,fa,fr,t,fa,fr,...] -> one CSV row per line
        text = bytearray(header)
        text += orjson.dumps(rows.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        text[len(header)] = text[-1] = ord("\n")
        body = np.frombuffer(text, dtype=np.uint8, offset=len(header))
        body[np.flatnonzero(body == ord(","))[2::3]] = ord("\n")
        mag = np.abs(rows)
        plain = (mag == 0) | ((mag >= PLAIN_MIN) & (mag < PLAIN_MAX))
        if plain.all():
            return text.decode()
        # row i lies between newlines i and i + 1: the text outside the
        # rows holding another value is kept, and those rows spliced in
        odd = np.flatnonzero(~(plain[:, 0] & plain[:, 1] & plain[:, 2]))
        newlines = len(header) + np.flatnonzero(body == ord("\n"))
        cuts = np.column_stack((newlines[odd] + 1, newlines[odd + 1]))
        cuts = [0, *cuts.ravel().tolist(), len(text)]
        dump = text.decode()
        parts = [None] * (2 * len(odd) + 1)
        parts[0::2] = [dump[a:b] for a, b in zip(cuts[0::2], cuts[1::2])]
        parts[1::2] = [",".join(map(repr, row)) for row in rows[odd].tolist()]
        return "".join(parts)


def compute_roc(genuine, impostor, num_thresholds: int) -> RocCurve:
    """Sweep a uniform threshold grid over [min - d, max + d] of the pooled
    scores and count error rates at each threshold."""
    g = np.asarray(genuine, dtype=np.float64)
    imp = np.asarray(impostor, dtype=np.float64)
    if g.size == 0 or imp.size == 0:
        raise EmptyScoreList("need nonempty genuine and impostor scores")
    if num_thresholds < 2:
        raise ValueError("num_thresholds must be at least 2")
    lo = min(g.min(), imp.min())
    hi = max(g.max(), imp.max())
    span = hi - lo
    margin = span * 1e-6 if span > 0 else max(abs(hi), 1.0) * 1e-9
    ts = np.linspace(lo - margin, hi + margin, num_thresholds)

    g_sorted = np.sort(g)
    i_sorted = np.sort(imp)
    far = (imp.size - np.searchsorted(i_sorted, ts, side="left")) / imp.size
    frr = np.searchsorted(g_sorted, ts, side="left") / g.size
    return RocCurve(thresholds=ts, far=far, frr=frr)


def eer(roc: RocCurve) -> float:
    """Equal-error rate: linear interpolation at the FAR/FRR crossing.

    The sweep margins guarantee FAR - FRR starts at +1 and ends at -1, so
    a crossing always exists.
    """
    d = roc.far - roc.frr
    k = int(np.argmax(d < 0))  # first strictly negative index
    if d[k] >= 0:              # no sign change: curves meet at the end
        return float((roc.far[-1] + roc.frr[-1]) / 2.0)
    if k == 0:
        return float((roc.far[0] + roc.frr[0]) / 2.0)
    lam = d[k - 1] / (d[k - 1] - d[k])
    return float(roc.far[k - 1] + lam * (roc.far[k] - roc.far[k - 1]))


def synth_scores(matchers: dict, n_genuine: int, n_impostor: int,
                 seed: int) -> dict:
    """Draw per-modality genuine/impostor score lists from normal score
    generators. Deterministic given seed; modalities are independent."""
    if n_genuine < 1 or n_impostor < 1:
        raise ValueError("trial counts must be at least 1")
    rng = np.random.default_rng(seed)
    out = {}
    for modality in sorted(matchers):
        m = matchers[modality]
        genuine = rng.normal(m.genuine_mean, m.genuine_std, n_genuine)
        impostor = rng.normal(m.impostor_mean, m.impostor_std, n_impostor)
        out[modality] = (genuine, impostor)
    return out


@dataclass(frozen=True)
class MethodReport:
    """One table row; rates are percentages and recognition_rate is
    100 - EER by construction. FAR/FRR are read at the sweep threshold
    closest to the equal-error operating point."""

    method: str
    frr: float
    far: float
    eer: float
    recognition_rate: float


@dataclass(frozen=True)
class ErrorReport:
    rows: tuple

    def row(self, method: str) -> MethodReport:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_csv(self) -> str:
        lines = ["method,frr,far,eer,recognition_rate"]
        for r in self.rows:
            lines.append(f"{r.method},{r.frr:.4f},{r.far:.4f},"
                         f"{r.eer:.4f},{r.recognition_rate:.4f}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = f"{'method':<8} {'FRR%':>8} {'FAR%':>8} {'EER%':>8} {'recog%':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r.method:<8} {r.frr:>8.2f} {r.far:>8.2f} "
                         f"{r.eer:>8.2f} {r.recognition_rate:>8.2f}")
        return "\n".join(lines)


def _build_report(scores: dict, num_thresholds: int):
    """(ErrorReport, {method: RocCurve}) from {method: (genuine, impostor)}
    score lists, one row per method in the dict's order."""
    rows = []
    rocs = {}
    for method, (genuine, impostor) in scores.items():
        roc = compute_roc(genuine, impostor, num_thresholds)
        rate = eer(roc)
        at = int(np.argmin(np.abs(roc.far - roc.frr)))
        rows.append(MethodReport(
            method=method,
            frr=float(roc.frr[at]) * 100.0,
            far=float(roc.far[at]) * 100.0,
            eer=rate * 100.0,
            recognition_rate=100.0 - rate * 100.0,
        ))
        rocs[method] = roc
    return ErrorReport(rows=tuple(rows)), rocs


def _source_masses(scores, calibration, alpha, modality):
    """(genuine, impostor, ignorance) masses, as dempster.bpa_from_score."""
    lo, hi = float(calibration[0]), float(calibration[1])
    if not lo < hi:
        raise DegenerateCalibration(f"{modality} calibration [{lo}, {hi}]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"{modality} alpha {alpha} must lie in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError(f"{modality} score is NaN")
    with np.errstate(over="ignore"):  # an overflowing ratio clips to 1
        s = np.clip((scores - lo) / (hi - lo), 0.0, 1.0)
    return alpha * s, alpha * (1.0 - s), 1.0 - alpha


def fused_genuine_mass(face, ear, calib_face, calib_ear, alpha_face,
                       alpha_ear):
    """Dempster's rule for face and ear evidence over {genuine, impostor},
    in closed form over arrays of trials (0-d too): arrays (genuine mass,
    impostor mass, conflict K, total-conflict flag). Source masses are
    those of dempster.bpa_from_score; the normaliser is the sum of the
    non-conflicting products, not 1 - K. A totally conflicting trial is a
    flagged reject: masses 0, conflict 1."""
    g1, i1, t1 = _source_masses(face, calib_face, alpha_face, "face")
    g2, i2, t2 = _source_masses(ear, calib_ear, alpha_ear, "ear")
    conflict = g1 * i2 + i1 * g2
    genuine = g1 * g2 + g1 * t2 + t1 * g2
    impostor = i1 * i2 + i1 * t2 + t1 * i2
    norm = genuine + impostor + t1 * t2
    flagged = (conflict >= 1.0 - CONFLICT_EPS) | (norm <= 0.0)
    norm = np.where(flagged, 1.0, norm)
    return (np.where(flagged, 0.0, genuine / norm),
            np.where(flagged, 0.0, impostor / norm),
            np.where(flagged, 1.0, conflict), flagged)


def run_fusion_experiment(config: PipelineConfig):
    """Synthetic-matcher experiment from config's [synth_*] matchers,
    [fusion] alphas and [eval] seed, trial counts and threshold count:
    unimodal rows from raw scores, the fused row from combined genuine
    masses. Calibration bounds are the min/max of each modality's pooled
    scores.

    Returns (ErrorReport, {method: RocCurve}, {method: (genuine,
    impostor)}): the float64 score arrays the report was built from,
    methods in face, ear, fusion order.
    """
    settings = config.eval
    drawn = synth_scores(config.synth, settings.n_genuine,
                         settings.n_impostor, settings.seed)
    calib = {}
    for modality, pair in drawn.items():
        pool = np.concatenate(pair)
        calib[modality] = (float(pool.min()), float(pool.max()))
    # synth_scores orders the modalities by name; the report rows follow
    # the order of this dict
    scores = {"face": drawn["face"], "ear": drawn["ear"]}
    scores["fusion"] = tuple(
        fused_genuine_mass(face, ear, calib["face"], calib["ear"],
                           config.fusion.alpha_face,
                           config.fusion.alpha_ear)[0]
        for face, ear in zip(drawn["face"], drawn["ear"]))
    report, rocs = _build_report(scores, settings.num_thresholds)
    return report, rocs, scores


def run_image_experiment(manifest_path, config: PipelineConfig):
    """Full verification experiment over a dataset manifest.

    Session 1 trains and calibrates (pipeline.train_gallery checks the
    gallery rule); session-2 probes claim every identity (their own ->
    genuine trial, each other -> impostor trial). Every subject needs
    exactly one probe per modality, which is checked before anything is
    trained. Every image is read by pipeline.entry_image (read_image), so
    a record `prep` marked is used as it is and any other is prepped, and
    its observations are computed in memory; nothing is cached, and each
    probe is scored as soon as its observations are computed.
    A modality whose models in config.paths.model_dir were fitted from this
    same gallery and settings is served from there instead of trained
    again (see pipeline.train_gallery); model_dir is only read.

    Returns (ErrorReport, {method: RocCurve}, {method: (genuine,
    impostor)}): the float64 score arrays the report was built from,
    methods in face, ear, fusion order.
    """
    entries = load_manifest(manifest_path)
    subjects = sorted({e.subject_id for e in entries})
    # the probe rule, before anything is trained: one session-2 image per
    # subject and modality
    probe_of = {}
    for entry in (e for e in entries if e.session == 2):
        key = (entry.subject_id, entry.modality)
        if key in probe_of:
            raise ManifestError(
                f"subject {entry.subject_id} has multiple session-2 "
                f"{entry.modality} images; one probe per modality expected")
        probe_of[key] = entry
    for sid in subjects:
        for modality in MODALITIES:
            if (sid, modality) not in probe_of:
                raise ManifestError(f"subject {sid} has no {modality} image "
                                    f"in session 2")

    bank = build_bank(config.gabor)
    artifacts = train_gallery(entries, config, bank,
                              model_dir=config.paths.model_dir)

    # one trial per (true, claimed) pair of subjects, row-major over the
    # sorted subjects, so the genuine trials are the diagonal
    trials = {modality: np.concatenate([
        probe_score(artifacts[modality], image_observations(
            entry_image(probe_of[true_sid, modality], config), bank,
            config))
        for true_sid in subjects]) for modality in MODALITIES}
    trials["fusion"] = fused_genuine_mass(
        trials["face"], trials["ear"], artifacts["face"].calibration,
        artifacts["ear"].calibration, config.fusion.alpha_face,
        config.fusion.alpha_ear)[0]
    genuine = np.eye(len(subjects), dtype=bool).ravel()
    scores = {method: (values[genuine], values[~genuine])
              for method, values in trials.items()}
    report, rocs = _build_report(scores, config.eval.num_thresholds)
    return report, rocs, scores
