"""Shared orchestration between the CLI commands and the image experiment.

Gallery protocol: session 1 trains one client mixture per (subject,
modality) plus one pooled background mixture and the channel scaler per
modality; score calibration bounds come from gallery-vs-client scores
only, never from probes.

Each modality's stats file carries a fingerprint of the gallery and the
settings its models were fitted from, so `eval` can reuse the models
`train` wrote for the same gallery instead of fitting them again; the
feature settings themselves, so that models fitted on other features are
refused; and the sha256 of each model file beside it, so that it vouches
for those files only. Only this module names the files in model_dir:
save_artifacts writes them and load_artifacts reads them.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .atomic import write_atomic, write_json
from .config import PipelineConfig
from .errors import BiofuseError, ManifestError, ModelFormatError
from .gabor import ChannelScaler, sampled_responses
from .gmm import (FIT_VERSION, MODEL_FORMAT_VERSION, GmmModel, MixtureStack,
                  em_fit, load_model, save_model)
# match_score is unused here; perfbench's tracer tests check this import site
from .gmm import match_score  # noqa: F401
from .pgm import load_pgm
from .preprocess import (BACKGROUND_ID, check_subject_id,
                         geometric_normalize, histogram_equalize)

MODALITIES = ("face", "ear")
STATS_FORMAT_VERSION = 4
FEATURE_VERSION = 3  # bump when the observation arithmetic changes


def prep_image(img: np.ndarray, marks, config: PipelineConfig) -> np.ndarray:
    """Geometric normalization to the canonical frame, then equalization."""
    return histogram_equalize(geometric_normalize(img, marks, config.layout))


def image_observations(img: np.ndarray, bank, config: PipelineConfig,
                       cache_dir=None) -> np.ndarray:
    """The (n, dim) response-magnitude observations of one prepped image.

    When cache_dir is given, the matrix is cached there as a .npy file keyed
    by the image content, shape and dtype and feature_settings(config), so
    re-runs skip sampled_responses.
    """
    if cache_dir is None:
        return sampled_responses(img, bank, config.stride)
    digest = hashlib.sha256(np.ascontiguousarray(img).tobytes())
    digest.update(f"shape={img.shape};dtype={img.dtype};"
                  f"{json.dumps(feature_settings(config))}".encode())
    path = os.path.join(cache_dir, digest.hexdigest() + ".npy")
    if os.path.exists(path):
        return np.load(path)
    obs = sampled_responses(img, bank, config.stride)
    os.makedirs(cache_dir, exist_ok=True)
    buf = io.BytesIO()
    np.save(buf, obs)
    write_atomic(path, buf.getvalue())
    return obs


def feature_settings(config: PipelineConfig) -> dict:
    """What an image's observations depend on besides its pixels: the bank
    parameters, the sampling stride and FEATURE_VERSION, as JSON values."""
    return {"gabor": asdict(config.gabor), "stride": config.stride,
            "feature_version": FEATURE_VERSION}


def check_canonical_size(img: np.ndarray, config: PipelineConfig,
                         what: str) -> np.ndarray:
    """img when it has the canonical frame's size; BiofuseError otherwise."""
    if img.shape != (config.layout.height, config.layout.width):
        raise BiofuseError(
            f"{what} is {img.shape[0]}x{img.shape[1]} (height x width), "
            f"expected {config.layout.height}x{config.layout.width}; "
            f"run `prep` on it first")
    return img


def load_entry_image(entry) -> np.ndarray:
    try:
        return load_pgm(entry.image_path)
    except OSError as exc:
        raise ManifestError(f"missing image file {entry.image_path}") from exc


def split_by_session(entries):
    """(gallery, probes) = session-1 and session-2 manifest entries."""
    gallery = [e for e in entries if e.session == 1]
    probes = [e for e in entries if e.session == 2]
    return gallery, probes


def check_protocol(entries):
    """Enforce the verification protocol: >= 2 subjects, each with both
    modalities in both sessions and one session-2 image (the probe) per
    modality."""
    subjects = sorted({e.subject_id for e in entries})
    if len(subjects) < 2:
        raise ManifestError("protocol needs at least 2 subjects")
    count = Counter((e.subject_id, e.modality, e.session) for e in entries)
    for sid in subjects:
        for modality in MODALITIES:
            for session in (1, 2):
                if not count[sid, modality, session]:
                    raise ManifestError(
                        f"subject {sid} has no {modality} image "
                        f"in session {session}")
            if count[sid, modality, 2] > 1:
                raise ManifestError(
                    f"subject {sid} has multiple session-2 {modality} "
                    f"images; one probe per modality expected")
    return subjects


@dataclass(frozen=True)
class ModalityArtifacts:
    """Everything `verify` needs for one modality."""
    clients: dict              # subject_id -> GmmModel
    background: GmmModel
    scaler: ChannelScaler
    calibration: tuple         # (lo, hi) gallery score bounds
    fingerprint: str | None = None  # gallery_fingerprint of the fit

    @functools.cached_property
    def stack(self) -> MixtureStack:
        """The background, then the clients in sorted id order, stacked
        once for probe_score; clients is not to change after its first
        use."""
        return MixtureStack([self.background,
                             *(self.clients[sid]
                               for sid in sorted(self.clients))])


def gallery_fingerprint(modality: str, images,
                        config: PipelineConfig) -> str:
    """sha256 hex digest of what one modality's training depends on.

    images is the modality's gallery as (entry, prepped image) pairs in
    the order they are fitted; each contributes its modality, subject id,
    shape, dtype and pixel bytes. The settings that shape the fit
    (feature_settings(config), config.gmm[modality], the seed), the fit's
    arithmetic version and the model and stats format versions are hashed
    too.
    """
    digest = hashlib.sha256(
        f"{json.dumps(feature_settings(config))};"
        f"{config.gmm[modality]!r};seed={config.eval.seed};"
        f"fit=v{FIT_VERSION};"
        f"models=v{MODEL_FORMAT_VERSION};"
        f"stats=v{STATS_FORMAT_VERSION}".encode())
    for entry, img in images:
        img = np.ascontiguousarray(img)
        digest.update(f"|{entry.modality};{entry.subject_id!r};"
                      f"{img.shape};{img.dtype};".encode())
        digest.update(img.tobytes())
    return digest.hexdigest()


def _fit_seed(base_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def train_modality(modality: str, gallery: dict, config: PipelineConfig,
                   fingerprint: str) -> ModalityArtifacts:
    """Calibrated client + background mixtures carrying fingerprint.

    gallery maps subject_id -> list of (n_i, dim) observation matrices in
    the order fitted: pooled as given, client i seeded by its index.
    """
    matrices = [m for subject in gallery.values() for m in subject]
    pooled = np.vstack(matrices)
    scaler = ChannelScaler.fit(pooled)
    pooled = scaler.transform(pooled)  # the raw copy is not kept for EM

    base = config.gmm[modality]
    seed_base = config.eval.seed + (0 if modality == "face" else 1_000_000)

    background, _ = em_fit(pooled, replace(base, seed=_fit_seed(seed_base, 0)))
    clients = {}
    for i, (sid, subject) in enumerate(gallery.items()):
        data = scaler.transform(np.vstack(subject))
        try:
            clients[sid], _ = em_fit(
                data, replace(base, seed=_fit_seed(seed_base, i + 1)))
        except BiofuseError as exc:
            raise type(exc)(
                f"fitting {modality} model for subject {sid}: {exc}") from exc

    artifacts = ModalityArtifacts(clients, background, scaler, None,
                                  fingerprint)
    scores = np.concatenate([probe_score(artifacts, m) for m in matrices])
    return replace(artifacts,
                   calibration=(float(scores.min()), float(scores.max())))


def train_gallery(entries, config: PipelineConfig, image_for, bank,
                  model_dir=None) -> dict:
    """{modality: ModalityArtifacts} trained from the session-1 (gallery)
    entries.

    image_for(entry) returns the entry's prepped image; each image is loaded
    once, for the fingerprint and for its observations, which are computed in
    memory and never cached. Both read the gallery by subject in sorted-id
    order, manifest order within a subject, so reordering the manifest across
    subjects changes neither. Every subject in entries needs gallery images
    of every modality. With model_dir, a modality whose stored artifacts
    carry this gallery's fingerprint is served from there and not fitted;
    whatever load_artifacts refuses, and any stored file of another gallery,
    means it is trained. Nothing is written to model_dir.
    """
    gallery, _ = split_by_session(entries)
    subjects = sorted({e.subject_id for e in entries})
    trained = {}
    for modality in MODALITIES:
        images = [(entry, image_for(entry)) for entry in gallery
                  if entry.modality == modality]
        images.sort(key=lambda pair: pair[0].subject_id)  # stable
        have = {entry.subject_id for entry, _ in images}
        for sid in subjects:
            if sid not in have:
                raise ManifestError(
                    f"subject {sid} has no gallery (session 1) "
                    f"{modality} images")
        fingerprint = gallery_fingerprint(modality, images, config)
        if model_dir is not None:
            try:
                stored = load_artifacts(model_dir, modality, subjects,
                                        config)
            except (BiofuseError, OSError, ValueError):
                stored = None
            if stored is not None and stored.fingerprint == fingerprint:
                trained[modality] = stored
                continue
        gallery_obs = {}
        for entry, img in images:
            gallery_obs.setdefault(entry.subject_id, []).append(
                image_observations(img, bank, config))
        trained[modality] = train_modality(modality, gallery_obs, config,
                                           fingerprint)
    return trained


def probe_score(artifacts: ModalityArtifacts,
                obs_matrix: np.ndarray) -> np.ndarray:
    """Scores of one image's raw observations against every client, in
    sorted id order: match_score(client, background, transformed obs),
    bit for bit. The image is scored against artifacts.stack, every
    mixture of the modality at once, with one design and one batched
    matrix product."""
    means = artifacts.stack.mean_log_likelihoods(
        artifacts.scaler.transform(obs_matrix))
    return means[1:] - means[0]


# --- persistence of per-modality training artifacts ---

def model_filename(modality: str, subject_id: str) -> str:
    return f"{modality}_{subject_id}.json"


def stats_filename(modality: str) -> str:
    return f"{modality}_stats.json"


def _vouched_ids(stats_path) -> set:
    """The ids whose model files a stats file lists in model_sha256; none
    when the file is missing or unreadable, or lists an id that is not one
    file-name component."""
    try:
        with open(stats_path, encoding="utf-8") as fh:
            listed = json.load(fh)["model_sha256"]
        if not isinstance(listed, dict):
            return set()
        for sid in listed.keys() - {BACKGROUND_ID}:
            check_subject_id(sid)
    except (OSError, ValueError, KeyError, TypeError, BiofuseError):
        return set()
    return set(listed)


def save_artifacts(model_dir, trained: dict, config: PipelineConfig) -> None:
    """Write {modality: ModalityArtifacts}, fitted on the observations
    config computes, into model_dir for load_artifacts. A stats file
    vouches for the models beside it by their sha256 (eval reuses them
    when its fingerprint matches), so every old one goes first, with the
    model files it lists of subjects that the new artifacts do not have,
    and each new one is written last: a write that fails midway leaves no
    stats file. Artifacts without a fingerprint (train_modality's own) are
    refused before anything is touched: load_artifacts would refuse their
    stats."""
    for modality, artifacts in trained.items():
        if not isinstance(artifacts.fingerprint, str):
            raise ValueError(f"{modality} artifacts carry no gallery "
                             f"fingerprint ({artifacts.fingerprint!r}); "
                             f"nothing written")
    os.makedirs(model_dir, exist_ok=True)
    for modality, artifacts in trained.items():
        stats_path = os.path.join(model_dir, stats_filename(modality))
        stale = _vouched_ids(stats_path) - {*artifacts.clients, BACKGROUND_ID}
        with contextlib.suppress(FileNotFoundError):
            os.remove(stats_path)
        for sid in sorted(stale):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(model_dir,
                                       model_filename(modality, sid)))
    for modality, artifacts in trained.items():
        digests = {
            sid: save_model(model,
                            os.path.join(model_dir,
                                         model_filename(modality, sid)),
                            modality, sid)
            for sid, model in (*sorted(artifacts.clients.items()),
                               (BACKGROUND_ID, artifacts.background))}
        write_json(os.path.join(model_dir, stats_filename(modality)), {
            "format_version": STATS_FORMAT_VERSION,
            "modality": modality,
            "fingerprint": artifacts.fingerprint,
            "features": feature_settings(config),
            "model_sha256": digests,
            "scaler": artifacts.scaler.to_dict(),
            "calibration": [artifacts.calibration[0],
                            artifacts.calibration[1]],
        })


def load_artifacts(model_dir, modality: str, ids,
                   config: PipelineConfig) -> ModalityArtifacts:
    """One modality's stored artifacts with the client models of ids, as
    save_artifacts wrote them into model_dir, when they may serve config.
    An id that check_subject_id refuses (the reserved background id, or
    one that is not a single file-name component) raises before any file
    is read; a missing, malformed or misplaced model or stats file
    (another version, a non-finite number, a calibration that is not
    increasing, a client whose component count or dimension differs from
    the background's, a scaler of another dimension) raises an error
    naming it, and so does a model whose bytes are not those its stats
    file records. Models fitted on other features than config computes
    raise a BiofuseError naming the stats file and both settings, and so
    does an id whose model the stats file does not list: a stale model
    file of a subject that a later `train` left out."""
    for sid in ids:
        check_subject_id(sid)
    models = {}
    digests = {}
    for sid in (*ids, BACKGROUND_ID):
        path = os.path.join(model_dir, model_filename(modality, sid))
        if not os.path.exists(path):
            raise BiofuseError(f"no {modality} model for id {sid!r} ({path} "
                               f"missing); run `train` first")
        model, got_modality, got_sid, digests[sid] = load_model(path)
        if (got_modality, got_sid) != (modality, sid):
            raise ModelFormatError(
                f"{path}: holds the {got_modality} model of {got_sid!r}, "
                f"not the {modality} model of {sid!r}")
        models[sid] = model
    background = models.pop(BACKGROUND_ID)
    for sid, model in models.items():
        # probe_score stacks every mixture of a modality
        if model.means.shape != background.means.shape:
            raise ModelFormatError(
                f"{os.path.join(model_dir, model_filename(modality, sid))}: "
                f"{model.n_components} components of dim {model.dim}, but "
                f"the background has {background.n_components} of dim "
                f"{background.dim}")
    stats_path = os.path.join(model_dir, stats_filename(modality))
    with open(stats_path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if int(doc["format_version"]) != STATS_FORMAT_VERSION:
                raise ValueError(f"format_version {doc['format_version']!r}, "
                                 f"expected {STATS_FORMAT_VERSION}; run "
                                 f"`train` again")
            if doc["modality"] != modality:
                raise ValueError(f"holds the {doc['modality']} stats, not "
                                 f"the {modality} stats")
            scaler = ChannelScaler.from_dict(doc["scaler"])
            if scaler.mean.shape != (background.dim,):
                raise ValueError(f"scaler of dim {scaler.mean.shape[0]}, but "
                                 f"the models have dim {background.dim}")
            lo, hi = (float(bound) for bound in doc["calibration"])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"calibration [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise ValueError(f"calibration [{lo}, {hi}] is not "
                                 f"increasing")
            fingerprint = doc["fingerprint"]
            if not isinstance(fingerprint, str):
                raise ValueError(f"fingerprint {fingerprint!r} is not a "
                                 f"string")
            for sid in ids:
                if sid not in doc["model_sha256"]:
                    raise BiofuseError(
                        f"{stats_path}: subject {sid!r} is not in the "
                        f"gallery these {modality} models were trained on")
            recorded = {sid: doc["model_sha256"][sid] for sid in digests}
            features = doc["features"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{stats_path}: bad stats document: "
                             f"{exc!r}") from exc
    for sid, digest in digests.items():
        if digest != recorded[sid]:
            raise ModelFormatError(
                f"{os.path.join(model_dir, model_filename(modality, sid))}: "
                f"sha256 {digest}, but {stats_path} records "
                f"{recorded[sid]!r}; run `train` again")
    want = feature_settings(config)
    if features != want:
        raise BiofuseError(
            f"{stats_path}: the {modality} models were fitted on features "
            f"{features}, but this config computes {want}; run `train` "
            f"again")
    return ModalityArtifacts(models, background, scaler, (lo, hi),
                             fingerprint)
