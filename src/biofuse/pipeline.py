"""Shared orchestration between the CLI commands and the image experiment.

Gallery protocol: session 1 trains one client mixture per (subject,
modality) plus one pooled background mixture and the channel scaler per
modality; score calibration bounds come from gallery-vs-client scores
only, never from probes.
"""

import hashlib
import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .atomic import write_atomic
from .config import PipelineConfig
from .errors import BiofuseError, ManifestError
from .gabor import ChannelScaler, ObservationSet, sampled_responses
from .gmm import GmmModel, em_fit, match_score
from .pgm import load_pgm
from .preprocess import (BACKGROUND_ID, geometric_normalize,
                         histogram_equalize)

MODALITIES = ("face", "ear")
STATS_FORMAT_VERSION = 1
FEATURE_VERSION = 2  # bump when the observation arithmetic changes


def prep_image(img: np.ndarray, marks, config: PipelineConfig) -> np.ndarray:
    """Geometric normalization to the canonical frame, then equalization."""
    return histogram_equalize(geometric_normalize(img, marks, config.layout))


def image_observations(img: np.ndarray, bank, config: PipelineConfig,
                       cache_dir=None) -> ObservationSet:
    """Response-magnitude observations for one prepped image.

    When cache_dir is given, the matrix is cached there as a .npy file keyed
    by the image content, shape and dtype, config.gabor, config.stride and
    FEATURE_VERSION, so re-runs skip sampled_responses.
    """
    if cache_dir is None:
        return sampled_responses(img, bank, config.stride)
    digest = hashlib.sha256(np.ascontiguousarray(img).tobytes())
    digest.update(f"shape={img.shape};dtype={img.dtype};{config.gabor!r};"
                  f"stride={config.stride};v{FEATURE_VERSION}".encode())
    path = os.path.join(cache_dir, digest.hexdigest() + ".npy")
    if os.path.exists(path):
        return ObservationSet(observations=np.load(path),
                              stride=config.stride)
    obs = sampled_responses(img, bank, config.stride)
    os.makedirs(cache_dir, exist_ok=True)
    buf = io.BytesIO()
    np.save(buf, obs.observations)
    write_atomic(path, buf.getvalue())
    return obs


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
    modalities in both sessions."""
    subjects = sorted({e.subject_id for e in entries})
    if len(subjects) < 2:
        raise ManifestError("protocol needs at least 2 subjects")
    have = {(e.subject_id, e.modality, e.session) for e in entries}
    for sid in subjects:
        for modality in MODALITIES:
            for session in (1, 2):
                if (sid, modality, session) not in have:
                    raise ManifestError(
                        f"subject {sid} has no {modality} image "
                        f"in session {session}")
    return subjects


@dataclass(frozen=True)
class ModalityArtifacts:
    """Everything `verify` needs for one modality."""
    clients: dict              # subject_id -> GmmModel
    background: GmmModel
    scaler: ChannelScaler
    calibration: tuple         # (lo, hi) gallery score bounds


def _fit_seed(base_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def train_modality(modality: str, gallery_obs: dict,
                   config: PipelineConfig) -> ModalityArtifacts:
    """Fit client + background mixtures from raw gallery observations.

    gallery_obs maps subject_id -> list of (n_i, dim) observation matrices.
    """
    subjects = sorted(gallery_obs)
    matrices = [m for sid in subjects for m in gallery_obs[sid]]
    pooled = np.vstack(matrices)
    scaler = ChannelScaler.fit(pooled)

    base = config.gmm[modality]
    seed_base = config.eval.seed + (0 if modality == "face" else 1_000_000)

    background, _ = em_fit(scaler.transform(pooled),
                           replace(base, seed=_fit_seed(seed_base, 0)))
    clients = {}
    for i, sid in enumerate(subjects):
        data = scaler.transform(np.vstack(gallery_obs[sid]))
        try:
            clients[sid], _ = em_fit(
                data, replace(base, seed=_fit_seed(seed_base, i + 1)))
        except BiofuseError as exc:
            raise type(exc)(
                f"fitting {modality} model for subject {sid}: {exc}") from exc

    artifacts = ModalityArtifacts(clients=clients, background=background,
                                  scaler=scaler, calibration=None)
    scores = np.concatenate([probe_score(artifacts, m) for m in matrices])
    return replace(artifacts,
                   calibration=(float(scores.min()), float(scores.max())))


def train_gallery(entries, config: PipelineConfig, observations_for):
    """Train each modality from the session-1 (gallery) entries, yielding
    (modality, ModalityArtifacts) as each finishes.

    observations_for(entry) returns the entry's ObservationSet. Every
    subject in entries needs gallery images of every modality.
    """
    gallery, _ = split_by_session(entries)
    subjects = sorted({e.subject_id for e in entries})
    for modality in MODALITIES:
        gallery_obs = {}
        for entry in gallery:
            if entry.modality == modality:
                gallery_obs.setdefault(entry.subject_id, []).append(
                    observations_for(entry).observations)
        for sid in subjects:
            if sid not in gallery_obs:
                raise ManifestError(
                    f"subject {sid} has no gallery (session 1) "
                    f"{modality} images")
        yield modality, train_modality(modality, gallery_obs, config)


def probe_score(artifacts: ModalityArtifacts,
                obs_matrix: np.ndarray) -> np.ndarray:
    """Scores of one image's raw observations against every client, in
    sorted id order: match_score(client, background, transformed obs),
    with the transform and the background term taken once."""
    x = artifacts.scaler.transform(obs_matrix)
    background = match_score(artifacts.background, None, x)
    return np.array([match_score(artifacts.clients[sid], None, x) - background
                     for sid in sorted(artifacts.clients)])


# --- persistence of per-modality training artifacts ---

def stats_to_dict(modality: str, artifacts: ModalityArtifacts) -> dict:
    return {
        "format_version": STATS_FORMAT_VERSION,
        "modality": modality,
        "scaler": artifacts.scaler.to_dict(),
        "calibration": [artifacts.calibration[0], artifacts.calibration[1]],
    }


def stats_from_dict(doc: dict):
    """(modality, scaler, calibration); ValueError on a bad document."""
    try:
        if int(doc["format_version"]) != STATS_FORMAT_VERSION:
            raise ValueError(f"format_version {doc['format_version']!r}")
        scaler = ChannelScaler.from_dict(doc["scaler"])
        lo, hi = doc["calibration"]
        return doc["modality"], scaler, (float(lo), float(hi))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad stats document: {exc!r}") from exc


def model_filename(modality: str, subject_id: str) -> str:
    return f"{modality}_{subject_id}.json"


def stats_filename(modality: str) -> str:
    return f"{modality}_stats.json"
