"""Seeded inputs for the benchmark workloads.

Every image is a sinusoidal grating plus sensor noise, as in the test
suite's toy corpus, at an orientation distinct per (subject, modality).
The seed permutes which subject gets which orientation and draws the
phases and the noise; the set of orientations is the same for every seed,
so the amount of work barely depends on it.
"""

import json
import math
import os

import numpy as np

from biofuse.pgm import write_pgm

MODALITIES = ("face", "ear")
FACE_MARKS = {"left_eye": [60.0, 70.0], "right_eye": [140.0, 70.0],
              "mouth_center": [100.0, 170.0]}
EAR_MARKS = {"triangular_fossa": [100.0, 60.0], "antitragus": [100.0, 160.0]}
SIZE = (220, 200)
FREQ = math.pi / (2.0 * math.sqrt(2.0))


def grating_image(theta, phase, rng):
    """Grating at orientation theta with N(0, 4) noise, as uint8."""
    h, w = SIZE
    ys, xs = np.mgrid[0:h, 0:w]
    vals = 128.0 + 80.0 * np.cos(
        FREQ * (xs * math.cos(theta) + ys * math.sin(theta)) + phase)
    vals += rng.normal(0.0, 4.0, SIZE)
    return np.clip(np.rint(vals), 0, 255).astype(np.uint8)


def subject_ids(n_subjects):
    return [f"s{i:02d}" for i in range(n_subjects)]


def orientations(n_subjects, rng):
    """(subject_id, modality) -> orientation. Within a modality the
    orientations are pi/S apart; face and ear interleave."""
    out = {}
    for mi, modality in enumerate(MODALITIES):
        slots = rng.permutation(n_subjects)
        for sid, k in zip(subject_ids(n_subjects), slots):
            out[(sid, modality)] = (k + 0.5 * mi) * math.pi / n_subjects
    return out


def _record(path, sid, modality, session):
    return {"image_path": path, "modality": modality, "subject_id": sid,
            "session": session,
            "landmarks": FACE_MARKS if modality == "face" else EAR_MARKS}


def _write_manifest(root, records):
    path = os.path.join(root, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    return path


def build_corpus(root, n_subjects, seed, sessions=(1, 2)):
    """One image per (subject, modality, session) in `sessions`; landmarks
    at the canonical positions, so geometric normalization is a crop.
    Returns (manifest path, orientation map)."""
    rng = np.random.default_rng([seed, n_subjects])
    theta = orientations(n_subjects, rng)
    os.makedirs(root, exist_ok=True)
    records = []
    for sid in subject_ids(n_subjects):
        for modality in MODALITIES:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            for session in sessions:
                img = grating_image(theta[(sid, modality)],
                                    phase + 0.7 * (session - 1), rng)
                path = os.path.join(root, f"{sid}_{modality}_{session}.pgm")
                write_pgm(img, path)
                records.append(_record(path, sid, modality, session))
    return _write_manifest(root, records), theta


def build_probes(root, theta, n_pairs, seed):
    """n_pairs distinct session-2 face+ear pairs; pair p belongs to subject
    p mod S. Returns (manifest path, [subject_id per pair])."""
    rng = np.random.default_rng([seed, n_pairs, 2])
    sids = sorted({sid for sid, _ in theta})
    os.makedirs(root, exist_ok=True)
    records = []
    owners = []
    for p in range(n_pairs):
        sid = sids[p % len(sids)]
        owners.append(sid)
        for modality in MODALITIES:
            img = grating_image(theta[(sid, modality)],
                                rng.uniform(0.0, 2.0 * math.pi), rng)
            path = os.path.join(root, f"p{p:04d}_{sid}_{modality}.pgm")
            write_pgm(img, path)
            records.append(_record(path, sid, modality, 2))
    return _write_manifest(root, records), owners
