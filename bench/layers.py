"""Per-layer timings of the enroll cycle's layers, on seeded inputs.

Usage, from the repository root:

    python3 bench/layers.py [--subjects S] [--repeats R] [--out F]

The inputs are the face gallery of perfbench's seeded corpus
(perfbench/corpus.build_corpus, imported, not edited) of S >= 2 subjects
(`train` refuses a one-subject gallery) and seed SEED, and one session-2
face probe of subject 0 (perfbench/corpus.build_probes), turned into
observations as `train` does: prep, sampled Gabor responses, then one
(S, n, dim) block of the gallery's observations, standardized by one
channel scaler fitted on the whole block (pipeline.train_modality, which
also fits the face models).
Subject 0's observations, block[0], are the client data (n = 440 at the
default config); the whole block is the background data (n = 440 S, 7,040
at S = 16). Rows:

- prep_image.image: the prep of subject 0's face image, on its landmarks
  moved by a seeded jitter of up to JITTER px (the corpus's landmarks are
  canonical, so their warp is an identity map); n is its pixel count
- load_config.file: reading a perfbench-style INI (perfbench/workloads
  .write_config), as `verify` does once per claim; n is the file's size
  in bytes
- load_artifacts.modality: loading one modality's claimed (subject 0)
  and background models, and their stats, from the files save_artifacts
  wrote of the face models below, as `verify` does for each modality; n
  is the model count (2)
- build_bank.bank: the Gabor bank of the config, which `verify` builds
  once per claim; n is its kernel count (40)
- sampled_responses.image: the observations of that prepped image
- lloyd_iter.{client,background}: one Lloyd iteration of kmeans_init,
  from its k-means++ centres
- e_step.{client,background}, m_step.{client,background}: one E-step and
  one M-step of em_fit, at kmeans_init's mixture
- em_fit.client: one whole client fit, with the configured restarts
- write_json.model_file, load_model.model_file: writing and reading the
  model file of that fit; n is the file's size in bytes
- mixture_stack.image: the scaled probe against the stack of the K = S + 1
  face models that train_modality fitted (MixtureStack.mean_log_likelihoods)
- fused_genuine_mass.trials: the fused genuine masses of the default
  synthetic matchers' draws, genuine and impostor trials in one call each,
  as run_fusion_experiment forms them; n is the trial count (20,000)
- compute_roc.curve, to_csv.curve: the ROC curve of those fused masses and
  its CSV text; n is the threshold count (10,001)

Each row is timed R times, after one untimed call; it holds the median
and the interquartile range in seconds, and its n: the number of
observations, unless the row says otherwise. The JSON object, with the
environment block of perfbench/run.py, is printed on stdout and written
to F when given. OPENBLAS_NUM_THREADS is pinned to 1 as in
perfbench/run.py.

Rows from separate processes drift with the host's load: two runs of the
same code read em_fit.client at 11.1 and 18.1 ms. A before/after must
therefore time both versions alternately in one process, or pool many
runs that alternate the two checkouts; one run per side shows nothing.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the corpus, probe, jitter, k-means and synthetic-draw seed of every row
SEED = 1
# the largest landmark shift of the prep_image row, in pixels
JITTER = 4.0


def _import_paths():
    """biofuse from this checkout's src/, perfbench's modules beside it."""
    for sub in ("perfbench", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def gallery_faces(n_subjects):
    """(each subject's raw face image and its manifest entry in subject
    order, the same pair for subject 0's face probe, the default
    PipelineConfig)."""
    from biofuse.config import PipelineConfig
    from biofuse.pgm import load_pgm
    from biofuse.preprocess import load_manifest
    from corpus import build_corpus, build_probes

    def faces(manifest):
        return [(load_pgm(e.image_path), e) for e in load_manifest(manifest)
                if e.modality == "face"]

    with tempfile.TemporaryDirectory() as root:
        manifest, theta = build_corpus(root, n_subjects, SEED,
                                       sessions=(1,))
        probes, _ = build_probes(os.path.join(root, "probes"), theta, 1,
                                 SEED)
        return faces(manifest), faces(probes)[0], PipelineConfig()


def jittered(marks, rng):
    """marks with each coordinate moved by up to JITTER px."""
    from biofuse.preprocess import LandmarkSet

    return LandmarkSet(marks.modality, {
        label: (x + rng.uniform(-JITTER, JITTER),
                y + rng.uniform(-JITTER, JITTER))
        for label, (x, y) in marks.points.items()})


def _stats(times):
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": q2, "iqr_s": q3 - q1}


def time_layers(n_subjects=16, repeats=30):
    """{row: {"n", "median_s", "iqr_s"}} for the rows the module lists."""
    import numpy as np

    from biofuse import gmm
    from biofuse.atomic import write_json
    from biofuse.config import load_config
    from biofuse.evaluate import compute_roc, fused_genuine_mass, synth_scores
    from biofuse.gabor import build_bank, sampled_responses
    from biofuse.pipeline import (load_artifacts, prep_image, save_artifacts,
                                  train_modality)
    from workloads import write_config

    faces, (probe, probe_entry), config = gallery_faces(n_subjects)
    bank = build_bank(config.gabor)
    prepped = [prep_image(img, e.landmarks, config) for img, e in faces]
    gallery = np.stack([sampled_responses(img, bank, config.stride)
                        for img in prepped])
    # any fingerprint string lets save_artifacts write these models
    artifacts = train_modality(
        "face", gallery, {e.subject_id: 1 for _, e in faces}, config,
        "layers")
    block = artifacts.scaler.transform(gallery)
    del gallery
    em = config.gmm["face"]
    data = {"client": block[0],
            "background": block.reshape(-1, block.shape[-1])}

    def timed(fn):
        fn()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return _stats(times)

    raw, entry = faces[0]
    marks = jittered(entry.landmarks, np.random.default_rng(SEED))
    rows = {
        "prep_image.image": dict(
            n=prepped[0].size,
            **timed(lambda: prep_image(raw, marks, config))),
        "build_bank.bank": dict(
            n=len(bank), **timed(lambda: build_bank(config.gabor))),
        "sampled_responses.image": dict(
            n=block.shape[1],
            **timed(lambda: sampled_responses(prepped[0], bank,
                                              config.stride)))}
    for size, x in data.items():
        design = gmm._Design(x)
        k = em.n_components
        centers = gmm._kmeans_pp(design, k, np.random.default_rng(SEED))
        model = gmm.kmeans_init(design, k, SEED, em.cov_floor)
        resp, _ = gmm._e_step(design, model)
        for name, fn in (
                ("lloyd_iter", lambda: gmm._lloyd_step(design, centers)),
                ("e_step", lambda: gmm._e_step(design, model)),
                ("m_step", lambda: gmm._m_step(design, resp))):
            rows[f"{name}.{size}"] = dict(n=x.shape[0], **timed(fn))
    rows["em_fit.client"] = dict(
        n=data["client"].shape[0],
        **timed(lambda: gmm.em_fit(data["client"], em)))

    client, _ = gmm.em_fit(data["client"], em)
    doc = gmm.model_to_dict(client, "face", entry.subject_id)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, f"face_{entry.subject_id}.json")
        size = len(write_json(path, doc))
        rows["write_json.model_file"] = dict(
            n=size, **timed(lambda: write_json(path, doc)))
        rows["load_model.model_file"] = dict(
            n=size, **timed(lambda: gmm.load_model(path)))

        models = os.path.join(root, "models")
        ini = write_config(os.path.join(root, "biofuse.ini"),
                           os.path.join(root, "manifest.json"), models,
                           os.path.join(root, "out"))
        rows["load_config.file"] = dict(
            n=os.path.getsize(ini), **timed(lambda: load_config(ini)))
        save_artifacts(models, {"face": artifacts}, config)
        rows["load_artifacts.modality"] = dict(
            n=2, **timed(lambda: load_artifacts(
                models, "face", [entry.subject_id], config)))

    scaled = artifacts.scaler.transform(sampled_responses(
        prep_image(probe, probe_entry.landmarks, config), bank,
        config.stride))
    rows["mixture_stack.image"] = dict(
        n=scaled.shape[0],
        **timed(lambda: artifacts.stack.mean_log_likelihoods(scaled)))

    fusion, settings = config.fusion, config.eval
    drawn = synth_scores(config.synth, settings.n_genuine,
                         settings.n_impostor, SEED)
    calib = {}
    for modality, pair in drawn.items():
        pool = np.concatenate(pair)
        calib[modality] = (float(pool.min()), float(pool.max()))

    def fuse():
        return tuple(
            fused_genuine_mass(face, ear, calib, fusion)[0]
            for face, ear in zip(drawn["face"], drawn["ear"]))

    genuine, impostor = fuse()
    rows["fused_genuine_mass.trials"] = dict(
        n=genuine.size + impostor.size, **timed(fuse))
    roc = compute_roc(genuine, impostor, settings.num_thresholds)
    rows["compute_roc.curve"] = dict(
        n=roc.thresholds.size,
        **timed(lambda: compute_roc(genuine, impostor,
                                    settings.num_thresholds)))
    rows["to_csv.curve"] = dict(n=roc.thresholds.size, **timed(roc.to_csv))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    # a gallery of one subject has no impostor score to calibrate on
    if args.subjects < 2 or args.repeats < 2:
        parser.error("--subjects must be >= 2 and --repeats >= 2")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads BLAS
    _import_paths()
    from run import environment

    result = {"subjects": args.subjects, "seed": SEED,
              "repeats": args.repeats, "environment": environment(),
              "layers": time_layers(args.subjects, args.repeats)}
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
