"""Per-layer timings of the EM fit, on seeded inputs.

Usage, from the repository root:

    python3 bench/layers.py [--subjects S] [--repeats R] [--out F]

The inputs are the face gallery of perfbench's seeded corpus
(perfbench/corpus.build_corpus, imported, not edited) of S subjects and
seed SEED, turned into observations as `train` does: prep, sampled Gabor
responses, then the channel scaler fitted on the pooled gallery. Subject 0's
observations are the client data (n = 440 at the default config); all S
subjects' are the background data (n = 440 S, 7,040 at S = 16). Rows:

- lloyd_iter.{client,background}: one Lloyd iteration of kmeans_init,
  from its k-means++ centres
- e_step.{client,background}, m_step.{client,background}: one E-step and
  one M-step of em_fit, at kmeans_init's mixture
- em_fit.client: one whole client fit, with the configured restarts

Each row is timed R times, after one untimed call; it holds the median
and the interquartile range in seconds, and its n. The JSON object,
with the environment block of perfbench/run.py, is printed on stdout and
written to F when given. OPENBLAS_NUM_THREADS is pinned to 1 as in
perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the corpus and k-means seed of every row
SEED = 1


def _import_paths():
    """biofuse from this checkout's src/, perfbench's modules beside it."""
    for sub in ("perfbench", "src"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def gallery_observations(n_subjects):
    """(each subject's (n, dim) scaled face observations in subject order,
    the face EmConfig)."""
    import numpy as np

    from biofuse.config import PipelineConfig
    from biofuse.gabor import ChannelScaler, build_bank
    from biofuse.pipeline import image_observations, load_entry_image, \
        prep_image
    from biofuse.preprocess import load_manifest
    from corpus import build_corpus

    config = PipelineConfig()
    bank = build_bank(config.gabor)
    with tempfile.TemporaryDirectory() as root:
        manifest, _ = build_corpus(root, n_subjects, SEED, sessions=(1,))
        obs = [image_observations(
                   prep_image(load_entry_image(e), e.landmarks, config),
                   bank, config)
               for e in load_manifest(manifest) if e.modality == "face"]
    scaler = ChannelScaler.fit(np.vstack(obs))
    return [scaler.transform(m) for m in obs], config.gmm["face"]


def _stats(times):
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": q2, "iqr_s": q3 - q1}


def time_layers(n_subjects=16, repeats=30):
    """{row: {"n", "median_s", "iqr_s"}} for the rows the module lists."""
    import numpy as np

    from biofuse import gmm

    subjects, em = gallery_observations(n_subjects)
    data = {"client": subjects[0], "background": np.vstack(subjects)}

    def timed(fn):
        fn()
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return _stats(times)

    rows = {}
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
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.subjects < 1 or args.repeats < 2:
        parser.error("--subjects must be >= 1 and --repeats >= 2")
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
