"""One prep -> train -> eval cycle of a checkout on a generated corpus.

Usage, from the repository root:

    python3 bench/cycle.py CHECKOUT WORKDIR [--subjects S] [--seed N] [--toy]

Builds the corpus in WORKDIR with perfbench/corpus.py's
build_corpus(root, S, seed) (or the test suite's 2-subject toy corpus with
--toy), both imported from CHECKOUT, runs the three CLI commands of
CHECKOUT as child processes with OPENBLAS_NUM_THREADS=1 and prints one
JSON object: each command's wall time (s) and peak RSS (MB, from wait4's
rusage of that child alone), and the sha256 of every file the cycle
writes into the model and output directories (the model and stats JSONs,
report.csv and the ROC CSVs), by path relative to WORKDIR. Two checkouts
run on the same corpus agree byte for byte when their sha256 blocks are
equal. A command that fails stops the cycle with its exit status.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

COMMANDS = ("prep", "train", "eval")


# writes the corpus at argv[1] and prints its manifest's path: the toy
# corpus when argv[2] is "toy", else build_corpus(root, S, seed)
BUILD = """import sys
if sys.argv[2] == "toy":
    from conftest import build_toy_corpus
    manifest, _ = build_toy_corpus(sys.argv[1])
else:
    from corpus import build_corpus
    manifest, _ = build_corpus(sys.argv[1], int(sys.argv[2]),
                               seed=int(sys.argv[3]))
print(manifest)
"""


def build_manifest(checkout, work, subjects, seed, toy):
    """The path of the manifest of the corpus written under work. It is
    built in a child process: a child's peak RSS from wait4 counts the
    memory it had before its exec, which is this process's, so this
    process imports neither numpy nor biofuse."""
    path = os.pathsep.join(os.path.join(checkout, sub)
                           for sub in ("src", "tests", "perfbench"))
    return subprocess.run(
        [sys.executable, "-c", BUILD, os.path.join(work, "corpus"),
         "toy" if toy else str(subjects), str(seed)],
        env=dict(os.environ, PYTHONPATH=path), check=True,
        capture_output=True, text=True).stdout.strip()


def run_command(checkout, cfg, argv):
    """(wall time in s, peak RSS in MB) of one CLI command of checkout,
    run as a child process; SystemExit with the child's status when it
    fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1")
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "biofuse.cli",
                              "--config", cfg, *argv], env=env,
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return wall, usage.ru_maxrss / 1024


def output_digests(work):
    """{path relative to work: sha256 hex} of each file in work's models
    and out directories."""
    digests = {}
    for sub in ("models", "out"):
        for name in sorted(os.listdir(os.path.join(work, sub))):
            path = os.path.join(work, sub, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    digests[f"{sub}/{name}"] = \
                        hashlib.sha256(fh.read()).hexdigest()
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout")
    parser.add_argument("work")
    parser.add_argument("--subjects", type=int, default=16)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    manifest = build_manifest(checkout, work, args.subjects, args.seed,
                              args.toy)
    cfg = os.path.join(work, "biofuse.ini")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(f"[paths]\nmanifest = {manifest}\n"
                 f"model_dir = {os.path.join(work, 'models')}\n"
                 f"output_dir = {os.path.join(work, 'out')}\n")
    prepped = os.path.join(work, "prepped")
    result = {}
    for name, command in zip(COMMANDS, (
            ["prep", "--out-dir", prepped],
            ["train", "--manifest", os.path.join(prepped, "manifest.json")],
            ["eval"])):
        wall, rss = run_command(checkout, cfg, command)
        result[name] = {"wall_s": round(wall, 3),
                        "peak_rss_mb": round(rss, 1)}
    result["sha256"] = output_digests(work)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
