"""biofuse benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload enroll|verify|synth --seed N \
        --seconds S --trace 0|1

The workload's inputs are generated from --seed; the program only sees
the generated files. Ops run for about --seconds (a whole op, the next of
which would end past the deadline, is not started; at least one op runs,
two when tracing). Every op's output is checked; an op that raises, exits
2 or fails its check counts as failed.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones: setup_s (median of 3 set-ups), latency_p50_ref and
latency_p90_ref (per op: a prep->train->eval cycle for enroll, a claim for
verify, a synth-eval for synth) and peak_rss_mb. The latencies are in
"ref" units: each CLI call's wall time divided by the time of a fixed
reference kernel that speed.py samples on the other CPU meanwhile (see
there for why). With --trace 1 they are per-layer: calls and self time
per traced op for each wrapped function, cache hits/misses, EM
iterations, total conflicts, the Gabor kept ratio and the tracing
overhead. Lines before it give the wall-clock figures
under the per-command names (prep_s, verify_p50_ms, ...), failed_frac,
and the environment. Results and spans are written to .perfbench_out/.

OPENBLAS_NUM_THREADS is pinned to 1 in this process: on a small shared
machine a threaded BLAS measures the scheduler rather than the program.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("enroll", "verify", "synth"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_biofuse():
    """Import biofuse from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "biofuse", "cli.py")):
        raise SystemExit(f"error: no biofuse sources under {src}")
    sys.path.insert(0, src)
    import biofuse
    if not os.path.abspath(biofuse.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported biofuse from {biofuse.__file__}")


def environment():
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def percentile(values, q):
    """q-th percentile; 0.0 when no op succeeded (the result is then
    marked incorrect)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def normalised(timings, speed):
    """Each op's latency in units of the speed sampler's kernel: the sum
    over its CLI calls of wall time / kernel time meanwhile."""
    return [sum((t1 - t0) / speed.ref_s(t0, t1) for t0, t1 in t.intervals)
            for t in timings]


def end_to_end(loop, lat):
    return {
        "setup_s": (statistics.median(loop.setup_s), "s"),
        "latency_p50_ref": (percentile(lat, 50), "ref"),
        "latency_p90_ref": (percentile(lat, 90), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def named_lines(workload, loop, ref, speed):
    """The headline figures under the per-command names."""
    lines = []
    lat = loop.latency_ms
    if lat:
        from workloads import LATENCY_NAMES
        base = LATENCY_NAMES[workload]
        beyond = sum(1 for v in lat if v > percentile(lat, 90))
        lines.append(f"{base}_p50_ms {percentile(lat, 50):.3f} ms")
        lines.append(f"{base}_p90_ms {percentile(lat, 90):.3f} ms "
                     f"(n={len(lat)}, {beyond} beyond p90)")
    if ref:
        lines.append(f"{base}_p50_ref {percentile(ref, 50):.3f} ref")
        lines.append(f"{base}_p90_ref {percentile(ref, 90):.3f} ref")
        kernel_ms = statistics.median(speed.kernel) * 1e3
        lines.append(f"ref_kernel_ms {kernel_ms:.4f} ms "
                     f"(median of {speed.kernel.size})")
    for name, values in loop.phases.items():
        lines.append(f"{name} {statistics.median(values):.4f} s "
                     f"(median of {len(values)})")
    lines.append(f"setup_s {statistics.median(loop.setup_s):.4f} s "
                 f"(median of {len(loop.setup_s)})")
    lines.append(f"peak_rss_mb {peak_rss_mb():.1f} MB")
    lines.append(f"failed_frac {loop.failed / max(loop.attempted, 1):.4f} "
                 f"ratio ({loop.failed}/{loop.attempted})")
    return lines


def per_layer(loop, tracer, n_ops, ref, traced_ref):
    """Tracer summary plus the tracing overhead: the traced ops' median
    latency over the untraced ones', both normalised so host drift between
    them cancels, and that share of the untraced median wall time."""
    metrics = {}
    for name, value in tracer.summary(n_ops).items():
        unit = "s" if name.endswith(".s") else (
            "ratio" if name.endswith("ratio") else "count")
        metrics[name] = (value, unit)
    frac = 0.0
    if ref and traced_ref:
        frac = statistics.median(traced_ref) / statistics.median(ref) - 1.0
    overhead = frac * statistics.median(loop.latency_ms) if ref else 0.0
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_frac"] = (frac, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still leaves through the finally blocks below, so
    # the speed sampler is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads BLAS
    import_biofuse()
    from speed import SpeedSampler
    from tracer import Tracer
    from workloads import WORKLOADS, Loop

    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer() if args.trace else None
    loop = Loop(args.seconds, tracer)
    try:
        with SpeedSampler() as speed:
            WORKLOADS[args.workload](loop, work, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = normalised(loop.latencies, speed)

    correct = loop.failed == 0 and bool(loop.latency_ms)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        calls = tracer.calls_per_op()
        repeats = len(set(calls.values())) == 1
        if not repeats:
            loop.failures.append("traced call counts differ between ops")
        correct = correct and repeats and bool(loop.traced)
        metrics = per_layer(loop, tracer, max(len(calls), 1), ref,
                            normalised(loop.traced, speed))
        tracer.write(os.path.join(OUT, f"spans_{tag}.npz"))
    else:
        metrics = end_to_end(loop, ref)

    env = environment()
    for line in named_lines(args.workload, loop, ref, speed):
        print(line)
    for note in sorted(loop.notes):
        print(f"note: {note}")
    for message in loop.failures:
        print(f"failure: {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result_{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, env=env, notes=sorted(loop.notes),
                       setup_s=loop.setup_s,
                       latency_ms=loop.latency_ms, latency_ref=ref,
                       traced_ms=loop.traced_ms, phases=loop.phases),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
