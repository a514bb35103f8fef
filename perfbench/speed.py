"""Host speed sampler for normalising latencies.

On a shared host the machine's speed drifts by up to half over tens of
seconds, and both CPUs drift together; that moves whole benchmark runs. A
separate process times a fixed ~1 ms kernel (numpy FFT plus interpreted
arithmetic) every 50 ms on the other CPU while the workload runs. Dividing
a command's wall time by the kernel's median time over the same interval
keeps the program's cost and sheds the drift.

The sampler is this file run as a script: it samples until its stdin
reaches end of file, then prints its rows as JSON and exits. The parent
closes that pipe and waits for it on every way out of the `with` block,
and if the parent dies first the pipe closes with it, so the sampler never
outlives the benchmark.
"""

import json
import os
import select
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
WAIT_S = 60


def kernel_s(data):
    t0 = time.perf_counter()
    np.fft.ifft2(np.fft.fft2(data))
    acc = 0.0
    for i in range(4000):
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - t0


def sample():
    """Child side: sample until stdin closes, then print the rows."""
    data = np.random.default_rng(0).random((128, 128))
    stdin = sys.stdin.buffer
    rows = []
    while True:
        start = time.perf_counter()
        rows.append((start, kernel_s(data)))
        readable, _, _ = select.select([stdin], [], [], PERIOD_S)
        if readable and not os.read(stdin.fileno(), 4096):
            break
    sys.stdout.write(json.dumps(rows))
    sys.stdout.flush()


class SpeedSampler:
    """Context manager running the sampler process; after exit, `ref_s`
    gives the kernel's median time over an interval of perf_counter()
    (a system-wide monotonic clock, shared with the child)."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(input=b"", timeout=WAIT_S)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
        rows = json.loads(out) if out else []
        self.starts = np.array([r[0] for r in rows])
        self.kernel = np.array([r[1] for r in rows])

    def ref_s(self, t0, t1):
        """Median kernel seconds over samples started within [t0, t1], or
        the nearest sample when none did."""
        if self.kernel.size == 0:
            raise RuntimeError("speed sampler recorded no samples")
        inside = (self.starts >= t0) & (self.starts <= t1)
        if inside.any():
            return float(np.median(self.kernel[inside]))
        nearest = np.argmin(np.abs(self.starts - 0.5 * (t0 + t1)))
        return float(self.kernel[nearest])


if __name__ == "__main__":
    sample()
