"""Fixed reference work, timed between sweeps to measure machine speed.

On a shared host the speed of the same work drifts by 10-20% over tens of
seconds (other tenants on the same cores and memory).  The benchmark times
this work before the set-up and after each sweep of operations, and scales a
run's wall times by the reference's nominal time over the median of its
measured times, so that the figures read as seconds on the box where the
benchmark was defined.
The work runs in a child process: it never touches statmanifold, and its
memory does not count in the benchmark process's peak RSS.

Run as a script, it serves measurements: one line in, one time out.
"""

import statistics
import subprocess
import sys
import time

# about the median of reference_work() on the box where the benchmark was defined
# (2-core Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.11


def reference_work():
    """Run the reference work once and return its wall time in seconds.

    It mixes what the operations spend their time on: Python dispatch,
    many small numpy operations, a dense contraction and streaming over an
    array larger than the caches.
    """
    import numpy as np

    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(150_000):
        table[i & 1023] = i
        acc += table[i & 1023] * 3 % 7
    small = np.arange(1000.0)
    for _ in range(3000):
        small = small * 1.0000001 + 1e-9
    dense = np.random.default_rng(0).random((300, 300))
    for _ in range(3):
        dense = np.einsum("ij,jk->ik", dense, dense) / 300
    big = np.ones(4_000_000)
    for _ in range(5):
        big = big * 1.0000001
    return time.perf_counter() - start


def scaled(elapsed, reference_times):
    """``elapsed`` in reference seconds, given the reference times of its run."""
    return elapsed * REFERENCE_S / statistics.median(reference_times)


class ReferenceProbe:
    """A child process that runs the reference work each time it is called."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __call__(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended")
        return float(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    reference_work()  # the first call also imports numpy
    for _request in sys.stdin:
        print(repr(reference_work()), flush=True)
