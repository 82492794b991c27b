"""Time one fresh-process set-up of a workload and print it in seconds.

The clock starts before ``import statmanifold`` and stops once every spec of
the workload has been built and compiled (validated and parsed) once.

    python3 perfbench/setup_probe.py <workload> <seed> <path to src>
"""

import sys
import time

from workloads import build_cases


def main(workload, seed, src):
    sys.path.insert(0, src)
    start = time.perf_counter()
    for case in build_cases(workload, int(seed)):  # imports statmanifold
        case.spec.compile()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
