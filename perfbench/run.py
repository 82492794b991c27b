"""statmanifold benchmark.

One process, one client, closed loop: each operation starts only after the
previous one has finished.  Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around every layer and reports the per-layer metrics
and the tracing overhead.  Earlier lines of standard output carry the
provenance block and a readable summary; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
End-to-end times are scaled for the host's speed during the run (see
reference.py).  Operations that fail are counted and reported on standard
error; they never abort the run.  See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from reference import ReferenceProbe, scaled
from tracing import Tracer, instrumented, layer_metrics
from workloads import OPERATIONS, PROBLEMS, WORKLOADS, build_cases

HERE = Path(__file__).resolve().parent
STATUS_TABLE = HERE / "status_table.json"
TRACE_DIR = HERE / "traces"

KINDS = ("diagnose", "crosscheck")
SETUP_PROBES = 5  # fresh processes timed per run; setup_s is their median
MIN_PASSES = 3  # on the heavy workloads, so that a run's median drops one outlier
# catalog-sweep is cheap enough to fill lazy tables with one untimed pass.  On
# the heavy workloads a pass is a third of the run, while building every jet
# table they use takes about 10 ms against about 12 s per pass.
WARMUP_PASSES = {"catalog-sweep": 1}
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "diagnose_s": "s", "crosscheck_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.untraced_diagnose_s": "s", "trace.diagnose_s": "s", "trace.overhead_ratio": "ratio"}
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One client on one thread.  On a shared 2-core box threaded BLAS made
# sphere-large-n no faster but doubled its CPU use and roughly tripled the
# run-to-run spread.  A caller who sets these variables keeps its values.
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Bench:
    """Runs operations of one workload and accounts for their failures."""

    def __init__(self, sm, cases, seed, table):
        self.sm = sm
        self.cases = cases
        self.seed = seed
        self.table = table
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self):
        return len(self.failures)

    def run_op(self, kind, case, tracer=None):
        """Run one operation, check its outcome, and return its wall time."""
        self.attempted += 1
        span = tracer.operation(kind) if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                outcome = OPERATIONS[kind](self.sm, case, self.seed)
        except Exception as err:  # a raising operation is a failed one; the run goes on
            elapsed = time.perf_counter() - start
            self.failures.append(f"{kind} {case.label}: raised {type(err).__name__}: {err}")
            return elapsed
        elapsed = time.perf_counter() - start
        problems = PROBLEMS[kind](case, outcome, self.table.get(case.label))
        if problems:
            self.failures.append(f"{kind} {case.label}: " + "; ".join(problems))
        return elapsed

    def run_pass(self, kinds=KINDS, tracer=None):
        """One sweep over every case per kind; returns each sweep's wall time."""
        if tracer is not None:
            tracer.next_pass()
        return {kind: sum(self.run_op(kind, case, tracer) for case in self.cases) for kind in kinds}


def closed_loop(seconds, step, min_steps):
    """Call ``step`` back to back until the next call would end past the deadline."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        begin = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if len(results) >= min_steps and now + (now - begin) > deadline:
            return results


def measure_setup(root, src, workload, seed):
    """Median set-up time over fresh processes (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(src)],
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            cwd=root,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def untraced_run(bench, workload, seconds, reference, setup):
    """End-to-end metrics; times are scaled to reference seconds (see reference.py).

    ``reference()`` times the reference work once and ``setup()`` returns the
    wall set-up time.  Returns the metrics and the median wall times they
    were scaled from.
    """
    refs = [reference()]
    wall = {"setup_s": setup()}
    refs.append(reference())
    for _ in range(WARMUP_PASSES.get(workload, 0)):
        bench.run_pass()
    sweeps = {kind: [] for kind in KINDS}

    def step():
        for kind in KINDS:
            sweeps[kind].append(bench.run_pass((kind,))[kind])
            refs.append(reference())

    closed_loop(seconds, step, MIN_PASSES)
    wall.update((f"{kind}_s", statistics.median(sweeps[kind])) for kind in KINDS)
    values = {name: scaled(value, refs) for name, value in wall.items()}
    values["peak_rss_mb"] = peak_rss_mb()
    wall["reference_s"] = statistics.median(refs)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, wall


def traced_run(bench, seconds, trace_path):
    """Alternate an untraced diagnose pass with a traced full pass.

    An untimed diagnose pass runs first, so that the overhead ratio compares
    two warm passes: on sphere-large-n the first diagnose of a process ran
    about 1 s slower than the next one (10.6 s against 9.7 s).
    """
    bench.run_pass(("diagnose",))
    tracer = Tracer()

    def step():
        untraced = bench.run_pass(("diagnose",))["diagnose"]
        with instrumented(tracer):
            traced = bench.run_pass(KINDS, tracer)["diagnose"]
        return untraced, traced

    steps = closed_loop(seconds, step, 1)
    untraced = statistics.median(u for u, _ in steps)
    traced = statistics.median(t for _, t in steps)
    values = {
        "trace.untraced_diagnose_s": untraced,
        "trace.diagnose_s": traced,
        "trace.overhead_ratio": traced / untraced,
    }
    metrics = layer_metrics(tracer)
    metrics.update((name, (values[name], unit)) for name, unit in TRACE_UNITS.items())
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write_jsonl(trace_path)
    return metrics


# -- provenance ----------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: f"{deps[key].get('name')} {deps[key].get('version')}" for key in ("blas", "lapack")}
    except (TypeError, KeyError):
        return "unknown"


def provenance(root, seed, loadavg, sm):
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "statmanifold": sm.__version__,
        "git_commit": _git_commit(root),
        "blas": _blas(np),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV if name in os.environ},
        "loadavg_start": list(loadavg),
    }


# -- entry point -------------------------------------------------------------------


def program_sources(root):
    src = root / "src"
    if not (src / "statmanifold" / "__init__.py").is_file():
        raise BenchError(f"no statmanifold sources under {src}; run from the root of a checkout")
    return src


def import_program(src):
    """Import statmanifold from the checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import statmanifold as sm

    if Path(sm.__file__).resolve().parent != (src / "statmanifold").resolve():
        raise BenchError(f"imported statmanifold from {sm.__file__}, not from {src}")
    return sm


def load_status_table(workload):
    try:
        return json.loads(STATUS_TABLE.read_text())[workload]
    except (OSError, ValueError, KeyError) as err:
        raise BenchError(f"status table {STATUS_TABLE} unusable for {workload}: {err!r}") from err


def make_bench(src, args, table):
    """Import the program, build the workload's specs and compile each once."""
    sm = import_program(src)
    cases = build_cases(args.workload, args.seed)
    for case in cases:
        case.spec.compile()
    return Bench(sm, cases, args.seed, table)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="statmanifold benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    loadavg = os.getloadavg()
    table = load_status_table(args.workload)
    src = program_sources(root)
    for name in SINGLE_THREAD_ENV:  # before numpy is imported here or in a probe
        os.environ.setdefault(name, "1")
    bench = make_bench(src, args, table)
    if args.trace:
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        metrics, wall = traced_run(bench, args.seconds, trace_path), {}
    else:
        with ReferenceProbe() as reference:
            metrics, wall = untraced_run(
                bench,
                args.workload,
                args.seconds,
                reference,
                lambda: measure_setup(root, src, args.workload, args.seed),
            )

    for failure in bench.failures[:20]:
        print("FAILED " + failure, file=sys.stderr)
    print(json.dumps({"provenance": provenance(root, args.seed, loadavg, bench.sm)}, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:>14.6g} {unit}")
    share = bench.failed / bench.attempted
    print(f"  {'failed_share':32} {share:>14.6g} share ({bench.failed} of {bench.attempted} operations)")
    for name, value in wall.items():
        print(f"  {'wall ' + name:32} {value:>14.6g} s (median, before scaling)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
