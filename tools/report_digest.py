"""Digests of the diagnostics and crosscheck reports of a fixed set of cases.

    python tools/report_digest.py                # digests of this checkout's src
    python tools/report_digest.py SRC            # digests of another src directory
    python tools/report_digest.py SRC_A SRC_B    # the cases whose digests differ

Each case prints one line: its label, the sha256 of its report JSON without
``runtime_seconds``, and the sha256 of its crosscheck JSON.  The cases are
every builtin, the two random negative controls (m = 2, 3), the m = 6
constant cubic at 100 sample points, the m = 8 constant cubic at 20 (276
points with its corners), the curved m = 8 chart (the stereographic sphere
with the cubic of ``random_polynomial_cubic(8, 1, 1)``) at 20 and sphere-m3
at 10000, all at seed 1.
SRC is a directory holding the ``statmanifold`` package.  Given two, each is
run in its own process; the script lists the cases that differ, each with
every JSON leaf that differs (both values and, for numbers, their absolute
difference), and exits 1 if there are any, 0 if every digest agrees.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

SEED = 1
HERE = Path(__file__).resolve().parent
DEFAULT_SRC = HERE.parent / "src"


def cases(sm):
    """(label, spec, sample count) of every case; a count of None keeps the spec's."""
    for name in sm.builtin_names():
        yield name, sm.get_builtin(name).spec, None
    for m in (2, 3):
        yield f"negative-control-m{m}", sm.random_polynomial_cubic(m, 2, SEED).spec, None
    for m, count in ((6, 100), (8, 20)):
        cubic = sm.random_symmetric_constants(m, SEED)
        yield f"flat-constant-cubic-m{m}", sm.flat_constant_cubic(m, cubic).spec, count
    curved = sm.sphere_stereographic(8).spec
    curved.cubic = sm.random_polynomial_cubic(8, 1, 1).spec.cubic
    yield "sphere-m8-polynomial-cubic", curved, 20
    yield "sphere-m3-10000", sm.get_builtin("sphere-m3").spec, 10000


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_texts(src):
    """{label: (report JSON without ``runtime_seconds``, crosscheck JSON)}, run from ``src``."""
    sys.path.insert(0, str(src))
    import statmanifold as sm

    texts = {}
    for label, spec, count in cases(sm):
        report = json.loads(sm.run_diagnostics(spec, count=count, seed=SEED).to_json())
        del report["runtime_seconds"]
        check = sm.crosscheck(spec, count=count, seed=SEED).to_json()
        texts[label] = (json.dumps(report, sort_keys=True), check)
    return texts


def texts_in_process(src):
    """:func:`report_texts` of ``src`` from a fresh process."""
    code = f"import json, report_digest; print(json.dumps(report_digest.report_texts({str(src)!r})))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def leaf_diffs(a, b, path=""):
    """(path, a, b) for each JSON leaf where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from leaf_diffs(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from leaf_diffs(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def describe(a, b):
    """Both values of a differing leaf and, for two numbers, their absolute difference."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return f"{a!r} -> {b!r}" + (f" (abs diff {abs(a - b):.3e})" if numbers else "")


def main(argv):
    if len(argv) <= 1:
        texts = report_texts(argv[0] if argv else DEFAULT_SRC)
        for label, (report, check) in texts.items():
            print(f"{label} {sha256(report)} {sha256(check)}")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (texts_in_process(Path(src).resolve()) for src in argv)
    labels = first.keys() | second.keys()
    differ = sorted(label for label in labels if first.get(label) != second.get(label))
    for label in differ:
        print(f"differs: {label}")
        if label not in first or label not in second:
            print("  only in one src")
            continue
        for kind, a, b in zip(("report", "crosscheck"), first[label], second[label]):
            for path, x, y in leaf_diffs(json.loads(a), json.loads(b)):
                print(f"  {kind} {path}: {describe(x, y)}")
    print(f"{len(labels) - len(differ)} cases identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
