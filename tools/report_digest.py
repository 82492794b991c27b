"""Digests of the diagnostics and crosscheck reports of a fixed set of cases.

    python tools/report_digest.py                # digests of this checkout's src
    python tools/report_digest.py SRC            # digests of another src directory
    python tools/report_digest.py SRC_A SRC_B    # the cases whose digests differ

Each case prints one line: its label, the sha256 of its report JSON without
``runtime_seconds``, and the sha256 of its crosscheck JSON.  The cases are
every builtin, the two random negative controls (m = 2, 3), the m = 6
constant cubic at 100 sample points and sphere-m3 at 10000, all at seed 1.
SRC is a directory holding the ``statmanifold`` package.  Given two, each is
run in its own process; the script lists the cases that differ and exits 1
if there are any, 0 if every digest agrees.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

SEED = 1
DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"


def cases(sm):
    """(label, spec, sample count) of every case; a count of None keeps the spec's."""
    for name in sm.builtin_names():
        yield name, sm.get_builtin(name).spec, None
    for m in (2, 3):
        yield f"negative-control-m{m}", sm.random_polynomial_cubic(m, 2, SEED).spec, None
    cubic = sm.random_symmetric_constants(6, SEED)
    yield "flat-constant-cubic-m6", sm.flat_constant_cubic(6, cubic).spec, 100
    yield "sphere-m3-10000", sm.get_builtin("sphere-m3").spec, 10000


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_lines(src):
    """One ``label report-digest crosscheck-digest`` line per case, run from ``src``."""
    sys.path.insert(0, str(src))
    import statmanifold as sm

    lines = []
    for label, spec, count in cases(sm):
        report = json.loads(sm.run_diagnostics(spec, count=count, seed=SEED).to_json())
        del report["runtime_seconds"]
        check = sm.crosscheck(spec, count=count, seed=SEED).to_json()
        lines.append(f"{label} {sha256(json.dumps(report, sort_keys=True))} {sha256(check)}")
    return lines


def digests_in_process(src):
    """{label: (report digest, crosscheck digest)} from a fresh process on ``src``."""
    out = subprocess.run(
        [sys.executable, __file__, str(src)], check=True, capture_output=True, text=True
    ).stdout
    return {label: tuple(rest) for label, *rest in (line.split() for line in out.splitlines())}


def main(argv):
    if len(argv) <= 1:
        print("\n".join(digest_lines(argv[0] if argv else DEFAULT_SRC)))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (digests_in_process(Path(src).resolve()) for src in argv)
    labels = first.keys() | second.keys()
    differ = sorted(label for label in labels if first.get(label) != second.get(label))
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(labels) - len(differ)} cases identical, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
