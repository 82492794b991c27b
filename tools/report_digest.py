"""Digests of the diagnostics and crosscheck reports of a fixed set of cases.

    python tools/report_digest.py                # digests of this checkout's src
    python tools/report_digest.py SRC            # digests of another src directory
    python tools/report_digest.py SRC_A SRC_B    # the cases whose digests differ

Each case prints one line: its label, the sha256 of its report JSON without
``runtime_seconds``, and the sha256 of its crosscheck JSON.  The cases are
every builtin, the two random negative controls (m = 2, 3), the m = 6
constant cubic at 100 sample points, the m = 8 constant cubic at 20 (276
points with its corners), the curved m = 8 chart (the stereographic sphere
with the cubic of ``random_polynomial_cubic(8, 1, 1)``) at 20, sphere-m3
at 10000, ``NON_EINSTEIN_M3`` and the two ``ONE_FACTOR_CUBICS`` charts, all at seed 1.
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
from dataclasses import replace
from pathlib import Path

SEED = 1

# A curved m = 3 chart whose metric is not Einstein, with the cubic of
# ``random_polynomial_cubic(3, 2, 1)`` written out: every other case has an Einstein
# Levi-Civita Ricci, on which index orders of Ricci contractions agree.
NON_EINSTEIN_M3 = {
    "name": "non-einstein-m3",
    "dim": 3,
    "coordinates": ["x1", "x2", "x3"],
    "metric": {
        "11": "1 + 0.3*x2*x2", "22": "1 + 0.2*x3*x3", "33": "1 + 0.1*x1*x1",
        "12": "0.1*x3", "13": "0", "23": "0",
    },
    "cubic": {
        "111": "0.011822 + 0.450464*x1 + -0.35584*x2 + 0.448649*x3 + -0.188169*x1*x1 + "
            "-0.076674*x1*x2 + 0.327703*x1*x3 + -0.090801*x2*x2 + 0.049594*x2*x3 + -0.472441*x3*x3",
        "112": "0.253513 + 0.038143*x1 + -0.170268*x2 + 0.288429*x3 + -0.196805*x1*x1 + "
            "-0.046502*x1*x2 + -0.365958*x1*x3 + -0.096887*x2*x2 + -0.296545*x2*x3 + -0.237687*x3*x3",
        "113": "0.250365 + -0.219591*x1 + -0.014809*x2 + 0.480737*x3 + 0.461657*x1*x1 + "
            "0.22479*x1*x2 + 0.041227*x1*x3 + -0.223109*x2*x2 + -0.339348*x2*x3 + 0.469925*x3*x3",
        "122": "0.016069 + -0.384134*x1 + 0.12349*x2 + 0.276683*x3 + 0.113003*x1*x1 + "
            "0.417298*x1*x2 + -0.460407*x1*x3 + 0.028589*x2*x2 + -0.040664*x2*x3 + -0.43765*x3*x3",
        "123": "0.141328 + 0.352633*x1 + 0.092941*x2 + -0.239903*x3 + 0.339882*x1*x1 + "
            "0.009496*x1*x2 + 0.010889*x1*x3 + 0.25303*x2*x2 + -0.352078*x2*x3 + 0.319627*x3*x3",
        "133": "0.183287 + 0.287097*x1 + -0.308384*x2 + 0.302364*x3 + -0.308676*x1*x1 + "
            "-0.418447*x1*x2 + 0.355227*x1*x3 + 0.361283*x2*x2 + 0.376537*x2*x3 + -0.02809*x3*x3",
        "222": "-0.225952 + -0.492908*x1 + 0.145721*x2 + 0.219909*x3 + 0.335569*x1*x1 + "
            "-0.218122*x1*x2 + -0.284782*x1*x3 + 0.139331*x2*x2 + 0.305055*x2*x3 + 0.463671*x3*x3",
        "223": "-0.349475 + -0.017788*x1 + 0.394716*x2 + -0.077283*x3 + 0.089502*x1*x1 + "
            "-0.475509*x1*x2 + 0.17346*x1*x3 + 0.419089*x2*x2 + 0.326825*x2*x3 + 0.38552*x3*x3",
        "233": "0.160355 + -0.254448*x1 + 0.268517*x2 + -0.288325*x3 + 0.331275*x1*x1 + "
            "-0.437282*x1*x2 + 0.325488*x1*x3 + -0.335493*x2*x2 + -0.124853*x2*x3 + -0.183262*x3*x3",
        "333": "0.191337 + -0.321428*x1 + -0.103744*x2 + -0.494175*x3 + -0.237505*x1*x1 + "
            "-0.078811*x1*x2 + -0.394079*x1*x3 + 0.13316*x2*x2 + -0.119576*x2*x3 + 0.225294*x3*x3",
    },
    "sample": {"box": {x: [-1.0, 1.0] for x in ("x1", "x2", "x3")}, "count": 20},
}

# Cubics of the flat m = 2 chart of ``flat_constant_cubic(2)`` on which exactly one
# factor of the (T1) and (T2) criterion holds: (T1) on the first, (T2) on the second.
# Neither is semi-equiaffine, so a flag that reads only one factor disagrees with the
# bi-tension on one of them.
ONE_FACTOR_CUBICS = {
    "one-factor-t1-holds": {"111": "-2*x1", "222": "2*x2"},
    "one-factor-t2-holds": {"111": "-2*x2*x2"},
}

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
    yield "non-einstein-m3", sm.ManifoldSpec.from_dict(NON_EINSTEIN_M3), None
    for label, cubic in ONE_FACTOR_CUBICS.items():
        yield label, replace(sm.flat_constant_cubic(2).spec, name=label, cubic=cubic), None


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
