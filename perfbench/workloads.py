"""Workloads of the statmanifold benchmark and the rules that decide whether
one operation succeeded.

A workload is a list of cases; each case is one spec with the sample size the
operations use.  The workload seed sets the sample seed and the seeds of the
random cubic constants, so the program only ever sees the resulting spec.

This module must not import statmanifold at import time: the set-up probe
starts its clock before that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("catalog-sweep", "sphere-large-n", "flat-high-dim")

# The ten builtins at this commit, pinned so that a new builtin does not
# silently grow the catalog sweep.
CATALOG = (
    "centroaffine",
    "centroaffine-equiaffine",
    "centroaffine-2-3",
    "flat-cubic",
    "flat-cubic-m3",
    "sphere-m2",
    "sphere-m3",
    "sphere-m2-c4",
    "hyperbolic-m2",
    "hyperbolic-m3",
)

# Sample sizes pinned as literals, not derived from the program's sampling
# rule: the default sample of 100 uniform points plus the 2^m box corners.
DEFAULT_POINTS = {2: 104, 3: 108}

# Same tolerance as the catalog regression tests use for the fitted lambda.
LAMBDA_TOLERANCE = 1e-8

CROSSCHECK_QUANTITIES = ("christoffel", "curvature", "scalar_laplacian", "tchebychev_operator")


@dataclass(frozen=True)
class Case:
    label: str  # seed-independent key into the status table
    spec: object  # statmanifold.ManifoldSpec
    count: int | None  # sample count passed to the operations; None = spec default
    num_points: int  # pinned size of the diagnose sample
    expected: dict  # the catalog's expected flags and constant curvature


def build_cases(workload, seed):
    """The cases of ``workload`` for ``seed``, in the order a pass runs them."""
    import statmanifold as sm

    if workload == "catalog-sweep":
        cases = []
        for name in CATALOG:
            inst = sm.get_builtin(name)
            cases.append(Case(name, inst.spec, None, DEFAULT_POINTS[inst.spec.dim], inst.expected))
        for m in (2, 3):
            inst = sm.random_polynomial_cubic(m, 2, seed)
            cases.append(
                Case(f"negative-control-m{m}", inst.spec, None, DEFAULT_POINTS[m], inst.expected)
            )
        return cases
    if workload == "sphere-large-n":
        inst = sm.get_builtin("sphere-m3")
        return [Case("sphere-m3", inst.spec, 10000, 10008, inst.expected)]
    if workload == "flat-high-dim":
        inst = sm.flat_constant_cubic(6, sm.random_symmetric_constants(6, seed))
        return [Case("flat-constant-cubic-m6", inst.spec, 100, 164, inst.expected)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- operations ------------------------------------------------------------------
#
# Both look the API up on the package at call time, so the traced run's
# wrappers are the ones called.


def diagnose(sm, case, seed):
    """What a ``statmanifold run`` user gets: the report and its JSON text."""
    report = sm.run_diagnostics(case.spec, count=case.count, seed=seed)
    return report, report.to_json()


def crosscheck(sm, case, seed):
    return sm.crosscheck(case.spec, count=case.count, seed=seed)


OPERATIONS = {"diagnose": diagnose, "crosscheck": crosscheck}


# -- correctness -----------------------------------------------------------------


def status_row(report):
    """The seed-independent outcome of one report, as the status table stores it."""
    return {
        "checks": {name: check.status for name, check in report.checks.items()},
        "flags": dict(report.flags),
        "main1_flag_equivalence": report.main1_flag_equivalence,
    }


def diagnose_problems(case, outcome, table_row):
    """Reasons the diagnose outcome is wrong; empty when it is right."""
    report, _text = outcome
    problems = []
    if report.exit_code() != 0:
        problems.append(f"exit code {report.exit_code()}")
    if report.num_points != case.num_points:
        problems.append(f"num_points {report.num_points} != pinned {case.num_points}")
    for key, want in case.expected.items():
        if isinstance(want, bool) and report.flags.get(key) is not want:
            problems.append(f"flag {key} is {report.flags.get(key)}, catalog expects {want}")
    lam = case.expected.get("constant_curvature")
    if isinstance(lam, float):
        cc = report.constant_curvature
        if not cc["is_constant"] or not abs(cc["lambda"] - lam) <= LAMBDA_TOLERANCE:
            problems.append(f"constant curvature {cc['lambda']!r}, catalog expects {lam!r}")
    if table_row is None:
        problems.append("case missing from the status table")
    else:
        problems.extend(_table_mismatches(status_row(report), table_row))
    return problems


def _table_mismatches(row, table_row):
    out = []
    for group in ("checks", "flags"):
        for name, want in table_row[group].items():
            got = row[group].get(name, "<missing>")
            if got != want:
                out.append(f"{group[:-1]} {name} is {got!r}, status table has {want!r}")
    if row["main1_flag_equivalence"] != table_row["main1_flag_equivalence"]:
        out.append(
            f"main1_flag_equivalence is {row['main1_flag_equivalence']!r}, "
            f"status table has {table_row['main1_flag_equivalence']!r}"
        )
    return out


def crosscheck_problems(case, report, table_row):
    """Reasons the crosscheck outcome is wrong; empty when it is right."""
    problems = []
    missing = [q for q in CROSSCHECK_QUANTITIES if q not in report.deviations]
    if missing:
        problems.append(f"crosscheck lacks {', '.join(missing)}")
    if not all(math.isfinite(v) for v in report.deviations.values()):
        problems.append("non-finite crosscheck deviation")
    if not report.passed:
        problems.append(f"crosscheck failed: max deviation {report.max_deviation!r}")
    return problems


PROBLEMS = {"diagnose": diagnose_problems, "crosscheck": crosscheck_problems}
