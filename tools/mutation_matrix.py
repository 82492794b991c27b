"""Which checks, crosscheck deviations and tier-1 tests each of a fixed list of
one-line source mutations moves.

    python tools/mutation_matrix.py              # every mutation
    python tools/mutation_matrix.py LABEL ...    # only the named ones

Each mutation runs in its own temporary full copy of the checkout, with the
mutation applied to the copy's source: ``perfbench/tests/conftest.py`` puts
its own checkout's ``src`` first on ``sys.path``, so pointing ``PYTHONPATH`` at
a mutated ``src`` alone would leave the benchmark self-tests on the unmutated
package.  In the copy, a fresh process runs the diagnose and the crosscheck of
every builtin, both random negative controls, ``NON_EINSTEIN_M3`` and
``DIAGONAL_NON_EINSTEIN_M3`` at seed 1, and then the tier-1 tests.  Against the
same runs on an unmutated copy, each mutation gets one row of a markdown table:

* the diagnose checks whose status changes, and the flags that change
  (``main1_flag_equivalence`` and ``is_constant`` among them), each with the
  number of cases where it does;
* the crosscheck deviations above their threshold, with the number of cases;
* the tier-1 tests that fail, by test function with the number of its
  failing parameter sets; more than five functions are listed below the table.

After the table come the diagnose checks that no mutation run turns to ``fail``
in any case: over the whole list, the checks that no mutation can catch.

A case that raises is listed with its exception type.  The script writes
nothing in the checkout, and prints its wall time last.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, label): each old text occurs exactly once in its file
MUTATIONS = [
    ("src/statmanifold/geometry.py",
     "return dsum + square - np.swapaxes(square, 2, 3)",
     "return dsum + square + np.swapaxes(square, 2, 3)",
     "curvature: Gamma.Gamma i<->j transpose added, not subtracted"),
    ("src/statmanifold/geometry.py",
     'np.einsum("paaxy->pxy", riemann)',
     'np.einsum("paaxy->pyx", riemann)',
     "ricci: transposed"),
    ("src/statmanifold/geometry.py",
     "(self.ginv @ (self.ricci @ vector[..., None]))",
     "(self.ricci @ (self.ginv @ vector[..., None]))",
     "ricci_raised: Ric g^-1 V for g^-1 Ric V"),
    ("src/statmanifold/geometry.py",
     "(self.riemann @ self.ginv[:, None, :, :, None]).sum(axis=2)",
     "(self.riemann @ self.ginv[:, None, :, :, None]).sum(axis=3)",
     "curvature_trace: summed over the wrong slot"),
    ("src/statmanifold/geometry.py",
     'for t in ("jli", "ilj", "ijl")',
     'for t in ("jil", "ilj", "ijl")',
     "first-kind bracket: d_l g_ji for d_i g_jl"),
    ("src/statmanifold/geometry.py",
     "            out.coeff -= product\n",
     "            out.coeff += product\n",
     "covariant derivative: covariant slot with +Gamma"),
    ("src/statmanifold/geometry.py",
     "            - s @ (source_coeff.reshape(n, m, m * m) @ ginv)\n",
     "",
     "connection_laplacian: source-connection term dropped"),
    ("src/statmanifold/geometry.py",
     "series[..., 0] = np.eye(m)",
     "series[..., 0] = 2 * np.eye(m)",
     "jet_matrix_inverse: value of g^-1 doubled"),
    ("src/statmanifold/geometry.py",
     "hess = f_jet.hessian().reshape(n, -1) - gamma_grad",
     "hess = f_jet.hessian().reshape(n, -1) + gamma_grad",
     "laplacian_scalar: Gamma term added"),
    ("src/statmanifold/geometry.py",
     '        require_positive_definite(self.g, points, "sample")\n',
     "",
     "GeometryFrame: positive-definite gate removed"),
    ("src/statmanifold/manifold.py",
     "coefficients[i, [position[key] for key in form]] = list(form.values())",
     "coefficients[i, [position[key] for key in form]] = "
     "[*list(form.values())[:-1], -list(form.values())[-1]] if len(form) > 1 else list(form.values())",
     "atoms: last coefficient of each source of two or more atoms negated"),
    ("src/statmanifold/manifold.py",
     "for i, form in enumerate(forms, 1):",
     "for i, form in zip([2, 1, *range(3, len(forms) + 1)] if len(forms) > 1 else [1], forms):",
     "atoms: coefficient rows of the first two sources swapped"),
    ("src/statmanifold/statistical.py",
     "nabla_jets, bar_jets = gamma_1 + k_1, gamma_1 - k_1",
     "nabla_jets, bar_jets = gamma_1 - k_1, gamma_1 - k_1",
     "dual connections: K sign flipped in nabla"),
    ("src/statmanifold/statistical.py",
     'self.T_jets = jet_einsum("ij,kij->k"',
     'self.T_jets = jet_einsum("ij,ikj->k"',
     "Tchebychev field: K^i_kj for K^k_ij"),
    ("src/statmanifold/statistical.py",
     ".transpose(0, 3, 4, 1, 2)",
     ".transpose(0, 3, 4, 2, 1)",
     "interchange tensor: last two slots swapped"),
    ("src/statmanifold/statistical.py",
     "g, ginv, riem, k = geom.g, geom.ginv, geom.riemann, self.K",
     "g, ginv, riem, k = geom.g, geom.ginv, self.R, self.K",
     "laplacian_cubic_terms: statistical R for R^g in F"),
    ("src/statmanifold/statistical.py",
     'np.einsum("pkd,pd->pk", self.tch, self.T)',
     'np.einsum("pdk,pd->pk", self.tch, self.T)',
     "(T2): nabla^g T transposed"),
    ("src/statmanifold/pipeline.py",
     '"parallel_tchebychev_criterion": _peak(tch),',
     '"parallel_tchebychev_criterion": _peak(stat.T_jets.gradient()),',
     "parallel_tchebychev_criterion: dT read for nabla^g T"),
    ("src/statmanifold/pipeline.py",
     "ginv_t = _stencil_inverse(values[:, : 2 * m + 1]",
     "ginv_t = _stencil_inverse(values[:, 1 : 2 * m + 2]",
     "fd route: T's metric values read one stencil slot late"),
    ("src/statmanifold/pipeline.py",
     "work[k, row] /= pivot",
     "work[k, row] /= 1.0",
     "fd route: the stencil inverse leaves the pivot row unnormalised"),
    ("src/statmanifold/pipeline.py",
     "dginv @ first.reshape(-1, 1, m, m * m)",
     "np.swapaxes(dginv, 1, 2) @ first.reshape(-1, 1, m, m * m)",
     "fd route: d g^-1 slots d and k transposed in the d Gamma product"),
    ("src/statmanifold/maps.py",
     "+ div_trace_k[:, None] * self.tau\n",
     "- div_trace_k[:, None] * self.tau\n",
     "tau2: div term sign flipped"),
    ("src/statmanifold/maps.py",
     "-geom.connection_laplacian(stat.T_jets, stat.bar)",
     "-geom.connection_laplacian(stat.T_jets, stat.nabla)",
     "tau2 proof route: nabla for nabla-bar"),
    ("src/statmanifold/maps.py",
     "for d in (gamma + k, gamma - k)",
     "for d in (gamma + k, gamma + k)",
     "tensions: both from Gamma - (Gamma + K)"),
    ("src/statmanifold/maps.py",
     "for d in (gamma + k, gamma - k)",
     "for d in (gamma - k, gamma + k)",
     "tensions: tau and tau-bar swapped"),
    ("src/statmanifold/maps.py",
     "self.tau_jets, self.taubar_jets = -stat.T_jets,",
     "self.tau_jets, self.taubar_jets = stat.T_jets,",
     "tau jets from +T"),
    ("src/statmanifold/jets.py",
     "return x.reshape(lead + size[::-1]).swapaxes(-1, -2)",
     "return x.reshape(lead + size)",
     "jet_einsum: transposed operand view read without its swapaxes"),
    ("src/statmanifold/jets.py",
     "    live[~live] = [x[i].any() for i in np.flatnonzero(~live)]\n",
     "",
     "jet_einsum: a slab zero at the first point skipped without the full scan"),
    ("src/statmanifold/jets.py",
     "keep = live[0][ti] & live[1][tj]",
     "keep = live[0][ti] & live[0][tj]",
     "jet_einsum: the first operand's zero slabs read for the second's"),
    ("src/statmanifold/jets.py",
     "factor[d, q] = e[d] + 1",
     "factor[d, q] = 1 + (e[d] > 0)",
     "partial_table: factor 2 for 3 on squared exponents"),
    ("src/statmanifold/jets.py",
     "return jet_partial(jet_partial(self)).value",
     "return 0.5 * jet_partial(jet_partial(self)).value",
     "Jet.hessian: halved"),
]


def cases(sm, report_digest):
    """(label, spec) of every builtin, both negative controls and both non-Einstein charts."""
    for name in sm.builtin_names():
        yield name, sm.get_builtin(name).spec
    for m in (2, 3):
        yield f"negative-control-m{m}", sm.random_polynomial_cubic(m, 2, report_digest.SEED).spec
    yield "non-einstein-m3", sm.ManifoldSpec.from_dict(report_digest.NON_EINSTEIN_M3)
    yield "diagonal-non-einstein-m3", sm.ManifoldSpec.from_dict(
        report_digest.DIAGONAL_NON_EINSTEIN_M3
    )


def outcomes():
    """{label: {"checks": statuses, "flags": flags, "crosscheck": names above the
    threshold}} of every case, from the ``statmanifold`` on ``sys.path``; a call that
    raises is recorded as its exception type."""
    import numpy as np
    import report_digest
    import statmanifold as sm

    results = {}
    for label, spec in cases(sm, report_digest):
        result = results[label] = {"checks": {}, "flags": {}}
        try:
            with np.errstate(all="ignore"):
                report = sm.run_diagnostics(spec, seed=report_digest.SEED)
            result["checks"] = {name: check.status for name, check in report.checks.items()}
            result["flags"] = {
                **report.flags,
                "main1_flag_equivalence": report.main1_flag_equivalence,
                "is_constant": report.constant_curvature["is_constant"],
            }
        except Exception as err:  # noqa: BLE001 - a mutation may break anything
            result["checks"] = {f"raises {type(err).__name__}": True}
        try:
            with np.errstate(all="ignore"):
                check = sm.crosscheck(spec, seed=report_digest.SEED)
            result["crosscheck"] = sorted(
                name for name, dev in check.deviations.items() if not dev <= check.threshold
            )
        except Exception as err:  # noqa: BLE001
            result["crosscheck"] = [f"raises {type(err).__name__}"]
    return results


def run_copy(mutation=None):
    """(case outcomes, failing tier-1 tests) of a temporary copy of the checkout,
    with ``mutation`` applied to it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        if mutation:
            path, old, new, _ = mutation
            source = (copy / path).read_text()
            if source.count(old) != 1:
                raise SystemExit(f"{path}: the old text of {mutation[3]!r} is not there once")
            (copy / path).write_text(source.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        code = "import json, mutation_matrix; print(json.dumps(mutation_matrix.outcomes()))"
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=copy / "tools", env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        # the guard test of this list fails by design once a mutation is applied
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutation_matrix.py"],
            cwd=copy, env=env, capture_output=True, text=True,
        ).stdout
    # "FAILED path::test[param] - message": the test name, its parameters dropped
    failing = Counter(
        line.split(" ", 1)[1].split(" - ")[0].split("::")[-1].split("[")[0]
        for line in tests.splitlines() if line.startswith(("FAILED ", "ERROR "))
    )
    return json.loads(out), failing


def changes(base, mutated):
    """Counters, over the cases, of the checks and the flags whose value changes and of
    the crosscheck deviations above the threshold."""
    counts = {"checks": Counter(), "flags": Counter(), "crosscheck": Counter()}
    for label, result in mutated.items():
        for part in ("checks", "flags"):
            before = base[label][part]
            counts[part].update(k for k, v in result[part].items() if before.get(k) != v)
        counts["crosscheck"].update(result["crosscheck"])
    return counts


def listing(counts):
    return ", ".join(f"{name} ({n})" for name, n in sorted(counts.items())) or "-"


def main(argv):
    start = time.perf_counter()
    chosen = [m for m in MUTATIONS if not argv or m[3] in argv]
    base, base_failing = run_copy()
    unmutated = changes(base, base)["crosscheck"]
    if base_failing or unmutated:
        print(f"unmutated: failing tests {listing(base_failing)}, crosscheck {listing(unmutated)}")
    print("| mutation | diagnose checks that change | flags that change "
          "| crosscheck above threshold | tier-1 failures |")
    print("| --- | --- | --- | --- | --- |")
    failures = {}
    caught = set()  # checks some mutation turns to fail
    for mutation in chosen:
        mutated, failing = run_copy(mutation)
        moved = changes(base, mutated)
        caught.update(
            name for label, result in mutated.items() for name, status in result["checks"].items()
            if status == "fail" and base[label]["checks"].get(name) != "fail"
        )
        failures[mutation[3]] = failing
        # a long list of failing tests is given below the table
        tests = listing(failing) if len(failing) <= 5 else f"{len(failing)} test functions"
        print(f"| {mutation[3]} | {listing(moved['checks'])} | {listing(moved['flags'])} "
              f"| {listing(moved['crosscheck'])} | {sum(failing.values())}: {tests} |", flush=True)
    print()
    for label, failing in failures.items():
        if len(failing) > 5:
            print(f"{label}: {listing(failing)}")
    checks = {name for result in base.values() for name in result["checks"]}
    print(f"checks no mutation turns to fail: {', '.join(sorted(checks - caught)) or '-'}")
    print(f"wall time {time.perf_counter() - start:.0f} s for {len(chosen)} mutations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
