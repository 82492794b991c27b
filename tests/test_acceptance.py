"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import time

import closed_forms
import numpy as np
import pytest

from statmanifold import (
    builtin_names,
    centroaffine_power_surface,
    eval_jet,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    parse_expression,
    random_polynomial_cubic,
    random_symmetric_constants,
    run_diagnostics,
    sphere_stereographic,
)
from statmanifold.pipeline import (
    band_agreement,
    crosscheck,
    fit_constant_curvature,
    residual_table,
    scalar_relation_gap,
)

IDENTITY_CHECKS = (
    "codazzi",
    "cubic_form_is_nabla_g",
    "conjugate_duality",
    "levi_civita_mean",
    "curvature_conjugation",
    "curvature_interchange_sum",
    "first_bianchi",
    "metric_compatibility",
    "divergence_identity_gradient_field",
    "tension_is_minus_tchebychev",
    "conjugate_tension_is_tchebychev",
    "harmonic_tension_vanishes",
    "difftension",
    "bitension_path_independence",
    "main1_identity_a",
    "main1_identity_b",
    "tchebychev_dual_via_volume_form",
)


def _suite_1():
    return [centroaffine_power_surface(1.0, 2.0)]


def _suite_2():
    return [random_polynomial_cubic(2, 2, seed=seed) for seed in range(20)]


def _suite_4_positive():
    instances = [
        flat_constant_cubic(m, random_symmetric_constants(m, seed=seed))
        for m in (2, 3)
        for seed in (11, 12, 13)
    ]
    instances += [centroaffine_power_surface(*a) for a in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0))]
    return instances


def _suite_5():
    return [centroaffine_power_surface(*a) for a in ((1.0, 2.0), (2.0, 3.0), (1.0, 1.0))]


def _suite_6():
    return [sphere_stereographic(m, c) for m, c in ((2, 1.0), (3, 1.0), (2, 4.0))]


def _report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}  {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_centroaffine_golden():
    start = time.perf_counter()
    inst = _suite_1()[0]
    geom, stat, _ = evaluate_spec(inst.spec)
    pts, forms = geom.points, closed_forms.centroaffine(inst.spec)
    g_res = np.max(np.abs(geom.g - forms["metric"](pts)))
    gamma_res = np.max(np.abs(geom.gamma - forms["christoffel"](pts)))
    eta_res = np.max(np.abs(stat.eta - forms["eta"](pts)))
    tch_res = np.max(np.abs(stat.tch))
    elapsed = time.perf_counter() - start
    ok = g_res <= 1e-10 and gamma_res <= 1e-10 and eta_res <= 1e-10 and tch_res <= 1e-8
    ok = ok and elapsed < 1.0
    _report(
        "1 (centroaffine golden reproduction)",
        ok,
        f"g {g_res:.2e}, Gamma {gamma_res:.2e}, eta {eta_res:.2e}, "
        f"nabla T {tch_res:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_main1_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    for inst in _suite_2():
        identities, conditions = residual_table(*evaluate_spec(inst.spec))
        for name in ("main1_identity_a", "main1_identity_b"):
            worst = max(worst, float(np.max(identities[name])))
        t_res, b_res = (
            float(np.max(conditions[name])) for name in ("semi_equiaffine", "bitension")
        )
        if band_agreement(t_res, b_res, 1e-8) != "consistent":
            _report("2 (main1 identity suite)", False, f"flag mismatch on {inst.spec.name}")
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report("2 (main1 identity suite)", ok, f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_difftension():
    worst = 0.0
    for inst in _suite_1() + _suite_2():
        identities, _ = residual_table(*evaluate_spec(inst.spec))
        worst = max(worst, float(np.max(identities["difftension"])))
    _report("3 (difftension)", worst <= 1e-12, f"max residual {worst:.2e}")


def test_criterion_4_semi_equiaffine_flags():
    ok = True
    detail = []
    for inst in _suite_4_positive():
        report = run_diagnostics(inst.spec)
        if not report.flags["semi_equiaffine"]:
            ok = False
            detail.append(f"{inst.spec.name} unexpectedly false")
    negative = run_diagnostics(random_polynomial_cubic(2, 2, seed=100).spec)
    if negative.flags["semi_equiaffine"]:
        ok = False
        detail.append("negative control unexpectedly true")
    _report("4 (semi-equiaffine positives + negative control)", ok, "; ".join(detail) or "all flags as expected")


def test_criterion_5_constant_curvature_and_scalar_relation():
    ok = True
    detail = []
    for inst in _suite_5():
        geom, stat, ident = evaluate_spec(inst.spec)
        lam, residual = fit_constant_curvature([(stat.R, geom.g)])
        fit = float(np.max(residual))
        scalar_sum = residual_table(geom, stat, ident)[1]["scalar_sum"]
        rel = float(np.max(scalar_relation_gap(lam, inst.spec.dim, scalar_sum)))
        if not (abs(abs(lam) - 1.0) <= 1e-8 and fit <= 1e-6 and rel <= 1e-6):
            ok = False
        detail.append(f"{inst.spec.name}: lambda {lam:+.6f}, fit {fit:.1e}, relation {rel:.1e}")
    _report("5 (constant curvature +-1, scalar relation)", ok, "; ".join(detail))


def test_criterion_6_sphere_spectrum():
    ok = True
    detail = []
    for inst in _suite_6():
        geom, _, _ = evaluate_spec(inst.spec)
        forms = closed_forms.sphere(inst.spec)
        ast = parse_expression(forms["eigenfunction"], inst.spec.coordinates, inst.spec.parameters)
        f = eval_jet(ast, geom.points, 3)
        lap = geom.laplacian_scalar(f)
        target = forms["eigenvalue"] * f.value
        rel = float(np.max(np.abs(lap - target) / np.abs(target)))
        if rel > 1e-6:
            ok = False
        detail.append(f"{inst.spec.name}: rel {rel:.1e}")
    _report("6 (first eigenfunction spot check)", ok, "; ".join(detail))


def test_criterion_7_laplacian_cubic_identity():
    ok = True
    detail = []
    for a in ((1.0, 2.0), (2.0, 3.0)):
        _, stat, _ = evaluate_spec(centroaffine_power_surface(*a).spec)
        res = float(np.max(stat.laplacian_cubic_terms()["residual"]))
        if res > 1e-6:
            ok = False
        detail.append(f"centroaffine{a}: {res:.1e}")
    _, stat, _ = evaluate_spec(flat_constant_cubic(3, random_symmetric_constants(3, 7)).spec)
    terms = stat.laplacian_cubic_terms()
    structured = max(
        float(np.max(np.abs(terms["laplacian"]))),
        float(np.max(np.abs(terms["curvature_term"]))),
        float(np.max(np.abs(terms["gradient_term"]))),
    )
    if structured > 1e-10:
        ok = False
    detail.append(f"flat terms {structured:.1e}")
    _report("7 (cubic-norm Laplacian identity)", ok, "; ".join(detail))


def test_criterion_8_fd_oracle_independence():
    ok = True
    detail = []
    for name in builtin_names():
        report = crosscheck(get_builtin(name).spec)
        if not report.passed:
            ok = False
        detail.append(f"{name} {report.max_deviation:.1e}")
    _report("8 (fd oracle crosscheck on every builtin)", ok, "; ".join(detail))


def test_criterion_9_identity_battery():
    suites = _suite_1() + _suite_2() + _suite_4_positive() + _suite_5() + _suite_6()
    worst = 0.0
    worst_name = ""
    for inst in suites:
        report = run_diagnostics(inst.spec, tolerance=1e-8)
        for check in IDENTITY_CHECKS:
            result = report.checks[check]
            if result.max_residual > worst:
                worst = result.max_residual
                worst_name = f"{inst.spec.name}:{check}"
            if result.status != "pass":
                _report("9 (identity battery)", False, f"{inst.spec.name}:{check} failed")
    _report("9 (identity battery)", worst <= 1e-8, f"worst {worst:.2e} at {worst_name}")
