"""Riemannian kernel: Christoffel symbols, curvature, Laplacians, oracles."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import closed_forms
import numpy as np
import pytest

from statmanifold import (
    GeometryFrame,
    ManifoldSpec,
    MetricNotPositiveDefinite,
    SampleSpec,
    centroaffine_power_surface,
    eval_jet,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    hyperbolic_ball,
    parse_expression,
    random_polynomial_cubic,
    run_diagnostics,
    sphere_stereographic,
)
from statmanifold import geometry, maps, pipeline, statistical
from statmanifold.geometry import UP, covariant_derivative_jets, jet_matrix_inverse
from statmanifold.jets import Jet, jet_einsum, jet_partial, jet_space
from statmanifold.pipeline import crosscheck


def _load_report_digest():
    """``tools/report_digest.py``, loaded by path, since ``tools`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
    module_spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


report_digest = _load_report_digest()


def coordinate_variables(points, order):
    """Variable jets of the chart coordinates at ``points`` (N, m)."""
    space = jet_space(points.shape[-1], order)
    return [Jet.variable(space, v, points[:, v]) for v in range(space.dim)]


def stack(jets):
    """Vector field whose components are the given scalar jets (one tensor axis last)."""
    return Jet(jets[0].space, np.stack([jet.coeff for jet in jets], axis=-2))


def build_geometry(instance, points):
    compiled = instance.spec.compile()
    return GeometryFrame(points, compiled.metric_jets(np.asarray(points, float), 3))


def test_flat_metric_has_no_curvature():
    inst = flat_constant_cubic(3, {})
    geom, _, _ = evaluate_spec(inst.spec, count=20)
    assert np.max(np.abs(geom.gamma)) == 0.0
    assert np.max(np.abs(geom.riemann)) == 0.0
    assert np.max(np.abs(geom.ricci)) < 1e-15
    np.testing.assert_allclose(geom.scalar, 0.0, atol=1e-15)


def test_centroaffine_christoffel_closed_form():
    inst = centroaffine_power_surface(1.0, 2.0)
    geom = build_geometry(inst, [[2.0, 3.0]])
    gamma = geom.gamma[0]
    assert gamma[0, 0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert gamma[1, 1, 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[0, 0, 0] = mask[1, 1, 1] = False
    assert np.max(np.abs(gamma[mask])) < 1e-12


def test_centroaffine_christoffel_everywhere():
    inst = centroaffine_power_surface(1.5, 0.7)
    geom, _, _ = evaluate_spec(inst.spec)
    np.testing.assert_allclose(
        geom.gamma, closed_forms.centroaffine(inst.spec)["christoffel"](geom.points), atol=1e-11
    )


def test_sphere_chart_origin_is_critical():
    inst = sphere_stereographic(2, 1.0)
    geom = build_geometry(inst, [[0.0, 0.0]])
    assert np.max(np.abs(geom.gamma)) < 1e-14


@pytest.mark.parametrize("dim,c", [(2, 1.0), (3, 1.0), (2, 4.0), (3, -1.0), (2, -2.0)])
def test_constant_curvature_spaces(dim, c):
    inst = sphere_stereographic(dim, c) if c > 0 else hyperbolic_ball(dim, c)
    geom, _, _ = evaluate_spec(inst.spec, count=50)
    expected_ricci = c * (dim - 1) * geom.g
    assert np.max(np.abs(geom.ricci - expected_ricci)) < 1e-8
    np.testing.assert_allclose(geom.scalar, c * dim * (dim - 1), atol=1e-8)


def test_first_bianchi_and_metricity():
    for inst in (sphere_stereographic(3, 2.0), centroaffine_power_surface(2.0, 1.0)):
        geom, stat, ident = evaluate_spec(inst.spec, count=30)
        identities, _ = pipeline.residual_table(geom, stat, ident)
        # the entry takes the larger of the Levi-Civita and the statistical R's residual
        assert np.max(identities["first_bianchi"]) < 1e-10
        assert np.max(identities["metric_compatibility"]) < 1e-10
        assert np.max(np.abs(geom.gamma - np.einsum("pkij->pkji", geom.gamma))) == 0.0


def non_einstein_m3_spec():
    """A curved 3-d metric that is not Einstein, with a polynomial cubic form: the
    ``non-einstein-m3`` case of the report digest, built from the digest's literal."""
    return ManifoldSpec.from_dict(report_digest.NON_EINSTEIN_M3)


def test_ricci_is_the_orthonormal_frame_trace():
    # oracle: Ric(X, Y) = sum_i g(R(e_i, X)Y, e_i) over a g-orthonormal frame,
    # on a chart whose metric is not Einstein and whose statistical Ric is
    # not symmetric, so a transposed trace shows
    geom, stat, _ = evaluate_spec(non_einstein_m3_spec())
    # columns of the inverse transpose of the Cholesky factor: E^T g E = I
    frame = np.swapaxes(np.linalg.inv(np.linalg.cholesky(geom.g)), -1, -2)
    identity = np.einsum("pai,pab,pbj->pij", frame, geom.g, frame)
    np.testing.assert_allclose(identity, np.broadcast_to(np.eye(3), identity.shape), atol=1e-14)

    def frame_trace(riemann):
        return np.einsum("pai,pci,plc,plaxy->pxy", frame, frame, geom.g, riemann)

    traceless = geom.ricci - geom.scalar[:, None, None] / 3.0 * geom.g
    assert np.max(np.abs(traceless)) > 1e-2
    assert np.max(np.abs(stat.ric - np.swapaxes(stat.ric, 1, 2))) > 1e-2
    np.testing.assert_allclose(geom.ricci, frame_trace(geom.riemann), rtol=0, atol=1e-13)
    np.testing.assert_allclose(stat.ric, frame_trace(stat.R), rtol=0, atol=1e-13)


def test_ricci_raised_is_the_solved_ricci_form():
    # oracle: sum_i Ric(e_i, V) e_i is the vector X with g(X, .) = Ric(V, .), solved
    # from g rather than contracted with g^{-1}; on an Einstein metric every order of
    # the contraction agrees, on this chart the transposed one misses by about 5e-3
    geom, stat, _ = evaluate_spec(non_einstein_m3_spec())
    expected = np.linalg.solve(geom.g, np.einsum("pab,pb->pa", geom.ricci, stat.T)[..., None])
    assert np.max(np.abs(expected)) > 0.1
    np.testing.assert_allclose(geom.ricci_raised(stat.T), expected[..., 0], rtol=0, atol=1e-13)


def test_report_on_the_non_einstein_chart():
    # the whole battery where index order matters: every identity passes, the
    # conditions fail, and the crosscheck agrees with the jet route
    spec = non_einstein_m3_spec()
    report = run_diagnostics(spec)
    assert report.exit_code() == 0
    # the 18 identities and the 3 agreement checks pass; no hypothesis of a conditional holds
    conditional = (
        "parallel_tchebychev_criterion", "scalar_curvature_relation",
        "laplacian_cubic_form", "geodesic_potential",
    )
    expected = dict.fromkeys(report.checks, "pass") | dict.fromkeys(conditional, "not-applicable")
    assert len(expected) == 25
    assert {name: check.status for name, check in report.checks.items()} == expected
    assert report.flags == {
        "codazzi": True, "ric_symmetric": False, "conjugate_symmetric": False,
        "equiaffine": False, "semi_equiaffine": False, "constant_curvature": False,
    }
    assert report.main1_flag_equivalence == "consistent"
    fd = crosscheck(spec)
    assert fd.passed and fd.max_deviation < 1e-6


def test_agreement_checks_report_the_point_that_drove_them():
    # each flag-agreement check reduces the per-point max of its two residuals, so its
    # argmax point is where that max peaks, not the first sample point
    spec = non_einstein_m3_spec()
    report = run_diagnostics(spec)
    points = spec.sample_points()
    _, conditions = pipeline.residual_table(*evaluate_spec(spec))
    for name, pair in (
        ("ricci_symmetry_equivalence", ("ric_symmetric", "tchebychev_closed")),
        ("equiaffine_volume_form_equivalence", ("equiaffine", "volume_form_parallel")),
    ):
        driver = np.maximum(*(conditions[condition] for condition in pair))
        assert np.argmax(driver) != 0, name
        assert report.checks[name].argmax_point == points[np.argmax(driver)].tolist(), name
        assert report.checks[name].max_residual == float(np.max(driver)), name


def test_geometry_frame_rejects_indefinite_metric():
    space = jet_space(2, 2)
    coeff = np.zeros((1, 2, 2, space.ncoeff))
    coeff[0, :, :, 0] = np.diag([1.0, -1.0])
    with pytest.raises(MetricNotPositiveDefinite):
        GeometryFrame([[0.0, 0.0]], Jet(space, coeff))


def test_covariant_derivative_of_constant_field_flat():
    inst = flat_constant_cubic(2, {})
    geom, _, _ = evaluate_spec(inst.spec, count=5)
    space = jet_space(2, 3)
    v = Jet.constant(space, [1.0, -2.0], (geom.num_points, 2))
    nabla_v = geom.nabla(v, ("up",))
    assert np.max(np.abs(nabla_v.value)) == 0.0


def test_divergence_of_radial_field():
    inst = flat_constant_cubic(3, {})
    geom, _, _ = evaluate_spec(inst.spec, count=10)
    v = stack(coordinate_variables(geom.points, 3))
    np.testing.assert_allclose(geom.divergence(v).value, 3.0, atol=1e-13)


def test_scalar_laplacian_of_linear_function_flat():
    inst = flat_constant_cubic(2, {})
    geom, _, _ = evaluate_spec(inst.spec, count=10)
    coords = coordinate_variables(geom.points, 3)
    f = 2.0 * coords[0] - 7.0 * coords[1] + 3.0
    np.testing.assert_allclose(geom.laplacian_scalar(f), 0.0, atol=1e-13)


@pytest.mark.parametrize("dim,c", [(2, 1.0), (3, 1.0), (2, 4.0)])
def test_sphere_first_eigenfunction(dim, c):
    inst = sphere_stereographic(dim, c)
    geom, _, _ = evaluate_spec(inst.spec)
    forms = closed_forms.sphere(inst.spec)
    ast = parse_expression(forms["eigenfunction"], inst.spec.coordinates, inst.spec.parameters)
    f = eval_jet(ast, geom.points, 3)
    lap = geom.laplacian_scalar(f)
    target = forms["eigenvalue"] * f.value
    assert np.max(np.abs(lap - target) / np.abs(target)) < 1e-6


def test_divergence_identity_for_gradient_fields():
    # X div(V) = g(Delta_g V, X) - Ric(V, X) for V = grad f
    for inst in (sphere_stereographic(2, 1.0), hyperbolic_ball(2, -1.0),
                 centroaffine_power_surface(1.0, 2.0)):
        identities, _ = pipeline.residual_table(*evaluate_spec(inst.spec, count=40))
        assert np.max(identities["divergence_identity_gradient_field"]) < 1e-8


def covariant_derivative_components(values, jacobian, coeff, variance):
    """Numeric covariant derivative from component values and partials: the
    oracle of the jet route.

    ``values``: (N, m^r), ``jacobian``: (N, m^r, m) with the partial axis
    last, ``coeff``: (N, m, m, m).  Returns (N, m^r, m), direction last.
    """
    out = jacobian.copy()
    for s, flag in enumerate(variance):
        src = np.moveaxis(values, 1 + s, 1)  # slot s first among tensor axes
        if flag == UP:
            corr = np.einsum("pkda,pa...->pk...d", coeff, src)
        else:
            corr = -np.einsum("padi,pa...->pi...d", coeff, src)
        out += np.moveaxis(corr, 1, 1 + s)
    return out


def test_numeric_covariant_derivative_matches_jet_route():
    inst = sphere_stereographic(2, 1.0)
    geom, _, _ = evaluate_spec(inst.spec, count=20)
    coords = coordinate_variables(geom.points, 3)
    v = stack([coords[0] * coords[1], (coords[0] + coords[1]).sin()])
    jet_route = geom.nabla(v, ("up",)).value
    numeric = covariant_derivative_components(v.value, v.gradient(), geom.gamma, ("up",))
    np.testing.assert_allclose(numeric, jet_route, atol=1e-12)
    # covector route as well
    w = stack([coords[1] * 2.0, coords[0] * coords[0]])
    jet_route = geom.nabla(w, ("down",)).value
    numeric = covariant_derivative_components(w.value, w.gradient(), geom.gamma, ("down",))
    np.testing.assert_allclose(numeric, jet_route, atol=1e-12)
    # mixed rank-3 route: K of a non-parallel polynomial cubic form on a curved chart
    curved = get_builtin("sphere-m3").spec.to_dict()
    curved["cubic"] = random_polynomial_cubic(3, 2, seed=1).spec.to_dict()["cubic"]
    geom, stat, _ = evaluate_spec(ManifoldSpec.from_dict(curved), count=20)
    variance = ("up", "down", "down")
    k_values, k_partials = stat.K_jets.value, stat.K_jets.gradient()
    jet_route = geom.nabla(stat.K_jets, variance).value
    numeric = covariant_derivative_components(k_values, k_partials, geom.gamma, variance)
    assert np.max(np.abs(numeric - k_partials)) > 0.1  # the connection terms matter
    np.testing.assert_allclose(numeric, jet_route, atol=1e-12)


def skewed_metric_spec():
    """A curved 2-d metric with an off-diagonal entry."""
    return ManifoldSpec(
        name="skewed-metric",
        dim=2,
        coordinates=["x1", "x2"],
        metric={"11": "1 + x1*x1", "12": "0.3*x1*x2", "22": "2 + sin(x2)"},
        cubic={},
        sample=SampleSpec(box={"x1": (-1.0, 1.0), "x2": (-1.0, 1.0)}),
    )


def skewed_metric_with_polynomial_cubic():
    spec = skewed_metric_spec()
    spec.cubic = random_polynomial_cubic(2, 2, seed=1).spec.cubic
    return spec


@pytest.mark.parametrize(
    "spec", [skewed_metric_with_polynomial_cubic(), non_einstein_m3_spec()], ids=["m2", "m3"]
)
def test_gamma_and_kk_jets_match_the_formulas_they_replace(spec):
    # reference: Gamma as three raised first-kind terms, and g(K, K) as
    # -1/2 C_kij g^ia g^jb K^k_ab; every jet coefficient up to order 2 agrees
    # to rounding on a curved chart with a non-constant C
    geom, stat, _ = evaluate_spec(spec, count=20)
    ginv, dg = geom.ginv_jets, jet_partial(geom.g_jets)
    gamma = 0.5 * (
        jet_einsum("kl,jli->kij", ginv, dg)
        + jet_einsum("kl,ilj->kij", ginv, dg)
        - jet_einsum("kl,ijl->kij", ginv, dg)
    )
    k_up = jet_einsum("jb,kib->kij", ginv, jet_einsum("ia,kaj->kij", ginv, stat.K_jets))
    kk = jet_einsum("kij,kij->", -0.5 * stat.C_jets, k_up)
    assert np.max(np.abs(stat.C_jets.gradient())) > 0.1
    for new, old in ((geom.gamma_jets, gamma), (stat.kk_jets, kk)):
        assert new.order == old.order == 2
        assert np.max(np.abs(old.truncated(1).coeff[..., 1:])) > 0.1  # not constant
        scale = np.max(np.abs(old.coeff))
        np.testing.assert_allclose(new.coeff, old.coeff, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("spec", [skewed_metric_spec(), get_builtin("sphere-m3").spec])
def test_metric_is_levi_civita_parallel_at_jet_level(spec):
    # nabla^g g = 0 as a function, so every Taylor coefficient of the jet
    # route vanishes; the numeric route only sees the values
    geom, _, _ = evaluate_spec(spec, count=20)
    nabla_g = geom.nabla(geom.g_jets, ("down", "down"))
    assert np.max(np.abs(geom.gamma)) > 0.1
    assert nabla_g.order == 2
    assert np.max(np.abs(nabla_g.truncated(1).coeff)) < 1e-12
    assert np.max(np.abs(nabla_g.coeff)) < 1e-12


def test_jet_order_budget():
    inst = centroaffine_power_surface(2.0, 3.0)
    geom, stat, _ = evaluate_spec(inst.spec, count=20)
    assert geom.g_jets.order == 3
    for name in ("ginv_jets", "gamma_jets"):
        assert getattr(geom, name).order == 2, name
    for name in ("C_jets", "K_jets", "T_jets"):
        assert getattr(stat, name).order == 2, name
    # the order-2 inverse is the order-<=2 part of the order-3 inverse
    full = jet_matrix_inverse(geom.g_jets, 3)
    assert full.order == 3
    np.testing.assert_allclose(
        geom.ginv_jets.coeff, full.truncated(2).coeff, rtol=0, atol=1e-12
    )


def test_jet_matrix_inverse_consistency():
    inst = centroaffine_power_surface(2.0, 3.0)
    g_jets = inst.spec.compile().metric_jets(inst.spec.sample_points(count=20), 3)
    product = jet_einsum("il,lj->ij", jet_matrix_inverse(g_jets, 3), g_jets)
    assert product.order == 3
    values = product.value
    np.testing.assert_allclose(values, np.broadcast_to(np.eye(2), values.shape), atol=1e-12)
    # every derivative coefficient of g^{-1} g - I vanishes as well
    coeff = product.coeff.copy()
    coeff[..., 0] -= np.eye(2)
    assert np.max(np.abs(coeff)) < 1e-12


def test_fd_crosscheck_christoffel_curvature_laplacian():
    report = crosscheck(sphere_stereographic(2, 1.0).spec)
    assert report.deviations["christoffel"] < 1e-4
    assert report.deviations["curvature"] < 1e-4
    assert report.deviations["scalar_laplacian"] < 1e-4
    assert report.passed


def test_fd_crosscheck_detects_coarse_step():
    report = crosscheck(centroaffine_power_surface(1.0, 2.0).spec, h=0.3)
    assert not report.passed


def test_each_covariant_derivative_is_computed_once_per_frame(monkeypatch):
    callers = Counter()

    def counted(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return covariant_derivative_jets(*args)

    monkeypatch.setattr(geometry, "covariant_derivative_jets", counted)
    run_diagnostics(get_builtin("flat-cubic").spec, count=10)  # one block
    # 14 nabla calls on T, K, tr K, tau, tau-bar and grad f: one computation each,
    # plus the differential of the probe in gradient_field
    assert callers == {"nabla": 6, "gradient_field": 1}


def test_jet_contractions_per_block(monkeypatch):
    # one raise for Gamma, two contractions for g(K, K) and no unused power of
    # X in g^{-1}: 19 per diagnose block and 4 per crosscheck block
    calls = []

    def counted(*args):
        calls.append(args[0])
        return jet_einsum(*args)

    for module in (geometry, statistical, maps):
        monkeypatch.setattr(module, "jet_einsum", counted)
    spec = get_builtin("flat-cubic").spec
    run_diagnostics(spec, count=10)  # one block
    assert len(calls) == 19
    calls.clear()
    crosscheck(spec, count=10)
    assert len(calls) == 4


def test_repeated_nabla_returns_the_same_read_only_jet():
    geom, stat, _ = evaluate_spec(get_builtin("sphere-m3").spec, count=10)
    first = geom.nabla(stat.T_jets, ["up"])
    assert first is stat.tch_jets
    assert geom.nabla(stat.T_jets, ("up",)) is first
    fresh = covariant_derivative_jets(stat.T_jets, geom.gamma_jets, ("up",))
    assert np.array_equal(first.coeff, fresh.coeff)
    with pytest.raises(ValueError):
        first.coeff[..., 0] = 0.0
