"""Riemannian kernel: Christoffel symbols, curvature, Laplacians, oracles."""

import numpy as np
import pytest

from statmanifold import (
    GeometryFrame,
    ManifoldSpec,
    SampleSpec,
    centroaffine_power_surface,
    eval_jet,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    hyperbolic_ball,
    parse_expression,
    random_polynomial_cubic,
    sphere_stereographic,
)
from statmanifold.geometry import jet_matrix_inverse
from statmanifold.jets import (
    Jet,
    coordinate_jets,
    jet_coefficients,
    jet_einsum,
    jet_space,
    jet_tensor,
    jet_values,
)
from statmanifold.pipeline import crosscheck


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
        geom.gamma, inst.oracle["christoffel"](geom.points), atol=1e-11
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
        geom, _, _ = evaluate_spec(inst.spec, count=30)
        assert np.max(geom.first_bianchi_residual()) < 1e-10
        assert np.max(geom.metric_compatibility_residual()) < 1e-10
        assert np.max(np.abs(geom.gamma - np.einsum("pkij->pkji", geom.gamma))) == 0.0


def test_ricci_frame_trace_equals_plain_trace():
    inst = sphere_stereographic(3, 1.5)
    geom, _, _ = evaluate_spec(inst.spec, count=20)
    plain = np.einsum("paaxy->pxy", geom.riemann)
    np.testing.assert_allclose(geom.ricci, plain, atol=1e-12)


def test_covariant_derivative_of_constant_field_flat():
    inst = flat_constant_cubic(2, {})
    geom, _, _ = evaluate_spec(inst.spec, count=5)
    space = jet_space(2, 3)
    v = jet_tensor((2,))
    v[0] = Jet.constant(space, 1.0, (geom.num_points,))
    v[1] = Jet.constant(space, -2.0, (geom.num_points,))
    nabla_v = geom.nabla(v, ("up",))
    assert np.max(np.abs(jet_values(nabla_v))) == 0.0


def test_divergence_of_radial_field():
    inst = flat_constant_cubic(3, {})
    geom, _, _ = evaluate_spec(inst.spec, count=10)
    coords = coordinate_jets(geom.points, 3)
    v = jet_tensor((3,))
    for k in range(3):
        v[k] = coords[k]
    np.testing.assert_allclose(geom.divergence(v), 3.0, atol=1e-13)


def test_scalar_laplacian_of_linear_function_flat():
    inst = flat_constant_cubic(2, {})
    geom, _, _ = evaluate_spec(inst.spec, count=10)
    coords = coordinate_jets(geom.points, 3)
    f = 2.0 * coords[0] - 7.0 * coords[1] + 3.0
    np.testing.assert_allclose(geom.laplacian_scalar(f), 0.0, atol=1e-13)


@pytest.mark.parametrize("dim,c", [(2, 1.0), (3, 1.0), (2, 4.0)])
def test_sphere_first_eigenfunction(dim, c):
    inst = sphere_stereographic(dim, c)
    geom, _, _ = evaluate_spec(inst.spec)
    ast = parse_expression(
        inst.oracle["eigenfunction"], inst.spec.coordinates, inst.spec.parameters
    )
    f = eval_jet(ast, geom.points, 3, inst.spec.parameters)
    lap = geom.laplacian_scalar(f)
    target = inst.oracle["eigenvalue"] * f.value
    assert np.max(np.abs(lap - target) / np.abs(target)) < 1e-6


def test_divergence_identity_for_gradient_fields():
    # X div(V) = g(Delta_g V, X) - Ric(V, X) for V = grad f
    from statmanifold.pipeline import _probe_scalar

    for inst in (sphere_stereographic(2, 1.0), hyperbolic_ball(2, -1.0),
                 centroaffine_power_surface(1.0, 2.0)):
        geom, _, _ = evaluate_spec(inst.spec, count=40)
        res = geom.divergence_identity_residual(_probe_scalar(geom.points))
        assert np.max(res) < 1e-8


def test_numeric_covariant_derivative_matches_jet_route():
    from statmanifold.geometry import covariant_derivative_components
    from statmanifold.jets import jet_gradients

    inst = sphere_stereographic(2, 1.0)
    geom, _, _ = evaluate_spec(inst.spec, count=20)
    coords = coordinate_jets(geom.points, 3)
    v = jet_tensor((2,))
    v[0] = coords[0] * coords[1]
    v[1] = (coords[0] + coords[1]).sin()
    jet_route = jet_values(geom.nabla(v, ("up",)))
    numeric = covariant_derivative_components(
        jet_values(v), jet_gradients(v), geom.gamma, ("up",)
    )
    np.testing.assert_allclose(numeric, jet_route, atol=1e-12)
    # covector route as well
    w = jet_tensor((2,))
    w[0] = coords[1] * 2.0
    w[1] = coords[0] * coords[0]
    jet_route = jet_values(geom.nabla(w, ("down",)))
    numeric = covariant_derivative_components(
        jet_values(w), jet_gradients(w), geom.gamma, ("down",)
    )
    np.testing.assert_allclose(numeric, jet_route, atol=1e-12)
    # mixed rank-3 route: K of a non-parallel polynomial cubic form on a curved chart
    curved = get_builtin("sphere-m3").spec.to_dict()
    curved["cubic"] = random_polynomial_cubic(3, 2, seed=1).spec.to_dict()["cubic"]
    geom, stat, _ = evaluate_spec(ManifoldSpec.from_dict(curved), count=20)
    variance = ("up", "down", "down")
    k_values, k_partials = jet_values(stat.K_jets), jet_gradients(stat.K_jets)
    jet_route = jet_values(geom.nabla(stat.K_jets, variance))
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


@pytest.mark.parametrize("spec", [skewed_metric_spec(), get_builtin("sphere-m3").spec])
def test_metric_is_levi_civita_parallel_at_jet_level(spec):
    # nabla^g g = 0 as a function, so every Taylor coefficient of the jet
    # route vanishes; the numeric route only sees the values
    geom, _, _ = evaluate_spec(spec, count=20)
    nabla_g = geom.nabla(geom.g_jets, ("down", "down"))
    assert np.max(np.abs(geom.gamma)) > 0.1
    assert nabla_g[0, 0, 0].order == 2
    assert np.max(np.abs(jet_coefficients(nabla_g, 1))) < 1e-12
    assert np.max(np.abs(jet_coefficients(nabla_g, 2))) < 1e-12


def test_jet_order_budget():
    inst = centroaffine_power_surface(2.0, 3.0)
    geom, stat, _ = evaluate_spec(inst.spec, count=20)
    assert {jet.order for jet in geom.g_jets.flat} == {3}
    for name in ("ginv_jets", "gamma_jets"):
        assert {jet.order for jet in getattr(geom, name).flat} == {2}, name
    for name in ("C_jets", "K_jets", "T_jets"):
        assert {jet.order for jet in getattr(stat, name).flat} == {2}, name
    # the order-2 inverse is the order-<=2 part of the order-3 inverse
    full = jet_matrix_inverse(geom.g_jets)
    assert full[0, 0].order == 3
    np.testing.assert_allclose(
        jet_coefficients(geom.ginv_jets, 2), jet_coefficients(full, 2), rtol=0, atol=1e-12
    )


def test_jet_matrix_inverse_consistency():
    inst = centroaffine_power_surface(2.0, 3.0)
    compiled = inst.spec.compile()
    points = compiled.sample_points(count=20)
    g_jets = compiled.metric_jets(points, 3)
    product = jet_einsum("il,lj->ij", jet_matrix_inverse(g_jets), g_jets)
    assert product[0, 0].order == 3
    values = jet_values(product)
    np.testing.assert_allclose(values, np.broadcast_to(np.eye(2), values.shape), atol=1e-12)
    # every derivative coefficient of g^{-1} g - I vanishes as well
    for i in range(2):
        for j in range(2):
            target = 1.0 if i == j else 0.0
            coeff = product[i, j].coeff.copy()
            coeff[..., 0] -= target
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
