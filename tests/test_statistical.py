"""Statistical kernel: difference tensor, dual connections, Tchebychev field,
curvature conditions, scalar identities."""

from itertools import permutations

import closed_forms
import numpy as np
import pytest

from statmanifold import (
    CubicFormAsymmetry,
    GeometryFrame,
    ManifoldSpec,
    StatisticalFrame,
    centroaffine_power_surface,
    cubic_from_difference,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    hyperbolic_ball,
    random_polynomial_cubic,
    run_diagnostics,
)
from statmanifold.jets import Jet, jet_space
from statmanifold.pipeline import fit_constant_curvature, residual_table, scalar_relation_gap


def frames(instance, count=None, seed=None):
    geom, stat, ident = evaluate_spec(instance.spec, count=count, seed=seed)
    return geom, stat, ident


def table(instance, count=None, seed=None):
    """The frames' stat and their residual table, identities and conditions in one dict."""
    geom, stat, ident = frames(instance, count, seed)
    identities, conditions = residual_table(geom, stat, ident)
    return stat, {**identities, **conditions}


def curvature_fit(stat):
    """(lambda, per-point residual) of the constant-curvature fit on one frame."""
    return fit_constant_curvature([(stat.R, stat.geometry.g)])


def test_zero_cubic_reduces_to_riemannian():
    geom, stat, ident = frames(flat_constant_cubic(2, {}), count=10)
    assert np.max(np.abs(stat.K)) == 0.0
    assert np.max(np.abs(stat.T)) == 0.0
    np.testing.assert_allclose(stat.nabla, geom.gamma)
    np.testing.assert_allclose(stat.R, geom.riemann, atol=1e-15)
    np.testing.assert_allclose(stat.Rbar, geom.riemann, atol=1e-15)
    np.testing.assert_allclose(stat.L, geom.riemann, atol=1e-15)
    assert np.max(residual_table(geom, stat, ident)[0]["codazzi"]) == 0.0


def test_difference_tensor_flat_constant_cubic():
    # C_111 = 2 on the flat chart: K^1_11 = -1 and T = eta = (-1, 0) at every point
    _, stat, _ = frames(flat_constant_cubic(2, {"111": 2.0}), count=5)
    expected = np.zeros((len(stat.K), 2, 2, 2))
    expected[:, 0, 0, 0] = -1.0
    np.testing.assert_allclose(stat.K, expected)
    np.testing.assert_allclose(stat.T, np.broadcast_to([-1.0, 0.0], stat.T.shape))
    np.testing.assert_allclose(stat.eta, np.broadcast_to([-1.0, 0.0], stat.eta.shape))


def test_statistical_frame_rejects_asymmetric_cubic():
    spec = flat_constant_cubic(2, {}).spec
    points = spec.sample_points(count=3)
    geom = GeometryFrame(points, spec.compile().metric_jets(points, 3))
    space = jet_space(2, 2)
    coeff = np.zeros((len(points), 2, 2, 2, space.ncoeff))
    coeff[:, 0, 0, 1, 0] = 1.0  # C_112 = 1 but C_121 = 0
    with pytest.raises(CubicFormAsymmetry):
        StatisticalFrame(geom, Jet(space, coeff))
    coeff[:, 0, 1, 0, 0] = coeff[:, 1, 0, 0, 0] = 1.0  # all three slots: symmetric
    StatisticalFrame(geom, Jet(space, coeff))


@pytest.mark.parametrize(
    "entry", sorted(set(permutations((0, 1, 2)))) + sorted(set(permutations((0, 0, 1))))
)
def test_statistical_frame_rejects_each_asymmetric_index_order(entry):
    # m = 3, C zero except at one entry: each order of (1, 2, 3) must be caught,
    # and each order of (1, 1, 2), which one slot swap alone leaves unchanged
    spec = flat_constant_cubic(3, {}).spec
    points = spec.sample_points(count=3)
    geom = GeometryFrame(points, spec.compile().metric_jets(points, 3))
    space = jet_space(3, 2)
    coeff = np.zeros((len(points), 3, 3, 3, space.ncoeff))
    coeff[(slice(None), *entry, 0)] = 1.0
    with pytest.raises(CubicFormAsymmetry):
        StatisticalFrame(geom, Jet(space, coeff))


def test_cubic_roundtrip_through_difference_tensor():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 3, 3))
    cubic = np.zeros_like(raw)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        cubic += np.transpose(raw, perm)
    a = rng.standard_normal((3, 3))
    g = a @ a.T + 3.0 * np.eye(3)
    k = -0.5 * np.einsum("kl,ijl->kij", np.linalg.inv(g), cubic)
    np.testing.assert_allclose(cubic_from_difference(g, k), cubic, atol=1e-12)


def test_centroaffine_connection_tables_at_unit_point():
    # frozen from the closed forms at (1,1), a1=1, a2=2:
    # g = [[.5,.5],[.5,1.5]], ginv = [[3,-1],[-1,1]], nabla^k_ij = -g_ij x^k
    inst = centroaffine_power_surface(1.0, 2.0)
    compiled = inst.spec.compile()
    point = np.array([[1.0, 1.0]])
    from statmanifold import GeometryFrame, StatisticalFrame

    geom = GeometryFrame(point, compiled.metric_jets(point, 3))
    stat = StatisticalFrame(geom, compiled.cubic_jets(point, 3))

    np.testing.assert_allclose(geom.g[0], [[0.5, 0.5], [0.5, 1.5]], atol=1e-14)
    np.testing.assert_allclose(geom.ginv[0], [[3.0, -1.0], [-1.0, 1.0]], atol=1e-13)

    expected_gamma = np.zeros((2, 2, 2))
    expected_gamma[0, 0, 0] = expected_gamma[1, 1, 1] = -1.0
    np.testing.assert_allclose(geom.gamma[0], expected_gamma, atol=1e-13)

    expected_nabla = np.empty((2, 2, 2))
    for k in range(2):
        expected_nabla[k] = -geom.g[0]  # x = (1,1)
    np.testing.assert_allclose(stat.nabla[0], expected_nabla, atol=1e-13)

    expected_k = expected_nabla - expected_gamma
    np.testing.assert_allclose(stat.K[0], expected_k, atol=1e-13)
    assert stat.K[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-13)
    assert stat.K[0, 1, 1, 1] == pytest.approx(-0.5, abs=1e-13)

    np.testing.assert_allclose(stat.T[0], [1.0, -1.0], atol=1e-13)
    np.testing.assert_allclose(stat.eta[0], [0.0, -1.0], atol=1e-13)


def test_centroaffine_nabla_matches_oracle_everywhere():
    inst = centroaffine_power_surface(2.0, 3.0)
    geom, stat, _ = frames(inst)
    forms = closed_forms.centroaffine(inst.spec)
    np.testing.assert_allclose(stat.nabla, forms["nabla_coefficients"](geom.points), atol=1e-11)
    np.testing.assert_allclose(stat.eta, forms["eta"](geom.points), atol=1e-11)


def test_tchebychev_vanishes_for_unit_exponents():
    _, res = table(centroaffine_power_surface(1.0, 1.0))
    assert np.max(res["equiaffine"]) < 1e-12


def test_codazzi_holds_for_symmetric_cubic():
    for inst in (centroaffine_power_surface(1.0, 2.0), random_polynomial_cubic(2, 2, seed=4)):
        _, res = table(inst, count=50)
        assert np.max(res["codazzi"]) < 1e-10
        assert np.max(res["cubic_form_is_nabla_g"]) < 1e-10


def test_codazzi_negative_control():
    # inject C_112 != C_121 on the flat chart; direct evaluation of the
    # Codazzi combination (nabla_X g)(Y,Z) - (nabla_Y g)(X,Z) with g = delta
    cubic = np.zeros((2, 2, 2))
    cubic[0, 0, 1] = 1.0
    k = -0.5 * np.einsum("kl,ijl->kij", np.eye(2), cubic)
    nabla_g = -np.einsum("adi,aj->ijd", k, np.eye(2)) - np.einsum("adj,ia->ijd", k, np.eye(2))
    residual = np.max(np.abs(nabla_g - np.einsum("dji->ijd", nabla_g)))
    assert residual > 0.1


def test_duality_and_remark_formulae():
    for inst in (centroaffine_power_surface(1.0, 2.0), random_polynomial_cubic(2, 2, seed=1)):
        _, res = table(inst, count=40)
        assert np.max(res["conjugate_duality"]) < 1e-10
        assert np.max(res["levi_civita_mean"]) < 1e-12
        assert np.max(res["curvature_conjugation"]) < 1e-10
        assert np.max(res["curvature_interchange_sum"]) < 1e-10


def test_conjugation_involution():
    _, stat, _ = frames(centroaffine_power_surface(1.0, 2.0), count=20)
    conj = StatisticalFrame(stat.geometry, -1.0 * stat.C_jets)
    np.testing.assert_allclose(conj.nabla, stat.bar, atol=0.0)
    np.testing.assert_allclose(conj.bar, stat.nabla, atol=0.0)
    np.testing.assert_allclose(conj.T, -stat.T, atol=0.0)


def test_conjugate_symmetry_three_residuals_flag_together():
    names = ("r_minus_l", "r_minus_rbar", "alt_dk")
    _, res = table(centroaffine_power_surface(1.0, 2.0))
    assert max(np.max(res[name]) for name in names) < 1e-8

    _, res = table(random_polynomial_cubic(2, 2, seed=2), count=50)
    assert min(np.max(res[name]) for name in names) > 1e-3


def test_constant_curvature_centroaffine():
    for a1, a2 in ((1.0, 2.0), (2.0, 3.0), (0.5, 0.8)):
        _, stat, _ = frames(centroaffine_power_surface(a1, a2))
        lam, residual = curvature_fit(stat)
        assert lam == pytest.approx(-1.0, abs=1e-9)
        assert np.max(residual) < 1e-8


def test_constant_curvature_riemannian_spaces():
    from statmanifold import sphere_stereographic

    _, stat, _ = frames(sphere_stereographic(2, 2.0), count=40)
    lam, residual = curvature_fit(stat)
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert np.max(residual) < 1e-8

    _, stat, _ = frames(flat_constant_cubic(2, {}), count=10)
    lam, residual = curvature_fit(stat)
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert np.max(residual) < 1e-12


@pytest.mark.parametrize(
    "instance",
    [get_builtin("sphere-m3"), random_polynomial_cubic(3, 2, 1)],
    ids=["sphere-m3", "negative-control-m3"],
)
def test_constant_curvature_fit_over_blocks_matches_one_block(instance):
    _, stat, _ = frames(instance, count=40)
    riemann, g = stat.R, stat.geometry.g
    lam, residual = fit_constant_curvature([(riemann, g)])
    blocks = [(riemann[i : i + 7], g[i : i + 7]) for i in range(0, len(g), 7)]
    assert len(blocks) == 7
    block_lam, block_residual = fit_constant_curvature(blocks)
    assert block_lam == pytest.approx(lam, rel=1e-15)
    assert block_residual.shape == residual.shape
    np.testing.assert_allclose(block_residual, residual, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", ["sphere-m2", "hyperbolic-m2"])
def test_constant_curvature_fit_sums_past_the_float_range(name):
    # g -> s g keeps R^l_ijk and divides lambda by s; s leaves every point's
    # M.M = 2 (m - 1) |g|^2 finite and makes their sum over the sample overflow
    instance = get_builtin(name)
    spec, g = instance.spec, frames(instance)[0].g
    mm = 2 * (spec.dim - 1) * np.sum(g * g, axis=(1, 2))
    s = float(2 * np.sqrt(np.finfo(float).max / np.sum(mm)))
    assert np.max(mm) < np.finfo(float).max / s**2 < np.sum(mm)
    scaled = ManifoldSpec.from_dict(spec.to_dict())
    scaled.metric = {key: f"{s!r}*({value})" for key, value in spec.metric.items()}
    lam = run_diagnostics(spec).constant_curvature["lambda"]
    assert s * run_diagnostics(scaled).constant_curvature["lambda"] == pytest.approx(lam, rel=1e-12)


def test_ricci_symmetry_equivalence_on_instances():
    # symmetric Ric <-> closed Tchebychev covector, instancewise
    for inst, symmetric in (
        (centroaffine_power_surface(1.0, 2.0), True),
        (flat_constant_cubic(3, {"111": 1.0, "123": 0.5}), True),
        (random_polynomial_cubic(2, 2, seed=6), False),
    ):
        _, res = table(inst, count=40)
        ric = np.max(res["ric_symmetric"])
        eq5 = np.max(res["tchebychev_closed"])
        if symmetric:
            assert ric < 1e-9 and eq5 < 1e-9
        else:
            assert ric > 1e-3 and eq5 > 1e-3


def test_volume_form_routes():
    # the covector recovered from connection trace minus d log sqrt(det g)
    # agrees with eta on every instance; the volume form is parallel exactly
    # on the equiaffine ones
    for inst, equiaffine in (
        (centroaffine_power_surface(1.0, 2.0), False),
        (centroaffine_power_surface(1.0, 1.0), True),
        (flat_constant_cubic(2, {"111": 2.0}), False),
        (random_polynomial_cubic(2, 2, seed=13), False),
    ):
        _, res = table(inst, count=40)
        assert np.max(res["tchebychev_dual_via_volume_form"]) < 1e-9
        parallel = np.max(res["volume_form_parallel"])
        if equiaffine:
            assert parallel < 1e-9
        else:
            assert parallel > 1e-3


def test_parallel_tchebychev_criterion_hypotheses():
    # flat log-coordinates make Ric^g vanish on the power surface, so the
    # converse criterion applies and forces the parallel Tchebychev field
    _, res = table(centroaffine_power_surface(1.0, 2.0), count=30)
    assert np.max(np.abs(res["ricci_tt"])) < 1e-10
    assert np.max(res["parallel_tchebychev_criterion"]) < 1e-8


def test_ricci_tt_keeps_its_sign():
    # the parallel_tchebychev_criterion gate asks Ric^g(T,T) <= 0, so the entry is the
    # signed value, not a |.| peak: on the hyperbolic plane Ric^g = -g, so Ric^g(T,T) is
    # -g(T,T), which is negative wherever T is not 0
    spec = hyperbolic_ball(2).spec
    spec.cubic = {"111": "1.0"}
    geom, stat, ident = evaluate_spec(spec, count=20, seed=1)
    _, conditions = residual_table(geom, stat, ident)
    g_tt = np.einsum("pij,pi,pj->p", geom.g, stat.T, stat.T)
    assert np.min(g_tt) > 1e-4
    np.testing.assert_allclose(conditions["ricci_tt"], -g_tt, rtol=1e-12, atol=0)


def test_trace_identity_factor_is_one_half():
    # g(T, X) = -1/2 tr_g C(.,.,X); the -2 variant does not hold when T != 0
    geom, stat, _ = frames(centroaffine_power_surface(1.0, 2.0), count=30)
    trace_c = np.einsum("pij,pijl->pl", geom.ginv, stat.C)
    np.testing.assert_allclose(stat.eta, -0.5 * trace_c, atol=1e-10)
    assert np.max(np.abs(stat.eta + 2.0 * trace_c)) > 0.1


def test_scalar_relation_on_constant_curvature_instances():
    for inst in (centroaffine_power_surface(1.0, 2.0), centroaffine_power_surface(2.0, 3.0)):
        stat, res = table(inst)
        lam, residual = curvature_fit(stat)
        assert np.max(residual) < 1e-8
        assert np.max(scalar_relation_gap(lam, stat.geometry.dim, res["scalar_sum"])) < 1e-6


def test_scalar_relation_flat_families():
    # flat metric (rho-hat = 0) with constant K: whenever the constant-curvature
    # fit is valid, lambda m(m-1) = g(T,T) - g(K,K), the scalar sum; in particular
    # a valid lambda = 0 fit forces g(T,T) = g(K,K)
    rng = np.random.default_rng(21)
    seen_constant = seen_flat_curvature = 0
    samples = [{"111": 2.0}]  # single diagonal component: R = 0 exactly
    for _ in range(40):
        samples.append(
            {key: round(float(rng.uniform(-1.0, 1.0)), 6) for key in ("111", "112", "122", "222")}
        )
    for cubic in samples:
        inst = flat_constant_cubic(2, cubic)
        stat, res = table(inst, count=10)
        assert np.max(np.abs(stat.geometry.scalar)) == 0.0
        lam, residual = curvature_fit(stat)
        if np.max(residual) <= 1e-6 * (1.0 + abs(lam)):
            seen_constant += 1
            np.testing.assert_allclose(lam * 2.0, res["scalar_sum"], atol=1e-8)
            if abs(lam) < 1e-9:
                seen_flat_curvature += 1
                np.testing.assert_allclose(res["scalar_sum"], 0.0, atol=1e-8)
    assert seen_constant >= 1  # the search must actually find such instances
    assert seen_flat_curvature >= 1


def harmonic_potential_instance():
    """Flat chart with C = third derivatives of the harmonic quartic
    (x1^4 - 6 x1^2 x2^2 + x2^4)/24: equiaffine, conjugate symmetric, and
    nabla^g K != 0, so the cubic-norm Laplacian identity is exercised with
    nonvanishing terms."""
    from statmanifold import ManifoldSpec, SampleSpec

    return ManifoldSpec(
        name="flat-harmonic-potential-cubic",
        dim=2,
        coordinates=["x1", "x2"],
        metric={"11": "1", "12": "0", "22": "1"},
        cubic={"111": "x1", "112": "-x2", "122": "-x1", "222": "x2"},
        sample=SampleSpec(box={"x1": (-1.0, 1.0), "x2": (-1.0, 1.0)}),
    )


def test_laplacian_cubic_identity():
    # flat constant-C instances: every term vanishes individually
    _, stat, _ = frames(flat_constant_cubic(3, {"111": 1.5, "223": -0.25}), count=20)
    terms = stat.laplacian_cubic_terms()
    assert np.max(np.abs(terms["laplacian"])) < 1e-10
    assert np.max(np.abs(terms["curvature_term"])) < 1e-10
    assert np.max(np.abs(terms["gradient_term"])) < 1e-10

    # centroaffine: hypotheses hold; g(K,K) turns out constant, so the
    # identity closes with every term tiny
    _, stat, _ = frames(centroaffine_power_surface(1.0, 2.0))
    terms = stat.laplacian_cubic_terms()
    assert np.max(terms["residual"]) < 1e-6

    # harmonic-potential cubic: hypotheses hold with nonvanishing terms
    from statmanifold import evaluate_spec as _eval

    geom, stat, ident = _eval(harmonic_potential_instance())
    _, res = residual_table(geom, stat, ident)
    assert np.max(res["equiaffine"]) < 1e-12
    assert np.max(res["r_minus_l"]) < 1e-10  # conjugate symmetric
    terms = stat.laplacian_cubic_terms()
    assert np.max(np.abs(terms["laplacian"])) > 1.0
    assert np.max(np.abs(terms["gradient_term"])) > 1.0
    assert np.max(terms["residual"]) < 1e-10


def test_t1_t2_and_geodesic_potential():
    # parallel T: both semi-equiaffine expressions vanish
    stat, res = table(flat_constant_cubic(2, {"111": 2.0}), count=20)
    assert np.max(np.abs(stat.t1_vector())) < 1e-10
    assert np.max(np.abs(stat.t2_vector())) < 1e-10
    assert np.max(res["geodesic_potential"]) < 1e-10
    _, rho = stat.geodesic_potential_check()
    np.testing.assert_allclose(rho, 0.0, atol=1e-12)

    # centroaffine: T is nonzero yet both residuals vanish
    stat, res = table(centroaffine_power_surface(1.0, 2.0))
    assert np.max(res["equiaffine"]) > 0.1
    assert np.max(res["parallel_tchebychev_criterion"]) < 1e-8
    assert np.max(np.abs(stat.t1_vector())) < 1e-8
    assert np.max(np.abs(stat.t2_vector())) < 1e-8


def test_frame_arrays_at_reduced_order_equal_the_full_order_ones():
    # the frame keeps nabla^g K and the dual connections only to the order its
    # readers use; the kept values and gradients are the full-order ones, bit for bit
    curved = get_builtin("sphere-m3").spec.to_dict()
    curved["cubic"] = random_polynomial_cubic(3, 2, seed=1).spec.to_dict()["cubic"]
    geom, stat, ident = evaluate_spec(ManifoldSpec.from_dict(curved), count=20)
    assert np.max(np.abs(stat.K_jets.gradient())) > 0.1  # C is not constant

    dk = geom.nabla(stat.K_jets, ("up", "down", "down"))
    assert dk.order == 1
    assert np.array_equal(stat.dK, dk.value)
    gamma, k = geom.gamma_jets, stat.K_jets
    for name, full in (("nabla", gamma + k), ("bar", gamma - k)):
        assert full.order == 1
        assert np.array_equal(getattr(stat, name), full.value), name
        assert np.array_equal(getattr(stat, "d" + name), full.gradient()), name

    # tau and tau-bar: the trace definition on values, and -T and T as jets
    for value, d in ((ident.tau, gamma.value + k.value), (ident.taubar, gamma.value - k.value)):
        assert np.array_equal(value, np.einsum("pij,pkij->pk", geom.ginv, gamma.value - d))
    assert ident.tau_jets.order == ident.taubar_jets.order == 2
    assert np.array_equal(ident.tau_jets.coeff, -stat.T_jets.coeff)
    assert np.array_equal(ident.taubar_jets.coeff, stat.T_jets.coeff)


def test_metric_inner_kk_matches_the_value_contraction():
    # oracle: g(K, K) = g_kl g^ia g^jb K^k_ij K^l_ab contracted on values in one
    # einsum, against the frame's scalar jet, on the sphere-m3 metric with a
    # non-constant cubic
    curved = get_builtin("sphere-m3").spec.to_dict()
    curved["cubic"] = random_polynomial_cubic(3, 2, seed=1).spec.to_dict()["cubic"]
    geom, stat, _ = evaluate_spec(ManifoldSpec.from_dict(curved), count=20)
    g, ginv, k = geom.g, geom.ginv, stat.K
    expected = np.einsum("pkl,pia,pjb,pkij,plab->p", g, ginv, ginv, k, k, optimize="greedy")
    assert np.min(expected) > 1e-3  # K does not vanish anywhere in the sample
    np.testing.assert_allclose(stat.kk_jets.value, expected, rtol=1e-12, atol=0)
