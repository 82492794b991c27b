"""Blocked evaluation: reports do not depend on the block size, memory is
bounded by the block, not the sample, and non-finite values between the probe
points end as spec errors."""

import copy
import json
import tracemalloc
import weakref

import closed_forms
import numpy as np
import pytest
import report_digest

from statmanifold import (
    ManifoldSpec,
    MetricNotPositiveDefinite,
    SpecValidationError,
    crosscheck,
    eval_jet,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    pipeline,
    random_polynomial_cubic,
    random_symmetric_constants,
    run_diagnostics,
    sphere_stereographic,
    statistical,
)
from statmanifold import expr, geometry, manifold
from statmanifold.manifold import OptionError


def _residuals_and_rest(report):
    rest = report.to_dict()
    rest.pop("runtime_seconds")
    residuals = {name: check.pop("max_residual") for name, check in rest["checks"].items()}
    residuals["constant_curvature"] = rest["constant_curvature"].pop("max_residual")
    return residuals, rest


def test_block_size_does_not_change_reports(monkeypatch):
    spec = get_builtin("centroaffine-2-3").spec
    whole = run_diagnostics(spec, seed=5)
    whole_fd = crosscheck(spec, seed=5)
    assert whole.num_points <= pipeline.BLOCK_POINTS

    monkeypatch.setattr(pipeline, "BLOCK_POINTS", 7)
    assert whole.num_points % 7 and whole.num_points // 7 >= 10  # many blocks, one partial
    blocked = run_diagnostics(spec, seed=5)
    blocked_fd = crosscheck(spec, seed=5)

    whole_res, whole_rest = _residuals_and_rest(whole)
    blocked_res, blocked_rest = _residuals_and_rest(blocked)
    # statuses, flags, argmax points, lambda and the flag equivalence are exact
    assert blocked_rest == whole_rest
    assert blocked_res == pytest.approx(whole_res, rel=0, abs=1e-12)
    assert blocked_fd.deviations == pytest.approx(whole_fd.deviations, rel=0, abs=1e-12)
    assert blocked_fd.passed == whole_fd.passed


@pytest.mark.parametrize(
    "spec, seed",
    [
        (get_builtin("sphere-m2").spec, 1),
        (get_builtin("centroaffine").spec, 3),
        (random_polynomial_cubic(3, 2, 1).spec, 5),
    ],
    ids=["sphere-m2", "centroaffine", "negative-control-m3"],
)
def test_lambda_does_not_depend_on_the_block_size(monkeypatch, spec, seed):
    lambdas = set()
    for size in (7, 64, 1024):
        monkeypatch.setattr(pipeline, "BLOCK_POINTS", size)
        lambdas.add(run_diagnostics(spec, seed=seed).constant_curvature["lambda"])
    assert len(lambdas) == 1


def _peak_bytes(spec, count):
    tracemalloc.start()
    try:
        run_diagnostics(spec, count=count, seed=2)
        crosscheck(spec, count=count, seed=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_bounded_by_the_block():
    spec = get_builtin("sphere-m3").spec
    corners = 2**spec.dim
    run_diagnostics(spec, count=20, seed=2)  # warm the jet tables out of the measurement
    one_block = _peak_bytes(spec, pipeline.BLOCK_POINTS - corners)
    three_blocks = _peak_bytes(spec, 3 * pipeline.BLOCK_POINTS - corners)
    assert three_blocks <= 1.25 * one_block, (one_block, three_blocks)


def test_peak_memory_per_point_is_a_few_difference_tensors():
    # what the frames keep per point, measured in units of the order-2 jets of K
    spec = flat_constant_cubic(6, random_symmetric_constants(6, 3)).spec
    run_diagnostics(spec, count=20, seed=2)  # warm the jet tables out of the measurement
    k_bytes = evaluate_spec(spec, count=20, seed=2)[1].K_jets.coeff.nbytes
    tracemalloc.start()
    try:
        report = run_diagnostics(spec, count=20, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.num_points == 84
    assert peak <= 10 * k_bytes, peak / k_bytes


def test_runs_leave_no_cyclic_garbage():
    # the per-block results must be freed by reference counting alone
    import gc

    spec = get_builtin("flat-cubic").spec
    run_diagnostics(spec, seed=1)  # first-call caches out of the measurement
    crosscheck(spec, seed=1)
    gc.collect()
    gc.disable()
    try:
        run_diagnostics(spec, seed=1)
        crosscheck(spec, seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_non_finite_input_between_probe_points_is_a_spec_error(spiked_centroaffine):
    spec, c = spiked_centroaffine
    with pytest.raises(SpecValidationError) as err:
        run_diagnostics(spec, seed=1)
    (problem,) = err.value.problems
    assert problem.startswith("cubic[111] is not finite to order 2 at sample point [")
    assert float(problem.split("[")[2].split(",")[0]) == c
    # the crosscheck reads C to order 1 only, and says so
    with pytest.raises(SpecValidationError) as err:
        crosscheck(spec, seed=1)
    (problem,) = err.value.problems
    assert problem.startswith("cubic[111] is not finite to order 1 at sample point [")


def test_domain_error_between_probe_points_names_the_component(pole_centroaffine):
    spec, shrunk = pole_centroaffine
    for run in (lambda: run_diagnostics(shrunk, seed=1), lambda: crosscheck(spec, seed=1)):
        with pytest.raises(SpecValidationError) as err:
            run()
        (problem,) = err.value.problems
        assert problem.startswith("cubic[111] leaves its domain inside the box: division by zero")


def test_overflow_only_on_a_stencil_point_names_the_stencil():
    # C_111 = exp(2e-4/((x1-p)^2 + 1e-12)) overflows only within about h/2 of x1 = p,
    # one step h above the sample x1 farthest from every other sample and probe x1:
    # the frames are finite at every sample point, T's order-0 stencil is not
    h = pipeline.FD_STEP
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    x1 = pipeline._shrink_box(spec, h).sample_points(seed=1)[:, 0]
    gap = np.abs(x1[:, None] - np.concatenate([x1, spec._probe_points()[:, 0]])[None, :])
    gap[np.arange(len(x1)), np.arange(len(x1))] = np.inf
    nearest = gap.min(axis=1)
    assert nearest.max() >= 3 * h
    p = float(x1[np.argmax(nearest)] + h)
    spec.cubic["111"] = f"exp(2e-4/((x1 - {p!r})*(x1 - {p!r}) + 1e-12))"
    with pytest.raises(SpecValidationError) as err:
        crosscheck(spec, seed=1)
    (problem,) = err.value.problems
    assert problem.startswith("cubic[111] is not finite to order 0 at stencil point [")
    assert float(problem.split("[")[2].split(",")[0]) == p


def test_non_finite_frame_values_name_the_stage():
    # C ~ 1e200 is finite, but R of nabla = nabla^g + K carries K*K ~ 1e400
    spec = ManifoldSpec.from_dict(get_builtin("centroaffine").spec.to_dict())
    spec.cubic["111"] = "1e200*x1"
    with pytest.raises(SpecValidationError, match=r"statistical frame: R is not finite at sample point \["):
        with np.errstate(over="ignore", invalid="ignore"):
            run_diagnostics(spec, seed=1)
    # the crosscheck never builds R: it compares the finite nabla^g T, and fails there
    report = crosscheck(spec, seed=1)
    assert not report.passed
    assert [name for name, dev in report.deviations.items() if dev > report.threshold] == [
        "tchebychev_operator"
    ]


def test_an_overflowing_probe_is_named_not_reported(huge_box):
    # the probe is evaluated as the spec components are: no overflow warning, and a
    # spec error in place of a report with a NaN residual
    point = huge_box.sample_points(seed=1)[0].tolist()
    for call, order in ((run_diagnostics, 3), (crosscheck, 2)):
        with pytest.raises(SpecValidationError) as err:
            call(huge_box, seed=1)
        assert err.value.problems == [
            f"scalar probe: order-{order} jet is not finite at sample point {point}"
        ]


def test_an_overflowing_fd_stencil_of_the_probe_is_named(huge_box):
    # near 1.25e154 the probe's jets are finite, but 2 f in its fd Hessian overflows
    huge_box.sample.box = {x: (1.2e154, 1.3e154) for x in huge_box.coordinates}
    assert run_diagnostics(huge_box, seed=1).exit_code() == 0
    point = pipeline._shrink_box(huge_box, pipeline.FD_STEP).sample_points(seed=1)[0].tolist()
    with pytest.raises(SpecValidationError) as err:
        crosscheck(huge_box, seed=1)
    assert err.value.problems == [f"scalar probe: fd Hessian is not finite at sample point {point}"]


def test_finite_gate_names_every_array_of_every_frame():
    # the gate reads each frame's own arrays: a field added to a frame is checked too
    spec = get_builtin("centroaffine").spec
    points = spec.sample_points(count=5, seed=1)
    frames = dict(zip(("geometry", "statistical", "identity map"), evaluate_spec(spec, 5, 1)))
    held = {
        stage: [name for name, values in vars(frame).items() if isinstance(values, np.ndarray)]
        for stage, frame in frames.items()
    }
    # the arrays the gate named before it read the frames, still in their order
    named_before = {
        "geometry": ["ginv", "gamma", "dgamma", "riemann", "ricci"],
        "statistical": ["K", "T", "R", "Rbar", "ric", "L", "Lbar", "tch", "dK"],
        "identity map": ["tau2", "taubar2", "tau2_proof", "taubar2_proof", "t1", "t2"],
    }
    for stage, names in named_before.items():
        assert [name for name in held[stage] if name in names] == names
    assert {"scalar"} <= set(held["geometry"]) and {"C", "eta"} <= set(held["statistical"])
    assert {"tau", "taubar"} <= set(held["identity map"])
    for stage, frame in frames.items():
        pipeline._require_finite(points, f"{stage} frame", vars(frame))
        for name in held[stage]:
            broken = copy.copy(frame)
            values = getattr(frame, name).copy()
            values.reshape(len(points), -1)[3, -1] = np.nan
            setattr(broken, name, values)
            with pytest.raises(SpecValidationError) as err:
                pipeline._require_finite(points, f"{stage} frame", vars(broken))
            assert err.value.problems == [
                f"{stage} frame: {name} is not finite at sample point {points[3].tolist()}"
            ]


def test_indefinite_metric_between_probe_points_names_the_point(dented_metric):
    spec, inside = dented_metric
    with pytest.raises(MetricNotPositiveDefinite) as err:
        run_diagnostics(spec, seed=1)
    message = str(err.value)
    assert message.startswith("metric is not positive definite at sample point [")
    assert inside(json.loads(message.partition(" at sample point ")[2]))
    assert run_diagnostics(spec, seed=0).exit_code() == 0


def test_too_large_h_is_named():
    with pytest.raises(ValueError) as err:
        crosscheck(get_builtin("centroaffine").spec, h=1)
    assert str(err.value) == (
        "h must be less than a quarter of the width of the sample box for 'x1' (2.5), got 1"
    )


def test_h_whose_square_underflows_is_named():
    # the fd Hessian divides by h * h; at 1e-162 it is 0 and every quotient NaN
    spec = get_builtin("sphere-m2").spec
    with pytest.raises(OptionError) as err:
        crosscheck(spec, h=1e-162)
    assert err.value.argument == "h"
    assert err.value.rule == "must be finite and positive, and its square must not be 0, got 1e-162"
    # 2e-162 squares to a subnormal: it runs, and the stencil collapses, so the check fails
    assert not crosscheck(spec, h=2e-162, count=5).passed


def test_crosscheck_builds_only_what_it_compares(monkeypatch):
    def unexpected(*args):
        raise AssertionError("the crosscheck compares no curvature of the dual connections")

    monkeypatch.setattr(statistical, "interchange_tensor", unexpected)
    monkeypatch.setattr(statistical.StatisticalFrame, "R", property(unexpected))
    spec = get_builtin("flat-cubic").spec
    assert crosscheck(spec, seed=1).passed
    with pytest.raises(AssertionError, match="dual connections"):
        run_diagnostics(spec, seed=1)


def test_each_crosscheck_stencil_is_one_call(monkeypatch):
    spec = get_builtin("centroaffine").spec
    compiled = spec.compile()
    assert (len(compiled.sources["metric"]), len(compiled.sources["cubic"])) == (3, 4)
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_jet(*args)

    for module in (expr, manifold, pipeline):
        monkeypatch.setattr(module, "eval_jet", counted)
    pipeline._crosscheck_block(compiled, spec.sample_points(seed=1), pipeline.FD_STEP, pipeline._probe(spec.dim))
    # 7 for the frames, 3 for the metric stencil, 4 for C on T's stencil (its
    # metric values are the metric stencil's first 2m + 1) and 2 for the probe
    # (its jet and its fd stencil)
    assert len(calls) == 7 + 3 + 4 + 2


@pytest.mark.parametrize(
    "spec",
    [ManifoldSpec.from_dict(report_digest.NON_EINSTEIN_M3), get_builtin("sphere-m3").spec],
    ids=lambda s: s.name,
)
def test_crosscheck_catches_a_flipped_curvature_term(flipped_curvature, spec):
    # the fd route forms R by its own formula, so the jet route's R alone moves;
    # an fd route that shared curvature_components moved alike and passed (1.4e-10)
    report = crosscheck(spec, seed=1)
    assert report.deviations["curvature"] > report.threshold
    assert not report.passed


def test_crosscheck_catches_a_scaled_metric_inverse(rebind):
    # the fd route inverts its own stencil-centre metric, so a g^{-1} error of the jet
    # route shows in Gamma and in the Laplacian; a shared g^{-1} hid it (about 1e-6)
    original = geometry.jet_matrix_inverse

    def scaled(g_jets, order):
        inverse = original(g_jets, order)
        inverse.coeff[..., 0] *= 1.001
        return inverse

    rebind(original, scaled)
    report = crosscheck(get_builtin("sphere-m3").spec, seed=1)
    for name in ("christoffel", "scalar_laplacian"):
        assert report.deviations[name] > report.threshold, name


def test_fd_route_frees_the_metric_stencil_before_it_reads_c():
    # the order-2 metric stencil values are read only for dg, d2g and T's g^{-1}
    spec = get_builtin("sphere-m3").spec
    compiled = spec.compile()
    metric_jets, cubic_jets = compiled.metric_jets, compiled.cubic_jets
    stencil, alive = [], []

    def kept(points, order, kind="sample"):
        jet = metric_jets(points, order, kind)
        stencil.append(weakref.ref(jet.coeff if jet.coeff.base is None else jet.coeff.base))
        return jet

    def checked(points, order, kind="sample"):
        alive.append(stencil[0]() is not None)
        return cubic_jets(points, order, kind)

    compiled.metric_jets, compiled.cubic_jets = kept, checked
    points = pipeline._shrink_box(spec, pipeline.FD_STEP).sample_points(count=5, seed=1)
    pipeline._fd_route(compiled, points, pipeline.FD_STEP, pipeline._probe(spec.dim))
    assert len(stencil) == 1 and alive == [False]


@pytest.mark.parametrize(
    ("name", "field"),
    [("centroaffine", "christoffel"), ("sphere-m3", "curvature"), ("hyperbolic-m2", "curvature")],
)
def test_fd_route_meets_the_closed_forms_without_a_frame(monkeypatch, name, field):
    def unexpected(*args):
        raise AssertionError("the fd route builds no frame")

    for frame in (geometry.GeometryFrame, statistical.StatisticalFrame):
        monkeypatch.setattr(frame, "__init__", unexpected)
    spec = get_builtin(name).spec
    points = pipeline._shrink_box(spec, pipeline.FD_STEP).sample_points(seed=1)
    fd = pipeline._fd_route(spec.compile(), points, pipeline.FD_STEP, pipeline._probe(spec.dim))
    forms = closed_forms.CLOSED_FORMS[name](spec)
    if field == "christoffel":
        expected = forms["christoffel"](points)
    else:
        # constant curvature c: R^l_ijk = c (g_jk delta^l_i - g_ik delta^l_j)
        g, eye = forms["metric"](points), np.eye(spec.dim)
        expected = spec.parameters["c"] * (
            np.einsum("pjk,li->plijk", g, eye) - np.einsum("pik,lj->plijk", g, eye)
        )
    assert np.max(pipeline._relative(expected, fd[field])) <= pipeline.FD_TOLERANCE


def _sphere_with_polynomial_cubic():
    spec = ManifoldSpec.from_dict(get_builtin("sphere-m3").spec.to_dict())
    spec.cubic = {"111": "x1*x2 + 1", "123": "x3*x3 - x1", "223": "2*x2", "333": "x1*x2*x3"}
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        _sphere_with_polynomial_cubic(),
        get_builtin("centroaffine").spec,
        ManifoldSpec.from_dict(report_digest.NON_EINSTEIN_M3),
    ],
    ids=lambda s: s.name,
)
def test_crosscheck_orders_give_the_compared_quantities(spec):
    # order 1 (metric 2, g^{-1} and cubic 1) against the diagnostics' 2 (metric 2,
    # g^{-1} and cubic 2), in the crosscheck's own measure
    compiled = spec.compile()
    points = spec.sample_points(seed=1)
    low_geometry, low_stat = pipeline._frames(compiled, points, 1, reads=("tch",))
    geometry, stat = pipeline._frames(compiled, points, 2)
    for low, full in (
        (low_geometry.gamma, geometry.gamma),
        (low_geometry.riemann, geometry.riemann),
        (low_stat.tch, stat.tch),
    ):
        assert np.max(pipeline._relative(full, low)) <= 1e-13


def _einsum_fd_route(compiled, points, h, probe):
    """The fd route's four quantities by einsum formulas, the reference of its batched
    ``@`` contractions; T's metric values come from an evaluation of their own."""
    first_stencil, second_stencil = (expr.fd_stencil(points, h, order) for order in (1, 2))
    g, dg, d2g = expr.central_differences(
        compiled.metric_jets(second_stencil, 0, "stencil").value, 1, h
    )
    ginv = np.linalg.inv(g)
    first, dfirst = (
        np.einsum("pjli...->plij...", x) + np.einsum("pilj...->plij...", x)
        - np.einsum("pijl...->plij...", x)
        for x in (dg, d2g)
    )
    dginv = -np.einsum("pka,pabd,pbl->pkld", ginv, dg, ginv, optimize="greedy")
    gamma = 0.5 * np.einsum("pkl,plij->pkij", ginv, first)
    dgamma = 0.5 * (
        np.einsum("pkld,plij->pkijd", dginv, first) + np.einsum("pkl,plijd->pkijd", ginv, dfirst)
    )
    a = np.einsum("pljki->plijk", dgamma) + np.einsum("plia,pajk->plijk", gamma, gamma)
    _, df, d2f = expr.fd_jet(probe, points, 2, h)
    laplacian = np.einsum("pij,pij->p", ginv, d2f) - np.einsum(
        "pij,paij,pa->p", ginv, gamma, df, optimize="greedy"
    )
    stencil_ginv = np.linalg.inv(compiled.metric_jets(first_stencil, 0, "stencil").value)
    cubic = compiled.cubic_jets(first_stencil, 0, "stencil").value
    trace = np.einsum("...ij,...ijl->...l", stencil_ginv, cubic)
    t_values = -0.5 * np.einsum("...kl,...l->...k", stencil_ginv, trace)
    t, dt, _ = expr.central_differences(t_values, 1, h, order=1)
    return {
        "christoffel": gamma,
        "curvature": a - np.swapaxes(a, 2, 3),
        "scalar_laplacian": laplacian,
        "tchebychev_operator": dt + np.einsum("pkda,pa->pkd", gamma, t),
    }


def _sphere_m8_with_polynomial_cubic():
    """The report digest's curved m = 8 case, at its 20 + 256 points."""
    spec = sphere_stereographic(8).spec
    spec.cubic = random_polynomial_cubic(8, 1, 1).spec.cubic
    spec.sample.count = 20
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        ManifoldSpec.from_dict(report_digest.NON_EINSTEIN_M3),
        _sphere_with_polynomial_cubic(),
        _sphere_m8_with_polynomial_cubic(),
    ],
    ids=lambda s: s.name,
)
def test_fd_route_contractions_match_the_einsum_formulas(spec):
    # every chart has T != 0 and R != 0, so every product of the batched route is read;
    # the reference inverts with numpy, the route by its own elimination
    compiled = spec.compile()
    points = pipeline._shrink_box(spec, pipeline.FD_STEP).sample_points(seed=1)
    probe = pipeline._probe(spec.dim)
    fd = pipeline._fd_route(compiled, points, pipeline.FD_STEP, probe)
    reference = _einsum_fd_route(compiled, points, pipeline.FD_STEP, probe)
    assert set(fd) == set(reference)
    for name, value in reference.items():
        assert np.max(np.abs(value)) > 1e-3, name
        assert np.max(pipeline._relative(value, fd[name])) <= 1e-12, name


@pytest.mark.parametrize("m", range(2, 9))
def test_stencil_inverse_matches_numpy(m):
    # random positive definite stacks, as one matrix per point and as the route's
    # non-contiguous prefix of 2m + 1 stencil slots
    rng = np.random.default_rng(m)
    a = rng.standard_normal((7, 2 * m + 3, m, m))
    g = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(m)
    points = rng.random(g.shape[:-1])
    for stack, at in ((g[:, 0].copy(), points[:, 0]), (g[:, : 2 * m + 1], points[:, : 2 * m + 1])):
        inverse = pipeline._stencil_inverse(stack, at)
        assert inverse.shape == stack.shape and inverse.flags.c_contiguous
        assert np.max(pipeline._relative(np.linalg.inv(stack), inverse)) <= 1e-12


def test_stencil_inverse_gates_on_its_own_pivots():
    # singular up to rounding: the elimination's second pivot is -1.4e-17, while a
    # Cholesky factor, whose rounding differs, can exist (it does with OpenBLAS)
    b = 0.31429991856467865
    g = np.array([[1.7489662214800967, b], [b, 0.05648161616647196]])
    with pytest.raises(MetricNotPositiveDefinite, match=r"at stencil point \[0.25, 0.5\]$"):
        pipeline._stencil_inverse(g[None], np.array([[0.25, 0.5]]))


@pytest.mark.parametrize("x1", [0.0005, 0.001])
def test_fd_route_gates_the_metric_on_the_stencil(x1):
    # g = diag(1, x1) is positive definite at the point, but T's stencil point one step
    # down in x1 has g_22 < 0 at the first point and g_22 = 0 at the second: neither may
    # give T values or end as a LinAlgError, which is no spec error
    spec = ManifoldSpec.from_dict({
        "name": "degenerate-stencil",
        "dim": 2,
        "coordinates": ["x1", "x2"],
        "metric": {"11": "1", "12": "0", "22": "x1"},
        "cubic": {"111": "1"},
        "sample": {"box": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]}, "count": 1, "seed": 1},
    })
    points = np.array([[x1, 0.5]])
    with pytest.raises(MetricNotPositiveDefinite) as err:
        pipeline._fd_route(spec.compile(), points, pipeline.FD_STEP, pipeline._probe(2))
    prefix = "metric is not positive definite at stencil point "
    assert str(err.value).startswith(prefix)
    at = json.loads(str(err.value)[len(prefix):])
    assert np.allclose(at, [x1 - pipeline.FD_STEP, 0.5], rtol=0.0, atol=1e-15)


def test_blocks_ask_for_the_metric_and_the_cubic_form_at_their_orders(monkeypatch):
    # a diagnose block takes both at order 2 and a crosscheck block at 2 and 1, besides
    # the fd route's order-0 stencil values; an order-3 metric would show here
    calls = []

    def spy(label):
        original = getattr(manifold.CompiledManifold, f"{label}_jets")

        def counted(self, points, order, kind="sample"):
            calls.append((label, order, kind))
            return original(self, points, order, kind)

        return counted

    for label in ("metric", "cubic"):
        monkeypatch.setattr(manifold.CompiledManifold, f"{label}_jets", spy(label))
    spec = get_builtin("flat-cubic").spec
    run_diagnostics(spec, count=10)  # one block
    assert calls == [("metric", 2, "sample"), ("cubic", 2, "sample")]
    calls.clear()
    crosscheck(spec, count=10)
    assert calls == [
        ("metric", 2, "sample"), ("cubic", 1, "sample"),
        ("metric", 0, "stencil"), ("cubic", 0, "stencil"),
    ]


@pytest.mark.parametrize("order", [1, 2])
def test_frames_take_the_inverse_metric_and_the_cubic_form_at_one_order(order):
    # K = -1/2 g^{-1} C uses no more of C than g^{-1} carries; Gamma needs only the order-2 metric
    spec = _sphere_with_polynomial_cubic()
    points = spec.sample_points(count=5, seed=1)
    geometry, stat = pipeline._frames(spec.compile(), points, order, reads=())
    assert geometry.g_jets.order == 2
    assert stat.C_jets.order == geometry.ginv_jets.order == stat.K_jets.order == order


def test_report_keys_are_pinned():
    # reports serialize their own dataclass fields: a new field is a new key of schema 1
    spec = get_builtin("flat-cubic").spec
    report = json.loads(run_diagnostics(spec, count=10, seed=1).to_json())
    assert set(report) == {
        "schema", "name", "spec", "spec_hash", "dim", "num_points", "tolerance", "checks",
        "flags", "constant_curvature", "main1_flag_equivalence", "runtime_seconds",
    }
    assert report["schema"] == 1
    for name, check in report["checks"].items():
        assert set(check) == {"max_residual", "argmax_point", "status"}, name
    fd = json.loads(crosscheck(spec, count=10, seed=1).to_json())
    assert set(fd) == {"name", "h", "threshold", "deviations", "max_deviation", "passed"}


@pytest.mark.parametrize(
    "entry", [run_diagnostics, crosscheck, ManifoldSpec.sample_points],
    ids=["run_diagnostics", "crosscheck", "sample_points"],
)
@pytest.mark.parametrize(
    "options, argument",
    [
        ({"count": 2.5}, "count"),
        ({"count": 3, "seed": 1.9}, "seed"),
        # a string or a bool is not a number, even when it converts to one
        ({"count": "3", "seed": "1"}, "count"),
        ({"count": True}, "count"),
        ({"count": "abc"}, "count"),
        ({"count": 3, "seed": "1"}, "seed"),
        ({"count": 3, "seed": False}, "seed"),
    ],
)
def test_non_integral_count_and_seed_are_option_errors(entry, options, argument):
    with pytest.raises(OptionError) as err:
        entry(get_builtin("flat-cubic").spec, **options)
    assert err.value.argument == argument
    assert err.value.rule == f"must be an integer, got {options[argument]!r}"


@pytest.mark.parametrize(
    "entry, argument",
    [(run_diagnostics, "tolerance"), (crosscheck, "h"), (crosscheck, "threshold")],
)
@pytest.mark.parametrize("value", ["abc", "1e-3", True])
def test_string_and_bool_reals_are_option_errors(entry, argument, value):
    with pytest.raises(OptionError) as err:
        entry(get_builtin("flat-cubic").spec, **{argument: value})
    assert err.value.argument == argument
    assert err.value.rule == f"must be a number, got {value!r}"


def test_whole_float_count_and_seed_run_like_integers():
    spec = get_builtin("flat-cubic").spec
    assert np.array_equal(spec.sample_points(3.0, 1.0), spec.sample_points(3, 1))
    reports = [run_diagnostics(spec, count=c, seed=s) for c, s in ((3.0, 1.0), (3, 1))]
    for report in reports:
        report.runtime_seconds = 0.0
    assert reports[0].to_json() == reports[1].to_json()


def test_difftension_tolerance_has_a_floor():
    # difftension compares sums of the same tension fields, so it is rounding noise;
    # at tolerance 0 it passes under the floor while identities with real residuals fail
    report = run_diagnostics(get_builtin("centroaffine").spec, tolerance=0.0, count=10, seed=1)
    difftension = report.checks["difftension"]
    assert 0.0 < difftension.max_residual <= pipeline.DIFFTENSION_FLOOR
    assert difftension.status == "pass"
    assert report.failed_checks and "difftension" not in report.failed_checks
    assert pipeline.DIFFTENSION_FLOOR == 1e-12
