"""Blocked evaluation: reports do not depend on the block size, memory is
bounded by the block, not the sample, and non-finite values between the probe
points end as spec errors."""

import json
import tracemalloc

import numpy as np
import pytest

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
    statistical,
)
from statmanifold import expr, manifold
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
    pipeline._crosscheck_block(compiled, spec.sample_points(seed=1), pipeline.FD_STEP)
    # 7 for the frames, 3 for the metric stencil, 7 for T's stencil (metric and
    # cubic at order 0) and 2 for the probe (its jet and its fd stencil)
    assert len(calls) == 7 + 3 + 7 + 2


def _sphere_with_polynomial_cubic():
    spec = ManifoldSpec.from_dict(get_builtin("sphere-m3").spec.to_dict())
    spec.cubic = {"111": "x1*x2 + 1", "123": "x3*x3 - x1", "223": "2*x2", "333": "x1*x2*x3"}
    return spec


@pytest.mark.parametrize(
    "spec", [_sphere_with_polynomial_cubic(), get_builtin("centroaffine").spec], ids=lambda s: s.name
)
def test_crosscheck_orders_give_the_compared_quantities(spec):
    # metric 2 and cubic 1 against the diagnostics' 3 and 2, in the crosscheck's own measure
    compiled = spec.compile()
    points = spec.sample_points(seed=1)
    low_geometry, low_stat = pipeline._frames(compiled, points, 2, 1, reads=("tch",))
    geometry, stat = pipeline._frames(compiled, points, 3, 2)
    for low, full in (
        (low_geometry.gamma, geometry.gamma),
        (low_geometry.riemann, geometry.riemann),
        (low_stat.tch, stat.tch),
    ):
        assert np.max(pipeline._relative(full, low)) <= 1e-13


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
