"""Spec files: validation, sampling determinism, compilation."""

from itertools import product

import numpy as np
import pytest

from statmanifold import (
    ManifoldSpec,
    SampleSpec,
    SpecValidationError,
    eval_jet,
    flat_constant_cubic,
    get_builtin,
    parse_expression,
    random_symmetric_constants,
)
from statmanifold import manifold


def minimal_spec(**overrides):
    data = {
        "name": "test",
        "dim": 2,
        "coordinates": ["x1", "x2"],
        "metric": {"11": "1", "12": "0", "22": "1"},
        "cubic": {"111": "x1"},
        "parameters": {},
        "sample": {"box": {"x1": [-1.0, 1.0], "x2": [-1.0, 1.0]}, "count": 10, "seed": 1,
                   "strategy": "uniform"},
    }
    data.update(overrides)
    return ManifoldSpec.from_dict(data)


def test_valid_spec_passes():
    minimal_spec().validate()


def test_missing_metric_component():
    spec = minimal_spec(metric={"11": "1", "22": "1"})
    with pytest.raises(SpecValidationError, match="missing metric component '12'"):
        spec.validate()


def test_unsorted_cubic_key_rejected():
    spec = minimal_spec(cubic={"121": "x1"})
    with pytest.raises(SpecValidationError, match="sorted index triple"):
        spec.validate()


def test_unsorted_metric_key_rejected():
    spec = minimal_spec(metric={"11": "1", "21": "0", "22": "1"})
    with pytest.raises(SpecValidationError, match="sorted index pair"):
        spec.validate()


def test_duplicate_and_reserved_names():
    with pytest.raises(SpecValidationError, match="duplicate coordinate"):
        minimal_spec(coordinates=["x1", "x1"]).validate()
    with pytest.raises(SpecValidationError, match="invalid coordinate name"):
        minimal_spec(coordinates=["x1", "sin"]).validate()


def test_dimension_range():
    with pytest.raises(SpecValidationError, match="dim must be"):
        minimal_spec(dim=1, coordinates=["x1"], metric={"11": "1"}, cubic={},
                     sample={"box": {"x1": [0, 1]}, "count": 4, "seed": 1,
                             "strategy": "uniform"}).validate()


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("dim", 2.0, "dim must be an integer in 2..8, got 2.0"),
        ("count", 2.5, "sample count must be an integer, got 2.5"),
        ("seed", 1.0, "sample seed must be an integer, got 1.0"),
        ("dim", "2", "dim must be an integer in 2..8, got '2'"),
        ("dim", True, "dim must be an integer in 2..8, got True"),
        ("count", "3", "sample count must be an integer, got '3'"),
        ("count", True, "sample count must be an integer, got True"),
        ("seed", "1", "sample seed must be an integer, got '1'"),
        ("seed", False, "sample seed must be an integer, got False"),
    ],
)
def test_non_integral_fields_set_in_python_are_spec_errors(field, value, problem):
    # from_dict converts a whole float; a spec built or edited in Python is not converted
    spec = minimal_spec()
    setattr(spec if field == "dim" else spec.sample, field, value)
    with pytest.raises(SpecValidationError) as err:
        spec.validate()
    assert err.value.problems == [problem]


def test_expression_errors_are_collected():
    spec = minimal_spec(metric={"11": "1 +", "12": "0", "22": "x9"})
    with pytest.raises(SpecValidationError) as err:
        spec.validate()
    text = str(err.value)
    assert "metric[11]" in text and "metric[22]" in text


def test_shared_sources_report_one_problem_per_component():
    # each distinct source is parsed and probed once; each component still gets its line
    bad_parse = minimal_spec(metric={"11": "1 +", "12": "0", "22": "1 +"})
    with pytest.raises(SpecValidationError) as err:
        bad_parse.validate()
    assert [p.split(":")[0] for p in err.value.problems] == ["metric[11]", "metric[22]"]
    bad_domain = minimal_spec(cubic={"111": "log(x1)", "112": "x1", "122": "log(x1)"})
    with pytest.raises(SpecValidationError) as err:
        bad_domain.validate()
    assert [p.split(" leaves its domain")[0] for p in err.value.problems] == ["cubic[111]", "cubic[122]"]


def test_box_must_be_ordered_and_complete():
    with pytest.raises(SpecValidationError, match="lo < hi"):
        minimal_spec(sample={"box": {"x1": [1.0, -1.0], "x2": [0.0, 1.0]},
                             "count": 4, "seed": 1, "strategy": "uniform"}).validate()
    with pytest.raises(SpecValidationError, match="box for 'x1' must have finite bounds"):
        minimal_spec(sample={"box": {"x1": [-np.inf, 1.0], "x2": [0.0, 1.0]},
                             "count": 4, "seed": 1, "strategy": "uniform"}).validate()
    with pytest.raises(SpecValidationError, match="missing coordinate"):
        minimal_spec(sample={"box": {"x1": [0.0, 1.0]}, "count": 4, "seed": 1,
                             "strategy": "uniform"}).validate()
    with pytest.raises(SpecValidationError, match="strategy"):
        minimal_spec(sample={"box": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]},
                             "count": 4, "seed": 1, "strategy": "sobol"}).validate()
    with pytest.raises(SpecValidationError, match="sample seed must be nonnegative"):
        minimal_spec(sample={"box": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]},
                             "count": 4, "seed": -1, "strategy": "uniform"}).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", 2.7), ("sample count", 10.5), ("sample seed", 1.9),
        ("dim", "2"), ("sample count", "3"), ("sample seed", True),
    ],
    ids=["dim", "count", "seed", "dim-str", "count-str", "seed-bool"],
)
def test_non_integral_counts_are_spec_errors(field, value):
    data = minimal_spec().to_dict()
    data["dim"] = 2.0  # an integral number is accepted
    assert ManifoldSpec.from_dict(data).dim == 2
    if field == "dim":
        data["dim"] = value
    else:
        data["sample"][field.split()[1]] = value
    with pytest.raises(SpecValidationError, match=f"{field} must be an integer, got {value!r}"):
        ManifoldSpec.from_dict(data)


def test_probe_detects_domain_violation():
    # 1/x1 blows up inside a box straddling zero
    spec = minimal_spec(metric={"11": "1 + 1/x1", "12": "0", "22": "1"})
    with pytest.raises(SpecValidationError, match="leaves its domain"):
        spec.validate()


def test_probe_rejects_non_finite_jets():
    # exp(800 x1) overflows at x1 > 0.89 inside the box; the report would be NaN
    spec = minimal_spec(cubic={"111": "exp(800*x1)"})
    with pytest.raises(SpecValidationError) as err:
        spec.validate()
    (problem,) = err.value.problems
    assert problem.startswith("cubic[111] is not finite to order 2 at probe point [")
    point = [float(v) for v in problem.split("[")[2].rstrip("]").split(",")]
    assert 800 * point[0] > np.log(np.finfo(float).max)


def test_probe_detects_indefinite_metric():
    spec = minimal_spec(metric={"11": "-1", "12": "0", "22": "1"})
    with pytest.raises(SpecValidationError, match="positive definite") as err:
        spec.validate()
    assert "at probe point [" in str(err.value)


def test_sampling_is_deterministic_and_has_corners():
    spec = minimal_spec()
    a = spec.sample_points()
    b = spec.sample_points()
    np.testing.assert_array_equal(a, b)
    assert a.shape == (10 + 4, 2)  # count + 2^m corners
    corners = a[-4:]
    assert set(map(tuple, corners.round(12))) == {
        (-0.8, -0.8), (-0.8, 0.8), (0.8, -0.8), (0.8, 0.8)
    }
    c = spec.sample_points(seed=2)
    assert not np.array_equal(a[:10], c[:10])


def test_grid_strategy_covers_count():
    spec = minimal_spec(sample={"box": {"x1": [0.0, 1.0], "x2": [0.0, 1.0]},
                                "count": 10, "seed": 1, "strategy": "grid"})
    pts = spec.sample_points()
    assert pts.shape[0] == 16 + 4  # 4x4 grid plus corners
    np.testing.assert_array_equal(pts, spec.sample_points())


def test_points_respect_box():
    spec = minimal_spec()
    pts = spec.sample_points(count=200)
    assert np.all(pts >= -1.0) and np.all(pts <= 1.0)


def test_content_hash_tracks_content():
    a = minimal_spec().content_hash()
    assert a == minimal_spec().content_hash()
    b = minimal_spec(cubic={"111": "x2"}).content_hash()
    assert a != b


def test_compiled_cubic_is_totally_symmetric():
    spec = minimal_spec(cubic={"112": "x1 + x2"})
    compiled = spec.compile()
    pts = spec.sample_points(count=5)
    jets = compiled.cubic_jets(pts, 2)
    v = jets.value
    c112 = v[:, 0, 0, 1]
    assert np.allclose(v[:, 0, 1, 0], c112)
    assert np.allclose(v[:, 1, 0, 0], c112)
    assert np.allclose(v[:, 1, 1, 1], 0.0)
    assert v.shape == (pts.shape[0], 2, 2, 2)


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("parameter", "1.0", "parameter 'a1' must be a number, got '1.0'"),
        ("parameter", True, "parameter 'a1' must be a number, got True"),
        ("box", [True, 3.0], "sample box for 'x1' must be a number, got True"),
    ],
    ids=["parameter-str", "parameter-bool", "box-bool"],
)
def test_non_numbers_in_a_spec_document_are_spec_errors(field, value, problem):
    # a string or a bool is not a number, even where float() would convert it
    data = get_builtin("centroaffine").spec.to_dict()
    if field == "parameter":
        data["parameters"]["a1"] = value
    else:
        data["sample"]["box"]["x1"] = value
    with pytest.raises(SpecValidationError) as err:
        ManifoldSpec.from_dict(data)
    assert err.value.problems == [f"malformed spec object: {problem}"]


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("parameter", "abc", "parameter 'a1' must be a number, got 'abc'"),
        ("parameter", "1.0", "parameter 'a1' must be a number, got '1.0'"),
        ("box", ("0.5", "3.0"), "sample box for 'x1' must hold numbers, got ['0.5', '3.0']"),
    ],
    ids=["parameter-str", "parameter-numeric-str", "box-str"],
)
def test_non_numbers_set_in_python_are_spec_errors(field, value, problem):
    spec = get_builtin("centroaffine").spec
    if field == "parameter":
        spec.parameters["a1"] = value
    else:
        spec.sample.box["x1"] = value
    with pytest.raises(SpecValidationError) as err:
        spec.validate()
    assert err.value.problems == [problem]


def test_malformed_document_rejected():
    with pytest.raises(SpecValidationError):
        ManifoldSpec.from_dict({"name": "x"})


def test_sample_spec_roundtrip():
    spec = minimal_spec()
    again = ManifoldSpec.from_dict(spec.to_dict())
    assert again.to_json() == spec.to_json()
    assert isinstance(again.sample, SampleSpec)


def test_metric_jets_evaluate_each_distinct_expression_once(monkeypatch):
    spec = get_builtin("sphere-m3").spec
    compiled = spec.compile()
    evaluated = []

    def counted(ast, *args):
        evaluated.append(ast)
        return eval_jet(ast, *args)

    monkeypatch.setattr(manifold, "eval_jet", counted)
    compiled.metric_jets(spec.sample_points(count=5), 3)
    # one conformal factor on the diagonal, one zero off it
    parse = lambda src: parse_expression(src, spec.coordinates, spec.parameters)
    assert evaluated == [parse(spec.metric["11"]), parse("0")]


def test_compile_parses_and_probes_each_distinct_source_once(monkeypatch):
    spec = get_builtin("sphere-m3").spec
    parsed, evaluated = [], []

    def counted_parse(src, *args):
        parsed.append(src)
        return parse_expression(src, *args)

    def counted_eval(ast, *args):
        evaluated.append(ast)
        return eval_jet(ast, *args)

    monkeypatch.setattr(manifold, "parse_expression", counted_parse)
    monkeypatch.setattr(manifold, "eval_jet", counted_eval)
    compiled = spec.compile()
    assert parsed == [spec.metric["11"], "0"]
    assert len(evaluated) == 2  # the probe
    # the compiled sources hold the ASTs validation parsed
    assert list(compiled.sources["metric"].values()) == evaluated


@pytest.mark.parametrize(
    "spec, batch",
    [
        (get_builtin("sphere-m3").spec, None),
        (get_builtin("centroaffine").spec, None),
        (flat_constant_cubic(6, random_symmetric_constants(6, 1)).spec, None),
        (get_builtin("centroaffine").spec, (3, 3)),  # stacked (N, S, m), as a stencil is
        (flat_constant_cubic(8, random_symmetric_constants(8, 1)).spec, (6,)),
    ],
    ids=["sphere-m3", "centroaffine", "constant-cubic-m6", "centroaffine-stacked", "constant-cubic-m8"],
)
def test_component_tables_equal_a_per_component_loop(spec, batch):
    compiled = spec.compile()
    m = spec.dim
    points = spec.sample_points(count=7)
    if batch is not None:  # the leading points, in the batch shape
        points = points[: np.prod(batch)].reshape(*batch, m)

    def component(table, indices, order):
        src = table.get("".join(str(i + 1) for i in sorted(indices)))
        if src is None:  # a missing cubic component is zero
            return 0.0
        ast = parse_expression(src, spec.coordinates, spec.parameters)
        return eval_jet(ast, points, order).coeff

    for order in (0, 2, 3):
        metric = compiled.metric_jets(points, order).coeff
        cubic = compiled.cubic_jets(points, order).coeff
        oracle_metric, oracle_cubic = np.zeros_like(metric), np.zeros_like(cubic)
        for entry in product(range(m), repeat=2):
            oracle_metric[(..., *entry, slice(None))] = component(spec.metric, entry, order)
        for entry in product(range(m), repeat=3):
            oracle_cubic[(..., *entry, slice(None))] = component(spec.cubic, entry, order)
        assert np.array_equal(metric, oracle_metric)
        assert np.array_equal(cubic, oracle_cubic)
