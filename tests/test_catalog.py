"""Builtin catalog: every instance reproduces its expected flags and closed forms."""

import numpy as np
import pytest
from closed_forms import CLOSED_FORMS

from statmanifold import (
    builtin_names,
    centroaffine_power_surface,
    evaluate_spec,
    flat_constant_cubic,
    get_builtin,
    hyperbolic_ball,
    run_diagnostics,
    sphere_stereographic,
)

FLAG_KEYS = (
    "codazzi",
    "ric_symmetric",
    "conjugate_symmetric",
    "equiaffine",
    "semi_equiaffine",
    "constant_curvature",
)


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_reproduces_expected_flags(name):
    instance = get_builtin(name)
    report = run_diagnostics(instance.spec)
    assert report.exit_code() == 0, report.failed_checks
    for key in FLAG_KEYS:
        expected = instance.expected.get(key)
        if isinstance(expected, bool):
            assert report.flags[key] is expected, (name, key)
    lam = instance.expected.get("constant_curvature")
    if isinstance(lam, float):
        assert report.constant_curvature["is_constant"]
        assert report.constant_curvature["lambda"] == pytest.approx(lam, abs=1e-8)


def test_every_builtin_has_closed_forms():
    assert sorted(CLOSED_FORMS) == sorted(builtin_names())


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_oracles(name):
    instance = get_builtin(name)
    geom, stat, _ = evaluate_spec(instance.spec, count=25)
    pts = geom.points
    oracle = CLOSED_FORMS[name](instance.spec)
    if "metric" in oracle:
        np.testing.assert_allclose(geom.g, oracle["metric"](pts), atol=1e-11)
    if "christoffel" in oracle:
        np.testing.assert_allclose(geom.gamma, oracle["christoffel"](pts), atol=1e-11)
    if "ricci" in oracle:
        np.testing.assert_allclose(geom.ricci, oracle["ricci"](pts), atol=1e-9)
    if "nabla_coefficients" in oracle:
        np.testing.assert_allclose(stat.nabla, oracle["nabla_coefficients"](pts), atol=1e-11)
    if "eta" in oracle:
        np.testing.assert_allclose(stat.eta, oracle["eta"](pts), atol=1e-11)
    if "tchebychev" in oracle:
        np.testing.assert_allclose(stat.T, oracle["tchebychev"](pts), atol=1e-11)
    if "difference" in oracle:
        np.testing.assert_allclose(stat.K, oracle["difference"](pts), atol=1e-11)
    if "tchebychev_operator" in oracle:
        np.testing.assert_allclose(stat.tch, oracle["tchebychev_operator"](pts), atol=1e-9)
    if "scalar_curvature" in instance.expected:
        np.testing.assert_allclose(
            geom.scalar, instance.expected["scalar_curvature"], atol=1e-8
        )


def test_centroaffine_equiaffine_exponents():
    report = run_diagnostics(centroaffine_power_surface(1.0, 1.0).spec)
    assert report.flags["equiaffine"]
    report = run_diagnostics(centroaffine_power_surface(1.0, 2.0).spec)
    assert not report.flags["equiaffine"]
    assert report.flags["semi_equiaffine"]


def test_flat_cubic_tchebychev_closed_form():
    inst = flat_constant_cubic(2, {"111": 2.0})
    geom, stat, _ = evaluate_spec(inst.spec, count=5)
    np.testing.assert_allclose(stat.T, np.broadcast_to([-1.0, 0.0], stat.T.shape))


def test_builtin_parameter_validation():
    with pytest.raises(ValueError):
        centroaffine_power_surface(0.0, 1.0)
    with pytest.raises(ValueError):
        sphere_stereographic(2, -1.0)
    with pytest.raises(ValueError):
        hyperbolic_ball(2, 1.0)
    with pytest.raises(ValueError):
        flat_constant_cubic(1)
    with pytest.raises(KeyError):
        get_builtin("no-such-instance")


def test_export_roundtrip(tmp_path):
    instance = get_builtin("centroaffine")
    path = tmp_path / "spec.json"
    instance.spec.save(path)
    from statmanifold import ManifoldSpec

    loaded = ManifoldSpec.load(path)
    assert loaded.to_json() == instance.spec.to_json()
    assert loaded.content_hash() == instance.spec.content_hash()
