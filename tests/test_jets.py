"""Jet algebra: analytic derivative examples, algebraic laws, truncation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statmanifold
from statmanifold import Jet, JetDomainError, coordinate_jets, jet_space
from statmanifold.jets import jet_einsum, jet_tensor, jet_values


def test_square_at_three():
    space = jet_space(1, 2)
    x = Jet.variable(space, 0, 3.0)
    j = x * x
    assert j.value == pytest.approx(9.0)
    assert j.gradient()[0] == pytest.approx(6.0)
    assert j.hessian()[0, 0] == pytest.approx(2.0)


def test_reciprocal_at_two():
    space = jet_space(1, 2)
    x = Jet.variable(space, 0, 2.0)
    j = 1.0 / x
    assert j.value == pytest.approx(0.5)
    assert j.gradient()[0] == pytest.approx(-0.25)
    assert j.hessian()[0, 0] == pytest.approx(0.25)


def test_exp_product_hessian_at_origin():
    space = jet_space(2, 2)
    x = Jet.variable(space, 0, 0.0)
    y = Jet.variable(space, 1, 0.0)
    j = (x * y).exp()
    assert j.value == pytest.approx(1.0)
    np.testing.assert_allclose(j.gradient(), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(j.hessian(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_third_derivatives_of_cube():
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, 2.0)
    j = x * x * x
    assert j.value == pytest.approx(8.0)
    assert j.gradient()[0] == pytest.approx(12.0)
    assert j.hessian()[0, 0] == pytest.approx(12.0)
    assert j.third()[0, 0, 0] == pytest.approx(6.0)


def test_elementary_functions_match_closed_forms():
    rng = np.random.default_rng(5)
    pts = 0.3 + rng.random(50)
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, pts)

    j = x.log()
    np.testing.assert_allclose(j.gradient()[:, 0], 1.0 / pts, rtol=1e-12)
    np.testing.assert_allclose(j.hessian()[:, 0, 0], -1.0 / pts**2, rtol=1e-12)
    np.testing.assert_allclose(j.third()[:, 0, 0, 0], 2.0 / pts**3, rtol=1e-12)

    j = x.sqrt()
    np.testing.assert_allclose(j.gradient()[:, 0], 0.5 / np.sqrt(pts), rtol=1e-12)
    np.testing.assert_allclose(j.hessian()[:, 0, 0], -0.25 * pts**-1.5, rtol=1e-12)

    j = x.sin()
    np.testing.assert_allclose(j.third()[:, 0, 0, 0], -np.cos(pts), rtol=1e-12, atol=1e-15)

    j = x.powc(-2.5)
    np.testing.assert_allclose(j.gradient()[:, 0], -2.5 * pts**-3.5, rtol=1e-12)

    j = x.powc(3)
    np.testing.assert_allclose(j.third()[:, 0, 0, 0], 6.0 * np.ones_like(pts), rtol=1e-12)


def test_integer_power_at_zero_base():
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, 0.0)
    j = x.powc(2)
    assert j.value == pytest.approx(0.0)
    assert j.hessian()[0, 0] == pytest.approx(2.0)
    assert j.third()[0, 0, 0] == pytest.approx(0.0)


def test_leibniz_rule_on_random_jets():
    rng = np.random.default_rng(42)
    space = jet_space(3, 3)
    for _ in range(25):
        a = Jet(space, rng.standard_normal(space.ncoeff))
        b = Jet(space, rng.standard_normal(space.ncoeff))
        prod = a * b
        for v in range(3):
            lhs = prod.derivative(v)
            rhs = a.derivative(v) * b.truncated(2) + a.truncated(2) * b.derivative(v)
            np.testing.assert_allclose(lhs.coeff, rhs.coeff, atol=1e-12)


def test_product_commutes_and_distributes():
    rng = np.random.default_rng(7)
    space = jet_space(2, 3)
    a = Jet(space, rng.standard_normal((4, space.ncoeff)))
    b = Jet(space, rng.standard_normal((4, space.ncoeff)))
    c = Jet(space, rng.standard_normal((4, space.ncoeff)))
    np.testing.assert_allclose((a * b).coeff, (b * a).coeff, atol=1e-13)
    np.testing.assert_allclose((a * (b + c)).coeff, (a * b + a * c).coeff, atol=1e-13)


def test_division_roundtrip():
    rng = np.random.default_rng(11)
    space = jet_space(2, 3)
    a = Jet(space, rng.standard_normal((8, space.ncoeff)))
    b = Jet(space, 1.5 + rng.random((8, space.ncoeff)))
    np.testing.assert_allclose(((a / b) * b).coeff, a.coeff, atol=1e-12)


def test_mixed_order_arithmetic_truncates():
    s3 = jet_space(2, 3)
    s1 = jet_space(2, 1)
    a = Jet.variable(s3, 0, 2.0)
    b = Jet.variable(s1, 1, 5.0)
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_domain_errors():
    space = jet_space(1, 2)
    x = Jet.variable(space, 0, np.array([2.0, -1.0]))
    with pytest.raises(JetDomainError):
        x.log()
    with pytest.raises(JetDomainError):
        x.sqrt()
    zero = Jet.variable(space, 0, 0.0)
    with pytest.raises(JetDomainError):
        zero.reciprocal()
    with pytest.raises(JetDomainError):
        zero.powc(-1)


def test_from_derivatives_roundtrip():
    rng = np.random.default_rng(3)
    value = rng.standard_normal(5)
    gradient = rng.standard_normal((5, 2))
    hessian = rng.standard_normal((5, 2, 2))
    hessian = hessian + np.swapaxes(hessian, -1, -2)
    jet = Jet.from_derivatives(2, 2, value, gradient, hessian)
    np.testing.assert_allclose(jet.value, value)
    np.testing.assert_allclose(jet.gradient(), gradient)
    np.testing.assert_allclose(jet.hessian(), hessian)


def test_coordinate_jets_batched():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    x1, x2 = coordinate_jets(pts, 2)
    np.testing.assert_allclose(x1.value, [1.0, 3.0])
    np.testing.assert_allclose(x2.gradient(), [[0.0, 1.0], [0.0, 1.0]])


def test_jet_einsum_matches_numeric_einsum():
    rng = np.random.default_rng(9)
    space = jet_space(2, 2)
    a = jet_tensor((2, 2))
    b = jet_tensor((2, 2))
    for i in range(2):
        for j in range(2):
            a[i, j] = Jet(space, rng.standard_normal((3, space.ncoeff)))
            b[i, j] = Jet(space, rng.standard_normal((3, space.ncoeff)))
    out = jet_einsum("ik,kj->ij", a, b)
    np.testing.assert_allclose(
        jet_values(out), np.einsum("pik,pkj->pij", jet_values(a), jet_values(b)), atol=1e-13
    )
    scalar = jet_einsum("ij,ij->", a, b)
    np.testing.assert_allclose(
        scalar.value, np.einsum("pij,pij->p", jet_values(a), jet_values(b)), atol=1e-13
    )


def test_compose_chain_rule_against_reference():
    # phi(f) with f = x^2 + 1 at x = 1.3: compare against d^k/dx^k log(x^2+1)
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, 1.3)
    f = x * x + 1.0
    j = f.log()
    v = 1.3
    u = v * v + 1.0
    d1 = 2 * v / u
    d2 = 2.0 / u - (2 * v) ** 2 / u**2
    d3 = -12 * v / u**2 + 2 * (2 * v) ** 3 / u**3
    assert j.value == pytest.approx(math.log(u), rel=1e-13)
    assert j.gradient()[0] == pytest.approx(d1, rel=1e-13)
    assert j.hessian()[0, 0] == pytest.approx(d2, rel=1e-13)
    assert j.third()[0, 0, 0] == pytest.approx(d3, rel=1e-12)


def test_import_needs_numpy_only():
    # numpy is the only declared runtime dependency (pyproject.toml)
    src = str(Path(statmanifold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, statmanifold; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
