"""Expression DSL: parsing, errors with offsets, jet evaluation, fd oracle."""

import numpy as np
import pytest

from statmanifold import (
    EvalDomainError,
    ExprSyntaxError,
    NonConstantExponentError,
    UnknownIdentifierError,
    eval_jet,
    fd_jet,
    parse_expression,
    random_polynomial_cubic,
    to_source,
)
from statmanifold.expr import MAX_DEPTH, central_differences, fd_stencil
from statmanifold.jets import Jet

# the fd-versus-jet corpus: every operator and call at least once
CORPUS = [
    ("x1*x1 + 2*x2 - 0.5", (0.2, 2.0)),
    ("1/(x1 + x2 + 1)", (0.2, 2.0)),
    ("exp(x1*x2)", (-0.4, 0.3)),
    ("log(x1 + 2)", (0.5, 1.0)),
    ("sin(x1)*cos(x2)", (0.1, 0.7)),
    ("sqrt(x1 + 3)", (0.5, 1.5)),
    ("pow(x1 + 2, 2.5)", (0.4, 1.1)),
    ("pow(x1 + 2, -2)", (0.4, 1.1)),
    ("-x1/(x2 + 2) + x1*x2*x1", (0.3, 0.9)),
]


def test_parse_centroaffine_metric_component():
    ast = parse_expression(
        "1/(a1+a2+1) * a1*(a1+1)/(x1*x1)", ["x1", "x2"], {"a1": 1.0, "a2": 2.0}
    )
    value = eval_jet(ast, np.array([2.0, 1.0]), 0).value
    assert value == pytest.approx((1.0 / 4.0) * 1.0 * 2.0 / 4.0)


def test_unknown_identifier_reports_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("x1 + x3", ["x1", "x2"])
    assert err.value.offset == 5


def test_pow_requires_constant_exponent():
    with pytest.raises(NonConstantExponentError):
        parse_expression("pow(x1, x2)", ["x1", "x2"])
    # parameters substitute to constants and are fine
    ast = parse_expression("pow(x1, a1 + 1)", ["x1"], {"a1": 1.0})
    assert eval_jet(ast, np.array([3.0]), 0).value == pytest.approx(9.0)


@pytest.mark.parametrize(
    "src, parameters, offset",
    [
        ("pow(x1, 1/0)", {}, 8),
        ("pow(x1, 1/a)", {"a": 0.0}, 8),
        ("pow(x1,  2 + 3/(a - a))", {"a": 1.5}, 9),
        ("pow(x1 + 1, -(1/0))", {}, 12),
    ],
)
def test_pow_exponent_dividing_by_zero_is_named_at_its_offset(src, parameters, offset):
    # folding the constant exponent must not raise a bare ZeroDivisionError
    with pytest.raises(EvalDomainError) as err:
        parse_expression(src, ["x1"], parameters)
    assert err.value.offset == offset
    assert str(err.value) == f"pow exponent divides by zero at offset {offset}"


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x1 + ", ["x1"])
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x1", ["x1"])
    with pytest.raises(ExprSyntaxError):
        parse_expression("x1 @ 2", ["x1"])
    with pytest.raises(ExprSyntaxError):
        parse_expression("sin", ["x1"])
    with pytest.raises(ExprSyntaxError):
        parse_expression("", ["x1"])


@pytest.mark.parametrize(
    "src", ["(" * 300 + "x1" + ")" * 300, " + ".join(["x1"] * 3000)], ids=["parentheses", "long-sum"]
)
def test_too_deep_expression_is_a_syntax_error(src):
    with pytest.raises(ExprSyntaxError, match=f"nests deeper than {MAX_DEPTH} levels at offset") as err:
        parse_expression(src, ["x1"])
    assert 0 <= err.value.offset <= len(src)


def test_expression_at_the_depth_bound_is_accepted():
    ast = parse_expression(" + ".join(["x1"] * MAX_DEPTH), ["x1"])  # a left chain MAX_DEPTH deep
    assert eval_jet(ast, np.array([0.5]), 3).gradient()[0] == MAX_DEPTH
    assert parse_expression(to_source(ast), ["x1"]) == ast
    with pytest.raises(ExprSyntaxError):
        parse_expression(" + ".join(["x1"] * (MAX_DEPTH + 1)), ["x1"])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_largest_random_cubic_is_within_the_depth_bound(seed):
    # the parse that validate() runs first; its m = 8 probe takes seconds
    spec = random_polynomial_cubic(8, 2, seed).spec
    for src in spec.cubic.values():
        parse_expression(src, spec.coordinates, spec.parameters)


def test_roundtrip_pretty_print():
    rng = np.random.default_rng(17)
    for src, _ in CORPUS:
        ast = parse_expression(src, ["x1", "x2"])
        again = parse_expression(to_source(ast), ["x1", "x2"])
        pts = 0.3 + rng.random((10, 2))
        np.testing.assert_allclose(
            eval_jet(ast, pts, 0).value, eval_jet(again, pts, 0).value, rtol=1e-15
        )


def test_precedence_and_associativity():
    # evaluate with a dummy 1-d point; no variables are referenced
    ast = parse_expression("2 - 3 - 4", [])
    assert eval_jet(ast, np.array([0.0]), 0).value == pytest.approx(-5.0)
    assert eval_jet(parse_expression("12/3/2", []), np.array([0.0]), 0).value == pytest.approx(2.0)
    assert eval_jet(parse_expression("2 + 3*4", []), np.array([0.0]), 0).value == pytest.approx(14.0)
    assert eval_jet(parse_expression("-2*3", []), np.array([0.0]), 0).value == pytest.approx(-6.0)


def test_eval_jet_matches_fd_on_corpus():
    rng = np.random.default_rng(99)
    for src, (lo, hi) in CORPUS:
        ast = parse_expression(src, ["x1", "x2"])
        pts = lo + (hi - lo) * rng.random((100, 2))
        jet = eval_jet(ast, pts, 2)
        _, fd_gradient, fd_hessian = fd_jet(ast, pts, 2, 1e-4)
        scale = 1.0 + np.abs(jet.gradient())
        assert np.max(np.abs(jet.gradient() - fd_gradient) / scale) < 1e-4
        scale = 1.0 + np.abs(jet.hessian())
        assert np.max(np.abs(jet.hessian() - fd_hessian) / scale) < 1e-4


def test_eval_jet_leibniz_rule():
    # the jet of a parsed product equals the jet product of the parsed factors
    rng = np.random.default_rng(55)
    f_src, g_src = "sin(x1) + x2*x2", "exp(x2/2) - x1"
    f = parse_expression(f_src, ["x1", "x2"])
    g = parse_expression(g_src, ["x1", "x2"])
    fg = parse_expression(f"({f_src})*({g_src})", ["x1", "x2"])
    pts = rng.random((20, 2))
    left = eval_jet(fg, pts, 3)
    right = eval_jet(f, pts, 3) * eval_jet(g, pts, 3)
    np.testing.assert_allclose(left.coeff, right.coeff, atol=1e-13)


def test_fd_first_derivative_examples():
    ast = parse_expression("x1*x1", ["x1"])
    _, gradient, _ = fd_jet(ast, np.array([3.0]), 1, 1e-3)
    assert abs(gradient[0] - 6.0) < 1e-6

    ast = parse_expression("1/x1", ["x1"])
    _, _, hessian = fd_jet(ast, np.array([2.0]), 2, 1e-3)
    assert abs(hessian[0, 0] - 0.25) < 1e-4


def test_fd_exact_on_quadratics():
    # central differences are exact on polynomials of degree <= 2
    ast = parse_expression("3*x1*x1 - 2*x1*x2 + x2 - 7", ["x1", "x2"])
    pts = np.array([[0.4, -1.2]])
    jet = eval_jet(ast, pts, 1)
    _, gradient, _ = fd_jet(ast, pts, 1, 1e-2)
    np.testing.assert_allclose(gradient, jet.gradient(), atol=1e-11)


def test_central_differences_evaluate_each_stencil_point_once():
    # one stacked stencil: the value, 2m axis points and 4 points per
    # off-diagonal pair, 2m^2 + 1 distinct rows per point, the order-1 stencil first
    m, h = 3, 1e-3
    point = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])

    def f(q):
        return np.sin(q[..., 0]) * q[..., 1] + q[..., 1] * q[..., 2] * q[..., 2]

    stencil = fd_stencil(point, h)
    assert stencil.shape == (len(point), 2 * m * m + 1, m)
    for rows in stencil:
        assert len({row.tobytes() for row in rows}) == 2 * m * m + 1
    assert np.array_equal(fd_stencil(point, h, order=1), stencil[:, : 2 * m + 1])
    value, gradient, hessian = central_differences(f(stencil), 1, h)
    # the textbook stencil, one formula per entry
    e = np.eye(m) * h
    assert np.array_equal(value, f(point))
    for i in range(m):
        assert np.array_equal(gradient[:, i], (f(point + e[i]) - f(point - e[i])) / (2.0 * h))
        for j in range(m):
            if i == j:
                want = (f(point + e[i]) - 2.0 * value + f(point - e[i])) / h**2
            else:
                lo, hi = min(i, j), max(i, j)
                want = (
                    f(point + e[lo] + e[hi]) - f(point + e[lo] - e[hi])
                    - f(point - e[lo] + e[hi]) + f(point - e[lo] - e[hi])
                ) / (4.0 * h**2)
            assert np.array_equal(hessian[:, i, j], want)
    first = central_differences(f(stencil[:, : 2 * m + 1]), 1, h, order=1)
    assert np.array_equal(first[1], gradient) and first[2] is None


def test_constant_factor_gives_the_jet_product_bit_for_bit():
    # a constant left factor scales the coefficients instead of multiplying jets
    pts = np.array([[0.3, -0.7], [1.1, 0.4]])
    inner = eval_jet(parse_expression("sin(x1*x2) + x2", ["x1", "x2"]), pts, 3)
    product = Jet.constant(inner.space, 2.5, pts.shape[:-1]) * inner
    scaled = eval_jet(parse_expression("2.5*(sin(x1*x2) + x2)", ["x1", "x2"]), pts, 3)
    assert np.array_equal(scaled.coeff, product.coeff)


def test_domain_error_names_subexpression():
    ast = parse_expression("1/(x1 - 1) + x1", ["x1"])
    with pytest.raises(EvalDomainError) as err:
        eval_jet(ast, np.array([[0.5], [1.0]]), 1)
    assert "x1 - 1" in str(err.value)
    assert "1.0" in str(err.value)

    ast = parse_expression("log(x1)", ["x1"])
    with pytest.raises(EvalDomainError):
        eval_jet(ast, np.array([-2.0]), 1)


@pytest.mark.parametrize("order", [1, 2])
def test_fd_jet_is_central_differences_of_the_values(order):
    ast = parse_expression("sin(x1*x2) + exp(x2/3)", ["x1", "x2"])
    pts = 0.2 + np.random.default_rng(4).random((6, 2))
    got = fd_jet(ast, pts, order, 1e-3)
    stencil = fd_stencil(pts, 1e-3, order)
    want = central_differences(eval_jet(ast, stencil, 0).value, 1, 1e-3, order)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if order == 1:
        assert got[2] is None and want[2] is None
    else:
        assert np.array_equal(got[2], want[2])


def test_fd_step_validation():
    ast = parse_expression("x1", ["x1"])
    with pytest.raises(ValueError):
        fd_jet(ast, np.array([1.0]), 3, 1e-3)
    for h in (-1e-3, 0.0, np.nan, np.inf, 1e-162):  # 1e-162 squares to 0
        with pytest.raises(ValueError, match="finite and positive"):
            fd_jet(ast, np.array([1.0]), 1, h)
    assert fd_jet(ast, np.array([1.0]), 2, 2e-162)[2][0, 0] == 0.0  # its square is subnormal


def test_fd_step_leaving_domain_raises():
    ast = parse_expression("sqrt(x1)", ["x1"])
    with pytest.raises(EvalDomainError):
        fd_jet(ast, np.array([0.05]), 1, 0.1)


def test_eval_jet_leaves_no_cyclic_garbage():
    # a result must be freed by reference counting alone, not by the cyclic collector
    import gc

    ast = parse_expression("sin(x1)*x2 + exp(x1/(x2 + 3))", ["x1", "x2"])
    pts = np.random.default_rng(3).uniform(0.1, 1.0, (50, 2))
    gc.collect()
    gc.disable()
    try:
        eval_jet(ast, pts, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
