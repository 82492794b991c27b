"""Jet algebra: analytic derivative examples, algebraic laws, truncation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statmanifold
from statmanifold import Jet, JetDomainError, jet_space
from statmanifold import jets
from statmanifold.jets import jet_einsum, jet_partial


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
    assert jet_partial(j).hessian()[0, 0, 0] == pytest.approx(6.0)


def test_elementary_functions_match_closed_forms():
    rng = np.random.default_rng(5)
    pts = 0.3 + rng.random(50)
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, pts)

    j = x.log()
    np.testing.assert_allclose(j.gradient()[:, 0], 1.0 / pts, rtol=1e-12)
    np.testing.assert_allclose(j.hessian()[:, 0, 0], -1.0 / pts**2, rtol=1e-12)
    np.testing.assert_allclose(jet_partial(j).hessian()[:, 0, 0, 0], 2.0 / pts**3, rtol=1e-12)

    j = x.sqrt()
    np.testing.assert_allclose(j.gradient()[:, 0], 0.5 / np.sqrt(pts), rtol=1e-12)
    np.testing.assert_allclose(j.hessian()[:, 0, 0], -0.25 * pts**-1.5, rtol=1e-12)

    j = x.sin()
    np.testing.assert_allclose(
        jet_partial(j).hessian()[:, 0, 0, 0], -np.cos(pts), rtol=1e-12, atol=1e-15
    )

    j = x.powc(-2.5)
    np.testing.assert_allclose(j.gradient()[:, 0], -2.5 * pts**-3.5, rtol=1e-12)

    j = x.powc(3)
    np.testing.assert_allclose(jet_partial(j).hessian()[:, 0, 0, 0], 6.0, rtol=1e-12)


def test_integer_power_at_zero_base():
    space = jet_space(1, 3)
    x = Jet.variable(space, 0, 0.0)
    j = x.powc(2)
    assert j.value == pytest.approx(0.0)
    assert j.hessian()[0, 0] == pytest.approx(2.0)
    assert jet_partial(j).hessian()[0, 0, 0] == pytest.approx(0.0)


def test_leibniz_rule_on_random_jets():
    rng = np.random.default_rng(42)
    space = jet_space(3, 3)
    for _ in range(25):
        a = Jet(space, rng.standard_normal(space.ncoeff))
        b = Jet(space, rng.standard_normal(space.ncoeff))
        lhs = jet_partial(a * b)
        rhs = jet_partial(a) * b.truncated(2) + a.truncated(2) * jet_partial(b)
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


def _integer_power_derivatives(v, n, order):
    """phi^(k)(v) for an integer exponent n: falling factorial in integers, 0 where it vanishes."""
    derivs = []
    for k in range(order + 1):
        falling = math.prod(n - t for t in range(k))
        derivs.append(np.zeros_like(v) if falling == 0 else falling * np.power(v, float(n - k)))
    return derivs


def _real_power_derivatives(v, exponent, order):
    """phi^(k)(v) for a non-integer exponent."""
    return [math.prod(exponent - t for t in range(k)) * np.power(v, exponent - k) for k in range(order + 1)]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("exponent", [-2, -1, 0, 1, 2, 3, 2.5, -0.5])
def test_powc_is_the_power_rule_bit_for_bit(exponent, order):
    values = [0.3, 1.7, 4.0]
    if float(exponent).is_integer():
        values += [-2.5, -0.4] + ([0.0] if exponent >= 0 else [])
    rng = np.random.default_rng(11)
    space = jet_space(2, order)
    coeff = rng.standard_normal((len(values), space.ncoeff))
    coeff[:, 0] = values
    x = Jet(space, coeff)
    v = x.value
    if float(exponent).is_integer():
        derivs = _integer_power_derivatives(v, int(exponent), order)
    else:
        derivs = _real_power_derivatives(v, float(exponent), order)
    assert x.powc(exponent).coeff.tobytes() == x.compose(derivs).coeff.tobytes()


def test_order_zero_product_is_the_product_table_route_bit_for_bit(monkeypatch):
    # at order 0 Jet.__mul__ multiplies the values; the table route gathers its one
    # pair and scatters it through a 1 x 1 matmul: compared on every centroaffine source
    spec = statmanifold.get_builtin("centroaffine").spec
    compiled = spec.compile()
    points = spec.sample_points(seed=1)
    direct = {label: compiled.rows(label, points, 0, "sample") for label in ("metric", "cubic")}
    products = []

    def table_route(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeff * np.asarray(other, dtype=float)[..., None])
        a, b = self._aligned(other)
        ti, tj, _, scatter = a.space.product_table()
        products.append(a.order)
        return Jet(a.space, (a.coeff[..., ti] * b.coeff[..., tj]) @ scatter)

    monkeypatch.setattr(Jet, "__mul__", table_route)
    monkeypatch.setattr(Jet, "__rmul__", table_route)
    for label, rows in direct.items():
        assert rows.tobytes() == compiled.rows(label, points, 0, "sample").tobytes(), label
    assert products and set(products) == {0}


def test_variable_jets_batched():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    space = jet_space(2, 2)
    x1, x2 = (Jet.variable(space, v, pts[:, v]) for v in range(2))
    np.testing.assert_allclose(x1.value, [1.0, 3.0])
    np.testing.assert_allclose(x2.gradient(), [[0.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(x1.hessian(), np.zeros((2, 2, 2)))


def test_jet_einsum_matches_numeric_einsum():
    rng = np.random.default_rng(9)
    space = jet_space(2, 2)
    a = Jet(space, rng.standard_normal((3, 2, 2, space.ncoeff)))
    b = Jet(space, rng.standard_normal((3, 2, 2, space.ncoeff)))
    out = jet_einsum("ik,kj->ij", a, b)
    np.testing.assert_allclose(
        out.value, np.einsum("pik,pkj->pij", a.value, b.value), atol=1e-13
    )
    scalar = jet_einsum("ij,ij->", a, b)
    np.testing.assert_allclose(
        scalar.value, np.einsum("pij,pij->p", a.value, b.value), atol=1e-13
    )


@pytest.mark.parametrize(
    "subscripts",
    ["kl,jli->kij", "ij,kij->k", "kij,kij->", "kl,kij->lij", "ia,kaj->kij", "jb,kib->kij", "ki,i->k"],
)
def test_jet_einsum_matches_component_products(subscripts):
    # oracle: the same contraction as a loop of scalar Jet products over components
    rng = np.random.default_rng(5)
    m, batch = 3, (4,)
    space = jet_space(m, 3)
    lhs, rhs = subscripts.split("->")
    terms = lhs.split(",")
    a, b = (Jet(space, rng.standard_normal(batch + (m,) * len(t) + (space.ncoeff,))) for t in terms)
    out = jet_einsum(subscripts, a, b)
    assert out.order == 3 and out.batch_shape == batch + (m,) * len(rhs)
    summed = sorted(set(lhs) - set(rhs) - {","})
    for out_index in np.ndindex((m,) * len(rhs)):
        expected = Jet.constant(space, 0.0, batch)
        for summed_index in np.ndindex((m,) * len(summed)):
            at = dict(zip(rhs, out_index)) | dict(zip(summed, summed_index))
            a_part, b_part = (
                Jet(space, op.coeff[(slice(None), *(at[c] for c in term))])
                for op, term in zip((a, b), terms)
            )
            expected = expected + a_part * b_part
        np.testing.assert_allclose(
            out.coeff[(slice(None), *out_index)], expected.coeff, rtol=0, atol=1e-12
        )


def test_jet_einsum_on_non_contiguous_operands():
    # jet_einsum copies its operands into contiguous stacks; oracle: at each point,
    # the product table's coefficient pairs (i, j) -> k, one numeric einsum each
    rng = np.random.default_rng(17)
    m, n = 3, 4
    space, high = jet_space(m, 2), jet_space(m, 3)
    # a truncated prefix: the coefficient axis of an order-3 jet, sliced
    prefix = Jet(high, rng.standard_normal((n, m, m, high.ncoeff))).truncated(2)
    # a transposed view: the two tensor axes swapped in place
    transposed = Jet(space, np.swapaxes(rng.standard_normal((n, m, m, space.ncoeff)), 1, 2))
    # a broadcast batch: one point's coefficients seen at every point, stride 0
    broadcast = Jet(space, np.broadcast_to(rng.standard_normal((m, space.ncoeff)), (n, m, space.ncoeff)))
    assert not any(op.coeff.flags.c_contiguous for op in (prefix, transposed, broadcast))
    ti, tj, tk, _ = space.product_table()
    for subscripts, a, b in (
        ("ia,aj->ij", prefix, transposed),
        ("ji,j->i", transposed, broadcast),
        ("ja,a->j", prefix, broadcast),
    ):
        out = jet_einsum(subscripts, a, b)
        assert out.order == 2
        for p in range(n):
            expected = np.zeros(out.coeff.shape[1:])
            for i, j, k in zip(ti, tj, tk):
                expected[..., k] += np.einsum(subscripts, a.coeff[p, ..., i], b.coeff[p, ..., j])
            np.testing.assert_allclose(out.coeff[p], expected, rtol=0, atol=1e-12)


def _coefficient_major(array):
    # the same coefficients, stored with the coefficient axis outermost
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(array, -1, 0)), 0, -1)


@pytest.mark.parametrize("layouts", ["major-major", "last-last", "major-last", "last-major"])
@pytest.mark.parametrize(
    "subscripts",
    [
        "kl,lij->kij",  # both operands (free, summed) and (summed, free): views
        "ij,kij->k",  # b listed (free, summed): a transposed view
        "kl,ijl->kij",  # b transposed, as in K = g^-1 C
        "adB,AaC->ABCd",  # a transposed, b fits neither: a copy
        "aib,bja->ij",  # neither operand fits: two copies
        "ia,kaj->kij",  # b fits neither: a copy
    ],
)
def test_jet_einsum_matches_the_product_table_reference(subscripts, layouts):
    # oracle: the product table's coefficient pairs (i, j) -> k, one numpy einsum each,
    # on order-3 operands whose leading batch axes, (2, 1) and (3,), broadcast to (2, 3)
    rng = np.random.default_rng(23)
    m, space = 3, jet_space(3, 3)
    lhs, rhs = subscripts.split("->")
    operands = []
    for term, batch, layout in zip(lhs.split(","), ((2, 1), (3,)), layouts.split("-")):
        coeff = rng.standard_normal(batch + (m,) * len(term) + (space.ncoeff,))
        # coefficient-last is how eval_jet stores a jet; the frames store theirs coefficient-major
        operands.append(Jet(space, _coefficient_major(coeff) if layout == "major" else coeff))
    a, b = operands
    out = jet_einsum(subscripts, a, b)
    assert out.order == 3 and out.batch_shape == (2, 3) + (m,) * len(rhs)
    assert out.coeff.strides[-1] == max(out.coeff.strides)
    ti, tj, tk, _ = space.product_table()
    batched = f"...{lhs}->...{rhs}".replace(",", ",...")
    expected = np.zeros(out.coeff.shape)
    for i, j, k in zip(ti, tj, tk):
        expected[..., k] += np.einsum(batched, a.coeff[..., i], b.coeff[..., j])
    assert np.max(np.abs(out.coeff - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("high", ["a", "b"])
def test_jet_einsum_truncates_the_higher_operand(high):
    # the covariant derivative passes its operands truncated to the output order;
    # leaving one operand at order 3 must give the same coefficients, bit for bit
    rng = np.random.default_rng(13)
    m, batch = 3, (4,)

    def operand(name, rank):
        space = jet_space(m, 3 if name == high else 2)
        return Jet(space, rng.standard_normal(batch + (m,) * rank + (space.ncoeff,)))

    a, b = operand("a", 3), operand("b", 1)
    out = jet_einsum("Ada,a->Ad", a, b)
    expected = jet_einsum("Ada,a->Ad", a.truncated(2), b.truncated(2))
    assert out.order == 2
    np.testing.assert_array_equal(out.coeff, expected.coeff)


def _every_pair(monkeypatch, subscripts, a, b):
    # the product-table reference: every pair (i, j) -> k is one @, zero slabs included
    with monkeypatch.context() as patched:
        patched.setattr(jets, "_live", lambda x, nbatch: np.ones(len(x), dtype=bool))
        return jet_einsum(subscripts, a, b)


@pytest.mark.parametrize(
    "zeros",
    [{"a": [0, 2, 5]}, {"b": [1, 4, 9]}, {"a": [0, 3], "b": [0, 7]}, {"a": [4], "b": [2], "sign": -1}],
    ids=["in-a", "in-b", "in-both", "negative-zero"],
)
@pytest.mark.parametrize(
    "subscripts, layouts",
    [("ia,aj->ij", ("prefix", "transposed")), ("ji,j->i", ("transposed", "broadcast")),
     ("aib,bja->ij", ("transposed", "major"))],
)
def test_jet_einsum_skips_zero_slabs_bit_for_bit(monkeypatch, subscripts, layouts, zeros):
    # a skipped pair would only add +-0 to an accumulator that starts at +0.0, so the
    # result has the same bits as the full product-table loop; -0.0 slabs are zero too
    rng = np.random.default_rng(29)
    m, n, space, high = 3, 4, jet_space(3, 2), jet_space(3, 3)
    operands = []
    for name, term, layout in zip("ab", subscripts.split("->")[0].split(","), layouts):
        shape = (m,) * len(term) + (high.ncoeff if layout == "prefix" else space.ncoeff,)
        coeff = rng.standard_normal(shape if layout == "broadcast" else (n, *shape))
        coeff[..., zeros.get(name, [])] = zeros.get("sign", 1) * 0.0
        if layout == "broadcast":  # one point's coefficients seen at every point, stride 0
            coeff = np.broadcast_to(coeff, (n, *shape))
        elif layout == "prefix":  # an order-3 jet's coefficient axis, sliced
            coeff = coeff[..., : space.ncoeff]
        elif layout == "transposed":  # two tensor axes swapped in place
            coeff = np.swapaxes(coeff, 1, 2)
        operands.append(Jet(space, _coefficient_major(coeff) if layout == "major" else coeff))
    out = jet_einsum(subscripts, *operands)
    assert np.array_equal(out.coeff, _every_pair(monkeypatch, subscripts, *operands).coeff)
    assert out.coeff.strides[-1] == max(out.coeff.strides)


def test_jet_einsum_keeps_a_slab_zero_only_at_the_first_point(monkeypatch):
    # the first point is read first; a slab zero there is scanned over the whole batch
    rng = np.random.default_rng(31)
    space = jet_space(2, 2)
    a = Jet(space, np.zeros((3, 2, 2, space.ncoeff)))
    a.coeff[2, ..., 4] = rng.standard_normal((2, 2))
    b = Jet(space, rng.standard_normal((3, 2, 2, space.ncoeff)))
    out = jet_einsum("ik,kj->ij", a, b)
    assert np.any(out.coeff[2] != 0.0) and not np.any(out.coeff[:2])
    assert np.array_equal(out.coeff, _every_pair(monkeypatch, "ik,kj->ij", a, b).coeff)


def test_jet_einsum_of_a_zero_operand_is_zero_without_matrices(monkeypatch):
    def matrices(*args):
        raise AssertionError("no pair survives, so no operand is read as matrices")

    monkeypatch.setattr(jets, "_matrices", matrices)
    rng = np.random.default_rng(37)
    high, space = jet_space(3, 3), jet_space(3, 2)
    a = Jet(high, np.zeros((2, 1, 3, 3, 3, high.ncoeff)))
    b = Jet(space, rng.standard_normal((3, 3, 3, 3, space.ncoeff)))  # batches (2, 1) and (3,)
    out = jet_einsum("aib,bja->ij", a, b)
    assert out.order == 2 and out.coeff.shape == (2, 3, 3, 3, space.ncoeff)
    assert out.coeff.strides[-1] == max(out.coeff.strides)
    assert not np.any(out.coeff) and not np.any(np.signbit(out.coeff))


@pytest.mark.parametrize(
    "subscripts, ranks, message",
    [
        ("ij,jk->ijk", (2, 2), "unsupported jet product"),
        ("ij,ij->ij", (2, 2), "unsupported jet product"),
        ("ijk,k->ij", (2, 1), "do not match the operand ranks"),
        ("ij,jk->ik", (2, 1), "do not match the operand ranks"),
    ],
)
def test_jet_einsum_rejects_bad_subscripts(subscripts, ranks, message):
    space = jet_space(2, 1)
    a, b = (Jet(space, np.ones((2,) * rank + (space.ncoeff,))) for rank in ranks)
    with pytest.raises(ValueError, match=message):
        jet_einsum(subscripts, a, b)


@pytest.mark.parametrize(
    "subscripts, ranks", [("ij,jk", (2, 2)), ("ii,i->", (2, 1)), ("ij,jj->i", (2, 2))]
)
def test_jet_einsum_names_malformed_subscripts(subscripts, ranks):
    # a missing "->" or an index repeated inside one operand
    space = jet_space(2, 1)
    a, b = (Jet(space, np.ones((2,) * rank + (space.ncoeff,))) for rank in ranks)
    with pytest.raises(ValueError, match=f"malformed jet subscripts {subscripts!r}"):
        jet_einsum(subscripts, a, b)


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
    assert jet_partial(j).hessian()[0, 0, 0] == pytest.approx(d3, rel=1e-12)


def test_import_needs_numpy_only():
    # numpy is the only declared runtime dependency (pyproject.toml)
    src = str(Path(statmanifold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, statmanifold; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("dim", range(1, 9))
def test_hessian_is_the_taylor_definition(dim, order):
    # c_a = D_a f / a!: the Hessian is 2 c_ii on the diagonal and c_ij off it
    def expected(jet):
        space, eye = jet.space, np.eye(dim, dtype=int)
        hessian = np.empty(jet.batch_shape + (dim, dim))
        for i in range(dim):
            for j in range(dim):
                c = jet.coeff[..., space.position[tuple(eye[i] + eye[j])]]
                hessian[..., i, j] = 2.0 * c if i == j else c
        return hessian

    space = jet_space(dim, order)
    tensor = Jet(space, np.random.default_rng(dim).standard_normal((4, 2, 3, space.ncoeff)))
    assert np.array_equal(tensor.hessian(), expected(tensor))
    if order == 3:
        partial = jet_partial(tensor)
        assert np.array_equal(partial.hessian(), expected(partial))
