"""Truncated multivariate Taylor jets: forward-mode derivatives up to order 3.

A jet stores the Taylor coefficients of a scalar quantity at a point, one
coefficient per monomial of total degree <= order in up to ``MAX_DIM`` chart
coordinates.  Coefficient arrays carry an arbitrary leading batch shape, so a
single ``Jet`` can hold the expansion at many sample points at once and all
arithmetic is vectorized over the batch.

A jet tensor is a ``Jet`` whose batch shape ends in the tensor axes: the
metric on N points has coefficients ``(N, m, m, ncoeff)``, so ``.value`` is
``(N, m, m)`` and ``.gradient()`` appends the derivative axis last.  The frames'
jet tensors are coefficient-major: ``coeff`` views an ``(ncoeff, N, m, m)`` array,
so ``.value`` and every coefficient are contiguous and a truncation is a prefix.
``jet_einsum`` is the one contraction of jet tensors, skipping exactly-zero
coefficient slabs; ``jet_partial`` gathers all first partials at once through
``JetSpace.partial_table``, the one derivative table; the Hessian is two first partials.

Conventions:

* coefficients are Taylor coefficients ``c_a = D_a f / a!`` indexed by
  exponent vectors ``a`` ordered by (total degree, lexicographic position);
  truncating to a lower order is therefore a prefix slice;
* mixed-partial symmetry holds by construction (one slot per exponent vector);
* arithmetic between jets of different orders truncates to the lower order.

Products use a precomputed dense scatter table per (dim, order); compositions with
elementary functions use a Horner evaluation of the truncated series, which is
exact in the truncated algebra because the non-constant part is nilpotent.
Background: Griewank, Utke & Walther, Math. Comp. 69 (2000).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations_with_replacement

import numpy as np

MAX_ORDER = 3
MAX_DIM = 8


class JetDomainError(ValueError):
    """A jet operation left its domain (zero divisor, log of non-positive, ...).

    ``where`` is a boolean mask over the batch marking the offending entries,
    or None when the operand was unbatched.
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


def _require_domain(bad, message):
    """Raise JetDomainError(message, bad) if the mask ``bad`` marks any entry."""
    if np.any(bad):
        raise JetDomainError(message, bad)


def _exponent_vectors(dim, order):
    exps = []
    for degree in range(order + 1):
        for combo in combinations_with_replacement(range(dim), degree):
            e = [0] * dim
            for v in combo:
                e[v] += 1
            exps.append(tuple(e))
    return exps


class JetSpace:
    """Index tables for jets of a fixed dimension and order."""

    def __init__(self, dim, order):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        self.dim = dim
        self.order = order
        self.exponents = _exponent_vectors(dim, order)
        self.ncoeff = len(self.exponents)
        self.position = {e: i for i, e in enumerate(self.exponents)}
        self.degrees = np.array([sum(e) for e in self.exponents])

    # tables are kept per space; spaces come from jet_space, which keeps each one for good
    @cache
    def product_table(self):
        """(ti, tj, tk, scatter): out[tk] += a[ti] * b[tj], or (a[ti] * b[tj]) @ scatter.

        The scatter matrix is dense with one 1.0 per row; its largest
        instance (dim 8, order 3) is 969 x 165.
        """
        ti, tj, tk = [], [], []
        for i, ea in enumerate(self.exponents):
            for j, eb in enumerate(self.exponents):
                if self.degrees[i] + self.degrees[j] > self.order:
                    continue
                ec = tuple(x + y for x, y in zip(ea, eb))
                ti.append(i)
                tj.append(j)
                tk.append(self.position[ec])
        scatter = np.zeros((len(ti), self.ncoeff))
        scatter[np.arange(len(ti)), tk] = 1.0
        return np.array(ti), np.array(tj), np.array(tk), scatter

    @cache
    def partial_table(self):
        """(src, factor), each (dim, ncoeff of the order-1 lower space): coefficient q of
        the partial along variable d is ``factor[d, q] * coeff[src[d, q]]``."""
        lower = jet_space(self.dim, self.order - 1)
        src = np.empty((self.dim, lower.ncoeff), dtype=int)
        factor = np.empty((self.dim, lower.ncoeff))
        for d in range(self.dim):
            for q, e in enumerate(lower.exponents):
                src[d, q] = self.position[tuple(x + (v == d) for v, x in enumerate(e))]
                factor[d, q] = e[d] + 1
        return src, factor


@cache
def jet_space(dim, order):
    return JetSpace(dim, order)


class Jet:
    """Taylor expansion of a scalar at one point or a batch of points."""

    __slots__ = ("space", "coeff")

    def __init__(self, space, coeff):
        self.space = space
        self.coeff = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, space, value, batch_shape=()):
        value = np.asarray(value, dtype=float)
        coeff = np.zeros(np.broadcast_shapes(value.shape, batch_shape) + (space.ncoeff,))
        coeff[..., 0] = value
        return cls(space, coeff)

    @classmethod
    def variable(cls, space, var, value):
        if not 0 <= var < space.dim:
            raise ValueError(f"variable index {var} out of range for dim {space.dim}")
        value = np.asarray(value, dtype=float)
        coeff = np.zeros(value.shape + (space.ncoeff,))
        coeff[..., 0] = value
        if space.order >= 1:
            coeff[..., 1 + var] = 1.0
        return cls(space, coeff)

    # -- accessors ---------------------------------------------------------

    @property
    def dim(self):
        return self.space.dim

    @property
    def order(self):
        return self.space.order

    @property
    def batch_shape(self):
        return self.coeff.shape[:-1]

    @property
    def value(self):
        return self.coeff[..., 0]

    def gradient(self):
        if self.order < 1:
            raise ValueError("gradient requires a jet of order >= 1")
        return self.coeff[..., 1 : 1 + self.dim]

    def hessian(self):
        if self.order < 2:
            raise ValueError("hessian requires a jet of order >= 2")
        return jet_partial(jet_partial(self)).value

    def truncated(self, order):
        if order > self.order:
            raise ValueError("cannot extend a jet to a higher order")
        if order == self.order:
            return self
        space = jet_space(self.dim, order)
        return Jet(space, self.coeff[..., : space.ncoeff])

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other):
        if self.dim != other.dim:
            raise ValueError("jets have mismatched dimensions")
        order = min(self.order, other.order)
        return self.truncated(order), other.truncated(order)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            return Jet(a.space, a.coeff + b.coeff)
        other = np.asarray(other, dtype=float)
        head = self.coeff[..., :1] + other[..., None]
        tail = np.broadcast_to(self.coeff[..., 1:], head.shape[:-1] + (self.space.ncoeff - 1,))
        return Jet(self.space, np.concatenate([head, tail], axis=-1))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeff)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._aligned(other)
            if a.order == 0:  # the table's one pair: the values' product, bit for bit
                return Jet(a.space, a.coeff * b.coeff)
            ti, tj, _, scatter = a.space.product_table()
            return Jet(a.space, (a.coeff[..., ti] * b.coeff[..., tj]) @ scatter)
        other = np.asarray(other, dtype=float)
        return Jet(self.space, self.coeff * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- composition with elementary functions -----------------------------

    def compose(self, derivatives):
        """Evaluate phi(self) given ``derivatives[k] = phi^(k)(self.value)``, read for k <= order."""
        order = self.order
        perturbation = Jet(self.space, self.coeff.copy())
        perturbation.coeff[..., 0] = 0.0
        result = Jet.constant(
            self.space,
            np.asarray(derivatives[order], dtype=float) / math.factorial(order),
            self.batch_shape,
        )
        for k in range(order - 1, -1, -1):
            result = result * perturbation
            result = result + np.asarray(derivatives[k], dtype=float) / math.factorial(k)
        return result

    def exp(self):
        e = np.exp(self.value)
        return self.compose([e] * (self.order + 1))

    def log(self):
        v = self.value
        _require_domain(v <= 0, "log of a non-positive value")
        return self.compose([np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3])

    def sin(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self.compose([s, c, -s, -c])

    def cos(self):
        s, c = np.sin(self.value), np.cos(self.value)
        return self.compose([c, -s, -c, s])

    def sqrt(self):
        v = self.value
        _require_domain(v <= 0, "sqrt of a non-positive value")
        r = np.sqrt(v)
        return self.compose([r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)])

    def reciprocal(self):
        v = self.value
        _require_domain(v == 0, "division by zero")
        return self.compose([1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4])

    def powc(self, exponent):
        """Power with a constant exponent e: phi^(k)(v) = e (e - 1) ... (e - k + 1) v^(e - k)."""
        exponent, v = float(exponent), self.value
        if exponent.is_integer():
            _require_domain((v == 0) & (exponent < 0), "zero base with a negative exponent")
        else:
            _require_domain(v <= 0, "non-integer power of a non-positive base")
        derivs, falling = [], 1.0
        for k in range(self.order + 1):
            derivs.append(np.zeros_like(v) if falling == 0 else falling * np.power(v, exponent - k))
            falling *= exponent - k
        return self.compose(derivs)


# -- jet tensors: a Jet whose batch shape ends in the tensor axes ------------


def coefficient_major(shape):
    """An empty array of ``shape`` (..., ncoeff), the coefficient axis outermost in memory."""
    return np.moveaxis(np.empty(shape[-1:] + shape[:-1]), 0, -1)


def jet_partial(jet):
    """All first partials, coefficient-major; appends the derivative axis last, drops one order."""
    src, factor = jet.space.partial_table()
    partials = np.moveaxis(jet.coeff, -1, 0)[src.T]  # (lower ncoeff, dim, *batch)
    partials *= factor.T.reshape(factor.T.shape + (1,) * (partials.ndim - 2))
    return Jet(jet_space(jet.dim, jet.order - 1), np.moveaxis(partials, (0, 1), (-1, -2)))


def _matrices(x, term, rows, cols, size):
    """``x`` (ncoeff, *batch, *term axes) as (ncoeff, *batch, rows, cols) matrices of ``size``:
    a view if ``term`` is rows + cols, a transposed view if it is cols + rows, else a copy."""
    lead = x.shape[: x.ndim - len(term)]
    if term == cols + rows:
        return x.reshape(lead + size[::-1]).swapaxes(-1, -2)
    if term != rows + cols:
        axes = [len(lead) + term.index(c) for c in rows + cols]
        x = np.ascontiguousarray(x.transpose(*range(len(lead)), *axes))
    return x.reshape(lead + size)


def _live(x, nbatch):
    """Per coefficient of ``x`` (ncoeff, *batch, ...), whether its slab is not all zero."""
    live = x[(slice(None),) + (slice(1),) * nbatch].any(axis=tuple(range(1, x.ndim)))
    live[~live] = [x[i].any() for i in np.flatnonzero(~live)]
    return live


def jet_einsum(subscripts, a, b):
    """Two-operand einsum of jet tensors (explicit ``->`` form); the one jet contraction.

    The subscripts name the tensor axes at the end of each operand's batch shape, each
    at most once; leading batch axes broadcast.  An index is either summed (in both
    operands, not in the output) or free in exactly one operand.  The result has the
    lower of the two orders and is coefficient-major.  Each operand is read
    coefficient-first as batched matrices, (free, summed) for ``a`` and (summed, free)
    for ``b``: a view when its subscripts list its axes in that order, a transposed view
    when in the reverse, and a copy only when neither fits, as in ``"aib,bja->ij"``.
    Each product-table pair (i, j) -> k is one ``@`` added into coefficient k, skipped when
    either slab is exactly zero at every point (read at the first point, in full only where
    that is zero); with no pair left, neither operand is read as matrices.  The bits are the
    full table's: the sum starts at +0.0 and a skipped pair adds only +-0, except that a
    non-finite entry facing a zero slab no longer makes NaN.
    """
    lhs, arrow, rhs = subscripts.partition("->")
    terms = lhs.split(",")
    if not arrow or len(terms) != 2 or any(len(set(t)) < len(t) for t in terms):
        raise ValueError(f"malformed jet subscripts {subscripts!r}")
    sa, sb = terms
    summed = "".join(c for c in sa if c in sb)
    free_a, free_b = ("".join(c for c in s if c not in t) for s, t in ((sa, sb), (sb, sa)))
    if sorted(rhs) != sorted(free_a + free_b):
        raise ValueError(f"unsupported jet product {subscripts!r}")
    space = jet_space(a.dim, min(a.order, b.order))
    x, y = (np.moveaxis(op.coeff[..., : space.ncoeff], -1, 0) for op in (a, b))
    if x.ndim <= len(sa) or y.ndim <= len(sb):
        raise ValueError(f"subscripts {subscripts!r} do not match the operand ranks")
    extent = dict(zip(sa, x.shape[x.ndim - len(sa) :])) | dict(zip(sb, y.shape[y.ndim - len(sb) :]))
    size = {s: math.prod(extent[c] for c in s) for s in (summed, free_a, free_b)}
    batch = np.broadcast_shapes(x.shape[1 : x.ndim - len(sa)], y.shape[1 : y.ndim - len(sb)])
    acc = np.zeros((space.ncoeff, *batch, *(extent[c] for c in free_a + free_b)))
    live = [_live(v, v.ndim - 1 - len(s)) for v, s in ((x, sa), (y, sb))]
    ti, tj, tk, _ = space.product_table()
    keep = live[0][ti] & live[1][tj]
    if keep.any():
        x = _matrices(x, sa, free_a, summed, (size[free_a], size[summed]))
        y = _matrices(y, sb, summed, free_b, (size[summed], size[free_b]))
        for i, j, k in zip(ti[keep], tj[keep], tk[keep]):
            acc[k] += (x[i] @ y[j]).reshape(acc.shape[1:])
    out_axes = [1 + len(batch) + (free_a + free_b).index(c) for c in rhs]
    return Jet(space, acc.transpose(*range(1, len(batch) + 1), *out_axes, 0))
