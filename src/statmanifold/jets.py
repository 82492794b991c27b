"""Truncated multivariate Taylor jets: forward-mode derivatives up to order 3.

A jet stores the Taylor coefficients of a scalar quantity at a point, one
coefficient per monomial of total degree <= order in up to ``MAX_DIM`` chart
coordinates.  Coefficient arrays carry an arbitrary leading batch shape, so a
single ``Jet`` can hold the expansion at many sample points at once and all
arithmetic is vectorized over the batch.

A jet tensor is a ``Jet`` whose batch shape ends in the tensor axes: the
metric on N points has coefficients ``(N, m, m, ncoeff)``, so ``.value`` is
``(N, m, m)`` and ``.gradient()`` appends the derivative axis last.
``jet_einsum`` is the one contraction of jet tensors, and ``jet_partial``
gathers all first partials at once.

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
    def derivative_table(self, var):
        """(src, factor) mapping coefficients onto the order-1 lower space."""
        lower = jet_space(self.dim, self.order - 1)
        src = np.empty(lower.ncoeff, dtype=int)
        fac = np.empty(lower.ncoeff)
        for q, e in enumerate(lower.exponents):
            bumped = tuple(x + (1 if v == var else 0) for v, x in enumerate(e))
            src[q] = self.position[bumped]
            fac[q] = e[var] + 1
        return src, fac

    @cache
    def hessian_slots(self):
        m = self.dim
        pos = np.empty((m, m), dtype=int)
        fac = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                pos[i, j] = self.position[tuple(e)]
                fac[i, j] = 2.0 if i == j else 1.0
        return pos, fac


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

    @classmethod
    def from_derivatives(cls, dim, order, value, gradient=None, hessian=None):
        """Build a jet from derivative values (not Taylor coefficients)."""
        space = jet_space(dim, order)
        value = np.asarray(value, dtype=float)
        coeff = np.zeros(value.shape + (space.ncoeff,))
        coeff[..., 0] = value
        if order >= 1:
            coeff[..., 1 : 1 + dim] = np.asarray(gradient, dtype=float)
        if order >= 2 and hessian is not None:
            pos, fac = space.hessian_slots()
            i, j = np.triu_indices(dim)
            coeff[..., pos[i, j]] = np.asarray(hessian, dtype=float)[..., i, j] / fac[i, j]
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
        pos, fac = self.space.hessian_slots()
        return self.coeff[..., pos] * fac

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
        """Evaluate phi(self) given ``derivatives[k] = phi^(k)(self.value)``."""
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
        bad = v <= 0
        if np.any(bad):
            raise JetDomainError("log of a non-positive value", bad)
        derivs = [np.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3]
        return self.compose(derivs[: self.order + 1])

    def sin(self):
        v = self.value
        s, c = np.sin(v), np.cos(v)
        return self.compose([s, c, -s, -c][: self.order + 1])

    def cos(self):
        v = self.value
        s, c = np.sin(v), np.cos(v)
        return self.compose([c, -s, -c, s][: self.order + 1])

    def sqrt(self):
        v = self.value
        bad = v <= 0
        if np.any(bad):
            raise JetDomainError("sqrt of a non-positive value", bad)
        r = np.sqrt(v)
        derivs = [r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)]
        return self.compose(derivs[: self.order + 1])

    def reciprocal(self):
        v = self.value
        bad = v == 0
        if np.any(bad):
            raise JetDomainError("division by zero", bad)
        derivs = [1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4]
        return self.compose(derivs[: self.order + 1])

    def powc(self, exponent):
        """Power with a constant exponent e: phi^(k)(v) = e (e - 1) ... (e - k + 1) v^(e - k)."""
        exponent = float(exponent)
        v = self.value
        if exponent.is_integer():
            bad, message = (v == 0) & (exponent < 0), "zero base with a negative exponent"
        else:
            bad, message = v <= 0, "non-integer power of a non-positive base"
        if np.any(bad):
            raise JetDomainError(message, bad)
        derivs, falling = [], 1.0
        for k in range(self.order + 1):
            derivs.append(np.zeros_like(v) if falling == 0 else falling * np.power(v, exponent - k))
            falling *= exponent - k
        return self.compose(derivs)


# -- jet tensors: a Jet whose batch shape ends in the tensor axes ------------


def jet_partial(jet):
    """All first partial derivatives; appends the derivative axis last, drops one order."""
    space = jet.space
    src, fac = map(np.array, zip(*(space.derivative_table(d) for d in range(space.dim))))
    partials = jet.coeff[..., src]
    partials *= fac
    return Jet(jet_space(space.dim, space.order - 1), partials)


def jet_einsum(subscripts, a, b):
    """Two-operand einsum of jet tensors (explicit ``->`` form); the one jet contraction.

    The subscripts name the tensor axes at the end of each operand's batch
    shape; leading batch axes are shared.  An index is either summed (in
    both operands, not in the output) or free in exactly one operand.  The
    result has the lower of the two orders.  Both operands are copied once
    into coefficient-first stacks of batched (free, summed) and (summed,
    free) matrices; each coefficient pair (i, j) -> k of the product table
    is then one ``@`` added into coefficient k of a coefficient-first
    accumulator.  The result is a coefficient-last view of that accumulator.
    """
    lhs, rhs = subscripts.split("->")
    sa, sb = lhs.split(",")
    summed = [c for c in sa if c in sb]
    free_a = [c for c in sa if c not in sb]
    free_b = [c for c in sb if c not in sa]
    if sorted(rhs) != sorted(free_a + free_b):
        raise ValueError(f"unsupported jet product {subscripts!r}")
    space = jet_space(a.dim, min(a.order, b.order))
    extent = {}

    def matrices(jet, term, rows, cols):
        x = jet.coeff
        nbatch = x.ndim - 1 - len(term)
        if nbatch < 0:
            raise ValueError(f"subscripts {subscripts!r} do not match the operand ranks")
        extent.update(zip(term, x.shape[nbatch:-1]))
        axes = [nbatch + term.index(c) for c in rows + cols]
        x = x[..., : space.ncoeff].transpose(x.ndim - 1, *range(nbatch), *axes)
        size = [math.prod(extent[c] for c in letters) for letters in (rows, cols)]
        return x.reshape(x.shape[: nbatch + 1] + tuple(size))

    a = matrices(a, sa, free_a, summed)
    b = matrices(b, sb, summed, free_b)
    batch = np.broadcast_shapes(a.shape[1:-2], b.shape[1:-2])
    acc = np.zeros((space.ncoeff, *batch, *(extent[c] for c in free_a + free_b)))
    ti, tj, tk, _ = space.product_table()
    for i, j, k in zip(ti, tj, tk):
        acc[k] += (a[i] @ b[j]).reshape(acc.shape[1:])
    out_axes = [1 + len(batch) + (free_a + free_b).index(c) for c in rhs]
    return Jet(space, acc.transpose(*range(1, len(batch) + 1), *out_axes, 0))
