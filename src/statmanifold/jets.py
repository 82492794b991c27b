"""Truncated multivariate Taylor jets: forward-mode derivatives up to order 3.

A jet stores the Taylor coefficients of a scalar quantity at a point, one
coefficient per monomial of total degree <= order in up to ``MAX_DIM`` chart
coordinates.  Coefficient arrays carry an arbitrary leading batch shape, so a
single ``Jet`` can hold the expansion at many sample points at once and all
arithmetic is vectorized over the batch.

Conventions:

* coefficients are Taylor coefficients ``c_a = D_a f / a!`` indexed by
  exponent vectors ``a`` ordered by (total degree, lexicographic position);
  truncating to a lower order is therefore a prefix slice;
* mixed-partial symmetry holds by construction (one slot per exponent vector);
* arithmetic between jets of different orders truncates to the lower order.

Products use a precomputed dense scatter table per (dim, order); compositions with
elementary functions use a Horner evaluation of the truncated series, which is
exact in the truncated algebra because the non-constant part is nilpotent.
"""

from __future__ import annotations

import math
from functools import lru_cache
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
        # number of coefficients of degree <= d, usable as a truncation slice
        self.ncoeff_at = [int(np.sum(self.degrees <= d)) for d in range(order + 1)]
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in e) for e in self.exponents], dtype=float
        )
        self._product = None
        self._derivative = {}
        self._hessian_slots = None
        self._third_slots = None

    def product_table(self):
        """(ti, tj, scatter) with out = (a[ti] * b[tj]) @ scatter.

        The scatter matrix is dense with one 1.0 per row; its largest
        instance (dim 8, order 3) is 969 x 165.
        """
        if self._product is None:
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
            self._product = (np.array(ti), np.array(tj), scatter)
        return self._product

    def derivative_table(self, var):
        """(src, factor) mapping coefficients onto the order-1 lower space."""
        if var not in self._derivative:
            lower = jet_space(self.dim, self.order - 1)
            src = np.empty(lower.ncoeff, dtype=int)
            fac = np.empty(lower.ncoeff)
            for q, e in enumerate(lower.exponents):
                bumped = tuple(x + (1 if v == var else 0) for v, x in enumerate(e))
                src[q] = self.position[bumped]
                fac[q] = e[var] + 1
            self._derivative[var] = (src, fac)
        return self._derivative[var]

    def hessian_slots(self):
        if self._hessian_slots is None:
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
            self._hessian_slots = (pos, fac)
        return self._hessian_slots

    def third_slots(self):
        if self._third_slots is None:
            m = self.dim
            pos = np.empty((m, m, m), dtype=int)
            fac = np.empty((m, m, m))
            for i in range(m):
                for j in range(m):
                    for k in range(m):
                        e = [0] * m
                        e[i] += 1
                        e[j] += 1
                        e[k] += 1
                        pos[i, j, k] = self.position[tuple(e)]
                        fac[i, j, k] = float(math.prod(math.factorial(x) for x in e))
            self._third_slots = (pos, fac)
        return self._third_slots


@lru_cache(maxsize=None)
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
    def from_derivatives(cls, dim, order, value, gradient=None, hessian=None, third=None):
        """Build a jet from derivative values (not Taylor coefficients)."""
        space = jet_space(dim, order)
        value = np.asarray(value, dtype=float)
        coeff = np.zeros(value.shape + (space.ncoeff,))
        coeff[..., 0] = value
        if order >= 1:
            coeff[..., 1 : 1 + dim] = np.asarray(gradient, dtype=float)
        if order >= 2 and hessian is not None:
            hessian = np.asarray(hessian, dtype=float)
            pos, fac = space.hessian_slots()
            for i in range(dim):
                for j in range(i, dim):
                    coeff[..., pos[i, j]] = hessian[..., i, j] / fac[i, j]
        if order >= 3 and third is not None:
            third = np.asarray(third, dtype=float)
            pos, fac = space.third_slots()
            for i in range(dim):
                for j in range(i, dim):
                    for k in range(j, dim):
                        coeff[..., pos[i, j, k]] = third[..., i, j, k] / fac[i, j, k]
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

    def third(self):
        if self.order < 3:
            raise ValueError("third derivatives require a jet of order >= 3")
        pos, fac = self.space.third_slots()
        return self.coeff[..., pos] * fac

    def derivative(self, var):
        """Partial derivative with respect to coordinate ``var``; drops one order."""
        if self.order < 1:
            raise ValueError("cannot differentiate a jet of order 0")
        src, fac = self.space.derivative_table(var)
        return Jet(jet_space(self.dim, self.order - 1), self.coeff[..., src] * fac)

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
            ti, tj, scatter = a.space.product_table()
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
        """Power with a constant exponent."""
        exponent = float(exponent)
        v = self.value
        if exponent.is_integer():
            n = int(exponent)
            if n < 0:
                bad = v == 0
                if np.any(bad):
                    raise JetDomainError("zero base with a negative exponent", bad)
            derivs = []
            for k in range(self.order + 1):
                falling = math.prod(n - t for t in range(k))
                if falling == 0:
                    derivs.append(np.zeros_like(v))
                else:
                    derivs.append(falling * np.power(v, float(n - k)))
            return self.compose(derivs)
        bad = v <= 0
        if np.any(bad):
            raise JetDomainError("non-integer power of a non-positive base", bad)
        derivs = []
        for k in range(self.order + 1):
            falling = math.prod(exponent - t for t in range(k))
            derivs.append(falling * np.power(v, exponent - k))
        return self.compose(derivs)


def coordinate_jets(points, order):
    """Variable jets for each chart coordinate; ``points`` is (m,) or (N, m)."""
    points = np.asarray(points, dtype=float)
    m = points.shape[-1]
    space = jet_space(m, order)
    return [Jet.variable(space, v, points[..., v]) for v in range(m)]


# -- jet-valued tensors (numpy object arrays of Jet components) ------------


def jet_tensor(shape):
    return np.empty(shape, dtype=object)


def jet_coefficients(tensor, order):
    """Dense coefficients up to ``order``: shape ``batch + tensor.shape + (ncoeff,)``."""
    if isinstance(tensor, Jet):
        return tensor.truncated(order).coeff
    parts = [jet.truncated(order).coeff for jet in tensor.flat]
    batch = np.broadcast_shapes(*(p.shape[:-1] for p in parts))
    out = np.empty(batch + (len(parts), parts[0].shape[-1]))
    for k, part in enumerate(parts):
        out[..., k, :] = part
    return out.reshape(batch + tensor.shape + (-1,))


def jet_components(space, coeff, rank):
    """Jet tensor over the ``rank`` axes of ``coeff`` before its coefficient axis."""
    shape = coeff.shape[coeff.ndim - 1 - rank : -1]
    out = jet_tensor(shape)
    for idx in np.ndindex(shape):
        out[idx] = Jet(space, coeff[(...,) + idx + (slice(None),)])
    return out


def jet_product_einsum(space, subscripts, a, b, out):
    """Add the two-operand einsum of dense coefficient arrays into ``out``.

    The coefficient axes are last and left out of ``subscripts``.  The product
    is truncated to ``space``: one plain einsum per coefficient pair (i, j) -> k
    of its product table, so no temporary is larger than one coefficient of
    the result.
    """
    ti, tj, scatter = space.product_table()
    for i, j, k in zip(ti, tj, np.nonzero(scatter)[1]):
        out[..., k] += np.einsum(subscripts, a[..., i], b[..., j])
    return out


def jet_values(tensor):
    """Component values, batch axis first: shape ``batch + tensor.shape``."""
    return jet_coefficients(tensor, 0)[..., 0]


def jet_gradients(tensor):
    """Component gradients, batch first, derivative axis last."""
    return jet_coefficients(tensor, 1)[..., 1:]


def jet_partial(tensor):
    """Componentwise partial derivatives; appends the derivative axis last."""
    m = tensor[next(np.ndindex(tensor.shape))].dim
    out = jet_tensor(tensor.shape + (m,))
    for idx in np.ndindex(tensor.shape):
        for v in range(m):
            out[idx + (v,)] = tensor[idx].derivative(v)
    return out


def jet_einsum(subscripts, *operands):
    """einsum over jet-valued tensors (explicit ``->`` form, no broadcasting).

    Index extents are read from operand shapes; contracted indices are summed
    with jet arithmetic.  A rank-0 result is returned as a plain ``Jet``.
    """
    lhs, rhs = subscripts.replace(" ", "").split("->")
    terms = lhs.split(",")
    if len(terms) != len(operands):
        raise ValueError("operand count does not match subscripts")
    extent = {}
    for term, op in zip(terms, operands):
        shape = op.shape if isinstance(op, np.ndarray) else ()
        if len(term) != len(shape):
            raise ValueError(f"subscript {term!r} does not match operand rank {len(shape)}")
        for letter, n in zip(term, shape):
            extent.setdefault(letter, n)
    summed = sorted(set("".join(terms)) - set(rhs))
    out_shape = tuple(extent[letter] for letter in rhs)
    out = jet_tensor(out_shape) if out_shape else None

    def component(assign):
        acc = None
        for sidx in np.ndindex(tuple(extent[s] for s in summed)):
            assign.update(zip(summed, sidx))
            term_val = None
            for term, op in zip(terms, operands):
                factor = op[tuple(assign[c] for c in term)] if term else op
                term_val = factor if term_val is None else term_val * factor
            acc = term_val if acc is None else acc + term_val
        return acc

    if out is None:
        return component({})
    for oidx in np.ndindex(out_shape):
        out[oidx] = component(dict(zip(rhs, oidx)))
    return out
