"""Dense tensor algebra at a point: contraction, index raising and lowering,
metric inner products, orthonormal frames.

Components are plain ndarrays of shape (m,)*rank with a variance signature
(one of ``UP``/``DOWN`` per slot).  Dimensions are capped at 8; everything is
stored dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import MAX_DIM

UP = "up"
DOWN = "down"

_LETTERS = "abcdefgh"
_PAIR_LETTERS = "mnopqrst"


class MetricNotPositiveDefinite(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class PointTensor:
    """Multi-index component array at a point with a variance signature."""

    components: np.ndarray
    variance: tuple

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "variance", tuple(self.variance))
        if comp.ndim != len(self.variance):
            raise ValueError("variance signature length must equal tensor rank")
        if comp.ndim > 0:
            m = comp.shape[0]
            if comp.shape != (m,) * comp.ndim:
                raise ValueError("component array must be cubical (m,)*rank")
            if m > MAX_DIM:
                raise ValueError(f"dimension {m} exceeds the dense limit {MAX_DIM}")
        for flag in self.variance:
            if flag not in (UP, DOWN):
                raise ValueError(f"variance flags must be {UP!r} or {DOWN!r}")

    @property
    def rank(self):
        return self.components.ndim

    @property
    def dim(self):
        return self.components.shape[0] if self.rank else 0


def contract(t, slot_a, slot_b):
    """Einstein contraction of one up slot against one down slot."""
    if t.variance[slot_a] == t.variance[slot_b]:
        raise ValueError("contraction requires slots of opposite variance")
    comp = np.trace(t.components, axis1=slot_a, axis2=slot_b)
    variance = tuple(f for s, f in enumerate(t.variance) if s not in (slot_a, slot_b))
    return PointTensor(comp, variance)


def raise_index(t, slot, g_inv):
    if t.variance[slot] != DOWN:
        raise ValueError("raise_index requires a covariant slot")
    comp = np.moveaxis(np.tensordot(np.asarray(g_inv, float), t.components, axes=(1, slot)), 0, slot)
    variance = t.variance[:slot] + (UP,) + t.variance[slot + 1 :]
    return PointTensor(comp, variance)


def lower_index(t, slot, g):
    if t.variance[slot] != UP:
        raise ValueError("lower_index requires a contravariant slot")
    comp = np.moveaxis(np.tensordot(np.asarray(g, float), t.components, axes=(1, slot)), 0, slot)
    variance = t.variance[:slot] + (DOWN,) + t.variance[slot + 1 :]
    return PointTensor(comp, variance)


def inner(g, a, b):
    """Full metric pairing of two tensors with identical signatures.

    Each shared slot is contracted with g (both slots contravariant) or with
    g^{-1} (both covariant); the result is a scalar, symmetric and positive
    semidefinite in its arguments.
    """
    if a.variance != b.variance:
        raise ValueError("inner requires matching variance signatures")
    if a.rank == 0:
        return float(a.components * b.components)
    if a.rank > len(_LETTERS):
        raise ValueError("rank too large")
    g = np.asarray(g, dtype=float)
    g_inv = np.linalg.inv(g)
    spec_a = _LETTERS[: a.rank]
    spec_b = _PAIR_LETTERS[: b.rank]
    operands = [a.components, b.components]
    specs = [spec_a, spec_b]
    for s, flag in enumerate(a.variance):
        operands.append(g if flag == UP else g_inv)
        specs.append(spec_a[s] + spec_b[s])
    return float(np.einsum(",".join(specs) + "->", *operands))


def orthonormal_frame(g):
    """Orthonormal frame from the inverse transpose of the Cholesky factor.

    Accepts a metric matrix (m, m) or a batch (..., m, m); column i of the
    result is the i-th frame vector, so E^T G E = I.
    """
    g = np.asarray(g, dtype=float)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as err:
        raise MetricNotPositiveDefinite("metric is not positive definite") from err
    return np.swapaxes(np.linalg.inv(chol), -1, -2)
