"""Riemannian kernel on sampled chart points.

All numeric arrays are batched with the point axis first.  Index conventions:

* ``g[p, i, j]`` metric, ``dg[p, i, j, l]`` = d_l g_ij (derivative axis last);
* ``gamma[p, k, i, j]`` = Gamma^k_ij, ``dgamma[p, k, i, j, l]`` = d_l Gamma^k_ij;
* ``riemann[p, l, i, j, k]``: R(e_i, e_j)e_k = riemann[l, i, j, k] e_l for the
  curvature convention R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
  - nabla_{[X,Y]} Z;
* covariant derivatives append the direction slot LAST, matching the
  (Y, Z; X) ordering used throughout, and take one variance flag per tensor
  axis of the field: contravariant (``UP``) or covariant (``DOWN``).

Connection coefficients are stored as ``coeff[k, i, j]`` with i the direction:
nabla_{e_i} e_j = coeff[k, i, j] e_k.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .jets import Jet, coefficient_major, jet_einsum, jet_partial, jet_space

UP = "up"
DOWN = "down"


class MetricNotPositiveDefinite(ValueError):
    """The metric is not positive definite at a sample, probe or (crosscheck) stencil point."""


def require_positive_definite(g, points, kind, failed=False):
    """Raise :class:`MetricNotPositiveDefinite` naming the ``kind`` point (sample, probe,
    stencil) of the smallest eigenvalue unless g is positive definite at every point by
    its Cholesky factor; a caller whose own test ``failed`` has only the point named."""
    if not failed:
        try:
            np.linalg.cholesky(g)
            return
        except np.linalg.LinAlgError:
            pass
    at = points[np.argmin(np.linalg.eigvalsh(g)[:, 0])].tolist()
    raise MetricNotPositiveDefinite(f"metric is not positive definite at {kind} point {at}")


def metric_derivative(g, dg, coeff, other=None):
    """(D g)(Y, Z; X) = X g(Y, Z) - g(D_X Y, Z) - g(Y, D'_X Z), direction last,
    for the connection coefficients ``coeff`` of D; D' = D unless ``other`` is given."""
    other = coeff if other is None else other
    return dg - np.einsum("padi,paj->pijd", coeff, g) - np.einsum("padj,pia->pijd", other, g)


def jet_matrix_inverse(g_jets, order):
    """Inverse of a jet-valued matrix at ``order`` via the Neumann series.

    Writing G = G0 (I + X) with X = G0^{-1} G - I, the sum I - X + X^2 - ...
    is cut after X^order, the last power it forms.  X's constant coefficient is
    G0^{-1} G0 - I, rounding noise rather than 0, so X is nilpotent only up to that
    noise: the low coefficients of the result move in their last bits with ``order``.
    """
    m = g_jets.dim
    space = jet_space(m, order)
    g = np.moveaxis(g_jets.truncated(order).coeff, -1, 0)  # coefficient-first
    g0_inv = np.linalg.inv(g[0])
    x = np.moveaxis(g0_inv @ g, 0, -1)  # G0^{il} G_ljc, coefficient-major like every jet below
    x[..., 0] -= np.eye(m)
    series = np.zeros_like(x)
    series[..., 0] = np.eye(m)
    for k in range(1, order + 1):
        power = x if k == 1 else jet_einsum("il,lj->ij", Jet(space, power), Jet(space, x)).coeff
        series = series + (-1.0) ** k * power
    return Jet(space, np.moveaxis(np.moveaxis(series, -1, 0) @ g0_inv, 0, -1))  # S_ilc G0^{lj}


def curvature_components(coeff, dcoeff):
    """R[p,l,i,j,k] from connection coefficients and their derivatives."""
    n, m = coeff.shape[:2]
    # coeff[l,i,a] coeff[a,j,k] at [p,l,i,j,k]; the term with i and j swapped is its transpose
    square = (coeff.reshape(n, m * m, m) @ coeff.reshape(n, m, m * m)).reshape(dcoeff.shape)
    dsum = np.einsum("pljki->plijk", dcoeff) - np.einsum("plikj->plijk", dcoeff)
    return dsum + square - np.swapaxes(square, 2, 3)


def ricci_components(riemann):
    """Ric(X, Y) = tr(Z -> R(Z, X)Y)."""
    return np.einsum("paaxy->pxy", riemann)


def scalar_curvature(ricci, ginv):
    return np.einsum("pjk,pjk->p", ginv, ricci)


def covariant_derivative_jets(field, coeff_jets, variance):
    """Jet-level covariant derivative; appends the direction slot last.

    ``field`` is a jet tensor with one ``variance`` flag per tensor axis and ``coeff_jets``
    the (m, m, m) connection coefficients.  The result has order order(field) - 1, cut to
    order(coeff) unless the field is a scalar (no flag), which reads no coefficient.
    """
    order = min(field.order - 1, coeff_jets.order) if variance else field.order - 1
    out = jet_partial(field.truncated(order + 1))  # (batch, *field axes, direction)
    slots = "ABCDEFGH"[: len(variance)]
    for s, flag in enumerate(variance):
        gsub = f"{slots[s]}da" if flag == UP else f"ad{slots[s]}"
        gamma, f = coeff_jets.truncated(order), field.truncated(order)
        product = jet_einsum(f"{gsub},{slots[:s]}a{slots[s + 1:]}->{slots}d", gamma, f).coeff
        if flag == UP:
            out.coeff += product
        else:
            out.coeff -= product
    return out


class GeometryFrame:
    """Levi-Civita data for a batch of chart points.

    Built from metric jets of order r >= 2 (2 in the pipeline); exposes the numeric
    tensors (Christoffel symbols, curvature, Ricci, scalar curvature) and the jet-level
    metric, inverse and Christoffel fields that derived fields are differentiated with.
    Gamma, one raise by g^{-1} of the first-kind symbols of dg, has order r - 1; the
    inverse has ``inverse_order``, r - 1 unless a reader such as K = -1/2 g^{-1} C needs more.
    """

    def __init__(self, points, metric_jets, inverse_order=None):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        self.points = points
        m = points.shape[1]
        self.dim = m
        if metric_jets.batch_shape != (points.shape[0], m, m):
            raise ValueError("metric jets must have batch shape (N, m, m)")
        if metric_jets.order < 2:
            raise ValueError("metric jets must have order >= 2")

        self.g_jets = metric_jets
        self.g = metric_jets.value
        require_positive_definite(self.g, points, "sample")
        order = metric_jets.order - 1 if inverse_order is None else inverse_order
        self.ginv_jets = jet_matrix_inverse(metric_jets, order)
        self.ginv = self.ginv_jets.value
        self.dg = metric_jets.gradient()

        # first-kind symbols d_i g_jl + d_j g_il - d_l g_ij; dg holds d_c g_ab in slot [a, b, c]
        dg = jet_partial(metric_jets)
        jli, ilj, ijl = (np.einsum(f"...{t}c->...lijc", dg.coeff) for t in ("jli", "ilj", "ijl"))
        first_kind = Jet(dg.space, coefficient_major(dg.coeff.shape))
        np.subtract(np.add(jli, ilj, out=first_kind.coeff), ijl, out=first_kind.coeff)
        self.gamma_jets = 0.5 * jet_einsum("kl,lij->kij", self.ginv_jets, first_kind)
        self.gamma = self.gamma_jets.value
        self.dgamma = self.gamma_jets.gradient()
        self.riemann = curvature_components(self.gamma, self.dgamma)
        self.ricci = ricci_components(self.riemann)
        self.scalar = scalar_curvature(self.ricci, self.ginv)
        self._nabla = {}  # (id(field), variance) -> (field, its read-only nabla)

    @property
    def num_points(self):
        return self.points.shape[0]

    # -- differential operators --------------------------------------------

    def nabla(self, field, variance):
        """Levi-Civita covariant derivative of a jet field (direction last).

        Computed once per field for the frame's lifetime: the entry keeps the
        field alive, so its id cannot be reused, and the shared result is
        read-only.
        """
        key = (id(field), tuple(variance))
        if key not in self._nabla:
            result = covariant_derivative_jets(field, self.gamma_jets, variance)
            result.coeff.flags.writeable = False
            self._nabla[key] = (field, result)
        return self._nabla[key][1]

    def divergence(self, vector_jets):
        """div V = tr(nabla V) as a scalar jet (order drops by one)."""
        grad = self.nabla(vector_jets, (UP,))
        return Jet(grad.space, np.trace(grad.coeff, axis1=-3, axis2=-2))

    def laplacian_scalar(self, f_jet):
        """Laplace-Beltrami of a scalar jet: g^{ij}(Hess f)_ij."""
        grad, n = f_jet.gradient(), self.num_points
        gamma_grad = (grad[:, None] @ self.gamma.reshape(n, self.dim, -1))[:, 0]  # Gamma^a_ij d_a f
        hess = f_jet.hessian().reshape(n, -1) - gamma_grad
        return np.einsum("pi,pi->p", self.ginv.reshape(n, -1), hess)

    def connection_laplacian(self, vector_jets, source_coeff):
        """Connection Laplacian tr_g{(X,Y) -> nabla^g_X nabla^g_Y V - nabla^g_{D_X Y} V}
        with an arbitrary torsion-free source connection D in the correction slot.

        ``source_coeff`` holds the numeric coefficients of D; passing the
        Levi-Civita coefficients gives the rough Laplacian.  With s = nabla^g V it is
        g^{xy} d_x s^k_y + (Gamma^k_xc g^{xy}) s^c_y - s^k_a (g^{xy} D^a_xy), O(m^3) per
        point; the frame forms the first bracket once, and g^{-1} need not be symmetric.
        """
        s_jets = self.nabla(vector_jets, (UP,))
        s, ds = s_jets.value, s_jets.gradient()  # (N, k, y), (N, k, y, x)
        n, m = s.shape[:2]
        ginv = self.ginv.reshape(n, m * m, 1)
        b = (
            np.swapaxes(ds, -1, -2).reshape(n, m, m * m) @ ginv
            + self._gamma_ginv @ s.reshape(n, m * m, 1)
            - s @ (source_coeff.reshape(n, m, m * m) @ ginv)
        )
        return b[..., 0]

    def rough_laplacian(self, vector_jets):
        """Trace of the second covariant derivative of a vector field."""
        return self.connection_laplacian(vector_jets, self.gamma)

    def curvature_contraction(self, vector):
        """sum_i R(e_i, V)e_i as a vector: g^{ac} R[l,a,b,c] V^b."""
        return (self.curvature_trace @ vector[..., None])[..., 0]

    def ricci_raised(self, vector):
        """sum_i Ric(e_i, V) e_i: the Ricci form applied to V, index raised."""
        return (self.ginv @ (self.ricci @ vector[..., None]))[..., 0]

    @cached_property
    def _gamma_ginv(self):
        """Gamma^k_xc g^{xy} at [p, k, (c, y)]: the field-free term of each connection Laplacian."""
        gamma_ginv = np.swapaxes(self.gamma, -1, -2) @ self.ginv[:, None]
        return gamma_ginv.reshape(self.num_points, self.dim, -1)

    @cached_property
    def curvature_trace(self):
        """g^{ac} R[l,a,b,c] at [p, l, b]: V -> sum_i R(e_i, V)e_i as a matrix."""
        return (self.riemann @ self.ginv[:, None, :, :, None]).sum(axis=2)[..., 0]

    def gradient_field(self, f_jet):
        """grad f as a jet field: g^{ki} d_i f."""
        df = covariant_derivative_jets(f_jet, self.gamma_jets, ())
        return jet_einsum("ki,i->k", self.ginv_jets, df)
