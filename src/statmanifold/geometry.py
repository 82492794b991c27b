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

import numpy as np

from .jets import Jet, jet_einsum, jet_partial, jet_space

UP = "up"
DOWN = "down"


class MetricNotPositiveDefinite(ValueError):
    """The metric is not positive definite at a sample or probe point."""


def require_positive_definite(g, points, kind):
    """Raise :class:`MetricNotPositiveDefinite` naming the ``kind`` point (sample,
    probe) of the smallest eigenvalue unless g is positive definite at every point."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as err:
        at = points[np.argmin(np.linalg.eigvalsh(g)[:, 0])].tolist()
        raise MetricNotPositiveDefinite(f"metric is not positive definite at {kind} point {at}") from err


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
    g = g_jets.truncated(order).coeff
    g0_inv = np.linalg.inv(g[..., 0])
    x = np.einsum("...il,...ljc->...ijc", g0_inv, g)
    x[..., 0] -= np.eye(m)
    series = np.zeros_like(x)
    series[..., 0] = np.eye(m)
    for k in range(1, order + 1):
        power = x if k == 1 else jet_einsum("il,lj->ij", Jet(space, power), Jet(space, x)).coeff
        series = series + (-1.0) ** k * power
    return Jet(space, np.einsum("...ilc,...lj->...ijc", series, g0_inv))


def _first_kind(dg):
    """[p, l, i, j, ...] = d_i g_jl + d_j g_il - d_l g_ij from dg[p, a, b, c, ...] = d_c g_ab;
    trailing axes, such as a second derivative's, ride along."""
    return (
        np.einsum("pjli...->plij...", dg)
        + np.einsum("pilj...->plij...", dg)
        - np.einsum("pijl...->plij...", dg)
    )


def christoffel_components(ginv, dg):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    return 0.5 * np.einsum("pkl,plij->pkij", ginv, _first_kind(dg))


def christoffel_derivative_components(ginv, dg, d2g):
    """d_d Gamma^k_ij from metric derivatives; d2g[p,a,b,u,v] = d_u d_v g_ab."""
    dginv = -np.einsum("pka,pabd,pbl->pkld", ginv, dg, ginv, optimize="greedy")
    return 0.5 * (
        np.einsum("pkld,plij->pkijd", dginv, _first_kind(dg))
        + np.einsum("pkl,plijd->pkijd", ginv, _first_kind(d2g))
    )


def curvature_components(coeff, dcoeff):
    """R[p,l,i,j,k] from connection coefficients and their derivatives."""
    return (
        np.einsum("pljki->plijk", dcoeff)
        - np.einsum("plikj->plijk", dcoeff)
        + np.einsum("plia,pajk->plijk", coeff, coeff)
        - np.einsum("plja,paik->plijk", coeff, coeff)
    )


def ricci_components(riemann):
    """Ric(X, Y) = tr(Z -> R(Z, X)Y)."""
    return np.einsum("paaxy->pxy", riemann)


def scalar_curvature(ricci, ginv):
    return np.einsum("pjk,pjk->p", ginv, ricci)


def covariant_derivative_jets(field, coeff_jets, variance):
    """Jet-level covariant derivative; appends the direction slot last.

    ``field`` is a jet tensor with one ``variance`` flag per tensor axis (a
    scalar has none) and ``coeff_jets`` the (m, m, m) connection
    coefficients.  The result has order min(order(field) - 1, order(coeff)).
    """
    order = min(field.order - 1, coeff_jets.order)
    out = jet_partial(field.truncated(order + 1))  # (batch, *field axes, direction)
    gamma, f = coeff_jets.truncated(order), field.truncated(order)
    slots = "ABCDEFGH"[: len(variance)]
    for s, flag in enumerate(variance):
        gsub = f"{slots[s]}da" if flag == UP else f"ad{slots[s]}"
        product = jet_einsum(f"{gsub},{slots[:s]}a{slots[s + 1:]}->{slots}d", gamma, f).coeff
        if flag == UP:
            out.coeff += product
        else:
            out.coeff -= product
    return out


class GeometryFrame:
    """Levi-Civita data for a batch of chart points.

    Built from metric jets of order r >= 2 (order 3 in the pipeline); exposes
    both the numeric tensors (Christoffel symbols, curvature, Ricci, scalar
    curvature) and the jet-level metric, inverse and Christoffel fields
    needed to differentiate derived fields downstream.
    The inverse and the Christoffel jets have order r - 1: Gamma is one raise by
    g^{-1} of the first-kind symbols of dg, so it needs no more of the inverse
    than dg carries.
    """

    def __init__(self, points, metric_jets):
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
        self.ginv_jets = jet_matrix_inverse(metric_jets, metric_jets.order - 1)
        self.ginv = self.ginv_jets.value
        self.dg = metric_jets.gradient()

        # first-kind symbols d_i g_jl + d_j g_il - d_l g_ij; dg holds d_c g_ab in slot [a, b, c]
        dg = jet_partial(metric_jets)
        jli, ilj, ijl = (np.einsum(f"...{t}c->...lijc", dg.coeff) for t in ("jli", "ilj", "ijl"))
        first_kind = Jet(dg.space, jli + ilj - ijl)
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
        hess = f_jet.hessian()
        grad = f_jet.gradient()
        return np.einsum("pij,pij->p", self.ginv, hess) - np.einsum(
            "pij,paij,pa->p", self.ginv, self.gamma, grad, optimize="greedy"
        )

    def connection_laplacian(self, vector_jets, source_coeff):
        """Connection Laplacian tr_g{(X,Y) -> nabla^g_X nabla^g_Y V - nabla^g_{D_X Y} V}
        with an arbitrary torsion-free source connection D in the correction slot.

        ``source_coeff`` holds the numeric coefficients of D; passing the
        Levi-Civita coefficients gives the rough Laplacian.
        """
        s_jets = self.nabla(vector_jets, (UP,))
        s = s_jets.value  # (N, k, y)
        ds = s_jets.gradient()  # (N, k, y, x)
        b = (
            np.einsum("pkyx->pkxy", ds)
            + np.einsum("pkxc,pcy->pkxy", self.gamma, s)
            - np.einsum("paxy,pka->pkxy", source_coeff, s)
        )
        return np.einsum("pxy,pkxy->pk", self.ginv, b)

    def rough_laplacian(self, vector_jets):
        """Trace of the second covariant derivative of a vector field."""
        return self.connection_laplacian(vector_jets, self.gamma)

    def curvature_contraction(self, vector):
        """sum_i R(e_i, V)e_i as a vector: g^{ac} R[l,a,b,c] V^b."""
        return np.einsum("pac,plabc,pb->pl", self.ginv, self.riemann, vector, optimize="greedy")

    def ricci_raised(self, vector):
        """sum_i Ric(e_i, V) e_i: the Ricci form applied to V, index raised."""
        return np.einsum("pka,pab,pb->pk", self.ginv, self.ricci, vector, optimize="greedy")

    def gradient_field(self, f_jet):
        """grad f as a jet field: g^{ki} d_i f."""
        df = covariant_derivative_jets(f_jet, self.gamma_jets, ())
        return jet_einsum("ki,i->k", self.ginv_jets, df)
