"""Riemannian kernel on sampled chart points.

All numeric arrays are batched with the point axis first.  Index conventions:

* ``g[p, i, j]`` metric, ``dg[p, i, j, l]`` = d_l g_ij (derivative axis last);
* ``gamma[p, k, i, j]`` = Gamma^k_ij, ``dgamma[p, k, i, j, l]`` = d_l Gamma^k_ij;
* ``riemann[p, l, i, j, k]``: R(e_i, e_j)e_k = riemann[l, i, j, k] e_l for the
  curvature convention R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
  - nabla_{[X,Y]} Z;
* covariant derivatives append the direction slot LAST, matching the
  (Y, Z; X) ordering used throughout.

Connection coefficients are stored as ``coeff[k, i, j]`` with i the direction:
nabla_{e_i} e_j = coeff[k, i, j] e_k.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, jet_coefficients, jet_components, jet_einsum, jet_gradients
from .jets import jet_partial, jet_product_einsum, jet_space, jet_tensor, jet_values
from .tensor import DOWN, UP, MetricNotPositiveDefinite, orthonormal_frame


def jet_matrix_inverse(g_jets, order=None):
    """Inverse of a jet-valued matrix via the truncated Neumann series.

    Writing G = G0 (I + X) with X = G0^{-1}(G - G0), the non-constant part X
    is nilpotent in the truncated algebra, so I - X + X^2 - X^3 terminates.
    The result has ``order`` (default: the lowest order among the entries of
    ``g_jets``).
    """
    m = g_jets.shape[0]
    order = min(jet.order for jet in g_jets.flat) if order is None else order
    space = jet_space(m, order)
    g = jet_coefficients(g_jets, order)
    g0_inv = np.linalg.inv(g[..., 0])
    x = np.einsum("...il,...ljc->...ijc", g0_inv, g)
    x[..., 0] -= np.eye(m)
    identity = np.zeros_like(x)
    identity[..., 0] = np.eye(m)
    series, power, sign = identity, x, -1.0
    for _ in range(order):
        series = series + sign * power
        power = jet_product_einsum(space, "...il,...lj->...ij", power, x, np.zeros_like(x))
        sign = -sign
    return jet_components(space, np.einsum("...ilc,...lj->...ijc", series, g0_inv), 2)


def christoffel_components(ginv, dg):
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    return 0.5 * (
        np.einsum("pkl,pjli->pkij", ginv, dg)
        + np.einsum("pkl,pilj->pkij", ginv, dg)
        - np.einsum("pkl,pijl->pkij", ginv, dg)
    )


def christoffel_derivative_components(ginv, dg, d2g):
    """d_d Gamma^k_ij from metric derivatives; d2g[p,a,b,u,v] = d_u d_v g_ab."""
    dginv = -np.einsum("pka,pabd,pbl->pkld", ginv, dg, ginv, optimize="greedy")
    bracket = (
        np.einsum("pjli->plij", dg) + np.einsum("pilj->plij", dg) - np.einsum("pijl->plij", dg)
    )
    dbracket = (
        np.einsum("pjlid->plijd", d2g)
        + np.einsum("piljd->plijd", d2g)
        - np.einsum("pijld->plijd", d2g)
    )
    return 0.5 * (
        np.einsum("pkld,plij->pkijd", dginv, bracket)
        + np.einsum("pkl,plijd->pkijd", ginv, dbracket)
    )


def curvature_components(coeff, dcoeff):
    """R[p,l,i,j,k] from connection coefficients and their derivatives."""
    return (
        np.einsum("pljki->plijk", dcoeff)
        - np.einsum("plikj->plijk", dcoeff)
        + np.einsum("plia,pajk->plijk", coeff, coeff)
        - np.einsum("plja,paik->plijk", coeff, coeff)
    )


def ricci_components(riemann, g, frame):
    """Ric(X, Y) = sum_i g(R(e_i, X)Y, e_i) via the orthonormal frame."""
    return np.einsum("pai,pci,plc,plaxy->pxy", frame, frame, g, riemann, optimize="greedy")


def scalar_curvature(ricci, ginv):
    return np.einsum("pjk,pjk->p", ginv, ricci)


def covariant_derivative_jets(field, coeff_jets, variance):
    """Jet-level covariant derivative; appends the direction slot last.

    ``field`` is a jet tensor (or a bare Jet for scalars) and ``coeff_jets``
    the (m, m, m) connection coefficients.  The result has order
    min(order(field) - 1, order(coeff)) and is computed densely over
    (batch, *field.shape, ncoeff) coefficient arrays.
    """
    if isinstance(field, Jet):
        m = field.dim
        out = jet_tensor((m,))
        for d in range(m):
            out[d] = field.derivative(d)
        return out
    m = field.shape[0]
    order = min(min(j.order for j in field.flat) - 1, min(j.order for j in coeff_jets.flat))
    space = jet_space(m, order)
    f = jet_coefficients(field, order + 1)
    src, fac = map(np.array, zip(*(jet_space(m, order + 1).derivative_table(d) for d in range(m))))
    out = f[..., src] * fac  # (batch, *field.shape, direction, ncoeff)

    gamma = jet_coefficients(coeff_jets, order)
    f = f[..., : space.ncoeff]
    slots = "ABCDEFGH"[: len(variance)]
    for s, flag in enumerate(variance):
        gsub = f"{slots[s]}da" if flag == UP else f"ad{slots[s]}"
        subscripts = f"...{gsub},...{slots[:s]}a{slots[s + 1:]}->...{slots}d"
        jet_product_einsum(space, subscripts, gamma if flag == UP else -gamma, f, out)
    return jet_components(space, out, len(variance) + 1)


def covariant_derivative_components(values, jacobian, coeff, variance):
    """Numeric covariant derivative from component values and partials.

    ``values``: (N, m^r), ``jacobian``: (N, m^r, m) with the partial axis
    last, ``coeff``: (N, m, m, m).  Returns (N, m^r, m), direction last.
    """
    out = jacobian.copy()
    for s, flag in enumerate(variance):
        src = np.moveaxis(values, 1 + s, 1)  # slot s first among tensor axes
        if flag == UP:
            corr = np.einsum("pkda,pa...->pk...d", coeff, src)
        else:
            corr = -np.einsum("padi,pa...->pi...d", coeff, src)
        out += np.moveaxis(corr, 1, 1 + s)
    return out


class GeometryFrame:
    """Levi-Civita data for a batch of chart points.

    Built from metric jets of order r >= 2 (order 3 in the pipeline); exposes
    both the numeric tensors (Christoffel symbols, curvature, Ricci, scalar
    curvature, orthonormal frame) and the jet-level metric, inverse and
    Christoffel fields needed to differentiate derived fields downstream.
    The inverse and the Christoffel jets have order r - 1: Gamma = g^{-1} dg
    needs no more of the inverse than dg carries.
    """

    def __init__(self, points, metric_jets):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        self.points = points
        m = points.shape[1]
        self.dim = m
        if metric_jets.shape != (m, m):
            raise ValueError("metric jets must form an (m, m) array")
        probe = metric_jets[0, 0]
        if probe.order < 2:
            raise ValueError("metric jets must have order >= 2")

        self.g_jets = metric_jets
        self.g = jet_values(metric_jets)
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError as err:
            raise MetricNotPositiveDefinite(
                "metric is not positive definite at a sample point"
            ) from err
        self.ginv_jets = jet_matrix_inverse(metric_jets, probe.order - 1)
        self.ginv = jet_values(self.ginv_jets)
        self.dg = jet_gradients(metric_jets)

        dg_jets = jet_partial(metric_jets)
        self.gamma_jets = 0.5 * (
            jet_einsum("kl,jli->kij", self.ginv_jets, dg_jets)
            + jet_einsum("kl,ilj->kij", self.ginv_jets, dg_jets)
            - jet_einsum("kl,ijl->kij", self.ginv_jets, dg_jets)
        )
        self.gamma = jet_values(self.gamma_jets)
        self.dgamma = jet_gradients(self.gamma_jets)
        self.riemann = curvature_components(self.gamma, self.dgamma)
        self.frame = orthonormal_frame(self.g)
        self.ricci = ricci_components(self.riemann, self.g, self.frame)
        self.scalar = scalar_curvature(self.ricci, self.ginv)

    @property
    def num_points(self):
        return self.points.shape[0]

    # -- differential operators --------------------------------------------

    def nabla(self, field, variance):
        """Levi-Civita covariant derivative of a jet field (direction last)."""
        return covariant_derivative_jets(field, self.gamma_jets, variance)

    def divergence(self, vector_jets):
        """div V = tr(nabla V)."""
        grad = self.nabla(vector_jets, (UP,))
        return np.einsum("pkk->p", jet_values(grad))

    def divergence_jet(self, vector_jets):
        """div V as a scalar jet (order drops by one)."""
        grad = self.nabla(vector_jets, (UP,))
        acc = None
        for k in range(self.dim):
            acc = grad[k, k] if acc is None else acc + grad[k, k]
        return acc

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
        s = jet_values(s_jets)  # (N, k, y)
        ds = jet_gradients(s_jets)  # (N, k, y, x)
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

    # -- identity residuals --------------------------------------------------

    def first_bianchi_residual(self, riemann=None):
        """max |R(X,Y)Z + R(Y,Z)X + R(Z,X)Y| per point."""
        r = self.riemann if riemann is None else riemann
        cyc = r + np.einsum("pljki->plijk", r) + np.einsum("plkij->plijk", r)
        return np.max(np.abs(cyc), axis=(1, 2, 3, 4))

    def metric_compatibility_residual(self):
        """max |(nabla^g g)_{ij;d}| per point."""
        nabla_g = (
            self.dg
            - np.einsum("padi,paj->pijd", self.gamma, self.g)
            - np.einsum("padj,pia->pijd", self.gamma, self.g)
        )
        return np.max(np.abs(nabla_g), axis=(1, 2, 3))

    def gradient_field(self, f_jet):
        """grad f as a jet field: g^{ki} d_i f."""
        df = covariant_derivative_jets(f_jet, self.gamma_jets, ())
        return jet_einsum("ki,i->k", self.ginv_jets, df)

    def divergence_identity_residual(self, f_jet):
        """Residual of X div(V) = g(Delta_g V, X) - Ric(V, X) for V = grad f."""
        v_jets = self.gradient_field(f_jet)
        v = jet_values(v_jets)
        lhs = jet_gradients(self.divergence_jet(v_jets))  # (N, x)
        delta_v = self.rough_laplacian(v_jets)
        rhs = np.einsum("pxa,pa->px", self.g, delta_v) - np.einsum(
            "pax,pa->px", self.ricci, v
        )
        return np.max(np.abs(lhs - rhs), axis=1)
