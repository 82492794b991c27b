"""Statistical kernel: cubic form, difference tensor, dual connections,
Tchebychev field, curvature interchange, and the residuals of the structure
identities and curvature conditions.

A statistical structure enters exclusively through a Riemannian metric g and a
totally symmetric cubic form C; the affine connection is derived as
nabla = nabla^g + K with K^k_ij = -1/2 g^{kl} C_{ijl}, which satisfies the
Codazzi equation by construction.  The conjugate connection is
nabla-bar = nabla^g - K.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import DOWN, UP, GeometryFrame, curvature_components, metric_derivative, ricci_components
from .jets import jet_einsum

SYMMETRY_TOLERANCE = 1e-9


class CubicFormAsymmetry(ValueError):
    """The supplied cubic form is not totally symmetric."""

    def __init__(self, max_asymmetry):
        super().__init__(f"cubic form is not totally symmetric (max asymmetry {max_asymmetry:.3e})")
        self.max_asymmetry = max_asymmetry


def _require_total_symmetry(cubic):
    """Raise :class:`CubicFormAsymmetry` unless C is symmetric to SYMMETRY_TOLERANCE
    (relative) under swaps of slots 1, 2 and of slots 2, 3.  These two generate
    every permutation, each a product of at most three of them, so C is then
    symmetric to 3 * SYMMETRY_TOLERANCE under all of them."""
    asym = max(
        float(np.max(np.abs(cubic - np.swapaxes(cubic, axis, axis + 1)))) for axis in (-3, -2)
    )
    if asym > SYMMETRY_TOLERANCE * (1.0 + float(np.max(np.abs(cubic)))):
        raise CubicFormAsymmetry(asym)


def cubic_from_difference(g, difference):
    """Reconstruct C(X,Y,Z) = -2 g(K_X Y, Z), at one point or on a batch."""
    g = np.asarray(g, dtype=float)
    difference = np.asarray(difference, dtype=float)
    return -2.0 * np.einsum("...lij,...lk->...ijk", difference, g)


def interchange_tensor(riemann, g, ginv):
    """Curvature interchange L: g(L(Z,W)X,Y) = g(R(X,Y)Z,W)."""
    return np.einsum("pln,paj,pakni->plijk", ginv, g, riemann, optimize="greedy")


def fit_constant_curvature(blocks):
    """Least-squares fit of R against lambda (g(Y,Z)X - g(X,Z)Y).

    ``blocks`` lists (riemann, g) pairs of consecutive point batches.  Returns
    (lambda, per-point max residual over all blocks); the fit pools every
    component at every point.  R.M and M.M are summed per point, block by
    block, and the per-point sums once over the sample, so no temporary spans
    more than one block and lambda does not depend on where blocks split.
    """
    m = blocks[0][1].shape[-1]
    if m < 2:
        raise ValueError("constant curvature requires dimension >= 2")
    eye = np.eye(m)

    def model(g):
        return np.einsum("pjk,li->plijk", g, eye) - np.einsum("pik,lj->plijk", g, eye)

    sums = ([], [])  # R.M and M.M of each point, block by block
    for riemann, g in blocks:
        block_model = model(g)
        sums[0].append(np.sum(riemann * block_model, axis=(1, 2, 3, 4)))
        sums[1].append(np.sum(block_model * block_model, axis=(1, 2, 3, 4)))
    numerator, denom = (float(np.sum(np.concatenate(parts))) for parts in sums)
    lam = numerator / denom
    residuals = [
        np.max(np.abs(riemann - lam * model(g)), axis=(1, 2, 3, 4)) for riemann, g in blocks
    ]
    return lam, np.concatenate(residuals)


def scalar_relation_gap(lam, dim, scalar_sum):
    """|lambda m(m-1) - (rho-hat + g(T,T) - g(K,K))| from the per-point sum."""
    return np.abs(lam * dim * (dim - 1) - scalar_sum)


class StatisticalFrame:
    """Statistical data for a batch of chart points, layered over a GeometryFrame.

    Holds the cubic form C, difference tensor K, Tchebychev field T and its
    dual eta.  The Tchebychev operator nabla^g T, nabla^g K, the scalar jet
    g(K, K), the coefficients and curvatures of the dual pair (nabla,
    nabla-bar), the Ricci tensor of nabla and the interchange tensors L, L-bar
    are computed on first read and then kept, so a caller pays only for what
    it reads.
    """

    def __init__(self, geometry: GeometryFrame, cubic_jets):
        self.geometry = geometry
        m = geometry.dim
        if cubic_jets.batch_shape != (geometry.num_points, m, m, m):
            raise ValueError("cubic jets must have batch shape (N, m, m, m)")
        self.C_jets = cubic_jets
        self.C = cubic_jets.value
        _require_total_symmetry(self.C)

        self.K_jets = -0.5 * jet_einsum("kl,ijl->kij", geometry.ginv_jets, cubic_jets)
        self.K = self.K_jets.value
        self.T_jets = jet_einsum("ij,kij->k", geometry.ginv_jets, self.K_jets)
        self.T = self.T_jets.value
        self.eta = np.einsum("pkl,pl->pk", geometry.g, self.T)

    # -- fields computed on first read, then kept -----------------------------

    @cached_property
    def _dual_connections(self):
        """(nabla, d nabla, nabla-bar, d nabla-bar): the dual connections are
        read only as values and first derivatives."""
        gamma_1, k_1 = self.geometry.gamma_jets.truncated(1), self.K_jets.truncated(1)
        nabla_jets, bar_jets = gamma_1 + k_1, gamma_1 - k_1
        return nabla_jets.value, nabla_jets.gradient(), bar_jets.value, bar_jets.gradient()

    nabla = property(lambda self: self._dual_connections[0])
    dnabla = property(lambda self: self._dual_connections[1])
    bar = property(lambda self: self._dual_connections[2])
    dbar = property(lambda self: self._dual_connections[3])
    R = cached_property(lambda self: curvature_components(self.nabla, self.dnabla))
    Rbar = cached_property(lambda self: curvature_components(self.bar, self.dbar))
    ric = cached_property(lambda self: ricci_components(self.R))
    L = cached_property(lambda self: interchange_tensor(self.R, self.geometry.g, self.geometry.ginv))
    Lbar = cached_property(
        lambda self: interchange_tensor(self.Rbar, self.geometry.g, self.geometry.ginv)
    )
    tch_jets = cached_property(lambda self: self.geometry.nabla(self.T_jets, (UP,)))
    tch = property(lambda self: self.tch_jets.value)  # (N, k, direction)
    # nabla^g K is read only as values, so K enters at order 1
    dK = cached_property(
        lambda self: self.geometry.nabla(self.K_jets.truncated(1), (UP, DOWN, DOWN)).value
    )

    # -- structure identities ------------------------------------------------

    def nabla_g_components(self):
        """(nabla g)(Y, Z; X) with the statistical connection, direction last."""
        return metric_derivative(self.geometry.g, self.geometry.dg, self.nabla)

    def codazzi_residual(self):
        """max |(nabla_X g)(Y,Z) - (nabla_Y g)(X,Z)| on coordinate vectors."""
        d = self.nabla_g_components()
        return np.max(np.abs(d - np.einsum("pdji->pijd", d)), axis=(1, 2, 3))

    def cubic_is_nabla_g_residual(self):
        return np.max(np.abs(self.nabla_g_components() - self.C), axis=(1, 2, 3))

    def cubic_reconstruction_residual(self):
        """Round trip of C(X,Y,Z) = -2 g(K_X Y, Z)."""
        rebuilt = cubic_from_difference(self.geometry.g, self.K)
        return np.max(np.abs(rebuilt - self.C), axis=(1, 2, 3))

    def duality_residual(self):
        """X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla-bar_X Z)."""
        geom = self.geometry
        residual = metric_derivative(geom.g, geom.dg, self.nabla, self.bar)
        return np.max(np.abs(residual), axis=(1, 2, 3))

    def levi_civita_mean_residual(self):
        """nabla^g = (nabla + nabla-bar)/2."""
        mean = 0.5 * (self.nabla + self.bar)
        return np.max(np.abs(mean - self.geometry.gamma), axis=(1, 2, 3))

    def curvature_conjugation_residual(self):
        """g(R-bar(X,Y)Z, W) = -g(Z, R(X,Y)W)."""
        g = self.geometry.g
        lhs = np.einsum("paijk,paw->pijkw", self.Rbar, g)
        rhs = -np.einsum("pka,paijw->pijkw", g, self.R)
        return np.max(np.abs(lhs - rhs), axis=(1, 2, 3, 4))

    def interchange_sum_residual(self):
        """L + L-bar = R + R-bar."""
        return np.max(np.abs(self.L + self.Lbar - self.R - self.Rbar), axis=(1, 2, 3, 4))

    # -- symmetry and curvature conditions ------------------------------------

    def conjugate_symmetry_residuals(self):
        """(|R - L|, |R - R-bar|, |alt nabla^g K|) per point; the three vanish together."""
        r_minus_l = np.max(np.abs(self.R - self.L), axis=(1, 2, 3, 4))
        r_minus_rbar = np.max(np.abs(self.R - self.Rbar), axis=(1, 2, 3, 4))
        alt = self.dK - np.einsum("pkdji->pkijd", self.dK)
        return r_minus_l, r_minus_rbar, np.max(np.abs(alt), axis=(1, 2, 3, 4))

    def ricci_asymmetry_residual(self):
        return np.max(np.abs(self.ric - np.einsum("pxy->pyx", self.ric)), axis=(1, 2))

    def tchebychev_closedness_residual(self):
        """|g(nabla^g_X T, Y) - g(nabla^g_Y T, X)|; vanishes iff Ric is symmetric."""
        m = np.einsum("pky,pkx->pxy", self.geometry.g, self.tch)
        return np.max(np.abs(m - np.einsum("pxy->pyx", m)), axis=(1, 2))

    @cached_property
    def _volume_form_derivative(self):
        """sum_a coeff(nabla)^a_Xa - d_X log sqrt(det g); its norm is |nabla omega_g| / omega_g."""
        geom = self.geometry
        dlog = 0.5 * np.einsum("pij,pijx->px", geom.ginv, geom.dg)
        return np.einsum("paxa->px", self.nabla) - dlog

    def volume_form_dual_residual(self):
        """Residual of eta(X) = sum_a coeff(nabla)^a_Xa - d_X log sqrt(det g).

        The trace of the statistical connection coefficients minus the
        logarithmic volume derivative recovers the Tchebychev covector by a
        route independent of the metric contraction of K; in particular the
        structure is equiaffine iff the metric volume form is nabla-parallel.
        """
        return np.max(np.abs(self._volume_form_derivative - self.eta), axis=1)

    def volume_form_parallel_residual(self):
        """|nabla omega_g| / omega_g per point; zero iff the structure is equiaffine."""
        return np.max(np.abs(self._volume_form_derivative), axis=1)

    def ricci_g_tt(self):
        """Ric^g(T, T) per point (sign hypothesis of the parallel-T criterion)."""
        return np.einsum("pab,pa,pb->p", self.geometry.ricci, self.T, self.T, optimize="greedy")

    def tchebychev_norm(self):
        return np.max(np.abs(self.T), axis=1)

    def tchebychev_operator_norm(self):
        return np.max(np.abs(self.tch), axis=(1, 2))

    # -- semi-equiaffine ingredients ------------------------------------------

    def t1_vector(self):
        """Delta_g T + sum_i Ric^g(e_i, T) e_i, componentwise."""
        geom = self.geometry
        return geom.rough_laplacian(self.T_jets) + geom.ricci_raised(self.T)

    def t2_vector(self):
        """div^g(T) T + nabla^g_T T, componentwise."""
        div = self.geometry.divergence(self.T_jets).value
        return div[:, None] * self.T + np.einsum("pkd,pd->pk", self.tch, self.T)

    def geodesic_potential_check(self):
        """(residual, potential): |nabla^g_T T + div(T) T| and rho = -div^g(T)."""
        div = self.geometry.divergence(self.T_jets).value
        residual = np.max(np.abs(self.t2_vector()), axis=1)
        return residual, -div

    # -- scalar identities ------------------------------------------------------

    def metric_inner_tt(self):
        return np.einsum("pij,pi,pj->p", self.geometry.g, self.T, self.T, optimize="greedy")

    @cached_property
    def kk_jets(self):
        """g(K, K) = g^{ij} K^a_ib K^b_ja as a scalar jet: g_kl g^{ia} g^{jb} K^k_ij K^l_ab,
        since g(K_X Y, Z) = -C(X, Y, Z)/2 is totally symmetric."""
        k_k = jet_einsum("aib,bja->ij", self.K_jets, self.K_jets)
        return jet_einsum("ij,ij->", self.geometry.ginv_jets, k_k)

    def metric_inner_kk(self):
        return self.kk_jets.value

    def scalar_sum(self):
        """rho-hat + g(T,T) - g(K,K) per point; lambda m(m-1) under constant curvature."""
        return self.geometry.scalar + self.metric_inner_tt() - self.metric_inner_kk()

    def laplacian_cubic_terms(self):
        """Terms of Delta_g g(K,K) = 2 g(F,K) + 2 g(nabla^g K, nabla^g K).

        F(X,Y) = sum_l (R^g(e_l, X)K)(e_l, Y).  Returns the three terms and the
        residual per point; hypotheses (conjugate symmetry, parallel T) are the
        caller's responsibility.
        """
        geom = self.geometry
        g, ginv, riem = geom.g, geom.ginv, geom.riemann
        laplacian = geom.laplacian_scalar(self.kk_jets)

        path = "greedy"
        f = (
            np.einsum("pau,pkaxc,pcuy->pkxy", ginv, riem, self.K, optimize=path)
            - np.einsum("pau,pcaxu,pkcy->pkxy", ginv, riem, self.K, optimize=path)
            - np.einsum("pau,pcaxy,pkuc->pkxy", ginv, riem, self.K, optimize=path)
        )
        g_f_k = 2.0 * np.einsum(
            "pkl,pxa,pyb,pkxy,plab->p", g, ginv, ginv, f, self.K, optimize=path
        )
        g_dk_dk = 2.0 * np.einsum(
            "pkl,pia,pjb,pdc,pkijd,plabc->p", g, ginv, ginv, ginv, self.dK, self.dK, optimize=path
        )
        residual = np.abs(laplacian - g_f_k - g_dk_dk)
        return {
            "laplacian": laplacian,
            "curvature_term": g_f_k,
            "gradient_term": g_dk_dk,
            "residual": residual,
        }
