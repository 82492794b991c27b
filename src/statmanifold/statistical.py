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

import numpy as np

from .geometry import GeometryFrame, curvature_components, ricci_components
from .jets import jet_einsum, jet_gradients, jet_values
from .tensor import DOWN, UP

_PERMUTATIONS = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


class CubicFormAsymmetry(ValueError):
    """The supplied cubic form is not totally symmetric."""

    def __init__(self, max_asymmetry):
        super().__init__(f"cubic form is not totally symmetric (max asymmetry {max_asymmetry:.3e})")
        self.max_asymmetry = max_asymmetry


def _cubic_asymmetry(cubic):
    batch_perm = lambda p: tuple(range(cubic.ndim - 3)) + tuple(cubic.ndim - 3 + i for i in p)
    return max(float(np.max(np.abs(cubic - np.transpose(cubic, batch_perm(p))))) for p in _PERMUTATIONS)


def difference_tensor(g_inv, cubic, require_symmetric=True, symmetry_tol=1e-9):
    """K^k_ij = -1/2 g^{kl} C_{ijl}; accepts single-point or batched arrays."""
    g_inv = np.asarray(g_inv, dtype=float)
    cubic = np.asarray(cubic, dtype=float)
    single = cubic.ndim == 3
    if single:
        g_inv, cubic = g_inv[None], cubic[None]
    if require_symmetric:
        asym = _cubic_asymmetry(cubic)
        if asym > symmetry_tol * (1.0 + float(np.max(np.abs(cubic)))):
            raise CubicFormAsymmetry(asym)
    k = -0.5 * np.einsum("pkl,pijl->pkij", g_inv, cubic)
    return k[0] if single else k


def cubic_from_difference(g, difference):
    """Reconstruct C(X,Y,Z) = -2 g(K_X Y, Z)."""
    g = np.asarray(g, dtype=float)
    difference = np.asarray(difference, dtype=float)
    single = difference.ndim == 3
    if single:
        g, difference = g[None], difference[None]
    c = -2.0 * np.einsum("plij,plk->pijk", difference, g)
    return c[0] if single else c


def tchebychev(g_inv, difference, g):
    """Tchebychev vector field T = tr_g K and its dual covector eta = g(T, .)."""
    g_inv = np.asarray(g_inv, dtype=float)
    difference = np.asarray(difference, dtype=float)
    g = np.asarray(g, dtype=float)
    single = difference.ndim == 3
    if single:
        g_inv, difference, g = g_inv[None], difference[None], g[None]
    t = np.einsum("pij,pkij->pk", g_inv, difference)
    eta = np.einsum("pkl,pl->pk", g, t)
    return (t[0], eta[0]) if single else (t, eta)


def interchange_tensor(riemann, g, ginv):
    """Curvature interchange L: g(L(Z,W)X,Y) = g(R(X,Y)Z,W)."""
    return np.einsum("pln,paj,pakni->plijk", ginv, g, riemann, optimize="greedy")


class StatisticalFrame:
    """Statistical data for a batch of chart points, layered over a GeometryFrame.

    Holds the cubic form C, difference tensor K, Tchebychev field T and its
    dual eta, the Tchebychev operator nabla^g T, the coefficients and
    curvatures of the dual pair (nabla, nabla-bar), the Ricci tensor of
    nabla, and the interchange tensors L, L-bar.
    """

    def __init__(self, geometry: GeometryFrame, cubic_jets, symmetry_tol=1e-9):
        self.geometry = geometry
        m = geometry.dim
        if cubic_jets.shape != (m, m, m):
            raise ValueError("cubic jets must form an (m, m, m) array")
        self.C_jets = cubic_jets
        self.C = jet_values(cubic_jets)
        asym = _cubic_asymmetry(self.C)
        if asym > symmetry_tol * (1.0 + float(np.max(np.abs(self.C)))):
            raise CubicFormAsymmetry(asym)

        self.K_jets = -0.5 * jet_einsum("kl,ijl->kij", geometry.ginv_jets, cubic_jets)
        self.K = jet_values(self.K_jets)
        self.T_jets = jet_einsum("ij,kij->k", geometry.ginv_jets, self.K_jets)
        self.T = jet_values(self.T_jets)
        self.eta = np.einsum("pkl,pl->pk", geometry.g, self.T)

        self.nabla_jets = geometry.gamma_jets + self.K_jets
        self.bar_jets = geometry.gamma_jets - self.K_jets
        self.nabla = jet_values(self.nabla_jets)
        self.bar = jet_values(self.bar_jets)
        self.dnabla = jet_gradients(self.nabla_jets)
        self.dbar = jet_gradients(self.bar_jets)

        self.R = curvature_components(self.nabla, self.dnabla)
        self.Rbar = curvature_components(self.bar, self.dbar)
        self.ric = ricci_components(self.R, geometry.g, geometry.frame)
        self.L = interchange_tensor(self.R, geometry.g, geometry.ginv)
        self.Lbar = interchange_tensor(self.Rbar, geometry.g, geometry.ginv)

        self.tch_jets = geometry.nabla(self.T_jets, (UP,))
        self.tch = jet_values(self.tch_jets)  # (N, k, direction)
        self.dK_jets = geometry.nabla(self.K_jets, (UP, DOWN, DOWN))
        self.dK = jet_values(self.dK_jets)  # (N, k, i, j, direction)

    # -- structure identities ------------------------------------------------

    def nabla_g_components(self):
        """(nabla g)(Y, Z; X) with the statistical connection, direction last."""
        g, dg = self.geometry.g, self.geometry.dg
        return (
            dg
            - np.einsum("padi,paj->pijd", self.nabla, g)
            - np.einsum("padj,pia->pijd", self.nabla, g)
        )

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
        g, dg = self.geometry.g, self.geometry.dg
        rhs = np.einsum("paxy,paz->pyzx", self.nabla, g) + np.einsum(
            "paxz,pya->pyzx", self.bar, g
        )
        return np.max(np.abs(dg - rhs), axis=(1, 2, 3))

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

    def volume_form_dual_residual(self):
        """Residual of eta(X) = sum_a coeff(nabla)^a_Xa - d_X log sqrt(det g).

        The trace of the statistical connection coefficients minus the
        logarithmic volume derivative recovers the Tchebychev covector by a
        route independent of the metric contraction of K; in particular the
        structure is equiaffine iff the metric volume form is nabla-parallel.
        """
        geom = self.geometry
        dlog = 0.5 * np.einsum("pij,pijx->px", geom.ginv, geom.dg)
        coeff_trace = np.einsum("paxa->px", self.nabla)
        return np.max(np.abs(coeff_trace - dlog - self.eta), axis=1)

    def volume_form_parallel_residual(self):
        """|nabla omega_g| / omega_g per point; zero iff the structure is equiaffine."""
        geom = self.geometry
        dlog = 0.5 * np.einsum("pij,pijx->px", geom.ginv, geom.dg)
        coeff_trace = np.einsum("paxa->px", self.nabla)
        return np.max(np.abs(coeff_trace - dlog), axis=1)

    def ricci_g_tt(self):
        """Ric^g(T, T) per point (sign hypothesis of the parallel-T criterion)."""
        return np.einsum("pab,pa,pb->p", self.geometry.ricci, self.T, self.T, optimize="greedy")

    def constant_curvature_fit(self):
        """Least-squares fit of R against lambda (g(Y,Z)X - g(X,Z)Y).

        Returns (lambda, per-point max residual); the fit pools every
        component at every sampled point.
        """
        m = self.geometry.dim
        if m < 2:
            raise ValueError("constant curvature requires dimension >= 2")
        g = self.geometry.g
        eye = np.eye(m)
        model = np.einsum("pjk,li->plijk", g, eye) - np.einsum("pik,lj->plijk", g, eye)
        denom = float(np.sum(model * model))
        lam = float(np.sum(self.R * model) / denom)
        residual = np.max(np.abs(self.R - lam * model), axis=(1, 2, 3, 4))
        return lam, residual

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
        div = self.geometry.divergence(self.T_jets)
        return div[:, None] * self.T + np.einsum("pkd,pd->pk", self.tch, self.T)

    def geodesic_potential_check(self):
        """(residual, potential): |nabla^g_T T + div(T) T| and rho = -div^g(T)."""
        div = self.geometry.divergence(self.T_jets)
        residual = np.max(np.abs(self.t2_vector()), axis=1)
        return residual, -div

    # -- scalar identities ------------------------------------------------------

    def metric_inner_tt(self):
        return np.einsum("pij,pi,pj->p", self.geometry.g, self.T, self.T, optimize="greedy")

    def metric_inner_kk(self):
        g, ginv = self.geometry.g, self.geometry.ginv
        return np.einsum(
            "pkl,pia,pjb,pkij,plab->p", g, ginv, ginv, self.K, self.K, optimize="greedy"
        )

    def scalar_relation_residual(self, lam):
        """|lambda m(m-1) - (rho-hat + g(T,T) - g(K,K))|."""
        m = self.geometry.dim
        rhs = self.geometry.scalar + self.metric_inner_tt() - self.metric_inner_kk()
        return np.abs(lam * m * (m - 1) - rhs)

    def laplacian_cubic_terms(self):
        """Terms of Delta_g g(K,K) = 2 g(F,K) + 2 g(nabla^g K, nabla^g K).

        F(X,Y) = sum_l (R^g(e_l, X)K)(e_l, Y).  Returns the three terms and the
        residual per point; hypotheses (conjugate symmetry, parallel T) are the
        caller's responsibility.
        """
        geom = self.geometry
        g, ginv, riem = geom.g, geom.ginv, geom.riemann

        k_low = jet_einsum("kl,kij->lij", geom.g_jets, self.K_jets)
        k_mid = jet_einsum("ia,kaj->kij", geom.ginv_jets, self.K_jets)
        k_up = jet_einsum("jb,kib->kij", geom.ginv_jets, k_mid)
        phi = jet_einsum("kij,kij->", k_low, k_up)
        laplacian = geom.laplacian_scalar(phi)

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

    def conjugate(self):
        """The statistical frame of (g, -C); its nabla is this frame's nabla-bar."""
        return StatisticalFrame(self.geometry, -1.0 * self.C_jets)
