"""Statistical kernel: cubic form, difference tensor, dual connections,
Tchebychev field, curvature interchange, and the (T1) and (T2) fields of the
semi-equiaffine condition.  The residuals of the structure identities and the
curvature conditions are formed from these fields in ``pipeline.residual_table``.

A statistical structure enters exclusively through a Riemannian metric g and a
totally symmetric cubic form C; the affine connection is derived as
nabla = nabla^g + K with K^k_ij = -1/2 g^{kl} C_{ijl}, which satisfies the
Codazzi equation by construction.  The conjugate connection is
nabla-bar = nabla^g - K.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .geometry import DOWN, UP, GeometryFrame, curvature_components, ricci_components
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
        """(nabla^g_T T + div(T) T, rho = -div^g(T)): where the first vanishes, T is
        geodesic for the potential rho."""
        div = self.geometry.divergence(self.T_jets).value
        return self.t2_vector(), -div

    # -- scalar fields ----------------------------------------------------------

    @cached_property
    def kk_jets(self):
        """g(K, K) = g^{ij} K^a_ib K^b_ja as a scalar jet: g_kl g^{ia} g^{jb} K^k_ij K^l_ab,
        since g(K_X Y, Z) = -C(X, Y, Z)/2 is totally symmetric."""
        k_k = jet_einsum("aib,bja->ij", self.K_jets, self.K_jets)
        return jet_einsum("ij,ij->", self.geometry.ginv_jets, k_k)

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
