"""Tension and statistical bi-tension fields of the identity maps
id:(M,g,nabla) -> (M,g,nabla^g) and id:(M,g,nabla-bar) -> (M,g,nabla^g).

Two computation routes are kept deliberately separate and compared:

* the general route evaluates the tension field from its trace definition
  tau = tr_g{(X,Y) -> nabla^u id_* Y - id_* nabla_X Y} and the bi-tension from
  the connection-Laplacian formula (the target is Riemannian, so its
  difference tensor vanishes and its interchange tensor is R^g);
* the proof-form route expands everything in terms of the Tchebychev field T.

In the bi-tension formula the conjugated Laplacian carries the conjugate
connection in its correction slot and the Levi-Civita-induced connection on
the pullback bundle.
"""

from __future__ import annotations

import numpy as np

from .jets import jet_einsum
from .statistical import StatisticalFrame

def _tension(geom, source_jets):
    """Tension of id:(M,g,D)->(M,g,nabla^g), tr_g(nabla^g - D), at the order of D's jets."""
    return jet_einsum("ij,kij->k", geom.ginv_jets, geom.gamma_jets - source_jets)


class IdentityMapReport:
    """Identity-map fields and the residuals of their defining identities."""

    def __init__(self, stat: StatisticalFrame):
        self.stat = stat
        geom = stat.geometry

        # the frame keeps the dual connections at order 1; tau and tau-bar are
        # differentiated twice, so their order-2 connections live only here
        gamma, k = geom.gamma_jets, stat.K_jets
        self.tau_jets = _tension(geom, gamma + k)
        self.taubar_jets = _tension(geom, gamma - k)
        self.tau = self.tau_jets.value
        self.taubar = self.taubar_jets.value
        # hat tension of id:(M,g,nabla^g)->(M,g,nabla^g); only its values are used
        self.tauhat = _tension(geom, gamma.truncated(0)).value

        # general route: bi-tension from the connection-Laplacian formula
        trace_k_jets = jet_einsum("ij,kij->k", geom.ginv_jets, stat.K_jets)
        div_trace_k = geom.divergence(trace_k_jets).value
        self.tau2 = (
            geom.connection_laplacian(self.tau_jets, stat.bar)
            + div_trace_k[:, None] * self.tau
            - geom.curvature_contraction(self.tau)
        )
        self.taubar2 = (
            geom.connection_laplacian(self.taubar_jets, stat.nabla)
            - div_trace_k[:, None] * self.taubar
            - geom.curvature_contraction(self.taubar)
        )

        # proof-form route, written out in the Tchebychev field
        t = stat.T
        div_t = np.einsum("pkk->p", stat.tch)
        curv_t = geom.curvature_contraction(t)
        self.tau2_proof = (
            -geom.connection_laplacian(stat.T_jets, stat.bar) - div_t[:, None] * t + curv_t
        )
        self.taubar2_proof = (
            geom.connection_laplacian(stat.T_jets, stat.nabla) - div_t[:, None] * t - curv_t
        )

        self.t1 = stat.t1_vector()
        self.t2 = stat.t2_vector()

    # -- residuals ----------------------------------------------------------

    def tension_residual(self):
        """tau(id) = -T."""
        return np.max(np.abs(self.tau + self.stat.T), axis=1)

    def conjugate_tension_residual(self):
        """tau-bar(id) = +T."""
        return np.max(np.abs(self.taubar - self.stat.T), axis=1)

    def harmonic_residual(self):
        """tau-hat(id) = 0."""
        return np.max(np.abs(self.tauhat), axis=1)

    def difftension_residual(self):
        """tau-hat = (tau + tau-bar)/2."""
        return np.max(np.abs(self.tauhat - 0.5 * (self.tau + self.taubar)), axis=1)

    def path_independence_residual(self):
        """Agreement of the general and proof-form bi-tension routes."""
        a = np.max(np.abs(self.tau2 - self.tau2_proof), axis=1)
        b = np.max(np.abs(self.taubar2 - self.taubar2_proof), axis=1)
        return np.maximum(a, b)

    def main1_residuals(self):
        """The two identities behind the biharmonicity criterion.

        resA: tau2 - taubar2 = 2 (Delta-hat tau - sum_i R^g(e_i, tau) e_i)
        (the harmonic-map case of the bi-tension difference formula);
        resB: tau2 + taubar2 = -2 (div^g(T) T + nabla^g_T T).
        """
        geom = self.stat.geometry
        hat_laplacian = geom.rough_laplacian(self.tau_jets)
        rhs_a = 2.0 * (hat_laplacian - geom.curvature_contraction(self.tau))
        res_a = np.max(np.abs((self.tau2 - self.taubar2) - rhs_a), axis=1)
        res_b = np.max(np.abs((self.tau2 + self.taubar2) + 2.0 * self.t2), axis=1)
        return res_a, res_b

    # -- flags ----------------------------------------------------------------

    def flag_residuals(self):
        """Per point, max |(T1), (T2)| and max |tau2, taubar2|: the inputs of both flags."""
        t_res = np.max(np.abs(np.concatenate([self.t1, self.t2], axis=1)), axis=1)
        b_res = np.max(np.abs(np.concatenate([self.tau2, self.taubar2], axis=1)), axis=1)
        return t_res, b_res
