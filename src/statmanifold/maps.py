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
the pullback bundle.  The residuals that compare the routes, and those of the
tension identities, are formed in ``pipeline.residual_table``.
"""

from __future__ import annotations

import numpy as np

from .jets import jet_einsum
from .statistical import StatisticalFrame

def _tension(geom, source_jets):
    """Tension of id:(M,g,D)->(M,g,nabla^g), tr_g(nabla^g - D), at the order of D's jets."""
    return jet_einsum("ij,kij->k", geom.ginv_jets, geom.gamma_jets - source_jets)


class IdentityMapReport:
    """Identity-map fields: tensions, both routes of the bi-tensions, (T1) and (T2)."""

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
