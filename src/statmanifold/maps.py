"""Tension and statistical bi-tension fields of the identity maps
id:(M,g,nabla) -> (M,g,nabla^g) and id:(M,g,nabla-bar) -> (M,g,nabla^g).

Both tensions take their values from their trace definition tau = tr_g{(X,Y) -> nabla^u
id_* Y - id_* nabla_X Y}, here tr_g(Gamma - (Gamma +- K)), and as fields are -T and T;
that of id:(M,g,nabla^g) -> (M,g,nabla^g), tr_g(nabla^g - nabla^g), is zero and not formed.
Two routes of the bi-tension, both reading the frame's T = tr_g K, are compared:

* the general route uses the connection-Laplacian formula (the target is
  Riemannian, so its difference tensor vanishes and its interchange tensor is R^g);
* the proof-form route expands everything in terms of the Tchebychev field T.

In the bi-tension formula the conjugated Laplacian carries the conjugate
connection in its correction slot and the Levi-Civita-induced connection on
the pullback bundle.  Every residual is formed in ``pipeline.residual_table``.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet
from .statistical import StatisticalFrame


class IdentityMapReport:
    """Identity-map fields: tensions, both routes of the bi-tensions, (T1) and (T2)."""

    def __init__(self, stat: StatisticalFrame):
        geom = stat.geometry

        # tau and tau-bar, tr_g(nabla^g - D) for D = Gamma +- K, on values; the bi-tension
        # differentiates -T and T, each a Jet of its own that nabla^g forms apart from T
        gamma, k = geom.gamma, stat.K
        self.tau, self.taubar = (
            np.einsum("pij,pkij->pk", geom.ginv, gamma - d) for d in (gamma + k, gamma - k)
        )
        self.tau_jets, self.taubar_jets = -stat.T_jets, Jet(stat.T_jets.space, stat.T_jets.coeff)

        # general route: bi-tension from the connection-Laplacian formula; tr_g K is the
        # frame's T, and only the value of its divergence is read, so T enters at order 1
        div_trace_k = geom.divergence(stat.T_jets.truncated(1)).value
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
