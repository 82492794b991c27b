"""The centroaffine power surface: the worked example end to end.

The graph immersion (x1, x2) -> (x1, x2, x1^-a1 x2^-a2) induces a statistical
structure whose closed forms are all known: the metric, both connections, the
Tchebychev covector eta = ((1-a1)/x1, (1-a2)/x2), a globally vanishing
Tchebychev operator, and constant curvature -1.  This demo recomputes each
from the (g, C) data and prints the residuals.
"""

import numpy as np

from statmanifold import centroaffine_power_surface, evaluate_spec, run_diagnostics

a1, a2 = 1.0, 2.0
instance = centroaffine_power_surface(a1, a2)
geom, stat, ident = evaluate_spec(instance.spec)
report = run_diagnostics(instance.spec)  # the same sample, reduced into the report
pts = geom.points
print(f"instance: {instance.spec.name}, {pts.shape[0]} sample points")

# closed forms, with s = a1 + a2 + 1 and c_ij = a_i (a_j + delta_ij) / s
c = np.array([[a1 * (a1 + 1.0), a1 * a2], [a1 * a2, a2 * (a2 + 1.0)]]) / (a1 + a2 + 1.0)
g_closed = c / np.einsum("pi,pj->pij", pts, pts)  # g_ij = c_ij / (x^i x^j)
gamma_closed = np.zeros((len(pts), 2, 2, 2))  # Gamma^i_ii = -1/x^i, all others zero
for i in range(2):
    gamma_closed[:, i, i, i] = -1.0 / pts[:, i]
nabla_closed = -np.einsum("pij,pk->pkij", g_closed, pts)  # nabla_{e_i} e_j = -g_ij x
eta_closed = np.stack([(1.0 - a1) / pts[:, 0], (1.0 - a2) / pts[:, 1]], axis=-1)

print()
print("== golden closed forms ==")
print("|g - closed form|      :", np.max(np.abs(geom.g - g_closed)))
print("|Gamma - closed form|  :", np.max(np.abs(geom.gamma - gamma_closed)))
print("|nabla - closed form|  :", np.max(np.abs(stat.nabla - nabla_closed)))
print("|eta - closed form|    :", np.max(np.abs(stat.eta - eta_closed)))
print("|nabla^g T| (vanishes) :", np.max(np.abs(stat.tch)))

print()
print("== curvature condition ==")
fit = report.constant_curvature
print(f"fitted lambda = {fit['lambda']:+.12f}, max residual {fit['max_residual']:.2e}")
print("scalar relation |lambda m(m-1) - (rho + g(T,T) - g(K,K))|:",
      report.checks["scalar_curvature_relation"].max_residual)

print()
print("== identity map fields ==")
print("tau(id) + T = 0        :", report.checks["tension_is_minus_tchebychev"].max_residual)
print("taubar(id) - T = 0     :", report.checks["conjugate_tension_is_tchebychev"].max_residual)
print("bi-tension tau2        :", np.max(np.abs(ident.tau2)))
print("bi-tension taubar2     :", np.max(np.abs(ident.taubar2)))
print("semi-equiaffine flag   :", report.flags["semi_equiaffine"])

print()
print("== equiaffine exponents ==")
_, stat_eq, ident_eq = evaluate_spec(centroaffine_power_surface(1.0, 1.0).spec)
print("a = (1,1): max |T| =", np.max(np.abs(stat_eq.T)), "-> equiaffine")
