"""Semi-equiaffine structures and biharmonic identity maps.

The identity maps id:(M,g,nabla) -> (M,g,nabla^g) and its conjugate have
vanishing statistical bi-tension exactly when the Tchebychev field satisfies

    (T1)  Delta_g T + sum_i Ric^g(e_i, T) e_i = 0
    (T2)  div^g(T) T + nabla^g_T T = 0.

A parallel cubic form on the flat chart (which descends to the torus) gives a
positive instance with T != 0; a random polynomial cubic form is the negative
control.  The two identities behind the equivalence hold either way.
"""

import numpy as np

from statmanifold import evaluate_spec, flat_constant_cubic, random_polynomial_cubic, run_diagnostics

print("== flat chart, parallel cubic form (torus instance) ==")
inst = flat_constant_cubic(2, {"111": 2.0, "122": -0.5})
_, stat, ident = evaluate_spec(inst.spec)
report = run_diagnostics(inst.spec)
print("T (constant)          :", stat.T[0])
print("max |nabla^g T|       :", np.max(np.abs(stat.tch)))
print("max |(T1)|, |(T2)|    :", np.max(np.abs(ident.t1)), np.max(np.abs(ident.t2)))
print("max |tau2|, |taubar2| :", np.max(np.abs(ident.tau2)), np.max(np.abs(ident.taubar2)))
print("semi-equiaffine       :", report.flags["semi_equiaffine"])

print()
print("== random polynomial cubic form (negative control) ==")
inst = random_polynomial_cubic(2, degree=2, seed=9)
_, stat, ident = evaluate_spec(inst.spec)
report = run_diagnostics(inst.spec)
print("max |(T1)|, |(T2)|    :", np.max(np.abs(ident.t1)), np.max(np.abs(ident.t2)))
print("max |tau2|, |taubar2| :", np.max(np.abs(ident.tau2)), np.max(np.abs(ident.taubar2)))
print("semi-equiaffine       :", report.flags["semi_equiaffine"])
print("flag equivalence      :", report.main1_flag_equivalence)
print("identity residual A   :", report.checks["main1_identity_a"].max_residual,
      " (tau2 - taubar2 vs harmonic difference formula)")
print("identity residual B   :", report.checks["main1_identity_b"].max_residual,
      " (tau2 + taubar2 vs -2 (T2))")

print()
print("== both computation routes for the bi-tension agree ==")
print("max route disagreement:", report.checks["bitension_path_independence"].max_residual)
