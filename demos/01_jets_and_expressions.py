"""Truncated jets and the component-expression DSL.

Metric and cubic-form components enter as strings in a small arithmetic
language; evaluating an expression on jets returns its exact partial
derivatives up to order 3 at a batch of points.  A central-difference oracle
double-checks every derivative the jets produce.
"""

import numpy as np

from statmanifold import eval_jet, fd_jet, parse_expression, to_source

print("== parsing ==")
src = "1/(a1+a2+1) * a1*(a1+1)/(x1*x1)"
ast = parse_expression(src, ["x1", "x2"], {"a1": 1.0, "a2": 2.0})
print("source:     ", src)
print("round trip: ", to_source(ast))

print()
print("== jets carry exact derivatives ==")
points = np.array([[2.0, 1.0], [0.7, 1.3]])
jet = eval_jet(ast, points, order=3)
print("values:           ", jet.value)
print("gradients:        ", jet.gradient()[0], jet.gradient()[1])
print("hessian at p0:\n", jet.hessian()[0])

print()
print("== central differences agree to truncation error ==")
_, fd_gradient, fd_hessian = fd_jet(ast, points, order=2, h=1e-4)
print("max |jet - fd| gradient:", np.max(np.abs(jet.gradient() - fd_gradient)))
print("max |jet - fd| hessian: ", np.max(np.abs(jet.hessian() - fd_hessian)))

print()
print("== domain violations are hard errors ==")
bad = parse_expression("log(x1 - 1)", ["x1", "x2"])
try:
    eval_jet(bad, np.array([[0.5, 0.0]]), 1)
except Exception as err:
    print("caught:", err)
