"""Curvature of the model spaces in conformal charts.

The sphere and hyperbolic space enter through the conformal metric
4 delta / (1 + c |x|^2)^2.  The kernel recovers Ric = c (m-1) g and the
scalar curvature c m (m-1), and the sphere's first Laplace eigenfunction
(the pulled-back height function) reproduces the eigenvalue -c m.
"""

import numpy as np

from statmanifold import (
    eval_jet,
    evaluate_spec,
    hyperbolic_ball,
    parse_expression,
    sphere_stereographic,
)

for instance in (sphere_stereographic(2, 1.0), sphere_stereographic(3, 1.0),
                 hyperbolic_ball(2, -1.0), hyperbolic_ball(3, -1.0)):
    geom, _, _ = evaluate_spec(instance.spec, count=60)
    c = instance.spec.parameters["c"]
    m = instance.spec.dim
    ric_residual = np.max(np.abs(geom.ricci - c * (m - 1) * geom.g))
    print(f"{instance.spec.name:28s} scalar curvature {geom.scalar[0]:+9.5f} "
          f"(expected {c*m*(m-1):+9.5f}), |Ric - c(m-1)g| = {ric_residual:.2e}")

print()
print("== first eigenfunction of the sphere Laplacian ==")
for m, c in ((2, 1.0), (3, 1.0), (2, 4.0)):
    instance = sphere_stereographic(m, c)
    geom, _, _ = evaluate_spec(instance.spec)
    # the pulled-back height function (1 - c|x|^2) / (sqrt(c) (1 + c|x|^2))
    norm = " + ".join(f"{x}*{x}" for x in instance.spec.coordinates)
    ast = parse_expression(f"(1 - c*({norm}))/(sqrt(c)*(1 + c*({norm})))",
                           instance.spec.coordinates, instance.spec.parameters)
    f = eval_jet(ast, geom.points, 3)
    laplacian = geom.laplacian_scalar(f)
    ratio = laplacian / f.value
    print(f"S^{m}(c={c:g}): Laplacian/eigenfunction ratio = {ratio[0]:+.8f} "
          f"(lambda_1 = {-c*m:+g}), spread {np.ptp(ratio):.2e}")
