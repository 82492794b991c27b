"""Closed forms of the builtin instances, the oracles the computed frames are
compared against.

``CLOSED_FORMS`` maps each builtin name to a function of the instance's spec
that returns its closed forms: callables of the sample points, plus the sphere's
first eigenfunction as a DSL source and its eigenvalue.  The family functions
read every parameter from the spec, so they also serve instances built with
other parameters.
"""

from itertools import permutations

import numpy as np


def centroaffine(spec):
    """Power surface (x1, x2, x1^-a1 x2^-a2): g, Gamma, nabla and eta, and nabla^g T = 0."""
    a = (spec.parameters["a1"], spec.parameters["a2"])
    scale = a[0] + a[1] + 1.0
    c = np.array(
        [
            [a[0] * (a[0] + 1.0), a[0] * a[1]],
            [a[0] * a[1], a[1] * (a[1] + 1.0)],
        ]
    ) / scale

    def metric(points):
        x = np.asarray(points, dtype=float)
        return c / np.einsum("pi,pj->pij", x, x)

    def christoffel(points):
        x = np.asarray(points, dtype=float)
        gamma = np.zeros((x.shape[0], 2, 2, 2))
        for i in range(2):
            gamma[:, i, i, i] = -1.0 / x[:, i]
        return gamma

    def nabla_coefficients(points):
        x = np.asarray(points, dtype=float)
        return -np.einsum("pij,pk->pkij", metric(points), x)

    def eta(points):
        x = np.asarray(points, dtype=float)
        return np.stack([(1.0 - a[0]) / x[:, 0], (1.0 - a[1]) / x[:, 1]], axis=-1)

    return {
        "metric": metric,
        "christoffel": christoffel,
        "nabla_coefficients": nabla_coefficients,
        "eta": eta,
        "tchebychev_operator": lambda points: np.zeros((len(points), 2, 2)),
    }


def flat_constant_cubic(spec):
    """Euclidean metric, constant C: K = -C/2 and T^k = -1/2 sum_i C_iik, both
    constant, and nabla^g T = 0."""
    dim = spec.dim
    full = np.zeros((dim, dim, dim))
    for key, source in spec.cubic.items():
        for perm in permutations(int(ch) - 1 for ch in key):
            full[perm] = float(source)
    t_const = -0.5 * np.einsum("iik->k", full)
    return {
        "tchebychev": lambda points: np.broadcast_to(t_const, (len(points), dim)).copy(),
        "difference": lambda points: np.broadcast_to(
            -0.5 * full, (len(points), dim, dim, dim)
        ).copy(),
        "tchebychev_operator": lambda points: np.zeros((len(points), dim, dim)),
    }


def conformal(spec):
    """g = 4 delta / (1 + c |x|^2)^2 and Ric = c (m - 1) g."""
    curvature, dim = spec.parameters["c"], spec.dim

    def metric(points):
        x = np.asarray(points, dtype=float)
        factor = 4.0 / (1.0 + curvature * np.sum(x * x, axis=1)) ** 2
        return np.einsum("p,ij->pij", factor, np.eye(dim))

    return {"metric": metric, "ricci": lambda points: curvature * (dim - 1) * metric(points)}


def sphere(spec):
    """The conformal closed forms, plus the pulled-back height function: a first
    eigenfunction of the Laplacian, with eigenvalue -c m."""
    norm = " + ".join(f"{x}*{x}" for x in spec.coordinates)
    return {
        **conformal(spec),
        "eigenfunction": f"(1 - c*({norm}))/(sqrt(c)*(1 + c*({norm})))",
        "eigenvalue": -spec.parameters["c"] * spec.dim,
    }


CLOSED_FORMS = {
    "centroaffine": centroaffine,
    "centroaffine-equiaffine": centroaffine,
    "centroaffine-2-3": centroaffine,
    "flat-cubic": flat_constant_cubic,
    "flat-cubic-m3": flat_constant_cubic,
    "sphere-m2": sphere,
    "sphere-m3": sphere,
    "sphere-m2-c4": sphere,
    "hyperbolic-m2": conformal,
    "hyperbolic-m3": conformal,
}
