"""Catalog of ready-made chart specifications and the flags they must reproduce.

Each builtin bundles a :class:`~statmanifold.manifold.ManifoldSpec` with the
flags the diagnostic pipeline must reproduce and, where known, its constant
curvature.  The closed forms known for each instance (Christoffel symbols,
connection coefficients, Tchebychev covector, ...) live with the tests, which
compare the computed frames against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .jets import MAX_DIM
from .manifold import ManifoldSpec, SampleSpec, component_key

# the random cubic coefficients are uniform in [-AMPLITUDE, AMPLITUDE]
AMPLITUDE = 0.5


@dataclass
class BuiltinInstance:
    spec: ManifoldSpec
    expected: dict = field(default_factory=dict)
    description: str = ""


def centroaffine_power_surface(a1=1.0, a2=2.0):
    """Statistical structure of the centroaffine graph surface
    (x1, x2) -> (x1, x2, x1^-a1 * x2^-a2) over the positive quadrant.

    Closed forms (s = a1 + a2 + 1, c_ij = a_i (a_j + delta_ij)/s):

    * g_ij = c_ij / (x^i x^j) on the box [0.5, 3]^2;
    * Levi-Civita: Gamma^i_ii = -1/x^i, all other components zero;
    * statistical connection: nabla_{e_i} e_j = -g_ij (x^1 e_1 + x^2 e_2);
    * Tchebychev covector: eta = ((1 - a1)/x^1, (1 - a2)/x^2);
    * the Tchebychev operator nabla^g T vanishes identically, so the
      structure is semi-equiaffine, and the curvature is constant -1.

    The cubic form is recovered from the connection difference:
    C_ijk = 2 (c_ij a_k - delta_ij c_ik) / (x^i x^j x^k).
    """
    if a1 <= 0 or a2 <= 0:
        raise ValueError("power-surface exponents must be positive")
    a = (float(a1), float(a2))
    s = "(a1 + a2 + 1)"
    spec = ManifoldSpec(
        name=f"centroaffine-power-surface-{a1:g}-{a2:g}",
        dim=2,
        coordinates=["x1", "x2"],
        parameters={"a1": a[0], "a2": a[1]},
        metric={
            "11": f"a1*(a1 + 1)/({s}*x1*x1)",
            "12": f"a1*a2/({s}*x1*x2)",
            "22": f"a2*(a2 + 1)/({s}*x2*x2)",
        },
        cubic={
            "111": f"2*a1*(a1 + 1)*(a1 - 1)/({s}*x1*x1*x1)",
            "112": f"2*a1*a1*a2/({s}*x1*x1*x2)",
            "122": f"2*a1*a2*a2/({s}*x1*x2*x2)",
            "222": f"2*a2*(a2 + 1)*(a2 - 1)/({s}*x2*x2*x2)",
        },
        sample=SampleSpec(box={"x1": (0.5, 3.0), "x2": (0.5, 3.0)}),
    )

    equiaffine = a == (1.0, 1.0)
    return BuiltinInstance(
        spec=spec,
        expected={
            "codazzi": True,
            "ric_symmetric": True,
            "conjugate_symmetric": True,
            "equiaffine": equiaffine,
            "semi_equiaffine": True,
            "constant_curvature": -1.0,
        },
        description="centroaffine power surface; Tchebychev operator vanishes globally",
    )


def random_symmetric_constants(dim, seed):
    """Totally symmetric constant cubic components, keyed by sorted index strings."""
    rng = np.random.default_rng(seed)
    return {
        component_key(combo): round(float(AMPLITUDE * (2.0 * rng.random() - 1.0)), 6)
        for combo in combinations_with_replacement(range(dim), 3)
    }


def flat_constant_cubic(dim=2, cubic=None):
    """Euclidean metric with a constant (hence parallel) cubic form.

    The Tchebychev field T^k = -1/2 sum_i C_iik is constant, nabla^g T = 0,
    and the structure is semi-equiaffine; it descends to the standard torus.
    """
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 2..{MAX_DIM}")
    if cubic is None:
        cubic = {"111": 2.0}
    cubic = {key: float(value) for key, value in cubic.items()}
    coords = [f"x{i}" for i in range(1, dim + 1)]
    spec = ManifoldSpec(
        name=f"flat-constant-cubic-m{dim}",
        dim=dim,
        coordinates=coords,
        metric=_diagonal_metric(dim, "1"),
        cubic={key: repr(value) for key, value in cubic.items()},
        sample=SampleSpec(box={name: (-1.0, 1.0) for name in coords}),
    )

    full = np.zeros((dim, dim, dim))
    for entry in np.ndindex(full.shape):
        full[entry] = cubic.get(component_key(entry), 0.0)
    t_const = -0.5 * np.einsum("iik->k", full)

    return BuiltinInstance(
        spec=spec,
        expected={
            "codazzi": True,
            "ric_symmetric": True,
            "conjugate_symmetric": True,
            "equiaffine": bool(np.allclose(t_const, 0.0)),
            "semi_equiaffine": True,
            "constant_curvature": 0.0 if np.allclose(full, 0.0) else None,
        },
        description="flat chart with parallel cubic form (projects to the standard torus)",
    )


def _diagonal_metric(dim, entry):
    """Metric components with ``entry`` on the diagonal and 0 off it."""
    pairs = combinations_with_replacement(range(dim), 2)
    return {component_key((i, j)): entry if i == j else "0" for i, j in pairs}


def _conformal_instance(dim, curvature, kind, description):
    """Builtin of constant curvature c: g = 4 delta / (1 + c |x|^2)^2 on a centred box."""
    coords = [f"x{i}" for i in range(1, dim + 1)]
    norm = " + ".join(f"{x}*{x}" for x in coords)
    half_width = 0.5 / np.sqrt(abs(curvature) * dim)
    spec = ManifoldSpec(
        name=f"{kind}-m{dim}-c{curvature:g}",
        dim=dim,
        coordinates=coords,
        parameters={"c": float(curvature)},
        metric=_diagonal_metric(dim, f"4/pow(1 + c*({norm}), 2)"),
        sample=SampleSpec(box={name: (-half_width, half_width) for name in coords}),
    )
    return BuiltinInstance(
        spec=spec,
        expected={
            "codazzi": True,
            "ric_symmetric": True,
            "conjugate_symmetric": True,
            "equiaffine": True,
            "semi_equiaffine": True,
            "constant_curvature": float(curvature),
            "scalar_curvature": float(curvature * dim * (dim - 1)),
        },
        description=description,
    )


def sphere_stereographic(dim=2, curvature=1.0):
    """Round sphere of curvature c > 0 in a stereographic chart.

    g = 4 delta / (1 + c |x|^2)^2; Ric = c (dim - 1) g; the chart pullback of
    the ambient height function is a first eigenfunction of the Laplacian
    with eigenvalue -c * dim.
    """
    if curvature <= 0:
        raise ValueError("sphere curvature must be positive")
    return _conformal_instance(
        dim, curvature, "sphere-stereographic",
        "round sphere (stereographic chart), Riemannian statistical structure",
    )


def hyperbolic_ball(dim=2, curvature=-1.0):
    """Hyperbolic space of curvature c < 0 in the conformal ball chart."""
    if curvature >= 0:
        raise ValueError("hyperbolic curvature must be negative")
    return _conformal_instance(
        dim, curvature, "hyperbolic-ball",
        "hyperbolic space (Poincare ball chart), Riemannian statistical structure",
    )


def random_polynomial_cubic(dim=2, degree=2, seed=0):
    """Flat chart with a random polynomial cubic form (seeded, generically
    neither equiaffine nor semi-equiaffine); the negative control family."""
    if degree < 0 or degree > 2:
        raise ValueError("polynomial degree must be 0, 1 or 2")
    coords = [f"x{i}" for i in range(1, dim + 1)]
    monomials = ["1"]
    if degree >= 1:
        monomials += coords
    if degree >= 2:
        monomials += [f"{a}*{b}" for a, b in combinations_with_replacement(coords, 2)]
    rng = np.random.default_rng(seed)
    cubic = {}
    for combo in combinations_with_replacement(range(dim), 3):
        coeffs = AMPLITUDE * (2.0 * rng.random(len(monomials)) - 1.0)
        terms = [f"{round(float(c), 6)!r}*{mono}" if mono != "1" else f"{round(float(c), 6)!r}"
                 for c, mono in zip(coeffs, monomials)]
        cubic[component_key(combo)] = " + ".join(terms)
    spec = ManifoldSpec(
        name=f"flat-random-cubic-m{dim}-seed{seed}",
        dim=dim,
        coordinates=coords,
        metric=_diagonal_metric(dim, "1"),
        cubic=cubic,
        sample=SampleSpec(box={name: (-1.0, 1.0) for name in coords}),
    )
    return BuiltinInstance(
        spec=spec,
        expected={"codazzi": True},
        description=f"flat chart with random degree-{degree} polynomial cubic form, seed {seed}",
    )


_REGISTRY = {
    "centroaffine": lambda: centroaffine_power_surface(1.0, 2.0),
    "centroaffine-equiaffine": lambda: centroaffine_power_surface(1.0, 1.0),
    "centroaffine-2-3": lambda: centroaffine_power_surface(2.0, 3.0),
    "flat-cubic": lambda: flat_constant_cubic(2, {"111": 2.0}),
    "flat-cubic-m3": lambda: flat_constant_cubic(3, random_symmetric_constants(3, seed=7)),
    "sphere-m2": lambda: sphere_stereographic(2, 1.0),
    "sphere-m3": lambda: sphere_stereographic(3, 1.0),
    "sphere-m2-c4": lambda: sphere_stereographic(2, 4.0),
    "hyperbolic-m2": lambda: hyperbolic_ball(2, -1.0),
    "hyperbolic-m3": lambda: hyperbolic_ball(3, -1.0),
}


def builtin_names():
    return list(_REGISTRY)


def get_builtin(name):
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; available: {', '.join(_REGISTRY)}") from None
