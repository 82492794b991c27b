"""Symbolic oracle of the main theorem's fields.

The coordinate formulas of Gamma, R, nabla^g T, the bi-tension fields tau2 and
tau-bar2, and the (T1) and (T2) fields are written once over sympy expressions
of the spec's sources, differentiated by ``sympy.diff`` and evaluated at the
sample points.  This route shares no code with the jet route it checks: no jet,
no frame and no numeric contraction.
"""

from dataclasses import replace
from functools import cache
from itertools import product

import numpy as np
import pytest
import report_digest

from statmanifold import (
    ManifoldSpec,
    builtin_names,
    evaluate_spec,
    flat_constant_cubic,
    geometry,
    get_builtin,
    random_polynomial_cubic,
)
from statmanifold.manifold import component_key

sympy = pytest.importorskip("sympy")

SEED = 1
# |jet - symbolic| / (1 + |symbolic|) per component and point; the worst on these
# charts is about 3e-13, on the centroaffine charts
TOLERANCE = 1e-10


def _charts():
    """Every builtin, both degree-2 negative controls, both one-factor charts and
    the diagonal non-Einstein chart: the last five have non-zero bi-tension fields."""
    charts = {name: get_builtin(name).spec for name in builtin_names()}
    for m in (2, 3):
        charts[f"negative-control-m{m}"] = random_polynomial_cubic(m, 2, SEED).spec
    for label, cubic in report_digest.ONE_FACTOR_CUBICS.items():
        charts[label] = replace(flat_constant_cubic(2).spec, name=label, cubic=cubic)
    chart = report_digest.DIAGONAL_NON_EINSTEIN_M3
    charts[chart["name"]] = ManifoldSpec.from_dict(chart)
    return charts


CHARTS = _charts()


def symbolic_fields(spec):
    """(coordinate symbols, {field name: nested component list}) of the spec."""
    x = sympy.symbols(spec.coordinates, real=True)
    scope = dict(zip(spec.coordinates, x)) | {k: float(v) for k, v in spec.parameters.items()}
    scope["pow"] = sympy.Pow
    axes = range(spec.dim)

    def tensor(rank, component):
        """Nested lists of ``component(*indices)`` over ``rank`` axes."""
        if rank == 0:
            return component()
        return [tensor(rank - 1, lambda *rest, i=i: component(i, *rest)) for i in axes]

    def total(terms):
        return sympy.Add(*terms)

    def source(table, *indices):
        return sympy.sympify(table.get(component_key(indices), "0"), locals=scope)

    def d(expr, i):
        return sympy.diff(expr, x[i])

    g = sympy.Matrix(tensor(2, lambda i, j: source(spec.metric, i, j)))
    ginv = sympy.diag(*(1 / g[i, i] for i in axes)) if g.is_diagonal() else g.inv()
    cubic = tensor(3, lambda i, j, k: source(spec.cubic, i, j, k))
    gamma = tensor(3, lambda k, i, j: total(
        ginv[k, l] * (d(g[j, l], i) + d(g[i, l], j) - d(g[i, j], l)) for l in axes
    ) / 2)
    # R(e_i, e_j)e_k = R^l_ijk e_l
    riemann = tensor(4, lambda l, i, j, k: d(gamma[l][j][k], i) - d(gamma[l][i][k], j) + total(
        gamma[l][i][a] * gamma[a][j][k] - gamma[l][j][a] * gamma[a][i][k] for a in axes
    ))
    ricci = tensor(2, lambda u, v: total(riemann[a][a][u][v] for a in axes))
    k_diff = tensor(3, lambda k, i, j: -total(ginv[k, l] * cubic[i][j][l] for l in axes) / 2)
    nabla = tensor(3, lambda k, i, j: gamma[k][i][j] + k_diff[k][i][j])
    bar = tensor(3, lambda k, i, j: gamma[k][i][j] - k_diff[k][i][j])
    t = tensor(1, lambda k: total(ginv[i, j] * k_diff[k][i][j] for i, j in product(axes, axes)))

    # nabla^g T with the direction last, and d_a (nabla_b T)^k + Gamma^k_ac (nabla_b T)^c:
    # the second covariant derivative without its -D^c_ab (nabla_c T)^k term, whose
    # connection D each Laplacian sets
    tch = tensor(2, lambda k, e: d(t[k], e) + total(gamma[k][e][a] * t[a] for a in axes))
    second = tensor(3, lambda k, a, b: d(tch[k][b], a) + total(gamma[k][a][c] * tch[c][b] for c in axes))
    div = total(tch[k][k] for k in axes)

    def laplacian(coeff):
        """Connection Laplacian of T with the source connection ``coeff`` in its correction slot."""
        return tensor(1, lambda k: total(
            ginv[a, b] * (second[k][a][b] - total(tch[k][c] * coeff[c][a][b] for c in axes))
            for a, b in product(axes, axes)
        ))

    # sum_i R(e_i, T)e_i and sum_i Ric(e_i, T)e_i
    curvature_t = tensor(1, lambda l: total(
        ginv[a, c] * riemann[l][a][b][c] * t[b] for a, b, c in product(axes, axes, axes)
    ))
    ricci_t = tensor(1, lambda k: total(ginv[k, a] * ricci[a][b] * t[b] for a, b in product(axes, axes)))
    # the tensions are tau = -T and tau-bar = T
    lap_bar, lap_nabla, rough = laplacian(bar), laplacian(nabla), laplacian(gamma)
    return x, {
        "gamma": gamma,
        "riemann": riemann,
        "tch": tch,
        "tau2": [-lap_bar[k] - div * t[k] + curvature_t[k] for k in axes],
        "taubar2": [lap_nabla[k] - div * t[k] - curvature_t[k] for k in axes],
        "t1": [rough[k] + ricci_t[k] for k in axes],
        "t2": [div * t[k] + total(tch[k][e] * t[e] for e in axes) for k in axes],
    }


@cache
def symbolic_values(name):
    """{field name: (N, *axes) array} of the chart's symbolic fields at its sample points,
    computed once per chart and shared, so the mutation tests pay no sympy time."""
    spec = CHARTS[name]
    x, fields = symbolic_fields(spec)
    arrays = {field: np.array(components, dtype=object) for field, components in fields.items()}
    flat = [expr for array in arrays.values() for expr in array.ravel()]
    # cse in the order found takes about half the time of sympy's canonical order
    fn = sympy.lambdify(x, flat, modules="numpy", cse=lambda exprs: sympy.cse(exprs, order="none"))
    points = spec.sample_points(seed=SEED)
    values = iter(np.broadcast_to(np.asarray(v, dtype=float), len(points)) for v in fn(*points.T))
    return {
        field: np.stack([next(values) for _ in range(array.size)], axis=-1).reshape(
            (len(points),) + array.shape
        )
        for field, array in arrays.items()
    }


def jet_values(name):
    """The same fields from the jet route's frames at the chart's sample points."""
    geom, stat, ident = evaluate_spec(CHARTS[name], seed=SEED)
    return {
        "gamma": geom.gamma, "riemann": geom.riemann, "tch": stat.tch,
        "tau2": ident.tau2, "taubar2": ident.taubar2, "t1": ident.t1, "t2": ident.t2,
    }


def deviations(name):
    """Per field, the max of |jet - symbolic| / (1 + |symbolic|)."""
    symbolic, jet = symbolic_values(name), jet_values(name)
    return {
        field: float(np.max(np.abs(jet[field] - value) / (1.0 + np.abs(value))))
        for field, value in symbolic.items()
    }


@pytest.mark.parametrize("name", CHARTS)
def test_jet_fields_match_the_symbolic_oracle(name):
    assert deviations(name) == dict.fromkeys(symbolic_values(name), pytest.approx(0, abs=TOLERANCE))
    # the four fields vanish on every builtin; the other charts give the oracle values to check
    peak = max(np.max(np.abs(symbolic_values(name)[field])) for field in ("tau2", "taubar2", "t1", "t2"))
    assert (peak > 0.3) == (name not in builtin_names())


@pytest.fixture
def transposed_ricci_raised(monkeypatch):
    """Mutates sum_i Ric(e_i, V)e_i to Ric g^{-1} V, which agrees with g^{-1} Ric V
    on an Einstein metric only."""
    monkeypatch.setattr(
        geometry.GeometryFrame, "ricci_raised",
        lambda self, v: (self.ricci @ (self.ginv @ v[..., None]))[..., 0],
    )


@pytest.mark.parametrize(
    ("mutation", "name", "field"),
    [
        ("flipped_curvature", "centroaffine", "riemann"),
        ("transposed_ricci_raised", report_digest.DIAGONAL_NON_EINSTEIN_M3["name"], "t1"),
    ],
)
def test_the_oracle_catches_index_mutations(request, mutation, name, field):
    request.getfixturevalue(mutation)
    assert deviations(name)[field] > 1e3 * TOLERANCE
