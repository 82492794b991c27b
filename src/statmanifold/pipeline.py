"""End-to-end diagnostics: evaluate every identity and condition on a sampled
chart and assemble a deterministic, JSON-serializable report.

Checks fall into three kinds:

* identities: hold for every statistical structure built from (g, C); a
  violation beyond tolerance means a defect and fails the run;
* conditional identities: hold under hypotheses (constant curvature,
  conjugate symmetry with parallel T, nonvanishing T); reported as
  not-applicable when the hypotheses fail numerically;
* conditions: properties of the instance (equiaffine, semi-equiaffine,
  conjugate symmetric, symmetric Ricci, constant curvature) reported as
  flags with their residuals, never as failures.

The report is byte-stable for a fixed (spec, seed, tolerance) apart from the
``runtime_seconds`` field.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .expr import eval_jet, fd_jet
from .geometry import (
    GeometryFrame,
    christoffel_components,
    christoffel_derivative_components,
    curvature_components,
)
from .jets import coordinate_jets
from .manifold import ManifoldSpec, _permutations3
from .maps import IdentityMapReport
from .statistical import StatisticalFrame

PASS, FAIL, NOT_APPLICABLE, INCONCLUSIVE = "pass", "fail", "not-applicable", "inconclusive"

DEFAULT_TOLERANCE = 1e-8
FD_TOLERANCE = 1e-4
CONSTANT_CURVATURE_SCALE = 1e-6


@dataclass
class CheckResult:
    max_residual: float
    argmax_point: list
    status: str

    def to_dict(self):
        return {
            "max_residual": float(self.max_residual),
            "argmax_point": [float(v) for v in self.argmax_point],
            "status": self.status,
        }


@dataclass
class DiagnosticsReport:
    name: str
    spec: dict
    spec_hash: str
    dim: int
    num_points: int
    tolerance: float
    checks: dict
    flags: dict
    constant_curvature: dict
    main1_flag_equivalence: str
    runtime_seconds: float = 0.0
    schema: int = 1

    def to_dict(self):
        return {
            "schema": self.schema,
            "name": self.name,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "dim": self.dim,
            "num_points": self.num_points,
            "tolerance": self.tolerance,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "flags": self.flags,
            "constant_curvature": self.constant_curvature,
            "main1_flag_equivalence": self.main1_flag_equivalence,
            "runtime_seconds": self.runtime_seconds,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def failed_checks(self):
        return [name for name, check in self.checks.items() if check.status == FAIL]

    def exit_code(self):
        if self.failed_checks or self.main1_flag_equivalence == "inconsistent":
            return 2
        return 0


def _frames(compiled, points):
    """Geometry and statistical frames at the jet order budget.

    d Gamma needs the metric to order 3 (GeometryFrame keeps g^{-1} one order
    lower); C and everything built from it (K, T, the tension fields, g(K, K))
    is differentiated at most twice downstream, so order 2 suffices.
    """
    geometry = GeometryFrame(points, compiled.metric_jets(points, 3))
    return geometry, StatisticalFrame(geometry, compiled.cubic_jets(points, 2))


def evaluate_spec(spec: ManifoldSpec, points=None, count=None, seed=None):
    """Build the geometry, statistical and identity-map frames on a sample."""
    compiled = spec.compile()
    if points is None:
        points = compiled.sample_points(count, seed)
    geometry, statistical = _frames(compiled, np.asarray(points, dtype=float))
    return geometry, statistical, IdentityMapReport(statistical)


def _probe_scalar(points, order=3):
    """Deterministic smooth probe used for scalar-Laplacian checks."""
    coords = coordinate_jets(points, order)
    total = coords[0]
    for c in coords[1:]:
        total = total + c
    f = total.sin()
    for c in coords:
        f = f + 0.5 * (c * c)
    return f


def _check(points, residual, tolerance):
    residual = np.asarray(residual, dtype=float)
    idx = int(np.argmax(residual))
    value = float(residual[idx])
    return CheckResult(value, list(points[idx]), PASS if value <= tolerance else FAIL)


def _conditional(points, residual, tolerance, applicable):
    result = _check(points, residual, tolerance)
    if not applicable:
        result.status = NOT_APPLICABLE
    return result


def run_diagnostics(spec: ManifoldSpec, tolerance=DEFAULT_TOLERANCE, count=None, seed=None):
    """Run the full diagnostic battery on a spec; deterministic given (spec, seed)."""
    start = time.perf_counter()
    geometry, stat, identity = evaluate_spec(spec, count=count, seed=seed)
    points = geometry.points
    tol = float(tolerance)

    checks = {}
    checks["codazzi"] = _check(points, stat.codazzi_residual(), tol)
    checks["cubic_form_is_nabla_g"] = _check(points, stat.cubic_is_nabla_g_residual(), tol)
    checks["cubic_form_roundtrip"] = _check(points, stat.cubic_reconstruction_residual(), tol)
    checks["conjugate_duality"] = _check(points, stat.duality_residual(), tol)
    checks["levi_civita_mean"] = _check(points, stat.levi_civita_mean_residual(), tol)
    checks["curvature_conjugation"] = _check(points, stat.curvature_conjugation_residual(), tol)
    checks["curvature_interchange_sum"] = _check(points, stat.interchange_sum_residual(), tol)
    checks["first_bianchi"] = _check(
        points,
        np.maximum(
            geometry.first_bianchi_residual(),
            geometry.first_bianchi_residual(stat.R),
        ),
        tol,
    )
    checks["metric_compatibility"] = _check(points, geometry.metric_compatibility_residual(), tol)
    checks["divergence_identity_gradient_field"] = _check(
        points, geometry.divergence_identity_residual(_probe_scalar(points)), tol
    )
    checks["tension_is_minus_tchebychev"] = _check(points, identity.tension_residual(), tol)
    checks["conjugate_tension_is_tchebychev"] = _check(
        points, identity.conjugate_tension_residual(), tol
    )
    checks["harmonic_tension_vanishes"] = _check(points, identity.harmonic_residual(), tol)
    checks["difftension"] = _check(points, identity.difftension_residual(), max(tol, 1e-12))
    checks["bitension_path_independence"] = _check(
        points, identity.path_independence_residual(), tol
    )
    res_a, res_b = identity.main1_residuals()
    checks["main1_identity_a"] = _check(points, res_a, tol)
    checks["main1_identity_b"] = _check(points, res_b, tol)
    checks["tchebychev_dual_via_volume_form"] = _check(
        points, stat.volume_form_dual_residual(), tol
    )

    # condition residuals (flags, not failures)
    r_minus_l, r_minus_rbar, alt_dk = stat.conjugate_symmetry_residuals()
    conj_sym = float(np.max(np.maximum(np.maximum(r_minus_l, r_minus_rbar), alt_dk)))
    ric_asym = float(np.max(stat.ricci_asymmetry_residual()))
    eq5 = float(np.max(stat.tchebychev_closedness_residual()))
    t_norm = float(np.max(stat.tchebychev_norm()))
    tch_op = float(np.max(stat.tchebychev_operator_norm()))
    t1_max = float(np.max(np.abs(identity.t1)))
    t2_max = float(np.max(np.abs(identity.t2)))
    lam, cc_residual = stat.constant_curvature_fit()
    cc_max = float(np.max(cc_residual))
    cc_flag = cc_max <= CONSTANT_CURVATURE_SCALE * (1.0 + abs(lam))

    flags = {
        "codazzi": checks["codazzi"].status == PASS,
        "ric_symmetric": ric_asym <= tol,
        "conjugate_symmetric": conj_sym <= tol,
        "equiaffine": t_norm <= tol,
        "semi_equiaffine": identity.semi_equiaffine_flag(tol),
        "constant_curvature": cc_flag,
    }

    # the symmetry of Ric and the closedness of g(T, .) must flag together
    ric_state = _band(ric_asym, tol)
    eq5_state = _band(eq5, tol)
    if INCONCLUSIVE in (ric_state, eq5_state):
        sym_status = INCONCLUSIVE
    else:
        sym_status = PASS if ric_state == eq5_state else FAIL
    checks["ricci_symmetry_equivalence"] = CheckResult(
        max(ric_asym, eq5), list(points[0]), sym_status
    )

    checks["conjugate_symmetry_residuals"] = CheckResult(
        conj_sym, list(points[int(np.argmax(np.maximum(np.maximum(r_minus_l, r_minus_rbar), alt_dk)))]),
        PASS if _flags_together(r_minus_l, r_minus_rbar, alt_dk, tol) else FAIL,
    )

    # equiaffine iff the metric volume form is nabla-parallel
    vol_res = float(np.max(stat.volume_form_parallel_residual()))
    t_state = _band(t_norm, tol)
    vol_state = _band(vol_res, tol)
    if INCONCLUSIVE in (t_state, vol_state):
        vol_status = INCONCLUSIVE
    else:
        vol_status = PASS if t_state == vol_state else FAIL
    checks["equiaffine_volume_form_equivalence"] = CheckResult(
        max(t_norm, vol_res), list(points[0]), vol_status
    )

    # parallel-T criterion: semi-equiaffine, symmetric Ric, Ric^g(T,T) <= 0
    # together force nabla^g T = 0
    ricci_tt = float(np.max(stat.ricci_g_tt()))
    checks["parallel_tchebychev_criterion"] = _conditional(
        points,
        stat.tchebychev_operator_norm(),
        tol,
        applicable=(flags["semi_equiaffine"] and flags["ric_symmetric"] and ricci_tt <= tol),
    )

    checks["scalar_curvature_relation"] = _conditional(
        points, stat.scalar_relation_residual(lam), 1e-6, applicable=cc_flag
    )
    lap_terms = stat.laplacian_cubic_terms()
    checks["laplacian_cubic_form"] = _conditional(
        points,
        lap_terms["residual"],
        1e-6,
        applicable=flags["conjugate_symmetric"] and tch_op <= 10.0 * tol,
    )
    geo_res, _rho = stat.geodesic_potential_check()
    checks["geodesic_potential"] = _conditional(
        points, geo_res, tol, applicable=(t_norm > tol and t2_max <= tol)
    )

    equivalence = identity.flag_equivalence(tol)

    report = DiagnosticsReport(
        name=spec.name,
        spec=spec.to_dict(),
        spec_hash=spec.content_hash(),
        dim=spec.dim,
        num_points=int(points.shape[0]),
        tolerance=tol,
        checks=checks,
        flags=flags,
        constant_curvature={
            "lambda": lam,
            "max_residual": cc_max,
            "is_constant": cc_flag,
        },
        main1_flag_equivalence=equivalence,
        runtime_seconds=0.0,
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


def _band(value, tolerance):
    if value <= tolerance:
        return "true"
    if value <= 10.0 * tolerance:
        return INCONCLUSIVE
    return "false"


def _flags_together(a, b, c, tolerance):
    """The three conjugate-symmetry residuals must agree at the flag level."""
    states = {_band(float(np.max(r)), tolerance) for r in (a, b, c)}
    return len(states - {INCONCLUSIVE}) <= 1


# -- finite-difference crosscheck ----------------------------------------------


@dataclass
class CrosscheckReport:
    name: str
    h: float
    threshold: float
    deviations: dict = field(default_factory=dict)

    @property
    def max_deviation(self):
        return max(self.deviations.values())

    @property
    def passed(self):
        return self.max_deviation <= self.threshold

    def to_dict(self):
        return {
            "name": self.name,
            "h": self.h,
            "threshold": self.threshold,
            "deviations": dict(self.deviations),
            "max_deviation": self.max_deviation,
            "passed": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _relative(a, b):
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))


def crosscheck(spec: ManifoldSpec, h=1e-3, threshold=FD_TOLERANCE, count=None, seed=None):
    """Check every jet-differentiated quantity against central differences.

    The sample box is shrunk by 2h on each side so the stencil stays inside
    the domain; Christoffel symbols, the curvature tensor, the scalar
    Laplacian of a smooth probe, and the Tchebychev operator are each
    recomputed from finite-difference derivative estimates and compared.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    compiled = spec.compile()
    m = spec.dim
    shrunk = _shrink_box(spec, 2.0 * h)
    points = shrunk.sample_points(count, seed)

    geometry, stat = _frames(compiled, points)

    # finite-difference metric derivatives
    n = points.shape[0]
    dg_fd = np.zeros((n, m, m, m))
    d2g_fd = np.zeros((n, m, m, m, m))
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            jet = fd_jet(compiled.metric_asts[f"{i}{j}"], points, 2, h, spec.parameters)
            grad, hess = jet.gradient(), jet.hessian()
            dg_fd[:, i - 1, j - 1] = dg_fd[:, j - 1, i - 1] = grad
            d2g_fd[:, i - 1, j - 1] = d2g_fd[:, j - 1, i - 1] = hess

    ginv = geometry.ginv
    gamma_fd = christoffel_components(ginv, dg_fd)
    dgamma_fd = christoffel_derivative_components(ginv, dg_fd, d2g_fd)
    riemann_fd = curvature_components(gamma_fd, dgamma_fd)

    # scalar Laplacian of the probe: fd Hessian/gradient against the jet route
    probe = _probe_scalar(points)
    lap_jet = geometry.laplacian_scalar(probe)
    grad_fd, hess_fd = _fd_scalar(lambda q: _probe_scalar(q, order=0).value, points, h)
    lap_fd = np.einsum("pij,pij->p", ginv, hess_fd) - np.einsum(
        "pij,paij,pa->p", ginv, gamma_fd, grad_fd, optimize="greedy"
    )

    # Tchebychev operator: fd derivatives of the T field (order-0 evaluations)
    t_jacobian_fd = _fd_vector(lambda q: _tchebychev_values(compiled, q), points, h)
    t_values = _tchebychev_values(compiled, points)
    tch_fd = t_jacobian_fd + np.einsum("pkda,pa->pkd", gamma_fd, t_values)

    report = CrosscheckReport(name=spec.name, h=float(h), threshold=float(threshold))
    report.deviations["christoffel"] = _relative(geometry.gamma, gamma_fd)
    report.deviations["curvature"] = _relative(geometry.riemann, riemann_fd)
    report.deviations["scalar_laplacian"] = _relative(lap_jet, lap_fd)
    report.deviations["tchebychev_operator"] = _relative(stat.tch, tch_fd)
    return report


def _shrink_box(spec, margin):
    shrunk_box = {}
    for name, (lo, hi) in spec.sample.box.items():
        if hi - lo <= 2.0 * margin:
            raise ValueError(
                f"sample box for {name!r} is too narrow for fd margin {margin:g}"
            )
        shrunk_box[name] = (lo + margin, hi - margin)
    clone = ManifoldSpec.from_dict(spec.to_dict())
    clone.sample.box = shrunk_box
    return clone


def _fd_scalar(fn, points, h):
    n, m = points.shape
    value = fn(points)
    grad = np.zeros((n, m))
    hess = np.zeros((n, m, m))

    def at(i, si, j=None, sj=None):
        q = points.copy()
        q[:, i] += si * h
        if j is not None:
            q[:, j] += sj * h
        return fn(q)

    for i in range(m):
        fp, fm = at(i, +1), at(i, -1)
        grad[:, i] = (fp - fm) / (2 * h)
        hess[:, i, i] = (fp - 2 * value + fm) / h**2
        for j in range(i + 1, m):
            mixed = (at(i, +1, j, +1) - at(i, +1, j, -1) - at(i, -1, j, +1) + at(i, -1, j, -1)) / (
                4 * h**2
            )
            hess[:, i, j] = hess[:, j, i] = mixed
    return grad, hess


def _fd_vector(fn, points, h):
    """Central-difference Jacobian of a vector field, derivative axis last."""
    n, m = points.shape
    out = np.zeros((n, m, m))
    for d in range(m):
        qp, qm = points.copy(), points.copy()
        qp[:, d] += h
        qm[:, d] -= h
        out[:, :, d] = (fn(qp) - fn(qm)) / (2 * h)
    return out


def _tchebychev_values(compiled, points):
    """Pointwise T through the order-0 route: values of g, C -> K -> trace."""
    m = compiled.dim
    n = np.asarray(points).shape[0]
    g = np.zeros((n, m, m))
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            v = eval_jet(compiled.metric_asts[f"{i}{j}"], points, 0, compiled.spec.parameters).value
            g[:, i - 1, j - 1] = g[:, j - 1, i - 1] = v
    c = np.zeros((n, m, m, m))
    for key, ast in compiled.cubic_asts.items():
        v = eval_jet(ast, points, 0, compiled.spec.parameters).value
        idx = [int(ch) - 1 for ch in key]
        for perm in set(_permutations3(idx)):
            c[(slice(None),) + perm] = v
    ginv = np.linalg.inv(g)
    k = -0.5 * np.einsum("pkl,pijl->pkij", ginv, c)
    return np.einsum("pij,pkij->pk", ginv, k)
