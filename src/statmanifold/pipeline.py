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
from dataclasses import asdict, dataclass, field

import numpy as np

from .expr import central_differences, eval_jet, fd_jet, parse_expression
from .geometry import (
    GeometryFrame,
    christoffel_components,
    christoffel_derivative_components,
    curvature_components,
)
from .manifold import ManifoldSpec, OptionError, SpecValidationError, require_sample_options
from .maps import IdentityMapReport
from .statistical import StatisticalFrame, fit_constant_curvature, scalar_relation_gap

PASS, FAIL, NOT_APPLICABLE = "pass", "fail", "not-applicable"
TRUE, FALSE, INCONCLUSIVE = "true", "false", "inconclusive"

DEFAULT_TOLERANCE = 1e-8
FD_TOLERANCE = 1e-4
FD_STEP = 1e-3
CONSTANT_CURVATURE_SCALE = 1e-6
# tolerance of the conditional relations between curvature scalars
RELATION_TOLERANCE = 1e-6
# points per frame in run_diagnostics and crosscheck: large enough that numpy
# dispatch is amortised, small enough that a block's arrays stay in cache
BLOCK_POINTS = 1024


@dataclass
class CheckResult:
    max_residual: float
    argmax_point: list
    status: str


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

    to_dict = asdict

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @property
    def failed_checks(self):
        return [name for name, check in self.checks.items() if check.status == FAIL]

    def exit_code(self):
        if self.failed_checks or self.main1_flag_equivalence == "inconsistent":
            return 2
        return 0


def _frames(
    compiled, points, metric_order, cubic_order, reads=("R", "Rbar", "ric", "L", "Lbar", "tch", "dK")
):
    """Geometry and statistical frames at the caller's jet orders.

    The diagnostics take d Gamma, so they need the metric to order 3
    (GeometryFrame keeps g^{-1} one order lower), and differentiate C and
    everything built from it (K, T, the tension fields, g(K, K)) at most
    twice, so C to order 2.  The statistical fields named in ``reads`` are
    computed in that order.  Input jets, geometry values, K, T and the fields
    read that are not finite end as a spec error.
    """
    metric = compiled.metric_jets(points, metric_order)
    cubic = compiled.cubic_jets(points, cubic_order)
    geometry = GeometryFrame(points, metric)
    _require_finite(
        points, "geometry", ginv=geometry.ginv, gamma=geometry.gamma,
        dgamma=geometry.dgamma, riemann=geometry.riemann, ricci=geometry.ricci,
    )
    stat = StatisticalFrame(geometry, cubic)
    _require_finite(
        points, "statistical", **{name: getattr(stat, name) for name in ("K", "T", *reads)}
    )
    return geometry, stat


def _require_finite(points, stage, **arrays):
    """Raise a spec error at the first sample point where a value array is not finite."""
    for name, values in arrays.items():
        bad = ~np.isfinite(values.reshape(len(points), -1)).all(axis=1)
        if bad.any():
            at = points[int(np.argmax(bad))].tolist()
            raise SpecValidationError([f"{stage} frame: {name} is not finite at sample point {at}"])


def _diagnostic_frames(compiled, points):
    """Geometry, statistical and identity-map frames at the diagnostics' jet
    orders; a value that is not finite in any of them ends as a spec error."""
    geometry, stat = _frames(compiled, points, 3, 2)
    identity = IdentityMapReport(stat)
    _require_finite(
        points, "identity map", tau2=identity.tau2, taubar2=identity.taubar2,
        tau2_proof=identity.tau2_proof, taubar2_proof=identity.taubar2_proof,
        t1=identity.t1, t2=identity.t2,
    )
    return geometry, stat, identity


def evaluate_spec(spec: ManifoldSpec, count=None, seed=None):
    """Build the geometry, statistical and identity-map frames on a sample."""
    return _diagnostic_frames(spec.compile(), spec.sample_points(count, seed))


def _probe(coordinates):
    """Deterministic smooth probe of the scalar-Laplacian checks, as an expression:
    sin(x1 + ... + xm) + 0.5*(x1*x1) + ... + 0.5*(xm*xm)."""
    squares = "".join(f" + 0.5*({x}*{x})" for x in coordinates)
    return parse_expression(f"sin({' + '.join(coordinates)}){squares}", coordinates)


def _require_real(name, value, positive=False):
    """``value`` as a float; OptionError naming it unless finite and >= 0 (> 0 if ``positive``)."""
    value = float(value)
    if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "positive" if positive else "nonnegative"
        raise OptionError(name, f"must be finite and {bound}, got {value}")
    return value


def _check(points, residual, tolerance, status=None):
    """Max and first argmax of a per-point residual; status from the tolerance unless given."""
    idx = int(np.argmax(residual))
    value = float(residual[idx])
    return CheckResult(value, points[idx].tolist(), status or (PASS if value <= tolerance else FAIL))


def _concatenate(parts):
    """Concatenate per-block arrays, recursing into nested dicts of them;
    tuples stay per block, as a list."""
    if isinstance(parts[0], dict):
        return {key: _concatenate([part[key] for part in parts]) for key in parts[0]}
    if isinstance(parts[0], tuple):
        return parts
    return np.concatenate(parts)


def _per_point(points, block_fn):
    """Run ``block_fn`` on consecutive blocks of BLOCK_POINTS points and
    concatenate the (nested dicts of) per-point arrays it returns."""
    starts = range(0, len(points), BLOCK_POINTS)
    return _concatenate([block_fn(points[i : i + BLOCK_POINTS]) for i in starts])


def _block_residuals(compiled, points):
    """Per-point residuals of one block of points, before any reduction."""
    geometry, stat, identity = _diagnostic_frames(compiled, points)
    res_a, res_b = identity.main1_residuals()
    r_minus_l, r_minus_rbar, alt_dk = stat.conjugate_symmetry_residuals()
    flag_t, flag_b = identity.flag_residuals()
    # identity checks in report order: each fails the run beyond the tolerance
    identities = {
        "codazzi": stat.codazzi_residual(),
        "cubic_form_is_nabla_g": stat.cubic_is_nabla_g_residual(),
        "cubic_form_roundtrip": stat.cubic_reconstruction_residual(),
        "conjugate_duality": stat.duality_residual(),
        "levi_civita_mean": stat.levi_civita_mean_residual(),
        "curvature_conjugation": stat.curvature_conjugation_residual(),
        "curvature_interchange_sum": stat.interchange_sum_residual(),
        "first_bianchi": np.maximum(
            geometry.first_bianchi_residual(), geometry.first_bianchi_residual(stat.R)
        ),
        "metric_compatibility": geometry.metric_compatibility_residual(),
        "divergence_identity_gradient_field": geometry.divergence_identity_residual(
            eval_jet(_probe(compiled.spec.coordinates), points, 3)
        ),
        "tension_is_minus_tchebychev": identity.tension_residual(),
        "conjugate_tension_is_tchebychev": identity.conjugate_tension_residual(),
        "harmonic_tension_vanishes": identity.harmonic_residual(),
        "difftension": identity.difftension_residual(),
        "bitension_path_independence": identity.path_independence_residual(),
        "main1_identity_a": res_a,
        "main1_identity_b": res_b,
        "tchebychev_dual_via_volume_form": stat.volume_form_dual_residual(),
    }
    return {
        "identities": identities,
        # inputs of the pooled constant-curvature fit, kept per block, and the scalar
        # relation; g is a view into the metric jets: copy it so they are freed with the block
        "fit": {"blocks": (stat.R, geometry.g.copy()), "scalar_sum": stat.scalar_sum()},
        # residuals behind the condition flags and the conditional checks
        "r_minus_l": r_minus_l,
        "r_minus_rbar": r_minus_rbar,
        "alt_dk": alt_dk,
        "ric_asym": stat.ricci_asymmetry_residual(),
        "eq5": stat.tchebychev_closedness_residual(),
        "t_norm": stat.tchebychev_norm(),
        "tch_op": stat.tchebychev_operator_norm(),
        "volume_parallel": stat.volume_form_parallel_residual(),
        "ricci_tt": stat.ricci_g_tt(),
        "flag_t": flag_t,
        "flag_b": flag_b,
        "laplacian_cubic": stat.laplacian_cubic_terms()["residual"],
        "geodesic_potential": stat.geodesic_potential_check()[0],
    }


def band(value, tolerance):
    """Flag state of a residual, with a 10x hysteresis band reported as inconclusive."""
    if value <= tolerance:
        return TRUE
    if value <= 10.0 * tolerance:
        return INCONCLUSIVE
    return FALSE


def band_agreement(a, b, tolerance):
    """Whether two residuals raise the same flag: consistent, inconsistent or inconclusive."""
    a_state, b_state = band(a, tolerance), band(b, tolerance)
    if INCONCLUSIVE in (a_state, b_state):
        return INCONCLUSIVE
    return "consistent" if a_state == b_state else "inconsistent"


_AGREEMENT_STATUS = {"consistent": PASS, "inconsistent": FAIL, INCONCLUSIVE: INCONCLUSIVE}


def run_diagnostics(spec: ManifoldSpec, tolerance=DEFAULT_TOLERANCE, count=None, seed=None):
    """Run the full diagnostic battery on a spec; deterministic given (spec, seed).

    Frames are built block by block (BLOCK_POINTS points each); every max,
    argmax, flag and the constant-curvature fit reduce concatenated per-point
    values, so they do not depend on the block size.
    """
    start = time.perf_counter()
    tol = _require_real("tolerance", tolerance)
    require_sample_options(count, seed)
    compiled = spec.compile()
    points = spec.sample_points(count, seed)
    res = _per_point(points, lambda block: _block_residuals(compiled, block))

    checks = {
        name: _check(points, residual, max(tol, 1e-12) if name == "difftension" else tol)
        for name, residual in res.pop("identities").items()
    }
    fit = res.pop("fit")
    peak = {name: float(np.max(residual)) for name, residual in res.items()}
    conj = np.maximum(np.maximum(res["r_minus_l"], res["r_minus_rbar"]), res["alt_dk"])
    lam, cc_residual = fit_constant_curvature(fit["blocks"])
    cc_max = float(np.max(cc_residual))
    cc_flag = cc_max <= CONSTANT_CURVATURE_SCALE * (1.0 + abs(lam))
    ric_asym, eq5, t_norm = peak["ric_asym"], peak["eq5"], peak["t_norm"]

    flags = {
        "codazzi": checks["codazzi"].status == PASS,
        "ric_symmetric": ric_asym <= tol,
        "conjugate_symmetric": float(np.max(conj)) <= tol,
        "equiaffine": t_norm <= tol,
        "semi_equiaffine": peak["flag_t"] <= tol,
        "constant_curvature": cc_flag,
    }

    def conditional(residual, tolerance, applicable):
        return _check(points, residual, tolerance, None if applicable else NOT_APPLICABLE)

    def agreement(a, b):
        """Two residuals that must raise the same flag, reported at the first point."""
        status = _AGREEMENT_STATUS[band_agreement(a, b, tol)]
        return CheckResult(max(a, b), points[0].tolist(), status)

    # the symmetry of Ric and the closedness of g(T, .) must flag together
    checks["ricci_symmetry_equivalence"] = agreement(ric_asym, eq5)

    # the three conjugate-symmetry residuals must agree at the flag level
    states = {band(peak[name], tol) for name in ("r_minus_l", "r_minus_rbar", "alt_dk")}
    checks["conjugate_symmetry_residuals"] = _check(
        points, conj, tol, PASS if len(states - {INCONCLUSIVE}) <= 1 else FAIL
    )

    # equiaffine iff the metric volume form is nabla-parallel
    checks["equiaffine_volume_form_equivalence"] = agreement(t_norm, peak["volume_parallel"])

    # parallel-T criterion: semi-equiaffine, symmetric Ric, Ric^g(T,T) <= 0
    # together force nabla^g T = 0
    checks["parallel_tchebychev_criterion"] = conditional(
        res["tch_op"],
        tol,
        flags["semi_equiaffine"] and flags["ric_symmetric"] and peak["ricci_tt"] <= tol,
    )
    checks["scalar_curvature_relation"] = conditional(
        scalar_relation_gap(lam, spec.dim, fit["scalar_sum"]), RELATION_TOLERANCE, cc_flag
    )
    checks["laplacian_cubic_form"] = conditional(
        res["laplacian_cubic"],
        RELATION_TOLERANCE,
        flags["conjugate_symmetric"] and band(peak["tch_op"], tol) != FALSE,
    )
    checks["geodesic_potential"] = conditional(
        res["geodesic_potential"], tol, t_norm > tol and peak["geodesic_potential"] <= tol
    )

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
        main1_flag_equivalence=band_agreement(peak["flag_t"], peak["flag_b"], tol),
        runtime_seconds=0.0,
    )
    report.runtime_seconds = time.perf_counter() - start
    return report


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
        return {**asdict(self), "max_deviation": self.max_deviation, "passed": self.passed}

    to_json = DiagnosticsReport.to_json


def _relative(a, b):
    """Per-point max of |a - b| / (1 + |a|)."""
    return np.max((np.abs(a - b) / (1.0 + np.abs(a))).reshape(len(a), -1), axis=1)


def crosscheck(spec: ManifoldSpec, h=FD_STEP, threshold=FD_TOLERANCE, count=None, seed=None):
    """Check every jet-differentiated quantity against central differences.

    The sample box is shrunk by 2h on each side so the stencil stays inside
    the domain; Christoffel symbols, the curvature tensor, the scalar
    Laplacian of a smooth probe, and the Tchebychev operator are each
    recomputed from finite-difference derivative estimates and compared,
    block by block as in :func:`run_diagnostics`.
    """
    h = _require_real("h", h, positive=True)
    threshold = _require_real("threshold", threshold)
    require_sample_options(count, seed)
    compiled = spec.compile()
    points = _shrink_box(spec, h).sample_points(count, seed)
    deviations = _per_point(points, lambda block: _crosscheck_block(compiled, block, h))
    report = CrosscheckReport(name=spec.name, h=h, threshold=threshold)
    report.deviations = {name: float(np.max(dev)) for name, dev in deviations.items()}
    return report


def _crosscheck_block(compiled, points, h):
    """Per-point relative deviations of the jet route from the fd route on one block."""
    # Gamma and R read the order-1 Gamma to first derivatives, the Laplacian
    # reads values and nabla^g T is read as values: metric 2, cubic 1, probe 2
    geometry, stat = _frames(compiled, points, 2, 1, reads=("tch",))

    # finite-difference metric derivatives: the metric as one tensor on the stacked stencil
    _, dg_fd, d2g_fd = central_differences(
        lambda q: compiled.metric_jets(q, 0, "stencil").value, points, h
    )
    ginv = geometry.ginv
    gamma_fd = christoffel_components(ginv, dg_fd)
    dgamma_fd = christoffel_derivative_components(ginv, dg_fd, d2g_fd)
    riemann_fd = curvature_components(gamma_fd, dgamma_fd)

    # scalar Laplacian of the probe: fd Hessian/gradient against the jet route
    probe = _probe(compiled.spec.coordinates)
    lap_jet = geometry.laplacian_scalar(eval_jet(probe, points, 2))
    probe_fd = fd_jet(probe, points, 2, h)
    lap_fd = np.einsum("pij,pij->p", ginv, probe_fd.hessian()) - np.einsum(
        "pij,paij,pa->p", ginv, gamma_fd, probe_fd.gradient(), optimize="greedy"
    )

    # Tchebychev operator: fd derivatives of the T field (order-0 evaluations)
    t_values, t_jacobian_fd, _ = central_differences(
        lambda q: _tchebychev_values(compiled, q), points, h, order=1
    )
    tch_fd = t_jacobian_fd + np.einsum("pkda,pa->pkd", gamma_fd, t_values)

    return {
        "christoffel": _relative(geometry.gamma, gamma_fd),
        "curvature": _relative(geometry.riemann, riemann_fd),
        "scalar_laplacian": _relative(lap_jet, lap_fd),
        "tchebychev_operator": _relative(stat.tch, tch_fd),
    }


def _shrink_box(spec, h):
    shrunk_box = {}
    for name, (lo, hi) in spec.sample.box.items():
        if hi - lo <= 4.0 * h:
            raise OptionError(
                "h",
                f"must be less than a quarter of the width of the sample box for {name!r} "
                f"({hi - lo:g}), got {h:g}",
            )
        shrunk_box[name] = (lo + 2.0 * h, hi - 2.0 * h)
    clone = ManifoldSpec.from_dict(spec.to_dict())
    clone.sample.box = shrunk_box
    return clone


def _tchebychev_values(compiled, points):
    """Pointwise T^k = -1/2 g^{kl} g^{ij} C_ijl through the order-0 route: values
    of g and C, the trace of C first."""
    ginv = np.linalg.inv(compiled.metric_jets(points, 0, "stencil").value)
    # the compiled C fills all six permutations from one source, so it is symmetric
    trace = np.einsum("...ij,...ijl->...l", ginv, compiled.cubic_jets(points, 0, "stencil").value)
    return -0.5 * np.einsum("...kl,...l->...k", ginv, trace)
