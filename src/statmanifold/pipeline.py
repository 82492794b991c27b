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

:func:`residual_table` forms the per-point residual of every check and
condition under its report name, from the frames of one block of points, and
:func:`_peak` is the one reduction of every residual.

The report is byte-stable for a fixed (spec, seed, tolerance) apart from the
``runtime_seconds`` field.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .expr import central_differences, eval_jet, fd_jet, parse_expression
from .geometry import (
    GeometryFrame,
    christoffel_components,
    christoffel_derivative_components,
    curvature_components,
    metric_derivative,
)
from .manifold import ManifoldSpec, OptionError, SpecValidationError, require_sample_options
from .maps import IdentityMapReport
from .statistical import StatisticalFrame, cubic_from_difference

PASS, FAIL, NOT_APPLICABLE = "pass", "fail", "not-applicable"
TRUE, FALSE, INCONCLUSIVE = "true", "false", "inconclusive"

DEFAULT_TOLERANCE = 1e-8
FD_TOLERANCE = 1e-4
FD_STEP = 1e-3
CONSTANT_CURVATURE_SCALE = 1e-6
# least tolerance of difftension: tau-hat and (tau + tau-bar)/2 are sums of the same
# Gamma and K arrays, so their difference is rounding noise (up to about 2e-15 on the
# builtins), which a tolerance of 0 would report as a defect
DIFFTENSION_FLOOR = 1e-12
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


def _probe(dim):
    """Deterministic smooth probe of the scalar-Laplacian checks, as an expression
    in the chart coordinates x1..xm: sin(x1 + ... + xm) + 0.5*(x1*x1) + ... + 0.5*(xm*xm)."""
    coordinates = [f"x{i}" for i in range(1, dim + 1)]
    squares = "".join(f" + 0.5*({x}*{x})" for x in coordinates)
    return parse_expression(f"sin({' + '.join(coordinates)}){squares}", coordinates)


def _require_real(name, value, positive=False):
    """``value`` as a float; OptionError naming it unless a real number (not a string
    or a bool), finite and >= 0 (> 0 if ``positive``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OptionError(name, f"must be a number, got {value!r}")
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


def _peak(residual):
    """Per point, max |residual| over every axis but the first: the one reduction
    of the battery's residuals, the constant-curvature fit and the crosscheck."""
    return np.max(np.abs(residual), axis=tuple(range(1, np.ndim(residual))))


def _asymmetry(x, a, b):
    """``x`` minus ``x`` with axes ``a`` and ``b`` swapped."""
    return x - np.swapaxes(x, a, b)


def residual_table(geom, stat, ident):
    """Per-point residuals of one block of frames under their report names, as
    (identities, conditions).

    ``identities`` are the checks that fail the run beyond the tolerance, in
    report order.  ``conditions`` hold the residuals behind the flags and the
    conditional checks, each named after the flag or check it decides where one
    exists, and the signed per-point values ``ricci_tt`` (Ric^g(T, T)) and
    ``scalar_sum`` (rho-hat + g(T,T) - g(K,K)).  ``laplacian_cubic_form`` is
    already |.| of a scalar and ``conjugate_symmetric`` is the per-point max of
    the three conjugate-symmetry residuals; every other entry is reduced by
    :func:`_peak` as soon as it is formed, so no unreduced tensor outlives its
    entry.
    """
    g, dg, t, tch = geom.g, geom.dg, stat.T, stat.tch
    # sum_a coeff(nabla)^a_Xa - d_X log sqrt(det g): eta by a route independent of the
    # metric contraction of K; its norm |nabla omega_g| / omega_g vanishes iff equiaffine
    volume = np.einsum("paxa->px", stat.nabla) - 0.5 * np.einsum("pij,pijx->px", geom.ginv, dg)
    grad = geom.gradient_field(eval_jet(_probe(geom.dim), geom.points, 3))
    nabla_g = metric_derivative(g, dg, stat.nabla)
    identities = {
        # (nabla_X g)(Y,Z) = (nabla_Y g)(X,Z), and nabla g = C, with the direction last
        "codazzi": _peak(_asymmetry(nabla_g, 1, 3)),
        "cubic_form_is_nabla_g": _peak(nabla_g - stat.C),
        # C(X,Y,Z) = -2 g(K_X Y, Z)
        "cubic_form_roundtrip": _peak(cubic_from_difference(g, stat.K) - stat.C),
        # X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla-bar_X Z)
        "conjugate_duality": _peak(metric_derivative(g, dg, stat.nabla, stat.bar)),
        "levi_civita_mean": _peak(0.5 * (stat.nabla + stat.bar) - geom.gamma),
        # g(R-bar(X,Y)Z, W) = -g(Z, R(X,Y)W)
        "curvature_conjugation": _peak(
            np.einsum("paijk,paw->pijkw", stat.Rbar, g) + np.einsum("pka,paijw->pijkw", g, stat.R)
        ),
        "curvature_interchange_sum": _peak(stat.L + stat.Lbar - stat.R - stat.Rbar),
        # R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0 for the Levi-Civita and the statistical R
        "first_bianchi": np.maximum(*(
            _peak(r + np.einsum("pljki->plijk", r) + np.einsum("plkij->plijk", r))
            for r in (geom.riemann, stat.R)
        )),
        "metric_compatibility": _peak(metric_derivative(g, dg, geom.gamma)),
        # X div(V) = g(Delta_g V, X) - Ric(V, X) for V = grad f of the probe f
        "divergence_identity_gradient_field": _peak(
            geom.divergence(grad).gradient()
            - (
                np.einsum("pxa,pa->px", g, geom.rough_laplacian(grad))
                - np.einsum("pax,pa->px", geom.ricci, grad.value)
            )
        ),
        "tension_is_minus_tchebychev": _peak(ident.tau + t),
        "conjugate_tension_is_tchebychev": _peak(ident.taubar - t),
        "harmonic_tension_vanishes": _peak(ident.tauhat),
        "difftension": _peak(ident.tauhat - 0.5 * (ident.tau + ident.taubar)),
        # the general and the proof-form route of both bi-tension fields
        "bitension_path_independence": np.maximum(
            _peak(ident.tau2 - ident.tau2_proof), _peak(ident.taubar2 - ident.taubar2_proof)
        ),
        # tau2 - taubar2 = 2 (Delta-hat tau - sum_i R^g(e_i, tau) e_i), the harmonic-map
        # case of the bi-tension difference formula, and tau2 + taubar2 = -2 (T2)
        "main1_identity_a": _peak(
            (ident.tau2 - ident.taubar2)
            - 2.0 * (geom.rough_laplacian(ident.tau_jets) - geom.curvature_contraction(ident.tau))
        ),
        "main1_identity_b": _peak((ident.tau2 + ident.taubar2) + 2.0 * ident.t2),
        "tchebychev_dual_via_volume_form": _peak(volume - stat.eta),
    }
    # R = L, R = R-bar and nabla^g K totally symmetric: the conjugate-symmetry
    # residuals, which vanish together
    conjugate = {
        "r_minus_l": _peak(stat.R - stat.L),
        "r_minus_rbar": _peak(stat.R - stat.Rbar),
        "alt_dk": _peak(_asymmetry(stat.dK, 2, 4)),
    }
    conditions = {
        **conjugate,
        "conjugate_symmetric": np.maximum.reduce(list(conjugate.values())),
        # Ric is symmetric iff g(nabla^g T, .) is: the pair of ricci_symmetry_equivalence
        "ric_symmetric": _peak(_asymmetry(stat.ric, 1, 2)),
        "tchebychev_closed": _peak(_asymmetry(np.einsum("pky,pkx->pxy", g, tch), 1, 2)),
        # equiaffine iff the volume form is nabla-parallel
        "equiaffine": _peak(t),
        "volume_form_parallel": _peak(volume),
        "parallel_tchebychev_criterion": _peak(tch),
        "ricci_tt": np.einsum("pab,pa,pb->p", geom.ricci, t, t, optimize="greedy"),
        # (T1) and (T2), and the bi-tension fields: both sides of main1_flag_equivalence
        "semi_equiaffine": np.maximum(_peak(ident.t1), _peak(ident.t2)),
        "bitension": np.maximum(_peak(ident.tau2), _peak(ident.taubar2)),
        "laplacian_cubic_form": stat.laplacian_cubic_terms()["residual"],
        "geodesic_potential": _peak(stat.geodesic_potential_check()[0]),
        "scalar_sum": (
            geom.scalar + np.einsum("pij,pi,pj->p", g, t, t, optimize="greedy") - stat.kk_jets.value
        ),
    }
    return identities, conditions


def _block_residuals(compiled, points):
    """The residual table of one block, and the inputs of the pooled
    constant-curvature fit (R and g), kept per block."""
    geometry, stat, identity = _diagnostic_frames(compiled, points)
    identities, conditions = residual_table(geometry, stat, identity)
    # g is a view into the metric jets: copy it so that they are freed with the block
    return {"identities": identities, "conditions": conditions, "fit": (stat.R, geometry.g.copy())}


def fit_constant_curvature(blocks):
    """Least-squares fit of R against lambda (g(Y,Z)X - g(X,Z)Y).

    ``blocks`` lists (riemann, g) pairs of consecutive point batches.  Returns
    (lambda, per-point max residual over all blocks); the fit pools every
    component at every point.  R.M and M.M are summed per point, block by
    block, and the per-point sums once over the sample, so no temporary spans
    more than one block and lambda does not depend on where blocks split.
    """
    m = blocks[0][1].shape[-1]
    if m < 2:
        raise ValueError("constant curvature requires dimension >= 2")
    eye = np.eye(m)

    def model(g):
        return np.einsum("pjk,li->plijk", g, eye) - np.einsum("pik,lj->plijk", g, eye)

    sums = ([], [])  # R.M and M.M of each point, block by block
    for riemann, g in blocks:
        block_model = model(g)
        sums[0].append(np.sum(riemann * block_model, axis=(1, 2, 3, 4)))
        sums[1].append(np.sum(block_model * block_model, axis=(1, 2, 3, 4)))
    numerator, denom = (float(np.sum(np.concatenate(parts))) for parts in sums)
    lam = numerator / denom
    return lam, np.concatenate([_peak(riemann - lam * model(g)) for riemann, g in blocks])


def scalar_relation_gap(lam, dim, scalar_sum):
    """|lambda m(m-1) - (rho-hat + g(T,T) - g(K,K))| from the per-point sum."""
    return np.abs(lam * dim * (dim - 1) - scalar_sum)


def band(value, tolerance):
    """Flag state of a residual, with a 10x hysteresis band reported as inconclusive."""
    if value <= tolerance:
        return TRUE
    if value <= 10.0 * tolerance:
        return INCONCLUSIVE
    return FALSE


def band_agreement(a, b, tolerance, labels=("consistent", "inconsistent")):
    """Whether two residuals raise the same flag: ``labels[0]`` if they do,
    ``labels[1]`` if they do not, inconclusive if either lies in the band."""
    a_state, b_state = band(a, tolerance), band(b, tolerance)
    if INCONCLUSIVE in (a_state, b_state):
        return INCONCLUSIVE
    return labels[a_state != b_state]


def run_diagnostics(spec: ManifoldSpec, tolerance=DEFAULT_TOLERANCE, count=None, seed=None):
    """Run the full diagnostic battery on a spec; deterministic given (spec, seed).

    Frames are built block by block (BLOCK_POINTS points each); every max,
    argmax, flag and the constant-curvature fit reduce concatenated per-point
    values, so they do not depend on the block size.  Every check is one
    per-point residual reduced by :func:`_check`, which reports the point that
    drove it; the status is given where the tolerance alone does not decide it.
    """
    start = time.perf_counter()
    tol = _require_real("tolerance", tolerance)
    require_sample_options(count, seed)
    compiled = spec.compile()
    points = spec.sample_points(count, seed)
    res = _per_point(points, lambda block: _block_residuals(compiled, block))

    checks = {
        name: _check(points, residual, max(tol, DIFFTENSION_FLOOR) if name == "difftension" else tol)
        for name, residual in res["identities"].items()
    }
    cond = res["conditions"]
    peak = {name: float(np.max(residual)) for name, residual in cond.items()}
    lam, cc_residual = fit_constant_curvature(res["fit"])
    cc_max = float(np.max(cc_residual))
    cc_flag = cc_max <= CONSTANT_CURVATURE_SCALE * (1.0 + abs(lam))

    flags = {
        "codazzi": checks["codazzi"].status == PASS,
        "ric_symmetric": peak["ric_symmetric"] <= tol,
        "conjugate_symmetric": peak["conjugate_symmetric"] <= tol,
        "equiaffine": peak["equiaffine"] <= tol,
        "semi_equiaffine": peak["semi_equiaffine"] <= tol,
        "constant_curvature": cc_flag,
    }

    # the symmetry of Ric and the closedness of g(T, .) must flag together
    checks["ricci_symmetry_equivalence"] = _check(
        points, np.maximum(cond["ric_symmetric"], cond["tchebychev_closed"]), tol,
        band_agreement(peak["ric_symmetric"], peak["tchebychev_closed"], tol, (PASS, FAIL)),
    )
    # the three conjugate-symmetry residuals must not flag both true and false
    checks["conjugate_symmetry_residuals"] = _check(
        points, cond["conjugate_symmetric"], tol,
        FAIL
        if {TRUE, FALSE} <= {band(peak[n], tol) for n in ("r_minus_l", "r_minus_rbar", "alt_dk")}
        else PASS,
    )
    # equiaffine iff the metric volume form is nabla-parallel
    checks["equiaffine_volume_form_equivalence"] = _check(
        points, np.maximum(cond["equiaffine"], cond["volume_form_parallel"]), tol,
        band_agreement(peak["equiaffine"], peak["volume_form_parallel"], tol, (PASS, FAIL)),
    )
    # conditional identities, not-applicable where their hypotheses fail:
    # name -> (residual, tolerance, whether the hypotheses hold)
    hypotheses = {
        # semi-equiaffine, symmetric Ric and Ric^g(T,T) <= 0 together force nabla^g T = 0
        "parallel_tchebychev_criterion": (
            cond["parallel_tchebychev_criterion"], tol,
            flags["semi_equiaffine"] and flags["ric_symmetric"] and peak["ricci_tt"] <= tol,
        ),
        "scalar_curvature_relation": (
            scalar_relation_gap(lam, spec.dim, cond["scalar_sum"]), RELATION_TOLERANCE, cc_flag
        ),
        "laplacian_cubic_form": (
            cond["laplacian_cubic_form"], RELATION_TOLERANCE,
            flags["conjugate_symmetric"]
            and band(peak["parallel_tchebychev_criterion"], tol) != FALSE,
        ),
        "geodesic_potential": (
            cond["geodesic_potential"], tol,
            not flags["equiaffine"] and peak["geodesic_potential"] <= tol,
        ),
    }
    for name, (residual, tolerance, holds) in hypotheses.items():
        checks[name] = _check(points, residual, tolerance, None if holds else NOT_APPLICABLE)

    return DiagnosticsReport(
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
        main1_flag_equivalence=band_agreement(peak["semi_equiaffine"], peak["bitension"], tol),
        runtime_seconds=time.perf_counter() - start,
    )


# -- finite-difference crosscheck ----------------------------------------------


@dataclass
class CrosscheckReport:
    name: str
    h: float
    threshold: float
    deviations: dict

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
    return _peak(np.abs(a - b) / (1.0 + np.abs(a)))


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
    deviations = {name: float(np.max(dev)) for name, dev in deviations.items()}
    return CrosscheckReport(name=spec.name, h=h, threshold=threshold, deviations=deviations)


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
    probe = _probe(compiled.spec.dim)
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
    """``spec`` on its sample box shrunk by 2h on each side; every other field is shared."""
    shrunk_box = {}
    for name, (lo, hi) in spec.sample.box.items():
        if hi - lo <= 4.0 * h:
            raise OptionError(
                "h",
                f"must be less than a quarter of the width of the sample box for {name!r} "
                f"({hi - lo:g}), got {h:g}",
            )
        shrunk_box[name] = (lo + 2.0 * h, hi - 2.0 * h)
    return replace(spec, sample=replace(spec.sample, box=shrunk_box))


def _tchebychev_values(compiled, points):
    """Pointwise T^k = -1/2 g^{kl} g^{ij} C_ijl through the order-0 route: values
    of g and C, the trace of C first."""
    ginv = np.linalg.inv(compiled.metric_jets(points, 0, "stencil").value)
    # the compiled C fills all six permutations from one source, so it is symmetric
    trace = np.einsum("...ij,...ijl->...l", ginv, compiled.cubic_jets(points, 0, "stencil").value)
    return -0.5 * np.einsum("...kl,...l->...k", ginv, trace)
