"""Chart specifications: expression-valued metric and cubic form components,
validation, and deterministic point sampling.

A spec is a JSON-compatible object::

    {
      "schema": 1,
      "name": "...",
      "dim": 2,
      "coordinates": ["x1", "x2"],
      "parameters": {"a1": 1.0},
      "metric": {"11": "...", "12": "...", "22": "..."},      # sorted index keys
      "cubic":  {"111": "...", "112": "..."},                 # sorted index keys
      "sample": {"box": {"x1": [0.5, 3.0], "x2": [0.5, 3.0]},
                 "count": 100, "seed": 42, "strategy": "uniform"}
    }

Metric keys cover the lower triangle (indices 1-based, nondecreasing); the
full symmetric matrix is implied.  Cubic keys are nondecreasing index triples;
missing triples are zero, total symmetry is implied.  The sample box must sit
strictly inside the domain of every expression; validation probes it.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product

import numpy as np

from .expr import FUNCTIONS, EvalDomainError, ExprError, eval_jet, parse_expression
from .geometry import MetricNotPositiveDefinite, require_positive_definite
from .jets import MAX_DIM, Jet, jet_space

SCHEMA_VERSION = 1

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


def component_key(indices):
    """Spec key of a tensor entry: 0-based indices in any order, (1, 0) -> "12"."""
    return "".join(str(i + 1) for i in sorted(indices))


class SpecValidationError(ValueError):
    """Aggregated spec problems; ``problems`` lists one message per issue."""

    def __init__(self, problems):
        super().__init__("invalid manifold spec:\n" + "\n".join(f"  - {p}" for p in problems))
        self.problems = list(problems)


class OptionError(ValueError):
    """A run option out of range; ``argument`` names the API argument that set it."""

    def __init__(self, argument, rule):
        super().__init__(f"{argument} {rule}")
        self.argument, self.rule = argument, rule


@dataclass
class SampleSpec:
    box: dict
    count: int = 100
    seed: int = 42
    strategy: str = "uniform"

    def to_dict(self):
        return {
            "box": {name: [float(lo), float(hi)] for name, (lo, hi) in self.box.items()},
            "count": int(self.count),
            "seed": int(self.seed),
            "strategy": self.strategy,
        }


@dataclass
class ManifoldSpec:
    name: str
    dim: int
    coordinates: list
    metric: dict
    cubic: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    sample: SampleSpec = None

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data):
        try:
            sample = data.get("sample") or {}
            box = {name: (float(lo), float(hi)) for name, (lo, hi) in sample.get("box", {}).items()}
            spec = cls(
                name=str(data.get("name", "unnamed")),
                dim=_integral("dim", data["dim"]),
                coordinates=list(data["coordinates"]),
                metric=dict(data["metric"]),
                cubic=dict(data.get("cubic", {})),
                parameters={k: float(v) for k, v in (data.get("parameters") or {}).items()},
                sample=SampleSpec(
                    box=box,
                    count=_integral("sample count", sample.get("count", SampleSpec.count)),
                    seed=_integral("sample seed", sample.get("seed", SampleSpec.seed)),
                    strategy=str(sample.get("strategy", SampleSpec.strategy)),
                ),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise SpecValidationError([f"malformed spec object: {err}"]) from err
        return spec

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "dim": self.dim,
            "coordinates": list(self.coordinates),
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "metric": dict(self.metric),
            "cubic": dict(self.cubic),
            "sample": self.sample.to_dict() if self.sample else None,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    def content_hash(self):
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()

    # -- validation ------------------------------------------------------------

    def validate(self):
        """Raise :class:`SpecValidationError` collecting every problem found,
        probing the box last; return the :class:`CompiledManifold` it probed."""
        problems = []
        if not _is_integer(self.dim) or not 2 <= self.dim <= MAX_DIM:
            problems.append(f"dim must be an integer in 2..{MAX_DIM}, got {self.dim!r}")
        elif len(self.coordinates) != self.dim:
            problems.append("coordinates list must have length dim")
        seen = set()
        for name in self.coordinates:
            if not _IDENT.match(str(name)) or name in FUNCTIONS:
                problems.append(f"invalid coordinate name {name!r}")
            if name in seen:
                problems.append(f"duplicate coordinate name {name!r}")
            seen.add(name)
        for name in self.parameters:
            if not _IDENT.match(str(name)) or name in FUNCTIONS or name in seen:
                problems.append(f"invalid parameter name {name!r}")
        if problems:
            raise SpecValidationError(problems)

        expected_metric = {component_key(p) for p in combinations_with_replacement(range(self.dim), 2)}
        for key in self.metric:
            if key not in expected_metric:
                problems.append(f"metric key {key!r} is not a sorted index pair within 1..{self.dim}")
        for key in expected_metric - set(self.metric):
            problems.append(f"missing metric component {key!r} (lower triangle must be complete)")
        valid_cubic = {component_key(t) for t in combinations_with_replacement(range(self.dim), 3)}
        for key in self.cubic:
            if key not in valid_cubic:
                problems.append(
                    f"cubic key {key!r} is not a sorted index triple within 1..{self.dim}"
                )

        asts = {}  # source -> its AST, or the ExprError it raised
        for label, table in (("metric", self.metric), ("cubic", self.cubic)):
            for key, src in table.items():
                if src not in asts:
                    try:
                        asts[src] = parse_expression(src, self.coordinates, self.parameters)
                    except ExprError as err:
                        asts[src] = err
                if isinstance(asts[src], ExprError):
                    problems.append(f"{label}[{key}]: {asts[src]}")

        if self.sample is None:
            problems.append("sample section is required")
        else:
            for name in self.coordinates:
                if name not in self.sample.box:
                    problems.append(f"sample box is missing coordinate {name!r}")
                else:
                    lo, hi = self.sample.box[name]
                    if not np.isfinite([lo, hi]).all():
                        problems.append(f"sample box for {name!r} must have finite bounds")
                    elif not lo < hi:
                        problems.append(f"sample box for {name!r} must satisfy lo < hi")
            if self.sample.strategy not in ("uniform", "grid"):
                problems.append(f"unknown sampling strategy {self.sample.strategy!r}")
            for name in ("count", "seed"):
                value = getattr(self.sample, name)
                if not _is_integer(value):
                    problems.append(f"sample {name} must be an integer, got {value!r}")
                elif value < 0:
                    problems.append(f"sample {name} must be nonnegative")
        if problems:
            raise SpecValidationError(problems)

        # the probe: every distinct expression to order 2, and g positive definite
        compiled = CompiledManifold(self, asts)
        points = self._probe_points()
        rows = {}
        for label in ("metric", "cubic"):
            try:
                rows[label] = compiled.rows(label, points, 2, "probe")
            except SpecValidationError as err:
                problems += err.problems
        if not problems:
            # the metric's values alone: the probe never gathers the m^3 cubic tensor
            g = np.take(rows["metric"][..., 0], compiled.index["metric"], axis=-1)
            try:
                require_positive_definite(g, points, "probe")
            except MetricNotPositiveDefinite as err:
                problems.append(str(err))
        if problems:
            raise SpecValidationError(problems)
        return compiled

    def _probe_points(self):
        lo, hi = self._box_arrays()
        center = 0.5 * (lo + hi)
        corners = _shrunk_corners(lo, hi)
        rng = np.random.default_rng(self.sample.seed)
        uniform = lo + (hi - lo) * rng.random((16, self.dim))
        return np.vstack([center[None, :], corners, uniform])

    def _box_arrays(self):
        lo = np.array([self.sample.box[name][0] for name in self.coordinates])
        hi = np.array([self.sample.box[name][1] for name in self.coordinates])
        return lo, hi

    # -- sampling ----------------------------------------------------------------

    def sample_points(self, count=None, seed=None):
        """Deterministic sample: strategy points plus the corners pulled 10% inward."""
        require_sample_options(count, seed)
        lo, hi = self._box_arrays()
        count = self.sample.count if count is None else int(count)
        seed = self.sample.seed if seed is None else int(seed)
        if self.sample.strategy == "grid":
            per_axis = 2
            while per_axis**self.dim < count:
                per_axis += 1
            axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(self.dim)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
        else:
            rng = np.random.default_rng(seed)
            pts = lo + (hi - lo) * rng.random((count, self.dim))
        return np.vstack([pts, _shrunk_corners(lo, hi)])

    # -- compilation ----------------------------------------------------------------

    def compile(self):
        return self.validate()


def _is_integer(value):
    """Whether ``value`` is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integral(name, value):
    """``value`` as an int; :class:`OptionError` naming it unless it is a whole
    number (2 or 2.0), which a string or a bool is not."""
    whole = isinstance(value, int) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise OptionError(name, f"must be an integer, got {value!r}")
    return value if isinstance(value, int) else int(float(value))


def require_sample_options(count, seed):
    """Raise :class:`OptionError` naming ``count`` or ``seed`` unless None or whole and >= 0."""
    for name, value in (("count", count), ("seed", seed)):
        if value is not None and _integral(name, value) < 0:
            raise OptionError(name, f"must be nonnegative, got {value}")


def _shrunk_corners(lo, hi):
    width = hi - lo
    options = [(lo[i] + 0.1 * width[i], hi[i] - 0.1 * width[i]) for i in range(len(lo))]
    return np.array(list(product(*options)))


class CompiledManifold:
    """Parsed expressions of a validated spec, ready for checked jet evaluation.

    Per tensor (``"metric"``, ``"cubic"``), ``sources`` maps each distinct
    component source to the AST validation parsed; source i fills row i + 1 of
    :meth:`rows`, and ``index`` (shape ``(m,) * rank``) names each entry's row,
    0 (zero) for an absent cubic component.  Grouping by source rather than by
    AST equality keeps ``0`` and a parameter equal to ``-0.0`` apart.
    """

    def __init__(self, spec: ManifoldSpec, asts):
        self.spec = spec
        self.sources, self.index = {}, {}
        for label, rank in (("metric", 2), ("cubic", 3)):
            components = getattr(spec, label)
            sources = self.sources[label] = {src: asts[src] for src in components.values()}
            row = {src: i for i, src in enumerate(sources, 1)}
            index = self.index[label] = np.zeros((spec.dim,) * rank, dtype=np.intp)
            for entry in np.ndindex(index.shape):
                index[entry] = row.get(components.get(component_key(entry)), 0)

    def metric_jets(self, points, order=3, kind="sample"):
        """The metric as one jet tensor: coefficients (*batch, m, m, ncoeff)."""
        return self._tensor_jets("metric", points, order, kind)

    def cubic_jets(self, points, order=3, kind="sample"):
        """The cubic form as one jet tensor: coefficients (*batch, m, m, m, ncoeff)."""
        return self._tensor_jets("cubic", points, order, kind)

    def _tensor_jets(self, label, points, order, kind):
        rows = self.rows(label, points, order, kind)
        return Jet(jet_space(self.spec.dim, order), np.take(rows, self.index[label], axis=-2))

    def rows(self, label, points, order, kind):
        """Each distinct source of the ``label`` tensor evaluated once on a batch
        (..., m) of ``kind`` points (sample, probe, stencil): coefficients
        (..., 1 + sources, ncoeff).  A source that leaves its domain or is not
        finite there is a :class:`SpecValidationError`, one line per component
        it fills, in spec-key order."""
        points = np.asarray(points, dtype=float)
        sources = self.sources[label]
        space = jet_space(self.spec.dim, order)
        rows = np.zeros(points.shape[:-1] + (1 + len(sources), space.ncoeff))
        failed = {}  # source -> what is wrong with it
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (src, ast) in enumerate(sources.items(), 1):
                try:
                    rows[..., i, :] = eval_jet(ast, points, order).coeff
                except EvalDomainError as err:
                    failed[src] = f"leaves its domain inside the box: {err}"
        bad = ~np.isfinite(rows).all(axis=-1).reshape(-1, rows.shape[-2])  # (point, row)
        for i in np.flatnonzero(bad.any(axis=0)):
            at = points.reshape(-1, self.spec.dim)[np.argmax(bad[:, i])].tolist()
            failed[list(sources)[i - 1]] = f"is not finite to order {order} at {kind} point {at}"
        if failed:
            components = getattr(self.spec, label).items()
            raise SpecValidationError(
                [f"{label}[{key}] {failed[src]}" for key, src in components if src in failed]
            )
        return rows
