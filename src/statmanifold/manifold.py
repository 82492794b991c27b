"""Chart specifications: expression-valued metric and cubic form components,
compilation and validation, and deterministic point sampling.

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
strictly inside the domain of every expression: ``validate()`` probes it, and a
run checks every point it evaluates.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import operator
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import combinations_with_replacement, product

import numpy as np

from .expr import (
    FUNCTIONS, IDENTIFIER, Binary, Const, EvalDomainError, ExprError, Unary, Var, eval_jet,
    parse_expression, to_source,
)
from .geometry import MetricNotPositiveDefinite, require_positive_definite
from .jets import MAX_DIM, Jet, jet_space

SCHEMA_VERSION = 1


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
        # only the keys that to_dict writes, in the shapes it writes them
        top, inner = {"schema", *(f.name for f in fields(cls))}, {f.name for f in fields(SampleSpec)}
        _require_object("the top level of the spec", data, top)
        sample = _require_object("sample", data.get("sample") or {}, inner)
        parameters = _require_object("parameters", data.get("parameters") or {})
        box = _require_object("sample box", sample.get("box", {}))
        for name in ("metric", "cubic"):
            _require_object(name, data.get(name, {}))
        schema = data.get("schema", SCHEMA_VERSION)
        if isinstance(schema, bool) or schema != SCHEMA_VERSION:
            raise SpecValidationError([f"schema must be {SCHEMA_VERSION}, got {schema!r}"])
        if not isinstance(data.get("coordinates", []), list):
            raise SpecValidationError([f"coordinates must be an array, got {data['coordinates']!r}"])
        try:
            box = {
                name: tuple(require_real(f"sample box for {name!r}", b) for b in (lo, hi))
                for name, (lo, hi) in box.items()
            }
            spec = cls(
                name=str(data.get("name", "unnamed")),
                dim=_integral("dim", data["dim"]),
                coordinates=list(data["coordinates"]),
                metric=dict(data["metric"]),
                cubic=dict(data.get("cubic", {})),
                parameters={k: require_real(f"parameter {k!r}", v) for k, v in parameters.items()},
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

    def compile(self):
        """Check the spec's fields and keys, parse each distinct source once and write it
        as a sum over shared atoms; return the :class:`CompiledManifold`, or raise
        :class:`SpecValidationError` collecting every problem found.  No expression is
        evaluated: the run path's frames and stencils gate the domain, finiteness and
        positive definiteness at the points they use, and :meth:`validate` probes."""
        problems = []
        if not _is_integer(self.dim) or not 2 <= self.dim <= MAX_DIM:
            problems.append(f"dim must be an integer in 2..{MAX_DIM}, got {self.dim!r}")
        elif len(self.coordinates) != self.dim:
            problems.append("coordinates list must have length dim")
        seen = set()
        for name in self.coordinates:
            if not IDENTIFIER.fullmatch(str(name)) or name in FUNCTIONS:
                problems.append(f"invalid coordinate name {name!r}")
            if name in seen:
                problems.append(f"duplicate coordinate name {name!r}")
            seen.add(name)
        for name, value in self.parameters.items():
            if not IDENTIFIER.fullmatch(str(name)) or name in FUNCTIONS or name in seen:
                problems.append(f"invalid parameter name {name!r}")
            if not _is_real(value):
                problems.append(f"parameter {name!r} must be a number, got {value!r}")
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
                if not isinstance(src, str):
                    problems.append(f"{label}[{key}] must be a string, got {src!r}")
                    continue
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
                    if not (_is_real(lo) and _is_real(hi)):
                        problems.append(f"sample box for {name!r} must hold numbers, got {[lo, hi]!r}")
                    elif not np.isfinite([lo, hi]).all():
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
        return CompiledManifold(self, asts)

    def validate(self):
        """:meth:`compile`, then probe the box: every distinct expression to order 2,
        and g positive definite, at the centre, the corners and 16 uniform points.
        Raise :class:`SpecValidationError` collecting every problem found; return the
        :class:`CompiledManifold` it probed."""
        compiled = self.compile()
        points = self._probe_points()
        problems, rows = [], {}
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


def _require_object(name, value, keys=None):
    """``value`` unless it is not a JSON object (a dict) or has a key outside ``keys``,
    if given: then a spec error naming it, or each such key."""
    if not isinstance(value, dict):
        raise SpecValidationError([f"{name} must be an object, got {value!r}"])
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise SpecValidationError([f"unknown key {key!r} in {name}" for key in unknown])
    return value


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


def _is_real(value):
    """Whether ``value`` is a real number, which a string or a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_real(name, value, bound=None):
    """``value`` as a float; :class:`OptionError` naming it unless :func:`_is_real` and,
    given ``bound="nonnegative"``, finite and >= 0."""
    if not _is_real(value):
        raise OptionError(name, f"must be a number, got {value!r}")
    value = float(value)
    if bound and not (np.isfinite(value) and value >= 0):
        raise OptionError(name, f"must be finite and {bound}, got {value}")
    return value


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
    """Parsed expressions of a compiled spec, each written as a sum over shared atoms.

    Per tensor (``"metric"``, ``"cubic"``), ``sources`` maps each distinct
    component source to the AST :meth:`ManifoldSpec.compile` parsed; source i fills
    row i + 1 of :meth:`rows`, and ``index`` (shape ``(m,) * rank``) names each
    entry's row, 0 (zero) for an absent cubic component.  Grouping by source rather
    than by AST equality keeps ``0`` and a parameter equal to ``-0.0`` apart.

    Each source is rewritten once as sum_i c_i atom_i (:func:`_linear`).  ``atoms``
    maps each atom of both tensors, once, to the AST :meth:`rows` evaluates: a
    coordinate monomial, the constant 1 included, under its exponent vector, or any
    other subtree under its ``to_source`` text.  ``forms[label]`` lists each
    source's {atom: c_i} and ``coefficients[label]`` is the (1 + sources, atoms of
    the tensor) matrix of the c_i over ``columns[label]``, the atoms the tensor uses.
    """

    def __init__(self, spec: ManifoldSpec, asts):
        self.spec = spec
        self.sources, self.index, self.forms, self.columns, self.coefficients = {}, {}, {}, {}, {}
        subtrees = {}  # to_source text -> AST, of every subtree kept as an atom
        for label, rank in (("metric", 2), ("cubic", 3)):
            components = getattr(spec, label)
            sources = self.sources[label] = {src: asts[src] for src in components.values()}
            forms = self.forms[label] = [_linear(ast, spec.dim, subtrees) for ast in sources.values()]
            columns = self.columns[label] = list(dict.fromkeys(key for form in forms for key in form))
            position = {key: j for j, key in enumerate(columns)}
            coefficients = self.coefficients[label] = np.zeros((1 + len(forms), len(columns)))
            for i, form in enumerate(forms, 1):
                coefficients[i, [position[key] for key in form]] = list(form.values())
            row = {src: i for i, src in enumerate(sources, 1)}
            index = self.index[label] = np.zeros((spec.dim,) * rank, dtype=np.intp)
            for entry in np.ndindex(index.shape):
                index[entry] = row.get(components.get(component_key(entry)), 0)
        keys = dict.fromkeys(key for columns in self.columns.values() for key in columns)
        self.atoms = {key: subtrees.get(key) or _monomial(key, spec.coordinates) for key in keys}

    def metric_jets(self, points, order, kind="sample"):
        """The metric as one jet tensor: coefficients (*batch, m, m, ncoeff)."""
        return self._tensor_jets("metric", points, order, kind)

    def cubic_jets(self, points, order, kind="sample"):
        """The cubic form as one jet tensor: coefficients (*batch, m, m, m, ncoeff)."""
        return self._tensor_jets("cubic", points, order, kind)

    def _tensor_jets(self, label, points, order, kind):
        rows = np.moveaxis(self.rows(label, points, order, kind), -1, 0)  # coefficient-major gather
        return Jet(jet_space(self.spec.dim, order), np.moveaxis(np.take(rows, self.index[label], -1), 0, -1))

    def rows(self, label, points, order, kind):
        """Each distinct source of the ``label`` tensor evaluated once on a batch
        (..., m) of ``kind`` points (sample, probe, stencil): coefficients
        (..., 1 + sources, ncoeff).  Each atom the tensor uses is evaluated once, and
        the rows are one contraction of the atoms with ``coefficients[label]``.  A
        source that leaves its domain or is not finite there is a
        :class:`SpecValidationError`, one line per component it fills, in spec-key
        order: an atom that fails names every source that uses it."""
        points = np.asarray(points, dtype=float)
        flat = points.reshape(-1, self.spec.dim)
        columns, forms = self.columns[label], self.forms[label]
        space = jet_space(self.spec.dim, order)
        atoms = np.zeros(points.shape[:-1] + (space.ncoeff, len(columns)))
        failed = {}  # atom -> how it leaves its domain
        with np.errstate(over="ignore", invalid="ignore"):
            for j, key in enumerate(columns):
                try:
                    atoms[..., j] = eval_jet(self.atoms[key], points, order).coeff
                except EvalDomainError as err:
                    failed[key] = f"leaves its domain inside the box: {err}"
            finite = np.isfinite(atoms)
            all_finite = finite.all()
            if not all_finite:
                atoms[~finite] = 0.0  # no 0 * inf in the contraction: a failed atom fails its users
            rows = atoms.reshape(len(flat) * space.ncoeff, -1) @ self.coefficients[label].T
        rows = rows.reshape(atoms.shape[:-1] + (1 + len(forms),))
        if failed or not all_finite or not np.isfinite(rows).all():
            self._fail(label, flat, order, kind, failed, finite, rows)
        return rows.swapaxes(-1, -2)

    def _fail(self, label, flat, order, kind, failed, finite, rows):
        """Raise the spec error of :meth:`rows`: ``failed`` maps an atom to how it left its
        domain, ``finite`` marks the atoms' finite entries and ``rows`` holds the sums,
        formed with the non-finite entries as 0.  A source fails by its first atom that
        left its domain, else at the first point where it or an atom it uses is not finite."""
        forms = self.forms[label]
        bad = ~np.isfinite(rows).all(axis=-2).reshape(len(flat), -1)  # (point, row)
        uses = np.array([[key in form for form in [{}] + forms] for key in self.columns[label]])
        bad |= (~finite.all(axis=-2).reshape(len(flat), -1)).astype(float) @ uses > 0
        problems = {}  # source -> what is wrong with it
        for i, (src, form) in enumerate(zip(self.sources[label], forms), 1):
            domain = [failed[key] for key in form if key in failed]
            if domain:
                problems[src] = domain[0]
            elif bad[:, i].any():
                at = flat[np.argmax(bad[:, i])].tolist()
                problems[src] = f"is not finite to order {order} at {kind} point {at}"
        components = getattr(self.spec, label).items()
        raise SpecValidationError(
            [f"{label}[{key}] {problems[src]}" for key, src in components if src in problems]
        )


def _linear(node, dim, subtrees):
    """``node`` as {atom: coefficient}, linear over its atoms: the exponent vector of
    a coordinate monomial, (0, ..., 0) for a constant, or the ``to_source`` text of
    any other subtree, mapped to its AST in ``subtrees``.  Sums and differences
    merge their terms; a product of two single terms, or a single term over a nonzero
    constant, is one term, so constant subtrees, parameters included, fold into the
    coefficients.  Any other node (a call, a quotient by a non-constant, a product of
    a subtree with a non-constant, or a product with a sum) is one atom: the rows then
    sum only the terms the source sums, and expand no difference that can cancel,
    as (x1 - 1000)*x2 would near x1 = 1000."""
    kind = type(node)
    if kind is Const:
        return {(0,) * dim: node.value}
    if kind is Var:
        return {(0,) * node.index + (1,) + (0,) * (dim - 1 - node.index): 1.0}
    form = None
    if kind is Unary:
        form = {key: -c for key, c in _linear(node.child, dim, subtrees).items()}
    elif kind is Binary:
        form = _combine(node.op, _linear(node.left, dim, subtrees), _linear(node.right, dim, subtrees))
    if form is None:
        key = to_source(node)
        subtrees.setdefault(key, node)
        form = {key: 1.0}
    return form


def _combine(op, left, right):
    """The form of ``left op right`` (forms of :func:`_linear`, which it may reuse),
    or None where :func:`_linear` keeps the node as one atom."""
    if op in "+-":
        sign = 1.0 if op == "+" else -1.0
        for key, c in right.items():
            left[key] = left[key] + sign * c if key in left else sign * c
        return left
    if len(left) > 1 or len(right) > 1:
        return None
    (ka, a), (kb, b) = *left.items(), *right.items()
    if _is_one(kb):
        if op == "/":  # by a nonzero constant: times its reciprocal, as a jet divides
            return {ka: a * (1.0 / b)} if b else None
        return {ka: a * b}
    if op == "/":
        return None
    if _is_one(ka):
        return {kb: a * b}
    if type(ka) is tuple and type(kb) is tuple:
        return {tuple(map(operator.add, ka, kb)): a * b}
    return None


def _is_one(key):
    """Whether ``key`` is the atom 1, the exponent vector (0, ..., 0)."""
    return type(key) is tuple and not any(key)


def _monomial(exponents, names):
    """The AST of the coordinate monomial with these exponents: x1*x1*x2, or 1."""
    factors = [Var(names[i], i) for i, k in enumerate(exponents) for _ in range(k)]
    return reduce(lambda a, b: Binary("*", a, b), factors) if factors else Const(1.0)
