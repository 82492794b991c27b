"""Property tests of the expression DSL: rendering and parsing round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from statmanifold import EvalDomainError, eval_jet, parse_expression, to_source
from statmanifold.expr import Binary, Call, Const, Unary, Var

VARIABLES = ["x1", "x2"]
POINTS = np.array([[0.3, -1.2], [2.0, 0.5], [0.0, 1.0], [-0.7, -0.7]])

# while collecting, Hypothesis caches the constants it reads from local sources
# in its home directory; keep that cache in the system's temporary directory
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "statmanifold-hypothesis")


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    finite.map(Const), st.sampled_from([Var(name, i) for i, name in enumerate(VARIABLES)])
)


def _chain(first, rest):
    """first op1 b1 op2 b2 ... associated to the left; any b may be a chain itself."""
    for op, operand in rest:
        first = Binary(op, first, operand)
    return first


def _extend(children):
    operations = st.lists(st.tuples(st.sampled_from("+-*/"), children), min_size=1, max_size=3)
    return st.one_of(
        st.builds(_chain, children, operations),
        st.builds(Unary, st.just("-"), children),
        st.builds(Call, st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), st.tuples(children)),
        st.builds(lambda base, e: Call("pow", (base, Const(e))), children, finite),
    )


trees = st.recursive(leaves, _extend, max_leaves=30)


def _values(ast):
    """Order-0 value at each point, or None where evaluation leaves the domain."""
    values = []
    with np.errstate(all="ignore"):
        for point in POINTS:
            try:
                values.append(float(eval_jet(ast, point, 0).value))
            except EvalDomainError:
                values.append(None)
    return values


@settings(derandomize=True, database=None, deadline=None)
@given(trees)
def test_render_parse_round_trip(tree):
    text = to_source(tree)
    parsed = parse_expression(text, VARIABLES)
    assert to_source(parsed) == text
    for a, b in zip(_values(tree), _values(parsed)):
        assert a is b is None or np.array_equal(a, b, equal_nan=True), (text, a, b)
