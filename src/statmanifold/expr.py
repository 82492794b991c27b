"""Expression DSL for metric and cubic-form components.

Grammar (whitespace-insensitive)::

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | primary
    primary :=  NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'
    NUMBER  :=  decimal literal, optional fraction and exponent
    IDENT   :=  [a-zA-Z][a-zA-Z0-9]*

Calls are restricted to ``pow(base, const-exponent)``, ``exp``, ``log``,
``sin``, ``cos``, ``sqrt``.  Identifiers resolve against the declared chart
coordinates and the parameter map; anything else is an error.  ASTs are
immutable and safe to share; evaluation is pure.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetDomainError, jet_space

FUNCTIONS = {"pow": 2, "exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1}
# binary operators by precedence level, loosest first; all associate to the left
_LEVELS = ("+-", "*/")
# deepest tree accepted: folding, rendering and evaluation recurse once per level
MAX_DEPTH = 200
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ExprError(ValueError):
    """Base class of expression errors; ``offset`` is a byte offset into the source."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class NonConstantExponentError(ExprError):
    pass


class EvalDomainError(ExprError):
    """Evaluation left the domain; carries the offending subexpression and point."""

    def __init__(self, message, node=None, point=None):
        offset = node.span[0] if node is not None else None
        super().__init__(message, offset)
        self.node = node
        self.point = point


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Unary:
    op: str
    child: object
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    span: tuple = (0, 0)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: tuple = (0, 0)


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[+\-*/(),])"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r} at offset {pos}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), match.start()))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src, variables, parameters):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.parameters = dict(parameters or {})

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops):
        """Consume and return the next token if it is one of the operators ``ops``, else None."""
        kind, value, _ = self.peek()
        return self.advance() if kind == "op" and value in ops else None

    def expect(self, text):
        kind, value, offset = self.peek()
        if kind == "op" and value == text:
            return self.advance()
        shown = value if kind != "end" else "end of input"
        raise ExprSyntaxError(f"expected {text!r} but found {shown!r} at offset {offset}", offset)

    def parse(self):
        node = self.binary()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {value!r} at offset {offset}", offset)
        return node

    def binary(self, level=0):
        """Left-associative chain of the operators at precedence ``level`` and above."""
        if level == len(_LEVELS):
            return self.unary()
        node = self.binary(level + 1)
        while token := self.accept(_LEVELS[level]):
            right = self.binary(level + 1)
            node = Binary(token[1], node, right, (node.span[0], right.span[1]))
        return node

    def unary(self):
        if token := self.accept("-"):
            child = self.unary()
            return Unary("-", child, (token[2], child.span[1]))
        return self.primary()

    def primary(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(float(value), (offset, offset + len(value)))
        if kind == "ident":
            if value in FUNCTIONS:
                return self.call(value, offset)
            if value in self.variables:
                return Var(value, self.variables[value], (offset, offset + len(value)))
            if value in self.parameters:
                return Const(float(self.parameters[value]), (offset, offset + len(value)))
            raise UnknownIdentifierError(f"unknown identifier {value!r} at offset {offset}", offset)
        if kind == "op" and value == "(":
            node = self.binary()
            self.expect(")")
            return node
        shown = value if kind != "end" else "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r} at offset {offset}", offset)

    def call(self, func, offset):
        if not self.accept("("):
            open_offset = self.peek()[2]
            raise ExprSyntaxError(
                f"function name {func!r} must be followed by '(' at offset {open_offset}",
                open_offset,
            )
        args = [self.binary()]
        while self.accept(","):
            args.append(self.binary())
        close = self.expect(")")
        span = (offset, close[2] + 1)
        if len(args) != FUNCTIONS[func]:
            raise ExprSyntaxError(
                f"{func} takes {FUNCTIONS[func]} argument(s), got {len(args)} at offset {offset}",
                offset,
            )
        if func == "pow":
            exponent = _fold_constant(args[1])
            if exponent is None:
                raise NonConstantExponentError(
                    f"pow exponent must be a constant at offset {args[1].span[0]}",
                    args[1].span[0],
                )
            args[1] = Const(exponent, args[1].span)
        return Call(func, tuple(args), span)


def _fold_constant(node):
    """Value of a variable-free subtree, or None if it contains a variable."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Unary):
        inner = _fold_constant(node.child)
        return None if inner is None else -inner
    if isinstance(node, Binary):
        left = _fold_constant(node.left)
        right = _fold_constant(node.right)
        if left is None or right is None:
            return None
        return _BINARY[node.op](left, right)
    return None


def parse_expression(src, variables, parameters=None):
    """Parse a component expression against declared coordinates and parameters.

    Parameters are substituted as constants.  A tree deeper than MAX_DEPTH
    levels, or nesting too deep for the parser, is a syntax error.
    """
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError("coordinate names must be distinct")
    parser = _Parser(src, names, parameters)
    try:
        node = parser.parse()
    except RecursionError:
        node = None
    offset = parser.peek()[2] if node is None else _too_deep(node)
    if offset is not None:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels at offset {offset}", offset)
    return node


def _too_deep(node):
    """Offset of the first node found below MAX_DEPTH levels, or None (walked without recursion)."""
    stack = [(node, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            return node.span[0]
        if isinstance(node, Unary):
            children = (node.child,)
        elif isinstance(node, Binary):
            children = (node.left, node.right)
        else:
            children = getattr(node, "args", ())  # a Call's, or none
        stack.extend((child, depth + 1) for child in children)
    return None


# -- pretty printing ---------------------------------------------------------

_PREC = {op: level + 1 for level, ops in enumerate(_LEVELS) for op in ops}


def to_source(node):
    """Render an AST back to DSL source (round-trip stable)."""
    text, _ = _render(node)
    return text


def _render(node):
    if isinstance(node, Const):
        if node.value < 0:
            return f"-{-node.value!r}", 3
        return repr(node.value), 4
    if isinstance(node, Var):
        return node.name, 4
    if isinstance(node, Unary):
        text, prec = _render(node.child)
        if prec < 3:
            text = f"({text})"
        return f"-{text}", 3
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        left, lp = _render(node.left)
        right, rp = _render(node.right)
        if lp < prec:
            left = f"({left})"
        if rp <= prec:  # a right operand at the same level keeps its parentheses
            right = f"({right})"
        return f"{left} {node.op} {right}", prec
    if isinstance(node, Call):
        args = ", ".join(_render(a)[0] for a in node.args)
        return f"{node.func}({args})", 4
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluation --------------------------------------------------------------


def eval_jet(node, point, order):
    """Evaluate an expression as a jet of the requested order at ``point``.

    ``point`` is a single chart point (m,) or a batch (..., m); coefficients of
    the result equal the analytic partial derivatives (up to factorials) of
    the expression.  Domain violations raise :class:`EvalDomainError` naming
    the offending subexpression.
    """
    point = np.asarray(point, dtype=float)
    space = jet_space(point.shape[-1], order)
    batch = point.shape[:-1]
    coords = {}  # coordinate index -> its variable jet, built on first use

    def ev(n):
        if isinstance(n, Const):
            return Jet.constant(space, n.value, batch)
        if isinstance(n, Var):
            if n.index not in coords:
                coords[n.index] = Jet.variable(space, n.index, point[..., n.index])
            return coords[n.index]
        if isinstance(n, Unary):
            return -ev(n.child)
        if isinstance(n, Binary):
            if n.op == "*" and isinstance(n.left, Const):
                return ev(n.right) * n.left.value  # scales each coefficient: no jet product
            left = ev(n.left)
            right = ev(n.right)
            try:
                return _BINARY[n.op](left, right)
            except JetDomainError as err:
                raise _domain_error(err, n, point) from None
        if isinstance(n, Call):
            args = [ev(a) for a in n.args]
            try:
                if n.func == "pow":
                    return args[0].powc(n.args[1].value)
                return getattr(args[0], n.func)()
            except JetDomainError as err:
                raise _domain_error(err, n, point) from None
        raise TypeError(f"not an expression node: {n!r}")

    try:
        return ev(node)
    finally:
        del ev  # ev refers to itself through its closure; drop the cycle now


def _domain_error(err, node, point):
    where = err.where
    if where is not None and np.ndim(where) > 0 and point.ndim > 1:
        bad = int(np.argmax(np.asarray(where).reshape(-1)))
        at = point.reshape(-1, point.shape[-1])[bad]
    else:
        at = point
    return EvalDomainError(
        f"{err} in subexpression {to_source(node)!r} at point {np.asarray(at).tolist()}",
        node,
        np.asarray(at),
    )


def central_differences(fn, point, h, order=2):
    """(value, gradient, Hessian) of ``fn`` at ``point`` by central differences.

    ``fn`` maps points (..., m) to values of any trailing shape; derivative
    axes come last.  The Hessian is None at ``order`` 1.  ``fn`` is called
    once, on the whole stencil (2m + 1 points at order 1, 2m^2 + 1 at order
    2) stacked as points (..., stencil, m).
    """
    point = np.asarray(point, dtype=float)
    m = point.shape[-1]
    eye = np.eye(m)
    i, j = np.triu_indices(m, 1)
    steps = [np.zeros((1, m)), eye, -eye]
    if order == 2:
        steps += [si * eye[i] + sj * eye[j] for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    f = np.moveaxis(fn(point[..., None, :] + h * np.concatenate(steps)), point.ndim - 1, 0)
    value, fp, fm = f[0], f[1 : 1 + m], f[1 + m : 1 + 2 * m]
    gradient = np.moveaxis((fp - fm) / (2.0 * h), 0, -1)
    if order == 1:
        return value, gradient, None
    hessian = np.zeros(np.shape(value) + (m, m))
    hessian[..., range(m), range(m)] = np.moveaxis((fp - 2.0 * value + fm) / h**2, 0, -1)
    pp, pm, mp, mm = np.split(f[1 + 2 * m :], 4)
    hessian[..., i, j] = hessian[..., j, i] = np.moveaxis((pp - pm - mp + mm) / (4.0 * h**2), 0, -1)
    return value, gradient, hessian


def fd_jet(node, point, order, h):
    """Central-difference estimate of the jet, for cross-checking only.

    Supports orders 1 and 2 and evaluates the whole stencil in one order-0
    :func:`eval_jet` call; the point must sit inside the expression's domain
    with margin at least ``2h`` in every coordinate, otherwise the stencil
    evaluation raises the usual domain error.
    """
    if order not in (1, 2):
        raise ValueError("fd_jet supports orders 1 and 2")
    if not 0 < h < np.inf:
        raise ValueError("fd step must be finite and positive")
    value, gradient, hessian = central_differences(
        lambda q: eval_jet(node, q, 0).value, point, h, order
    )
    return Jet.from_derivatives(np.shape(point)[-1], order, value, gradient, hessian)
