"""Closed-form real expression trees: parse, evaluate, differentiate, substitute.

The node set is deliberately small (constants, named variables, unary
neg/sin/cos/tan/exp/ln/sqrt/abs, binary add/sub/mul/div/pow).  Trees are
immutable and hashable; all operations return new trees.

One table, _UFUNCS, maps each operation to the numpy ufunc that computes
it.  `evaluate` applies it to scalars, `compile_expr` to arrays, and
`simplify` folds constants through `evaluate`, so a folded constant is the
value the compiled integrand computes.  Scalar evaluation is strict: an
operation that raises a floating-point error other than underflow (ln of a
nonpositive value, x/0, 0^negative, overflow, ...) or gives a non-finite
value raises DomainFault, so callers can tell a singular integrand from a
broken one.  Compiled callables let such values through as inf or nan.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "ExprAST", "ExprError", "ParseError", "DomainFault", "UnboundVariable",
    "const", "var", "parse", "serialize", "evaluate", "differentiate",
    "substitute", "simplify", "free_variables", "compile_expr",
]

# What each operation computes; nothing else in this module decides it.
_UFUNCS = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide,
    "pow": np.power,
}
UNARY_OPS = tuple(kind for kind, f in _UFUNCS.items() if f.nin == 1)
BINARY_OPS = tuple(kind for kind, f in _UFUNCS.items() if f.nin == 2)
_FUNCTIONS = set(UNARY_OPS) - {"neg"}
_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class ExprError(ValueError):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    """Syntax error; carries the 0-based character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainFault(ExprError):
    """Evaluation left the real domain (ln(x<=0), x/0, 0^negative, ...)."""


class UnboundVariable(ExprError):
    """A free variable had no binding at evaluation time."""


@dataclass(frozen=True)
class ExprAST:
    """One expression node.  kind is 'const', 'var', a unary or a binary op."""

    kind: str
    children: tuple["ExprAST", ...] = ()
    value: float = 0.0          # meaningful for kind == 'const'
    name: str = ""              # meaningful for kind == 'var'

    def __post_init__(self):
        if self.kind == "const" or self.kind == "var":
            arity = 0
        elif self.kind in _UFUNCS:
            arity = _UFUNCS[self.kind].nin
        else:
            raise ExprError(f"unknown node kind {self.kind!r}")
        if len(self.children) != arity:
            raise ExprError(f"{self.kind} expects {arity} children, got {len(self.children)}")
        if self.kind == "var":
            if not _NAME_RE.fullmatch(self.name):
                raise ExprError(f"invalid variable name {self.name!r}")
            if self.name in _FUNCTIONS:
                raise ExprError(f"{self.name!r} is a reserved function name")

    # Arithmetic sugar so construction code reads like the math.
    def __add__(self, other):
        return ExprAST("add", (self, _coerce(other)))

    def __radd__(self, other):
        return ExprAST("add", (_coerce(other), self))

    def __sub__(self, other):
        return ExprAST("sub", (self, _coerce(other)))

    def __rsub__(self, other):
        return ExprAST("sub", (_coerce(other), self))

    def __mul__(self, other):
        return ExprAST("mul", (self, _coerce(other)))

    def __rmul__(self, other):
        return ExprAST("mul", (_coerce(other), self))

    def __truediv__(self, other):
        return ExprAST("div", (self, _coerce(other)))

    def __rtruediv__(self, other):
        return ExprAST("div", (_coerce(other), self))

    def __pow__(self, other):
        return ExprAST("pow", (self, _coerce(other)))

    def __neg__(self):
        if self.kind == "const":
            return const(-self.value)
        return ExprAST("neg", (self,))

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return f"ExprAST({serialize(self)!r})"


def const(value: float) -> ExprAST:
    return ExprAST("const", value=float(value))


def var(name: str) -> ExprAST:
    return ExprAST("var", name=name)


def _coerce(obj) -> ExprAST:
    if isinstance(obj, ExprAST):
        return obj
    if isinstance(obj, (int, float)):
        return const(obj)
    raise TypeError(f"cannot use {type(obj).__name__} in an expression")


def _fn(kind: str, child: ExprAST) -> ExprAST:
    return ExprAST(kind, (child,))


def sin(a):
    return _fn("sin", _coerce(a))


def cos(a):
    return _fn("cos", _coerce(a))


def tan(a):
    return _fn("tan", _coerce(a))


def exp(a):
    return _fn("exp", _coerce(a))


def ln(a):
    return _fn("ln", _coerce(a))


def sqrt(a):
    return _fn("sqrt", _coerce(a))


def absval(a):
    return _fn("abs", _coerce(a))


# --------------------------------------------------------------------------
# Parsing.  Grammar (pow binds tighter than unary minus and is right
# associative; serialization emits the same syntax):
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | power
#   power  := atom ('^' factor)?
#   atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (type, lexeme, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:]
                if not rest.strip():
                    break
                off = pos + len(rest) - len(rest.lstrip())
                raise ParseError(f"unexpected character {text[off]!r}", off)
            if m.end() == m.start():
                break
            for group in ("num", "name", "op"):
                lex = m.group(group)
                if lex is not None:
                    self.items.append((group, lex, m.start(group)))
                    break
            pos = m.end()
        self.items.append(("end", "", len(text)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.items[self.i]
        self.i += 1
        return tok


def parse(text: str, variables: Iterable[str] | None = None) -> ExprAST:
    """Parse text into an ExprAST.

    When `variables` is given, identifiers outside it (and outside the
    function names) are rejected as unknown; with None, any identifier is
    accepted as a variable.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    allowed = None if variables is None else frozenset(variables)
    toks = _Tokens(text)
    ast = _parse_expr(toks, allowed)
    kind, lex, off = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {lex!r}, expected operator or end of input", off)
    return ast


def _parse_expr(toks: _Tokens, allowed) -> ExprAST:
    node = _parse_term(toks, allowed)
    while True:
        kind, lex, _ = toks.peek()
        if kind == "op" and lex in "+-":
            toks.next()
            rhs = _parse_term(toks, allowed)
            node = ExprAST("add" if lex == "+" else "sub", (node, rhs))
        else:
            return node


def _parse_term(toks: _Tokens, allowed) -> ExprAST:
    node = _parse_factor(toks, allowed)
    while True:
        kind, lex, _ = toks.peek()
        if kind == "op" and lex in "*/":
            toks.next()
            rhs = _parse_factor(toks, allowed)
            node = ExprAST("mul" if lex == "*" else "div", (node, rhs))
        else:
            return node


def _parse_factor(toks: _Tokens, allowed) -> ExprAST:
    kind, lex, _ = toks.peek()
    if kind == "op" and lex == "-":
        toks.next()
        child = _parse_factor(toks, allowed)
        if child.kind == "const":
            return const(-child.value)  # keep constants canonical
        return ExprAST("neg", (child,))
    return _parse_power(toks, allowed)


def _parse_power(toks: _Tokens, allowed) -> ExprAST:
    base = _parse_atom(toks, allowed)
    kind, lex, _ = toks.peek()
    if kind == "op" and lex == "^":
        toks.next()
        exponent = _parse_factor(toks, allowed)  # right associative
        return ExprAST("pow", (base, exponent))
    return base


def _parse_atom(toks: _Tokens, allowed) -> ExprAST:
    kind, lex, off = toks.next()
    if kind == "num":
        return const(float(lex))
    if kind == "name":
        nkind, nlex, _ = toks.peek()
        if nkind == "op" and nlex == "(":
            if lex not in _FUNCTIONS:
                raise ParseError(f"unknown function {lex!r}", off)
            toks.next()
            arg = _parse_expr(toks, allowed)
            _expect(toks, ")")
            return ExprAST(lex, (arg,))
        if lex in _FUNCTIONS:
            raise ParseError(f"function name {lex!r} needs an argument list", off)
        if allowed is not None and lex not in allowed:
            raise ParseError(f"unknown identifier {lex!r}", off)
        return var(lex)
    if kind == "op" and lex == "(":
        node = _parse_expr(toks, allowed)
        _expect(toks, ")")
        return node
    shown = lex if lex else "end of input"
    raise ParseError(f"unexpected {shown!r}, expected a number, name or '('", off)


def _expect(toks: _Tokens, op: str) -> None:
    kind, lex, off = toks.next()
    if kind != "op" or lex != op:
        raise ParseError(f"expected {op!r}", off)


# --------------------------------------------------------------------------
# Serialization: same syntax as the parser; parse(serialize(a)) == a for
# canonical trees (no neg node directly wrapping a constant, which the
# constructors and the parser never produce).
# --------------------------------------------------------------------------

_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def serialize(ast: ExprAST) -> str:
    if ast.kind == "const":
        return repr(ast.value)
    if ast.kind == "var":
        return ast.name
    if ast.kind == "neg":
        return "-" + _wrap(ast.children[0], 3, tight=True)
    if ast.kind in UNARY_OPS:
        return f"{ast.kind}({serialize(ast.children[0])})"
    left, right = ast.children
    if ast.kind == "add":
        return f"{_wrap(left, 1)} + {_wrap(right, 2)}"
    if ast.kind == "sub":
        return f"{_wrap(left, 1)} - {_wrap(right, 2)}"
    if ast.kind == "mul":
        return f"{_wrap(left, 2)}*{_wrap(right, 3)}"
    if ast.kind == "div":
        return f"{_wrap(left, 2)}/{_wrap(right, 3)}"
    # pow: right associative, binds tighter than unary minus; negative
    # constant bases would reparse as -(base^e), so they get parentheses.
    base = _wrap(left, 5) if (left.kind == "const" and left.value < 0) else _wrap(left, 5, flat=("const", "var"))
    return f"{base}^{_wrap(right, 4, flat=('const', 'var', 'pow', 'neg'))}"


def _wrap(node: ExprAST, min_prec: int, flat: tuple[str, ...] = (), tight: bool = False) -> str:
    text = serialize(node)
    if node.kind in ("const", "var") and node.kind not in flat:
        # negative literals still need parens in tight spots like "x*-2"
        if node.kind == "const" and node.value < 0 and min_prec >= 2:
            return f"({text})"
        return text
    if node.kind in flat:
        return text
    prec = _PRECEDENCE.get(node.kind, 5)
    if prec < min_prec or (tight and node.kind not in ("const", "var")):
        return f"({text})"
    return text


def free_variables(ast: ExprAST) -> frozenset[str]:
    if ast.kind == "var":
        return frozenset((ast.name,))
    out: frozenset[str] = frozenset()
    for child in ast.children:
        out |= free_variables(child)
    return out


# --------------------------------------------------------------------------
# Scalar evaluation with strict domain faults.
# --------------------------------------------------------------------------

def evaluate(ast: ExprAST, bindings: Mapping[str, float]) -> float:
    with np.errstate(all="raise", under="ignore"):
        return float(_evaluate(ast, bindings))


def _evaluate(ast: ExprAST, bindings: Mapping[str, float]):
    if ast.kind == "const":
        return ast.value
    if ast.kind == "var":
        try:
            return float(bindings[ast.name])
        except KeyError:
            raise UnboundVariable(f"variable {ast.name!r} has no binding") from None
    operands = [_evaluate(child, bindings) for child in ast.children]
    try:
        out = _UFUNCS[ast.kind](*operands)
    except FloatingPointError as err:
        raise DomainFault(f"{_call_text(ast.kind, operands)}: {err}") from None
    if not math.isfinite(out):
        raise DomainFault(f"{_call_text(ast.kind, operands)} is not finite")
    return out


def _call_text(kind: str, operands: list) -> str:
    return f"{kind}({', '.join(repr(float(v)) for v in operands)})"


# --------------------------------------------------------------------------
# Differentiation with a conservative simplifier (constant folding and
# identity elimination only; rewriting any further could change where the
# expression faults).
# --------------------------------------------------------------------------

def differentiate(ast: ExprAST, name: str) -> ExprAST:
    return simplify(_diff(ast, name))


def _diff(ast: ExprAST, name: str) -> ExprAST:
    k = ast.kind
    if k == "const":
        return const(0.0)
    if k == "var":
        return const(1.0 if ast.name == name else 0.0)
    if k == "neg":
        return ExprAST("neg", (_diff(ast.children[0], name),))
    if k in ("add", "sub"):
        return ExprAST(k, (_diff(ast.children[0], name), _diff(ast.children[1], name)))
    if k == "mul":
        u, v = ast.children
        return _diff(u, name) * v + u * _diff(v, name)
    if k == "div":
        u, v = ast.children
        return (_diff(u, name) * v - u * _diff(v, name)) / (v * v)
    if k == "pow":
        u, v = ast.children
        du = _diff(u, name)
        if v.kind == "const":
            return v * u ** const(v.value - 1.0) * du
        dv = _diff(v, name)
        if u.kind == "const":
            return ast * (dv * ln(u))
        return ast * (dv * ln(u) + v * du / u)
    u = ast.children[0]
    du = _diff(u, name)
    if k == "sin":
        return cos(u) * du
    if k == "cos":
        return ExprAST("neg", (sin(u),)) * du
    if k == "tan":
        return du / (cos(u) * cos(u))
    if k == "exp":
        return ast * du
    if k == "ln":
        return du / u
    if k == "sqrt":
        return du / (const(2.0) * ast)
    if k == "abs":
        return du * (u / ast)
    raise ExprError(f"cannot differentiate node kind {k!r}")


def simplify(ast: ExprAST) -> ExprAST:
    if ast.kind in ("const", "var"):
        return ast
    kids = tuple(simplify(c) for c in ast.children)
    node = ExprAST(ast.kind, kids, name=ast.name)
    if all(c.kind == "const" for c in kids):
        try:
            return const(evaluate(node, {}))
        except DomainFault:
            return node  # keep faulting subtrees intact
    k = node.kind
    if k == "neg" and kids[0].kind == "neg":
        return kids[0].children[0]
    if k in BINARY_OPS:
        a, b = kids
        if k == "add":
            if _is_const(a, 0.0):
                return b
            if _is_const(b, 0.0):
                return a
        elif k == "sub":
            if _is_const(b, 0.0):
                return a
            if _is_const(a, 0.0):
                return -b
        elif k == "mul":
            # 0*x is 0 for every finite binding of x; any other factor may fault, so it stays
            if (_is_const(a, 0.0) and b.kind == "var") or (_is_const(b, 0.0) and a.kind == "var"):
                return const(0.0)
            if _is_const(a, 1.0):
                return b
            if _is_const(b, 1.0):
                return a
            if _is_const(a, -1.0):
                return -b
            if _is_const(b, -1.0):
                return -a
        elif k == "div":
            if _is_const(b, 1.0):
                return a
        elif k == "pow":
            if _is_const(b, 1.0):
                return a
    return node


def _is_const(node: ExprAST, value: float) -> bool:
    return node.kind == "const" and node.value == value


def substitute(ast: ExprAST, name: str, replacement: ExprAST) -> ExprAST:
    """Replace every occurrence of the variable `name` by `replacement`."""
    if ast.kind == "var":
        return replacement if ast.name == name else ast
    if ast.kind == "const":
        return ast
    return ExprAST(ast.kind, tuple(substitute(c, name, replacement) for c in ast.children))


# --------------------------------------------------------------------------
# Vectorized compilation.  compile_expr(ast, ("x", "b")) returns a callable
# f(x_array, b) evaluating with the same ufuncs as evaluate; domain problems
# appear as non-finite entries which quadrature turns into DomainFault.
# --------------------------------------------------------------------------

def compile_expr(ast: ExprAST, args: tuple[str, ...]) -> Callable[..., np.ndarray]:
    missing = free_variables(ast) - set(args)
    if missing:
        raise UnboundVariable(f"compiled expression leaves {sorted(missing)} unbound")
    index = {name: i for i, name in enumerate(args)}

    def build(node: ExprAST):
        if node.kind == "const":
            v = node.value
            return lambda a: v
        if node.kind == "var":
            i = index[node.name]
            return lambda a: a[i]
        f = _UFUNCS[node.kind]
        if f.nin == 1:
            c = build(node.children[0])
            return lambda a: f(c(a))
        l, r = build(node.children[0]), build(node.children[1])
        return lambda a: f(l(a), r(a))

    body = build(ast)

    def fn(*values):
        with np.errstate(all="ignore"):
            out = body(values)
        if np.isscalar(out) or out.shape == ():
            out = np.full(np.shape(values[0]), out, dtype=float)
        return np.asarray(out, dtype=float)

    return fn
