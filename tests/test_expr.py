"""Expression layer tests: grammar, evaluation, derivatives, substitution.

Derivative correctness is checked against a central finite-difference
oracle on randomly generated trees (fixed seed, generation avoids points
near domain faults or |.| kinks where the oracle itself breaks down).
"""

import math
import random

import numpy as np
import pytest

from zvar.expr import (
    MAX_DEPTH,
    DomainFault,
    ExprAST,
    ParseError,
    UnboundVariable,
    compile_expr,
    const,
    differentiate,
    evaluate,
    exp as expr_exp,
    free_variables,
    parse,
    serialize,
    simplify,
    substitute,
    var,
)


def test_parse_div_pow_shape():
    ast = parse("sin(x)/x^2")
    assert ast.kind == "div"
    assert ast.children[0] == ExprAST("sin", (var("x"),))
    assert ast.children[1] == ExprAST("pow", (var("x"), const(2.0)))


def test_parse_unknown_identifier_with_declared_variables():
    with pytest.raises(ParseError, match="unknown identifier 'e'"):
        parse("2*e", variables=("x",))
    # declared -> accepted
    assert parse("2*e", variables=("e",)) == const(2.0) * var("e")


def test_parse_pow_right_associative():
    assert parse("x^2^3") == var("x") ** (const(2.0) ** const(3.0))


def test_parse_unary_minus_binds_looser_than_pow():
    assert parse("-x^2") == ExprAST("neg", (var("x") ** const(2.0),))
    assert parse("x^-2") == var("x") ** const(-2.0)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as exc:
        parse("1 + @")
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(x)")
    with pytest.raises(ParseError):
        parse("sin(x")
    with pytest.raises(ParseError):
        parse("1 + ")
    with pytest.raises(ParseError, match="'sin' needs an argument list") as exc:
        parse("sin*2")
    assert exc.value.offset == 0
    with pytest.raises(ParseError, match="unexpected token 'y'") as exc:
        parse("x y")
    assert exc.value.offset == 2
    # A literal past the float range once parsed to inf, which serializes as
    # "inf", a variable: parsed constants stay finite.
    with pytest.raises(ParseError, match=r"^number '1e999' overflows the float range "
                                         r"\(at offset 0\)$"):
        parse("1e999*exp(-x)")
    with pytest.raises(ParseError) as exc:
        parse("2 + .5e309")
    assert exc.value.offset == 4
    assert parse("1.7e308").value == 1.7e308 and parse("1e-400").value == 0.0


def _levels(ast):
    return 1 + max((_levels(child) for child in ast.children), default=0)


def test_parse_accepts_trees_up_to_the_depth_bound():
    power_chain = "^".join(["x"] * MAX_DEPTH)
    left_sum = "+".join(["x^-2"] * (MAX_DEPTH - 1))
    assert _levels(parse(power_chain)) == _levels(parse(left_sum)) == MAX_DEPTH
    for text in (power_chain + "^x", left_sum + "+x^-2"):
        with pytest.raises(ParseError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse(text)


def test_evaluate_basics():
    assert evaluate(parse("x^2"), {"x": 3.0}) == 9.0
    assert evaluate(parse("ln(x)"), {"x": 1.0}) == 0.0
    assert evaluate(parse("2 + 3*4"), {}) == 14.0
    assert evaluate(parse("abs(-3)"), {}) == 3.0


def test_evaluate_domain_faults():
    with pytest.raises(DomainFault):
        evaluate(parse("sin(x)/x"), {"x": 0.0})
    with pytest.raises(DomainFault):
        evaluate(parse("ln(x)"), {"x": -1.0})
    with pytest.raises(DomainFault):
        evaluate(parse("x^(-1/2)"), {"x": -4.0})
    with pytest.raises(DomainFault):
        evaluate(parse("0^x"), {"x": -1.0})
    with pytest.raises(UnboundVariable, match="^variable 'y' has no binding$"):
        evaluate(parse("x + y"), {"x": 1.0})
    # A fault names the expression, the bindings and the failing ufunc.
    with pytest.raises(DomainFault) as exc:
        evaluate(parse("ln(x)"), {"x": -1})
    assert str(exc.value) == "ln(x) at {'x': -1.0}: invalid value encountered in log"
    with pytest.raises(DomainFault, match="overflow encountered in exp$"):
        evaluate(parse("exp(x)"), {"x": 710.0})
    with pytest.raises(DomainFault, match="divide by zero encountered in divide$"):
        evaluate(parse("1/x"), {"x": 0.0})
    # A non-finite binding is refused, even where the value would be finite.
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainFault, match="a binding is not finite$"):
            evaluate(parse("exp(x)*0"), {"x": x})
    # A non-finite constant made with const(), which parse never makes, gives
    # a value that sets no floating-point flag; it is refused all the same,
    # so simplify keeps the tree, whose text is not the variable `inf`.
    tree = expr_exp(const(math.inf))
    with pytest.raises(DomainFault, match=r"^exp\(inf\) at \{\}: the value inf is not finite$"):
        evaluate(tree, {})
    assert simplify(tree) == tree and simplify(tree).kind == "exp"
    with pytest.raises(DomainFault, match="the value nan is not finite$"):
        evaluate(const(math.nan) + var("x"), {"x": 1.0})


def test_differentiate_power_rule():
    d = differentiate(parse("x^2"), "x")
    for x in (0.0, 1.5, -2.0):
        assert evaluate(d, {"x": x}) == pytest.approx(2.0 * x, abs=1e-14)
    # A constant base: d/dx 2^x = 2^x ln 2.
    d = differentiate(parse("2^x"), "x")
    assert str(d) == "2.0^x*0.6931471805599453"
    for x in (0.0, 1.5, -2.0):
        assert evaluate(d, {"x": x}) == pytest.approx(2.0**x * math.log(2.0), rel=1e-14)


def test_differentiate_against_fd_spec_case():
    # d/dy (y/4)^(1/2) at y in {1,2,9}, step 1e-5*max(1,|y|)
    ast = parse("(y/4)^(1/2)")
    d = differentiate(ast, "y")
    for y in (1.0, 2.0, 9.0):
        h = 1e-5 * max(1.0, abs(y))
        fd = (evaluate(ast, {"y": y + h}) - evaluate(ast, {"y": y - h})) / (2 * h)
        sym = evaluate(d, {"y": y})
        assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-6


def test_differentiate_tan_and_abs():
    d = differentiate(parse("tan(x)"), "x")
    for x in (0.3, 1.0, -0.8):
        assert evaluate(d, {"x": x}) == pytest.approx(1.0 / math.cos(x) ** 2, rel=1e-12)
    d = differentiate(parse("abs(x)"), "x")
    assert evaluate(d, {"x": 2.5}) == pytest.approx(1.0)
    assert evaluate(d, {"x": -2.5}) == pytest.approx(-1.0)


def test_differentiate_product_rule_pointwise():
    d = differentiate(parse("sin(x)*exp(x)"), "x")
    for x in (0.0, 1.0, 2.0):
        expected = math.cos(x) * math.exp(x) + math.sin(x) * math.exp(x)
        assert evaluate(d, {"x": x}) == pytest.approx(expected, rel=1e-12)


def test_differentiate_constant_factors_leave_no_zero_terms():
    # c*u, u*c and u/c differentiate as c*du, du*c and du/c: no 0*u term
    for text, want in (("3*x^2", "3.0*(2.0*x)"), ("x^2*3", "2.0*x*3.0"),
                       ("ln(x)/3", "1.0/x/3.0"), ("(x*2)/(3*x)", None)):
        ast = parse(text)
        d = differentiate(ast, "x")
        if want is None:
            assert "0.0" not in serialize(d)
        else:
            assert serialize(d) == want
        for x in (0.5, 1.0, 4.0):
            h = 1e-6 * x
            fd = (evaluate(ast, {"x": x + h}) - evaluate(ast, {"x": x - h})) / (2 * h)
            assert evaluate(d, {"x": x}) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_substitute_examples():
    out = substitute(parse("x^-2"), "x", parse("y^(1/2)"))
    assert out == parse("(y^(1/2))^-2")
    assert substitute(parse("sin(x)"), "x", var("x")) == parse("sin(x)")
    comp = substitute(parse("ln(x)"), "x", parse("exp(t)"))
    for t in (0.0, 1.0, 5.0):
        assert evaluate(comp, {"t": t}) == pytest.approx(t, abs=1e-12)


def test_free_variables():
    assert free_variables(parse("x*sin(y) + z")) == {"x", "y", "z"}


# ---------------------------------------------------------------------------
# Random-tree property suites (seeded for reproducibility).
# ---------------------------------------------------------------------------

_UNARY = ("neg", "sin", "cos", "exp", "ln", "sqrt", "abs")
_BINARY = ("add", "sub", "mul", "div", "pow")


def _random_tree(rng: random.Random, depth: int) -> ExprAST:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return const(round(rng.uniform(-3.0, 3.0), 3))
        return var(rng.choice(("x", "y")))
    if rng.random() < 0.4:
        op = rng.choice(_UNARY)
        child = _random_tree(rng, depth - 1)
        if op == "neg" and child.kind == "const":
            child = ExprAST("abs", (child,))  # keep tree canonical for round-trip
        return ExprAST(op, (child,))
    op = rng.choice(_BINARY)
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    if op == "pow":
        # real-valued powers: keep exponents as small constants
        right = const(rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)))
    return ExprAST(op, (left, right))


def test_roundtrip_property():
    rng = random.Random(20240811)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        assert parse(serialize(tree)) == tree, serialize(tree)


def _safe_point(tree: ExprAST, rng: random.Random) -> dict | None:
    """A binding where the tree and nearby FD probes stay well-defined."""
    for _ in range(60):
        env = {"x": rng.uniform(0.2, 2.5), "y": rng.uniform(0.2, 2.5)}
        try:
            if not _stable_here(tree, env):
                continue
        except (DomainFault, UnboundVariable):
            continue
        return env
    return None


def _stable_here(tree: ExprAST, env: dict) -> bool:
    # reject points close to kinks/faults: abs/ln/sqrt/div/pow arguments
    # must keep a safe margin so the central difference is trustworthy
    value = evaluate(tree, env)
    if not math.isfinite(value) or abs(value) > 1e6:
        return False
    for node in _walk(tree):
        if node.kind in ("abs", "ln", "sqrt"):
            if abs(evaluate(node.children[0], env)) < 1e-2:
                return False
        elif node.kind == "div":
            if abs(evaluate(node.children[1], env)) < 1e-2:
                return False
        elif node.kind == "pow":
            base = evaluate(node.children[0], env)
            if abs(base) < 1e-2 and node.children[1].value < 2.0:
                return False
        elif node.kind == "tan":
            if abs(math.cos(evaluate(node.children[0], env))) < 1e-1:
                return False
    return True


def _walk(tree: ExprAST):
    yield tree
    for child in tree.children:
        yield from _walk(child)


def _central(tree: ExprAST, env: dict, h: float) -> float:
    up = evaluate(tree, {**env, "x": env["x"] + h})
    dn = evaluate(tree, {**env, "x": env["x"] - h})
    return (up - dn) / (2 * h)


def test_derivative_fd_property():
    rng = random.Random(987654321)
    checked = 0
    while checked < 200:
        tree = _random_tree(rng, 5)
        if "x" not in free_variables(tree):
            continue
        try:
            d = differentiate(tree, "x")
        except Exception:  # pragma: no cover - generator should not produce these
            raise
        points = 0
        attempts = 0
        while points < 5 and attempts < 40:
            attempts += 1
            env = _safe_point(tree, rng)
            if env is None:
                break
            h = 1e-5 * max(1.0, abs(env["x"]))
            try:
                fd1 = _central(tree, env, h)
                fd2 = _central(tree, env, h / 2)
                sym = evaluate(d, env)
            except (DomainFault, UnboundVariable):
                continue
            if not (math.isfinite(fd1) and math.isfinite(fd2)) or abs(fd2) > 1e8:
                continue
            # only trust the oracle where halving the step confirms it
            if abs(fd2 - fd1) > 1e-7 * max(1.0, abs(fd2)):
                continue
            fd = (4.0 * fd2 - fd1) / 3.0
            assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-5, serialize(tree)
            points += 1
        if points == 5:
            checked += 1
    assert checked == 200


def test_substitution_composition_property():
    rng = random.Random(13572468)
    done = 0
    while done < 100:
        outer = _random_tree(rng, 3)
        inner = _random_tree(rng, 2)
        if "x" not in free_variables(outer):
            continue
        combined = substitute(outer, "x", inner)
        env = {"x": rng.uniform(0.3, 2.0), "y": rng.uniform(0.3, 2.0)}
        try:
            inner_val = evaluate(inner, env)
            direct = evaluate(combined, env)
            manual = evaluate(outer, {**env, "x": inner_val})
        except DomainFault:
            continue
        if not (math.isfinite(direct) and math.isfinite(manual)):
            continue
        assert direct == pytest.approx(manual, rel=1e-12, abs=1e-12)
        done += 1


def _fault_prone_points(rng: random.Random) -> tuple[np.ndarray, float]:
    """Eight x values and one y; some sit at fault points (x <= 0)."""
    xs = np.array([rng.uniform(0.3, 2.0) for _ in range(5)] + [0.0, -1.0, rng.uniform(-2.0, 0.0)])
    y = rng.choice((rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0), 0.0, rng.uniform(-2.0, 0.0)))
    return xs, y


def _scalar(tree: ExprAST, x: float, y: float) -> float | None:
    """evaluate at (x, y), or None where it raises DomainFault."""
    try:
        return evaluate(tree, {"x": x, "y": y})
    except DomainFault:
        return None


def test_compile_matches_scalar_eval():
    # Both walks apply the same ufunc to the same operands, so they agree
    # bit for bit.  The scalar walk faults exactly where some operation's
    # compiled value is non-finite; the tree's own compiled value can still
    # be finite there (exp(ln(x)) at x = 0 compiles to exp(-inf) = 0).
    rng = random.Random(24681357)
    faults = 0
    for _ in range(150):
        tree = _random_tree(rng, 4)
        xs, y = _fault_prone_points(rng)
        compiled = [compile_expr(node, ("x", "y"))(xs, y) for node in _walk(tree)]
        for i, x in enumerate(xs):
            want = _scalar(tree, x, y)
            some_non_finite = any(not math.isfinite(values[i]) for values in compiled)
            assert (want is None) == some_non_finite, (serialize(tree), x, y)
            if want is None:
                faults += 1
            else:
                assert compiled[0][i] == want, (serialize(tree), x, y)
    assert faults > 100


def test_folding_preserves_values_and_faults():
    rng = random.Random(97531)
    for _ in range(300):
        tree = _random_tree(rng, 4)
        folded = simplify(tree)
        xs, y = _fault_prone_points(rng)
        before = compile_expr(tree, ("x", "y"))(xs, y)
        after = compile_expr(folded, ("x", "y"))(xs, y)
        finite = np.isfinite(before)
        assert np.array_equal(after[finite], before[finite]), serialize(tree)
        assert not np.isfinite(after[~finite]).any(), serialize(tree)
        for x in xs:
            assert _scalar(folded, x, y) == _scalar(tree, x, y), (serialize(tree), x, y)


def test_simplify_keeps_faults_behind_a_zero():
    for text, x in (("0*ln(x)", -1.0), ("ln(x)*0", -1.0), ("0/x", 0.0)):
        folded = simplify(parse(text))
        with pytest.raises(DomainFault):
            evaluate(folded, {"x": x})
        assert not np.isfinite(compile_expr(folded, ("x",))(np.array([x]))).any()
    assert simplify(parse("0*x")) == const(0.0)
