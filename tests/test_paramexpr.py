import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridad import SchemaError, TapeBuilder, parse_expr, tape_eval
from hybridad.ops import EXP, SIN, SQRT, Pow
from hybridad.paramexpr import ParamExpr, _parse_text


def test_parse_and_evaluate():
    e = parse_expr("k/tau")
    assert e.params() == {"k", "tau"}
    assert e.evaluate({"k": 2.0, "tau": 0.5}) == 4.0


def test_diff_quotient():
    e = parse_expr("k/tau")
    d = e.diff("tau")
    assert d.evaluate({"k": 1.0, "tau": 0.5}) == pytest.approx(-4.0)
    assert e.diff("k").evaluate({"k": 1.0, "tau": 0.5}) == pytest.approx(2.0)
    assert e.diff("other").is_zero()


def test_diff_chain_rule_functions():
    e = parse_expr("exp(-t/tau)")
    d = e.diff("tau")
    t, tau = 0.7, 0.5
    want = math.exp(-t / tau) * t / tau ** 2
    assert d.evaluate({"t": t, "tau": tau}) == pytest.approx(want, rel=1e-14)


def test_structural_zero_and_folding():
    assert parse_expr("k*0").is_zero()
    assert parse_expr("0/k").is_zero()
    assert (parse_expr("k") - parse_expr("k")).to_str() == "k - k"  # no deep rewriting
    assert parse_expr("2*3").value == 6.0


def test_pow_requires_constant_exponent():
    with pytest.raises(SchemaError):
        parse_expr("x**y")
    assert parse_expr("x**2").diff("x").evaluate({"x": 3.0}) == pytest.approx(6.0)


def test_rejects_unsafe_syntax():
    for bad in ("__import__('os')", "k[0]", "lambda: 1", "f(1,2)", "'s'"):
        with pytest.raises(SchemaError):
            parse_expr(bad)


@st.composite
def exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["a", "b", "1.5", "2", "0.25",
                                     # a call of every function kind, in its domain
                                     "exp(0.5*a)", "log(2 + b*b)", "sin(a)", "cos(a*b)",
                                     "tan(0.3*a)", "atan(a - b)", "sqrt(1 + a*a)",
                                     "(1.5 + a*a)**1.5", "a**0", "abs(b)"]))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(exprs(depth=depth + 1))
    right = draw(exprs(depth=depth + 1))
    if op == "/":
        right = "(1 + (" + right + ")*(" + right + "))"   # keep denominators positive
    return f"({left} {op} {right})"


@given(exprs())
@settings(max_examples=120, deadline=None)
def test_to_str_round_trips(src):
    env = {"a": 0.7, "b": -1.3}
    e = parse_expr(src)
    e2 = parse_expr(e.to_str())
    assert e2.evaluate(env) == pytest.approx(e.evaluate(env), rel=1e-13, abs=1e-13)


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_diff_matches_central_difference(src):
    e = parse_expr(src)
    d = e.diff("a")
    env = {"a": 0.7, "b": -1.3}
    h = 1e-6
    up = dict(env, a=env["a"] + h)
    dn = dict(env, a=env["a"] - h)
    fd = (e.evaluate(up) - e.evaluate(dn)) / (2 * h)
    assert d.evaluate(env) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_to_tape_agrees_with_evaluate():
    e = parse_expr("sin(a)*exp(b) + a/(1 + b*b) - sqrt(2)")
    b = TapeBuilder(2)
    env_nodes = {"a": b.input(0), "b": b.input(1)}
    t = b.build([e.to_tape(b, env_nodes)])
    env = {"a": 0.3, "b": -0.8}
    assert tape_eval(t, [0.3, -0.8])[0] == pytest.approx(e.evaluate(env), rel=1e-15)


def test_nested_second_derivative():
    e = parse_expr("sqrt(a)")
    d2 = e.diff("a").diff("a")
    assert d2.evaluate({"a": 1.5}) == pytest.approx(-0.25 * 1.5 ** -1.5, rel=1e-13)


def test_strings_parse_once_into_a_bounded_cache():
    assert parse_expr("k/tau + 1") is parse_expr("k/tau + 1")
    assert _parse_text.cache_info().maxsize is not None


@pytest.mark.parametrize("src,text", [
    ("a*(b*k)", "a*(b*k)"), ("a + (b + k)", "a + (b + k)"), ("-(a*b)", "-(a*b)"),
    ("-(a/b)", "-(a/b)"), ("(k**2)**0.5", "(k**2.0)**0.5"), ("(-k)**2", "(-k)**2.0"),
    ("-k**2", "-k**2.0"), ("-a*b", "(-a)*b"), ("a - (b - k)", "a - (b - k)")])
def test_to_str_keeps_the_grouping(src, text):
    # the right operand of + and * at its operator's level, a product under
    # unary minus and a power used as a base are parenthesized; Python would
    # otherwise group them differently (** is right-associative)
    e = parse_expr(src)
    assert e.to_str() == text and parse_expr(text) == e


def _random_tree(rng: random.Random, depth: int) -> ParamExpr:
    """An expression built by ParamExpr's operators, folding as they do."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return ParamExpr.param(rng.choice("abk"))
        return ParamExpr.const(rng.choice([0.5, 2.0, -3.0, 0.25, 1e-3, 7.0, 1e20]))
    x, r = _random_tree(rng, depth - 1), rng.random()
    if r < 0.15:
        return -x
    if r < 0.3:
        return x if x.is_const() else x.applied(
            rng.choice([Pow(2.0), Pow(0.5), Pow(-1.0), SIN, EXP, SQRT]))
    op = rng.choice([operator.add, operator.sub, operator.mul, operator.truediv])
    return op(x, _random_tree(rng, depth - 1))


def test_to_str_parses_back_to_the_same_tree():
    rng = random.Random(25)
    trees = [_random_tree(rng, 5) for _ in range(3000)]
    assert sum(e.op in ("add", "mul") and e.args[1].op == e.op for e in trees) > 50
    assert [e for e in trees if parse_expr(e.to_str()) != e] == []
