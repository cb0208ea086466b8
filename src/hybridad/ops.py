"""Elementary scalar functions and their one first-derivative rule.

These are the unary primitives the tape, jet, expression and diagram
layers agree on.  ``fn_rule`` writes each one's chain-rule factor once,
over a handful of operations that each layer supplies: tape nodes
(``append_tangent``), symbolic expressions (``ParamExpr.diff``), diagram
blocks (agdm's ``Fn`` rule) and floats (``fn_derivative``).  ``abs`` is
the one member without a total rule: it is flagged non-differentiable at
zero and rejected by analytic (jet) composition.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import DomainError, NonDifferentiablePoint


@dataclass(frozen=True)
class ElementaryFn:
    kind: str                     # exp|log|sin|cos|tan|atan|sqrt|pow|abs
    exponent: float | None = None  # pow only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown elementary function {self.kind!r}")
        if (self.kind == "pow") != (self.exponent is not None):
            raise ValueError("exponent is set exactly for pow")

    def __str__(self) -> str:
        if self.kind == "pow":
            return f"pow[{self.exponent!r}]"
        return self.kind


FN_NAMES = frozenset({"exp", "log", "sin", "cos", "tan", "atan", "sqrt", "abs"})  # called by name
_KINDS = FN_NAMES | {"pow"}

EXP = ElementaryFn("exp")
LOG = ElementaryFn("log")
SIN = ElementaryFn("sin")
COS = ElementaryFn("cos")
TAN = ElementaryFn("tan")
ATAN = ElementaryFn("atan")
SQRT = ElementaryFn("sqrt")
ABS = ElementaryFn("abs")


def Pow(exponent: float) -> ElementaryFn:
    return ElementaryFn("pow", float(exponent))


def parse_fn(text: str) -> ElementaryFn:
    """Inverse of ``str(fn)``; accepts e.g. ``"sin"`` or ``"pow[2.0]"``."""
    if text.startswith("pow[") and text.endswith("]"):
        return Pow(float(text[4:-1]))
    return ElementaryFn(text)


def fn_value(fn: ElementaryFn, x: float) -> float:
    k = fn.kind
    if k == "exp":
        return math.exp(x)
    if k == "log":
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x!r}")
        return math.log(x)
    if k == "sin":
        return math.sin(x)
    if k == "cos":
        return math.cos(x)
    if k == "tan":
        return math.tan(x)
    if k == "atan":
        return math.atan(x)
    if k == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    if k == "pow":
        p = fn.exponent
        if x == 0.0 and p < 0:
            raise DomainError("zero base with negative exponent")
        if x < 0.0 and p != round(p):
            raise DomainError(f"negative base {x!r} with non-integer exponent")
        return x ** p
    if k == "abs":
        return abs(x)
    raise AssertionError(k)


@functools.lru_cache(maxsize=256)
def _pow_lowered(p: float) -> ElementaryFn:
    """``Pow(p - 1)``, built once per exponent."""
    return Pow(p - 1)


def fn_rule(fn: ElementaryFn, x, y, ops):
    """The chain-rule factor of ``fn`` at ``x``, where ``y`` is fn(x), as
    ``(d, over)``: fn'(x) is d, or 1/d when ``over`` is set, so each caller
    takes the reciprocal its own way.  d is built with the operations of
    ``ops``: ``const(v)``, ``add(a, b)``, ``mul(a, b)``, ``scale(c, a)`` (the
    float c times a), ``neg(a)``, ``apply(fn, a)`` and ``sign(a)`` (+1 where
    a >= 0, else -1; abs' own rule at zero is the caller's).  A layer that
    numbers what it builds (diagram blocks) numbers it in the order of the
    calls below."""
    k = fn.kind
    if k == "exp":
        return y, False
    if k == "log":
        return x, True
    if k == "sin":
        return ops.apply(COS, x), False
    if k == "cos":
        return ops.neg(ops.apply(SIN, x)), False
    if k in ("tan", "atan"):        # 1 + y^2; atan' = 1/(1 + x^2)
        v = y if k == "tan" else x
        sq = ops.mul(v, v)
        return ops.add(ops.const(1.0), sq), k == "atan"
    if k == "sqrt":                 # 1/(2y)
        return ops.scale(2.0, y), True
    if k == "pow":
        p = fn.exponent
        if p == 0:
            return ops.const(0.0), False
        return ops.scale(p, ops.apply(_pow_lowered(p), x)), False
    if k == "abs":
        return ops.sign(x), False
    raise AssertionError(k)


def _float_sign(x: float) -> float:
    if x == 0.0:
        raise NonDifferentiablePoint(-1)
    return 1.0 if x > 0.0 else -1.0


_FLOAT_OPS = SimpleNamespace(const=float, add=operator.add, mul=operator.mul,
                             scale=operator.mul, neg=operator.neg, apply=fn_value,
                             sign=_float_sign)


_READS_Y = frozenset({"exp", "tan", "sqrt"})      # the kinds whose rule reads fn(x)


def fn_derivative(fn: ElementaryFn, x: float, node_id: int = -1, y: float | None = None) -> float:
    """First derivative value at x, ``fn_rule`` on floats, for x in fn's
    domain; ``y`` is fn(x) where the caller has it, else it is computed
    for the kinds whose rule reads it.  abs raises at exactly zero; a
    rule's reciprocal of zero raises ZeroDivisionError."""
    if y is None and fn.kind in _READS_Y:
        y = fn_value(fn, x)
    try:
        d, over = fn_rule(fn, x, y, _FLOAT_OPS)
    except NonDifferentiablePoint:
        raise NonDifferentiablePoint(node_id) from None
    return 1.0 / d if over else d


def fn_second_derivative(fn: ElementaryFn, x: float, node_id: int = -1) -> float:
    """Second derivative value at x (needed by forward-over-reverse)."""
    k = fn.kind
    if k == "exp":
        return math.exp(x)
    if k == "log":
        return -1.0 / (x * x)
    if k == "sin":
        return -math.sin(x)
    if k == "cos":
        return -math.cos(x)
    if k == "tan":
        t = math.tan(x)
        return 2.0 * t * (1.0 + t * t)
    if k == "atan":
        d = 1.0 + x * x
        return -2.0 * x / (d * d)
    if k == "sqrt":
        return -0.25 / (x * math.sqrt(x))
    if k == "pow":
        p = fn.exponent
        if p == 0 or p == 1:
            return 0.0
        return p * (p - 1.0) * fn_value(Pow(p - 2), x)
    if k == "abs":
        if x == 0.0:
            raise NonDifferentiablePoint(node_id)
        return 0.0
    raise AssertionError(k)
