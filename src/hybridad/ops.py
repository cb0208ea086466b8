"""Elementary scalar functions with total derivative rules.

These are the unary primitives the tape, jet and expression layers agree
on.  ``abs`` is the one member without a total rule: it is flagged
non-differentiable at zero and rejected by analytic (jet) composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


_KINDS = frozenset({"exp", "log", "sin", "cos", "tan", "atan", "sqrt", "pow", "abs"})

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


def fn_derivative(fn: ElementaryFn, x: float, node_id: int = -1) -> float:
    """First derivative value at x.  abs raises at exactly zero."""
    k = fn.kind
    if k == "exp":
        return math.exp(x)
    if k == "log":
        if x <= 0.0:
            raise DomainError(f"log of non-positive value {x!r}")
        return 1.0 / x
    if k == "sin":
        return math.cos(x)
    if k == "cos":
        return -math.sin(x)
    if k == "tan":
        c = math.cos(x)
        return 1.0 / (c * c)
    if k == "atan":
        return 1.0 / (1.0 + x * x)
    if k == "sqrt":
        if x <= 0.0:
            raise DomainError(f"sqrt derivative at non-positive value {x!r}")
        return 0.5 / math.sqrt(x)
    if k == "pow":
        p = fn.exponent
        if p == 0:
            return 0.0
        return p * fn_value(Pow(p - 1), x)
    if k == "abs":
        if x == 0.0:
            raise NonDifferentiablePoint(node_id)
        return 1.0 if x > 0.0 else -1.0
    raise AssertionError(k)


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
