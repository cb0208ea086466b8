"""Scalar symbolic expressions over named parameters.

Block-diagram fields (gains, transfer-function coefficients, initial
conditions, delays) are expressions over the diagram's parameter set,
e.g. ``"k/tau"`` or ``"2*zeta*omega"``.  The class is closed under
differentiation with respect to any named parameter, which is all the
graphic differentiation rules need; constant folding keeps structural
zeros recognizable so derivative flows can be pruned.

Infix strings are parsed through Python's ``ast`` module (names,
numbers, + - * /, ** with a constant exponent, and the elementary
function calls); ``to_str`` emits a string that parses back to an
equivalent expression.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass

from .errors import SchemaError
from .ops import ElementaryFn, Pow, fn_value, parse_fn

_FN_NAMES = {"exp", "log", "sin", "cos", "tan", "atan", "sqrt", "abs"}


@dataclass(frozen=True)
class ParamExpr:
    op: str                                  # const|param|add|sub|mul|div|neg|fn
    args: tuple["ParamExpr", ...] = ()
    value: float = 0.0                       # const payload
    name: str = ""                           # param payload
    fn: ElementaryFn | None = None           # fn payload

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(v: float) -> "ParamExpr":
        return ParamExpr("const", value=float(v))

    @staticmethod
    def param(name: str) -> "ParamExpr":
        return ParamExpr("param", name=name)

    # -- predicates ----------------------------------------------------------

    def is_const(self) -> bool:
        return self.op == "const"

    def is_zero(self) -> bool:
        return self.op == "const" and self.value == 0.0

    def is_one(self) -> bool:
        return self.op == "const" and self.value == 1.0

    def params(self) -> frozenset[str]:
        if self.op == "param":
            return frozenset((self.name,))
        out: frozenset[str] = frozenset()
        for a in self.args:
            out |= a.params()
        return out

    def depends_on(self, name: str) -> bool:
        return name in self.params()

    # -- algebra (folding constants as we build) ------------------------------

    def __add__(self, o: "ParamExpr") -> "ParamExpr":
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.is_const() and o.is_const():
            return ParamExpr.const(self.value + o.value)
        return ParamExpr("add", (self, o))

    def __sub__(self, o: "ParamExpr") -> "ParamExpr":
        if o.is_zero():
            return self
        if self.is_const() and o.is_const():
            return ParamExpr.const(self.value - o.value)
        if self.is_zero():
            return -o
        return ParamExpr("sub", (self, o))

    def __mul__(self, o: "ParamExpr") -> "ParamExpr":
        if self.is_zero() or o.is_zero():
            return ParamExpr.const(0.0)
        if self.is_one():
            return o
        if o.is_one():
            return self
        if self.is_const() and o.is_const():
            return ParamExpr.const(self.value * o.value)
        return ParamExpr("mul", (self, o))

    def __truediv__(self, o: "ParamExpr") -> "ParamExpr":
        if self.is_zero():
            return self
        if o.is_one():
            return self
        if self.is_const() and o.is_const() and o.value != 0.0:
            return ParamExpr.const(self.value / o.value)
        return ParamExpr("div", (self, o))

    def __neg__(self) -> "ParamExpr":
        if self.is_const():
            return ParamExpr.const(-self.value)
        if self.op == "neg":
            return self.args[0]
        return ParamExpr("neg", (self,))

    def applied(self, fn: ElementaryFn) -> "ParamExpr":
        if self.is_const():
            return ParamExpr.const(fn_value(fn, self.value))
        return ParamExpr("fn", (self,), fn=fn)

    # -- calculus -------------------------------------------------------------

    def diff(self, theta: str) -> "ParamExpr":
        """Partial derivative with respect to the named parameter."""
        op = self.op
        if op == "const":
            return ParamExpr.const(0.0)
        if op == "param":
            return ParamExpr.const(1.0 if self.name == theta else 0.0)
        if op == "add":
            return self.args[0].diff(theta) + self.args[1].diff(theta)
        if op == "sub":
            return self.args[0].diff(theta) - self.args[1].diff(theta)
        if op == "mul":
            a, b = self.args
            return a.diff(theta) * b + a * b.diff(theta)
        if op == "div":
            a, b = self.args
            return (a.diff(theta) * b - a * b.diff(theta)) / (b * b)
        if op == "neg":
            return -self.args[0].diff(theta)
        if op == "fn":
            (u,) = self.args
            du = u.diff(theta)
            if du.is_zero():
                return du
            return self._fn_prime(u) * du
        raise AssertionError(op)

    def _fn_prime(self, u: "ParamExpr") -> "ParamExpr":
        k = self.fn.kind
        if k == "exp":
            return self
        if k == "log":
            return ParamExpr.const(1.0) / u
        if k == "sin":
            return u.applied(ElementaryFn("cos"))
        if k == "cos":
            return -u.applied(ElementaryFn("sin"))
        if k == "tan":
            return ParamExpr.const(1.0) + self * self
        if k == "atan":
            return ParamExpr.const(1.0) / (ParamExpr.const(1.0) + u * u)
        if k == "sqrt":
            return ParamExpr.const(0.5) / self
        if k == "pow":
            p = self.fn.exponent
            if p == 0:
                return ParamExpr.const(0.0)
            return ParamExpr.const(p) * u.applied(Pow(p - 1))
        raise SchemaError("expr", f"{k} has no symbolic derivative rule")

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, env) -> float:
        op = self.op
        if op == "const":
            return self.value
        if op == "param":
            return param_value(env, self.name)
        if op == "add":
            return self.args[0].evaluate(env) + self.args[1].evaluate(env)
        if op == "sub":
            return self.args[0].evaluate(env) - self.args[1].evaluate(env)
        if op == "mul":
            return self.args[0].evaluate(env) * self.args[1].evaluate(env)
        if op == "div":
            return self.args[0].evaluate(env) / self.args[1].evaluate(env)
        if op == "neg":
            return -self.args[0].evaluate(env)
        if op == "fn":
            return fn_value(self.fn, self.args[0].evaluate(env))
        raise AssertionError(op)

    def to_source(self, names: dict[str, str], consts: list) -> str:
        """A Python expression computing ``evaluate`` with the same
        operations.  ``names`` maps each parameter to a float variable;
        constants and elementary functions are appended to ``consts`` and
        read as the name ``_kd<i>``, i their index there, which the caller
        binds, so the source depends on the expression's shape only, and a
        function becomes ``_fv(_kd<i>, ...)`` (``fn_value``), so it fails as
        ``evaluate`` does."""
        op = self.op
        if op == "const":
            consts.append(self.value)
            return f"_kd{len(consts) - 1}"
        if op == "param":
            return names[self.name]
        if op == "neg":
            return f"(-{self.args[0].to_source(names, consts)})"
        if op == "fn":
            consts.append(self.fn)
            return f"_fv(_kd{len(consts) - 1}, {self.args[0].to_source(names, consts)})"
        a, b = (e.to_source(names, consts) for e in self.args)
        return f"({a} {_INFIX[op]} {b})"

    def to_tape(self, builder, env: dict[str, int]) -> int:
        """Emit this expression into a tape; env maps parameter names to
        existing node ids."""
        op = self.op
        if op == "const":
            return builder.const(self.value)
        if op == "param":
            return env[self.name]
        if op == "neg":
            return builder.neg(self.args[0].to_tape(builder, env))
        if op == "fn":
            return builder.apply(self.fn, self.args[0].to_tape(builder, env))
        a = self.args[0].to_tape(builder, env)
        b = self.args[1].to_tape(builder, env)
        return getattr(builder, op)(a, b)

    # -- printing ----------------------------------------------------------------

    def to_str(self) -> str:
        return self._str(0)

    def _str(self, prec: int) -> str:
        op = self.op
        if op == "const":
            v = self.value
            if v == int(v) and abs(v) < 1e15:
                s = str(int(v))
            else:
                s = repr(v)
            return f"({s})" if v < 0 and prec > 0 else s
        if op == "param":
            return self.name
        if op == "neg":
            inner = self.args[0]._str(2)
            return f"-{inner}" if prec <= 1 else f"(-{inner})"
        if op == "fn":
            if self.fn.kind == "pow":
                return f"{self.args[0]._str(3)}**{self.fn.exponent!r}"
            return f"{self.fn.kind}({self.args[0]._str(0)})"
        a, b = self.args
        if op == "add":
            s = f"{a._str(1)} + {b._str(1)}"
            mine = 1
        elif op == "sub":
            s = f"{a._str(1)} - {b._str(2)}"
            mine = 1
        elif op == "mul":
            s = f"{a._str(2)}*{b._str(2)}"
            mine = 2
        else:
            s = f"{a._str(2)}/{b._str(3)}"
            mine = 2
        return f"({s})" if prec > mine else s

    def __str__(self) -> str:
        return self.to_str()


ZERO = ParamExpr.const(0.0)
_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def param_value(env, name: str) -> float:
    """The float bound to a parameter name; KeyError when it is unbound."""
    try:
        return float(env[name])
    except KeyError:
        raise KeyError(f"parameter {name!r} not bound") from None


def parse_expr(text) -> ParamExpr:
    """Parse an infix expression string (or bare number) to a ParamExpr."""
    if isinstance(text, ParamExpr):
        return text
    if isinstance(text, (int, float)):
        return ParamExpr.const(float(text))
    return _parse_text(str(text))


@functools.lru_cache(maxsize=1024)
def _parse_text(text: str) -> ParamExpr:
    """A document repeats a few strings many times, and a ParamExpr is
    frozen, so each string is parsed once; a failure is not cached."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SchemaError("expr", f"cannot parse {text!r}: {exc.msg}") from exc
    return _from_ast(tree.body, text)


def _from_ast(node, src: str) -> ParamExpr:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise SchemaError("expr", f"non-numeric constant in {src!r}")
        return ParamExpr.const(float(node.value))
    if isinstance(node, ast.Name):
        return ParamExpr.param(node.id)
    if isinstance(node, ast.UnaryOp):
        inner = _from_ast(node.operand, src)
        if isinstance(node.op, ast.USub):
            return -inner
        if isinstance(node.op, ast.UAdd):
            return inner
        raise SchemaError("expr", f"unsupported unary operator in {src!r}")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _from_ast(node.left, src)
            exp = _from_ast(node.right, src)
            if not exp.is_const():
                raise SchemaError("expr", f"exponent must be constant in {src!r}")
            return base.applied(Pow(exp.value))
        a = _from_ast(node.left, src)
        b = _from_ast(node.right, src)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
        raise SchemaError("expr", f"unsupported operator in {src!r}")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FN_NAMES:
            raise SchemaError("expr", f"unsupported call in {src!r}")
        if len(node.args) != 1 or node.keywords:
            raise SchemaError("expr", f"{node.func.id} takes one argument in {src!r}")
        return _from_ast(node.args[0], src).applied(parse_fn(node.func.id))
    raise SchemaError("expr", f"unsupported syntax in {src!r}")
