"""Straight-line programs ("tapes") and their derivatives.

A tape is a topologically ordered sequence of elementary operations over
a fixed set of inputs.  Conditionals are first-class ``branch`` nodes: the
condition always compares an already-computed node against a constant
threshold with ``>=`` (documented, bit-stable tie-breaking), and
evaluation is demand-driven so only the taken arm of a branch is ever
computed.  Derivatives follow the taken arm and never differentiate the
threshold.

One evaluator, ``_run``, interprets a tape in every mode; the number type
is its parameter (floats, duals, Taylor jets, or the valuation-aware
series of ``taylor_patch``) and supplies constants, the four arithmetic
operations, elementary functions and the primal that branch conditions
compare.  Reverse mode adds one adjoint sweep over the evaluated nodes.

Modes provided here:

* ``tape_eval``          -- plain evaluation (floats)
* ``forward_gradient``   -- full Jacobian (duals carrying tangent vectors)
* ``reverse_gradient``   -- one forward sweep + one adjoint sweep
* ``hessian``            -- forward duals pushed through the reverse sweep
* ``tape_jet_eval``      -- order-r Taylor propagation (jet module)
* ``compile_tape``       -- Python code generation, taken arms only
* ``arm_contexts`` / ``readers`` / ``guarded_source`` -- the taken-arm
  code generator behind ``compile_tape`` and the simulator's generated
  code, which writes a node read once into its reader's expression
* ``op_count``           -- arithmetic-operation count of a derivative pass
* ``jvp_tape``           -- source transformation emitting derivative nodes
* ``audit_branches`` / ``taylor_patch`` -- branch-boundary checks and
  polynomial patches of removable singularities

Tapes are immutable after construction; every evaluation allocates its
own workspace, so concurrent evaluations of a shared tape are safe.
``TapeBuilder`` folds exact identities and structural zeros as it builds,
so a tangent sweep emits no nodes for zero tangents; ``copy_into`` copies
a tape as it is.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, EvalDomainError, NonDifferentiablePoint
from .jet import _ARITH as _JET_ARITH, Jet, jet_const
from . import jet as jetmod
from .ops import (
    ABS,
    COS,
    SIN,
    ElementaryFn,
    Pow,
    fn_derivative,
    fn_second_derivative,
    fn_value,
    parse_fn,
)

class Node(NamedTuple):
    op: str                      # input|const|add|sub|mul|div|apply|branch
    a: int = -1                  # first child; input index for op=input; then-arm for branch
    b: int = -1                  # second child; else-arm for branch
    fn: ElementaryFn | None = None
    value: float = 0.0           # const payload
    cond: int = -1               # branch condition node
    threshold: float = 0.0       # branch threshold (compared with >=)

    def children(self) -> tuple[int, ...]:
        if self.op in ("input", "const"):
            return ()
        if self.op == "apply":
            return (self.a,)
        if self.op == "branch":
            return (self.cond, self.a, self.b)
        return (self.a, self.b)


@dataclass(frozen=True)
class Tape:
    nodes: tuple[Node, ...]
    num_inputs: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        seen_inputs = set()
        for i, (op, a, b, _, _, cond, _) in enumerate(self.nodes):
            if op == "input":
                if not (0 <= a < self.num_inputs):
                    raise ValueError(f"node {i}: input index {a} out of range")
                if a in seen_inputs:
                    raise ValueError(f"input {a} referenced by more than one node")
                seen_inputs.add(a)
            elif op != "const" and not (0 <= a < i and (op == "apply" or 0 <= b < i and (
                    op != "branch" or 0 <= cond < i))):   # children() in one test
                c = next(c for c in self.nodes[i].children() if not 0 <= c < i)
                raise ValueError(f"node {i} references {c}, violating topological order")
        for o in self.outputs:
            if not (0 <= o < len(self.nodes)):
                raise ValueError(f"output id {o} does not exist")

    def __len__(self) -> int:
        return len(self.nodes)


class TapeBuilder:
    """Incremental tape construction; methods return node ids.

    One structural-zero rule folds where nodes are built, returning an
    existing id and pushing nothing: ``x + 0``, ``0 + x``, ``x - 0``,
    ``x * 1``, ``1 * x`` and ``x / 1`` give x, ``x * 0`` and ``0 * x`` the
    zero, and a branch whose arms are one node, or both zeros, its then-arm;
    ``0 - x`` (``neg``) and ``0 / x`` stay nodes.  ``x*1``, ``1*x``, ``x/1``
    and ``x - (+0.0)`` are exact in IEEE arithmetic; ``x + 0`` and ``x * 0``
    are exact for finite operands up to the sign of a zero result.  A
    folded-away operand is no longer computed, so an error it would have
    raised no longer happens.
    """

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self._nodes: list[Node] = []
        self._input_nodes: dict[int, int] = {}

    def _push(self, node: Node) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _is(self, i: int, v: float) -> bool:       # node i is the constant v
        return self._nodes[i].op == "const" and self._nodes[i].value == v

    def is_zero(self, i: int) -> bool:
        """Node ``i`` is a constant equal to 0.0 (of either sign)."""
        return self._is(i, 0.0)

    def input(self, j: int) -> int:
        if not (0 <= j < self.num_inputs):
            raise ValueError(f"input index {j} out of range")
        if j not in self._input_nodes:
            self._input_nodes[j] = self._push(Node("input", a=j))
        return self._input_nodes[j]

    def const(self, v: float) -> int:
        return self._push(Node("const", value=float(v)))

    def add(self, a: int, b: int) -> int:
        return b if self.is_zero(a) else a if self.is_zero(b) else self._push(Node("add", a=a, b=b))

    def sub(self, a: int, b: int) -> int:
        return a if self.is_zero(b) else self._push(Node("sub", a=a, b=b))

    def mul(self, a: int, b: int) -> int:
        for x, y in ((a, b), (b, a)):
            if self.is_zero(x) or self._is(y, 1.0):
                return x
        return self._push(Node("mul", a=a, b=b))

    def div(self, a: int, b: int) -> int:
        return a if self._is(b, 1.0) else self._push(Node("div", a=a, b=b))

    def apply(self, fn: ElementaryFn, a: int) -> int:
        return self._push(Node("apply", a=a, fn=fn))

    def branch(self, cond: int, threshold: float, then_id: int, else_id: int) -> int:
        if then_id == else_id or self.is_zero(then_id) and self.is_zero(else_id):
            return then_id
        return self._push(Node("branch", a=then_id, b=else_id, cond=cond,
                               threshold=float(threshold)))

    def neg(self, a: int) -> int:
        return self.sub(self.const(0.0), a)

    def build(self, outputs) -> Tape:
        return Tape(tuple(self._nodes), self.num_inputs, tuple(outputs))


# ---------------------------------------------------------------------------
# one demand-driven evaluator, parameterized by the number type
# ---------------------------------------------------------------------------

def _use(tangent):
    """Deferred-kink guard: a tangent may carry a NonDifferentiablePoint,
    raised only when the tangent is actually consumed (branch conditions
    read the primal alone, so a kink there is harmless)."""
    if isinstance(tangent, NonDifferentiablePoint):
        raise tangent
    return tangent


class _Num(NamedTuple):
    """A number type for ``_run`` and ``_adjoint_pass``."""

    const: Callable              # float -> value
    arith: dict                  # op name -> binary operation on values
    apply: Callable              # (fn, x, node id) -> fn(x)
    primal: Callable             # value -> float, for branch conditions
    float_conds: bool            # read conditions from a float side memo
    fn_prime: Callable | None = None  # (fn, x, node id) -> fn'(x), adjoint sweep


def _same(v):
    return v


_ARITH = {"add": operator.add, "sub": operator.sub,
          "mul": operator.mul, "div": operator.truediv}

_FLOATS = _Num(_same, _ARITH, lambda fn, x, nid: fn_value(fn, x), _same, False,
               fn_derivative)


class _D:
    """Dual number.  ``d`` is a scalar (one direction, pushed through the
    reverse sweep for Hessians) or a vector (all input directions at once,
    forward mode)."""

    __slots__ = ("v", "d")

    def __init__(self, v: float, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        return _D(self.v + o.v, _use(self.d) + _use(o.d))

    def __sub__(self, o):
        return _D(self.v - o.v, _use(self.d) - _use(o.d))

    def __mul__(self, o):
        return _D(self.v * o.v, _use(self.d) * o.v + self.v * _use(o.d))

    def __truediv__(self, o):
        d, od = _use(self.d), _use(o.d)
        q = self.v / o.v
        return _D(q, (d - q * od) / o.v)

    def __neg__(self):
        return _D(-self.v, -_use(self.d))

    @staticmethod
    def apply(fn, x, nid):
        v = fn_value(fn, x.v)
        try:
            d = fn_derivative(fn, x.v, nid)
        except NonDifferentiablePoint as exc:
            return _D(v, exc)
        return _D(v, d * _use(x.d))

    @staticmethod
    def fn_prime(fn, x, nid):
        # derivative of the elementary function, itself dual-valued
        d1 = fn_derivative(fn, x.v, nid)
        d2 = fn_second_derivative(fn, x.v, nid)
        return _D(d1, d2 * _use(x.d))


def _duals(zero) -> _Num:
    """Duals whose constants carry the tangent ``zero``."""
    return _Num(lambda v: _D(v, zero), _ARITH, _D.apply, lambda x: x.v, True,
                _D.fn_prime)


def _domain_error(nid: int, exc: Exception) -> EvalDomainError:
    msg = "division by zero" if isinstance(exc, ZeroDivisionError) else str(exc)
    return EvalDomainError(nid, msg)


def _run(tape: Tape, inputs, want, num: _Num, memo=None):
    """Demand-driven evaluation of the ``want`` node ids in number type ``num``.

    Only the taken arm of a branch is computed.  Floats and series read a
    condition from their own memo; tangents, duals and jets read it from a
    float side memo, so that derivative or series information never flows
    through a test that only reads the primal (a kink or ``sqrt(0)`` in a
    condition stays harmless).  Domain failures become ``EvalDomainError``
    naming the node; a ``NonDifferentiablePoint`` passes unchanged.
    Returns the memo (node id -> value, filled into ``memo`` when given)
    and the arm each evaluated branch took.
    """
    if len(inputs) != tape.num_inputs:
        raise ValueError(f"expected {tape.num_inputs} inputs, got {len(inputs)}")
    nodes = tape.nodes
    const, arith, apply = num.const, num.arith, num.apply
    memo = {} if memo is None else memo
    taken: dict[int, int] = {}
    finputs = fmemo = None
    stack = list(want)
    try:
        while stack:
            nid = stack[-1]
            if nid in memo:
                stack.pop()
                continue
            node = nodes[nid]
            op = node.op
            if op == "input":
                memo[nid] = inputs[node.a]
            elif op == "const":
                memo[nid] = const(node.value)
            elif op == "apply":
                if node.a not in memo:
                    stack.append(node.a)
                    continue
                memo[nid] = apply(node.fn, memo[node.a], nid)
            elif op == "branch":
                c = node.cond
                if num.float_conds:
                    if fmemo is None:
                        finputs, fmemo = [num.primal(v) for v in inputs], {}
                    if c not in fmemo:
                        _run(tape, finputs, (c,), _FLOATS, fmemo)
                    cval = fmemo[c]
                elif c in memo:
                    cval = num.primal(memo[c])
                else:
                    stack.append(c)
                    continue
                arm = node.a if cval >= node.threshold else node.b
                if arm not in memo:
                    stack.append(arm)
                    continue
                taken[nid] = arm
                memo[nid] = memo[arm]
            else:
                a, b = node.a, node.b
                if a not in memo or b not in memo:
                    stack.extend([c for c in (a, b) if c not in memo])
                    continue
                memo[nid] = arith[op](memo[a], memo[b])
            stack.pop()
    except (EvalDomainError, NonDifferentiablePoint):
        raise
    except Exception as exc:
        raise _domain_error(nid, exc) from exc
    return memo, taken


def tape_eval(t: Tape, x) -> list[float]:
    """Evaluate all outputs.  Only the taken arm of a branch is computed."""
    memo, _ = _run(t, [float(v) for v in x], t.outputs, _FLOATS)
    return [memo[o] for o in t.outputs]


def forward_gradient(t: Tape, x) -> np.ndarray:
    """Full Jacobian (outputs x inputs) by tangent-vector propagation."""
    seeds = [_D(float(v), e) for v, e in zip(x, np.eye(len(x), t.num_inputs))]
    memo, _ = _run(t, seeds, t.outputs, _duals(np.zeros(t.num_inputs)))
    return np.array([_use(memo[o].d) for o in t.outputs])


def _adjoint_pass(t: Tape, memo, taken, out_node: int, num: _Num, one):
    """Reverse sweep over the demanded sub-graph; returns id->adjoint."""
    nodes = t.nodes
    adj: dict[int, object] = {out_node: one}

    def acc(child, contrib):
        if child in adj:
            adj[child] = adj[child] + contrib
        else:
            adj[child] = contrib

    for nid in sorted(memo.keys(), reverse=True):
        a_bar = adj.get(nid)
        if a_bar is None:
            continue
        node = nodes[nid]
        op = node.op
        if op in ("input", "const"):
            continue
        if op == "branch":
            acc(taken[nid], a_bar)
            continue
        if op == "apply":
            try:
                fp = num.fn_prime(node.fn, memo[node.a], nid)
            except NonDifferentiablePoint:
                raise
            except Exception as exc:
                raise _domain_error(nid, exc) from exc
            acc(node.a, a_bar * fp)
            continue
        a, b = node.a, node.b
        if op == "add":
            acc(a, a_bar)
            acc(b, a_bar)
        elif op == "sub":
            acc(a, a_bar)
            acc(b, -a_bar)
        elif op == "mul":
            acc(a, a_bar * memo[b])
            acc(b, a_bar * memo[a])
        else:  # div: node = a/b, d/da = 1/b, d/db = -q/b
            w = a_bar / memo[b]
            acc(a, w)
            acc(b, -(w * memo[nid]))
    return adj


def reverse_gradient(t: Tape, x, out: int) -> np.ndarray:
    """Gradient of one output (by position in ``t.outputs``) w.r.t. all inputs.

    Exactly one forward sweep and one reverse sweep.
    """
    if not (0 <= out < len(t.outputs)):
        raise ValueError(f"output index {out} out of range")
    out_node = t.outputs[out]
    memo, taken = _run(t, [float(v) for v in x], (out_node,), _FLOATS)
    adj = _adjoint_pass(t, memo, taken, out_node, _FLOATS, 1.0)
    grad = np.zeros(t.num_inputs)
    for nid, a_bar in adj.items():
        if t.nodes[nid].op == "input":
            grad[t.nodes[nid].a] = a_bar
    return grad


def hessian(t: Tape, x, out: int) -> np.ndarray:
    """Hessian of one output: forward duals composed with the reverse sweep.

    The matrix is symmetric by construction (row i is computed for
    columns j >= i and mirrored).
    """
    if not (0 <= out < len(t.outputs)):
        raise ValueError(f"output index {out} out of range")
    out_node = t.outputs[out]
    n = t.num_inputs
    duals = _duals(0.0)
    H = np.zeros((n, n))
    for i in range(n):
        seeds = [_D(float(v), 1.0 if j == i else 0.0) for j, v in enumerate(x)]
        memo, taken = _run(t, seeds, (out_node,), duals)
        adj = _adjoint_pass(t, memo, taken, out_node, duals, _D(1.0, 0.0))
        row = np.zeros(n)
        for nid, a_bar in adj.items():
            if t.nodes[nid].op == "input":
                row[t.nodes[nid].a] = a_bar.d
        for j in range(i, n):
            H[i, j] = row[j]
            H[j, i] = row[j]
    return H


def tape_jet_eval(t: Tape, xs: list[Jet]) -> list[Jet]:
    """Propagate jets through the tape; all inputs must share one order."""
    if len(xs) != t.num_inputs:
        raise ValueError(f"expected {t.num_inputs} input jets, got {len(xs)}")
    orders = {j.order for j in xs}
    if len(orders) > 1:
        raise ValueError(f"input jets must share one order, got {sorted(orders)}")
    order = orders.pop() if orders else 0
    jets = _Num(lambda v: jet_const(v, order), _JET_ARITH,
                lambda fn, x, nid: jetmod.jet_apply(fn, x), lambda x: x.coeffs[0], True)
    memo, _ = _run(t, list(xs), t.outputs, jets)
    return [memo[o] for o in t.outputs]


# ---------------------------------------------------------------------------
# operation counting
# ---------------------------------------------------------------------------

_FORWARD_COST = {"add": 2, "sub": 2, "mul": 4, "div": 4, "apply": 3}


def op_count(t: Tape, mode: str) -> int:
    """Arithmetic operations for the program value plus one derivative pass.

    Forward charging (value + tangent): add/sub 1+1, mul 1+3, div 1+3
    (tangent as (da - q*db)/b reusing the quotient), apply 1+2.  Reverse
    charging: 1 per value, 1 multiplication per edge into a mul/div/apply
    parent, and 1 addition per adjoint accumulation after the first touch
    (the first contribution is an assignment).  Branch arms are both
    counted: the static count is an upper bound on any execution.
    """
    if mode not in ("forward", "reverse"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "forward":
        return sum(_FORWARD_COST.get(n.op, 0) for n in t.nodes)
    total = 0
    touched: set[int] = set()
    for nid in range(len(t.nodes) - 1, -1, -1):
        node = t.nodes[nid]
        op = node.op
        if op in ("input", "const", "branch"):
            continue
        total += 1  # value
        if op in ("add", "sub"):
            edges = [(node.a, 0), (node.b, 0)]
        elif op == "mul":
            edges = [(node.a, 1), (node.b, 1)]
        elif op == "div":
            edges = [(node.a, 1), (node.b, 2)]
        else:  # apply: f'(x) then multiply
            edges = [(node.a, 2)]
        for child, mul_cost in edges:
            total += mul_cost
            if child in touched:
                total += 1  # accumulate
            else:
                touched.add(child)
    return total


# ---------------------------------------------------------------------------
# textual dump (golden-test format; stable across releases)
# ---------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    return repr(v)


def dump(t: Tape) -> str:
    lines = []
    for i, n in enumerate(t.nodes):
        if n.op == "input":
            lines.append(f"{i} input({n.a})")
        elif n.op == "const":
            lines.append(f"{i} const({_fmt_float(n.value)})")
        elif n.op == "apply":
            lines.append(f"{i} apply({n.fn}) {n.a}")
        elif n.op == "branch":
            lines.append(f"{i} branch(>={_fmt_float(n.threshold)}) {n.cond} {n.a} {n.b}")
        else:
            lines.append(f"{i} {n.op} {n.a} {n.b}")
    lines.append("outputs " + " ".join(str(o) for o in t.outputs))
    return "\n".join(lines) + "\n"


def parse_dump(text: str) -> Tape:
    """Inverse of ``dump`` (used by golden tests and tooling)."""
    nodes: list[Node] = []
    outputs: tuple[int, ...] = ()
    max_input = -1
    for line in text.strip().splitlines():
        parts = line.split()
        if parts[0] == "outputs":
            outputs = tuple(int(p) for p in parts[1:])
            continue
        head = parts[1]
        if head.startswith("input("):
            j = int(head[6:-1])
            max_input = max(max_input, j)
            nodes.append(Node("input", a=j))
        elif head.startswith("const("):
            nodes.append(Node("const", value=float(head[6:-1])))
        elif head.startswith("apply("):
            nodes.append(Node("apply", a=int(parts[2]), fn=parse_fn(head[6:-1])))
        elif head.startswith("branch(>="):
            thr = float(head[9:-1])
            nodes.append(Node("branch", cond=int(parts[2]), a=int(parts[3]),
                              b=int(parts[4]), threshold=thr))
        else:
            nodes.append(Node(head, a=int(parts[2]), b=int(parts[3])))
    return Tape(tuple(nodes), max_input + 1, outputs)


# ---------------------------------------------------------------------------
# taken-arm compilation to plain Python functions
# ---------------------------------------------------------------------------

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_MAX_NEST = 100     # parentheses an inlined expression may nest; CPython refuses over 200


def node_ref(t: Tape, i: int, tag: str = "") -> str:
    """How generated code reads node ``i``: the variable ``_v<tag><i>``, or
    for a constant the name ``_k<tag><i>`` bound from the table
    (``numbers``)."""
    return f"_k{tag}{i}" if t.nodes[i].op == "const" else f"_v{tag}{i}"


def node_source(t: Tape, i: int, r, tag: str = "") -> str:
    """Python expression computing the non-constant node ``i`` from its
    children (``x`` holds the inputs, ``_m`` is ``math``), each read as
    ``r(j)`` gives it: its ``node_ref``, or its own expression in
    parentheses (``guarded_source``).  A branch reads its threshold as
    ``_k<tag><i>``, a power's exponent stays a literal."""
    n = t.nodes[i]
    if n.op == "input":
        return f"x[{n.a}]"
    if n.op in _INFIX:
        return f"{r(n.a)} {_INFIX[n.op]} {r(n.b)}"
    if n.op == "branch":
        return f"{r(n.a)} if {r(n.cond)} >= _k{tag}{i} else {r(n.b)}"
    if n.fn.kind == "pow":
        e = f"_m.pow({r(n.a)}, {n.fn.exponent!r})"
        if not n.fn.exponent.is_integer():     # a negative base fails as in ``fn_value``
            e += f" if not {r(n.a)} < 0.0 else _m.sqrt({r(n.a)})"
        return e
    return f"abs({r(n.a)})" if n.fn.kind == "abs" else f"_m.{n.fn.kind}({r(n.a)})"


def numbers(t: Tape, place, tag: str = "") -> dict[str, int]:
    """The table of the code generated for the nodes of ``place``: the id
    of each constant and branch by the name ``_k<tag><i>`` its value or
    threshold (``number``) is bound to (``[names] = _k``), so the source
    holds the structure alone."""
    return {f"_k{tag}{i}": i for i in sorted(place) if t.nodes[i].op in ("const", "branch")}


def number(n: Node) -> float:
    """What generated code reads from its table for node ``n``: a
    constant's value or a branch's threshold."""
    return n.value if n.op == "const" else n.threshold


def compile_tape(t: Tape):
    """Build a fast evaluator ``f(x) -> list[float]`` of the outputs.

    It computes only taken branch arms, as ``tape_eval`` does, with the same
    numbers.  Where ``tape_eval`` names a failing node it raises the plain
    ZeroDivisionError, ValueError or OverflowError.  ``_mk(_k)`` binds the
    ``numbers`` once, as closure cells of ``f``, as ``sim._make`` does.  A
    node that one statement alone reads is written into that statement's
    expression (``guarded_source``); the outputs keep their names.
    """
    place, opened = arm_contexts(t, [(o, 0) for o in t.outputs])
    k = numbers(t, place)
    src = ["def _mk(_k):", f"    [{', '.join(k)}] = _k",
           "    def _f(x, _m=math):",
           *("        " + line for line in guarded_source(
               t, place, opened, set(), 0, readers(t, place))),
           "        return [" + ", ".join(node_ref(t, o) for o in t.outputs) + "]",
           "    return _f"]
    ns: dict = {"math": math, "inf": math.inf, "nan": math.nan}    # non-finite exponents
    exec("\n".join(src), ns)
    return ns["_mk"]([number(t.nodes[i]) for i in k.values()])


def arm_contexts(t: Tape, roots):
    """Where demand-driven evaluation of ``roots``, (node id, context)
    pairs, computes each node it reaches.  Contexts 0 and 1 are the
    outermost, 1 inside 0.  A branch b with an arm that can raise (it
    holds a division or an elementary function) opens, in each context c
    it runs in, the contexts ``opened[c, b]`` of its then-arm and that
    plus one of its else-arm.  A node gets the fewest contexts that cover
    its uses: both arms of a branch merge into the branch's context, and
    one inside another it has is dropped.  So a node that one arm alone
    uses runs only when that arm is taken, and one that arms of two
    branches use runs in each of them: computing it once around both could
    raise where neither arm is taken (the tangent of a switched division
    reuses the quotient that way).  Returns ``place`` (node id ->
    contexts) and ``opened``.
    """
    uses, place, risky, opened = defaultdict(set), {}, [], {}
    up = [None, 0]          # per context: the one around it, numbered before it
    for n in t.nodes:
        risky.append(n.op in ("div", "apply") or any(risky[c] for c in n.children()))
    for nid, ctx in roots:
        uses[nid].add(ctx)

    def covered(k, cs):     # a context around k is in cs
        k = up[k]
        while k is not None and k not in cs:
            k = up[k]
        return k is not None

    for nid in range(len(t.nodes) - 1, -1, -1):
        cs, n = uses.pop(nid, set()), t.nodes[nid]
        newest = [-k for k in cs] if len(cs) > 1 else []
        heapq.heapify(newest)
        while newest:           # merge arm pairs, innermost (highest number) first
            k = -heapq.heappop(newest)
            if k > 1 and {k, k ^ 1} <= cs:
                cs -= {k, k ^ 1}
                cs.add(up[k])
                heapq.heappush(newest, -up[k])
        if len(cs) > 1:
            cs = {k for k in cs if not covered(k, cs)}
        if cs:
            place[nid] = cs
        arms = n.op == "branch" and (risky[n.a] or risky[n.b])
        for c in cs:
            if not arms:
                for child in n.children():
                    uses[child].add(c)
                continue
            k = opened.setdefault((c, nid), len(up))
            if k == len(up):
                up += [c, c]
            uses[n.cond].add(c)
            uses[n.a].add(k)
            uses[n.b].add(k + 1)
    return place, opened


def readers(t: Tape, place) -> Counter:
    """How often code generated for ``place`` (``guarded_source``) reads
    each node: once per reading in the text ``node_source`` writes for each
    node, in each of its contexts (a fractional power reads its base three
    times), and once for each output, which other code reads."""
    reads = Counter(t.outputs)

    def count(j):
        reads[j] += len(cs)
        return ""

    for nid, cs in place.items():
        if t.nodes[nid].op != "const":
            node_source(t, nid, count)
    return reads


def guarded_source(t: Tape, place, opened, skip, ctx: int, reads, tag: str = "") -> list[str]:
    """Statements computing the nodes not in ``skip`` that ``place`` (from
    ``arm_contexts``) puts in context ``ctx`` or inside it: in id order,
    with each branch's arms just before it.  Arm context k is the flag
    ``_c<k>``, true when its arm is live and taken, that guards the
    statements in it (``if _c3: ...``), so the code stays flat however
    deep arms nest.  Numbers are read as ``node_source`` reads them.

    A node that ``reads`` (from ``readers``) counts one reading of, by a
    statement of its own context, is written into that statement in
    parentheses instead of its own (``_v5 = _k3 * (_v1 + _v2)``): the same
    IEEE operations in the same order, which CPython does not reassociate.
    Written into an arm of a flagless ternary it runs only when that arm is
    taken; such an arm holds no node that can raise (``arm_contexts``).  An
    expression nests at most ``_MAX_NEST`` parentheses."""
    by_ctx = defaultdict(list)
    for nid in sorted(set(place) - skip):
        for c in place[nid] if t.nodes[nid].op != "const" else ():
            by_ctx[c].append(nid)
    text, depth, own, inlined = {}, {}, {}, set()
    c = nest = deep = 0

    def r(j):               # how the statement in hand, in context c, reads node j
        nonlocal deep
        if reads[j] == 1 and own.get(j) == c and depth[j] + nest <= _MAX_NEST:
            inlined.add(j)
            deep = max(deep, depth[j] + nest)
            return f"({text[j]})"
        return node_ref(t, j, tag)

    lines, todo = [], [(ctx, iter(by_ctx[ctx]))]
    while todo:
        c, items = todo[-1]
        item = next(items, None)
        if item is None:
            todo.pop()
            continue
        guard, live = (f"if _c{c}: ", f"_c{c} and ") if c > 1 else ("", "")
        value = isinstance(item, tuple)     # a branch's value, after its arms (context a)
        nid, a = item if value else (item, opened.get((c, item), -2))
        n = t.nodes[nid]
        nest, deep = 2 if n.op == "apply" else 1, 0
        if not value and (a in by_ctx or a + 1 in by_ctx):      # a's flags, then its arms
            lines += [(None, f"_c{a} = {live}{r(n.cond)} >= _k{tag}{nid}"),
                      (None, f"_c{a + 1} = {live}not _c{a}")]
            todo += [(c, iter([(nid, a)])), (a + 1, iter(by_ctx.get(a + 1, ()))),
                     (a, iter(by_ctx.get(a, ())))]
            continue
        text[nid] = f"{r(n.a)} if _c{a} else {r(n.b)}" if value else node_source(t, nid, r, tag)
        own[nid], depth[nid] = c, deep
        lines.append((nid, f"{guard}{node_ref(t, nid, tag)} = {text[nid]}"))
    return [line for nid, line in lines if nid not in inlined]


# ---------------------------------------------------------------------------
# source transformation: append tangent (directional-derivative) nodes
# ---------------------------------------------------------------------------

def copy_into(b: TapeBuilder, t: Tape, input_nodes: list[int] | None = None) -> list[int]:
    """Copy ``t``'s nodes into builder ``b``; returns old-id -> new-id map.
    With ``input_nodes``, the nodes of ``b`` that stand for ``t``'s inputs,
    every other node is replayed after ``b``'s own as it is, unfolded.
    Without, ``b`` must be fresh and takes ``t``'s nodes, ids kept."""
    if input_nodes is None:
        if b._nodes or b.num_inputs < t.num_inputs:
            raise ValueError("copy_into without input_nodes needs a fresh builder "
                             "with the tape's inputs")
        b._nodes.extend(t.nodes)
        b._input_nodes.update((n.a, i) for i, n in enumerate(t.nodes) if n.op == "input")
        return list(range(len(t.nodes)))
    if len(input_nodes) != t.num_inputs:
        raise ValueError("need one replacement node per tape input")
    m: list[int] = []
    for n in t.nodes:
        m.append(input_nodes[n.a] if n.op == "input" else _replay(b, n, m))
    return m


def _replay(b: TapeBuilder, n: Node, m: list[int]) -> int:
    """Push node ``n``, not an input, into ``b`` as it is, unfolded, with
    its children renamed through ``m``; returns the new id."""
    return b._push(n._replace(**{f: m[getattr(n, f)] for f in ("a", "b", "cond")
                                 if getattr(n, f) >= 0}))


def append_tangent(b: TapeBuilder, t: Tape, node_map: list[int],
                   seed_nodes: list[int]) -> list[int]:
    """Emit tangent nodes for every node of ``t`` (chain rule, arm-wise
    on branches with the original conditions).  ``node_map`` are the value
    nodes from ``copy_into``; ``seed_nodes[j]`` is the tangent of input j.
    Returns old-id -> tangent-node-id.  A zero tangent is the constant
    zero, which the builder's rule carries through sums, products and
    branches; an ``apply`` or ``div`` of zero operand tangents gets it too.
    """
    zero = b.const(0.0)
    tan: list[int] = []
    for nid, n in enumerate(t.nodes):
        if n.op == "input":
            tan.append(seed_nodes[n.a])
        elif n.op == "const" or n.op in ("apply", "div") and all(
                b.is_zero(tan[c]) for c in n.children()):
            tan.append(zero)
        elif n.op == "add":
            tan.append(b.add(tan[n.a], tan[n.b]))
        elif n.op == "sub":
            tan.append(b.sub(tan[n.a], tan[n.b]))
        elif n.op == "mul":
            tan.append(b.add(b.mul(tan[n.a], node_map[n.b]),
                             b.mul(node_map[n.a], tan[n.b])))
        elif n.op == "div":
            num = b.sub(tan[n.a], b.mul(node_map[nid], tan[n.b]))
            tan.append(b.div(num, node_map[n.b]))
        elif n.op == "branch":
            tan.append(b.branch(node_map[n.cond], n.threshold, tan[n.a], tan[n.b]))
        else:
            x, y, dx, k = node_map[n.a], node_map[nid], tan[n.a], n.fn.kind
            if k in ("log", "atan", "sqrt"):            # dx / (1 / f'(x))
                tan.append(b.div(dx, x if k == "log" else b.mul(b.const(2.0), y) if k == "sqrt"
                                 else b.add(b.const(1.0), b.mul(x, x))))
                continue
            if k == "exp":
                d = y
            elif k == "sin":
                d = b.apply(COS, x)
            elif k == "cos":
                d = b.neg(b.apply(SIN, x))
            elif k == "tan":
                d = b.add(b.const(1.0), b.mul(y, y))
            elif k == "pow":
                d = b.mul(b.const(n.fn.exponent), b.apply(Pow(n.fn.exponent - 1), x))
            elif k == "abs":    # sign(x)*dx, >= tie at zero as in branches
                d = b.branch(x, 0.0, b.const(1.0), b.const(-1.0))
            else:
                raise AssertionError(k)
            tan.append(b.mul(d, dx))
    return tan


def jvp_tape(t: Tape) -> Tape:
    """Tape computing [f(x); J(x) v] from stacked inputs [x; v]."""
    b = TapeBuilder(2 * t.num_inputs)
    xs = [b.input(j) for j in range(t.num_inputs)]
    vs = [b.input(t.num_inputs + j) for j in range(t.num_inputs)]
    m = copy_into(b, t, xs)
    tg = append_tangent(b, t, m, vs)
    return b.build([m[o] for o in t.outputs] + [tg[o] for o in t.outputs])


# ---------------------------------------------------------------------------
# branch-boundary audit and Taylor patching of removable singularities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryFinding:
    branch_id: int
    cond_value: float
    threshold: float
    then_gradient: tuple[float, ...]
    else_gradient: tuple[float, ...]
    max_mismatch: float


def audit_branches(t: Tape, x, cond_tol: float = 1e-9,
                   deriv_tol: float = 1e-9) -> list[BoundaryFinding]:
    """Compare one-sided arm derivatives at branch thresholds.

    For every branch whose condition sits within ``cond_tol`` of its
    threshold at the given input, differentiate each arm alone and report
    a finding when the gradients disagree.  This surfaces conditionals
    whose pieces do not join smoothly; no rewriting is attempted.
    """
    memo, _ = _run(t, [float(v) for v in x], t.outputs, _FLOATS)
    findings = []
    for nid, n in enumerate(t.nodes):
        if n.op != "branch" or nid not in memo:
            continue
        cval = memo[n.cond]
        if abs(cval - n.threshold) > cond_tol * max(1.0, abs(n.threshold)):
            continue
        grads = []
        ok = True
        for arm in (n.a, n.b):
            sub = Tape(t.nodes, t.num_inputs, (arm,))
            try:
                grads.append(forward_gradient(sub, x)[0])
            except (EvalDomainError, NonDifferentiablePoint):
                grads.append(np.full(t.num_inputs, np.nan))
                ok = False
        mism = float(np.max(np.abs(grads[0] - grads[1]))) if ok else math.inf
        if not ok or mism > deriv_tol:
            findings.append(BoundaryFinding(nid, cval, n.threshold,
                                            tuple(grads[0]), tuple(grads[1]), mism))
    return findings


class _Ser:
    """Taylor coefficients of fixed length of which the first ``valid`` are
    trustworthy; division cancels a common zero valuation of numerator and
    denominator, which is exactly the removable-singularity (0/0) case, and
    a true pole raises."""

    __slots__ = ("c", "valid")

    def __init__(self, c, valid):
        self.c = c
        self.valid = valid

    @staticmethod
    def of(coeffs, length: int, valid=None) -> "_Ser":
        c = list(coeffs)[:length]
        c += [0.0] * (length - len(c))
        return _Ser(c, length if valid is None else valid)

    def __add__(self, o):
        return _Ser([a + b for a, b in zip(self.c, o.c)], min(self.valid, o.valid))

    def __sub__(self, o):
        return _Ser([a - b for a, b in zip(self.c, o.c)], min(self.valid, o.valid))

    def __mul__(self, o):
        v = min(self.valid, o.valid)
        out = [0.0] * len(self.c)
        for k in range(v):
            out[k] = sum(self.c[j] * o.c[k - j] for j in range(k + 1))
        return _Ser(out, v)

    def __truediv__(self, o):
        v = min(self.valid, o.valid)
        val = 0
        while val < v and o.c[val] == 0.0:
            val += 1
        if val == v:
            raise DomainError("division by identically-zero series")
        if any(self.c[k] != 0.0 for k in range(val)):
            raise DomainError("true pole: numerator valuation too low")
        xv = self.c[val:v]
        yv = o.c[val:v]
        q = [0.0] * (v - val)
        for k in range(v - val):
            s = xv[k] - sum(q[j] * yv[k - j] for j in range(k))
            q[k] = s / yv[0]
        return _Ser.of(q, len(self.c), v - val)

    @staticmethod
    def apply(fn, x, nid):
        y = jetmod.jet_apply(fn, Jet(tuple(x.c[:min(x.valid, jetmod.MAX_ORDER + 1)])))
        return _Ser.of(y.coeffs, len(x.c), min(x.valid, y.order + 1))


def taylor_patch(t: Tape, branch_id: int, center: float = 0.0,
                 half_width: float = 0.1, order: int = 10,
                 arm: str = "then") -> Tape:
    """Rewrite a removable-singularity branch into a polynomial arm.

    The designated arm is Taylor-expanded around ``center`` (0/0
    cancellations handled exactly at the series level) and the branch is
    replaced by ``|x - center| >= half_width ? original-formula :
    polynomial``.  Only single-input tapes are supported; the polynomial
    is emitted in Horner form in (x - center).
    """
    if t.num_inputs != 1:
        raise ValueError("taylor_patch supports single-input tapes only")
    node = t.nodes[branch_id]
    if node.op != "branch":
        raise ValueError(f"node {branch_id} is not a branch")
    if arm not in ("then", "else"):
        raise ValueError("arm must be 'then' or 'else'")
    formula_arm = node.a if arm == "then" else node.b
    R = order + 17  # 16 spare orders for the valuations 0/0 cancels
    series = _Num(lambda v: _Ser.of([v], R), _ARITH, _Ser.apply, lambda s: s.c[0], False)
    memo, _ = _run(t, [_Ser.of([center, 1.0], R)], (formula_arm,), series)
    coeffs = memo[formula_arm]
    if coeffs.valid <= order:
        raise EvalDomainError(formula_arm, "series cancellation consumed too many orders")

    b = TapeBuilder(1)
    m: list[int] = []
    for nid, n in enumerate(t.nodes):
        if nid == branch_id:
            e = b.sub(b.input(0), b.const(center))
            c = b.apply(ABS, e)
            p = b.const(coeffs.c[order])
            for k in range(order - 1, -1, -1):
                p = b.add(b.const(coeffs.c[k]), b.mul(e, p))
            m.append(b.branch(c, half_width, m[formula_arm], p))
        else:
            m.append(b.input(n.a) if n.op == "input" else _replay(b, n, m))
    return b.build([m[o] for o in t.outputs])
