"""Hybrid fixed-step simulator with sensitivity co-integration.

Models are flattened state-space systems whose right-hand side, outputs
and delayed quantities live on one tape with input layout::

    [x_0..x_{n-1}, t, theta_0..theta_{s-1}, dval_0.., dslope_0..]

``dval_j``/``dslope_j`` are the value and time-slope of delay slot j's
carried expression at ``t - h_j``, read from one delay record per call.
It stores the node times once and per node the slot values with their
time-slopes (the time tangent of the slot outputs), both computed by the
generated step; lookups are cubic Hermite between nodes, found by one
forward cursor per distinct delay expression, or the prehistory before
the start, all generated per model with the delays evaluated once per
call.

Event handling is sign-change detection on the guards between accepted
steps, bisection localization to the configured tolerance, a two-phase
state update, and a deadtime that suppresses re-triggering right after a
discontinuity.  Impact events apply the energy-balance velocity update of
:func:`impact_update` to the primal states only.  Sensitivity states pass
through an impact unchanged, with no saltation jump, so sensitivities
after an impact are wrong: ``integrate`` warns
(:class:`ImpactSensitivityWarning`) at the first impact of a sensitivity
run.  Sensitivity propagation across any other event kind is refused
(SensitivityAcrossEvent).

Integrators are deliberately fixed-step (midpoint and classic RK4) so
finite-difference oracles stay deterministic.  Each model runs, per
method, generated code: the march over the step grid, with the RK stages,
the guard checks and the delay lookups written out, and the RK step and
one function per event guard for event location.  Tape constants, branch
thresholds and delay constants are read from a per-model table, not
written into the source, so the code is generated and compiled once per
model structure, and a model of a cached structure only fills its table.
Parameter-only nodes are computed once per ``integrate`` call, stages
compute only the rhs, and a branch arm that can raise runs only when it is
taken.  So an exception there is a real domain error; ``tape_eval`` re-runs
the point and names the node (``EvalDomainError``).  Python code runs only
at the start, at each event (location, action, record) and to assemble the
trajectory, one conversion per array of the flat node records (the state
and the output rows laid end to end), shaped by the model's widths.  Models
are immutable and each ``integrate`` call owns its private workspace:
parameter sweeps may run concurrently.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .agdm import d_output_name
from .errors import (
    DelayUnderflow,
    EventStorm,
    ImpactSensitivityWarning,
    NonTransversal,
    SensitivityAcrossEvent,
    SingularMetric,
    UnknownParameter,
)
from .ops import fn_value
from .paramexpr import ParamExpr, param_value
from .tape import (
    Tape,
    TapeBuilder,
    append_tangent,
    arm_contexts,
    copy_into,
    guarded_source,
    node_ref,
    number,
    numbers,
    readers,
    reverse_gradient,
    tape_eval,
)


def smooth_heaviside(a: float, x: float) -> float:
    """Smooth step 1/2 + atan(a*x)/pi; limits 0 and 1 at -/+ infinity.

    The slope ``a`` trades approximation sharpness against stiffness of
    the resulting dynamics; there is no universally good value, so the
    caller chooses it.
    """
    if a <= 0.0:
        raise ValueError("slope a must be positive")
    return 0.5 + math.atan(a * x) / math.pi


# ---------------------------------------------------------------------------
# model containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelaySlot:
    delay: ParamExpr                 # h(theta), must stay >= step
    prehistory: ParamExpr | None     # expression of t and theta; None = undefined


@dataclass(frozen=True)
class ImpactSurface:
    """Data of the energy-balance impact law.

    The state convention is [q (dim), v (dim)]: positions first, then
    velocities.  ``guard`` is a tape over [q..., t]; the potentials give
    the energy on the f>=0 side and the f<0 side.
    """

    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    potential_pos: Callable[[np.ndarray], float]
    potential_neg: Callable[[np.ndarray], float]
    guard: Tape

    def __post_init__(self):
        if self.guard.num_inputs != self.dim + 1:
            raise ValueError("impact guard must take [q..., t]")


@dataclass(frozen=True)
class EventSpec:
    guard: Tape                       # inputs [x (n), t] -> scalar
    action: object                    # ImpactSurface or callable(x, t) -> x
    deadtime: float | None = None     # None: 2 steps

    def __post_init__(self):
        if self.deadtime is not None and not self.deadtime > 0.0:
            raise ValueError("deadtime must be positive")


@dataclass(frozen=True)
class OdeModel:
    n: int
    tape: Tape
    param_names: tuple[str, ...]
    params: dict[str, float]
    state_names: tuple[str, ...]
    output_names: tuple[str, ...]
    init_exprs: tuple[ParamExpr, ...] | None = None
    init_fn: Callable | None = None              # theta env -> ndarray(n)
    init_time: ParamExpr | None = None
    events: tuple[EventSpec, ...] = ()
    delays: tuple[DelaySlot, ...] = ()
    discrete: bool = False
    sample_time: float | None = None
    has_sensitivity: bool = False
    # exact anti-windup pinning of saturated integrator states, applied
    # after each accepted step (the gated rhs handles the interior)
    state_clamps: tuple[tuple[int, float, float], ...] = ()
    # method -> generated ``_make`` (see ``_bind_stepper``)
    _steppers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)

    def theta_env(self, overrides=None) -> dict[str, float]:
        env = dict(self.params)
        if overrides:
            unknown = sorted(set(overrides) - set(self.param_names))
            if unknown:
                raise UnknownParameter(unknown[0], self.param_names)
            env.update(overrides)
        return env

    def initial_state(self, env) -> np.ndarray:
        if self.init_exprs is not None:
            return np.array([g.evaluate(env) for g in self.init_exprs])
        return np.asarray(self.init_fn(env), dtype=float)

    def start_time(self, env, default: float) -> float:
        if self.init_time is None:
            return default
        return self.init_time.evaluate(env)


def make_ode_model(n, tape, param_names, params, state_names, output_names,
                   **kw) -> OdeModel:
    return OdeModel(n, tape, tuple(param_names), dict(params),
                    tuple(state_names), tuple(output_names), **kw)


@dataclass(frozen=True)
class SimConfig:
    step: float
    tf: float
    t0: float = 0.0
    method: str = "rk4"               # rk4 | midpoint
    event_tol: float | None = None    # None: step * 1e-6
    max_events_per_step: int = 8

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)):
            raise ValueError("t0 and tf must be finite")
        if self.method not in ("rk4", "midpoint"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.event_tol is not None and not (0.0 < self.event_tol < self.step):
            raise ValueError("event_tol must lie in (0, step)")

    @property
    def resolved_event_tol(self) -> float:
        return self.event_tol if self.event_tol is not None else self.step * 1e-6


@dataclass(frozen=True)
class EventRecord:
    time: float
    guard_index: int
    pre_state: np.ndarray
    post_state: np.ndarray
    pre_outputs: np.ndarray | None = None
    post_outputs: np.ndarray | None = None


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray                # (len(times), n)
    outputs: np.ndarray               # (len(times), q)
    events: list[EventRecord]
    state_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def output(self, name: str) -> np.ndarray:
        return self.outputs[:, self.output_names.index(name)]

    def to_csv(self) -> str:
        """One row per accepted step plus one per event (pre and post);
        full double precision."""
        rows = np.column_stack([self.times, self.states, self.outputs]).tolist()
        if self.events:         # interleaved by time, pre before post
            nan = [math.nan] * len(self.output_names)
            keyed = [(r[0], 0, r) for r in rows]
            for ev in self.events:
                for side, x, y in ((1, ev.pre_state, ev.pre_outputs),
                                   (2, ev.post_state, ev.post_outputs)):
                    keyed.append((ev.time, side, [ev.time, *x, *(nan if y is None else y)]))
            keyed.sort(key=lambda r: r[:2])
            rows = [r for _, _, r in keyed]
        return csv_text(["t", *self.state_names, *self.output_names], rows)


def csv_text(names, rows) -> str:
    """A CSV table: the header ``names``, then one line per row of floats,
    each in full double precision (``%.17g``)."""
    line = ",".join(["%.17g"] * len(names))
    return "\n".join([",".join(names), *(line % tuple(r) for r in rows)]) + "\n"


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

_ARITH_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def _with_slot_slopes(m: OdeModel) -> Tape:
    """``m.tape`` followed by the time-slopes of its slot outputs as more
    outputs: the tangent along x' = rhs, t' = 1, fixed theta and dval' =
    dslope, with the curvature dslope' dropped.  Every node of ``m.tape``
    keeps its id, so the interpreter names a failing node the same way."""
    n, s, J = m.n, len(m.param_names), len(m.delays)
    b = TapeBuilder(m.tape.num_inputs)
    ids = copy_into(b, m.tape)
    zero = b.const(0.0)
    seeds = [*m.tape.outputs[:n], b.const(1.0), *[zero] * s,
             *(b.input(n + 1 + s + J + j) for j in range(J)), *[zero] * J]
    tg = append_tangent(b, m.tape, ids, seeds)
    return b.build([*m.tape.outputs, *(tg[o] for o in m.tape.outputs[-J:])])


_HERMITE = (    # the cubic Hermite basis on [_T[i], _T[i + 1]] at tau, then its time derivative
    ("h00 = (1 + 2 * w) * (1 - w) ** 2", "h10 = w * (1 - w) ** 2 * dt",
     "h01 = w * w * (3 - 2 * w)", "h11 = w * w * (w - 1) * dt"),
    ("dw = 1.0 / dt", "dh00 = 6 * w * (w - 1) * dw", "dh10 = (3 * w * w - 4 * w + 1)",
     "dh01 = -6 * w * (w - 1) * dw", "dh11 = (3 * w * w - 2 * w)"))


def _record_exprs(m: OdeModel):
    """The expressions the delay record reads: each distinct delay
    (``ParamExpr`` equality groups the slots), and per slot its prehistory
    and the prehistory's t-derivative, or None."""
    return (list(dict.fromkeys(slot.delay for slot in m.delays)),
            [None if slot.prehistory is None else (slot.prehistory, slot.prehistory.diff("t"))
             for slot in m.delays])


def _record_source(m: OdeModel, dv: list[str], consts: list):
    """The delay record of ``_make``, ``look(t, anchor, want)``, the
    statements of one lookup in it, and the names of the record's cells that
    a lookup sets.  The record: the record's constants
    (``_k[len(consts):]``) bound to names, each distinct delay expression
    evaluated once and checked against the step, the node times ``_T`` and
    per node the slot values, then their time-slopes (``_R``), and
    ``_look(t, anchor)``, which is ``look``'s statements for every slot
    input ``dv``.  ``look`` sets the slot inputs whose indices in ``dv`` are
    in ``want`` (the value of slot j at j, its time-slope at J + j) to the
    value, or time-slope, of the slot's carried signal at t minus its delay,
    for the step started at ``anchor`` (source expressions).  Per delay it
    holds one block: an interval cursor that walks forward with the march
    (bisection when an event bisection reads behind it), the Hermite basis,
    its derivative only where a slope is wanted, and the wanted slots
    unrolled, or the prehistory and its t-derivative, both expressions of
    tau and theta, where a slot with no prehistory raises
    ``DelayUnderflow``.  A delay none of whose slots is wanted is skipped:
    the first lookup, of ``integrate``'s start node, sets every slot and
    reaches every prehistory, so it raises there.

    The carried signal may jump at the start time (prehistory on one
    side, dynamics on the other); a step that starts left of that boundary
    reads the left limit on it and one starting on it the right, so steps
    on either side of an aligned breakpoint both see a consistent
    one-sided right-hand side."""
    J, base = len(m.delays), len(consts)
    delays, pre = _record_exprs(m)
    names = [p for e in delays for p in sorted(e.params())]
    names += [p for es in filter(None, pre) for e in es for p in sorted(e.params() - {"t"})]
    q = {p: f"_q{k}" for k, p in enumerate(dict.fromkeys(names))}
    at_tau = {**q, "t": "tau"}
    hsrc = [e.to_source(q, consts) for e in delays]         # in ``_record_exprs`` order
    psrc = [es and [e.to_source(at_tau, consts) for e in es] for es in pre]
    groups = [[j for j, slot in enumerate(m.delays) if slot.delay == e] for e in delays]

    def look(t, anchor, want):
        src = []
        for g, js in enumerate(groups):
            values, slopes = ([j for j in js if k + j in want] for k in (0, J))
            if not (values or slopes):
                continue
            before = []
            for j in js:
                if pre[j] is None:
                    before.append('raise DelayUnderflow(f"lookup at t={tau} precedes history '
                                  'and no prehistory is defined")')
                    break
                before += [f"{dv[k + j]} = {psrc[j][k > 0]}" for k in (0, J) if k + j in want]
            wanted = [k + j for j in js for k in (0, J) if k + j in want]
            src += [f"tau = {t} - _h{g}",
                    f"if tau < _left or ({anchor} - _h{g} < _left and tau <= _right) or not _T:",
                    *("    " + ln for ln in before),
                    "else:", "    if _T[0] > tau:", "        tau = _T[0]",
                    "    if tau >= _T[-1]:       # clamp to the newest node (roundoff only)",
                    "        r0 = _R[-1]",
                    f"        {', '.join(dv[i] for i in wanted)} = {', '.join(f'r0[{i}]' for i in wanted)}",
                    "    else:", f"        i = _i{g}", "        if _T[i] > tau:",
                    "            i = _bisect.bisect_right(_T, tau) - 1",
                    "        while _T[i + 1] <= tau:", "            i += 1", f"        _i{g} = i",
                    "        t0 = _T[i]", "        dt = _T[i + 1] - t0", "        w = (tau - t0) / dt",
                    *("        " + ln for ln in _HERMITE[0] if values),
                    *("        " + ln for ln in _HERMITE[1] if slopes),
                    "        r0, r1 = _R[i], _R[i + 1]"]
            for j in js:
                src += [f"        {dv[k + j]} = {b}00 * r0[{j}] + {b}10 * r0[{J + j}]"
                        f" + {b}01 * r1[{j}] + {b}11 * r1[{J + j}]"
                        for k, b in ((0, "h"), (J, "dh")) if k + j in want]
        return src

    hs = ", ".join(f"_h{g}" for g in range(len(delays)))
    cursors = [f"_i{g}" for g in range(len(delays))]
    src = [*([f"    [{', '.join(f'_kd{i}' for i in range(base, len(consts)))}] = _k[{base}:]"]
             if len(consts) > base else []),
           *(f"    {v} = _param(_env, {p!r})" for p, v in q.items()),
           *(f"    _h{g} = {h}" for g, h in enumerate(hsrc)),
           f"    for _h in ({hs},):", "        if not _h >= _step:",
           '            raise ValueError(f"delay {_h} smaller than the step {_step}")',
           f"    _hmax = max([{hs}])", "    _tol = 1e-9 * max(1.0, abs(_t0))",
           "    _left, _right = _t0 - _tol, _t0 + _tol",
           "    _T, _R = [], []", "    _kt = _ka = None",
           f"    {' = '.join(cursors)} = 0",
           f"    {' = '.join(dv)} = 0.0",
           "    def _look(t, anchor):",
           f"        nonlocal {', '.join(cursors + dv)}",
           *("        " + ln for ln in look("t", "anchor", range(2 * J)))]
    return src, look, cursors + dv


# per RK stage after the first (whose rhs is ``f``, read as a0, a1, ...): the
# name of its rhs, the stage whose rhs it steps along and the step, then y
_RK_STAGES = {"midpoint": (("b", "a", "hh"),),
              "rk4": (("b", "a", "hh"), ("c", "b", "hh"), ("d", "c", "h"))}
_RK_Y = {"midpoint": "x{0} + h * b{0}",
         "rk4": "x{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})"}


def _rk_source(m: OdeModel, method: str, stage) -> list[str]:
    """Statements of one RK step of ``method`` from state ``x`` at ``t``
    over ``h``, whose first stage is the rhs ``f`` at (x, t): they set
    ``y``, clamped.  ``stage(k, xs, ts)`` gives the statements that set
    ``k0, k1, ...`` to the rhs at the states ``xs`` and time ``ts`` (source
    expressions), for the step anchored at ``t``."""
    def row(fmt):               # one entry per state
        return ", ".join(fmt.format(i) for i in range(m.n))

    src = [f"[{row('x{}')}] = x", f"[{row('a{}')}] = f", "hh = 0.5 * h"]
    for k, k_in, hs in _RK_STAGES[method]:
        src += stage(k, [f"x{i} + {hs} * {k_in}{i}" for i in range(m.n)], f"t + {hs}")
    src += [*(["h6 = h / 6.0"] if method == "rk4" else []), f"y = [{row(_RK_Y[method])}]"]
    if m.state_clamps:
        src += ["for i, lo, hi in _clamps:", "    y[i] = min(hi, max(lo, y[i]))"]
    return src


def _generate_stepper(m: OdeModel, method: str, tape: Tape):
    """The source of ``_make(c, x, t, env, theta...) -> (ev, step, guards,
    march)`` for a call with config ``c`` starting at (x, t) under
    parameters ``env`` (``theta`` their values in ``m.param_names`` order),
    and its picks: the (tape, node id) whose ``number`` each entry of the
    table ``_k`` holds, tape 0 being ``tape`` (``m.tape``, with the slot
    slopes for a model with delay slots) and tape k the guard of event
    k - 1; the delay record's constants follow them.  ``_make`` binds the
    model's and the guards' ``numbers``, and the delay record's constants,
    from ``_k`` to names, builds the delay record (``_record_source``), for
    a model with delay slots, and computes the parameter-only nodes that
    cannot raise or that every call needs; the interpreter names one that
    fails.  All code is ``guarded_source``'s: a node that one statement
    alone reads is written into that statement's expression.

    ``ev(x..., t, anchor, full)`` computes the rhs nodes, reading the
    delay record (``_look``) for the step that starts at ``anchor``, and
    reuses the previous lookup when it was made at the same t and its
    anchor cannot change the result either (an anchor the longest delay or
    more past the start time reaches the prehistory of no slot, so the
    lookup at an accepted node is the last RK stage's).  With ``full``
    set, at a node of the march, it also returns the outputs and records
    the node: the slot values and their time-slopes
    (``_with_slot_slopes``).  A node in an arm that can raise runs only
    when that arm is taken (``arm_contexts``).
    ``step(x, t, h, f)`` is one RK step (``_rk_source``) that calls ``ev``
    at its stages, anchored at ``t``; event location bisects with it.
    ``guards`` holds one ``g(x..., t) -> float`` per event, its guard
    tape's output computed the same taken-arm way.

    ``march(x, t, f, g, until, times, states, outputs)`` steps on the grid
    anchored at t, with ``f`` the rhs and ``g`` the guard values at (x, t),
    recording each accepted node flat (its time appended to ``times``, its
    states and outputs extending the other two), until tf or the first
    step across which a guard changes sign.  Each step is ``step``'s RK
    formula with the stages written out: the stage inputs that the rhs
    reads, the delay lookup and ``ev``'s rhs statements.  The lookup is
    ``_record_source``'s, written in place under ``ev``'s reuse test, and
    it sets only the slot inputs the rhs reads; its anchor is worked out
    once per step, and a stage at the previous stage's time (RK4's third)
    keeps that stage's lookup.  The accepted node is ``ev(*y, tn, tn,
    True)`` written out the same way: the rhs, which is the next step's
    first stage, the outputs and the delay record's row, with an input
    that no statement reads read in place; its lookup sets the slot inputs
    any of them reads or, when it keeps the last stage's, those the stage
    did not set.  So ``march`` calls ``ev`` and ``_look`` nowhere
    (``integrate``'s first node, its restarts after an event, ``step`` and
    discrete models still do), but where a stage or the node fails: there
    ``_look`` re-runs the lookup for every slot, and the interpreter the
    tape at those inputs.  The guard checks are written out too; a guard
    is not checked on a step that ends inside its deadtime window, which
    closes at ``until[i]``.  It returns None at tf, else ``(i, k, x, t, h,
    f, g_i, y)``: guard i changed sign on the k-th step, from (x, t) over h
    to y, with the last lookup forgotten, as it set only some slots."""
    n, s, q = m.n, len(m.param_names), m.n_outputs
    nodes, outs = tape.nodes, tape.outputs
    place, opened = arm_contexts(tape, [(o, 0 if k < n else 1) for k, o in enumerate(outs)])
    arg = {nd.a: nid for nid, nd in enumerate(nodes) if nd.op == "input"}
    inputs = set(arg.values())
    bound = {arg[j] for j in range(n + 1, n + 1 + s) if j in arg}       # parameters
    hoist = []      # parameter-only nodes that cannot raise or that every call needs
    # (context 0: the rhs, whose failure ``_make`` names through ``m.tape``)
    for nid in sorted(set(place) - inputs):
        nd = nodes[nid]
        if all(c in bound for c in nd.children()) and (
                nd.op not in ("div", "apply") or place[nid] == {0}):
            hoist.append(nid)
            bound.add(nid)
    bound |= inputs
    read = set(outs[:n])        # the nodes the rhs statements read
    for nid in range(len(nodes) - 1, -1, -1):
        if nid in read:
            read.update(nodes[nid].children())
    # stage inputs the rhs reads, and the time, which the delay lookup reads
    stored = [j in arg and arg[j] in read or j == n and bool(m.delays) for j in range(n + 1)]
    reads = readers(tape, place)
    # at the accepted node, the inputs that a statement reads are stored;
    # the others, which only an output list reads, are read in place
    at_node = [*(f"y[{i}]" for i in range(n)), "tn"]
    named = [j in arg and reads[arg[j]] > outs.count(arg[j]) for j in range(n + 1)]
    in_place = {arg[j]: at_node[j] for j in range(n + 1) if j in arg and not named[j]}
    # the slot inputs (indices into ``dv``) that the rhs reads, and that any statement reads
    slots = [arg.get(j) for j in range(n + 1 + s, tape.num_inputs)]
    rhs_slots = {i for i, nid in enumerate(slots) if nid in read}
    node_slots = {i for i, nid in enumerate(slots) if nid in place}
    arg = [f"_v{arg[j]}" if j in arg else f"_u{j}" for j in range(tape.num_inputs)]
    theta, dv, tt = arg[n + 1:n + 1 + s], arg[n + 1 + s:], arg[n]

    def refs(ids):
        return ", ".join(node_ref(tape, o) for o in ids)

    def anchored(anchor):       # ``a``: the anchor, or None where no lookup depends on it
        return [f"a = {anchor} if {anchor} - _hmax < _left else None"] if m.delays else []

    def unless_kept(ts, look, kept=()):
        # ``look``, a lookup at ts, unless the last one was at ts for ``a``; then ``kept``
        return [f"if {ts} != _kt or a != _ka:", *("    " + ln for ln in look), f"    _kt, _ka = {ts}, a",
                *(["else:", *("    " + ln for ln in kept)] if kept else [])] if look else []

    rhs = guarded_source(tape, place, opened, bound, 0, reads)
    rest = guarded_source(tape, place, opened, bound, 1, reads)       # the outputs and slot rows

    def call_stage(k, xs, ts):          # ``step``: the rhs by a call of ``ev``
        return [f"[{', '.join(f'{k}{i}' for i in range(n))}] = "
                f"ev({''.join(x + ', ' for x in xs)}{ts}, t, False)"]

    def at_inputs(ins, keep, look, body, looked):   # ``body`` after ``look``, at the inputs ``ins``
        vals = [*(a if k else e for a, e, k in zip(arg, ins, keep)), *arg[n + 1:]]    # ``_fail``'s
        # a failure re-runs the whole lookup (at ``looked``), which sets every slot input
        return [*(f"{a} = {e}" for a, e, k in zip(arg, ins, keep) if k), *look,
                *(["try:", *("    " + ln for ln in body), "except _ARITH_ERRORS:",
                   *([f"    _look({looked})"] if m.delays else []),
                   f"    _fail(0, [{', '.join(vals)}])", "    raise"] if body else [])]

    stage_times = []        # of the stages written so far

    def inline_stage(k, xs, ts):        # ``march``: ``ev``'s statements, at the stage inputs
        # the lookup of the slot inputs the rhs reads, unless the previous stage's was at ts
        look = look_at(tt, "t", rhs_slots) if m.delays and stage_times[-1:] != [ts] else []
        stage_times.append(ts)
        return [*at_inputs([*xs, ts], stored, unless_kept(tt, look), rhs, f"{tt}, t"),
                *(f"{k}{i} = {node_ref(tape, o)}" for i, o in enumerate(outs[:n]))]

    def at(ids):                        # the nodes' values at the accepted node
        return ", ".join(in_place.get(o) or node_ref(tape, o) for o in ids)

    # the model's numbers, bound once per ``_make`` call: name -> (tape, node id)
    nums = {name: (0, i) for name, i in numbers(tape, place).items()}
    src, checks, late = [], [], []
    for k, e in enumerate(m.events, 1):         # guard k - 1, called g(x..., t)
        g, tag = e.guard, f"{k}_"
        g_place, g_opened = arm_contexts(g, [(g.outputs[0], 0)])
        nums.update((name, (k, i)) for name, i in numbers(g, g_place, tag).items())
        out, g_reads = node_ref(g, g.outputs[0], tag), readers(g, g_place)
        body = guarded_source(g, g_place, g_opened, set(), 0, g_reads, tag)
        src += [f"    def _g{k}(*x):", "        try:", *(" " * 12 + ln for ln in body),
                f"            return {out}",
                "        except _ARITH_ERRORS:", f"            _fail({k}, list(x))", "            raise"]
        ins = {nid: "tn" if nd.a == n else f"y[{nd.a}]"    # inline in march, at the step's end
               for nid, nd in enumerate(g.nodes) if nd.op == "input" and nid in g_place}
        checks += [f"if not tn <= u{k}:", "    try:",
                   *(f"        {node_ref(g, nid, tag)} = {v}" for nid, v in ins.items()),
                   *(" " * 8 + ln
                     for ln in guarded_source(g, g_place, g_opened, set(ins), 0, g_reads, tag)),
                   "    except _ARITH_ERRORS:",
                   f"        _fail({k}, [*y, tn])", "        raise",
                   f"    if (p{k} >= 0.0) != ({out} >= 0.0):",
                   *(["        _kt = None      # ``ev`` must not reuse a partial lookup"]
                     if m.delays else []),
                   f"        return {k - 1}, k, x, t, h, f, p{k}, y",
                   f"    p{k} = {out}"]
        late += [f"if tn <= u{k}:", f"    p{k} = _g{k}(*y, tn)"]
    record, look_at, cells = _record_source(m, dv, list(nums)) if m.delays else ([], None, [])
    # ``march``: ``ev(*y, tn, tn, True)``'s statements, at the accepted node, whose lookup
    # sets the slot inputs any statement reads, or, kept from the last stage, those it did not
    look = unless_kept("tn", look_at("tn", "tn", node_slots),
                       look_at("tn", "tn", node_slots - rhs_slots)) if m.delays else []
    node = [*anchored("tn"), *at_inputs(at_node, named, look, rhs + rest, "tn, tn"),
            *(["_T.append(tn)", f"_R.append([{at(outs[n + q:])}])", "_kt = None"] if m.delays else []),
            f"f = [{at(outs[:n])}]", f"out = [{at(outs[n:n + q])}]"]
    ps = ", ".join(f"p{k}" for k in range(1, len(m.events) + 1))
    us = ps.replace("p", "u")
    src = [f"def _make({', '.join(['_c', '_x', '_t0', '_env'] + theta)}):",
           f"    [{', '.join(nums)}] = _k[:{len(nums)}]", *src,
           "    _step, _tf = _c.step, _c.tf", "    _end = _tf - 1e-12 * max(1.0, abs(_tf))",
           *record,
           f"    def ev({', '.join(arg[:n + 1])}, anchor, full):",
           *(["        nonlocal _kt, _ka"] if m.delays else []),
           *("        " + ln for ln in anchored("anchor")
             + (unless_kept(tt, [f"_look({tt}, anchor)"]) if m.delays else [])),
           "        try:", *(" " * 12 + ln for ln in rhs),
           "            if not full:",
           f"                return [{refs(outs[:n])}]",
           *(" " * 12 + ln for ln in rest),
           *([f"            _T.append({tt})", f"            _R.append([{refs(outs[n + q:])}])",
              "            _kt = None      # a lookup clamped to the old newest node may now interpolate"]
             if m.delays else []),
           f"            return [{refs(outs[:n])}], [{refs(outs[n:n + q])}]",
           "        except _ARITH_ERRORS:",
           f"            _fail(0, [{', '.join(arg)}])",
           "            raise",
           "    def step(x, t, h, f):",
           *("        " + ln for ln in _rk_source(m, method, call_stage)),
           "        return y",
           "    def march(x, t, f, g, until, times, states, outputs):",
           *([f"        nonlocal {', '.join(['_kt', '_ka', *cells])}"] if m.delays else []),
           *([f"        [{ps}] = g", f"        [{us}] = until"] if m.events else []),
           "        anchor, k = t, 1",
           "        while True:",
           "            tn = min(anchor + k * _step, _tf)",
           "            h = tn - t",
           *(" " * 12 + ln for ln in anchored("t")),
           *(" " * 12 + ln for ln in _rk_source(m, method, inline_stage)),
           *(" " * 12 + ln for ln in checks),
           *(" " * 12 + ln for ln in node),
           *(" " * 12 + ln for ln in late),
           "            times.append(tn)", "            states += y",
           "            outputs += out",
           "            if not tn < _end:", "                return None",
           "            x, t = y, tn", "            k += 1"]
    lift = guarded_source(tape, dict.fromkeys(hoist, {0}), {}, set(), 0, reads)
    if lift:
        src += ["    try:", *("        " + ln for ln in lift), "    except _ARITH_ERRORS:",
                *(["        _look(_t0, _t0)"] if m.delays else []),
                f"        _fail({len(m.events) + 1}, [*_x, _t0, {', '.join(theta + dv)}])",
                "        raise"]
    guards = "".join(f"_g{k}, " for k in range(1, len(m.events) + 1))
    return "\n".join(src + [f"    return ev, step, ({guards}), march"]), list(nums.values())


def _shape(t: Tape) -> tuple:
    """What code generated for ``t`` reads of it, but for its numbers
    (``numbers``): a pow exponent is written into the source, in ``fn``."""
    return t.num_inputs, t.outputs, tuple(
        chain.from_iterable((n.op, n.a, n.b, n.cond, n.fn) for n in t.nodes))


# structure -> (code, picks), least recently used first; threads binding at
# once may both generate a structure's code, never use another's
_CODE: dict = {}
_CODE_SIZE = 32
_GLOBALS = {"_m": math, "inf": math.inf, "nan": math.nan, "_ARITH_ERRORS": _ARITH_ERRORS,
            "_bisect": bisect, "_fv": fn_value, "_param": param_value,
            "DelayUnderflow": DelayUnderflow}


def _bind_stepper(m: OdeModel, method: str):
    """``m``'s ``_make`` (``_generate_stepper``).  The code is generated and
    compiled once per structure, the key holding all that the source
    reads of the model but its numbers; the ``_CODE_SIZE`` structures used
    last keep theirs.  Each model runs it in a namespace of its own: the
    table ``_k`` filled from its tapes by the picks, then the delay
    record's constants; its clamps; and ``_fail(k, vals)``, which re-runs
    tape k (0 the generated tape, k >= 1 guard k - 1's, the last
    ``m.tape``) in the interpreter, which names the failing node."""
    tape = _with_slot_slopes(m) if m.delays else m.tape
    tapes = (tape, *(e.guard for e in m.events))
    record, record_key = [], None       # the delay record's constants, as ``_record_source`` reads them
    if m.delays:
        delays, pre = _record_exprs(m)

        def shape(e):       # its source, parameter names for variables
            return e.to_source({p: repr(p) for p in e.params()}, record)
        record_key = (tuple(map(shape, delays)), tuple(delays.index(slot.delay) for slot in m.delays),
                      tuple(es and tuple(map(shape, es)) for es in pre))
    key = (method, m.n, len(m.param_names), m.n_outputs, bool(m.state_clamps),
           tuple(map(_shape, tapes)), record_key)
    code, picks = _CODE.pop(key, (None, None))
    if code is None:
        source, picks = _generate_stepper(m, method, tape)
        code = compile(source, "<generated>", "exec")
    _CODE[key] = code, picks
    for old in list(_CODE)[:-_CODE_SIZE]:       # the least recently used, past the bound
        _CODE.pop(old, None)
    fails = (*tapes, m.tape)
    ns = {**_GLOBALS, "_clamps": m.state_clamps,
          "_fail": lambda k, vals: tape_eval(fails[k], vals),
          "_k": [number(tapes[k].nodes[i]) for k, i in picks] + record}
    exec(code, ns)
    return ns["_make"]


def integrate(m: OdeModel, c: SimConfig, theta=None) -> Trajectory:
    """Fixed-step march with event localization and delay buffers.  The
    generated ``march`` runs the steps between events; each guard sign
    change is located, acted on and recorded here, and the march resumes
    anchored at the event time.  The rhs at an accepted node is the next
    step's k1, and the guard values at a step's end are the next step's
    old signs.  States are lists of floats, stepped with the same IEEE
    operations in the same order as array arithmetic, without numpy's cost
    on tiny vectors.  Nodes are recorded flat, here and by ``march``, and
    converted once per array (``_trajectory``)."""
    env = m.theta_env(theta)
    if m.has_sensitivity:
        bad = [i for i, ev in enumerate(m.events)
               if not isinstance(ev.action, ImpactSurface)]
        if bad:
            raise SensitivityAcrossEvent(
                f"events {bad} are not impact surfaces; sensitivity "
                "propagation across general events is not supported")
    if m.discrete:
        return _integrate_discrete(m, c, env)

    t = m.start_time(env, c.t0)
    x = m.initial_state(env).tolist()
    for i, lo, hi in m.state_clamps:
        x[i] = min(hi, max(lo, x[i]))
    ev, step, guards, march = _stepper(m, c, x, t, env)
    f, y = ev(*x, t, t, True)      # f: rhs at (x, t), the next k1
    times, states, outputs = [t], x[:], y
    events: list[EventRecord] = []

    g = [gk(*x, t) for gk in guards]
    until = [-math.inf] * len(guards)       # per guard: the end of its deadtime window
    deadtimes = [e.deadtime if e.deadtime is not None else 2.0 * c.step for e in m.events]
    tol = c.resolved_event_tol
    eps = 1e-12 * max(1.0, abs(c.tf))
    storm = 0           # events since the last accepted node
    hit = march(x, t, f, g, until, times, states, outputs) if t < c.tf - eps else None
    while hit:
        i, k, x, t, h, f, g0, x_new = hit
        storm = storm + 1 if k == 1 else 1
        if storm > c.max_events_per_step:
            raise EventStorm(f"more than {c.max_events_per_step} events near t={t}")
        t_star, x_pre = _locate_event(step, guards[i], x, t, h, f, g0, x_new, tol)
        y_pre = ev(*x_pre, t_star, t, True)[1]     # the pre-side node, still in the step from t
        if t_star < until[i]:
            # crossing still inside the deadtime: pass through silently;
            # the pre-side rhs read the delays anchored at the old step's start
            x = x_pre
            f = ev(*x, t_star, t_star, False)
        else:
            # record both sides so interpolation never crosses the jump
            if m.has_sensitivity and not events:
                warnings.warn(f"impact event {i} at t={t_star!r}: sensitivities "
                              "are wrong from here on (no saltation jump is applied)",
                              ImpactSensitivityWarning, stacklevel=2)
            x = _apply_action(m.events[i], x_pre, t_star)
            f, y_post = ev(*x, t_star, t_star, True)
            events.append(EventRecord(t_star, i, np.array(x_pre), np.array(x),
                                      np.asarray(y_pre), np.asarray(y_post)))
            until[i] = t_star + deadtimes[i]
        t = t_star
        g = [gk(*x, t) for gk in guards]
        if min(t + c.step, c.tf) - t <= eps:
            break
        hit = march(x, t, f, g, until, times, states, outputs)

    return _trajectory(m, times, states, outputs, events)


def _stepper(m: OdeModel, c: SimConfig, x, t, env):
    """The generated ``(ev, step, guards, march)`` of ``m`` for one call;
    ``_make`` is bound once per model and method."""
    if c.method not in m._steppers:
        m._steppers[c.method] = _bind_stepper(m, c.method)
    return m._steppers[c.method](c, x, t, env, *(env[p] for p in m.param_names))


def _locate_event(step, guard, x, t, h, k1, g0, x_hi, tol):
    """Bisection from (t, x) over sub-steps of [t, t+h] taken by ``step``;
    ``k1`` and ``g0`` are the rhs and guard at (x, t), ``x_hi`` the full
    step's state."""
    lo, hi = 0.0, h
    g_hi = None         # guard at (x_hi, t + hi), evaluated when first needed
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x_mid = step(x, t, mid, k1) if mid > 0 else x
        g_mid = guard(*x_mid, t + mid)
        if (g0 >= 0.0) != (g_mid >= 0.0):
            hi, x_hi, g_hi = mid, x_mid, g_mid
        else:
            lo = mid
        if hi - lo <= tol:
            if g_hi is None:
                g_hi = guard(*x_hi, t + hi)
            if abs(g_hi) <= 1e-8 * max(1.0, abs(g0)):
                break
        if hi - lo <= 1e-15 * max(1.0, abs(t)):
            break
    return t + hi, x_hi


def _apply_action(ev: EventSpec, x, t) -> list[float]:
    x = np.array(x)
    if isinstance(ev.action, ImpactSurface):
        d = ev.action.dim
        x[d:2 * d] = impact_update(ev.action, x[:d], x[d:2 * d], t)
        return x.tolist()
    return np.asarray(ev.action(x, t), dtype=float).tolist()


def _integrate_discrete(m: OdeModel, c: SimConfig, env) -> Trajectory:
    if m.events or m.delays:
        raise NotImplementedError("discrete models with events/delays")
    ts = m.sample_time
    t0 = m.start_time(env, c.t0)
    x = m.initial_state(env).tolist()
    ev = _stepper(m, c, x, t0, env)[0]
    times, states, outputs = [], [], []
    steps = int(math.floor((c.tf - t0) / ts + 1e-9))
    for k in range(steps + 1):
        t = t0 + k * ts                     # as the march does: no drift from summing ts
        x_next, y = ev(*x, t, t, True)      # the rhs of a discrete model is its next state
        times.append(t)
        states += x
        outputs += y
        x = x_next
    return _trajectory(m, times, states, outputs, [])


def _trajectory(m: OdeModel, times, states, outputs, events) -> Trajectory:
    """The trajectory of flat node records (rows laid end to end), each list converted once."""
    N = len(times)
    return Trajectory(np.fromiter(times, float, N),
                      np.fromiter(states, float, N * m.n).reshape(N, m.n),
                      np.fromiter(outputs, float, N * m.n_outputs).reshape(N, m.n_outputs),
                      events, m.state_names, m.output_names)


# ---------------------------------------------------------------------------
# impact law
# ---------------------------------------------------------------------------

def impact_update(s: ImpactSurface, q, v_pre, t) -> np.ndarray:
    """Velocity update across a potential-energy switching surface.

    In the frame adapted to the surface (tangent directions, plus the
    normal direction orthogonal to them under the kinetic metric A), the
    tangential velocity is preserved and the normal component balances
    kinetic energy relative to the moving surface against the potential
    jump; when the balance has no real solution the normal component
    reflects instead (rebound).
    """
    q = np.asarray(q, dtype=float)
    v_pre = np.asarray(v_pre, dtype=float)
    d = s.dim
    A = np.asarray(s.metric(q), dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"metric must be {d}x{d}")
    rows = A.tolist()       # np.allclose(A, A.T, atol=1e-12), entry by entry
    if not all(a == b or (abs(a - b) <= 1e-12 + 1e-5 * abs(b) and math.isfinite(b))
               for row, col in zip(rows, zip(*rows)) for a, b in zip(row, col)):
        raise ValueError("metric must be symmetric")

    grad = reverse_gradient(s.guard, list(q) + [t], 0)
    gq = grad[:d]
    gt = grad[d]
    gg, gv = float(gq @ gq), float(gq @ v_pre)
    if gg == 0.0:
        raise NonTransversal("guard gradient vanishes at the impact point")

    # normal direction: A-orthogonal to the tangent space ker(gq)
    try:
        e_n = np.linalg.solve(A, gq)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc
    gn = float(gq @ e_n)          # = e_n^T A e_n = a_nn * (normal scale)^2
    if abs(gn) < 1e-14 * max(1.0, gg):
        raise SingularMetric("metric is singular along the guard normal")

    # normal coordinate of the velocity and of the surface speed
    vn_pre = gv / gn
    v_wall = -gt / gn
    a_nn = gn                      # e_n^T A e_n with this normalization

    transversal = gv + gt
    if transversal <= 0.0:
        raise NonTransversal(
            f"guard not increasing along the trajectory (rate {transversal:.3e})")

    e_pos = float(s.potential_pos(q))
    e_neg = float(s.potential_neg(q))
    rel = vn_pre - v_wall
    rhs = a_nn * rel * rel + (e_neg - e_pos)
    if rhs >= 0.0:
        mag = math.sqrt(rhs / a_nn)
        vn_post = v_wall + math.copysign(mag, rel)
    else:
        vn_post = v_wall - rel
    return v_pre + (vn_post - vn_pre) * e_n


def impact_event(surface: ImpactSurface, n: int,
                 deadtime: float | None = None) -> EventSpec:
    """Wrap an impact surface as a full-state event guard."""
    return EventSpec(_widen_guard(surface.guard, surface.dim, n), surface, deadtime)


def _widen_guard(guard: Tape, k: int, n: int) -> Tape:
    """``guard`` over [x_0..x_{k-1}, t] as a tape over [x_0..x_{n-1}, t]."""
    b = TapeBuilder(n + 1)
    node_map = copy_into(b, guard, [b.input(i) for i in range(k)] + [b.input(n)])
    return b.build([node_map[guard.outputs[0]]])


# ---------------------------------------------------------------------------
# sensitivity extension (variational system)
# ---------------------------------------------------------------------------

def sensitivity_extend(m: OdeModel, theta: str | Sequence[str]) -> OdeModel:
    """Append the sensitivity states d x_i / d theta to a model, for one
    parameter name or for each name of a sequence (vector forward mode).

    The added states obey the variational equations (the Jacobian of the
    right-hand side times the sensitivities plus the explicit parameter
    derivative), built once as tape nodes by source transformation: one
    copy of the model tape and one tangent sweep per parameter.  Initial
    conditions are dg/dtheta - f(g, h, theta) * dh/dtheta.  For delayed
    models the delayed tangent also carries the -x'(t-h) * dh/dtheta
    correction when the delay itself depends on the parameter.

    For names theta_1..theta_p every part of the model gets one block per
    name, in that order: states [x, dx/dtheta_1, ..., dx/dtheta_p], outputs
    [y, dy/dtheta_1, ..., dy/dtheta_p] and delay slots likewise, with the
    added states and outputs named by ``d_output_name``.  Each block equals
    the block of the one-name extension bit for bit.
    """
    thetas = (theta,) if isinstance(theta, str) else tuple(theta)
    for th in thetas:
        if th not in m.param_names:
            raise UnknownParameter(th, m.param_names)

    n, s, J = m.n, len(m.param_names), len(m.delays)
    q = len(m.output_names)
    w = len(thetas) + 1                     # blocks: primal, then one per theta

    b = TapeBuilder(w * n + 1 + s + 2 * w * J)
    xs = [b.input(i) for i in range(n)]
    ss = [b.input(n + i) for i in range(n * (w - 1))]
    tn = b.input(w * n)
    ths = [b.input(w * n + 1 + k) for k in range(s)]
    off = w * n + 1 + s
    dvals = [b.input(off + j) for j in range(w * J)]
    dslopes = [b.input(off + w * J + j) for j in range(w * J)]

    orig_inputs = xs + [tn] + ths + dvals[:J] + dslopes[:J]
    node_map = copy_into(b, m.tape, orig_inputs)

    env_nodes = {p: ths[k] for k, p in enumerate(m.param_names)}
    tgs = []
    for d, th in enumerate(thetas):
        seeds = [*ss[d * n:(d + 1) * n], b.const(0.0),                  # x, t
                 *(b.const(1.0 if p == th else 0.0) for p in m.param_names),
                 *(b.sub(dvals[(d + 1) * J + j],                        # dval_j
                         b.mul(dslopes[j], m.delays[j].delay.diff(th).to_tape(b, env_nodes)))
                   for j in range(J)), *[b.const(0.0)] * J]             # dslope_j
        tgs.append(append_tangent(b, m.tape, node_map, seeds))

    o = m.tape.outputs
    parts = [(0, n), (n, n + q), (n + q, n + q + J)]        # rhs, outputs, slots
    tape = b.build([mp[o[i]] for lo, hi in parts for mp in [node_map, *tgs]
                    for i in range(lo, hi)])

    # initial conditions for the sensitivity states:
    # s(h) = dg/dtheta - f(g, h, theta) * dh/dtheta
    init_exprs = None
    init_fn = None
    if m.init_exprs is not None and (m.init_time is None or all(
            m.init_time.diff(th).is_zero() for th in thetas)):
        init_exprs = tuple(m.init_exprs) + tuple(
            g.diff(th) for th in thetas for g in m.init_exprs)
    else:
        def init_fn(env):
            x0 = m.initial_state(env)
            return np.concatenate([x0] + [_initial_sensitivity(m, env, th, x0)
                                          for th in thetas])

    new_delays = tuple(m.delays) + tuple(
        DelaySlot(slot.delay,
                  None if slot.prehistory is None else slot.prehistory.diff(th))
        for th in thetas for slot in m.delays)

    events = tuple(EventSpec(_widen_guard(ev.guard, n, w * n), ev.action, ev.deadtime)
                   for ev in m.events)

    def names(base):
        return base + tuple(d_output_name(nm, th) for th in thetas for nm in base)

    return OdeModel(
        w * n, tape, m.param_names, dict(m.params),
        names(m.state_names), names(m.output_names),
        init_exprs=init_exprs, init_fn=init_fn, init_time=m.init_time,
        events=events, delays=new_delays, discrete=m.discrete,
        sample_time=m.sample_time, has_sensitivity=True,
        state_clamps=m.state_clamps)


def _initial_sensitivity(m: OdeModel, env, theta: str, x0) -> np.ndarray:
    """Sensitivity of the initial state to ``theta``, with the start-time
    correction -f(g, h, theta) * dh/dtheta."""
    if m.init_exprs is not None:
        dg = np.array([g.diff(theta).evaluate(env) for g in m.init_exprs])
    else:
        dg = _fd_init(m, env, theta)
    if m.init_time is None:
        return dg
    dh0 = m.init_time.diff(theta).evaluate(env)
    if dh0 == 0.0:
        return dg
    if m.delays:
        raise NotImplementedError("parameter-dependent start time with delays")
    h0 = m.start_time(env, 0.0)
    theta_vals = [env[p] for p in m.param_names]
    f0 = tape_eval(m.tape, list(x0) + [h0] + theta_vals)[:m.n]
    return dg - np.asarray(f0) * dh0


def _fd_init(m: OdeModel, env, theta: str):
    h = 1e-7 * max(1.0, abs(env[theta]))
    up = dict(env)
    up[theta] = env[theta] + h
    dn = dict(env)
    dn[theta] = env[theta] - h
    return (m.initial_state(up) - m.initial_state(dn)) / (2 * h)


def dde_extend(m: OdeModel, theta: str | Sequence[str]) -> OdeModel:
    """Sensitivity extension of a delayed model (theta may be the delay)."""
    if not m.delays:
        raise ValueError("model has no delays; use sensitivity_extend")
    return sensitivity_extend(m, theta)
