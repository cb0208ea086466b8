"""Hybrid fixed-step simulator with sensitivity co-integration.

Models are flattened state-space systems whose right-hand side, outputs
and delayed quantities live on one tape with input layout::

    [x_0..x_{n-1}, t, theta_0..theta_{s-1}, dval_0.., dslope_0..]

``dval_j``/``dslope_j`` are the value and time-slope of delay slot j's
carried expression at ``t - h_j``, read from one history per call.  It
stores the node times once and per node the slot values with their
time-slopes (the time tangent of the slot outputs), both computed by the
generated step; lookups are cubic Hermite between nodes, found by one
forward cursor per distinct delay, or the prehistory before the start.

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
finite-difference oracles stay deterministic.  Each model is compiled
once per method into one generated RK step and one function per event
guard: parameter-only nodes are computed once per ``integrate`` call,
stages compute only the rhs, and a branch arm that can raise runs only
when it is taken.  So an exception there is a real domain error;
``tape_eval`` re-runs the point and names the node (``EvalDomainError``).  Models are immutable and each
``integrate`` call owns its private workspace: parameter sweeps may run
concurrently.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
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
from .paramexpr import ParamExpr
from .tape import (
    Tape,
    TapeBuilder,
    append_tangent,
    arm_contexts,
    copy_into,
    guarded_source,
    node_ref,
    node_source,
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
    # method -> generated ``_make`` (see ``_generate_stepper``)
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
        cols = ["t", *self.state_names, *self.output_names]
        rows = [(t, self.states[i], self.outputs[i], 0)
                for i, t in enumerate(self.times)]
        # event rows are interleaved by time, pre before post
        nq = len(self.output_names)
        for ev in self.events:
            pre_y = ev.pre_outputs if ev.pre_outputs is not None else [math.nan] * nq
            post_y = ev.post_outputs if ev.post_outputs is not None else [math.nan] * nq
            rows.append((ev.time, ev.pre_state, pre_y, 1))
            rows.append((ev.time, ev.post_state, post_y, 2))
        rows.sort(key=lambda r: (r[0], r[3]))
        out = [",".join(cols)]
        for t, x, y, _ in rows:
            vals = [t, *x, *y]
            out.append(",".join(f"{v:.17g}" for v in vals))
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# history buffers (delay support)
# ---------------------------------------------------------------------------

class _History:
    """The delay record of one integration, built only for models with
    delay slots: the node times once (every slot is pushed at the same
    nodes) and per node one row of slot values followed by their
    time-slopes, both computed by the generated ``ev``.  Slots are grouped
    by their evaluated delay; each group keeps an interval cursor that
    walks forward with the march and falls back to bisection when an
    event bisection reads behind it."""

    def __init__(self, slots: Sequence[DelaySlot], env, t_start: float, step: float):
        delays = [slot.delay.evaluate(env) for slot in slots]
        for h in delays:
            if not h >= step:
                raise ValueError(f"delay {h} smaller than the step {step}")
        self.t_start = t_start
        self.tol = 1e-9 * max(1.0, abs(t_start))
        self.env = env
        self.h_max = max(delays)
        self.times: list[float] = []
        self.rows: list[list[float]] = []       # per node: values, then slopes
        self.pre = [None if s.prehistory is None else (s.prehistory, s.prehistory.diff("t"))
                    for s in slots]
        self.groups = [(h, [j for j, d in enumerate(delays) if d == h])
                       for h in dict.fromkeys(delays)]
        self.cursors = [0] * len(self.groups)
        self.key = self.last = None             # the previous lookup and its key

    def push(self, t: float, row: list[float]):
        self.times.append(t)
        self.rows.append(row)
        self.key = None         # a lookup clamped to the old newest node may now interpolate

    def delayed(self, t: float, anchor: float) -> list[float]:
        """``lookup(t, anchor)``, reusing the previous lookup when it was
        made at the same t and its anchor cannot change the result either.
        An anchor ``h_max`` or more past the start time reaches the
        prehistory branch of no group, so the lookup at an accepted node is
        the last RK stage's."""
        key = (t, anchor if anchor - self.h_max < self.t_start - self.tol else None)
        if key != self.key:
            self.key, self.last = key, self.lookup(t, anchor)
        return self.last

    def _pre_values(self, tau: float, js: list[int], out: list[float]):
        env = {**self.env, "t": tau}
        for j in js:
            if self.pre[j] is None:
                raise DelayUnderflow(
                    f"lookup at t={tau} precedes history and no prehistory is defined")
            out[j], out[len(self.pre) + j] = (e.evaluate(env) for e in self.pre[j])

    def lookup(self, t: float, anchor: float) -> list[float]:
        """Values, then time-slopes, of each slot's carried signal at t minus
        its delay, for the step started at ``anchor``; one basis per group.

        The carried signal may jump at the start time (prehistory on one
        side, dynamics on the other); a step that starts left of that
        boundary reads the left limit on it and one starting on it the
        right, so steps on either side of an aligned breakpoint both see
        a consistent one-sided right-hand side.
        """
        J, times, rows = len(self.pre), self.times, self.rows
        out = [0.0] * (2 * J)
        left = self.t_start - self.tol
        for g, (h, js) in enumerate(self.groups):
            tau = t - h
            if tau < left or (anchor - h < left and tau <= self.t_start + self.tol) or not times:
                self._pre_values(tau, js, out)
                continue
            tau = max(tau, times[0])
            if tau >= times[-1]:        # clamp to the newest node (roundoff only)
                for j in js:
                    out[j], out[J + j] = rows[-1][j], rows[-1][J + j]
                continue
            i = self.cursors[g]
            if times[i] > tau:
                i = bisect.bisect_right(times, tau) - 1
            while times[i + 1] <= tau:
                i += 1
            self.cursors[g] = i
            t0, t1 = times[i], times[i + 1]
            dt = t1 - t0
            w = (tau - t0) / dt
            h00 = (1 + 2 * w) * (1 - w) ** 2
            h10 = w * (1 - w) ** 2 * dt
            h01 = w * w * (3 - 2 * w)
            h11 = w * w * (w - 1) * dt
            dw = 1.0 / dt
            d00 = 6 * w * (w - 1) * dw
            d10 = (3 * w * w - 4 * w + 1)
            d01 = -6 * w * (w - 1) * dw
            d11 = (3 * w * w - 2 * w)
            r0, r1 = rows[i], rows[i + 1]
            for j in js:
                out[j] = h00 * r0[j] + h10 * r0[J + j] + h01 * r1[j] + h11 * r1[J + j]
                out[J + j] = d00 * r0[j] + d10 * r0[J + j] + d01 * r1[j] + d11 * r1[J + j]
        return out


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


def _generate_stepper(m: OdeModel, method: str):
    """Compiles ``_make(history, theta...) -> (ev, step, guards)``.  ``history`` is
    the call's ``_History``, None for a model without delay slots.
    ``_make`` computes the parameter-only nodes that cannot raise or that
    every call needs.  ``ev(x..., t, anchor, full)`` computes the rhs
    nodes, reading the history for the step that starts at ``anchor``;
    with ``full`` set, at a node of the march, it also returns the outputs
    and pushes the node's history row: the slot values and their
    time-slopes (``_with_slot_slopes``).  A node in an arm that can raise
    runs only when that arm is taken (``arm_contexts``).  ``step(x, t, h,
    k1)`` is one RK step around ``ev``, anchored at ``t``.  ``guards`` holds
    one ``g(x..., t) -> float`` per event, its guard tape's output computed
    the same taken-arm way."""
    tape = _with_slot_slopes(m) if m.delays else m.tape
    n, s, q = m.n, len(m.param_names), m.n_outputs
    nodes, outs = tape.nodes, tape.outputs
    place, opened = arm_contexts(tape, [(o, 0 if k < n else 1) for k, o in enumerate(outs)])
    arg = {nd.a: nid for nid, nd in enumerate(nodes) if nd.op == "input"}
    inputs = set(arg.values())
    bound = {arg[j] for j in range(n + 1, n + 1 + s) if j in arg}       # parameters
    hoist = []      # parameter-only nodes that cannot raise or that every call needs
    # (context 0: the rhs, whose failure ``integrate`` names through ``m.tape``)
    for nid in sorted(set(place) - inputs):
        nd = nodes[nid]
        if all(c in bound for c in nd.children()) and (
                nd.op not in ("div", "apply") or place[nid] == {0}):
            hoist.append(nid)
            bound.add(nid)
    bound |= inputs
    arg = [f"_v{arg[j]}" if j in arg else f"_u{j}" for j in range(tape.num_inputs)]

    def row(fmt):               # one entry per state
        return ", ".join(fmt.format(i) for i in range(n))

    def refs(ids):
        return ", ".join(node_ref(tape, o) for o in ids)

    def stage(k_out, k_in, hs):     # k_out: the rhs at (x + hs * k_in, t + hs)
        xs = "".join(f"x{i} + {hs} * {k_in}{i}, " for i in range(n))
        return f"        [{row(k_out + '{}')}] = ev({xs}t + {hs}, t, False)"

    fails = (tape, *(e.guard for e in m.events))     # ``_fail(k, vals)`` re-runs tape k
    src = []
    for k, g in enumerate(fails[1:], 1):        # guard k - 1, called g(x..., t)
        g_place, g_opened = arm_contexts(g, [(g.outputs[0], 0)])
        src += [f"def _g{k}(*x):", "    try:",
                *(" " * 8 + ln for ln in guarded_source(g, g_place, g_opened, set(), 0)),
                f"        return {node_ref(g, g.outputs[0])}",
                "    except _ARITH_ERRORS:", f"        _fail({k}, list(x))", "        raise"]
    src += [f"def _make({', '.join(['_r'] + arg[n + 1:n + 1 + s])}):",
           *("    " + node_source(tape, nid) for nid in hoist if nodes[nid].op != "const"),
           f"    def ev({', '.join(arg[:n + 1])}, anchor, full):",
           *([f"        [{', '.join(arg[n + 1 + s:])}] = _r.delayed({arg[n]}, anchor)"]
             if m.delays else []),
           "        try:",
           *(" " * 12 + line for line in guarded_source(tape, place, opened, bound, 0)),
           "            if not full:",
           f"                return [{refs(outs[:n])}]",
           *(" " * 12 + line for line in guarded_source(tape, place, opened, bound, 1)),
           *([f"            _r.push({arg[n]}, [{refs(outs[n + q:])}])"] if m.delays else []),
           f"            return [{refs(outs[:n])}], [{refs(outs[n:n + q])}]",
           "        except _ARITH_ERRORS:",
           f"            _fail(0, [{', '.join(arg)}])",
           "            raise",
           "    def step(x, t, h, k1):",
           f"        [{row('x{}')}] = x",
           f"        [{row('a{}')}] = k1",
           "        hh = 0.5 * h",
           stage("b", "a", "hh")]
    if method == "midpoint":
        src.append(f"        y = [{row('x{0} + h * b{0}')}]")
    else:
        src += [stage("c", "b", "hh"), stage("d", "c", "h"), "        h6 = h / 6.0",
                f"        y = [{row('x{0} + h6 * (a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})')}]"]
    if m.state_clamps:
        src += ["        for i, lo, hi in _clamps:", "            y[i] = min(hi, max(lo, y[i]))"]
    ns = {"_m": math, "inf": math.inf, "nan": math.nan, "_ARITH_ERRORS": _ARITH_ERRORS,
          "_clamps": m.state_clamps, "_fail": lambda k, vals: tape_eval(fails[k], vals)}
    guards = "".join(f"_g{k}, " for k in range(1, len(fails)))
    exec("\n".join(src + ["        return y", f"    return ev, step, ({guards})"]), ns)
    return ns["_make"]


def integrate(m: OdeModel, c: SimConfig, theta=None) -> Trajectory:
    """Fixed-step march with event localization and delay buffers.  The
    rhs at an accepted node is the next step's k1, and the guard values
    checked at a step's end are the next step's old signs.  States are
    lists of floats, stepped with the same IEEE operations in the same
    order as array arithmetic, without numpy's cost on tiny vectors."""
    env = m.theta_env(theta)
    if m.has_sensitivity:
        bad = [i for i, ev in enumerate(m.events)
               if not isinstance(ev.action, ImpactSurface)]
        if bad:
            raise SensitivityAcrossEvent(
                f"events {bad} are not impact surfaces; sensitivity "
                "propagation across general events is not supported")
    theta = [env[p] for p in m.param_names]
    if m.discrete:
        return _integrate_discrete(m, c, env, theta)

    t = m.start_time(env, c.t0)
    hist = _History(m.delays, env, t, c.step) if m.delays else None
    x = m.initial_state(env).tolist()
    for i, lo, hi in m.state_clamps:
        x[i] = min(hi, max(lo, x[i]))

    deadtimes = [ev.deadtime if ev.deadtime is not None else 2.0 * c.step
                 for ev in m.events]
    last_fire = [-math.inf] * len(m.events)

    ev, step, guards = _stepper(m, c.method, hist, theta, x, t)
    f0, y0 = ev(*x, t, t, True)      # f0: rhs at (x, t), the next k1
    times, states, outputs = [t], [x], [y0]
    events: list[EventRecord] = []

    g_prev = [g(*x, t) for g in guards]
    tol = c.resolved_event_tol
    eps = 1e-12 * max(1.0, abs(c.tf))
    anchor_t = t       # stepping is anchored to kill accumulation drift
    k = 0

    while t < c.tf - eps:
        t_next = anchor_t + (k + 1) * c.step
        if t_next > c.tf:
            t_next = c.tf
        h = t_next - t
        events_this_step = 0
        while True:
            x_new = step(x, t, h, f0)
            fired = None
            g_new = []      # None: whole step inside the guard's deadtime window
            for i, g in enumerate(guards):
                if t_next <= last_fire[i] + deadtimes[i]:
                    g_new.append(None)
                    continue
                g_new.append(g(*x_new, t_next))
                if (g_prev[i] >= 0.0) != (g_new[i] >= 0.0):
                    fired = i
                    break
            if fired is None:
                break
            events_this_step += 1
            if events_this_step > c.max_events_per_step:
                raise EventStorm(f"more than {c.max_events_per_step} events near t={t}")
            t_star, x_pre = _locate_event(step, guards[fired], x, t, h, f0,
                                          g_prev[fired], x_new, tol)
            y_pre = ev(*x_pre, t_star, t, True)[1]     # the pre-side node, still in the step from t
            if t_star < last_fire[fired] + deadtimes[fired]:
                # crossing still inside the deadtime: pass through silently;
                # the pre-side rhs read the delays anchored at the old step's start
                x = x_pre
                f0 = ev(*x, t_star, t_star, False)
            else:
                # record both sides so interpolation never crosses the jump
                if m.has_sensitivity and not events:
                    warnings.warn(f"impact event {fired} at t={t_star!r}: sensitivities "
                                  "are wrong from here on (no saltation jump is applied)",
                                  ImpactSensitivityWarning, stacklevel=2)
                x = _apply_action(m.events[fired], x_pre, t_star)
                f0, y_post = ev(*x, t_star, t_star, True)
                events.append(EventRecord(t_star, fired, np.array(x_pre), np.array(x),
                                          np.asarray(y_pre), np.asarray(y_post)))
                last_fire[fired] = t_star
            t = t_star
            anchor_t, k = t, 0
            g_prev = [g(*x, t) for g in guards]
            t_next = min(anchor_t + c.step, c.tf)
            h = t_next - t
            if h <= eps:
                break
        if h <= eps:
            break
        t = t_next
        k += 1
        x = x_new
        f0, y_n = ev(*x, t, t, True)      # opening the next step: right-continuous at jumps
        if guards:
            g_prev = [g(*x, t) if v is None else v
                      for g, v in zip(guards, g_new)]
        times.append(t)
        states.append(x)
        outputs.append(y_n)

    return Trajectory(np.array(times), np.array(states), np.array(outputs),
                      events, m.state_names, m.output_names)


def _stepper(m: OdeModel, method: str, hist, theta, x, t):
    """The generated ``(ev, step, guards)`` of ``m`` for one call; the
    interpreter names a parameter-only node that fails."""
    if method not in m._steppers:
        m._steppers[method] = _generate_stepper(m, method)
    try:
        return m._steppers[method](hist, *theta)
    except _ARITH_ERRORS:
        tape_eval(m.tape, x + [t] + theta + (hist.delayed(t, t) if hist else []))
        raise


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


def _integrate_discrete(m: OdeModel, c: SimConfig, env, theta) -> Trajectory:
    if m.events or m.delays:
        raise NotImplementedError("discrete models with events/delays")
    ts = m.sample_time
    t = m.start_time(env, c.t0)
    x = m.initial_state(env).tolist()
    ev = _stepper(m, c.method, None, theta, x, t)[0]
    times, states, outputs = [], [], []
    steps = int(math.floor((c.tf - t) / ts + 1e-9))
    for _ in range(steps + 1):
        x_next, y = ev(*x, t, t, True)      # the rhs of a discrete model is its next state
        times.append(t)
        states.append(x)
        outputs.append(y)
        x = x_next
        t += ts
    return Trajectory(np.array(times), np.array(states), np.array(outputs),
                      [], m.state_names, m.output_names)


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
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("metric must be symmetric")

    grad = reverse_gradient(s.guard, list(q) + [t], 0)
    gq = grad[:d]
    gt = grad[d]
    if np.linalg.norm(gq) == 0.0:
        raise NonTransversal("guard gradient vanishes at the impact point")

    # normal direction: A-orthogonal to the tangent space ker(gq)
    try:
        e_n = np.linalg.solve(A, gq)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc
    gn = float(gq @ e_n)          # = e_n^T A e_n = a_nn * (normal scale)^2
    if abs(gn) < 1e-14 * max(1.0, float(gq @ gq)):
        raise SingularMetric("metric is singular along the guard normal")

    # normal coordinate of the velocity and of the surface speed
    vn_pre = float(gq @ v_pre) / gn
    v_wall = -gt / gn
    a_nn = gn                      # e_n^T A e_n with this normalization

    transversal = float(gq @ v_pre) + gt
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
        seeds = ss[d * n:(d + 1) * n]
        seeds.append(b.const(0.0))                                  # t
        for p in m.param_names:
            seeds.append(b.const(1.0 if p == th else 0.0))          # theta_k
        for j in range(J):                                          # dval_j
            dh = m.delays[j].delay.diff(th)
            sd = dvals[(d + 1) * J + j]
            if dh.is_zero():
                seeds.append(sd)
            else:
                dh_node = dh.to_tape(b, env_nodes)
                seeds.append(b.sub(sd, b.mul(dslopes[j], dh_node)))
        seeds += [b.const(0.0)] * J                                 # dslope_j
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
