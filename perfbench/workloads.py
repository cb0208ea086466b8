"""Seeded inputs, jobs and output checks of the benchmark's four workloads.

Every workload is a fixed list of 40 jobs built from the seed.  The seed
moves parameter values and the order of the list; the amount of work (job
kinds, stage counts, horizons, event counts) is fixed per job slot, so
figures from different seeds measure the same work.

Each list has three tiers of job cost, 15 light, 10 middle and 15 heavy
jobs, each tier of near-equal jobs.  Sorted by time, the median of the 40
(jobs 20 and 21) then lies inside the middle tier and the tail percentile
(job 30, with 10 beyond it) inside the heavy tier, away from the tier
edges where a statistic would jump between tiers from run to run.

hybridad receives only the generated inputs: diagram JSON documents (text,
or files for the CLI) and ``OdeModel`` objects.

A job's ``run(tracer)`` is the timed part.  Its ``check(out)`` runs outside
the timed span and returns a ``Checked``: the problems found (an empty
list when the output is right), the job's count metrics, and material for
the layer micro-timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hybridad.cli
from hybridad import (
    FdScheme,
    ImpactSurface,
    SimConfig,
    TapeBuilder,
    agdm_diff,
    compare_report,
    dde_extend,
    finite_difference,
    flatten,
    identifiability_test,
    impact_event,
    integrate,
    op_count,
    parse_diagram,
    parse_expr,
    sensitivity_extend,
    validate,
)
from hybridad.cli import optimize_scalar
from hybridad.sim import make_ode_model

LIGHT, MIDDLE, HEAVY = 15, 10, 15
OPS = ("input", "const", "add", "sub", "mul", "div", "apply", "branch")
COUNT_KEYS = (
    "diagram.blocks", "agdm.diff_calls", "agdm.blocks_out", "agdm.links_out",
    "flatten.states", "flatten.tape_nodes",
    *(f"tape.nodes.{op}" for op in OPS), "tape.forward_ops",
    "sim.integrate_calls", "sim.steps", "sim.events",
    "cli.optimize_iterations", "analysis.columns",
)


@dataclass
class Checked:
    problems: list[str]
    counts: Counter
    # "tape": (tape, [input vectors]); "impacts": [(surface, q, v, t)]
    probe: dict = field(default_factory=dict)
    unverified: int = 0              # samples an oracle could not judge


@dataclass
class Job:
    kind: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    jobs: list[Job]
    files: dict[Path, str]           # CLI input files, written before the run


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's job list for ``seed``; writes nothing."""
    rng = np.random.default_rng([seed, list(_BUILDERS).index(name)])
    files: dict[Path, str] = {}
    jobs = _BUILDERS[name](rng, workdir, files)
    order = rng.permutation(len(jobs))
    return Workload([jobs[i] for i in order], files)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def _count_tapes(c: Counter, *models):
    for m in models:
        for node in m.tape.nodes:
            c[f"tape.nodes.{node.op}"] += 1
        c["tape.forward_ops"] += op_count(m.tape, "forward")


def _count_flatten(c: Counter, m):
    c["flatten.states"] += m.n
    c["flatten.tape_nodes"] += len(m.tape)


def _count_diff(c: Counter, d_out):
    c["agdm.diff_calls"] += 1
    c["agdm.blocks_out"] += len(d_out.blocks)
    c["agdm.links_out"] += len(d_out.links)


def _count_runs(c: Counter, *trajectories):
    for tr in trajectories:
        c["sim.integrate_calls"] += 1
        c["sim.steps"] += len(tr.times) - 1
        c["sim.events"] += len(tr.events)


def _points(m, tr, count=16):
    """Tape input vectors at ``count`` states of the trajectory.

    Delay slots get the delayed first state (prehistory value before the
    start) and a zero slope; the values only need to be realistic.
    """
    theta = [m.params[p] for p in m.param_names]
    idx = np.linspace(0, len(tr.times) - 1, count).astype(int)
    out = []
    for i in idx:
        t = float(tr.times[i])
        dv = []
        for slot in m.delays:
            td = t - slot.delay.evaluate(m.params)
            dv.append(float(np.interp(td, tr.times, tr.states[:, 0]))
                      if td >= tr.times[0] else float(tr.states[0, 0]))
        out.append([*map(float, tr.states[i]), t, *theta, *dv, *([0.0] * len(dv))])
    return out


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _limit(problems: list[str], what: str, err: float, tol: float):
    if not err <= tol:                          # also catches NaN
        problems.append(f"{what}: {err:.3e} > {tol:.1e}")


class _Reference:
    """A job's first output that passed its costly oracle.  A later run
    whose output arrays equal it bit for bit passes without the oracle."""

    def __init__(self):
        self.arrays = None

    def matches(self, arrays) -> bool:
        return self.arrays is not None and all(
            np.array_equal(a, b) for a, b in zip(self.arrays, arrays, strict=True))

    def keep(self, arrays, problems: list[str]):
        if not problems:
            self.arrays = [np.array(a, copy=True) for a in arrays]


# ---------------------------------------------------------------------------
# smooth-sens: continuous models through the CLI and library user paths
# ---------------------------------------------------------------------------

def _first_order_doc(k: float, tau: float) -> str:
    return json.dumps({
        "schema": 1, "name": "first_order", "params": {"k": k, "tau": tau},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Gk", "kind": "Gain", "gain": "k"},
            {"id": "E", "kind": "Sum", "signs": "+-"},
            {"id": "Gtau", "kind": "Gain", "gain": "1/tau"},
            {"id": "I", "kind": "Integrator", "initial": 0.0}],
        "links": [
            {"from": "U.out", "to": "Gk.in"}, {"from": "Gk.out", "to": "E.in1"},
            {"from": "I.out", "to": "E.in2"}, {"from": "E.out", "to": "Gtau.in"},
            {"from": "Gtau.out", "to": "I.in"}],
        "outputs": [{"name": "y", "from": "I.out"}]})


def _second_order_doc(zeta: float, omega: float, q: float) -> str:
    links = [("U", "Eu.in1"), ("Ix", "Eu.in2"), ("Eu", "Gw2.in"), ("Iv", "Damp.in"),
             ("Gw2", "Acc.in1"), ("Damp", "Acc.in2"), ("Acc", "Iv.in"), ("Iv", "Ix.in"),
             ("Ix", "Err.in1"), ("U", "Err.in2"), ("Err", "Err2.in1"),
             ("Err", "Err2.in2"), ("Err2", "Ge.in"), ("Iv", "V2.in1"), ("Iv", "V2.in2"),
             ("V2", "Gv.in"), ("Ge", "Cost.in1"), ("Gv", "Cost.in2"), ("Cost", "IJ.in")]
    return json.dumps({
        "schema": 1, "name": "second_order_cost",
        "params": {"zeta": zeta, "omega": omega, "q": q},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Eu", "kind": "Sum", "signs": "+-"},
            {"id": "Gw2", "kind": "Gain", "gain": "omega*omega"},
            {"id": "Damp", "kind": "Gain", "gain": "2*zeta*omega"},
            {"id": "Acc", "kind": "Sum", "signs": "+-"},
            {"id": "Iv", "kind": "Integrator", "initial": 0.0},
            {"id": "Ix", "kind": "Integrator", "initial": 0.0},
            {"id": "Err", "kind": "Sum", "signs": "+-"},
            {"id": "Err2", "kind": "Product", "n": 2},
            {"id": "Ge", "kind": "Gain", "gain": "omega*omega"},
            {"id": "V2", "kind": "Product", "n": 2},
            {"id": "Gv", "kind": "Gain", "gain": "q*q"},
            {"id": "Cost", "kind": "Sum", "signs": "++"},
            {"id": "IJ", "kind": "Integrator", "initial": 0.0}],
        "links": [{"from": f"{a}.out", "to": b} for a, b in links],
        "outputs": [{"name": "y", "from": "Ix.out"}, {"name": "integrand", "from": "Cost.out"},
                    {"name": "J", "from": "IJ.out"}]})


def _first_order_refs(t, k, tau):
    e = np.exp(-t / tau)
    return {"y": k * (1.0 - e), "dy/dtau": -k * t * e / tau ** 2, "dy/dk": 1.0 - e}


SENS_CONFIG = SimConfig(step=2e-3, tf=0.5)
OPT_AD_CONFIG = SimConfig(step=0.02, tf=10.0)
OPT_FD_CONFIG = SimConfig(step=0.05, tf=10.0)     # 0.5 s samples: every 10th step
IDENT_CONFIG = SimConfig(step=0.01, tf=10.0)
# samples in the transient: at tf alone the response has settled, and the
# normalized smallest singular value falls to the verdict threshold
IDENT_TIMES = (1.0, 2.5, 4.0)


def _cli_sens_job(rng, workdir, files, i) -> Job:
    k, tau = rng.uniform(0.8, 1.25), rng.uniform(0.4, 0.6)
    src, out = workdir / f"sens-{i}.json", workdir / f"sens-{i}.csv"
    files[src] = _first_order_doc(k, tau)
    argv = ["sens", str(src), "--theta", "tau", "--theta", "k", "--route", "both",
            "--tf", str(SENS_CONFIG.tf), "--step", str(SENS_CONFIG.step), "--out", str(out)]

    def run(T):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = T.call("cli.sens", hybridad.cli.main, argv)
        return {"rc": rc, "stderr": err.getvalue()}

    def check(o):
        problems = []
        if o["rc"] != 0:
            return Checked([f"exit code {o['rc']}: {o['stderr'].strip()}"], Counter())
        with open(out, encoding="utf-8") as fh:
            head = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        t = data[:, 0]
        for col, ref in _first_order_refs(t, k, tau).items():
            _limit(problems, f"{col} vs closed form", _max_abs(data[:, head.index(col)], ref), 1e-6)
        m = re.search(r"max \|agdm - sensode\| = (\S+)", o["stderr"])
        _limit(problems, "route discrepancy", float(m.group(1)) if m else math.inf, 1e-9)
        return Checked(problems, Counter())

    return Job("cli-sens", run, check)


def _lib_sens_job(rng) -> Job:
    k, tau = rng.uniform(0.8, 1.25), rng.uniform(0.4, 0.6)
    text = _first_order_doc(k, tau)

    def run(T):
        d = T.call("diagram.parse", parse_diagram, text)
        d1 = T.call("agdm.diff", agdm_diff, d, "tau")
        m1 = T.call("flatten.flatten", flatten, d1)
        tr1 = T.call("sim.integrate", integrate, m1, SENS_CONFIG)
        m0 = T.call("flatten.flatten", flatten, d)
        ms = T.call("sim.extend", sensitivity_extend, m0, "tau")
        trs = T.call("sim.integrate", integrate, ms, SENS_CONFIG)
        return {"d": d, "d1": d1, "m1": m1, "m0": m0, "ms": ms, "tr1": tr1, "trs": trs}

    def check(o):
        problems = []
        ref = _first_order_refs(o["tr1"].times, k, tau)["dy/dtau"]
        dy1, dys = o["tr1"].output("dy/dtau"), o["trs"].output("dy/dtau")
        _limit(problems, "agdm dy/dtau vs closed form", _max_abs(dy1, ref), 1e-6)
        _limit(problems, "sensode dy/dtau vs closed form", _max_abs(dys, ref), 1e-6)
        _limit(problems, "agdm vs sensode", _max_abs(dy1, dys), 1e-9)
        c = Counter({"diagram.blocks": len(o["d"].blocks)})
        _count_diff(c, o["d1"])
        _count_flatten(c, o["m1"])
        _count_flatten(c, o["m0"])
        _count_tapes(c, o["m1"], o["m0"], o["ms"])
        _count_runs(c, o["tr1"], o["trs"])
        probe = {"tape": (o["m1"].tape, _points(o["m1"], o["tr1"]))}
        return Checked(problems, c, probe)

    return Job("lib-sens", run, check)


def _decimated_cost(m, z: float) -> float:
    """The optimizer's observed cost, recomputed here: the integrand sampled
    every 0.5 s and accumulated in single precision."""
    tr = integrate(m, OPT_FD_CONFIG, theta={"zeta": z})
    every = round(0.5 / OPT_FD_CONFIG.step)
    acc = np.float32(0.0)
    for v in tr.output("integrand")[every::every]:
        acc = np.float32(acc + np.float32(v) * np.float32(0.5))
    return float(acc)


def _optimize_job(rng, jacobian) -> Job:
    omega, q = rng.uniform(0.98, 1.02), rng.uniform(0.98, 1.02)
    theta0 = 0.1 * rng.uniform(0.99, 1.01)
    text = _second_order_doc(theta0, omega, q)
    decimate, config = (0.5, OPT_FD_CONFIG) if jacobian == "fd" else (None, OPT_AD_CONFIG)
    ref = _Reference()

    def run(T):
        d = T.call("diagram.parse", parse_diagram, text)
        res = T.call("cli.optimize", optimize_scalar, d, "zeta", "integrand", config,
                     theta0, jacobian=jacobian, decimate=decimate)
        return {"d": d, "res": res}

    def check(o):
        problems = []
        res = o["res"]
        if not math.isfinite(res["cost"]):
            problems.append(f"cost {res['cost']}")
        if jacobian == "ad":
            # the infinite-horizon optimum of this cost is sqrt(1 + q^2) / 2
            if not res["converged"]:
                problems.append("did not converge")
            _limit(problems, "zeta_opt vs sqrt(1+q^2)/2",
                   abs(res["theta_opt"] - math.sqrt(1.0 + q * q) / 2.0), 5e-3)
        elif not ref.matches([res["history"]]):
            # finite differences of the single-precision samples are noise,
            # so the only reference is the same difference taken here
            m = flatten(o["d"])
            for z, g in res["history"]:
                delta = math.sqrt(np.finfo(float).eps) * abs(z)
                g_ref = (_decimated_cost(m, z + delta) - _decimated_cost(m, z)) / delta
                _limit(problems, f"dJ/dzeta at {z:.6g} vs forward difference",
                       abs(g - g_ref), 1e-9 * max(1.0, abs(g_ref)))
            ref.keep([res["history"]], problems)
        c = Counter({"diagram.blocks": len(o["d"].blocks),
                     "cli.optimize_iterations": res["iterations"]})
        return Checked(problems, c)

    return Job(f"opt-{jacobian}", run, check)


def _ident_job(rng) -> Job:
    params = {"zeta": rng.uniform(0.3, 0.9), "omega": rng.uniform(0.9, 1.1),
              "q": rng.uniform(0.9, 1.1)}
    text = _second_order_doc(**params)
    names = list(params)
    ref = _Reference()

    def run(T):
        d = T.call("diagram.parse", parse_diagram, text)
        m = T.call("flatten.flatten", flatten, d)
        rep = T.call("analysis.identifiability", identifiability_test, m, times=IDENT_TIMES,
                     config=IDENT_CONFIG, theta_params=names)
        return {"d": d, "m": m, "rep": rep}

    def check(o):
        problems = []
        m, rep = o["m"], o["rep"]
        if rep.verdict != "identifiable+observable":
            problems.append(f"verdict {rep.verdict}")

        def at_samples(p):
            tr = integrate(m, IDENT_CONFIG, theta=dict(zip(names, map(float, p))))
            return np.concatenate([tr.outputs[int(np.argmin(np.abs(tr.times - t)))]
                                   for t in rep.times])

        if not ref.matches([rep.matrix]):
            fd = finite_difference(at_samples, [params[p] for p in names])
            cmp = compare_report(rep.matrix, fd, tol=1e-5)
            if not cmp.passed:
                problems.append(f"sensitivity matrix vs central FD: {cmp}")
            ref.keep([rep.matrix], problems)
        c = Counter({"diagram.blocks": len(o["d"].blocks),
                     "analysis.columns": len(rep.column_labels)})
        _count_flatten(c, m)
        _count_tapes(c, m)
        return Checked(problems, c)

    return Job("ident", run, check)


def _smooth_sens(rng, workdir, files) -> list[Job]:
    jobs = [_lib_sens_job(rng) for _ in range(9)]                             # light
    jobs += [_optimize_job(rng, "fd") for _ in range(LIGHT - 9)]
    jobs += [_cli_sens_job(rng, workdir, files, i) for i in range(MIDDLE)]    # middle
    jobs += [_ident_job(rng) for _ in range(9)]                               # heavy
    jobs += [_optimize_job(rng, "ad") for _ in range(HEAVY - 9)]
    return jobs


# ---------------------------------------------------------------------------
# impact-events: particles meeting impact_event surfaces
# ---------------------------------------------------------------------------

IMPACT_STEP = 2e-3


def _ballistic_model(height: float, g: float, mass: float, floors):
    """q' = v, v' = -g; floors are (height, e_neg, e_pos) impact surfaces.

    A floor's guard is ``y - q``, which rises as the particle falls through
    it; ``e_neg`` is the potential above the floor, ``e_pos`` below.
    """
    b = TapeBuilder(4)                   # [q, v, t, g]
    q, v = b.input(0), b.input(1)
    tape = b.build([v, b.neg(b.input(3)), q, v])
    metric = np.array([[mass]])
    events = []
    for y, e_neg, e_pos in floors:
        gb = TapeBuilder(2)              # [q, t]
        guard = gb.build([gb.sub(gb.const(y), gb.input(0))])
        surface = ImpactSurface(1, lambda _q: metric, lambda _q, e=e_pos: e,
                                lambda _q, e=e_neg: e, guard)
        events.append(impact_event(surface, 2))
    return make_ode_model(2, tape, ("g",), {"g": g}, ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr(height), parse_expr(0.0)),
                          events=tuple(events))


def _impact_job(kind, model, tf, expected) -> Job:
    """``expected``: list of (floor index, time, v_pre, v_post) in order."""
    cfg = SimConfig(step=IMPACT_STEP, tf=tf)

    def run(T):
        trp = T.call("sim.integrate", integrate, model, cfg)
        ms = T.call("sim.extend", sensitivity_extend, model, "g")
        trs = T.call("sim.integrate", integrate, ms, cfg)
        return {"trp": trp, "ms": ms, "trs": trs}

    def check(o):
        problems = []
        trp, trs = o["trp"], o["trs"]
        if len(trp.events) != len(expected):
            problems.append(f"{len(trp.events)} events, expected {len(expected)}")
        for ev, (floor, t_ref, v_pre, v_post) in zip(trp.events, expected):
            if ev.guard_index != floor:
                problems.append(f"event on floor {ev.guard_index}, expected {floor}")
                break
            _limit(problems, "event time", abs(ev.time - t_ref), 1e-6)
            _limit(problems, "pre-impact speed", abs(ev.pre_state[1] - v_pre), 1e-5)
            # energy balance of the impact law: m v+^2 - m v-^2 = e_neg - e_pos
            _limit(problems, "post-impact speed", abs(ev.post_state[1] - v_post), 1e-5)
        # the sensitivity run's primal columns repeat the primal run
        if trs.states.shape[0] != trp.states.shape[0]:
            problems.append("sensitivity run has another step count")
        else:
            _limit(problems, "primal columns of the sensitivity run",
                   _max_abs(trs.states[:, :2], trp.states), 1e-12)
        # sensitivities are checked only before the first event: no
        # saltation jump is applied at impacts yet
        t_first = trp.events[0].time if trp.events else math.inf
        pre = trs.times < t_first
        t = trs.times[pre]
        _limit(problems, "dq/dg before the first event",
               _max_abs(trs.states[pre, 2], -0.5 * t * t), 1e-9)
        _limit(problems, "dv/dg before the first event", _max_abs(trs.states[pre, 3], -t), 1e-9)
        c = Counter()
        _count_tapes(c, model, o["ms"])
        _count_runs(c, trp, trs)
        impacts = [(model.events[ev.guard_index].action, ev.pre_state[:1], ev.pre_state[1:2],
                    ev.time) for ev in trp.events]
        probe = {"tape": (o["ms"].tape, _points(o["ms"], trs)), "impacts": impacts}
        return Checked(problems, c, probe)

    return Job(kind, run, check)


def _bounce_job(rng, bounces: int) -> Job:
    """Rebounds off one floor whose barrier exceeds the impact energy."""
    height, g = rng.uniform(0.047, 0.053), 9.81 * rng.uniform(0.98, 1.02)
    mass = rng.uniform(0.5, 2.0)
    v1 = math.sqrt(2.0 * g * height)
    barrier = mass * v1 * v1 * rng.uniform(1.5, 3.0)
    t1, period = v1 / g, 2.0 * v1 / g
    expected = [(0, t1 + j * period, -v1, v1) for j in range(bounces)]
    model = _ballistic_model(height, g, mass, [(0.0, 0.0, barrier)])
    # the horizon ends half a flight after the last impact
    return _impact_job(f"bounce{bounces}", model, t1 + (bounces - 0.5) * period, expected)


def _ladder_job(rng, floors_n: int) -> Job:
    """Refraction through a ladder of floors: barriers below the particle's
    energy and potential drops, each its own impact surface."""
    g, mass, gap = 9.81 * rng.uniform(0.98, 1.02), rng.uniform(0.5, 2.0), rng.uniform(0.14, 0.16)
    y, v, t = floors_n * gap + 0.1, 0.0, 0.0
    floors, expected = [], []
    for j in range(floors_n):
        y_next = (floors_n - 1 - j) * gap
        dt = (v + math.sqrt(v * v + 2.0 * g * (y - y_next))) / g
        t, v, y = t + dt, v - g * dt, y_next
        if j % 2:
            delta = -mass * v * v * rng.uniform(0.2, 0.6)      # barrier, crossed
        else:
            delta = mass * rng.uniform(0.1, 1.0)                 # potential drop
        v_post = -math.sqrt(v * v + delta / mass)
        floors.append((y, 0.0, -delta))
        expected.append((j, t, v, v_post))
        v = v_post
    model = _ballistic_model(floors_n * gap + 0.1, g, mass, floors)
    # the horizon ends 0.1 s after the last floor
    return _impact_job(f"ladder{floors_n}", model, t + 0.1, expected)


def _impact_events(rng, workdir, files) -> list[Job]:
    jobs = [_ladder_job(rng, 8) for _ in range(LIGHT)]
    jobs += [_bounce_job(rng, 10) for _ in range(MIDDLE)]
    jobs += [_bounce_job(rng, 20) for _ in range(HEAVY)]
    return jobs


# ---------------------------------------------------------------------------
# delay-sens: x' = -a x(t - h), differentiated in the delay h
# ---------------------------------------------------------------------------

DELAY_STEP = 1e-2


def _delay_doc(a: float, h: float, c: float) -> str:
    return json.dumps({
        "schema": 1, "name": "delayed_decay", "params": {"h": h, "a": a},
        "blocks": [
            {"id": "I", "kind": "Integrator", "initial": c},
            {"id": "D", "kind": "TransportDelay", "delay": "h", "prehistory": c},
            {"id": "N", "kind": "Gain", "gain": "-a"}],
        "links": [{"from": "I.out", "to": "D.in"}, {"from": "D.out", "to": "N.in"},
                  {"from": "N.out", "to": "I.in"}],
        "outputs": [{"name": "y", "from": "I.out"}]})


def _delay_job(rng, tf: float) -> Job:
    # h is a whole number of steps: the fixed-step march does not locate the
    # method-of-steps breakpoints at t = h, 2h, ..., and stepping across one
    # costs the closed-form check its accuracy (both routes alike)
    a, c = rng.uniform(0.8, 1.2), rng.uniform(0.5, 1.5)
    h = DELAY_STEP * int(rng.integers(45, 56))
    text = _delay_doc(a, h, c)
    cfg = SimConfig(step=DELAY_STEP, tf=tf)

    def run(T):
        d = T.call("diagram.parse", parse_diagram, text)
        d1 = T.call("agdm.diff", agdm_diff, d, "h")
        m1 = T.call("flatten.flatten", flatten, d1)
        tr1 = T.call("sim.integrate", integrate, m1, cfg)
        m0 = T.call("flatten.flatten", flatten, d)
        md = T.call("sim.extend", dde_extend, m0, "h")
        trd = T.call("sim.integrate", integrate, md, cfg)
        return {"d": d, "d1": d1, "m1": m1, "m0": m0, "md": md, "tr1": tr1, "trd": trd}

    def check(o):
        problems = []
        tr1, trd = o["tr1"], o["trd"]
        t = tr1.times
        # method of steps: x = c(1 - a t) on [0, h], then
        # x = c(1 - a t + a^2 (t - h)^2 / 2) and dx/dh = -c a^2 (t - h) on (h, 2h]
        w = t <= 2.0 * h
        tw = t[w]
        y_ref = c * (1.0 - a * tw + np.where(tw > h, 0.5 * a * a * (tw - h) ** 2, 0.0))
        dy_ref = np.where(tw > h, -c * a * a * (tw - h), 0.0)
        # the solution's slope jumps at t = 0, so the march converges at
        # second order here: about 0.1 * c a^2 * step^2 is the expected error
        tol = DELAY_STEP ** 2
        _limit(problems, "y vs method of steps", _max_abs(tr1.output("y")[w], y_ref), tol)
        _limit(problems, "agdm dy/dh vs method of steps",
               _max_abs(tr1.output("dy/dh")[w], dy_ref), tol)
        _limit(problems, "dde_extend dy/dh vs method of steps",
               _max_abs(trd.output("dy/dh")[w], dy_ref), tol)
        if len(trd.times) != len(t):
            problems.append("routes took different step counts")
        else:
            _limit(problems, "agdm vs dde_extend",
                   _max_abs(tr1.output("dy/dh"), trd.output("dy/dh")), 1e-9)
        cnt = Counter({"diagram.blocks": len(o["d"].blocks)})
        _count_diff(cnt, o["d1"])
        _count_flatten(cnt, o["m1"])
        _count_flatten(cnt, o["m0"])
        _count_tapes(cnt, o["m1"], o["m0"], o["md"])
        _count_runs(cnt, tr1, trd)
        return Checked(problems, cnt, {"tape": (o["md"].tape, _points(o["md"], trd))})

    return Job(f"delay-tf{tf:g}", run, check)


def _delay_sens(rng, workdir, files) -> list[Job]:
    horizons = [3.0] * LIGHT + [6.0] * MIDDLE + [10.0] * HEAVY
    return [_delay_job(rng, tf) for tf in horizons]


# ---------------------------------------------------------------------------
# large-diagram: seeded chains of Sum/Gain/Integrator/Saturation/TF/Switch/Lookup
# ---------------------------------------------------------------------------

CHAIN_CONFIG = SimConfig(step=0.01, tf=2.0)


def _chain_doc(rng, stages: int) -> str:
    params = {"k": rng.uniform(0.9, 1.1)}
    blocks = [{"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
              {"id": "Clk", "kind": "Step", "time": rng.uniform(0.6, 1.0), "level": 1.0}]
    links = []
    prev = "U.out"
    for i in range(stages):
        tau, s = f"tau{i}", f"S{i}"
        params[tau] = rng.uniform(0.3, 0.6)
        hi = rng.uniform(0.7, 0.9)
        blocks += [
            {"id": f"{s}E", "kind": "Sum", "signs": "+-"},
            {"id": f"{s}G", "kind": "Gain", "gain": f"k/{tau}"},
            {"id": f"{s}I", "kind": "Integrator", "initial": 0.0},
            {"id": f"{s}Sat", "kind": "Saturation", "lo": -hi, "hi": hi},
            {"id": f"{s}T", "kind": "TransferFnS", "num": [1.0],
             "den": [1.0, rng.uniform(0.1, 0.3)]},
            {"id": f"{s}W", "kind": "Switch", "threshold": 0.5},
            {"id": f"{s}L", "kind": "LookupTable1D", "breakpoints": [-1.0, 0.0, 0.4, 1.0],
             "values": [-1.0, 0.0, rng.uniform(0.4, 0.6), 1.1]},
        ]
        links += [
            {"from": prev, "to": f"{s}E.in1"}, {"from": f"{s}I.out", "to": f"{s}E.in2"},
            {"from": f"{s}E.out", "to": f"{s}G.in"}, {"from": f"{s}G.out", "to": f"{s}I.in"},
            {"from": f"{s}I.out", "to": f"{s}Sat.in"}, {"from": f"{s}Sat.out", "to": f"{s}T.in"},
            {"from": f"{s}T.out", "to": f"{s}W.in1"}, {"from": "Clk.out", "to": f"{s}W.in2"},
            {"from": f"{s}Sat.out", "to": f"{s}W.in3"}, {"from": f"{s}W.out", "to": f"{s}L.in"},
        ]
        prev = f"{s}L.out"
    return json.dumps({"schema": 1, "name": f"chain{stages}", "params": params,
                       "blocks": blocks, "links": links,
                       "outputs": [{"name": "y", "from": prev}]})


def _chain_job(rng, workdir, files, i, stages: int) -> Job:
    text = _chain_doc(rng, stages)
    src, out = workdir / f"chain-{i}.json", workdir / f"chain-{i}-d2.json"
    files[src] = text
    argv = ["diff", str(src), "--theta", "k", "--order", "2", "--out", str(out)]
    ref = _Reference()
    unverified = [0]

    def run(T):
        with contextlib.redirect_stderr(io.StringIO()):
            rc = T.call("cli.diff", hybridad.cli.main, argv)
        if rc != 0:
            return {"rc": rc}
        d2 = T.call("diagram.parse", parse_diagram, out.read_text(encoding="utf-8"))
        m2 = T.call("flatten.flatten", flatten, d2)
        tr2 = T.call("sim.integrate", integrate, m2, CHAIN_CONFIG)
        d = T.call("diagram.parse", parse_diagram, text)
        d1 = T.call("agdm.diff", agdm_diff, d, "k")
        report = T.call("diagram.validate", validate, d1)
        m0 = T.call("flatten.flatten", flatten, d)
        ms = T.call("sim.extend", sensitivity_extend, m0, "k")
        trs = T.call("sim.integrate", integrate, ms, CHAIN_CONFIG)
        return {"rc": rc, "d": d, "d1": d1, "d2": d2, "report": report, "m0": m0,
                "m2": m2, "ms": ms, "tr2": tr2, "trs": trs}

    def check(o):
        if o["rc"] != 0:
            return Checked([f"diff exit code {o['rc']}"], Counter())
        problems = []
        if not o["report"].ok:
            problems.append(f"first-order diagram invalid: {o['report']}")
        # differentiating again keeps the first-order diagram unchanged
        if not {(b.id, b.kind) for b in o["d1"].blocks} <= {(b.id, b.kind) for b in o["d2"].blocks}:
            problems.append("order-2 diagram lost blocks of the order-1 diagram")
        tr2, trs = o["tr2"], o["trs"]
        dy = trs.output("dy/dk")
        _limit(problems, "agdm vs sensitivity_extend dy/dk",
               _max_abs(tr2.output("dy/dk"), dy), 1e-9)
        # d2y/dk2 against central differences of the sensitivity-ODE dy/dk.
        # The fixed-step map has kinks in k where a saturation or lookup
        # branch flips, and a difference across one is no derivative.  A
        # sample counts as verifiable where the differences at two step
        # sizes agree to a tenth of the tolerance; a kink then moves the
        # fine one by less than the tolerance.  The other samples are
        # counted, not checked.
        d2 = tr2.output("d2y/dk2")
        if not ref.matches([d2, dy]):
            k0 = o["ms"].params["k"]
            memo = {k0: dy}

            def dy_at(kv):
                kk = float(kv[0])
                if kk not in memo:
                    memo[kk] = integrate(o["ms"], CHAIN_CONFIG, theta={"k": kk}).output("dy/dk")
                return memo[kk]

            fine = finite_difference(dy_at, [k0])[:, 0]
            coarse = finite_difference(dy_at, [k0], FdScheme(eps_rel=1e-5))[:, 0]
            scale = np.maximum(1.0, np.abs(d2))
            smooth = np.abs(fine - coarse) <= 1e-6 * scale
            unverified[0] = int(np.count_nonzero(~smooth))
            _limit(problems, "d2y/dk2 vs central differences",
                   float(np.max((np.abs(d2 - fine) / scale)[smooth], initial=0.0)), 1e-5)
            ref.keep([d2, dy], problems)
        c = Counter({"diagram.blocks": len(o["d"].blocks) + len(o["d2"].blocks)})
        _count_diff(c, o["d1"])
        for m in (o["m2"], o["m0"]):
            _count_flatten(c, m)
        _count_tapes(c, o["m2"], o["m0"], o["ms"])
        _count_runs(c, tr2, trs)
        probe = {"tape": (o["m2"].tape, _points(o["m2"], tr2))}
        return Checked(problems, c, probe, unverified=unverified[0])

    return Job(f"chain{stages}", run, check)


def _large_diagram(rng, workdir, files) -> list[Job]:
    stages = [2] * LIGHT + [3] * MIDDLE + [5] * HEAVY
    return [_chain_job(rng, workdir, files, i, n) for i, n in enumerate(stages)]


_BUILDERS = {
    "smooth-sens": _smooth_sens,
    "impact-events": _impact_events,
    "delay-sens": _delay_sens,
    "large-diagram": _large_diagram,
}
