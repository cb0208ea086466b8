"""Batch command-line front end.

Subcommands: ``validate``, ``simulate``, ``diff`` (graphic
differentiation), ``sens`` (sensitivity CSVs via the diagram route, the
sensitivity-ODE route, or both with a discrepancy check), ``optimize``
(scalar parameter tuning on an integral cost), and ``table``
(regenerates the reference numeric tables from the live modules).

Exit codes: 0 ok, 2 validation failure (also a schema error, an unknown
parameter, a second derivative through a parameter-dependent delay, which
``diff`` refuses, or a diagram or ``--out`` file that cannot be read or
written), 3 simulation failure, 4 optimization failure.
Identical inputs and flags produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .agdm import agdm_diff, cone, d_output_name
from .analysis import sequence_probe
from .diagram import Diagram, Violation, diagram_to_json, load_diagram, parse_diagram, validate
from .errors import (DelayOrderExceeded, HybridAdError, SchemaError, UnknownParameter,
                     ValidationError)
from .flatten import flatten
from .jet import jet_derivative, jet_var
from .sim import SimConfig, csv_text, integrate, sensitivity_extend
from .solvers import (
    ImplicitSystem,
    implicit_second_derivative,
    newton,
    newton_jet,
    warm_start_probe,
)
from .tape import TapeBuilder, tape_jet_eval

SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _read_diagram(path: str, parse=parse_diagram):
    """``parse`` of the text of ``path``; a file that is not UTF-8 fails as
    an unreadable one does (``OSError``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--step", type=float, default=1e-3, help="fixed step size [s]")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tf", type=float, default=5.0)
    p.add_argument("--method", choices=("midpoint", "rk4"), default="rk4")
    p.add_argument("--event-tol", type=float, default=None, dest="event_tol")
    p.set_defaults(sim_flags=p)     # ``main`` checks them into ``args.config``


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(times, columns: dict[str, np.ndarray]) -> str:
    return csv_text(["t", *columns], np.column_stack([times, *columns.values()]).tolist())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    report = validate(_read_diagram(args.diagram, load_diagram))
    if report.ok:
        print("ok")
        return 0
    print(str(report), file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    d = _read_diagram(args.diagram)
    m = flatten(d)
    tr = integrate(m, args.config)
    _write(args.out, tr.to_csv())
    return 0


def cmd_diff(args) -> int:
    d = _read_diagram(args.diagram)
    out = d
    for _ in range(args.order):
        out = agdm_diff(out, args.theta)
    _write(args.out, diagram_to_json(out) + "\n")
    print(f"blocks: {len(d.blocks)} -> {len(out.blocks)}, "
          f"links: {len(d.links)} -> {len(out.links)}, "
          f"outputs: {len(d.outputs)} -> {len(out.outputs)}", file=sys.stderr)
    return 0


def _sens_columns(d: Diagram, base, tr0, thetas, config, route: str):
    """Output columns of the base run ``tr0`` plus one sensitivity column
    per (output, theta)."""
    cols: dict[str, np.ndarray] = {nm: tr0.output(nm) for nm in base.output_names}
    if route == "agdm":
        runs = ((th, integrate(flatten(agdm_diff(d, th)), config)) for th in thetas)
    else:
        tr = integrate(sensitivity_extend(base, thetas), config)
        runs = [(th, tr) for th in thetas]
    for th, tr in runs:
        for nm in base.output_names:
            dn = d_output_name(nm, th)
            cols[dn] = tr.output(dn)
    return cols


def cmd_sens(args) -> int:
    d = _read_diagram(args.diagram)
    config = args.config
    thetas = args.theta
    for th in thetas:
        if th not in d.params:
            raise UnknownParameter(th, d.params.keys())
    base = flatten(d)
    tr0 = integrate(base, config)
    if args.route in ("agdm", "sensode"):
        cols = _sens_columns(d, base, tr0, thetas, config, args.route)
        _write(args.out, _csv(tr0.times, cols))
        return 0
    cols_a = _sens_columns(d, base, tr0, thetas, config, "agdm")
    cols_s = _sens_columns(d, base, tr0, thetas, config, "sensode")
    worst = 0.0
    worst_col = ""
    for nm in cols_a:
        err = float(np.max(np.abs(cols_a[nm] - cols_s[nm])))
        if err > worst:
            worst, worst_col = err, nm
    print(f"route discrepancy: max |agdm - sensode| = {worst:.3e}"
          + (f" on column {worst_col}" if worst_col else ""), file=sys.stderr)
    _write(args.out, _csv(tr0.times, cols_a))
    return 0


# -- optimize ----------------------------------------------------------------

def _decimation(decimate: float | None, step: float) -> int | None:
    """Steps per sample of the decimated cost channel (None: every step);
    ValueError unless ``decimate`` is a whole positive number of steps."""
    if decimate is None:
        return None
    q = decimate / step
    every = round(q) if math.isfinite(q) else 0
    if every < 1 or abs(every * step - decimate) > 1e-9 * max(1.0, decimate):
        raise ValueError("--decimate must be a multiple of the step")
    return every


def _cost_evaluator(d: Diagram, theta: str, cost: str, config: SimConfig,
                    decimate: float | None, use_ad: bool):
    """Returns (J(z), g(z)) callables over the clamped scalar parameter.

    The cost is the time integral of the named output (trapezoid on the
    full step grid).  With ``decimate`` the integrand is observed through
    a rate-transition channel: sampled every ``decimate`` seconds and
    accumulated in single precision, which is what makes finite
    differences of the observed cost collapse while the propagated
    sensitivity channel stays informative.

    J and g integrate only the cost output's cone (:func:`agdm.cone`);
    the whole diagram is flattened first, so its errors raise as before.
    Each kept state runs the same operations, so no bit changes.
    """
    if cost not in flatten(d).output_names:
        raise ValidationError([Violation("no-output", f"no output {cost!r}")])
    d = cone(d, cost)
    base = flatten(d)
    dcost = d_output_name(cost, theta)
    maug = flatten(agdm_diff(d, theta)) if use_ad else None
    every = _decimation(decimate, config.step)

    def accumulate(times, series) -> float:
        if every is None:
            return float(np.trapezoid(series, times))
        acc = np.float32(0.0)
        for v in series[every::every]:
            acc = np.float32(acc + np.float32(v) * np.float32(decimate))
        return float(acc)

    def J(z: float) -> float:
        tr = integrate(base, config, theta={theta: z})
        return accumulate(tr.times, tr.output(cost))

    if use_ad:
        def g(z: float) -> float:
            tr = integrate(maug, config, theta={theta: z})
            return accumulate(tr.times, tr.output(dcost))
    else:
        def g(z: float) -> float:
            delta = SQRT_EPS * abs(z) if z != 0.0 else SQRT_EPS
            return (J(z + delta) - J(z)) / delta

    return J, g


def optimize_scalar(d: Diagram, theta: str, cost: str, config: SimConfig,
                    theta0: float, jacobian: str = "ad",
                    decimate: float | None = None,
                    lo: float = 0.001, hi: float = 3.0,
                    max_iter: int = 60):
    """Damped secant root-finding on dJ/dtheta with iterates clamped to
    [lo, hi]; ``jacobian`` is "ad" (the cost cone differentiated) or "fd"
    (a forward difference of J).  ValueError on a non-finite theta0,
    another jacobian, or unless lo < hi are finite."""
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0!r}")
    if jacobian not in ("ad", "fd"):
        raise ValueError(f"jacobian must be 'ad' or 'fd', got {jacobian!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo!r}, hi={hi!r}")
    J, g = _cost_evaluator(d, theta, cost, config, decimate, jacobian == "ad")

    def clamp(z):
        return min(hi, max(lo, z))

    history = []
    z0 = clamp(theta0)
    g0 = g(z0)
    history.append((z0, g0))
    if g0 == 0.0:
        return {"theta_opt": z0, "iterations": 1, "converged": True,
                "history": history, "cost": J(z0)}
    z1 = clamp(z0 + max(0.05, 0.1 * abs(z0)))
    g1 = g(z1)
    history.append((z1, g1))
    converged = False
    for _ in range(max_iter):
        if g1 == 0.0 or abs(z1 - z0) <= 1e-9 * max(1.0, abs(z1)):
            converged = True
            break
        slope = (g1 - g0) / (z1 - z0)
        if slope == 0.0 or not math.isfinite(slope):
            step = -math.copysign(0.1, g1)
        else:
            step = -g1 / slope
        z_new = clamp(z1 + step)
        g_new = g(z_new)
        halvings = 0
        while abs(g_new) > abs(g1) and halvings < 30:
            step *= 0.5
            z_new = clamp(z1 + step)
            if z_new == z1:
                break
            g_new = g(z_new)
            halvings += 1
        history.append((z_new, g_new))
        if z_new == z1:
            converged = True
            break
        z0, g0, z1, g1 = z1, g1, z_new, g_new
    else:
        converged = abs(g1) <= 1e-9 * max(1.0, abs(history[0][1]))
    return {"theta_opt": z1 if len(history) > 1 else z0,
            "iterations": len(history),
            "converged": converged, "history": history, "cost": J(z1)}


def cmd_optimize(args) -> int:
    d = _read_diagram(args.diagram)
    if args.theta not in d.params:
        raise UnknownParameter(args.theta, d.params.keys())
    config = args.config
    res = optimize_scalar(d, args.theta, args.cost, config, args.theta0,
                          jacobian=args.jacobian, decimate=args.decimate)
    lines = [f"{args.theta}_opt = {res['theta_opt']:.10g}",
             f"iterations = {res['iterations']}",
             f"cost = {res['cost']:.10g}"]
    lines += [f"  theta={z:.10g}  dJ/dtheta={gv:.6e}" for z, gv in res["history"]]
    report = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, report)
    sys.stdout.write(report)
    if not res["converged"]:
        print("optimization did not converge", file=sys.stderr)
        return 4
    return 0


# -- reference tables ---------------------------------------------------------

def one_step_tape(method: str, y0: float = 1.0):
    """Tape of one integrator step for y' = -y^2 as a function of the step."""
    b = TapeBuilder(1)
    h = b.input(0)

    def f(y):
        return b.neg(b.mul(y, y))

    y = b.const(y0)
    if method == "midpoint":
        k1 = f(y)
        mid = b.add(y, b.mul(b.const(0.5), b.mul(h, k1)))
        out = b.add(y, b.mul(h, f(mid)))
        return b.build([out])
    k1 = f(y)
    y2 = b.add(y, b.mul(b.const(0.5), b.mul(h, k1)))
    k2 = f(y2)
    y3 = b.add(y, b.mul(b.const(0.5), b.mul(h, k2)))
    k3 = f(y3)
    y4 = b.add(y, b.mul(h, k3))
    k4 = f(y4)
    s = b.add(b.add(k1, b.mul(b.const(2.0), k2)),
              b.add(b.mul(b.const(2.0), k3), k4))
    out = b.add(y, b.mul(b.const(1.0 / 6.0), b.mul(h, s)))
    return b.build([out])


def step_map_derivatives(method: str, order: int = 11) -> list[float]:
    """Derivatives of the one-step map at step 0 -- what an integrator of
    that order can at best deliver for derivatives of the true solution."""
    t = one_step_tape(method)
    jet = tape_jet_eval(t, [jet_var(0.0, order)])[0]
    return [jet_derivative(jet, i) for i in range(1, order + 1)]


def _sqrt_system() -> ImplicitSystem:
    b = TapeBuilder(2)
    x, a = b.input(0), b.input(1)
    return ImplicitSystem(b.build([b.sub(b.mul(x, x), a)]), 1, 1)


def table_rk4_derivs() -> str:
    exact = [-1.0, 2.0, -6.0, 24.0, -120.0, 720.0, -5040.0, 40320.0,
             -362880.0, 3628800.0, -39916800.0]
    rows = [("exact", exact),
            ("midpoint", step_map_derivatives("midpoint")),
            ("rk4", step_map_derivatives("rk4"))]
    lines = ["derivatives of y(t)=1/(1+t) at 0, via the one-step map as a jet",
             "order:    " + "".join(f"{i:>14d}" for i in range(1, 12))]
    for name, vals in rows:
        lines.append(f"{name:<9s} " + "".join(f"{v:>14.6g}" for v in vals))
    return "\n".join(lines) + "\n"


def table_newton_sqrt() -> str:
    s = _sqrt_system()
    loose = newton(s, [1.00001], [1.5], tol=1e-4)
    tight = newton(s, [1.00001], [1.5], tol=1e-14)
    d2_loose = implicit_second_derivative(s, loose.root, [1.5])
    d2_tight = implicit_second_derivative(s, tight.root, [1.5])
    j3 = newton_jet(s, 2.0, 1.0, order=19, iterations=3)
    jx = newton_jet(s, 2.0, 1.0, order=19, tol=1e-12)
    lines = [
        "second derivative of sqrt(a) at a=1.5 via implicit differentiation",
        f"  through tol=1e-4 iteration : {d2_loose:.10f}",
        f"  at a converged root        : {d2_tight:.10f}",
        "",
        "19th derivative of sqrt(a) at a=2 via Newton on series",
        f"  3 iterations  : {jet_derivative(j3, 19):.9e}",
        f"  converged     : {jet_derivative(jx, 19):.9e}",
    ]
    return "\n".join(lines) + "\n"


def table_sequence() -> str:
    return str(sequence_probe()) + "\n"


def table_warmstart() -> str:
    s = _sqrt_system()
    grid = np.arange(0.1, 2.0 + 1e-12, 1e-3)
    lines = ["warm-started Newton across a = 0.1..2.0 (step 1e-3):"]
    for tol in (5e-2, 1e-14):
        rep = warm_start_probe(s, grid, tol)
        lines.append(f"  tol={tol:g}: locally-constant fraction "
                     f"{rep.constant_fraction:.4f}")
    return "\n".join(lines) + "\n"


_TABLES = {
    "rk4-derivs": table_rk4_derivs,
    "newton-sqrt": table_newton_sqrt,
    "sequence": table_sequence,
    "warmstart": table_warmstart,
}


def cmd_table(args) -> int:
    sys.stdout.write(_TABLES[args.which]())
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    p = argparse.ArgumentParser(prog="hybridad",
                                description="block-diagram differentiation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a diagram file")
    v.add_argument("diagram")
    v.set_defaults(fn=cmd_validate)

    s = sub.add_parser("simulate", help="flatten and integrate a diagram")
    s.add_argument("diagram")
    _add_sim_flags(s)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_simulate)

    df = sub.add_parser("diff", help="graphic differentiation of a diagram")
    df.add_argument("diagram")
    df.add_argument("--theta", required=True)
    df.add_argument("--order", type=int, choices=(1, 2), default=1)
    df.add_argument("--out", default=None)
    df.set_defaults(fn=cmd_diff)

    sn = sub.add_parser("sens", help="sensitivity CSV (diagram and/or ODE route)")
    sn.add_argument("diagram")
    sn.add_argument("--theta", action="append", required=True)
    sn.add_argument("--route", choices=("agdm", "sensode", "both"), default="agdm")
    _add_sim_flags(sn)
    sn.add_argument("--out", default=None)
    sn.set_defaults(fn=cmd_sens)

    op = sub.add_parser("optimize", help="tune one scalar parameter on an integral cost")
    op.add_argument("diagram")
    op.add_argument("--theta", required=True)
    op.add_argument("--cost", required=True, help="output accumulated as the cost integrand")
    op.add_argument("--jacobian", choices=("ad", "fd"), default="ad")
    op.add_argument("--theta0", type=float, default=0.1)
    op.add_argument("--decimate", type=float, default=None,
                    help="rate-transition sampling interval of the cost channel [s]")
    _add_sim_flags(op)
    op.add_argument("--out", default=None)
    op.set_defaults(fn=cmd_optimize)

    tb = sub.add_parser("table", help="regenerate reference numeric tables")
    tb.add_argument("which", choices=sorted(_TABLES))
    tb.set_defaults(fn=cmd_table)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "sim_flags" in args:     # a value SimConfig, the decimation or the start rejects is a
        try:                    # bad flag: usage, exit status 2
            args.config = SimConfig(step=args.step, tf=args.tf, t0=args.t0,
                                    method=args.method, event_tol=args.event_tol)
            _decimation(getattr(args, "decimate", None), args.step)
            if not math.isfinite(getattr(args, "theta0", 0.0)):
                raise ValueError(f"--theta0 must be finite, got {args.theta0!r}")
        except ValueError as exc:
            args.sim_flags.error(str(exc))
    try:
        return args.fn(args)
    except (ValidationError, UnknownParameter, DelayOrderExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except HybridAdError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
