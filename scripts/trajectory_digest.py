#!/usr/bin/env python3
"""Print a SHA-256 of each trajectory and diagram the benchmark's jobs compute.

For each workload and seed, every job of ``perfbench/workloads.py`` runs
once, with its output check, in job-list order.  ``integrate`` and
``diagram_to_json`` are wrapped in every loaded module that holds them, so
trajectories and diagram documents computed through the CLI, the analysis
helpers and the checks are seen too.  Each returned ``Trajectory`` prints
one line, and so does each document ``diagram_to_json`` returns:

    <workload> <seed> <job index> <job kind> <call index> <sha256 of to_csv()>
    <workload> <seed> <job index> <job kind> json <call index> <sha256 of the document>

``optimize_scalar`` is wrapped too, and each result it returns prints one
line; the optimizer integrates only its cost output's cone, so these
lines pin its answers where its own trajectories differ from the whole
diagram's:

    <workload> <seed> <job index> <job kind> opt <call index> <sha256 of repr(result)>

After the workloads, each shipped model under ``models/`` prints one
line for its trajectory at CI's model-loop settings (step 1e-3, t0 0, tf
1, rk4, as ``hybridad simulate MODEL --tf 1``), and one line per
derivative document: the first derivative in each parameter ``p`` and
every second partial ``d/dq`` of ``d/dp`` (``p`` and ``q`` may be the same),
as ``hybridad diff`` writes them; a second derivative that agdm refuses
(``DelayOrderExceeded``) prints nothing.  These reach every block kind and
the discrete models, which the workloads' chains do not:

    model <model> csv <sha256 of to_csv()>
    model <model> diff <p>[,<q>] <sha256 of the document>

CLI input files go to a temporary directory, and no bytecode is written,
so nothing is written under ``perfbench/``.  Two checkouts compute the same
trajectories and documents bit for bit when this prints the same lines for
both.  A CSV cannot show an array's type or shape, so each trajectory's
arrays are also checked against the layout (``layout_problems``), and a
departure is a problem of the job.  The exit status is 1 when a job
raises or its check reports a problem.

Standard error gets one more line per workload and seed, whose jobs start
from an empty code cache: how many models the simulator bound to generated
code, how many times it generated code (cache misses), how many distinct
sources those generations wrote, how many lines they hold together, how
many of those lines are node statements, which assign a ``_v<i>``,
outside ``march`` and ``step`` (whose RK stages, and the march's accepted
node and guard checks, repeat the statements of ``ev`` and the guards),
and how many guard crossings
the simulator located, with the calls of the RK step and of the guards
that took, how many lines the ``while True:`` loop of ``march`` holds,
summed over the distinct sources (what each step of the march runs
through), and how many times the tape interpreter ran (``tape._run``)
while ``integrate`` was active, which generated code leaves to naming a
failing node:

    <workload> <seed>: <models> models, <misses> generations, <distinct> distinct sources, <lines> lines, <nodes> node statements, <events> events located, <steps> step and <guards> guard calls, <loop> march loop lines, <runs> interpreter runs in integrate

The ``ImpactSensitivityWarning`` that every impact job's sensitivity run
raises by design is not printed, so standard error holds only problems and
these lines.

    python scripts/trajectory_digest.py --seed 1 --seed 2
    python scripts/trajectory_digest.py --workload delay-sens --seed 1
"""

import argparse
import hashlib
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("smooth-sens", "impact-events", "delay-sens", "large-diagram")
MARCH = re.compile(r"^    def march\(.*?(?=^ {0,4}\S)", re.M | re.S)
WRITTEN_OUT = re.compile(r"^    def (?:step|march)\(.*?(?=^ {0,4}\S)", re.M | re.S)
NODE_STATEMENT = re.compile(r"^ *(if _c\d+: )?_v[\d_]+ = ", re.M)
LOOP = re.compile(r"^        while True:\n(.*?)(?=^ {0,8}\S|\Z)", re.M | re.S)


def layout_problems(tr) -> list[str]:
    """How the arrays of trajectory ``tr`` depart from its layout: float64
    and C-contiguous, with shapes (N,), (N, n) and (N, q) for the times,
    states and outputs of N nodes."""
    N = len(tr.times)
    want = {"times": (N,), "states": (N, len(tr.state_names)),
            "outputs": (N, len(tr.output_names))}
    return [f"trajectory {name}: {a.dtype} {a.shape}, C-contiguous {a.flags.c_contiguous}; "
            f"want float64 {shape}, C-contiguous"
            for name, shape in want.items() for a in [getattr(tr, name)]
            if not (a.dtype == np.float64 and a.shape == shape and a.flags.c_contiguous)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def model_lines(path: Path) -> tuple[list[str], list[str]]:
    """The digest lines of the model at ``path`` and the layout problems
    of its trajectory."""
    from hybridad import (DelayOrderExceeded, SimConfig, agdm_diff, diagram_to_json, flatten,
                          integrate, parse_diagram)
    d = parse_diagram(path.read_text(encoding="utf-8"))
    tr = integrate(flatten(d), SimConfig(step=1e-3, tf=1.0))
    lines = [f"model {path.stem} csv {_sha256(tr.to_csv())}"]
    params = list(d.params)
    for thetas in [(p,) for p in params] + [(p, q) for p in params for q in params]:
        dd = d
        try:
            for th in thetas:
                dd = agdm_diff(dd, th)
        except DelayOrderExceeded:
            continue
        lines.append(f"model {path.stem} diff {','.join(thetas)} {_sha256(diagram_to_json(dd))}")
    return lines, layout_problems(tr)


def _wrap(module: str, name: str, seen: list, text):
    """Route every module-level ``name`` through one recorder of the
    digest of ``text(result)``."""
    original = getattr(sys.modules[module], name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(_sha256(text(out)))
        return out

    for mod in list(sys.modules.values()):
        if getattr(mod, name, None) is original:
            setattr(mod, name, recorded)


def _wrap_generation(models: list, sources: list):
    """Record each model the simulator binds, and the source of each
    structure it generates code for (a cache miss)."""
    import hybridad.sim as sim
    bind, generate = sim._bind_stepper, sim._generate_stepper

    def generated(*args):
        made = generate(*args)
        sources.append(made[0])
        return made

    sim._bind_stepper = lambda *args: models.append(None) or bind(*args)
    sim._generate_stepper = generated


def _wrap_location(located: list):
    """Count, per located event, the calls of the RK step and of the guard
    that ``_locate_event`` makes: one [steps, guards] entry per event."""
    import hybridad.sim as sim
    locate = sim._locate_event

    def counted(step, guard, *args):
        n = [0, 0]
        located.append(n)

        def counted_step(*a):
            n[0] += 1
            return step(*a)

        def counted_guard(*a):
            n[1] += 1
            return guard(*a)
        return locate(counted_step, counted_guard, *args)

    sim._locate_event = counted


def _wrap_interpreter(runs: list):
    """Count in ``runs[0]`` the interpreter's runs (``tape._run``) made
    while ``integrate`` is active; call it before ``integrate`` is wrapped
    for the digests, which then wrap this one."""
    import hybridad.sim as sim
    import hybridad.tape as tape
    run, integrate = tape._run, sim.integrate
    active = [0]

    def counted(*args, **kwargs):
        runs[0] += active[0] > 0
        return run(*args, **kwargs)

    def integrating(*args, **kwargs):
        active[0] += 1
        try:
            return integrate(*args, **kwargs)
        finally:
            active[0] -= 1

    tape._run = counted
    for mod in list(sys.modules.values()):
        if getattr(mod, "integrate", None) is integrate:
            setattr(mod, "integrate", integrating)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all four)")
    p.add_argument("--seed", action="append", type=int, required=True,
                   help="workload seed (repeatable)")
    args = p.parse_args()

    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from tracing import Tracer
    from hybridad import ImpactSensitivityWarning
    warnings.simplefilter("ignore", ImpactSensitivityWarning)

    seen: list[str] = []
    docs: list[str] = []
    opts: list[str] = []
    layout: list[str] = []
    models: list = []
    sources: list[str] = []
    located: list[list[int]] = []
    runs = [0]

    def csv(tr):
        layout.extend(layout_problems(tr))
        return tr.to_csv()
    _wrap_interpreter(runs)
    _wrap("hybridad.sim", "integrate", seen, csv)
    _wrap("hybridad.diagram", "diagram_to_json", docs, lambda text: text)
    _wrap("hybridad.cli", "optimize_scalar", opts, repr)
    _wrap_generation(models, sources)
    _wrap_location(located)
    from hybridad import sim
    tracer, failed = Tracer(False), 0
    for name in args.workload or WORKLOADS:
        for seed in args.seed:
            models.clear()
            sources.clear()
            located.clear()
            runs[0] = 0
            sim._CODE.clear()
            with tempfile.TemporaryDirectory() as tmp:
                wl = workloads.build(name, seed, Path(tmp))
                for path, text in wl.files.items():
                    path.write_text(text, encoding="utf-8")
                for j, job in enumerate(wl.jobs):
                    seen.clear()
                    docs.clear()
                    opts.clear()
                    layout.clear()
                    try:
                        problems = job.check(job.run(tracer)).problems
                    except Exception as exc:      # reported, and the run goes on
                        problems = [f"{type(exc).__name__}: {exc}"]
                    problems += layout
                    for k, digest in enumerate(seen):
                        print(f"{name} {seed} {j} {job.kind} {k} {digest}")
                    for k, digest in enumerate(docs):
                        print(f"{name} {seed} {j} {job.kind} json {k} {digest}")
                    for k, digest in enumerate(opts):
                        print(f"{name} {seed} {j} {job.kind} opt {k} {digest}")
                    for problem in problems:
                        print(f"{name} {seed} {j} {job.kind}: {problem}", file=sys.stderr)
                    failed += bool(problems)
            lines = sum(src.count("\n") + 1 for src in sources)
            nodes = sum(len(NODE_STATEMENT.findall(WRITTEN_OUT.sub("", src))) for src in sources)
            steps, guards = (sum(n[k] for n in located) for k in (0, 1))
            loop = sum(body.count("\n") for src in set(sources)
                       for body in LOOP.findall(MARCH.search(src).group()))
            print(f"{name} {seed}: {len(models)} models, {len(sources)} generations, "
                  f"{len(set(sources))} distinct sources, {lines} lines, {nodes} node statements, "
                  f"{len(located)} events located, {steps} step and {guards} guard calls, "
                  f"{loop} march loop lines, {runs[0]} interpreter runs in integrate",
                  file=sys.stderr)
    for path in sorted((ROOT / "models").glob("*.json")):
        try:
            lines, problems = model_lines(path)
        except Exception as exc:      # reported, and the run goes on
            lines, problems = [], [f"{type(exc).__name__}: {exc}"]
        print(*lines, sep="\n")
        for problem in problems:
            print(f"model {path.stem}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
