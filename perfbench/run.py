"""hybridad benchmark: one workload, closed loop, one client, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  The workload's fixed job list (see
``workloads.py``) is run round-robin until ``--seconds`` of wall time have
passed, and at least once through.  Each job's output is checked outside
its timed span.  Timings are per job: the median over that job's runs of
its CPU seconds, scaled to a nominal host speed by the reference work of
``reference.py`` run right before and right after it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
job both plainly and under a tracer that records a span around each call
into a hybridad module; it prints the per-layer metrics (self times from
the spans, counts, micro-timings) and the tracing overhead.  The last line
of standard output is the JSON result; run details and spans are written
under ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # BLAS threads, before numpy is imported

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import reference
from tracing import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
SETUP_REFERENCE_RUNS = 7
TAIL_BEYOND = 10                    # samples the tail percentile leaves above it


def _use_checkout_sources():
    if not (SRC / "hybridad" / "__init__.py").is_file():
        sys.exit(f"error: no hybridad sources under {SRC}")
    sys.path.insert(0, str(SRC))


def _parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("smooth-sens", "impact-events", "delay-sens", "large-diagram"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up (import + input generation) and print it")
    return p.parse_args()


def _setup_once(args):
    c0 = time.process_time()
    import hybridad.cli  # noqa: F401  (part of what is timed)
    import workloads
    workloads.build(args.workload, args.seed, OUT)
    cpu = time.process_time() - c0
    ref = statistics.median(reference.cpu_s() for _ in range(SETUP_REFERENCE_RUNS))
    print(json.dumps({"setup_s": cpu * reference.NOMINAL_CPU_S / ref}))


def _measure_setup(args) -> list[float]:
    """Set-up times of fresh interpreters: import plus input generation,
    CPU seconds scaled to the nominal host speed like the job times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if r.returncode != 0:
            raise RuntimeError(f"set-up run failed: {r.stderr.strip()}")
        samples.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples above it."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND
    return s[k - 1], 100.0 * k / len(s)


class Runner:
    """Runs a workload's job list and keeps per-job timings, counts and probes."""

    def __init__(self, workload, trace: bool):
        self.wl = workload
        self.trace = trace
        self.plain = Tracer(False)
        self.tracer = Tracer(True)
        n = len(workload.jobs)
        self.times = [[] for _ in range(n)]          # plain runs, wall seconds
        self.cpu_runs: list[tuple] = []              # (job, cpu s, reference before, after)
        self.traced_times = [[] for _ in range(n)]
        self.layers = [[] for _ in range(n)]         # per traced run: name -> self seconds
        self.counts: list[Counter | None] = [None] * n
        self.probes: list[dict | None] = [None] * n
        self.unverified = [0] * n                    # samples no oracle could judge
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, j: int, tracer, timed: bool = True):
        job = self.wl.jobs[j]
        self.attempted += 1
        tracer.job = j
        first = len(tracer.spans)
        scaled = timed and not self.trace
        ref = reference.cpu_s() if scaled else 0.0
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = tracer.call("job", job.run, tracer)
        except Exception as exc:             # a failed job is counted, not fatal
            self.failures.append(f"job {j} ({job.kind}) raised {type(exc).__name__}: {exc}")
            return
        dt = time.perf_counter() - t0
        dc = time.process_time() - c0
        if scaled:
            self.cpu_runs.append((j, dc, ref, reference.cpu_s()))
        if timed:
            if tracer.enabled:
                self.traced_times[j].append(dt)
                self.layers[j].append(self_times(tracer.spans, first))
            else:
                self.times[j].append(dt)
        try:
            checked = job.check(out)
        except Exception as exc:
            self.failures.append(f"job {j} ({job.kind}) check raised {type(exc).__name__}: {exc}")
            return
        if self.counts[j] is None:
            self.counts[j] = checked.counts
            self.probes[j] = checked.probe
            self.unverified[j] = checked.unverified
        elif checked.counts != self.counts[j]:
            checked.problems.append(f"counts {dict(checked.counts)} differ from the "
                                    f"first run's {dict(self.counts[j])}")
        if checked.problems:
            self.failures.append(f"job {j} ({job.kind}): " + "; ".join(checked.problems))

    def run(self, seconds: float):
        jobs = self.wl.jobs
        warm = {}
        for j, job in enumerate(jobs):
            warm.setdefault(job.kind, j)
        for j in warm.values():                  # lazy set-up, untimed
            self.execute(j, self.plain, timed=False)
        start = time.perf_counter()
        visit = 0
        while visit < len(jobs) or time.perf_counter() - start < seconds:
            j = visit % len(jobs)
            if self.trace:
                order = (self.plain, self.tracer) if visit % 2 == 0 else (self.tracer, self.plain)
                for tracer in order:
                    self.execute(j, tracer)
            else:
                self.execute(j, self.plain)
            visit += 1
        return time.perf_counter() - start


def _job_seconds(cpu_runs: list[tuple], n: int) -> list[list[float]]:
    """Per job, its runs' CPU seconds scaled to the nominal host speed:
    each is multiplied by the reference work's nominal CPU time over the
    geometric mean of its runs right before and right after the job."""
    out = [[] for _ in range(n)]
    for j, cpu, before, after in cpu_runs:
        out[j].append(cpu * reference.NOMINAL_CPU_S / (before * after) ** 0.5)
    return out


def _per_call_s(fn, arg_lists, rounds: int = 7, target: float = 0.02) -> float:
    """Median over rounds of the mean seconds of one call; a round repeats
    the calls over all argument lists until it lasts about ``target``."""
    if not arg_lists:
        return 0.0
    t0 = time.perf_counter()
    for a in arg_lists:
        fn(*a)
    inner = max(1, int(target / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            for a in arg_lists:
                fn(*a)
        samples.append((time.perf_counter() - t0) / (inner * len(arg_lists)))
    return statistics.median(samples)


def _micro_timings(probes: list[dict]) -> dict[str, float]:
    """Layer timings from outside: tape evaluators, impact law, compilation."""
    from hybridad import compile_tape, impact_update, reverse_gradient, tape_eval
    tapes = [p["tape"] for p in probes if "tape" in p]
    out = {}
    if tapes:
        tape, points = max(tapes, key=lambda tp: len(tp[0]))
        compiled = compile_tape(tape)
        args = [(pt,) for pt in points]
        out["tape.eval_compiled_us"] = 1e6 * _per_call_s(compiled, args)
        out["tape.eval_interp_us"] = 1e6 * _per_call_s(lambda pt: tape_eval(tape, pt), args)
        out["tape.reverse_gradient_us"] = 1e6 * _per_call_s(
            lambda pt: reverse_gradient(tape, pt, 0), args)
        # every job's tape once: seconds per pass over the job list
        out["tape.compile_s"] = len(tapes) * _per_call_s(compile_tape, [(t,) for t, _ in tapes],
                                                         rounds=3, target=0.0)
    else:
        for k in ("tape.eval_compiled_us", "tape.eval_interp_us", "tape.reverse_gradient_us",
                  "tape.compile_s"):
            out[k] = 0.0
    impacts = [imp for p in probes for imp in p.get("impacts", ())]
    out["sim.impact_update_us"] = 1e6 * _per_call_s(impact_update, impacts)
    return out


LAYER_SPANS = {                     # per-layer metric -> span name
    "diagram.parse_s": "diagram.parse",
    "diagram.validate_s": "diagram.validate",
    "agdm.diff_s": "agdm.diff",
    "flatten.flatten_s": "flatten.flatten",
    "sim.extend_s": "sim.extend",
    "sim.integrate_s": "sim.integrate",
    "cli.sens_s": "cli.sens",
    "cli.optimize_s": "cli.optimize",
    "cli.diff_s": "cli.diff",
    "analysis.identifiability_s": "analysis.identifiability",
    "job.self_s": "job",
}


def _layer_metrics(runner: Runner, counts: Counter) -> dict[str, float]:
    """Seconds per pass over the job list: per job, the median over its
    traced runs of each span name's self time, summed over the jobs."""
    m = {}
    for metric, span in LAYER_SPANS.items():
        m[metric] = sum(statistics.median([lt.get(span, 0.0) for lt in runs])
                        for runs in runner.layers if runs)
    steps = counts["sim.steps"]
    m["sim.us_per_step"] = m["sim.integrate_s"] / steps * 1e6 if steps else 0.0
    m["sim.events_per_ksteps"] = 1000.0 * counts["sim.events"] / steps if steps else 0.0
    plain = sum(statistics.median(t) for t in runner.times if t)
    traced = sum(statistics.median(t) for t in runner.traced_times if t)
    m["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    return m


def _check_counts_across_runs(workload: str, seed: int, digest: str, counts: Counter):
    """Count metrics must repeat for a seed; the first run of a seed records them."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{digest[:16]}.json"
    current = {k: counts[k] for k in sorted(counts)}
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8"))
        if recorded != current:
            diff = {k: (recorded.get(k), current.get(k))
                    for k in set(recorded) | set(current) if recorded.get(k) != current.get(k)}
            return [f"count metrics differ from an earlier run of seed {seed}: {diff}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current), encoding="utf-8")
    os.replace(tmp, path)
    return []


def main() -> int:
    args = _parse_args()
    _use_checkout_sources()
    if args.setup_only:
        _setup_once(args)
        return 0

    import numpy as np
    import hybridad
    import workloads
    if not Path(hybridad.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: hybridad imported from {hybridad.__file__}, not from {SRC}")

    digest = _source_digest()
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "git_commit": _git_commit(), "source_sha256": digest,
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "loop": "closed, 1 client, 1 thread"}
    print("env " + json.dumps(env))

    setup_samples = [] if args.trace else _measure_setup(args)
    wl = workloads.build(args.workload, args.seed, OUT)
    OUT.mkdir(parents=True, exist_ok=True)
    for path, text in wl.files.items():
        path.write_text(text, encoding="utf-8")

    runner = Runner(wl, bool(args.trace))
    wall = runner.run(args.seconds)

    counts = Counter({k: 0 for k in workloads.COUNT_KEYS})
    for c in runner.counts:
        counts.update(c or {})
    if len(runner.failures) == 0:
        runner.failures += _check_counts_across_runs(args.workload, args.seed, digest, counts)
    failed = len(runner.failures)
    job_s = runner.times if args.trace else _job_seconds(runner.cpu_runs, len(wl.jobs))
    per_job = [statistics.median(t) for t in job_s if t]
    if not per_job:
        sys.exit("error: no job completed: " + "; ".join(runner.failures[:5]))
    reps = [len(t) for t in runner.times]

    details = {"env": env, "wall_s": wall, "jobs": len(wl.jobs),
               "kinds": dict(Counter(job.kind for job in wl.jobs)),
               "runs_per_job": [min(reps), max(reps)], "attempted": runner.attempted,
               "failed": failed, "failures": runner.failures[:20],
               "unverified_samples": sum(runner.unverified)}
    lines = [f"workload {args.workload}: {len(wl.jobs)} jobs {details['kinds']}, "
             f"{min(reps)}-{max(reps)} timed runs each, {runner.attempted} runs checked "
             f"in {wall:.1f} s",
             f"failed_frac  {failed / runner.attempted:.4g} ({failed} of {runner.attempted} runs)",
             f"unverified   {sum(runner.unverified)} output samples no oracle could judge"]
    if args.trace:
        metrics = _layer_metrics(runner, counts)
        metrics.update(_micro_timings([p for p in runner.probes if p]))
        metrics.update({k: counts[k] for k in workloads.COUNT_KEYS})
        units = {k: ("count" if k in counts else "%" if k.endswith("_pct")
                     else "us/step" if k == "sim.us_per_step"
                     else "count/kstep" if k.endswith("_per_ksteps")
                     else "us" if k.endswith("_us") else "s") for k in metrics}
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": env,
                                          "fields": ["name", "start", "end", "parent", "job"],
                                          "spans": runner.tracer.spans}), encoding="utf-8")
        lines.append(f"spans: {len(runner.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        tail, pct = _tail(per_job)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "jobs_per_s": len(per_job) / sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
                 "peak_rss_mb": "MB"}
        by_kind = defaultdict(list)
        for job, t in zip(wl.jobs, job_s):
            if t:
                by_kind[job.kind].append(statistics.median(t))
        kind_s = {k: statistics.median(v) for k, v in by_kind.items()}
        ref_s = statistics.median(r for run in runner.cpu_runs for r in run[2:])
        details.update({"setup_samples_s": setup_samples, "tail_percentile": pct,
                        "kind_median_s": kind_s, "reference_median_s": ref_s,
                        "job_times_s": job_s,
                        "job_wall_s": runner.times, "cpu_runs": runner.cpu_runs})
        lines += [
            f"setup_s      median of {len(setup_samples)} fresh set-ups: "
            + ", ".join(f"{s:.4f}" for s in setup_samples),
            f"job_p50_s    median of {len(per_job)} per-job medians",
            f"job_tail_s   p{pct:g} of {len(per_job)} per-job medians "
            f"({TAIL_BEYOND} beyond it)",
            f"host speed   reference work median {ref_s * 1e3:.3f} ms of CPU, "
            f"nominal {reference.NOMINAL_CPU_S * 1e3:.3f} ms",
            "job kinds    median s: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(
                kind_s.items(), key=lambda kv: kv[1])),
        ]
    lines += [f"{k:<28s} {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines += [f"FAILED {f}" for f in runner.failures[:20]]
    print("\n".join(lines))

    details["metrics"] = metrics
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
