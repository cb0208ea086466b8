#!/usr/bin/env python3
"""Record perfbench runs as ``BENCH_<label>.json`` at the repository root.

Reads the standard output of ``perfbench/run.py`` runs, from files or from
standard input: each run's ``env`` line and its last line, the JSON result.
A file given as ``NAME=PATH`` puts its runs on side NAME (for example
``parent=`` and ``change=``); other runs go on a side named by their git
commit.  For each side and workload the record holds the median, the
quartiles and every value of each metric, the runs' seeds, commits, source
digests and failure counts, and the host; traced (``--trace 1``) runs of a
workload are kept apart from its untraced runs.  The record also holds the HEAD
commit and source digest of the checkout it is written in, and names the
sides whose runs measured exactly those sources: runs of an uncommitted
tree report no commit, and the digest is what ties them to the code that
is then committed.  With two sides it also compares
them seed by seed: the ratio of medians and how many seeds the second side
wins.

``setup_s`` (fresh interpreters, which spread around its bound on an
unchanged tree) and the ``tape.*_us`` micro-timings (not scaled by the
reference work) are flagged "noisy" and kept.

    python3 perfbench/run.py --workload smooth-sens --seed 71 --seconds 28 > a.txt
    python scripts/bench_record.py generated_step parent=a.txt change=b.txt
    python scripts/bench_record.py --check BENCH_*.json

``--check`` exits non-zero when a record lacks a workload or an
end-to-end metric that ``BENCHMARK.json`` names.
"""

import argparse
import hashlib
import json
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOISY = {
    "setup_s": "fresh-interpreter import time; spreads around its bound on an unchanged tree",
    "tape.*_us": "micro-timings in wall time, not scaled by the reference work",
}
HOST_SPEED = re.compile(r"^host speed\s+reference work median ([0-9.]+) ms")


def _noisy(metric: str) -> bool:
    return metric == "setup_s" or (metric.startswith("tape.") and metric.endswith("_us"))


def read_runs(text: str) -> list[dict]:
    """One dict per run: its ``env`` record, result line and host speed."""
    runs, env, ref_ms = [], None, None
    for line in text.splitlines():
        if line.startswith("env "):
            env, ref_ms = json.loads(line[4:]), None
        elif HOST_SPEED.match(line):
            ref_ms = float(HOST_SPEED.match(line).group(1))
        elif line.startswith("{") and env is not None:
            result = json.loads(line)
            if "metrics" in result:
                runs.append({"env": env, "result": result, "reference_ms": ref_ms})
                env = None
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list[dict]) -> dict:
    """Per workload: seeds, failures and the spread of each metric.  Traced
    runs report per-layer metrics in place of the end-to-end ones, so they
    are summarized apart, under "<workload> traced"."""
    by_workload: dict[str, list[dict]] = {}
    for r in runs:
        key = r["env"]["workload"] + (" traced" if r["env"]["trace"] else "")
        by_workload.setdefault(key, []).append(r)
    out = {}
    for wl, rs in sorted(by_workload.items()):
        metrics = {}
        for name in rs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rs
                      if name in r["result"]["metrics"]]
            q1, med, q3 = _quartiles(values)
            metrics[name] = {"unit": rs[0]["result"]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values,
                             "noisy": _noisy(name)}
        out[wl] = {"runs": len(rs), "seeds": [r["env"]["seed"] for r in rs],
                   "trace": sorted({r["env"]["trace"] for r in rs}),
                   "seconds": sorted({r["env"]["seconds"] for r in rs}),
                   "attempted": sum(r["result"]["attempted"] for r in rs),
                   "failed": sum(r["result"]["failed"] for r in rs),
                   "correct": all(r["result"]["correct"] for r in rs),
                   "reference_ms": [r["reference_ms"] for r in rs],
                   "commits": sorted({str(r["env"]["git_commit"]) for r in rs}),
                   "source_sha256": sorted({r["env"]["source_sha256"] for r in rs}),
                   "metrics": metrics}
    return out


def compare(base: dict, new: dict, better: dict[str, str]) -> dict:
    """Per workload and metric: ratio of medians (new over base) and the
    seeds on which ``new`` is better, for the seeds both sides ran."""
    out = {}
    for wl in sorted(set(base) & set(new)):
        b, n = base[wl], new[wl]
        seeds = [s for s in b["seeds"] if s in n["seeds"]]
        rows = {}
        for name in sorted(set(b["metrics"]) & set(n["metrics"])):
            bv = dict(zip(b["seeds"], b["metrics"][name]["values"]))
            nv = dict(zip(n["seeds"], n["metrics"][name]["values"]))
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(sign * (nv[s] - bv[s]) > 0 for s in seeds)
            bm = b["metrics"][name]["median"]
            rows[name] = {"ratio": n["metrics"][name]["median"] / bm if bm else None,
                          "pairs": len(seeds), "new_better": wins,
                          "beyond_base_iqr": abs(n["metrics"][name]["median"] - bm)
                          > b["metrics"][name]["iqr"],
                          "noisy": _noisy(name)}
        out[wl] = rows
    return out


def check(paths: list[str], spec: dict) -> list[str]:
    """What each record lacks of the workloads and end-to-end metrics of
    ``spec`` (BENCHMARK.json), on each of its sides."""
    wanted = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    problems = []
    for path in paths:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        if not rec.get("sides"):
            problems.append(f"{path}: no sides")
        for side, workloads in rec.get("sides", {}).items():
            for wl in wanted:
                if wl not in workloads:
                    problems.append(f"{path}: side {side} lacks workload {wl}")
                    continue
                problems += [f"{path}: side {side}, {wl} lacks metric {m}" for m in metrics
                             if m not in workloads[wl]["metrics"]]
    return problems


def _head_commit():
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest(root: Path = ROOT) -> str:
    """Digest of the sources a run measures, computed as ``perfbench/run.py``
    reports it in ``source_sha256``."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("label", nargs="?", help="writes BENCH_<label>.json")
    ap.add_argument("inputs", nargs="*", help="[NAME=]PATH of perfbench output; '-' is stdin")
    ap.add_argument("--check", nargs="+", metavar="RECORD",
                    help="check committed records against BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.check:
        problems = check(args.check, spec)
        print("\n".join(problems) or f"{len(args.check)} record(s) complete")
        return 1 if problems else 0
    if not args.label or not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error("a label of letters, digits, '_', '.' or '-' is required")

    sides: dict[str, list[dict]] = {}
    for arg in args.inputs or ["-"]:
        name, _, path = arg.rpartition("=")
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        for run in read_runs(text):
            sides.setdefault(name or str(run["env"]["git_commit"]), []).append(run)
    if not sides:
        sys.exit("error: no perfbench result found in the input")
    envs = [r["env"] for rs in sides.values() for r in rs]
    tree = source_digest()
    record = {
        "label": args.label,
        # the checkout the record was written in: its HEAD, and the digest
        # of its sources, which a side that ran this very tree shares
        "commit": _head_commit(),
        "source_sha256": tree,
        "sides_of_this_tree": [name for name, rs in sides.items()
                               if {r["env"]["source_sha256"] for r in rs} == {tree}],
        "host": {"machine": platform.machine(), "system": platform.system(),
                 "release": platform.release(), "nproc": sorted({e["nproc"] for e in envs}),
                 "python": sorted({e["python"] for e in envs}),
                 "numpy": sorted({e["numpy"] for e in envs})},
        "noisy": NOISY,
        "sides": {name: summarize(rs) for name, rs in sides.items()},
    }
    if len(sides) == 2:
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        base, new = record["sides"].values()
        record["comparison"] = {"base": list(sides)[0], "new": list(sides)[1],
                                "workloads": compare(base, new, better)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: " + ", ".join(f"{k} {sum(w['runs'] for w in v.values())} runs"
                                           for k, v in record["sides"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
