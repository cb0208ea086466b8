import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run_text(trace: int, metrics: dict) -> str:
    env = {"workload": "delay-sens", "seed": 7, "trace": bool(trace), "seconds": 3,
           "git_commit": None, "source_sha256": "0" * 64, "nproc": 2,
           "python": "3", "numpy": "1"}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    return f"env {json.dumps(env)}\nsome report line\n{json.dumps(result)}\n"


def test_traced_runs_are_summarized_apart():
    br = _bench_record()
    runs = br.read_runs(_run_text(0, {"jobs_per_s": 20.0, "job_p50_s": 0.05})
                        + _run_text(1, {"sim.integrate_s": 0.4})
                        + _run_text(0, {"jobs_per_s": 22.0, "job_p50_s": 0.04}))
    summary = br.summarize(runs)
    assert sorted(summary) == ["delay-sens", "delay-sens traced"]
    plain, traced = summary["delay-sens"], summary["delay-sens traced"]
    assert (plain["runs"], plain["trace"], traced["runs"], traced["trace"]) == (2, [False], 1, [True])
    assert plain["metrics"]["jobs_per_s"]["values"] == [20.0, 22.0]
    assert list(traced["metrics"]) == ["sim.integrate_s"]
