import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridad import TapeBuilder, parse_diagram


def first_order_doc(k=1.0, tau=0.5):
    return {
        "schema": 1,
        "name": "first_order",
        "params": {"k": k, "tau": tau},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Gk", "kind": "Gain", "gain": "k"},
            {"id": "E", "kind": "Sum", "signs": "+-"},
            {"id": "Gtau", "kind": "Gain", "gain": "1/tau"},
            {"id": "I", "kind": "Integrator", "initial": 0.0},
        ],
        "links": [
            {"from": "U.out", "to": "Gk.in"},
            {"from": "Gk.out", "to": "E.in1"},
            {"from": "I.out", "to": "E.in2"},
            {"from": "E.out", "to": "Gtau.in"},
            {"from": "Gtau.out", "to": "I.in"},
        ],
        "outputs": [{"name": "y", "from": "I.out"}],
    }


def delay_chain_doc():
    """Step -> TransportDelay (delay h) -> Integrator."""
    return {
        "schema": 1, "name": "dly", "params": {"h": 0.2},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "D", "kind": "TransportDelay", "delay": "h"},
            {"id": "I", "kind": "Integrator"},
        ],
        "links": [{"from": "U.out", "to": "D.in"}, {"from": "D.out", "to": "I.in"}],
        "outputs": [{"name": "y", "from": "I.out"}],
    }


BAD_INTEGERS = {        # (kind, field, value): an integer block field of another shape
    "product-n-string": ("Product", "n", "two"),
    "product-n-float": ("Product", "n", 1.5),
    "product-n-integral-float": ("Product", "n", 2.0),
    "product-n-bool": ("Product", "n", True),
    "product-n-zero": ("Product", "n", 0),
    "mux-n-null": ("Mux", "n", None),
    "demux-n-negative": ("Demux", "n", -2),
    "inport-index-string": ("Inport", "index", "0"),
    "inport-index-bool": ("Inport", "index", False),
    "inport-index-negative": ("Inport", "index", -1),
}


def bad_integer_doc(case):
    kind, field, value = BAD_INTEGERS[case]
    doc = first_order_doc()
    doc["blocks"].append({"id": "X", "kind": kind, field: value})
    return doc, f"$.blocks[{len(doc['blocks']) - 1}].{field}"


def perfbench_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded without writing bytecode beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)        # its dataclasses look it up
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def first_order():
    return parse_diagram(json.dumps(first_order_doc()))


def worked_example_tape():
    """F(x, y) = y*((x+y)*x + 2)."""
    b = TapeBuilder(2)
    x, y = b.input(0), b.input(1)
    a = b.add(x, y)
    v = b.mul(a, x)
    c = b.add(v, b.const(2.0))
    return b.build([b.mul(y, c)])


# ---------------------------------------------------------------------------
# random well-conditioned tapes
# ---------------------------------------------------------------------------

_SAFE_FNS = ("exp", "sin", "cos", "atan", "log", "sqrt", "tan")


def random_tape(rng: np.random.Generator, max_nodes=300, num_inputs=None,
                ops=("add", "sub", "mul", "div", "apply"), x0=None):
    """A random smooth tape together with a safe evaluation point.

    Node values are tracked during construction and candidate operations
    that would be ill-conditioned there (near-zero divisors, huge
    magnitudes, function arguments near domain edges, branch conditions
    near their threshold) are rejected, so central differences at the
    returned point are trustworthy.  ``branch`` nodes are built only when
    ``"branch"`` is in ``ops``.
    """
    from hybridad.ops import ElementaryFn, fn_value

    n_in = int(rng.integers(1, 5)) if num_inputs is None else num_inputs
    if x0 is None:
        x0 = rng.uniform(-2.0, 2.0, n_in)
    b = TapeBuilder(n_in)
    vals = {}
    ids = []
    for j in range(n_in):
        nid = b.input(j)
        ids.append(nid)
        vals[nid] = float(x0[j])
    for _ in range(3):
        c = float(rng.uniform(-2.0, 2.0))
        nid = b.const(c)
        ids.append(nid)
        vals[nid] = c

    target = int(rng.integers(max(8, max_nodes // 4), max_nodes + 1))
    guard = 0
    while len(ids) < target and guard < 20 * target:
        guard += 1
        op = ops[int(rng.integers(0, len(ops)))]
        i = ids[int(rng.integers(0, len(ids)))]
        j = ids[int(rng.integers(0, len(ids)))]
        vi, vj = vals[i], vals[j]
        if op == "add":
            v = vi + vj
            if abs(v) > 1e3:
                continue
            nid = b.add(i, j)
        elif op == "sub":
            v = vi - vj
            if abs(v) > 1e3:
                continue
            nid = b.sub(i, j)
        elif op == "mul":
            v = vi * vj
            if abs(v) > 1e3:
                continue
            nid = b.mul(i, j)
        elif op == "div":
            if abs(vj) < 0.2 or abs(vi / vj) > 1e3:
                continue
            v = vi / vj
            nid = b.div(i, j)
        elif op == "branch":
            # condition i against a threshold at least 0.05 away, then-arm
            # j, else-arm k; either arm may be taken at x0
            k = ids[int(rng.integers(0, len(ids)))]
            thr = vi + float(rng.uniform(-0.5, 0.5))
            if abs(vi - thr) < 0.05:
                continue
            v = vj if vi >= thr else vals[k]
            nid = b.branch(i, thr, j, k)
        else:
            name = _SAFE_FNS[int(rng.integers(0, len(_SAFE_FNS)))]
            if name == "exp" and abs(vi) > 4.0:
                continue
            if name in ("log", "sqrt") and vi < 0.2:
                continue
            if name == "tan" and abs(np.cos(vi)) < 0.3:
                continue
            fn = ElementaryFn(name)
            v = fn_value(fn, vi)
            if abs(v) > 1e3:
                continue
            nid = b.apply(fn, i)
        ids.append(nid)
        vals[nid] = v
    n_out = int(rng.integers(1, 4))
    outs = [ids[-1]] + [ids[int(rng.integers(0, len(ids)))] for _ in range(n_out - 1)]
    return b.build(outs), np.asarray(x0, dtype=float)
