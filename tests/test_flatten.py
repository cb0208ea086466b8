import json
import math

import numpy as np
import pytest

from conftest import first_order_doc
from hybridad import (
    FlattenError,
    SimConfig,
    ValidationError,
    flatten,
    integrate,
    parse_diagram,
)


def _diag(doc):
    return parse_diagram(json.dumps(doc))


def test_first_order_flattens_to_one_state(first_order):
    m = flatten(first_order)
    assert m.n == 1
    assert m.state_names == ("I",)
    assert not m.discrete
    tr = integrate(m, SimConfig(step=1e-3, tf=3.0))
    t = tr.times
    want = 1.0 * (1 - np.exp(-t / 0.5))
    assert np.max(np.abs(tr.output("y") - want)) < 1e-10


def test_pure_gain_is_algebraic():
    doc = {
        "schema": 1, "name": "g", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.5, "level": 2.0},
            {"id": "G", "kind": "Gain", "gain": 3.0},
        ],
        "links": [{"from": "U.out", "to": "G.in"}],
        "outputs": [{"name": "y", "from": "G.out"}],
    }
    m = flatten(_diag(doc))
    assert m.n == 0
    tr = integrate(m, SimConfig(step=0.25, tf=1.0))
    assert list(tr.output("y")) == [0.0, 0.0, 6.0, 6.0, 6.0]


def test_second_order_tf_step_response():
    zeta = 0.5
    doc = {
        "schema": 1, "name": "tf2", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "H", "kind": "TransferFnS", "num": [1.0],
             "den": [1.0, 2.0 * zeta, 1.0]},
        ],
        "links": [{"from": "U.out", "to": "H.in"}],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    m = flatten(_diag(doc))
    assert m.n == 2
    tr = integrate(m, SimConfig(step=1e-3, tf=8.0))
    t = tr.times
    wd = math.sqrt(1 - zeta ** 2)
    want = 1 - np.exp(-zeta * t) * (np.cos(wd * t) + zeta / wd * np.sin(wd * t))
    assert np.max(np.abs(tr.output("y") - want)) < 1e-6


def test_biproper_tf_feedthrough():
    doc = {
        "schema": 1, "name": "bp", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "H", "kind": "TransferFnS", "num": [2.0, 1.0], "den": [1.0, 1.0]},
        ],
        "links": [{"from": "U.out", "to": "H.in"}],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    tr = integrate(flatten(_diag(doc)), SimConfig(step=1e-3, tf=5.0))
    t = tr.times
    # H = (s+2)/(s+1) on a unit step: y = 2 - e^{-t}
    want = 2.0 - np.exp(-t)
    assert np.max(np.abs(tr.output("y") - want)) < 1e-8
    assert tr.output("y")[0] == pytest.approx(1.0)   # instant feedthrough


def test_mixed_domains_rejected():
    doc = {
        "schema": 1, "name": "mix", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step"},
            {"id": "I", "kind": "Integrator", "initial": 0.0},
            {"id": "Z", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.1},
        ],
        "links": [
            {"from": "U.out", "to": "I.in"},
            {"from": "I.out", "to": "Z.in"},
        ],
        "outputs": [{"name": "y", "from": "Z.out"}],
    }
    with pytest.raises(FlattenError):
        flatten(_diag(doc))


def test_disagreeing_sample_times_rejected():
    doc = {
        "schema": 1, "name": "st", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step"},
            {"id": "A", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.1},
            {"id": "B", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.2},
        ],
        "links": [
            {"from": "U.out", "to": "A.in"},
            {"from": "A.out", "to": "B.in"},
        ],
        "outputs": [{"name": "y", "from": "B.out"}],
    }
    with pytest.raises(FlattenError):
        flatten(_diag(doc))


def test_invalid_diagram_forwarded():
    doc = first_order_doc()
    doc["links"] = doc["links"][:-1]
    from hybridad.diagram import _parse_dict
    with pytest.raises(ValidationError):
        flatten(_parse_dict(json.loads(json.dumps(doc))))


def test_unit_delay_accumulator():
    doc = {
        "schema": 1, "name": "acc", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "S", "kind": "Sum", "signs": "++"},
            {"id": "Z", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.5},
        ],
        "links": [
            {"from": "U.out", "to": "S.in1"},
            {"from": "Z.out", "to": "S.in2"},
            {"from": "S.out", "to": "Z.in"},
        ],
        "outputs": [{"name": "y", "from": "S.out"}],
    }
    m = flatten(_diag(doc))
    assert m.discrete and m.sample_time == 0.5
    tr = integrate(m, SimConfig(step=0.5, tf=2.0))
    assert list(tr.output("y")) == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_discrete_sample_times_do_not_drift():
    # a Step at t = 1.0 into a UnitDelay sampled at 0.1: summing 0.1 ten
    # times lands at 0.9999999999999999, which would show the step a sample late
    doc = {
        "schema": 1, "name": "late", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 1.0, "level": 1.0},
            {"id": "Z", "kind": "UnitDelay", "initial": 0.0, "sample_time": 0.1},
        ],
        "links": [{"from": "U.out", "to": "Z.in"}],
        "outputs": [{"name": "y", "from": "Z.out"}],
    }
    tr = integrate(flatten(_diag(doc)), SimConfig(step=0.1, tf=1.5))
    assert tr.times.tolist() == [k * 0.1 for k in range(16)]
    assert tr.output("y").tolist() == [0.0] * 11 + [1.0] * 5


def test_lookup_interpolation_and_clamp():
    doc = {
        "schema": 1, "name": "lut", "params": {"a": 0.0},
        "blocks": [
            {"id": "C", "kind": "Constant", "value": "a"},
            {"id": "L", "kind": "LookupTable1D", "breakpoints": [0.0, 1.0, 2.0],
             "values": [0.0, 1.0, 0.0]},
        ],
        "links": [{"from": "C.out", "to": "L.in"}],
        "outputs": [{"name": "y", "from": "L.out"}],
    }
    m = flatten(_diag(doc))
    c = SimConfig(step=0.5, tf=0.5)
    for a, want in ((-1.0, 0.0), (0.0, 0.0), (0.25, 0.25), (1.0, 1.0),
                    (1.5, 0.5), (2.0, 0.0), (5.0, 0.0)):
        assert integrate(m, c, theta={"a": a}).output("y")[0] == pytest.approx(want)


def test_saturation_and_dynamic_saturation():
    doc = {
        "schema": 1, "name": "sat", "params": {"a": 0.0},
        "blocks": [
            {"id": "C", "kind": "Constant", "value": "a"},
            {"id": "Up", "kind": "Constant", "value": 0.8},
            {"id": "Lo", "kind": "Constant", "value": -0.4},
            {"id": "S", "kind": "Saturation", "lo": -1.0, "hi": 1.0},
            {"id": "SD", "kind": "SaturationDynamic"},
        ],
        "links": [
            {"from": "C.out", "to": "S.in"},
            {"from": "Up.out", "to": "SD.up"},
            {"from": "C.out", "to": "SD.in"},
            {"from": "Lo.out", "to": "SD.lo"},
        ],
        "outputs": [{"name": "s", "from": "S.out"}, {"name": "sd", "from": "SD.out"}],
    }
    m = flatten(_diag(doc))
    c = SimConfig(step=0.5, tf=0.5)
    for a in (-2.0, -0.7, 0.0, 0.9, 3.0):
        tr = integrate(m, c, theta={"a": a})
        assert tr.output("s")[0] == pytest.approx(min(1.0, max(-1.0, a)))
        assert tr.output("sd")[0] == pytest.approx(min(0.8, max(-0.4, a)))


def test_mux_demux_resolution():
    doc = {
        "schema": 1, "name": "mx", "params": {},
        "blocks": [
            {"id": "A", "kind": "Constant", "value": 2.0},
            {"id": "B", "kind": "Constant", "value": 3.0},
            {"id": "M", "kind": "Mux", "n": 2},
            {"id": "D", "kind": "Demux", "n": 2},
            {"id": "G", "kind": "Gain", "gain": 10.0},
        ],
        "links": [
            {"from": "A.out", "to": "M.in1"},
            {"from": "B.out", "to": "M.in2"},
            {"from": "M.out", "to": "D.in"},
            {"from": "D.out2", "to": "G.in"},
        ],
        "outputs": [{"name": "y1", "from": "D.out1"}, {"name": "y2", "from": "G.out"}],
    }
    tr = integrate(flatten(_diag(doc)), SimConfig(step=0.5, tf=0.5))
    assert tr.output("y1")[0] == 2.0
    assert tr.output("y2")[0] == 30.0


def test_subsystem_inlining():
    child = {
        "schema": 1, "name": "inner", "params": {"k": 1.0, "tau": 0.5},
        "blocks": [
            {"id": "in0", "kind": "Inport", "index": 0},
            {"id": "Gk", "kind": "Gain", "gain": "k"},
            {"id": "E", "kind": "Sum", "signs": "+-"},
            {"id": "Gtau", "kind": "Gain", "gain": "1/tau"},
            {"id": "I", "kind": "Integrator", "initial": 0.0},
        ],
        "links": [
            {"from": "in0.out", "to": "Gk.in"},
            {"from": "Gk.out", "to": "E.in1"},
            {"from": "I.out", "to": "E.in2"},
            {"from": "E.out", "to": "Gtau.in"},
            {"from": "Gtau.out", "to": "I.in"},
        ],
        "outputs": [{"name": "yi", "from": "I.out"}],
    }
    doc = {
        "schema": 1, "name": "outer", "params": {"k": 1.0, "tau": 0.5},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Sub", "kind": "Subsystem", "diagram": child},
        ],
        "links": [{"from": "U.out", "to": "Sub.in"}],
        "outputs": [{"name": "y", "from": "Sub.yi"}],
    }
    m = flatten(_diag(doc))
    assert m.n == 1
    tr = integrate(m, SimConfig(step=1e-3, tf=2.0))
    want = 1 - np.exp(-tr.times / 0.5)
    assert np.max(np.abs(tr.output("y") - want)) < 1e-10


def test_time_parameter_name_reserved():
    doc = first_order_doc()
    doc["params"]["t"] = 1.0
    with pytest.raises(FlattenError):
        flatten(_diag(doc))


def test_long_chain_listed_consumer_first_flattens():
    # each Gain is declared before the Gain that drives it, so lowering the
    # first block reaches down the whole chain before emitting anything
    n = 3000
    blocks = [{"id": f"G{i}", "kind": "Gain", "gain": 2.0 if i == 0 else -1.0}
              for i in range(n - 1, -1, -1)]
    links = [{"from": f"G{i}.out", "to": f"G{i + 1}.in"} for i in range(n - 1)]
    blocks += [{"id": "U", "kind": "Step"}, {"id": "I", "kind": "Integrator", "initial": 0.0}]
    links += [{"from": "U.out", "to": "G0.in"}, {"from": f"G{n - 1}.out", "to": "I.in"}]
    m = flatten(_diag({"schema": 1, "name": "chain", "params": {}, "blocks": blocks,
                       "links": links, "outputs": [{"name": "y", "from": "I.out"}]}))
    assert sum(nd.op == "mul" for nd in m.tape.nodes) == n
    tr = integrate(m, SimConfig(step=0.25, tf=1.0))
    assert tr.output("y")[-1] == -2.0
