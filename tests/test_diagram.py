import json
import math
import random
import sys
import threading
from pathlib import Path

import pytest

from conftest import BAD_INTEGERS, bad_integer_doc, first_order_doc, perfbench_workloads
from hybridad import (DelayOrderExceeded, SchemaError, ValidationError, agdm_diff, flatten,
                      parse_diagram, validate)
from hybridad import diagram
from hybridad.diagram import (Link, Output, PortRef, _parse_dict, diagram_to_json, load_diagram,
                              make_block, to_dict)


def test_parse_first_order(first_order):
    d = first_order
    kinds = {b.id: b.kind for b in d.blocks}
    assert kinds == {"U": "Step", "Gk": "Gain", "E": "Sum", "Gtau": "Gain",
                     "I": "Integrator"}
    assert d.params == {"k": 1.0, "tau": 0.5}
    assert validate(d).ok


def test_empty_blocks_is_no_outputs_violation():
    doc = {"schema": 1, "name": "x", "params": {}, "blocks": [], "links": [],
           "outputs": []}
    with pytest.raises(ValidationError) as exc:
        parse_diagram(json.dumps(doc))
    assert any(v.code == "no-outputs" for v in exc.value.violations)


def test_link_to_missing_port_is_schema_error_with_path():
    doc = first_order_doc()
    doc["links"][0]["to"] = "Gk.nope"
    with pytest.raises(SchemaError) as exc:
        parse_diagram(json.dumps(doc))
    assert "links[0].to" in exc.value.path


def test_unknown_block_kind_path():
    doc = first_order_doc()
    doc["blocks"][0]["kind"] = "Wobble"
    with pytest.raises(SchemaError) as exc:
        parse_diagram(json.dumps(doc))
    assert "blocks[0].kind" in exc.value.path


def test_duplicate_block_id_rejected():
    doc = first_order_doc()
    doc["blocks"][1]["id"] = "U"
    with pytest.raises(SchemaError):
        parse_diagram(json.dumps(doc))


def test_wrong_schema_version():
    doc = first_order_doc()
    doc["schema"] = 2
    with pytest.raises(SchemaError):
        parse_diagram(json.dumps(doc))


def test_pure_gain_feedback_is_algebraic_loop():
    doc = {
        "schema": 1, "name": "loop", "params": {},
        "blocks": [
            {"id": "A", "kind": "Gain", "gain": 2.0},
            {"id": "B", "kind": "Gain", "gain": 0.5},
        ],
        "links": [
            {"from": "A.out", "to": "B.in"},
            {"from": "B.out", "to": "A.in"},
        ],
        "outputs": [{"name": "y", "from": "A.out"}],
    }
    d = _parse_dict(json.loads(json.dumps(doc)))
    rep = validate(d)
    loops = [v for v in rep.violations if v.code == "algebraic-loop"]
    assert loops and "A" in loops[0].message and "B" in loops[0].message


def test_integrator_breaks_the_loop(first_order):
    assert validate(first_order).ok


def test_improper_tf_flagged():
    doc = {
        "schema": 1, "name": "tf", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step"},
            {"id": "H", "kind": "TransferFnS", "num": [0.0, 0.0, 1.0], "den": [1.0, 1.0]},
        ],
        "links": [{"from": "U.out", "to": "H.in"}],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    rep = validate(_parse_dict(json.loads(json.dumps(doc))))
    assert any(v.code == "improper-tf" for v in rep.violations)


def test_biproper_tf_in_loop_is_algebraic():
    doc = {
        "schema": 1, "name": "tf", "params": {},
        "blocks": [
            {"id": "S", "kind": "Sum", "signs": "+-"},
            {"id": "U", "kind": "Step"},
            {"id": "H", "kind": "TransferFnS", "num": [1.0, 1.0], "den": [1.0, 1.0]},
        ],
        "links": [
            {"from": "U.out", "to": "S.in1"},
            {"from": "H.out", "to": "S.in2"},
            {"from": "S.out", "to": "H.in"},
        ],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    rep = validate(_parse_dict(json.loads(json.dumps(doc))))
    assert any(v.code == "algebraic-loop" for v in rep.violations)


def test_strictly_proper_tf_breaks_loop():
    doc = {
        "schema": 1, "name": "tf", "params": {},
        "blocks": [
            {"id": "S", "kind": "Sum", "signs": "+-"},
            {"id": "U", "kind": "Step"},
            {"id": "H", "kind": "TransferFnS", "num": [1.0], "den": [1.0, 1.0]},
        ],
        "links": [
            {"from": "U.out", "to": "S.in1"},
            {"from": "H.out", "to": "S.in2"},
            {"from": "S.out", "to": "H.in"},
        ],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    assert validate(_parse_dict(json.loads(json.dumps(doc)))).ok


def test_unlinked_input_and_multiple_drivers():
    doc = first_order_doc()
    doc["links"] = doc["links"][:-1]  # integrator input left dangling
    rep = validate(_parse_dict(json.loads(json.dumps(doc))))
    assert any(v.code == "unlinked-input" for v in rep.violations)

    doc = first_order_doc()
    doc["links"].append({"from": "U.out", "to": "I.in"})
    rep = validate(_parse_dict(json.loads(json.dumps(doc))))
    assert any(v.code == "multiple-drivers" for v in rep.violations)


def test_lookup_breakpoints_must_increase():
    doc = {
        "schema": 1, "name": "lut", "params": {},
        "blocks": [
            {"id": "U", "kind": "Step"},
            {"id": "L", "kind": "LookupTable1D", "breakpoints": [0.0, 1.0, 1.0],
             "values": [0.0, 1.0, 2.0]},
        ],
        "links": [{"from": "U.out", "to": "L.in"}],
        "outputs": [{"name": "y", "from": "L.out"}],
    }
    rep = validate(_parse_dict(json.loads(json.dumps(doc))))
    assert any(v.code == "lookup-breakpoints" for v in rep.violations)


def test_serialization_round_trip(first_order):
    text = diagram_to_json(first_order)
    d2 = parse_diagram(text)
    assert to_dict(d2) == to_dict(first_order)


def _gain_chain_doc(n, loop):
    """n unit Gains G0 -> G1 -> ... -> G{n-1}, fed by a Step or, with
    ``loop``, closed into a purely algebraic ring."""
    blocks = [{"id": f"G{i}", "kind": "Gain", "gain": 1.0} for i in range(n)]
    links = [{"from": f"G{i}.out", "to": f"G{i + 1}.in"} for i in range(n - 1)]
    if loop:
        links.append({"from": f"G{n - 1}.out", "to": "G0.in"})
    else:
        blocks.append({"id": "U", "kind": "Step"})
        links.append({"from": "U.out", "to": "G0.in"})
    return {"schema": 1, "name": "chain", "params": {}, "blocks": blocks,
            "links": links, "outputs": [{"name": "y", "from": f"G{n - 1}.out"}]}


def test_long_chain_validates():
    d = parse_diagram(json.dumps(_gain_chain_doc(3000, loop=False)))
    assert validate(d).ok


def test_long_algebraic_loop_reported_with_full_path():
    n = 2500
    rep = validate(_parse_dict(_gain_chain_doc(n, loop=True)))
    path = " -> ".join([f"G{i}" for i in range(n)] + ["G0"])
    assert [(v.code, v.message) for v in rep.violations] == [
        ("algebraic-loop", "algebraic loop: " + path)]


# -- the JSON writer -------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
MODEL_FILES = sorted((ROOT / "models").glob("*.json"))
GOLDEN_FILES = sorted((ROOT / "tests" / "golden").glob("*.json"))


def _same_as_json(d):
    assert diagram_to_json(d) == json.dumps(to_dict(d), indent=1)


@pytest.mark.parametrize("path", [*MODEL_FILES, 2, 3, 5],
                         ids=lambda p: p.stem if isinstance(p, Path) else f"perfbench-chain{p}")
def test_writer_matches_json_on_models_and_their_diffs(path, monkeypatch):
    if isinstance(path, Path):
        d = load_diagram(path.read_text(encoding="utf-8"))
    else:       # a large-diagram workload chain of that many stages
        d = load_diagram(perfbench_workloads(monkeypatch)._chain_doc(random.Random(path), path))
    _same_as_json(d)
    for theta in d.params:
        d1 = agdm_diff(d, theta)
        _same_as_json(d1)
        try:
            d2 = agdm_diff(d1, theta)
        except DelayOrderExceeded as exc:      # the one derivative agdm refuses
            assert exc.block in d1.annotations["dde_sensitivity"]
            continue
        _same_as_json(d2)


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_writer_matches_json_on_golden_files(path):
    text = path.read_text(encoding="utf-8")
    d = load_diagram(text)
    _same_as_json(d)
    assert diagram_to_json(d) + "\n" == text


def test_writer_matches_json_on_unusual_values():
    odd = "q\"\\\x00\x1f\n é→😀"     # quote, backslash, control and non-ASCII characters
    child = {"schema": 1, "name": "inner", "params": {"a": 1.0},
             "blocks": [{"id": "In", "kind": "Inport", "index": 0},
                        {"id": "Gé→", "kind": "Gain", "gain": "2*a"}],
             "links": [{"from": "In.out", "to": "Gé→.in"}],
             "outputs": [{"name": "zü", "from": "Gé→.out"}],
             "annotations": {"note": "été \"quoted\"\n\ttab", "": ""}}
    doc = {"schema": 1, "name": "unusual θ",
           "params": {"a": 1.0, "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
                      "big": 1e300, "tiny": -5e-324, "whole": 3},
           "blocks": [{"id": "U", "kind": "Step", "time": 0.0, "level": 2},
                      {"id": "Sé", "kind": "Subsystem", "diagram": child},
                      {"id": "P", "kind": "Product", "n": 2},
                      {"id": "L", "kind": "LookupTable1D", "breakpoints": [0, 1.5],
                       "values": [-0.0, 1e-7], "piecewise_constant": True},
                      {"id": odd, "kind": "Gain", "gain": 1.0}],
           "links": [{"from": "U.out", "to": "Sé.in"},
                     {"from": "Sé.zü", "to": "P.in1"}, {"from": "U.out", "to": "P.in2"},
                     {"from": "P.out", "to": "L.in"}, {"from": "L.out", "to": f"{odd}.in"}],
           "outputs": [{"name": "y", "from": "L.out"}, {"name": odd, "from": f"{odd}.out"}],
           "annotations": {"empty": {}, "none": [], "mixed": [1, 2.5, True, None, "x", [[]]],
                           "derivative_flow": {odd: {"of": odd, "theta": ""}, "": {}},
                           "strings": {"": "", odd: "\u2028\x7f\ud800", "q": "\\\""},
                           "str and float": {"s": "x", "f": 2.5, "nan": math.nan, "e": ""},
                           "tuple": (1, [2.0, "t"]), "numeric keys": {1: "one", 2.5: [None]},
                           "deep": {"a": {"b": {"c": [math.nan, math.inf]}}}}}
    d = _parse_dict(doc)
    _same_as_json(d)
    _same_as_json(_parse_dict({**doc, "annotations": {}}))
    _same_as_json(_parse_dict(child))
    for bad in ({"k": object()}, {"k": [1.5, {"x": {1, 2}}]}, {(1, 2): "tuple key"}):
        d = _parse_dict({**doc, "annotations": {"bad": bad}})
        with pytest.raises(TypeError):      # as json.dumps raises
            json.dumps(to_dict(d), indent=1)
        with pytest.raises(TypeError):
            diagram_to_json(d)


# -- records -----------------------------------------------------------------------

def test_driver_takes_a_plain_tuple_and_returns_the_stored_portref():
    d = _parse_dict({"schema": 1, "blocks": [{"id": "A", "kind": "Constant"},
                                             {"id": "B", "kind": "Gain"}],
                     "links": [{"from": "A.out", "to": "B.in"}],
                     "outputs": [{"name": "y", "from": "B.out"}]})
    drv = d.driver(("B", "in"))
    assert type(drv) is PortRef and drv is d.links[0].src and str(drv) == "A.out"
    assert d.driver(PortRef("B", "in")) is drv
    assert d.driver(("A", "in")) is None


def test_links_and_outputs_keep_their_value_semantics():
    a, b = PortRef("A", "out"), PortRef("B", "in")
    ln = Link(a, b)
    assert repr(ln) == "Link(src=PortRef(block='A', port='out'), dst=PortRef(block='B', port='in'))"
    assert ln == Link(PortRef("A", "out"), PortRef("B", "in")) != Link(b, a)
    assert hash(ln) == hash(Link(PortRef("A", "out"), PortRef("B", "in")))
    assert len({ln, Link(a, b), Link(b, a)}) == 2
    assert (ln.src, ln.dst) == (a, b)
    o = Output("y", a)
    assert repr(o) == "Output(name='y', src=PortRef(block='A', port='out'))"
    assert o == Output("y", PortRef("A", "out")) != Output("z", a)
    assert hash(o) == hash(Output("y", PortRef("A", "out")))
    assert (o.name, o.src) == ("y", a)


def test_block_ports_are_computed_once(monkeypatch):
    kind = diagram._KINDS["Sum"]
    calls, ports = [], kind.ports
    monkeypatch.setattr(kind, "ports", lambda f: calls.append(f) or ports(f))
    b = make_block("S", "Sum", signs="+-")
    assert [b.port_names() for _ in range(3)] == [(["in1", "in2"], ["out"])] * 3
    assert b.feedthrough and b.feedthrough
    d = _parse_dict({"schema": 1, "blocks": [{"id": "A", "kind": "Constant"},
                                             {"id": "S", "kind": "Sum", "signs": "+-"}],
                     "links": [{"from": "A.out", "to": "S.in1"}, {"from": "A.out", "to": "S.in2"}],
                     "outputs": [{"name": "y", "from": "S.out"}]})
    assert validate(d).ok
    flatten(d)
    assert len(calls) == 2      # one per Sum block, however often its ports are read


def test_block_ports_read_from_threads_at_once_are_one_object():
    blocks = [make_block(f"S{i}", "Sum", signs="+-+") for i in range(300)]
    seen = [[] for _ in blocks]
    start = threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        for got, b in zip(seen, blocks):
            got.append((b.port_names(), b.feedthrough))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, b in zip(seen, blocks):     # every reader holds the one cached list
        assert len(got) == 8 and all(ports is b.port_names() and ft for ports, ft in got)
        assert b.port_names() == (["in1", "in2", "in3"], ["out"])

# -- one validation per diagram ----------------------------------------------------

def _count_checks(monkeypatch) -> list:
    runs = []
    checks = diagram._checks
    monkeypatch.setattr(diagram, "_checks", lambda d, top: runs.append(top) or checks(d, top))
    return runs


def test_parse_then_flatten_validates_once(monkeypatch):
    runs = _count_checks(monkeypatch)
    d = parse_diagram(json.dumps(first_order_doc()))
    flatten(d)
    assert validate(d).ok
    assert runs == [True]


def test_flatten_of_invalid_diagram_reports_the_same_violations(monkeypatch):
    doc = first_order_doc()
    doc["links"] = doc["links"][:-1]
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as parsed:
        parse_diagram(text)
    runs = _count_checks(monkeypatch)
    d = load_diagram(text)
    with pytest.raises(ValidationError) as flattened:
        flatten(d)
    with pytest.raises(ValidationError) as again:
        flatten(d)
    assert flattened.value.violations == parsed.value.violations == again.value.violations
    assert [v.code for v in validate(d).violations] == ["unlinked-input"]
    assert runs == [True]


def test_memo_is_not_part_of_the_value():
    text = json.dumps(first_order_doc())
    checked, fresh = parse_diagram(text), load_diagram(text)
    assert checked._memo and not fresh._memo
    assert checked == fresh
    assert repr(checked) == repr(fresh)


def test_bad_expression_fails_on_every_parse():
    doc = first_order_doc()
    doc["blocks"][1]["gain"] = "k +"
    for _ in range(2):
        with pytest.raises(SchemaError) as exc:
            load_diagram(json.dumps(doc))
        assert exc.value.path == "$.blocks[1].gain"



@pytest.mark.parametrize("case", sorted(BAD_INTEGERS))
def test_integer_block_field_of_another_shape_is_a_schema_error(case):
    doc, path = bad_integer_doc(case)
    with pytest.raises(SchemaError) as exc:
        load_diagram(json.dumps(doc))
    assert exc.value.path == path
    assert "expected an integer" in str(exc.value)


def test_integer_block_fields_keep_their_values():
    doc = first_order_doc()
    doc["blocks"] += [{"id": "P", "kind": "Product", "n": 1}, {"id": "M", "kind": "Mux", "n": 3},
                      {"id": "D", "kind": "Demux"}, {"id": "In", "kind": "Inport", "index": 0}]
    fields = {b.id: b.fields for b in load_diagram(json.dumps(doc)).blocks}
    assert (fields["P"], fields["M"], fields["D"], fields["In"]) == (
        {"n": 1}, {"n": 3}, {"n": 2}, {"index": 0})
