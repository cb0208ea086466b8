import json

import pytest

from conftest import first_order_doc
from hybridad import SchemaError, ValidationError, parse_diagram, validate
from hybridad.diagram import _parse_dict, diagram_to_json, to_dict


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
