import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import delay_chain_doc, first_order_doc
from hybridad import (
    DelayOrderExceeded,
    SimConfig,
    UnknownParameter,
    agdm_diff,
    diagram_to_json,
    flatten,
    integrate,
    parse_diagram,
    parse_expr,
    prune_zero,
    sensitivity_extend,
    ss_augment,
    tf_param_derivative,
)
import hybridad.agdm as agdm_module
from hybridad.agdm import _Builder, _nonzero_ports, cone, d_block_name, d_output_name
from hybridad.diagram import Link, PortRef, load_diagram, make_block, validate

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _diag(doc):
    return parse_diagram(json.dumps(doc))


def _rational(num, den, env, s):
    n = sum(c.evaluate(env) * s ** i for i, c in enumerate(num))
    d = sum(c.evaluate(env) * s ** i for i, c in enumerate(den))
    return n / d


# -- transfer-function quotient rule ------------------------------------------

def test_tf_derivative_wrt_time_constant():
    num = (parse_expr("k"),)
    den = (parse_expr(1.0), parse_expr("tau"))
    n2, d2 = tf_param_derivative(num, den, "tau")
    env = {"k": 2.0, "tau": 0.7}
    for s in (0.3, 1.0, 2.5):
        want = -env["k"] * s / (1 + env["tau"] * s) ** 2
        assert _rational(n2, d2, env, s) == pytest.approx(want, rel=1e-13)


def test_tf_derivative_wrt_gain():
    num = (parse_expr("k"),)
    den = (parse_expr(1.0), parse_expr("tau"))
    n2, d2 = tf_param_derivative(num, den, "k")
    env = {"k": 2.0, "tau": 0.7}
    for s in (0.3, 1.0, 2.5):
        want = 1.0 / (1 + env["tau"] * s)
        assert _rational(n2, d2, env, s) == pytest.approx(want, rel=1e-13)


def test_tf_derivative_independent_parameter_is_zero():
    num = (parse_expr("k"),)
    den = (parse_expr(1.0), parse_expr("tau"))
    n2, _ = tf_param_derivative(num, den, "zeta")
    assert all(c.is_zero() for c in n2)


# -- state-space augmentation --------------------------------------------------

def test_ss_augment_first_order_blocks():
    A = ((parse_expr("-1/tau"),),)
    B = ((parse_expr("k/tau"),),)
    C = ((parse_expr(1.0),),)
    D = ((parse_expr(0.0),),)
    A2, B2, C2, D2 = ss_augment(A, B, C, D, "tau")
    env = {"k": 1.0, "tau": 0.5}
    assert A2[1][0].evaluate(env) == pytest.approx(1.0 / 0.5 ** 2)       # dA/dtau
    assert B2[1][0].evaluate(env) == pytest.approx(-1.0 / 0.5 ** 2)      # dB/dtau
    assert A2[0][1].is_zero() and B2[0][1].is_zero()
    assert A2[1][1].evaluate(env) == A2[0][0].evaluate(env)


def test_ss_augment_theta_independent_blocks_are_zero():
    A = ((parse_expr(-1.0),),)
    B = ((parse_expr(2.0),),)
    C = ((parse_expr(1.0),),)
    D = ((parse_expr(0.0),),)
    A2, B2, _, _ = ss_augment(A, B, C, D, "tau")
    assert A2[1][0].is_zero() and B2[1][0].is_zero()


def _ss_doc():
    return {
        "schema": 1, "name": "ss", "params": {"th": 0.4},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "P", "kind": "StateSpaceC",
             "A": [["-1 - th", 0.3], [0.2, "-2 + th*th"]],
             "B": [["1 + th"], [0.5]],
             "C": [[1.0, "th"]],
             "D": [["th*0.1"]]},
        ],
        "links": [{"from": "U.out", "to": "P.in"}],
        "outputs": [{"name": "y", "from": "P.out"}],
    }


def test_ss_sensitivity_matches_finite_differences():
    d = _diag(_ss_doc())
    c = SimConfig(step=1e-3, tf=3.0)
    m2 = flatten(agdm_diff(d, "th"))
    tr = integrate(m2, c)
    base = flatten(d)

    def y_of(th):
        return integrate(base, c, theta={"th": th}).output("y")

    eps = 1e-6
    fd = (y_of(0.4 + eps) - y_of(0.4 - eps)) / (2 * eps)
    assert np.max(np.abs(tr.output("dy/dth") - fd)) < 1e-5


# -- the didactic first-order example ------------------------------------------

def test_first_order_sensitivity_closed_form(first_order):
    c = SimConfig(step=1e-3, tf=5.0)
    m2 = flatten(agdm_diff(first_order, "tau"))
    tr = integrate(m2, c)
    k, tau = 1.0, 0.5
    t = tr.times
    # d/dtau of k(1 - exp(-t/tau)); the Laplace form -k s/(1+tau s)^2 agrees
    want = -k * t * np.exp(-t / tau) / tau ** 2
    assert np.max(np.abs(tr.output("dy/dtau") - want)) < 1e-5


def test_original_flow_is_preserved_bitwise(first_order):
    c = SimConfig(step=1e-3, tf=2.0)
    base = integrate(flatten(first_order), c)
    aug = integrate(flatten(agdm_diff(first_order, "tau")), c)
    assert np.array_equal(base.output("y"), aug.output("y"))


def test_second_order_agdm_matches_analytic(first_order):
    c = SimConfig(step=1e-3, tf=5.0)
    d2 = agdm_diff(agdm_diff(first_order, "tau"), "tau")
    tr = integrate(flatten(d2), c)
    k, tau = 1.0, 0.5
    t = tr.times
    want = k * t * np.exp(-t / tau) * (2.0 / tau ** 3 - t / tau ** 4)
    assert np.max(np.abs(tr.output("d2y/dtau2") - want)) < 1e-5


def test_mixed_partials_commute(first_order):
    c = SimConfig(step=1e-3, tf=4.0)
    kt = integrate(flatten(agdm_diff(agdm_diff(first_order, "k"), "tau")), c)
    tk = integrate(flatten(agdm_diff(agdm_diff(first_order, "tau"), "k")), c)
    a = kt.output("ddy/dk/dtau")
    b = tk.output("ddy/dtau/dk")
    assert np.max(np.abs(a - b)) <= 1e-9
    t = kt.times
    want = -t * np.exp(-t / 0.5) / 0.5 ** 2     # d2y/dk dtau, closed form
    assert np.max(np.abs(a - want)) < 1e-5


def test_unknown_parameter(first_order):
    with pytest.raises(UnknownParameter) as exc:
        agdm_diff(first_order, "zeta")
    assert "k" in str(exc.value) and "tau" in str(exc.value)
    # one bad name in a sequence is enough
    with pytest.raises(UnknownParameter) as exc:
        sensitivity_extend(flatten(first_order), ["tau", "zeta", "k"])
    assert "zeta" in str(exc.value) and "tau" in str(exc.value)


def test_theta_independent_model_prunes_to_zero():
    doc = first_order_doc()
    doc["params"]["spare"] = 3.0
    d = _diag(doc)
    d2 = agdm_diff(d, "spare")
    # derivative flow fully pruned: only the original blocks plus one zero
    flow = [b for b in d2.blocks if b.id not in {bb.id for bb in d.blocks}]
    assert len(flow) == 1 and flow[0].kind == "Constant"
    tr = integrate(flatten(d2), SimConfig(step=0.01, tf=1.0))
    assert np.all(tr.output("dy/dspare") == 0.0)


def test_m2_identical_copy_for_theta_independent_linear_blocks():
    doc = {
        "schema": 1, "name": "chain", "params": {"a": 0.7},
        "blocks": [
            {"id": "U", "kind": "Step"},
            {"id": "Ga", "kind": "Gain", "gain": "a"},
            {"id": "G2", "kind": "Gain", "gain": 2.0},
            {"id": "H", "kind": "TransferFnS", "num": [1.0], "den": [1.0, 1.0]},
        ],
        "links": [
            {"from": "U.out", "to": "Ga.in"},
            {"from": "Ga.out", "to": "G2.in"},
            {"from": "G2.out", "to": "H.in"},
        ],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "a")
    by_id = {b.id: b for b in d2.blocks}
    copy_g = by_id[d_block_name("G2", "a")]
    assert copy_g.kind == "Gain" and copy_g.fields == d.block("G2").fields
    copy_h = by_id[d_block_name("H", "a")]
    assert copy_h.kind == "TransferFnS" and copy_h.fields == d.block("H").fields


def test_m4_switch_copy_tests_original_signal():
    doc = {
        "schema": 1, "name": "sw", "params": {"a": 1.0},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Ctl", "kind": "Step", "time": 1.0, "level": 1.0},
            {"id": "G1", "kind": "Gain", "gain": "a"},
            {"id": "G2", "kind": "Gain", "gain": "2*a"},
            {"id": "SW", "kind": "Switch", "threshold": 0.5},
        ],
        "links": [
            {"from": "G1.out", "to": "SW.in1"},
            {"from": "Ctl.out", "to": "SW.in2"},
            {"from": "G2.out", "to": "SW.in3"},
            {"from": "U.out", "to": "G1.in"},
            {"from": "U.out", "to": "G2.in"},
        ],
        "outputs": [{"name": "y", "from": "SW.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "a")
    dsw = d_block_name("SW", "a")
    ctl = d2.driver(PortRef(dsw, "in2"))
    assert ctl == PortRef("Ctl", "out")     # original signal, not a derivative
    tr = integrate(flatten(d2), SimConfig(step=0.01, tf=2.0))
    dy = tr.output("dy/da")
    t = tr.times
    assert np.all(dy[t < 1.0] == pytest.approx(2.0))
    assert np.all(dy[t >= 1.0] == pytest.approx(1.0))


def test_lookup_table_derivative_and_m5_warning():
    doc = {
        "schema": 1, "name": "lut", "params": {"a": 0.5},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Ga", "kind": "Gain", "gain": "a"},
            {"id": "L", "kind": "LookupTable1D",
             "breakpoints": [0.0, 1.0, 2.0, 3.0], "values": [0.0, 1.0, 0.5, 2.0]},
        ],
        "links": [
            {"from": "U.out", "to": "Ga.in"},
            {"from": "Ga.out", "to": "L.in"},
        ],
        "outputs": [{"name": "y", "from": "L.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "a")
    assert "lookup_fd_warning" in d2.annotations
    m = flatten(d2)
    c = SimConfig(step=0.1, tf=1.0)
    # u = a; dy/da = slope of the bracketing interval (forward difference
    # with increment equal to the breakpoint spacing)
    for a, slope in ((0.5, 1.0), (1.5, -0.5), (2.5, 1.5), (4.0, 0.0), (-1.0, 0.0)):
        tr = integrate(m, c, theta={"a": a})
        assert tr.output("dy/da")[-1] == pytest.approx(slope)


def test_saturated_integrator_derivative_freezes_while_pinned():
    doc = {
        "schema": 1, "name": "sat", "params": {"a": 1.0},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Ga", "kind": "Gain", "gain": "a"},
            {"id": "I", "kind": "Integrator", "initial": 0.0, "saturation": [-1.0, 1.0]},
        ],
        "links": [
            {"from": "U.out", "to": "Ga.in"},
            {"from": "Ga.out", "to": "I.in"},
        ],
        "outputs": [{"name": "y", "from": "I.out"}],
    }
    d = _diag(doc)
    tr = integrate(flatten(agdm_diff(d, "a")), SimConfig(step=1e-3, tf=2.0))
    t = tr.times
    y, dy = tr.output("y"), tr.output("dy/da")
    # the crossing step carries an O(step) layer; the clamp pins exactly after
    assert np.max(np.abs(y - np.minimum(t, 1.0))) < 2e-3
    assert np.all(y[t >= 1.0 + 2e-3] == 1.0)
    before = t <= 1.0 - 1e-9
    assert np.allclose(dy[before], t[before], atol=1e-9)
    # gated to zero while pinned: the sensitivity state freezes
    assert np.allclose(dy[t > 1.0], 1.0, atol=2e-3)
    assert np.all(np.diff(dy[t >= 1.0 + 2e-3]) == 0.0)


def test_delay_duplicate_when_delay_is_parameter_free():
    doc = {
        "schema": 1, "name": "delay", "params": {"a": 1.0},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "Ga", "kind": "Gain", "gain": "a"},
            {"id": "D", "kind": "TransportDelay", "delay": 0.3, "prehistory": 0.0},
        ],
        "links": [
            {"from": "U.out", "to": "Ga.in"},
            {"from": "Ga.out", "to": "D.in"},
        ],
        "outputs": [{"name": "y", "from": "D.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "a")
    by_id = {b.id: b for b in d2.blocks}
    assert by_id[d_block_name("D", "a")].kind == "TransportDelay"
    tr = integrate(flatten(d2), SimConfig(step=0.01, tf=1.0))
    t = tr.times
    want = np.where(t >= 0.3, 1.0, 0.0)
    assert np.max(np.abs(tr.output("dy/da") - want)) < 1e-12


def test_delay_sensitivity_block_when_delay_depends_on_theta():
    doc = {
        "schema": 1, "name": "dde", "params": {"h": 0.5},
        "blocks": [
            {"id": "I", "kind": "Integrator", "initial": 1.0},
            {"id": "D", "kind": "TransportDelay", "delay": "h", "prehistory": 1.0},
            {"id": "N", "kind": "Gain", "gain": -1.0},
        ],
        "links": [
            {"from": "I.out", "to": "D.in"},
            {"from": "D.out", "to": "N.in"},
            {"from": "N.out", "to": "I.in"},
        ],
        "outputs": [{"name": "y", "from": "I.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "h")
    assert "dde_sensitivity" in d2.annotations
    tr = integrate(flatten(d2), SimConfig(step=1e-3, tf=1.0))
    t = tr.times
    want = np.where(t <= 0.5, 0.0, -(t - 0.5))   # method-of-steps closed form
    assert np.max(np.abs(tr.output("dy/dh") - want)) < 1e-6


def test_mux_demux_widened_in_derivative_flow():
    doc = {
        "schema": 1, "name": "bundle", "params": {"a": 0.7},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "G1", "kind": "Gain", "gain": "a"},
            {"id": "G2", "kind": "Gain", "gain": "a*a"},
            {"id": "M", "kind": "Mux", "n": 2},
            {"id": "D", "kind": "Demux", "n": 2},
            {"id": "S", "kind": "Sum", "signs": "++"},
        ],
        "links": [
            {"from": "U.out", "to": "G1.in"},
            {"from": "U.out", "to": "G2.in"},
            {"from": "G1.out", "to": "M.in1"},
            {"from": "G2.out", "to": "M.in2"},
            {"from": "M.out", "to": "D.in"},
            {"from": "D.out1", "to": "S.in1"},
            {"from": "D.out2", "to": "S.in2"},
        ],
        "outputs": [{"name": "y", "from": "S.out"}],
    }
    d = _diag(doc)
    d2 = agdm_diff(d, "a")
    kinds = {b.id: b.kind for b in d2.blocks}
    assert kinds[d_block_name("M", "a")] == "Mux"     # bundle widened
    assert kinds[d_block_name("D", "a")] == "Demux"
    tr = integrate(flatten(d2), SimConfig(step=0.25, tf=0.5))
    # y = a + a^2, dy/da = 1 + 2a
    assert tr.output("dy/da")[-1] == pytest.approx(1 + 2 * 0.7, rel=1e-14)


def _every_rule_doc():
    with open(os.path.join(MODELS, "every_rule.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_cone_of_an_output_that_reads_the_whole_diagram_keeps_every_block():
    d = _diag(_every_rule_doc())
    c = cone(d, "y")
    assert [b.id for b in c.blocks] == [b.id for b in d.blocks]
    assert all(a is b for a, b in zip(c.blocks, d.blocks) if a.kind != "Sum")
    assert {(ln.src, ln.dst) for ln in c.links} == {(ln.src, ln.dst) for ln in d.links}
    assert [o.name for o in c.outputs] == ["y"]
    assert c.annotations == d.annotations


def test_cone_keeps_only_what_its_output_reads():
    d = _diag(_every_rule_doc())
    c = cone(d, "x")
    assert [b.id for b in c.blocks] == ["U", "Gk", "E", "X"]      # in d's order
    assert [o.name for o in c.outputs] == ["x"]
    assert validate(c).ok


def test_cone_keeps_a_subsystem_whole_and_a_mux_demux_pair_together():
    doc = _every_rule_doc()
    doc["outputs"] = [{"name": "z", "from": "Sub.z"}, {"name": "w", "from": "DM.out1"}]
    d = _diag(doc)
    held = {"U", "Gk", "E", "X", "D", "L", "M", "DM"}
    for name, kept in (("z", held | {"Sub"}), ("w", held)):
        c = cone(d, name)
        assert {b.id for b in c.blocks} == kept
        assert validate(c).ok
        # the Demux reads one bundle, so the Mux and both of its inputs stay
        assert c.driver(("DM", "in")) == PortRef("M", "out")
        assert c.driver(("M", "in2")) == PortRef("L", "out")
    assert cone(d, "z").block("Sub") is d.block("Sub")     # its child untouched
    zc, zd = (integrate(flatten(x), SimConfig(step=0.01, tf=0.5)) for x in (cone(d, "z"), d))
    assert np.array_equal(zc.output("z"), zd.output("z"))


def test_multi_output_state_space_differentiated():
    doc = {
        "schema": 1, "name": "mimo", "params": {"th": 0.6},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "P", "kind": "StateSpaceC",
             "A": [["-1", 0.0], ["th", -2.0]],
             "B": [[1.0], ["th*th"]],
             "C": [[1.0, 0.0], [0.0, "th"]],
             "D": [[0.0], [0.0]]},
        ],
        "links": [{"from": "U.out", "to": "P.in"}],
        "outputs": [{"name": "y1", "from": "P.out1"},
                    {"name": "y2", "from": "P.out2"}],
    }
    d = _diag(doc)
    c = SimConfig(step=1e-3, tf=2.0)
    tr = integrate(flatten(agdm_diff(d, "th")), c)
    base = flatten(d)

    def out(th, name):
        return integrate(base, c, theta={"th": th}).output(name)

    eps = 1e-6
    for name in ("y1", "y2"):
        fd = (out(0.6 + eps, name) - out(0.6 - eps, name)) / (2 * eps)
        got = tr.output(f"d{name}/dth")
        assert np.max(np.abs(got - fd)) < 1e-5


# -- pruning -------------------------------------------------------------------

def test_prune_removes_zero_subtree():
    doc = {
        "schema": 1, "name": "p", "params": {},
        "blocks": [
            {"id": "Z", "kind": "Constant", "value": 0.0},
            {"id": "G", "kind": "Gain", "gain": 5.0},
            {"id": "U", "kind": "Step"},
            {"id": "S", "kind": "Sum", "signs": "++"},
        ],
        "links": [
            {"from": "Z.out", "to": "G.in"},
            {"from": "G.out", "to": "S.in1"},
            {"from": "U.out", "to": "S.in2"},
        ],
        "outputs": [{"name": "y", "from": "S.out"}],
    }
    d = _diag(doc)
    p = prune_zero(d)
    ids = {b.id for b in p.blocks}
    assert "G" not in ids and "Z" not in ids
    s = p.block("S")
    assert s.fields["signs"] == "+"          # arity reduced
    a = integrate(flatten(d), SimConfig(step=0.1, tf=1.0))
    b = integrate(flatten(p), SimConfig(step=0.1, tf=1.0))
    assert np.max(np.abs(a.output("y") - b.output("y"))) <= 1e-14


def test_prune_keeps_outputs_alive():
    doc = {
        "schema": 1, "name": "pz", "params": {},
        "blocks": [
            {"id": "Z", "kind": "Constant", "value": 0.0},
            {"id": "G", "kind": "Gain", "gain": 2.0},
        ],
        "links": [{"from": "Z.out", "to": "G.in"}],
        "outputs": [{"name": "y", "from": "G.out"}],
    }
    p = prune_zero(_diag(doc))
    tr = integrate(flatten(p), SimConfig(step=0.1, tf=0.5))
    assert np.all(tr.output("y") == 0.0)


_Z, _U = "Z.out", "U.out"     # a zero constant and a unit step


def _zero_rule_case(blocks, links):
    """Block X (and helpers) feeding y = X + U, with Z = 0 available."""
    return {
        "schema": 1, "name": "zr", "params": {},
        "blocks": [{"id": "Z", "kind": "Constant", "value": 0.0},
                   {"id": "U", "kind": "Step"}, *blocks,
                   {"id": "S", "kind": "Sum", "signs": "++"}],
        "links": [{"from": src, "to": dst} for src, dst in links]
        + [{"from": "X.out", "to": "S.in1"}, {"from": _U, "to": "S.in2"}],
        "outputs": [{"name": "y", "from": "S.out"}],
    }


_ZERO_RULE_CASES = {
    # name: (blocks, links into them, X kept by prune_zero)
    "Product-one-zero-input": (
        [{"id": "X", "kind": "Product", "n": 2}],
        [(_U, "X.in1"), (_Z, "X.in2")], False),
    "Switch-only-in2-nonzero": (
        [{"id": "X", "kind": "Switch", "threshold": 0.5}],
        [(_Z, "X.in1"), (_U, "X.in2"), (_Z, "X.in3")], False),
    "Integrator-loop-zero-initial": (
        [{"id": "X", "kind": "Integrator", "initial": 0.0},
         {"id": "K", "kind": "Gain", "gain": -1.0}],
        [("X.out", "K.in"), ("K.out", "X.in")], False),
    "Integrator-loop-nonzero-initial": (
        [{"id": "X", "kind": "Integrator", "initial": 1.0},
         {"id": "K", "kind": "Gain", "gain": -1.0}],
        [("X.out", "K.in"), ("K.out", "X.in")], True),
    "Saturation-pinned-away-from-zero": (
        [{"id": "X", "kind": "Saturation", "lo": 0.5, "hi": 2.0}],
        [(_Z, "X.in")], True),
    "TransferFnS-zero-numerator": (
        [{"id": "X", "kind": "TransferFnS", "num": [0.0], "den": [1.0, 1.0]}],
        [(_U, "X.in")], False),
    "DelaySensitivity-zero-ddelay-ignores-in": (
        [{"id": "X", "kind": "DelaySensitivity", "delay": 0.5, "ddelay": 0.0}],
        [(_U, "X.in"), (_Z, "X.din")], False),
    "DelaySensitivity-nonzero-ddelay-reads-in": (
        [{"id": "X", "kind": "DelaySensitivity", "delay": 0.5, "ddelay": 1.0}],
        [(_U, "X.in"), (_Z, "X.din")], True),
}


@pytest.mark.parametrize("case", sorted(_ZERO_RULE_CASES))
def test_zero_rule_prunes_or_keeps_block(case):
    blocks, links, kept = _ZERO_RULE_CASES[case]
    p = prune_zero(_diag(_zero_rule_case(blocks, links)))
    ids = {b.id for b in p.blocks}
    case_ids = {b["id"] for b in blocks}
    assert case_ids <= ids if kept else not case_ids & ids
    assert p.block("S").fields["signs"] == ("++" if kept else "+")


def _carried_and_fresh(d, theta):
    """Differentiate ``agdm_diff(d)`` again, once as it is, carrying its
    nonzero ports, and once re-read from its JSON, which carries none."""
    d1 = agdm_diff(d, theta)
    fresh = load_diagram(diagram_to_json(d1))
    assert "nonzero" not in fresh._memo
    assert d1._memo["nonzero"] == _nonzero_ports(fresh)
    d2 = agdm_diff(d1, theta)
    for dd in (d1, d2):     # stored ports stay PortRefs where lookups pass plain tuples
        assert all(type(p) is PortRef for p in dd._memo["nonzero"])
        assert all(type(ln) is Link and type(ln.src) is type(ln.dst) is PortRef
                   for ln in dd._memo["wiring"])
    return diagram_to_json(d2), diagram_to_json(agdm_diff(fresh, theta))


@pytest.mark.parametrize("case", sorted(c for c in _ZERO_RULE_CASES
                                        if not c.startswith("DelaySensitivity")))
def test_seeded_prune_equals_full_fixpoint_on_zero_rule_cases(case):
    # U = th makes a derivative flow through X; a DelaySensitivity block
    # has no derivative rule, so those cases cannot be differentiated
    blocks, links, _ = _ZERO_RULE_CASES[case]
    doc = _zero_rule_case(blocks, links)
    doc["params"] = {"th": 0.5}
    doc["blocks"][1] = {"id": "U", "kind": "Constant", "value": "th"}
    doc["blocks"].append({"id": "Dead", "kind": "Gain", "gain": 2.0})   # read by nothing
    doc["links"].append({"from": "U.out", "to": "Dead.in"})
    carried, fresh = _carried_and_fresh(_diag(doc), "th")
    assert carried == fresh


@pytest.mark.parametrize("model,theta", [("first_order", "tau"), ("discrete_loop", "a"),
                                         ("second_order_cost", "zeta"), ("chain2", "k")])
@pytest.mark.parametrize("order", [1, 2])
def test_seeded_prune_equals_full_fixpoint_on_models(model, theta, order):
    with open(os.path.join(MODELS, f"{model}.json"), encoding="utf-8") as fh:
        d = parse_diagram(fh.read())
    for _ in range(order - 1):
        d = agdm_diff(d, theta)
    carried, fresh = _carried_and_fresh(d, theta)
    assert carried == fresh


@pytest.mark.parametrize("model,theta", [("first_order", "tau"), ("chain2", "k"),
                                         ("every_rule", "k"), ("discrete_loop", "a")])
def test_order_two_runs_no_rule_for_a_block_already_differentiated(monkeypatch, model, theta):
    # at order 2, d(X)/d(theta) carries X's derivative as at order 1, so
    # X's rule would add only unreachable blocks; Inports' rules still run
    with open(os.path.join(MODELS, f"{model}.json"), encoding="utf-8") as fh:
        d1 = agdm_diff(parse_diagram(fh.read()), theta)
    flow = d1.annotations["derivative_flow"]
    done = {b.id for b in d1.blocks if b.kind != "Inport"
            and flow.get(d_block_name(b.id, theta)) == {"of": b.id, "theta": theta}}
    ran, emit = [], agdm_module._emit_block
    monkeypatch.setattr(agdm_module, "_emit_block", lambda bld, b: ran.append(b.id) or emit(bld, b))
    d2 = agdm_diff(d1, theta)
    assert done and ran and not done & set(ran)
    # the same diagram as running every rule, which a d1 without its flow
    # record does
    ran.clear()
    everything = agdm_diff(dataclasses.replace(d1, annotations={}), theta)
    assert done <= set(ran)

    def body(d):
        return {k: v for k, v in json.loads(diagram_to_json(d)).items() if k != "annotations"}
    assert body(d2) == body(everything)


def test_diff_writes_original_links_in_block_order(first_order):
    doc = first_order_doc()
    doc["links"].reverse()
    shuffled = agdm_diff(_diag(doc), "tau")
    assert diagram_to_json(shuffled) == diagram_to_json(agdm_diff(first_order, "tau"))


def test_pruned_and_unpruned_augmentation_simulate_identically(first_order):
    c = SimConfig(step=1e-3, tf=2.0)
    d2 = agdm_diff(first_order, "tau")  # pruned internally
    p = prune_zero(d2, protect={b.id for b in first_order.blocks})
    a = integrate(flatten(d2), c)
    b = integrate(flatten(p), c)
    assert np.max(np.abs(a.output("dy/dtau") - b.output("dy/dtau"))) <= 1e-14


# -- cross-representation check -------------------------------------------------

def test_tf_route_matches_state_space_route():
    tf_doc = {
        "schema": 1, "name": "tf", "params": {"k": 1.0, "tau": 0.5},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "H", "kind": "TransferFnS", "num": ["k"], "den": [1.0, "tau"]},
        ],
        "links": [{"from": "U.out", "to": "H.in"}],
        "outputs": [{"name": "y", "from": "H.out"}],
    }
    ss_doc = {
        "schema": 1, "name": "ss", "params": {"k": 1.0, "tau": 0.5},
        "blocks": [
            {"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
            {"id": "P", "kind": "StateSpaceC", "A": [["-1/tau"]], "B": [["k/tau"]],
             "C": [[1.0]], "D": [[0.0]]},
        ],
        "links": [{"from": "U.out", "to": "P.in"}],
        "outputs": [{"name": "y", "from": "P.out"}],
    }
    c = SimConfig(step=1e-3, tf=4.0)
    a = integrate(flatten(agdm_diff(_diag(tf_doc), "tau")), c)
    b = integrate(flatten(agdm_diff(_diag(ss_doc), "tau")), c)
    assert np.max(np.abs(a.output("y") - b.output("y"))) < 1e-8
    assert np.max(np.abs(a.output("dy/dtau") - b.output("dy/dtau"))) < 1e-8


# -- naming ---------------------------------------------------------------------

def test_derivative_naming_and_second_order_collapse():
    assert d_block_name("G", "tau") == "d(G)/d(tau)"
    assert d_block_name("d(G)/d(tau)", "tau") == "d2(G)/d(tau)2"
    assert d_block_name("d(G)/d(k)", "tau") == "d(d(G)/d(k))/d(tau)"
    assert d_output_name("y", "tau") == "dy/dtau"
    assert d_output_name("dy/dtau", "tau") == "d2y/dtau2"
    assert d_output_name("dy/dk", "tau") == "ddy/dk/dtau"


def test_transformed_diagram_reparses(first_order):
    d2 = agdm_diff(first_order, "tau")
    text = diagram_to_json(d2)
    d3 = parse_diagram(text)
    assert {b.id for b in d3.blocks} == {b.id for b in d2.blocks}


# -- every differentiation rule against the sensitivity-ODE route -------------
#
# Each continuous case feeds one block kind from u = 1 + th*t (an Integrator
# driven by the constant th) and integrates its output once more, so the
# derivative flows through algebraic and state paths alike.  The graphic route
# flatten(agdm_diff(d)) must agree with the variational equations of
# sensitivity_extend(flatten(d)).

_HI = 1.1537          # u crosses this at t ~ 0.51, between grid points


def _rule_doc(blocks, links, out="B.out"):
    return {
        "schema": 1, "name": "rule", "params": {"th": 0.3},
        "blocks": [{"id": "C", "kind": "Constant", "value": "th"},
                   {"id": "I", "kind": "Integrator", "initial": 1.0},
                   *blocks,
                   {"id": "J", "kind": "Integrator", "initial": 0.0}],
        "links": [{"from": "C.out", "to": "I.in"}, *links,
                  {"from": out, "to": "J.in"}],
        "outputs": [{"name": "y", "from": out}, {"name": "z", "from": "J.out"}],
    }


def _fn_case(fn, src="I.out", blocks=(), links=()):
    return _rule_doc([*blocks, {"id": "B", "kind": "Fn", "fn": fn}],
                     [*links, {"from": src, "to": "B.in"}])


def _rule_cases():
    cases = {f"Fn-{fn}": _fn_case(fn) for fn in
             ("exp", "log", "sin", "cos", "tan", "atan", "sqrt", "pow[3.0]", "pow[0.5]")}
    # abs of a signal that changes sign
    cases["Fn-abs"] = _fn_case(
        "abs", "S.out",
        [{"id": "K", "kind": "Constant", "value": -_HI},
         {"id": "S", "kind": "Sum", "signs": "++"}],
        [{"from": "I.out", "to": "S.in1"}, {"from": "K.out", "to": "S.in2"}])
    cases["Saturation"] = _rule_doc(
        [{"id": "B", "kind": "Saturation", "lo": -1.0, "hi": _HI}],
        [{"from": "I.out", "to": "B.in"}])
    cases["SaturationDynamic"] = _rule_doc(
        [{"id": "Up", "kind": "Constant", "value": f"{_HI - 0.03} + th/10"},
         {"id": "Lo", "kind": "Constant", "value": -1.0},
         {"id": "B", "kind": "SaturationDynamic"}],
        [{"from": "Up.out", "to": "B.up"}, {"from": "I.out", "to": "B.in"},
         {"from": "Lo.out", "to": "B.lo"}])
    cases["StateSpaceC-constant"] = _rule_doc(
        [{"id": "B", "kind": "StateSpaceC", "A": [[-2.0]], "B": [[1.0]],
          "C": [[3.0]], "D": [[0.5]]}],
        [{"from": "I.out", "to": "B.in"}])
    child = {
        "schema": 1, "name": "child", "params": {"th": 0.3},
        "blocks": [{"id": "in0", "kind": "Inport", "index": 0},
                   {"id": "G", "kind": "Gain", "gain": "th*th"},
                   {"id": "F", "kind": "Fn", "fn": "sin"}],
        "links": [{"from": "in0.out", "to": "G.in"}, {"from": "G.out", "to": "F.in"}],
        "outputs": [{"name": "yi", "from": "F.out"}],
    }
    cases["Subsystem"] = _rule_doc(
        [{"id": "B", "kind": "Subsystem", "diagram": child}],
        [{"from": "I.out", "to": "B.in"}], out="B.yi")
    # discrete: x[k+1] = th + x[k]/2, x[0] = th
    cases["UnitDelay"] = {
        "schema": 1, "name": "rule", "params": {"th": 0.3},
        "blocks": [{"id": "C", "kind": "Constant", "value": "th"},
                   {"id": "S", "kind": "Sum", "signs": "++"},
                   {"id": "B", "kind": "UnitDelay", "initial": "th", "sample_time": 0.1},
                   {"id": "G", "kind": "Gain", "gain": 0.5}],
        "links": [{"from": "C.out", "to": "S.in1"}, {"from": "G.out", "to": "S.in2"},
                  {"from": "S.out", "to": "B.in"}, {"from": "B.out", "to": "G.in"}],
        "outputs": [{"name": "y", "from": "B.out"}],
    }
    return cases


_RULE_CASES = _rule_cases()


@pytest.mark.parametrize("case", sorted(_RULE_CASES))
def test_every_rule_agrees_with_sensitivity_ode_route(case):
    d = _diag(_RULE_CASES[case])
    c = SimConfig(step=1e-2, tf=1.0)
    graphic = integrate(flatten(agdm_diff(d, "th")), c)
    ode = integrate(sensitivity_extend(flatten(d), "th"), c)
    assert np.array_equal(graphic.times, ode.times)
    for name in d.outputs:
        col = f"d{name.name}/dth"
        assert np.max(np.abs(graphic.output(col))) > 0.0
        assert np.max(np.abs(graphic.output(col) - ode.output(col))) <= 1e-12
    if case == "Saturation":
        y = graphic.output("y")
        assert np.any(y == _HI) and np.any(y < _HI)


# -- every model, every rule ----------------------------------------------------

def _model_params():
    for name in sorted(os.listdir(MODELS)):
        if name.endswith(".json"):
            with open(os.path.join(MODELS, name), encoding="utf-8") as fh:
                text = fh.read()
            for theta in json.loads(text)["params"]:
                yield pytest.param(text, theta, id=f"{name[:-5]}-{theta}")


@pytest.mark.parametrize("text,theta", _model_params())
def test_every_model_differentiates_to_a_valid_diagram(text, theta):
    d1 = agdm_diff(parse_diagram(text), theta)
    assert validate(d1).ok
    try:
        d2 = agdm_diff(d1, theta)
    except DelayOrderExceeded as exc:      # the one derivative agdm refuses
        assert exc.block in d1.annotations["dde_sensitivity"]
        return
    assert validate(d2).ok


def _models():
    for name in sorted(os.listdir(MODELS)):
        if name.endswith(".json"):
            with open(os.path.join(MODELS, name), encoding="utf-8") as fh:
                yield pytest.param(fh.read(), id=name[:-5])


@pytest.mark.parametrize("text", _models())
def test_every_model_derivative_document_reads_back_to_itself(text):
    # each first derivative and each second partial d/dq of d/dp: agdm's
    # blocks hold the field values that parsing their document gives
    d = parse_diagram(text)
    params = list(d.params)
    for thetas in [(p,) for p in params] + [(p, q) for p in params for q in params]:
        dd = d
        try:
            for th in thetas:
                dd = agdm_diff(dd, th)
        except DelayOrderExceeded as exc:      # the one derivative agdm refuses
            assert exc.block in dd.annotations["dde_sensitivity"]
            continue
        doc = diagram_to_json(dd)
        back = parse_diagram(doc)
        assert diagram_to_json(back) == doc, thetas
        assert [(b.id, b.kind, b.fields) for b in back.blocks] == [
            (b.id, b.kind, b.fields) for b in dd.blocks], thetas


def test_second_derivative_through_a_delay_names_the_block():
    d1 = agdm_diff(_diag(delay_chain_doc()), "h")
    with pytest.raises(DelayOrderExceeded) as exc:
        agdm_diff(d1, "h")
    assert exc.value.block == "d(D)/d(h)" and "d(D)/d(h)" in str(exc.value)


def test_feed_refuses_a_source_count_that_leaves_a_port_unlinked():
    d = _diag(first_order_doc())
    bld = _Builder(d, "k")
    bld.begin(d.block("E"))
    with pytest.raises(ValueError, match="3 inputs, fed 2"):
        bld.feed(bld.new("Switch", threshold=0.0), bld.u("in1"), bld.du("in1"))
    assert bld.feed(make_block("Z", "Constant")) == PortRef("Z", "out")


def test_subsystem_keeps_a_derivative_input_that_nothing_reads():
    # In0 only steers the switch, so d(In0)/d(a) is read by no block; the
    # child keeps it, and the stacked copy still has one port per Inport
    child = {"schema": 1, "name": "sw", "params": {},
             "blocks": [{"id": "In0", "kind": "Inport", "index": 0},
                        {"id": "In1", "kind": "Inport", "index": 1},
                        {"id": "W", "kind": "Switch", "threshold": 0.5}],
             "links": [{"from": "In1.out", "to": "W.in1"}, {"from": "In0.out", "to": "W.in2"},
                       {"from": "In1.out", "to": "W.in3"}],
             "outputs": [{"name": "z", "from": "W.out"}]}
    d = _diag({
        "schema": 1, "name": "ctl", "params": {"a": 0.5},
        "blocks": [{"id": "C", "kind": "Constant", "value": "a"},
                   {"id": "T", "kind": "Step", "time": 0.3, "level": 1.0},
                   {"id": "Sub", "kind": "Subsystem", "diagram": child},
                   {"id": "I", "kind": "Integrator"}],
        "links": [{"from": "T.out", "to": "Sub.in1"}, {"from": "C.out", "to": "Sub.in2"},
                  {"from": "Sub.z", "to": "I.in"}],
        "outputs": [{"name": "y", "from": "I.out"}],
    })
    d1 = agdm_diff(d, "a")
    assert validate(d1).ok
    assert d1.block("d(Sub)/d(a)").port_names()[0] == ["in1", "in2", "in3", "in4"]
    tr = integrate(flatten(d1), SimConfig(step=0.01, tf=1.0))
    assert tr.output("dy/da")[-1] == pytest.approx(1.0, abs=1e-12)     # y = a t


@pytest.mark.xfail(strict=True, reason="the switch time depends on a, and neither route "
                                       "jumps the sensitivity where x - a crosses 0")
def test_state_dependent_switch_time_against_its_closed_form():
    # x' = 2 if x - a >= 0 else 1, x(0) = 0: x reaches a at t = a, so
    # y(1) = a + 2 (1 - a) = 2 - a and dy/da = -1.  Both routes give 0.0,
    # and y(1) = 1.5001667, as the RK stages of the step across x = a mix
    # the two slopes
    d = _diag({
        "schema": 1, "name": "switch_time", "params": {"a": 0.5},
        "blocks": [{"id": "A", "kind": "Constant", "value": "a"},
                   {"id": "Fast", "kind": "Constant", "value": 2.0},
                   {"id": "Slow", "kind": "Constant", "value": 1.0},
                   {"id": "E", "kind": "Sum", "signs": "+-"},
                   {"id": "W", "kind": "Switch", "threshold": 0.0},
                   {"id": "I", "kind": "Integrator", "initial": 0.0}],
        "links": [{"from": "I.out", "to": "E.in1"}, {"from": "A.out", "to": "E.in2"},
                  {"from": "Fast.out", "to": "W.in1"}, {"from": "E.out", "to": "W.in2"},
                  {"from": "Slow.out", "to": "W.in3"}, {"from": "W.out", "to": "I.in"}],
        "outputs": [{"name": "y", "from": "I.out"}],
    })
    c = SimConfig(step=1e-3, tf=1.0)
    graphic = integrate(flatten(agdm_diff(d, "a")), c)
    sensode = integrate(sensitivity_extend(flatten(d), "a"), c)
    for tr in (graphic, sensode):
        assert abs(tr.output("y")[-1] - 1.5) <= c.resolved_event_tol
        assert abs(tr.output("dy/da")[-1] - (-1.0)) <= 1e-9
