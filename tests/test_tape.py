import json
import math

import numpy as np
import pytest

from conftest import random_tape, worked_example_tape
from hybridad import (
    ABS,
    COS,
    EXP,
    EvalDomainError,
    NonDifferentiablePoint,
    SIN,
    SQRT,
    Tape,
    TapeBuilder,
    audit_branches,
    compare_report,
    compile_tape,
    dump,
    finite_difference,
    flatten,
    forward_gradient,
    hessian,
    jet_derivative,
    jet_var,
    jvp_tape,
    op_count,
    parse_diagram,
    parse_dump,
    reverse_gradient,
    tape_eval,
    tape_jet_eval,
    taylor_patch,
)
from hybridad.jet import jet_const
from hybridad.ops import parse_fn
from hybridad.tape import (Node, append_tangent, arm_contexts, copy_into, guarded_source,
                           node_ref, node_source, readers)


def test_worked_example_value():
    t = worked_example_tape()
    assert tape_eval(t, [1.0, 2.0]) == [10.0]


def test_identity_tape():
    b = TapeBuilder(1)
    t = b.build([b.input(0)])
    assert tape_eval(t, [7.0]) == [7.0]


def _half_cos_tape():
    """branch(|x| >= tiny ? (1-cos x)/x : 0) -- removable singularity."""
    b = TapeBuilder(1)
    x = b.input(0)
    absx = b.apply(ABS, x)
    num = b.sub(b.const(1.0), b.apply(COS, x))
    expr = b.div(num, x)
    out = b.branch(absx, 5e-324, expr, b.const(0.0))
    return b.build([out])


def test_branch_takes_one_arm_only():
    t = _half_cos_tape()
    # at exactly zero the singular arm must not be evaluated
    assert tape_eval(t, [0.0]) == [0.0]
    assert tape_eval(t, [1.0]) == [pytest.approx((1 - math.cos(1.0)) / 1.0)]


def test_worked_example_gradients():
    t = worked_example_tape()
    assert forward_gradient(t, [1.0, 2.0]) == pytest.approx(np.array([[8.0, 7.0]]))
    assert reverse_gradient(t, [1.0, 2.0], 0) == pytest.approx(np.array([8.0, 7.0]))


def test_constant_tape_zero_jacobian():
    b = TapeBuilder(2)
    b.input(0), b.input(1)
    t = b.build([b.const(3.0)])
    assert np.all(forward_gradient(t, [1.0, 2.0]) == 0.0)


def test_square_power_rule():
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.mul(x, x)])
    assert forward_gradient(t, [3.0])[0, 0] == pytest.approx(6.0)


def test_reverse_chain_example():
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.apply(EXP, b.apply(SIN, x))])
    assert reverse_gradient(t, [0.0], 0)[0] == pytest.approx(1.0)


def test_hessian_examples():
    b = TapeBuilder(2)
    x, y = b.input(0), b.input(1)
    t = b.build([b.mul(b.mul(x, x), y)])
    H = hessian(t, [2.0, 3.0], 0)
    assert H == pytest.approx(np.array([[6.0, 4.0], [4.0, 0.0]]))

    b = TapeBuilder(2)
    t = b.build([b.add(b.input(0), b.mul(b.const(2.0), b.input(1)))])
    assert np.all(hessian(t, [0.3, -1.0], 0) == 0.0)

    H = hessian(worked_example_tape(), [1.0, 2.0], 0)
    assert H == pytest.approx(np.array([[4.0, 6.0], [6.0, 2.0]]))
    assert np.array_equal(H, H.T)


def test_jet_eval_geometric_series():
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.div(b.const(1.0), b.add(b.const(1.0), x))])
    out = tape_jet_eval(t, [jet_var(0.0, 11)])[0]
    for i in range(12):
        assert jet_derivative(out, i) == pytest.approx(
            (-1.0) ** i * math.factorial(i), rel=1e-13)


def test_jet_eval_order_zero_reduces_to_eval():
    t = worked_example_tape()
    out = tape_jet_eval(t, [jet_const(1.0, 0), jet_const(2.0, 0)])[0]
    assert out.coeffs == (10.0,)


def test_jet_eval_exp_tape():
    b = TapeBuilder(1)
    t = b.build([b.apply(EXP, b.input(0))])
    out = tape_jet_eval(t, [jet_var(0.0, 3)])[0]
    assert out.coeffs == pytest.approx((1.0, 1.0, 0.5, 1.0 / 6.0))


def test_jet_order_one_matches_forward_column():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t, x0 = random_tape(rng, max_nodes=60)
        J = forward_gradient(t, x0)
        for j in range(t.num_inputs):
            jets = [jet_var(v, 1) if k == j else jet_const(v, 1)
                    for k, v in enumerate(x0)]
            outs = tape_jet_eval(t, jets)
            col = np.array([jet_derivative(o, 1) for o in outs])
            assert np.allclose(col, J[:, j], rtol=1e-13, atol=1e-13)


def test_forward_equals_reverse_on_random_tapes():
    rng = np.random.default_rng(11)
    for _ in range(60):
        t, x0 = random_tape(rng, max_nodes=200)
        J = forward_gradient(t, x0)
        for i in range(len(t.outputs)):
            r = reverse_gradient(t, x0, i)
            scale = np.maximum(1.0, np.maximum(np.abs(J[i]), np.abs(r)))
            assert np.max(np.abs(J[i] - r) / scale) <= 1e-12


def test_gradients_match_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, x0 = random_tape(rng, max_nodes=120)
        J = forward_gradient(t, x0)
        fd = finite_difference(lambda v: tape_eval(t, v), x0)
        assert compare_report(J, fd, tol=1e-6).passed


def test_op_count_bounds():
    rng = np.random.default_rng(17)
    for _ in range(30):
        t, _ = random_tape(rng, max_nodes=120, ops=("add", "sub", "mul"))
        s = sum(1 for n in t.nodes if n.op in ("add", "sub", "mul", "div"))
        assert op_count(t, "forward") <= 4 * s
        t2, _ = random_tape(rng, max_nodes=120, ops=("add", "sub", "mul", "div"))
        s2 = sum(1 for n in t2.nodes if n.op in ("add", "sub", "mul", "div"))
        assert op_count(t2, "forward") <= 5 * s2


def test_op_count_empty_tape():
    b = TapeBuilder(1)
    t = b.build([b.input(0)])
    assert op_count(t, "forward") == 0
    assert op_count(t, "reverse") == 0


def test_branch_gradient_is_taken_arm_gradient():
    rng = np.random.default_rng(23)
    for _ in range(20):
        b = TapeBuilder(1)
        x = b.input(0)
        sq = b.mul(x, x)
        sinx = b.apply(SIN, x)
        thr = float(rng.uniform(-1, 1))
        out = b.branch(x, thr, sq, sinx)
        t = b.build([out])
        x0 = float(rng.uniform(-2, 2))
        if abs(x0 - thr) < 1e-3:
            continue
        g = forward_gradient(t, [x0])[0, 0]
        arm = sq if x0 >= thr else sinx
        g_arm = forward_gradient(b.build([arm]), [x0])[0, 0]
        assert g == g_arm


def test_abs_at_zero_raises():
    b = TapeBuilder(1)
    t = b.build([b.apply(ABS, b.input(0))])
    with pytest.raises(NonDifferentiablePoint):
        forward_gradient(t, [0.0])
    with pytest.raises(NonDifferentiablePoint):
        reverse_gradient(t, [0.0], 0)
    assert forward_gradient(t, [2.0])[0, 0] == 1.0
    assert forward_gradient(t, [-2.0])[0, 0] == -1.0


def test_domain_error_carries_node_id():
    b = TapeBuilder(1)
    x = b.input(0)
    from hybridad import LOG
    bad = b.apply(LOG, x)
    t = b.build([bad])
    with pytest.raises(EvalDomainError) as exc:
        tape_eval(t, [-1.0])
    assert exc.value.node_id == bad


def test_dump_golden_and_roundtrip():
    t = worked_example_tape()
    text = dump(t)
    assert text == (
        "0 input(0)\n"
        "1 input(1)\n"
        "2 add 0 1\n"
        "3 mul 2 0\n"
        "4 const(2.0)\n"
        "5 add 3 4\n"
        "6 mul 1 5\n"
        "outputs 6\n"
    )
    t2 = parse_dump(text)
    assert dump(t2) == text
    assert tape_eval(t2, [1.0, 2.0]) == [10.0]


def test_compiled_matches_interpreted_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(20):
        t, x0 = random_tape(rng, max_nodes=150)
        f = compile_tape(t)
        assert f(list(x0)) == tape_eval(t, x0)


def test_compiled_non_finite_constants():
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.add(x, b.const(math.inf)),
                 b.branch(x, -math.inf, b.mul(x, b.const(math.nan)), x)])
    assert str(compile_tape(t)([1.0])) == str(tape_eval(t, [1.0])) == "[inf, nan]"


def _same_bits(got, want):
    return len(got) == len(want) and all(
        math.isnan(g) if math.isnan(w) else
        g == w and math.copysign(1.0, g) == math.copysign(1.0, w)
        for g, w in zip(got, want))


def test_compiled_special_constants_keep_their_bits():
    # constants and thresholds come from a table, not from literals, so
    # -0.0, inf, -inf and nan must reach the generated code unchanged
    b = TapeBuilder(1)
    x = b.input(0)
    nzero, inf, ninf, nan = (b.const(v) for v in (-0.0, math.inf, -math.inf, math.nan))
    # a Saturation with lo = 0 and hi = inf, lowered as ``flatten`` does:
    # the lower limit's threshold is -0.0
    sat = b.branch(x, math.inf, b.const(math.inf), b.branch(b.neg(x), -0.0, b.const(0.0), x))
    t = b.build([nzero, inf, ninf, nan, sat, b.mul(nzero, x), b.add(x, ninf),
                 b.branch(x, -0.0, nzero, inf), b.branch(x, math.inf, nan, ninf)])
    f = compile_tape(t)
    for x0 in (-2.0, -0.0, 0.0, 0.5, math.inf, -math.inf):
        assert _same_bits(f([x0]), tape_eval(t, [x0])), x0


def test_compiled_saturation_at_zero_keeps_its_bits():
    doc = {"schema": 1, "name": "sat0", "params": {"a": 0.0},
           "blocks": [{"id": "C", "kind": "Constant", "value": "a"},
                      {"id": "S", "kind": "Saturation", "lo": 0.0, "hi": 1.0}],
           "links": [{"from": "C.out", "to": "S.in"}],
           "outputs": [{"name": "s", "from": "S.out"}]}
    t = flatten(parse_diagram(json.dumps(doc))).tape
    assert any(n.op == "branch" and n.threshold == 0.0 and math.copysign(1.0, n.threshold) < 0
               for n in t.nodes)
    f = compile_tape(t)
    for a in (-1.0, -0.0, 0.0, 0.5, 2.0):
        x = [0.0] * t.num_inputs
        x[-1] = a
        assert _same_bits(f(x), tape_eval(t, x)), a


def test_jvp_tape_matches_forward():
    rng = np.random.default_rng(37)
    for _ in range(10):
        t, x0 = random_tape(rng, max_nodes=80)
        jt = jvp_tape(t)
        J = forward_gradient(t, x0)
        v = rng.uniform(-1, 1, t.num_inputs)
        out = tape_eval(jt, list(x0) + list(v))
        q = len(t.outputs)
        assert np.allclose(out[:q], tape_eval(t, x0), rtol=1e-15)
        assert np.allclose(out[q:], J @ v, rtol=1e-12, atol=1e-12)


def test_topological_and_input_invariants():
    from hybridad.tape import Node, Tape
    with pytest.raises(ValueError):
        Tape((Node("add", a=0, b=1),), 0, (0,))
    with pytest.raises(ValueError):
        Tape((Node("input", a=0), Node("input", a=0)), 1, (0,))
    with pytest.raises(ValueError):
        Tape((Node("const", value=1.0),), 0, (3,))
    # each op's children, and only those, must come before it; the first
    # one out of order, in ``children()`` order, is named
    head = (Node("input", a=0), Node("const", a=9, b=9, cond=9, value=1.0))
    for node, bad in [(Node("apply", a=2, fn=COS), 2), (Node("apply", a=-1, fn=COS), -1),
                      (Node("add", a=0, b=3), 3), (Node("sub", a=-2, b=0), -2),
                      (Node("div", a=2, b=4), 2), (Node("mul", a=1, b=2), 2),
                      (Node("branch", a=0, b=1, cond=5), 5), (Node("branch", a=0, b=2, cond=0), 2),
                      (Node("branch", a=3, b=4, cond=0), 3), (Node("branch", a=0, b=1, cond=-1), -1),
                      (Node("apply", a=1, b=7, cond=8, fn=COS), None),
                      (Node("branch", a=0, b=1, cond=1), None),
                      (Node("const", a=-5, b=5, cond=5, value=2.0), None)]:
        if bad is None:
            assert len(Tape((*head, node), 1, (2,))) == 3
        else:
            with pytest.raises(ValueError, match=f"^node 2 references {bad}, violating"):
                Tape((*head, node), 1, (2,))
    with pytest.raises(ValueError, match="node 2: input index 1 out of range"):
        Tape((*head, Node("input", a=1)), 1, (2,))


def test_nodes_keep_their_value_semantics():
    n = Node("add", a=0, b=1)
    assert repr(n) == "Node(op='add', a=0, b=1, fn=None, value=0.0, cond=-1, threshold=0.0)"
    assert n == Node("add", 0, 1) != Node("sub", a=0, b=1)
    assert hash(n) == hash(Node("add", a=0, b=1))
    assert len({n, Node("add", a=0, b=1), Node("const", value=1.0)}) == 2
    br = Node("branch", a=2, b=3, cond=1, threshold=0.5)
    assert (br.op, br.a, br.b, br.cond, br.threshold, br.children()) == ("branch", 2, 3, 1, 0.5,
                                                                       (1, 2, 3))
    assert Node("apply", a=4, fn=COS).fn is COS


# -- boundary audit and Taylor patching --------------------------------------

def test_audit_reports_mismatched_arms():
    t = _half_cos_tape()
    findings = audit_branches(t, [0.0], cond_tol=1e-6)
    assert len(findings) == 1
    assert findings[0].max_mismatch == math.inf or findings[0].max_mismatch > 1e-6


def test_audit_quiet_away_from_threshold():
    t = _half_cos_tape()
    assert audit_branches(t, [0.5], cond_tol=1e-6) == []


def test_audit_quiet_for_smooth_join():
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.branch(x, 0.0, b.mul(x, x), b.mul(x, x))])
    assert audit_branches(t, [0.0]) == []


def test_taylor_patch_removable_singularity():
    t = _half_cos_tape()
    patched = taylor_patch(t, t.outputs[0], center=0.0, half_width=0.1, order=10)
    # value correctness on both sides of the window
    for x in (-0.5, -0.09, 0.0, 0.05, 0.3):
        want = 0.0 if x == 0 else (1 - math.cos(x)) / x
        got = tape_eval(patched, [x])[0]
        assert got == pytest.approx(want, abs=1e-12)
    # the patched program is differentiable at 0 with the true value 1/2
    g = forward_gradient(patched, [0.0])[0, 0]
    assert g == pytest.approx(0.5, rel=1e-12)
    # third derivative at 0: the Taylor oracle gives -1/4
    out = tape_jet_eval(patched, [jet_var(0.0, 5)])[0]
    assert jet_derivative(out, 3) == pytest.approx(-0.25, rel=1e-12)


def test_taylor_patch_true_pole_rejected():
    b = TapeBuilder(1)
    x = b.input(0)
    absx = b.apply(ABS, x)
    pole = b.div(b.const(1.0), x)
    out = b.branch(absx, 5e-324, pole, b.const(0.0))
    t = b.build([out])
    with pytest.raises(EvalDomainError):
        taylor_patch(t, t.outputs[0], center=0.0)


def test_compiled_falls_back_to_lazy_semantics_in_simulator():
    # compile_tape computes the taken arm only, as tape_eval does: the dead
    # arm's division by zero at 0 is never run
    t = _half_cos_tape()
    assert compile_tape(t)([0.0]) == tape_eval(t, [0.0]) == [0.0]


# -- one evaluator: input counts, conditions, branchy tapes -------------------

@pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0]])
def test_input_count_is_checked(x):
    t = worked_example_tape()
    with pytest.raises(ValueError, match="expected 2 inputs, got"):
        reverse_gradient(t, x, 0)
    with pytest.raises(ValueError, match="expected 2 inputs, got"):
        hessian(t, x, 0)


@pytest.mark.parametrize("fn", ["sqrt", "abs"])
def test_branch_conditions_are_read_in_floats(fn):
    # at 0, sqrt has no derivative or series and abs has a kink: read in
    # tangents, duals or jets, the condition itself would fail
    from hybridad import ElementaryFn
    b = TapeBuilder(1)
    x = b.input(0)
    t = b.build([b.branch(b.apply(ElementaryFn(fn), x), 1.0, b.mul(x, x), x)])
    assert forward_gradient(t, [0.0]).tolist() == [[1.0]]
    assert reverse_gradient(t, [0.0], 0).tolist() == [1.0]
    assert hessian(t, [0.0], 0).tolist() == [[0.0]]
    assert tape_jet_eval(t, [jet_var(0.0, 3)])[0].coeffs == (0.0, 1.0, 0.0, 0.0)


def test_second_derivative_failure_names_the_node():
    from hybridad import SQRT, Pow
    for fn, x in ((SQRT, 1e-300), (Pow(1.5), 0.0)):
        b = TapeBuilder(1)
        node = b.apply(fn, b.input(0))
        t = b.build([node])
        with pytest.raises(EvalDomainError) as exc:
            hessian(t, [x], 0)
        assert exc.value.node_id == node


def test_fractional_power_of_minus_inf_fails_compiled_as_interpreted():
    # math.pow takes a fractional power of -inf where fn_value refuses it
    from hybridad import Pow
    for p in (0.5, -0.5, 1.5, 2.0, -3.0):
        b = TapeBuilder(1)
        t = b.build([b.apply(Pow(p), b.input(0))])
        f = compile_tape(t)
        if p.is_integer():
            assert f([-math.inf]) == tape_eval(t, [-math.inf])
        else:
            with pytest.raises(EvalDomainError):
                tape_eval(t, [-math.inf])
            with pytest.raises(ValueError):
                f([-math.inf])
        for x in (2.0, 0.25, 0.0, -0.0, math.inf, math.nan, -2.0):
            try:
                want = repr(tape_eval(t, [x]))
            except EvalDomainError:
                with pytest.raises(ValueError):
                    f([x])
                continue
            assert repr(f([x])) == want


def test_modes_agree_on_random_tapes_with_branches():
    rng = np.random.default_rng(43)
    ops = ("add", "sub", "mul", "div", "apply", "branch")
    branches = compiled_checks = 0
    for _ in range(40):
        t, x0 = random_tape(rng, max_nodes=80, ops=ops)
        branches += sum(n.op == "branch" for n in t.nodes)
        J = forward_gradient(t, x0)
        for i in range(len(t.outputs)):
            r = reverse_gradient(t, x0, i)
            scale = np.maximum(1.0, np.maximum(np.abs(J[i]), np.abs(r)))
            assert np.max(np.abs(J[i] - r) / scale) <= 1e-12
        for j in range(t.num_inputs):
            jets = [jet_var(v, 1) if k == j else jet_const(v, 1)
                    for k, v in enumerate(x0)]
            col = np.array([jet_derivative(o, 1) for o in tape_jet_eval(t, jets)])
            assert np.allclose(col, J[:, j], rtol=1e-13, atol=1e-13)
        # the compiled tape computes the taken arms only: it raises if and
        # only if the interpreter does, and otherwise agrees bit for bit
        f = compile_tape(t)
        for x in ([float(v) for v in x0], [-float(v) for v in x0]):
            try:
                want = tape_eval(t, x)
            except EvalDomainError:
                with pytest.raises((ZeroDivisionError, ValueError, OverflowError)):
                    f(x)
                continue
            compiled_checks += 1
            assert [repr(v) for v in f(x)] == [repr(v) for v in want]
    assert branches >= 40 and compiled_checks >= 40


def _chain_arms(t, x0, rng):
    """``t`` with one more output: a branch on its first output, taken at
    ``x0``, whose arms are chains of add and mul nodes that nothing else
    reads."""
    b = TapeBuilder(t.num_inputs)
    m = copy_into(b, t)
    arms = []
    for _ in range(2):
        v = m[int(rng.integers(len(m)))]
        for _ in range(int(rng.integers(2, 6))):
            w = m[int(rng.integers(len(m)))]
            scale = b.const(float(rng.uniform(0.5, 0.9)))
            v = b.add(v, w) if rng.random() < 0.5 else b.mul(v, scale)
        arms.append(v)
    cond = m[t.outputs[0]]
    thr = tape_eval(t, x0)[0]
    return b.build([*(m[o] for o in t.outputs), b.branch(cond, thr, *arms)])


def test_compiled_inlined_arms_match_interpreted_bitwise():
    # single-use chains are written into the arms of the ternary that reads
    # them, so they run only when their arm is taken, as in ``tape_eval``
    # (or, where an arm holds a division or function, into its flagged arm)
    rng = np.random.default_rng(47)
    inlined = checks = 0
    taken = set()
    for k in range(40):
        ops = ("add", "sub", "mul", "branch") + ("div", "apply") * (k % 2)
        t, x0 = random_tape(rng, max_nodes=60, ops=ops)
        t = _chain_arms(t, x0, rng)
        place, opened = arm_contexts(t, [(o, 0) for o in t.outputs])
        lines = guarded_source(t, place, opened, set(), 0, readers(t, place))
        ternary = f"_v{t.outputs[-1]} = ("
        inlined += any(ln.startswith(ternary) and ") if " in ln and " else (" in ln for ln in lines)
        f = compile_tape(t)
        for x in ([float(v) for v in x0], [-float(v) for v in x0], [0.0] * len(x0)):
            try:
                want = tape_eval(t, x)
            except EvalDomainError:
                with pytest.raises((ZeroDivisionError, ValueError, OverflowError)):
                    f(x)
                continue
            checks += 1
            cond = t.nodes[t.outputs[-1]]
            taken.add(tape_eval(Tape(t.nodes, t.num_inputs, (cond.cond,)), x)[0] >= cond.threshold)
            assert [repr(v) for v in f(x)] == [repr(v) for v in want]
    assert inlined >= 10 and checks >= 60 and taken == {True, False}


@pytest.mark.parametrize("node", [
    Node("add", a=0, b=1), Node("sub", a=1, b=1), Node("mul", a=0, b=2), Node("div", a=2, b=0),
    Node("branch", cond=0, a=1, b=2, threshold=0.5),
    *(Node("apply", a=1, fn=parse_fn(fn)) for fn in
      ("exp", "log", "sin", "cos", "tan", "atan", "sqrt", "abs", "pow[2.0]", "pow[0.5]"))])
def test_readers_count_the_text_node_source_writes(node):
    # the inliner writes a node into its reader only when the text reads it once
    t = Tape((Node("input", a=0), Node("input", a=1), Node("input", a=2), node), 3, (3,))
    for place in ({3: {0}}, {3: {2, 3}}):
        text = node_source(t, 3, lambda j: node_ref(t, j))
        want = {j: text.count(f"_v{j}") * len(place[3]) for j in range(3)}
        reads = readers(t, place)
        assert {j: reads[j] for j in range(3)} == want and reads[3] == 1


def _long_chain(b, v, length=1000):
    """``length`` add and mul nodes in a row, each read by the next only."""
    for i in range(length):
        v = b.add(v, b.const(0.001)) if i % 2 else b.mul(v, b.const(0.999))
    return v


def test_long_single_use_chain_compiles():
    # inlined, the chain would nest 1,000 parentheses; CPython refuses over 200
    b = TapeBuilder(1)
    t = b.build([_long_chain(b, b.input(0))])
    place, opened = arm_contexts(t, [(t.outputs[0], 0)])
    lines = guarded_source(t, place, opened, set(), 0, readers(t, place))
    assert 1 < len(lines) < 100
    for x in (0.0, 1.5, -3.0):
        assert repr(compile_tape(t)([x])[0]) == repr(tape_eval(t, [x])[0])


def test_builder_folds_return_an_existing_id_and_push_no_node():
    b = TapeBuilder(2)
    x, y = b.input(0), b.input(1)
    zero, nzero, one = b.const(0.0), b.const(-0.0), b.const(1.0)
    size = len(b.build([]))
    folds = {"x + 0": (b.add(x, zero), x), "0 + x": (b.add(zero, x), x),
             "x + -0": (b.add(x, nzero), x), "x - 0": (b.sub(x, zero), x),
             "x * 0": (b.mul(x, zero), zero), "-0 * x": (b.mul(nzero, x), nzero),
             "0 * 1": (b.mul(zero, one), zero), "x * 1": (b.mul(x, one), x),
             "1 * x": (b.mul(one, x), x), "x / 1": (b.div(x, one), x),
             "y ? x : x": (b.branch(y, 0.5, x, x), x),
             "y ? 0 : -0": (b.branch(y, 0.5, zero, nzero), zero)}
    assert {k: got for k, (got, _) in folds.items()} == {k: want for k, (_, want) in folds.items()}
    assert len(b.build([])) == size
    assert b.is_zero(zero) and b.is_zero(nzero) and not b.is_zero(one) and not b.is_zero(x)


def test_negation_zero_over_x_scaling_and_true_branches_stay_nodes():
    b = TapeBuilder(2)
    x, y = b.input(0), b.input(1)
    zero, two = b.const(0.0), b.const(2.0)
    ids = [b.sub(zero, x), b.neg(x), b.div(zero, x), b.mul(x, two), b.branch(y, 0.5, x, two)]
    t = b.build(ids)
    assert [t.nodes[i].op for i in ids] == ["sub", "sub", "div", "mul", "branch"]
    # 0 / x still divides: at x = 0 it fails and names the node
    with pytest.raises(EvalDomainError) as exc:
        tape_eval(t, [0.0, 1.0])
    assert exc.value.node_id == ids[2]
    assert [repr(v) for v in tape_eval(t, [3.0, 0.0])] == ["-3.0", "-3.0", "0.0", "6.0", "2.0"]


def test_copy_into_a_fresh_builder_keeps_every_node_as_it_is():
    # x * 0.0, 1.0 * (x * 0.0) and a branch with one node in both arms:
    # the copy keeps them unfolded, so every node keeps its id; with
    # replacement inputs the other nodes are pushed unfolded too
    t = Tape((Node("input", a=0), Node("const", value=0.0), Node("mul", a=0, b=1),
              Node("const", value=1.0), Node("mul", a=3, b=2),
              Node("branch", a=2, b=2, cond=0, threshold=0.5)), 1, (4, 5))
    b = TapeBuilder(1)
    assert copy_into(b, t) == list(range(len(t)))
    assert b.build(t.outputs) == t
    assert b.input(0) == 0
    b = TapeBuilder(2)
    m = copy_into(b, t, [b.input(1)])
    assert b.build([m[o] for o in t.outputs]).nodes == (Node("input", a=1), *t.nodes[1:])


def test_copy_into_without_replacement_inputs_needs_a_fresh_builder():
    t = Tape((Node("input", a=0), Node("input", a=1), Node("add", a=0, b=1)), 2, (2,))
    b = TapeBuilder(2)
    b.const(1.0)
    with pytest.raises(ValueError, match="fresh builder"):
        copy_into(b, t)
    with pytest.raises(ValueError, match="fresh builder"):
        copy_into(TapeBuilder(1), t)


def test_tangent_of_a_constant_subexpression_emits_no_node():
    # x * (sqrt(p) / p) along x: the operand tangents of sqrt and of the
    # division are zero, so the tangent is the product's other factor
    t0 = TapeBuilder(2)
    x, p = t0.input(0), t0.input(1)
    q = t0.div(t0.apply(SQRT, p), p)
    t = t0.build([t0.mul(x, q)])
    b = TapeBuilder(2)
    m = copy_into(b, t)
    seeds = [b.const(1.0), b.const(0.0)]
    size = len(b.build([]))
    tan = append_tangent(b, t, m, seeds)
    assert tan[t.outputs[0]] == m[q]
    assert len(b.build([])) == size + 1             # the one shared zero constant
    assert tape_eval(b.build([tan[t.outputs[0]]]), [5.0, 4.0]) == [0.5]
