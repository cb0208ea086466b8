import json
import math

import numpy as np
import pytest

from hybridad import (
    FdScheme,
    ShapeMismatch,
    SimConfig,
    TapeBuilder,
    compare_report,
    finite_difference,
    identifiability_test,
    integrate,
    parse_expr,
    sequence_probe,
)
from hybridad import EvalDomainError, analysis
from hybridad.ops import SIN, SQRT
from hybridad.sim import make_ode_model, sensitivity_extend


def test_fd_central_on_quadratic():
    J = finite_difference(lambda x: [x[0] ** 2], [3.0], FdScheme("central", 1e-6))
    assert abs(J[0, 0] - 6.0) <= 1e-6


def test_fd_exact_on_low_degree_polynomials():
    # central differences are exact (to roundoff) up to degree 2
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b, c = rng.uniform(-2, 2, 3)
        x0 = float(rng.uniform(-2, 2))
        J = finite_difference(lambda x: [a * x[0] ** 2 + b * x[0] + c], [x0],
                              FdScheme("central", 1e-4))
        assert abs(J[0, 0] - (2 * a * x0 + b)) <= 1e-10 * max(1.0, abs(2 * a * x0 + b))


def test_fd_constant_function_is_exactly_zero():
    J = finite_difference(lambda x: [4.25], [1.0], FdScheme("central"))
    assert J[0, 0] == 0.0
    J = finite_difference(lambda x: [4.25], [1.0], FdScheme("forward"))
    assert J[0, 0] == 0.0


def test_central_beats_forward_convergence_slope():
    # measured error slopes for sin': forward O(eps), central O(eps^2).
    # (At x=0 the comparison degenerates -- sin is odd, so the forward
    # scheme is accidentally second-order there; measure where f'' != 0.)
    x0 = 0.7
    f = lambda x: [math.sin(x[0])]
    want = math.cos(x0)
    eps_list = [1e-2, 1e-3, 1e-4]
    fwd = [abs(finite_difference(f, [x0], FdScheme("forward", e))[0, 0] - want)
           for e in eps_list]
    cen = [abs(finite_difference(f, [x0], FdScheme("central", e))[0, 0] - want)
           for e in eps_list]
    slope_f = math.log10(fwd[0] / fwd[2]) / 2.0    # decades of error per decade
    slope_c = math.log10(cen[0] / cen[2]) / 2.0
    assert 0.8 <= slope_f <= 1.2                    # ~ order 1
    assert 1.7 <= slope_c <= 2.3                    # ~ order 2
    assert all(c < f_ for c, f_ in zip(cen, fwd))


def test_compare_report_identical_and_failing():
    r = compare_report([[1.0, 2.0]], [[1.0, 2.0]], tol=1e-12)
    assert r.passed and r.max_rel == 0.0
    r = compare_report([1.0], [1.1], tol=0.05)
    assert not r.passed and r.max_rel_at == (0, 0)
    assert "FAIL" in str(r)


def test_compare_report_absolute_symmetry():
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    b = np.array([[1.1, -1.0], [0.25, 3.5]])
    r1 = compare_report(a, b)
    r2 = compare_report(b, a)
    assert r1.max_abs == r2.max_abs and r1.max_abs_at == r2.max_abs_at


def test_compare_report_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compare_report([[1.0]], [[1.0, 2.0]])


# -- identifiability -------------------------------------------------------------

def _decay_structure():
    """x' = -theta x, y = x, x(0) = c."""
    b = TapeBuilder(4)                 # [x, t, c, theta]
    x, th = b.input(0), b.input(3)
    t = b.build([b.neg(b.mul(th, x)), x])
    return make_ode_model(1, t, ("c", "theta"), {"c": 1.0, "theta": 1.0},
                          ("x",), ("y",),
                          init_exprs=(parse_expr("c"),))


def test_identifiable_structure():
    m = _decay_structure()
    rep = identifiability_test(m, [0.5, 1.0], SimConfig(step=1e-2, tf=1.5),
                               ic_params=["c"], theta_params=["theta"])
    assert rep.verdict == "identifiable+observable"
    assert rep.matrix.shape == (2, 2)
    assert rep.determinant is not None and abs(rep.determinant) > 1e-4
    # closed-form sensitivities: dy/dc = e^{-theta t}, dy/dtheta = -c t e^{-theta t}
    for i, tq in enumerate(rep.times):
        assert rep.matrix[i, 0] == pytest.approx(math.exp(-tq), rel=1e-6)
        assert rep.matrix[i, 1] == pytest.approx(-tq * math.exp(-tq), rel=1e-6)


def _product_structure():
    """x' = -(th1*th2) x: only the product is identifiable."""
    b = TapeBuilder(5)                 # [x, t, c, th1, th2]
    x, t1, t2 = b.input(0), b.input(3), b.input(4)
    t = b.build([b.neg(b.mul(b.mul(t1, t2), x)), x])
    return make_ode_model(1, t, ("c", "th1", "th2"),
                          {"c": 1.0, "th1": 0.8, "th2": 1.3}, ("x",), ("y",),
                          init_exprs=(parse_expr("c"),))


def test_unidentifiable_product_is_inconclusive():
    m = _product_structure()
    rep = identifiability_test(m, [0.3, 0.7, 1.2], SimConfig(step=1e-2, tf=1.5),
                               ic_params=["c"], theta_params=["th1", "th2"])
    assert rep.verdict == "inconclusive"
    assert rep.sigma_ratio <= 1e-8


def test_zero_output_model_is_inconclusive():
    b = TapeBuilder(4)
    x = b.input(0)
    b.input(2), b.input(3)
    t = b.build([b.neg(x), b.const(0.0)])
    m = make_ode_model(1, t, ("c", "theta"), {"c": 1.0, "theta": 1.0},
                       ("x",), ("y",), init_exprs=(parse_expr("c"),))
    rep = identifiability_test(m, [0.5, 1.0], SimConfig(step=1e-2, tf=1.5),
                               ic_params=["c"], theta_params=["theta"])
    assert rep.verdict == "inconclusive"


def test_verdict_invariant_under_output_rescaling():
    # scaling the output row uniformly must not change the decision
    m = _decay_structure()
    cfg = SimConfig(step=1e-2, tf=1.5)
    rep = identifiability_test(m, [0.5, 1.0], cfg, ic_params=["c"],
                               theta_params=["theta"])
    b = TapeBuilder(4)
    x, th = b.input(0), b.input(3)
    t = b.build([b.neg(b.mul(th, x)), b.mul(b.const(1e6), x)])
    m_scaled = make_ode_model(1, t, ("c", "theta"), {"c": 1.0, "theta": 1.0},
                              ("x",), ("y",), init_exprs=(parse_expr("c"),))
    rep2 = identifiability_test(m_scaled, [0.5, 1.0], cfg, ic_params=["c"],
                                theta_params=["theta"])
    assert rep.verdict == rep2.verdict == "identifiable+observable"
    assert rep2.sigma_ratio == pytest.approx(rep.sigma_ratio, rel=1e-9)


def test_default_times_make_square_matrix():
    m = _decay_structure()
    rep = identifiability_test(m, config=SimConfig(step=1e-2, tf=1.5),
                               ic_params=["c"], theta_params=["theta"])
    assert rep.matrix.shape == (2, 2)
    assert rep.times == (0.75, 1.5)
    assert rep.verdict == "identifiable+observable"


def test_identifiability_integrates_once(monkeypatch):
    # all columns come from one extension over every parameter
    calls = []

    def counting(m, config, theta=None):
        calls.append(m)
        return integrate(m, config, theta)

    monkeypatch.setattr(analysis, "integrate", counting)
    rep = identifiability_test(_product_structure(), [0.3, 0.7, 1.2],
                               SimConfig(step=1e-2, tf=1.5), ic_params=["c"],
                               theta_params=["th1", "th2"])
    assert rep.matrix.shape == (3, 3)
    assert len(calls) == 1 and calls[0].n == 4


def _random_linear_structure(rng):
    """x0' = -a x0 + b x1, x1' = -c x1 + b sin(t), y = x0 + x1, with x(0) = (x0, 1)."""
    bld = TapeBuilder(7)               # [x0, x1, t, a, b, c, x0]
    x0, x1, t = bld.input(0), bld.input(1), bld.input(2)
    a, b, c = bld.input(3), bld.input(4), bld.input(5)
    rhs0 = bld.add(bld.neg(bld.mul(a, x0)), bld.mul(b, x1))
    rhs1 = bld.add(bld.neg(bld.mul(c, x1)), bld.mul(b, bld.apply(SIN, t)))
    tape = bld.build([rhs0, rhs1, bld.add(x0, x1), x1])
    names = ("a", "b", "c", "x0")
    return make_ode_model(2, tape, names, dict(zip(names, rng.uniform(0.2, 2.0, 4))),
                          ("x0", "x1"), ("y", "z"),
                          init_exprs=(parse_expr("x0"), parse_expr(1.0)))


def test_identifiability_matrix_is_that_of_the_run_to_tf():
    # the run stops two steps past the last sample; the nodes nearest the
    # samples are those of the run to tf, bit for bit, with samples past
    # tf, on a node, before the start and off the grid
    rng = np.random.default_rng(23)
    for trial in range(12):
        m = _random_linear_structure(rng) if trial % 2 else _decay_structure()
        cfg = SimConfig(step=float(rng.choice([1e-2, 0.037, 0.1])),
                        tf=float(rng.uniform(0.5, 3.0)), t0=float(rng.uniform(-0.2, 0.2)))
        times = [float(v) for v in rng.uniform(cfg.t0 - 0.1, cfg.tf + 0.2, 3)]
        times += [cfg.t0 + 4 * cfg.step]
        columns = list(m.param_names)
        rep = identifiability_test(m, times, cfg, theta_params=columns)
        full = integrate(sensitivity_extend(m, columns), cfg)
        q = m.n_outputs
        want = np.concatenate([full.outputs[int(np.argmin(np.abs(full.times - tq))), q:]
                               .reshape(len(columns), q).T for tq in times])
        assert rep.matrix.tobytes() == want.tobytes()


def test_identifiability_runs_no_further_than_it_reads(monkeypatch):
    # x' = sqrt(theta - t) fails past t = theta = 1.5; samples up to 1.0
    # read nodes well before that, so the test reports where the run to tf
    # raises
    b = TapeBuilder(3)                 # [x, t, theta]
    x = b.input(0)
    tape = b.build([b.apply(SQRT, b.sub(b.input(2), b.input(1))), x])
    m = make_ode_model(1, tape, ("theta",), {"theta": 1.5}, ("x",), ("y",),
                       init_exprs=(parse_expr(0.0),))
    cfg = SimConfig(step=1e-2, tf=2.0)
    with pytest.raises(EvalDomainError):
        integrate(sensitivity_extend(m, ["theta"]), cfg)
    ends = []
    monkeypatch.setattr(analysis, "integrate",
                        lambda m, config: ends.append(config.tf) or integrate(m, config))
    rep = identifiability_test(m, [0.5, 1.0], cfg, theta_params=["theta"])
    assert ends == [1.0 + 2 * 1e-2] and rep.matrix.shape == (2, 1)
    # y = 2/3 (theta^1.5 - (theta - t)^1.5), dy/dtheta = sqrt(theta) - sqrt(theta - t)
    for i, tq in enumerate(rep.times):
        assert rep.matrix[i, 0] == pytest.approx(math.sqrt(1.5) - math.sqrt(1.5 - tq), rel=1e-6)


def test_report_renders_text_and_json():
    m = _decay_structure()
    rep = identifiability_test(m, [0.5, 1.0], SimConfig(step=1e-2, tf=1.5),
                               ic_params=["c"], theta_params=["theta"])
    assert "identifiable" in str(rep)
    doc = json.loads(rep.to_json())
    assert doc["verdict"] == "identifiable+observable"
    assert len(doc["matrix"]) == 2


# -- iterated-sequence probe -------------------------------------------------------

def test_sequence_probe_value_exact():
    p = sequence_probe()
    assert p.value == (0.0, 11)


def test_sequence_probe_ad_within_ulps_of_one():
    p = sequence_probe()
    assert abs(p.ad_derivative - 1.0) <= 4 * np.finfo(float).eps


def test_sequence_probe_fd_double_benign_float32_catastrophic():
    p = sequence_probe()
    for eps, v in p.fd.items():
        assert abs(v - 1.0) < 1e-9          # doubles keep 1e-55 in range
    for eps, v in p.fd_float32.items():
        assert abs(v - 1.0) >= 0.5          # single precision underflows
