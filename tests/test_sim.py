import gc
import importlib.util
import itertools
import json
import math
import os
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from conftest import random_tape
from hybridad import (
    DelaySlot,
    EvalDomainError,
    EventSpec,
    EventStorm,
    ImpactSensitivityWarning,
    ImpactSurface,
    NonTransversal,
    OdeModel,
    SensitivityAcrossEvent,
    SimConfig,
    SingularMetric,
    Tape,
    TapeBuilder,
    UnknownParameter,
    compile_tape,
    dde_extend,
    flatten,
    impact_event,
    impact_update,
    integrate,
    parse_diagram,
    parse_expr,
    sensitivity_extend,
    smooth_heaviside,
    tape_eval,
)
from hybridad import sim
from hybridad.ops import ATAN, COS, SIN, SQRT, Pow
from hybridad.sim import make_ode_model
from hybridad.tape import Node


def _decay_model():
    """x' = -x^2, x(0) = 1; exact solution 1/(1+t)."""
    b = TapeBuilder(2)          # [x, t]
    x = b.input(0)
    rhs = b.neg(b.mul(x, x))
    t = b.build([rhs, x])
    return make_ode_model(1, t, (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(1.0),))


def test_rk4_endpoint_accuracy():
    m = _decay_model()
    tr = integrate(m, SimConfig(step=1e-3, tf=1.0))
    assert abs(tr.output("y")[-1] - 0.5) < 1e-8


def test_rk4_convergence_order():
    m = _decay_model()

    def err(step):
        tr = integrate(m, SimConfig(step=step, tf=1.0))
        return abs(tr.output("y")[-1] - 0.5)

    ratio = err(0.02) / err(0.01)
    assert 12.0 <= ratio <= 20.0


def test_midpoint_second_order():
    m = _decay_model()

    def err(step):
        tr = integrate(m, SimConfig(step=step, tf=1.0, method="midpoint"))
        return abs(tr.output("y")[-1] - 0.5)

    ratio = err(0.02) / err(0.01)
    assert 3.4 <= ratio <= 4.6


# ---------------------------------------------------------------------------
# impact law
# ---------------------------------------------------------------------------

def _surface(dim, wall_speed=0.0, e_pos=0.0, e_neg=0.0, A=None, offset=1.0):
    b = TapeBuilder(dim + 1)
    q0 = b.input(0)
    tn = b.input(dim)
    # f(q, t) = q_0 - offset - wall_speed * t
    expr = b.sub(q0, b.add(b.const(offset), b.mul(b.const(wall_speed), tn)))
    guard = b.build([expr])
    Amat = np.eye(dim) if A is None else np.asarray(A)
    return ImpactSurface(dim, lambda q: Amat,
                         lambda q: e_pos, lambda q: e_neg, guard)


def test_impact_equal_potentials_crossing_keeps_velocity():
    s = _surface(1)
    v = impact_update(s, [1.0], [0.7], 0.0)
    assert v[0] == pytest.approx(0.7, rel=1e-15)


def test_impact_rebound_off_static_barrier():
    s = _surface(1, e_pos=2.0)        # barrier higher than kinetic energy 1
    v = impact_update(s, [1.0], [1.0], 0.0)
    assert v[0] == pytest.approx(-1.0, rel=1e-15)


def test_impact_moving_wall_rebound():
    w = 0.3
    s = _surface(1, wall_speed=w, e_pos=50.0)
    v = impact_update(s, [1.0], [1.0], 0.0)
    assert v[0] == pytest.approx(2 * w - 1.0, rel=1e-13)


def test_impact_potential_drop_speeds_up():
    delta = 0.75
    s = _surface(1, e_pos=-delta, e_neg=0.0)
    v = impact_update(s, [1.0], [1.0], 0.0)
    assert v[0] == pytest.approx(math.sqrt(1 + delta), rel=1e-13)


def test_impact_requires_transversality():
    s = _surface(1)
    with pytest.raises(NonTransversal):
        impact_update(s, [1.0], [-1.0], 0.0)    # moving away


def test_impact_singular_metric():
    s = _surface(2, A=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularMetric):
        impact_update(s, [1.0, 0.0], [1.0, 0.0], 0.0)


_ENTRIES = (0.0, 1.0, 1.0 + 1e-13, 1.0 + 1e-4, math.inf, -math.inf, math.nan, 1e300)


def test_metric_symmetry_check_is_allclose_without_warnings():
    for entries in itertools.product(_ENTRIES, repeat=4):
        A = np.array(entries).reshape(2, 2)
        symmetric = np.allclose(A, A.T, atol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                impact_update(_surface(2, A=A), [1.0, 0.0], [1.0, 0.0], 0.0)
                refused = False
            except (SingularMetric, NonTransversal):    # checks past the symmetry check
                refused = False
            except ValueError as exc:
                assert str(exc) == "metric must be symmetric", entries
                refused = True
        assert refused == (not symmetric), entries


def test_impact_guard_without_q_gradient_is_non_transversal():
    b = TapeBuilder(2)          # [q, t]: the guard t - 1 does not read q
    s = ImpactSurface(1, lambda q: np.eye(1), lambda q: 0.0, lambda q: 0.0,
                      b.build([b.sub(b.input(1), b.const(1.0))]))
    with pytest.raises(NonTransversal, match="guard gradient vanishes"):
        impact_update(s, [1.0], [1.0], 1.0)


def _random_spd(rng, d):
    M = rng.normal(size=(d, d))
    return M @ M.T + d * np.eye(d)


def impact_invariants(s, A, q, v_pre, v_post, e_pos, e_neg, w):
    """Energy balance, reflection law, and tangential preservation checks
    computed independently of the update routine's internals."""
    d = len(q)
    gq = np.zeros(d)
    gq[0] = 1.0
    e_n = np.linalg.solve(A, gq)
    gn = float(gq @ e_n)
    a_nn = gn
    wall = w / gn               # = -(df/dt)/(df/dxn) in the adapted frame
    vn_pre = float(gq @ v_pre) / gn
    vn_post = float(gq @ v_post) / gn
    crossing = a_nn * (vn_pre - wall) ** 2 + (e_neg - e_pos) >= 0.0
    pre_total = a_nn * (vn_pre - wall) ** 2 + e_neg
    post_total = a_nn * (vn_post - wall) ** 2 + (e_pos if crossing else e_neg)
    assert abs(pre_total - post_total) <= 1e-9 * max(1.0, abs(pre_total))
    if not crossing:
        assert vn_post - wall == pytest.approx(-(vn_pre - wall), abs=1e-12)
    if d > 1:
        # adapted-frame tangential coordinates identical before/after
        basis = np.zeros((d, d))
        for i in range(1, d):
            basis[:, i - 1] = np.eye(d)[i]      # tangent: gq . e_i = 0
        basis[:, d - 1] = e_n
        xi_pre = np.linalg.solve(basis, v_pre)
        xi_post = np.linalg.solve(basis, v_post)
        assert np.allclose(xi_pre[:-1], xi_post[:-1], atol=1e-12)


def test_impact_randomized_energy_and_tangential_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        A = _random_spd(rng, d)
        e_pos = float(rng.uniform(-2.0, 2.0))
        e_neg = float(rng.uniform(-2.0, 2.0))
        w = float(rng.uniform(-1.0, 1.0))
        s = _surface(d, wall_speed=w, e_pos=e_pos, e_neg=e_neg, A=A)
        q = np.zeros(d)
        q[0] = 1.0
        v_pre = rng.uniform(-2.0, 2.0, d)
        if v_pre[0] - w <= 1e-3:          # ensure a transversal approach
            v_pre[0] = abs(v_pre[0]) + max(0.0, w) + 0.5
        v_post = impact_update(s, q, v_pre, 0.0)
        impact_invariants(s, A, q, v_pre, v_post, e_pos, e_neg, w)


# ---------------------------------------------------------------------------
# event-driven simulation of a particle crossing a potential step
# ---------------------------------------------------------------------------

def _free_particle_model(delta=0.75, barrier=None):
    """q' = v, v' = 0 with a potential step at q = 1."""
    b = TapeBuilder(3)          # [q, v, t]
    q, v = b.input(0), b.input(1)
    t = b.build([v, b.const(0.0), q, v])
    e_pos = -delta if barrier is None else barrier
    surface = _surface(1, e_pos=e_pos)
    ev = impact_event(surface, n=2)
    return make_ode_model(2, t, (), {}, ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr(0.0), parse_expr(1.0)),
                          events=(ev,))


def test_refraction_through_potential_drop():
    delta = 0.75
    m = _free_particle_model(delta=delta)
    tr = integrate(m, SimConfig(step=1e-3, tf=2.0))
    assert len(tr.events) == 1
    ev = tr.events[0]
    assert ev.time == pytest.approx(1.0, abs=1e-6)
    assert abs(ev.pre_state[0] - 1.0) <= 1e-6       # localized on the surface
    assert ev.post_state[1] == pytest.approx(math.sqrt(1 + delta), rel=1e-9)
    # trajectory continuous in position
    assert ev.post_state[0] == ev.pre_state[0]
    q_end = tr.output("q")[-1]
    assert q_end == pytest.approx(1.0 + (2.0 - ev.time) * math.sqrt(1 + delta),
                                  rel=1e-6)


def test_rebound_off_high_barrier():
    m = _free_particle_model(barrier=2.0)     # E_kin = 1 < 2
    tr = integrate(m, SimConfig(step=1e-3, tf=2.0))
    assert len(tr.events) == 1
    ev = tr.events[0]
    assert ev.post_state[1] == pytest.approx(-1.0, rel=1e-9)
    assert tr.output("q")[-1] == pytest.approx(2.0 - tr.output("q")[-1] + 0.0,
                                               abs=2e-3) or True
    assert tr.output("q")[-1] == pytest.approx(0.0, abs=1e-5)


def test_event_guard_residual_small_at_event():
    m = _free_particle_model()
    tr = integrate(m, SimConfig(step=1e-3, tf=2.0))
    ev = tr.events[0]
    # guard is q - 1; scale 1
    assert abs(ev.pre_state[0] - 1.0) <= 1e-8


def test_deadtime_suppresses_retrigger():
    # rebound barely misses re-crossing; with a huge deadtime the guard
    # stays quiet even though the particle sits near the surface
    m = _free_particle_model(barrier=2.0)
    ev = m.events[0]
    m2 = make_ode_model(2, m.tape, (), {}, m.state_names, m.output_names,
                        init_exprs=m.init_exprs,
                        events=(EventSpec(ev.guard, ev.action, deadtime=10.0),))
    tr = integrate(m2, SimConfig(step=1e-3, tf=2.0))
    assert len(tr.events) == 1


def test_event_storm_detected():
    b = TapeBuilder(2)
    x = b.input(0)
    t = b.build([b.const(-1.0), x])           # x' = -1
    gb = TapeBuilder(2)
    guard = gb.build([gb.input(0)])

    def bounce_back(x, t):
        return np.array([0.04])               # re-crosses 0.04s later

    m = make_ode_model(1, t, (), {}, ("x",), ("x",),
                       init_exprs=(parse_expr(0.05),),
                       events=(EventSpec(guard, bounce_back, deadtime=1e-3),))
    with pytest.raises(EventStorm):
        integrate(m, SimConfig(step=1.0, tf=1.0))


def test_two_phase_impact_update_uses_pre_velocities():
    # metric coupling both coordinates: the update must evaluate all new
    # velocities from the pre-impact vector, not sequentially
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    s = _surface(2, e_pos=50.0, A=A)
    q = np.array([1.0, 0.0])
    v_pre = np.array([1.0, 0.5])
    v_post = impact_update(s, q, v_pre, 0.0)
    e_n = np.linalg.solve(A, [1.0, 0.0])
    gn = e_n[0]
    vn_pre = v_pre[0] / gn
    vn_post = v_post[0] / gn
    assert vn_post == pytest.approx(-vn_pre, rel=1e-12)
    # both components move (coupled normal direction), tangent part intact
    assert np.allclose(v_post, v_pre + (vn_post - vn_pre) * e_n, atol=1e-14)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smooth_heaviside_values():
    assert smooth_heaviside(1.0, 0.0) == 0.5
    assert smooth_heaviside(123.0, 0.0) == 0.5
    assert smooth_heaviside(1e3, 0.1) == pytest.approx(0.99682, abs=5e-6)
    xs = np.linspace(-5, 5, 101)
    for a in (1.0, 10.0, 100.0):
        ys = [smooth_heaviside(a, x) for x in xs]
        assert all(b >= a_ for a_, b in zip(ys, ys[1:]))
        assert 0.0 < ys[0] < 0.5 < ys[-1] < 1.0
    assert smooth_heaviside(1e6, 1e6) == pytest.approx(1.0, abs=1e-6)
    assert smooth_heaviside(1e6, -1e6) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(ValueError):
        smooth_heaviside(0.0, 1.0)


def _smoothed_step_model(a, delta=0.75):
    """Particle with potential E_p = -delta * H_a(q - 1)."""
    b = TapeBuilder(3)
    q, v = b.input(0), b.input(1)
    arg = b.sub(q, b.const(1.0))
    den = b.add(b.const(1.0), b.mul(b.mul(b.const(a), arg), b.mul(b.const(a), arg)))
    force = b.div(b.const(delta * a / math.pi), den)
    t = b.build([v, force, q, v])
    return make_ode_model(2, t, (), {}, ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr(0.0), parse_expr(1.0)))


def test_smoothed_heaviside_converges_to_event_simulation():
    delta = 0.75
    event_m = _free_particle_model(delta=delta)
    c = SimConfig(step=1e-3, tf=2.0)
    q_event = integrate(event_m, c).output("q")[-1]
    errs = []
    for a in (1e1, 1e2, 1e3):
        q_smooth = integrate(_smoothed_step_model(a, delta), c).output("q")[-1]
        errs.append(abs(q_smooth - q_event))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# sensitivity co-integration
# ---------------------------------------------------------------------------

def _theta_growth_model():
    """x' = theta * x, x(0) = 1."""
    b = TapeBuilder(3)          # [x, t, theta]
    x, th = b.input(0), b.input(2)
    t = b.build([b.mul(th, x), x])
    return make_ode_model(1, t, ("theta",), {"theta": 0.5}, ("x",), ("y",),
                          init_exprs=(parse_expr(1.0),))


def test_sensitivity_closed_form():
    m = sensitivity_extend(_theta_growth_model(), "theta")
    tr = integrate(m, SimConfig(step=1e-3, tf=2.0))
    t = tr.times
    want = t * np.exp(0.5 * t)
    assert np.max(np.abs(tr.output("dy/dtheta") - want)) < 1e-7
    assert tr.output("dy/dtheta")[-1] == pytest.approx(2 * math.e ** 1.0, rel=1e-9)


def test_sensitivity_matches_finite_differences():
    m = _theta_growth_model()
    ms = sensitivity_extend(m, "theta")
    c = SimConfig(step=1e-3, tf=1.5)
    sens = integrate(ms, c).output("dy/dtheta")

    def y_of(th):
        return integrate(m, c, theta={"theta": th}).output("y")

    h = 1e-5 * max(1.0, 0.5)
    fd = (y_of(0.5 + h) - y_of(0.5 - h)) / (2 * h)
    rel = np.max(np.abs(sens - fd) / np.maximum(1.0, np.abs(sens)))
    assert rel <= 1e-5


def test_parameter_dependent_start_time():
    # x' = x, x(h(theta)) = 2 with h(theta) = theta:
    # sensitivity starts at -f(g, h, theta) = -2
    b = TapeBuilder(3)
    x = b.input(0)
    t = b.build([x, x])
    m = make_ode_model(1, t, ("theta",), {"theta": 0.25}, ("x",), ("y",),
                       init_exprs=(parse_expr(2.0),),
                       init_time=parse_expr("theta"))
    ms = sensitivity_extend(m, "theta")
    tr = integrate(ms, SimConfig(step=1e-3, tf=1.0))
    assert tr.times[0] == pytest.approx(0.25)
    assert tr.output("dy/dtheta")[0] == pytest.approx(-2.0)
    # closed form: x = 2 e^{t-theta}, d/dtheta = -2 e^{t-theta}
    want = -2.0 * np.exp(tr.times - 0.25)
    assert np.max(np.abs(tr.output("dy/dtheta") - want)) < 1e-8


def test_sensitivity_across_general_event_refused():
    m = _free_particle_model()
    reset = EventSpec(m.events[0].guard, lambda x, t: x, deadtime=1.0)
    m2 = make_ode_model(2, m.tape, (), {}, m.state_names, m.output_names,
                        init_exprs=m.init_exprs, events=(reset,),
                        has_sensitivity=True)
    with pytest.raises(SensitivityAcrossEvent):
        integrate(m2, SimConfig(step=0.01, tf=1.0))


# ---------------------------------------------------------------------------
# delays
# ---------------------------------------------------------------------------

def _dde_model(h=0.5):
    """x'(t) = -x(t - h), x = 1 for t <= 0; delay named 'h'."""
    b = TapeBuilder(5)          # [x, t, h, xdel, xdelslope]
    x = b.input(0)
    xdel = b.input(3)
    # outputs: rhs, the y output, and the slot expression (the carried x)
    t = b.build([b.neg(xdel), x, x])
    return make_ode_model(
        1, t, ("h",), {"h": h}, ("x",), ("y",),
        init_exprs=(parse_expr(1.0),),
        delays=(DelaySlot(parse_expr("h"), parse_expr(1.0)),))


def test_dde_method_of_steps_solution():
    m = _dde_model()
    tr = integrate(m, SimConfig(step=1e-3, tf=1.0))
    t = tr.times
    want = np.where(t <= 0.5, 1.0 - t,
                    (1 - 0.5) - (t - 0.5) + (t - 0.5) ** 2 / 2)
    assert np.max(np.abs(tr.output("y") - want)) < 1e-9


def test_dde_sensitivity_in_the_delay():
    m = dde_extend(_dde_model(), "h")
    tr = integrate(m, SimConfig(step=1e-3, tf=1.0))
    t = tr.times
    # method of steps: 0 before h, then -(t-h) on (h, 2h]
    want = np.where(t <= 0.5, 0.0, -(t - 0.5))
    assert np.max(np.abs(tr.output("dy/dh") - want)) < 1e-6


def test_dde_sensitivity_matches_fd():
    base = _dde_model()
    ms = dde_extend(base, "h")
    c = SimConfig(step=1e-3, tf=1.0)
    sens = integrate(ms, c).output("dy/dh")
    eps = 1e-5
    up = integrate(base, c, theta={"h": 0.5 + eps}).output("y")
    dn = integrate(base, c, theta={"h": 0.5 - eps}).output("y")
    fd = (up - dn) / (2 * eps)
    rel = np.max(np.abs(sens - fd) / np.maximum(1.0, np.abs(sens)))
    assert rel <= 1e-4


def test_random_linear_dde_sensitivity_vs_fd():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = float(rng.uniform(-1.0, 0.2))
        bcoef = float(rng.uniform(-1.0, 1.0))
        h = float(rng.uniform(0.3, 0.8))
        b = TapeBuilder(5)
        x = b.input(0)
        xdel = b.input(3)
        rhs = b.add(b.mul(b.const(a), x), b.mul(b.const(bcoef), xdel))
        t = b.build([rhs, x, x])
        m = make_ode_model(1, t, ("h",), {"h": h}, ("x",), ("y",),
                           init_exprs=(parse_expr(1.0),),
                           delays=(DelaySlot(parse_expr("h"), parse_expr(1.0)),))
        c = SimConfig(step=2e-3, tf=2.0)
        sens = integrate(dde_extend(m, "h"), c).output("dy/dh")
        eps = 1e-5
        up = integrate(m, c, theta={"h": h + eps}).output("y")
        dn = integrate(m, c, theta={"h": h - eps}).output("y")
        fd = (up - dn) / (2 * eps)
        rel = np.max(np.abs(sens - fd) / np.maximum(1.0, np.abs(sens)))
        assert rel <= 1e-4


def test_sensitivity_independent_of_rhs_and_delay_is_zero():
    b = TapeBuilder(6)          # [x, t, h, spare, xdel, xdelslope]
    x = b.input(0)
    xdel = b.input(4)
    t = b.build([b.neg(xdel), x, x])
    m = make_ode_model(1, t, ("h", "spare"), {"h": 0.5, "spare": 2.0},
                       ("x",), ("y",), init_exprs=(parse_expr(1.0),),
                       delays=(DelaySlot(parse_expr("h"), parse_expr(1.0)),))
    tr = integrate(dde_extend(m, "spare"), SimConfig(step=1e-2, tf=1.0))
    assert np.all(tr.output("dy/dspare") == 0.0)


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("h", [0.25, 1.0 / 3.0])
def test_delay_equal_to_step(h, method):
    # every lookup from a node lands on the newest history node
    m = _dde_model(h)
    c = SimConfig(step=h, tf=2.0, method=method)
    tr = integrate(m, c)
    t = tr.times
    on = t <= 2 * h + 1e-12
    want = np.where(t <= h, 1.0 - t, 1.0 - t + (t - h) ** 2 / 2)
    assert np.max(np.abs(tr.output("y")[on] - want[on])) <= 1e-12
    # the sensitivity run repeats the plain run in its primal columns
    trd = integrate(dde_extend(m, "h"), c)
    assert np.array_equal(trd.times, t)
    assert np.array_equal(trd.states[:, :1], tr.states)
    assert np.array_equal(trd.output("y"), tr.output("y"))


def test_delay_smaller_than_step_rejected():
    m = _dde_model(h=0.5)
    with pytest.raises(ValueError):
        integrate(m, SimConfig(step=0.7, tf=2.0))


def test_nan_delay_rejected():
    with pytest.raises(ValueError, match="delay nan smaller than the step"):
        integrate(_dde_model(math.nan), SimConfig(step=0.1, tf=1.0))


def test_delay_underflow_without_prehistory():
    b = TapeBuilder(5)
    x = b.input(0)
    xdel = b.input(3)
    t = b.build([b.neg(xdel), x, x])
    m = make_ode_model(1, t, ("h",), {"h": 0.5}, ("x",), ("y",),
                       init_exprs=(parse_expr(1.0),),
                       delays=(DelaySlot(parse_expr("h"), None),))
    from hybridad import DelayUnderflow
    with pytest.raises(DelayUnderflow):
        integrate(m, SimConfig(step=1e-2, tf=1.0))


@pytest.mark.parametrize("undefined", [0, 1])
def test_delay_underflow_with_one_slot_of_a_delay_undefined(undefined):
    # two slots on the same delay: one has a prehistory, the other has none
    b = TapeBuilder(7)          # [x, t, h, xdel_1, xdel_2, xdelslope_1, xdelslope_2]
    x = b.input(0)
    t = b.build([b.neg(b.add(b.input(3), b.input(4))), x, x, x])
    slots = [DelaySlot(parse_expr("h"), parse_expr("1 + t"))] * 2
    slots[undefined] = DelaySlot(parse_expr("h"), None)
    m = make_ode_model(1, t, ("h",), {"h": 0.5}, ("x",), ("y",),
                       init_exprs=(parse_expr(1.0),), delays=tuple(slots))
    from hybridad import DelayUnderflow
    with pytest.raises(DelayUnderflow, match="^lookup at t=-0.5 precedes history "
                                             "and no prehistory is defined$"):
        integrate(m, SimConfig(step=1e-2, tf=1.0))


# ---------------------------------------------------------------------------
# trajectory export
# ---------------------------------------------------------------------------

def test_csv_layout_and_event_rows():
    m = _free_particle_model()
    tr = integrate(m, SimConfig(step=0.25, tf=2.0))
    text = tr.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,q,v,q,v"
    # one row per accepted step plus pre and post rows for the event
    assert len(lines) - 1 == len(tr.times) + 2 * len(tr.events)
    ev = tr.events[0]
    pre_row = [ln for ln in lines[1:] if ln.startswith(f"{ev.time:.17g},")][0]
    assert f"{ev.pre_state[1]:.17g}" in pre_row


def test_csv_determinism():
    m = _decay_model()
    a = integrate(m, SimConfig(step=0.01, tf=1.0)).to_csv()
    b = integrate(m, SimConfig(step=0.01, tf=1.0)).to_csv()
    assert a == b


def test_csv_rows_are_written_as_each_value_formats_at_17_digits():
    # the one row writer of ``Trajectory.to_csv`` and the CLI's tables,
    # on the values whose text is easiest to get wrong, and on an event
    # row whose outputs are missing
    vals = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf,
                     math.nan, 0.1, 1 / 3, 1e22, -1.5e-7, 123456789012345678.0])
    rows = vals.reshape(-1, 3)
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in r) + "\n" for r in rows)
    assert sim.csv_text(["a", "b", "c"], rows.tolist()) == want
    event = sim.EventRecord(0.25, 0, vals[9:11], vals[10:12], None, None)
    tr = sim.Trajectory(np.array([0.0, 0.25, 0.5]), vals[:6].reshape(3, 2),
                        vals[6:9].reshape(3, 1), [event], ("x0", "x1"), ("y",))
    assert tr.to_csv().splitlines() == [
        "t,x0,x1,y", "0,-0,0,nan",
        "0.25,4.9406564584124654e-324,-2.2250738585072014e-308,0.10000000000000001",
        "0.25,1e+22,-1.4999999999999999e-07,nan",
        "0.25,-1.4999999999999999e-07,1.2345678901234568e+17,nan",
        "0.5,inf,-inf,0.33333333333333331"]


def _model_file(name):
    path = os.path.join(os.path.dirname(__file__), "..", "models", name)
    with open(path, encoding="utf-8") as fh:
        return flatten(parse_diagram(fh.read()))


def _no_output_model():
    b = TapeBuilder(2)          # [x, t]
    return make_ode_model(1, b.build([b.neg(b.input(0))]), (), {}, ("x",), (),
                          init_exprs=(parse_expr(1.0),))


_LAYOUT_CASES = {
    "continuous": (_decay_model, SimConfig(step=0.01, tf=1.0)),
    "impact": (_free_particle_model, SimConfig(step=0.25, tf=2.0)),
    "delay": (_dde_model, SimConfig(step=0.1, tf=1.0)),
    "discrete": (lambda: _model_file("discrete_loop.json"), SimConfig(step=0.1, tf=1.0)),
    "no outputs": (_no_output_model, SimConfig(step=0.1, tf=1.0)),
    "single node": (_decay_model, SimConfig(step=0.1, tf=0.0)),
    "discrete, no sample": (lambda: _model_file("discrete_loop.json"), SimConfig(step=0.1, tf=-1.0)),
}
_FIXED_ROWS = {"single node": 1, "discrete, no sample": 0}     # tf at t0, tf before t0


@pytest.mark.parametrize("case", list(_LAYOUT_CASES))
def test_trajectory_arrays_are_float64_rows_of_the_model_widths(case):
    make, config = _LAYOUT_CASES[case]
    m = make()
    tr = integrate(m, config)
    N = len(tr.times)
    assert N == _FIXED_ROWS[case] if case in _FIXED_ROWS else N > 1
    assert (tr.times.shape, tr.states.shape, tr.outputs.shape) == ((N,), (N, m.n), (N, m.n_outputs))
    for a in (tr.times, tr.states, tr.outputs):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    if case == "impact":
        assert len(tr.events) == 1
    for name in m.output_names:
        assert tr.output(name).shape == (N,)
    assert _digest_script().layout_problems(tr) == []


def _digest_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "trajectory_digest.py")
    spec = importlib.util.spec_from_file_location("trajectory_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_reports_a_trajectory_array_off_the_layout():
    good = integrate(_decay_model(), SimConfig(step=0.1, tf=0.3))
    bad = [("times", good.times.astype(np.float32)), ("states", np.array([])),
           ("outputs", np.repeat(good.outputs, 2, axis=0)[::2])]
    for name, arr in bad:
        tr = sim.Trajectory(**{**vars(good), name: arr})
        assert [p.split(":")[0] for p in _digest_script().layout_problems(tr)] == [f"trajectory {name}"]


# ---------------------------------------------------------------------------
# evaluation counts
# ---------------------------------------------------------------------------

def _count_evaluations(monkeypatch):
    """Counts calls of ``math.atan``.  Generated code reaches it through
    the math module, both in the guard functions and in the guard checks
    inlined into the generated march, so a guard holding a model's only
    atan counts that guard's evaluations."""
    counts = [0]
    atan = math.atan

    def counted(v):
        counts[0] += 1
        return atan(v)

    monkeypatch.setattr(math, "atan", counted)
    return counts


def _count_model_evaluations(monkeypatch):
    """Counts calls of ``math.sin`` and ``math.cos``.  In ``_counted_model``
    the rhs holds the only sine and an output the only cosine, so they
    count the rhs evaluations (at the RK stages, which the generated march
    writes out, and at the accepted nodes) and the output evaluations."""
    counts = {"rhs": 0, "outputs": 0}
    for key, name in (("rhs", "sin"), ("outputs", "cos")):
        def counted(v, key=key, fn=getattr(math, name)):
            counts[key] += 1
            return fn(v)
        monkeypatch.setattr(math, name, counted)
    return counts


def _counted_model(events=()):
    """x' = -sin(x), x(0) = 1, with the output y = cos(x)."""
    b = TapeBuilder(2)          # [x, t]
    x = b.input(0)
    return make_ode_model(1, b.build([b.neg(b.apply(SIN, x)), b.apply(COS, x)]), (), {},
                          ("x",), ("y",), init_exprs=(parse_expr(1.0),), events=events)


@pytest.mark.parametrize("method, per_step", [("rk4", 4), ("midpoint", 2)])
def test_rhs_evaluations_per_step(monkeypatch, method, per_step):
    calls = _count_model_evaluations(monkeypatch)
    tr = integrate(_counted_model(), SimConfig(step=0.01, tf=1.0, method=method))
    steps = len(tr.times) - 1
    assert steps == 100
    # the rhs at each accepted node is the next step's first stage
    assert calls["rhs"] == 1 + per_step * steps
    # outputs are read at the accepted nodes only
    assert calls["outputs"] == 1 + steps


def test_guard_evaluated_once_per_accepted_node(monkeypatch):
    counts = _count_evaluations(monkeypatch)
    calls = _count_model_evaluations(monkeypatch)
    gb = TapeBuilder(2)
    guard = gb.build([gb.sub(gb.apply(ATAN, gb.input(0)), gb.const(10.0))])     # never crosses
    tr = integrate(_counted_model((EventSpec(guard, lambda x, t: x),)),
                   SimConfig(step=0.01, tf=1.0))
    assert not tr.events
    assert counts[0] == len(tr.times) == calls["outputs"]


def test_dead_arm_is_never_evaluated(monkeypatch):
    # dead = 1 if t >= 0.5 else 1/(t - 0.5): the else arm would divide by
    # zero at the node t = 0.5, where the generated code takes the then arm
    # only, so the interpreter is never called.  ``dead`` is the rhs of
    # x' = dead, the guard of an event on x' = 1 (it crosses zero at 0.5),
    # or the increment of the discrete map x <- x + dead sampled every 0.25
    interpreted = []
    tape_eval = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval",
                        lambda t, vals: interpreted.append(vals[1]) or tape_eval(t, vals))
    for where, rise in (("rhs", 0.25), ("guard", 0.25), ("discrete", 1.0)):
        b = TapeBuilder(2)
        x, tn = b.input(0), b.input(1)
        one = b.const(1.0)
        dead = b.branch(tn, 0.5, one, b.div(one, b.sub(tn, b.const(0.5))))
        rhs = b.add(x, dead) if where == "discrete" else dead if where == "rhs" else one
        kw = {"guard": {"events": (EventSpec(b.build([dead]), lambda x, t: x),)},
              "discrete": {"discrete": True, "sample_time": 0.25}}.get(where, {})
        m = make_ode_model(1, b.build([rhs, x]), (), {}, ("x",), ("y",),
                           init_exprs=(parse_expr(0.0),), **kw)
        tr = integrate(m, SimConfig(step=0.25, tf=2.0))
        assert interpreted == []
        assert [e.time for e in tr.events] == ([0.5] if where == "guard" else [])
        y = tr.output("y")
        assert np.allclose(np.diff(y[tr.times >= 0.5]), rise, rtol=0.0, atol=1e-12)


def test_domain_error_in_a_guard_names_the_guard_node():
    # x' = 1 with the guard -1 if t < 0.5 else 1/(t - 1): the taken arm
    # divides by zero at the node t = 1
    b = TapeBuilder(2)
    x, tn = b.input(0), b.input(1)
    one = b.const(1.0)
    pole = b.div(one, b.sub(tn, one))
    guard = b.build([b.branch(tn, 0.5, pole, b.const(-1.0))])
    m = make_ode_model(1, b.build([one, x]), (), {}, ("x",), ("y",),
                       init_exprs=(parse_expr(0.0),), events=(EventSpec(guard, lambda x, t: x),))
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=2.0))
    assert exc.value.node_id == pole


def test_dead_arms_of_two_branches_sharing_a_node(monkeypatch):
    # the sensitivity of x' = 1 if t >= 0.5 else p/(t - 0.5) reads the
    # quotient in the else arms of two branches: the model's and its
    # tangent's.  Computing it once around both would divide by zero at
    # t = 0.5, where neither arm is taken.
    b = TapeBuilder(3)
    tn = b.input(1)
    one = b.const(1.0)
    rhs = b.branch(tn, 0.5, one, b.div(b.input(2), b.sub(tn, b.const(0.5))))
    m = make_ode_model(1, b.build([rhs, b.input(0)]), ("p",), {"p": 1.0}, ("x",), ("y",),
                       init_exprs=(parse_expr(0.0),))
    ms = sensitivity_extend(m, "p")
    interpreted = []
    tape_eval = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval",
                        lambda t, vals: interpreted.append(vals[1]) or tape_eval(t, vals))
    tr = integrate(ms, SimConfig(step=0.25, tf=1.0))
    assert interpreted == []
    assert tr.states[-1].tolist() == [tr.states[2][0] + 0.5, tr.states[2][1]]


# ---------------------------------------------------------------------------
# the generated step against a reference march
# ---------------------------------------------------------------------------

def _reference_march(m, c):
    """The march of ``integrate`` for a model without events or delays,
    written with ``tape_eval``: RK stages read the rhs only, accepted nodes
    read every output, and node times are ``anchor_t + (k + 1) * step``.
    A failing evaluation is named by ``tape_eval`` of the whole tape."""
    n = m.n
    rhs_tape = Tape(m.tape.nodes, m.tape.num_inputs, m.tape.outputs[:n])
    theta = [m.params[p] for p in m.param_names]

    def f(x, t):
        try:
            return tape_eval(rhs_tape, x + [t] + theta)
        except EvalDomainError:
            tape_eval(m.tape, x + [t] + theta)
            raise

    def node(x, t):
        out = tape_eval(m.tape, x + [t] + theta)
        return out[:n], out[n:]

    t = c.t0
    x = m.initial_state(m.params).tolist()
    for i, lo, hi in m.state_clamps:
        x[i] = min(hi, max(lo, x[i]))
    k1, y = node(x, t)
    times, states, outputs = [t], [x], [y]
    anchor_t, k = t, 0
    while t < c.tf - 1e-12 * max(1.0, abs(c.tf)):
        t_next = min(anchor_t + (k + 1) * c.step, c.tf)
        h = t_next - t
        hh = 0.5 * h
        k2 = f([a + hh * b for a, b in zip(x, k1)], t + hh)
        if c.method == "midpoint":
            x = [a + h * b for a, b in zip(x, k2)]
        else:
            k3 = f([a + hh * b for a, b in zip(x, k2)], t + hh)
            k4 = f([a + h * b for a, b in zip(x, k3)], t + h)
            h6 = h / 6.0
            x = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        for i, lo, hi in m.state_clamps:
            x[i] = min(hi, max(lo, x[i]))
        t, k = t_next, k + 1
        k1, y = node(x, t)
        times.append(t)
        states.append(x)
        outputs.append(y)
    return times, states, outputs


def _hex(rows):
    return [[float(v).hex() for v in np.atleast_1d(r)] for r in rows]


def _random_model(seed, clamp=False):
    """A model over a random tape with branch nodes: inputs [x (n), t,
    theta (s)], rhs and outputs drawn among its nodes."""
    rng = np.random.default_rng(seed)
    n, s = int(rng.integers(1, 4)), int(rng.integers(0, 3))
    tape, x0 = random_tape(rng, max_nodes=80, num_inputs=n + 1 + s,
                           ops=("add", "sub", "mul", "div", "apply", "branch"))
    picks = [int(i) for i in rng.integers(n + 1 + s, len(tape), n + 2)]
    outs = tuple(tape.outputs[:1]) + tuple(picks)
    names = [f"p{k}" for k in range(s)]
    clamps = tuple((i, x0[i] - 0.01, x0[i] + 0.01) for i in range(n)) if clamp else ()
    m = make_ode_model(n, Tape(tape.nodes, tape.num_inputs, outs), names,
                       dict(zip(names, x0[n + 1:])), [f"x{i}" for i in range(n)],
                       [f"y{i}" for i in range(len(outs) - n)],
                       init_exprs=tuple(parse_expr(float(v)) for v in x0[:n]),
                       state_clamps=clamps)
    return m, float(x0[n])


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_generated_step_matches_reference_march_bitwise(method):
    branchy = ran = 0
    for seed in range(40):
        m, t0 = _random_model(seed, clamp=seed == 0)
        branchy += any(nd.op == "branch" for nd in m.tape.nodes)
        c = SimConfig(step=2e-3, tf=t0 + 0.05, t0=t0, method=method)
        try:
            want = _reference_march(m, c)
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as got:
                integrate(m, c)
            assert got.value.node_id == exc.node_id
            continue
        tr = integrate(m, c)
        ran += 1
        assert [float(v).hex() for v in tr.times] == [float(v).hex() for v in want[0]]
        assert _hex(tr.states) == _hex(want[1])
        assert _hex(tr.outputs) == _hex(want[2])
    assert branchy >= 30 and ran >= 30


def _stepped_with_ev(m, c):
    """``integrate``'s nodes for a model without events, from the generated
    ``step`` and ``ev(*y, tn, tn, True)``, which read the delay record
    through ``_look``: node times ``t0 + k * step``, clamped to tf."""
    env = m.theta_env()
    t = m.start_time(env, c.t0)
    x = m.initial_state(env).tolist()
    ev, step, _, _ = sim._stepper(m, c, x, t, env)
    f, y = ev(*x, t, t, True)
    times, states, outputs = [t], [x], [y]
    end, anchor, k = c.tf - 1e-12 * max(1.0, abs(c.tf)), t, 1
    while t < end:
        tn = min(anchor + k * c.step, c.tf)
        x = step(x, t, tn - t, f)
        f, y = ev(*x, tn, tn, True)
        times.append(tn)
        states.append(x)
        outputs.append(y)
        t, k = tn, k + 1
    return times, states, outputs


def _two_delay_model():
    """x0' = 0.5 x1'(t - a) - x0(t - 0.3137), x1' = 0.3 x0 - x0(t - 0.3137) x1
    from t0 = 0.2, with a = 0.25 on the step grid of 0.05 and 0.3137 off it.
    The rhs reads the value of slot 0 and only the time-slope of slot 1;
    slot 2, on slot 0's delay, carries x0 x1 and only the output y0 reads
    it.  The prehistories are cos(t), 1 + t^2 and 1/2."""
    b = TapeBuilder(10)         # [x0, x1, t, a, d0, d1, d2, s0, s1, s2]
    x0, x1 = b.input(0), b.input(1)
    d0, s1, d2 = b.input(4), b.input(8), b.input(6)
    rhs0 = b.sub(b.mul(b.const(0.5), s1), d0)
    rhs1 = b.sub(b.mul(b.const(0.3), x0), b.mul(d0, x1))
    t = b.build([rhs0, rhs1, d2, x0, x0, x1, b.mul(x0, x1)])
    return make_ode_model(
        2, t, ("a",), {"a": 0.25}, ("x0", "x1"), ("y0", "y1"),
        init_exprs=(parse_expr(1.0), parse_expr(0.5)), init_time=parse_expr(0.2),
        delays=(DelaySlot(parse_expr(0.3137), parse_expr("cos(t)")),
                DelaySlot(parse_expr("a"), parse_expr("1 + t*t")),
                DelaySlot(parse_expr(0.3137), parse_expr(0.5))))


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_written_out_lookups_match_step_and_ev_bitwise(method):
    # the march's lookups, written out and computing only what each stage
    # and node reads, against ``step`` and ``ev``, whose lookups run
    # ``_look`` and set every slot: two distinct delays, one off the grid,
    # a start time off zero, a slot only an output reads and one whose
    # slope alone the rhs reads, in the primal and the sensitivity model
    models = [(_two_delay_model(), SimConfig(step=0.05, tf=1.5)),
              (dde_extend(_two_delay_model(), "a"), SimConfig(step=0.05, tf=1.5)),
              *((model(), c) for name, model, c in GOLDEN_DELAY if name != "delay_reset")]
    for m, c in models:
        c = SimConfig(step=c.step, tf=c.tf, t0=c.t0, method=method)
        tr, want = integrate(m, c), _stepped_with_ev(m, c)
        assert [float(v).hex() for v in tr.times] == [float(v).hex() for v in want[0]]
        assert _hex(tr.states) == _hex(want[1]) and _hex(tr.outputs) == _hex(want[2])


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_long_single_use_chain_marches_bitwise(method):
    # x' = a chain of 1,000 add and mul nodes, each read by the next only:
    # written into one expression, it would nest 1,000 parentheses
    b = TapeBuilder(2)          # [x, t]
    x = v = b.input(0)
    for i in range(1000):
        v = b.add(v, b.input(1)) if i % 2 else b.mul(v, b.const(0.999))
    m = make_ode_model(1, b.build([v, x]), (), {}, ("x",), ("y",), init_exprs=(parse_expr(1.0),))
    c = SimConfig(step=0.01, tf=0.05, method=method)
    tr, want = integrate(m, c), _reference_march(m, c)
    assert _hex(tr.states) == _hex(want[1]) and _hex(tr.outputs) == _hex(want[2])


def test_failure_in_an_inlined_node_of_the_third_stage_is_named(monkeypatch):
    # x' = 2x - 1 + 2^-60 sqrt(x + 0.75), x(0) = 0, one step of 1: the RK4
    # stages read x = 0, -0.5, -1 and -3, so the square root fails at the
    # third, inside the march; its argument is written into it
    b = TapeBuilder(2)          # [x, t]
    x = b.input(0)
    root = b.apply(SQRT, b.add(x, b.const(0.75)))
    rhs = b.add(b.sub(b.mul(b.const(2.0), x), b.const(1.0)), b.mul(b.const(2.0 ** -60), root))
    m = make_ode_model(1, b.build([rhs, x]), (), {}, ("x",), ("y",), init_exprs=(parse_expr(0.0),))
    interpreted = []
    tape_eval = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval",
                        lambda t, vals: interpreted.append(vals[0]) or tape_eval(t, vals))
    with pytest.raises(EvalDomainError, match="sqrt of negative value") as exc:
        integrate(m, SimConfig(step=1.0, tf=1.0))
    assert exc.value.node_id == root
    assert interpreted == [pytest.approx(-1.0)]


def test_failure_in_an_inlined_guard_check_is_named():
    # x' = 1 with the guard sqrt(0.55 - x) - 10, which never changes sign:
    # the march's check of it fails at the node x = 0.6
    b = TapeBuilder(2)          # [x, t]
    x = b.input(0)
    root = b.apply(SQRT, b.sub(b.const(0.55), x))
    guard = b.build([b.sub(root, b.const(10.0))])
    b = TapeBuilder(2)
    m = make_ode_model(1, b.build([b.const(1.0), b.input(0)]), (), {}, ("x",), ("y",),
                       init_exprs=(parse_expr(0.0),), events=(EventSpec(guard, lambda x, t: x),))
    with pytest.raises(EvalDomainError, match="sqrt of negative value") as exc:
        integrate(m, SimConfig(step=0.1, tf=1.0))
    assert exc.value.node_id == root


def test_non_finite_constants_in_generated_step():
    # x' = 1 while x >= -inf, y = x + inf
    b = TapeBuilder(2)
    x = b.input(0)
    rhs = b.branch(x, -math.inf, b.const(1.0), b.const(0.0))
    m = make_ode_model(1, b.build([rhs, b.add(x, b.const(math.inf))]), (), {}, ("x",), ("y",),
                       init_exprs=(parse_expr(0.0),))
    tr = integrate(m, SimConfig(step=0.25, tf=1.0))
    assert tr.states[-1, 0] == 1.0 and np.all(tr.output("y") == math.inf)


def _stage_only_pole_model(t_pole):
    """x' = (t - t_pole) / (t - t_pole), which is 1 except at t_pole where it
    divides zero by zero; y = x."""
    b = TapeBuilder(2)
    d = b.sub(b.input(1), b.const(t_pole))
    rhs = b.div(d, d)
    return make_ode_model(1, b.build([rhs, b.input(0)]), (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(0.0),)), rhs


def test_domain_error_at_inner_stage_names_the_node():
    # t = 0.125 is the midpoint stage of the first step of 0.25, never a node
    m, rhs = _stage_only_pole_model(0.125)
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=1.0))
    assert exc.value.node_id == rhs


def test_domain_error_inside_event_bisection_names_the_node():
    # the guard x - 0.3 crosses in the step from 0.25 to 0.5; the first
    # bisection sub-step of 0.125 has its midpoint stage at t = 0.3125,
    # which the march itself never visits
    m, rhs = _stage_only_pole_model(0.3125)
    gb = TapeBuilder(2)
    guard = gb.build([gb.sub(gb.input(0), gb.const(0.3))])
    m = make_ode_model(1, m.tape, (), {}, m.state_names, m.output_names,
                       init_exprs=m.init_exprs, events=(EventSpec(guard, lambda x, t: x),))
    assert integrate(m, SimConfig(step=0.25, tf=0.25)).states[-1][0] == 0.25
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=1.0))
    assert exc.value.node_id == rhs


def test_fractional_power_of_negative_state_is_a_domain_error():
    # x' = -1, x(0) = 1, y = x ** 0.5: the state crosses zero at t = 1
    b = TapeBuilder(2)
    x = b.input(0)
    root = b.apply(Pow(0.5), x)
    tape = b.build([b.const(-1.0), root])
    with pytest.raises(ValueError):
        compile_tape(tape)([-4.0, 0.0])
    m = make_ode_model(1, tape, (), {}, ("x",), ("y",),
                       init_exprs=(parse_expr(1.0),))
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=2.0))
    assert exc.value.node_id == root


def test_fractional_power_of_minus_inf_state_is_a_domain_error():
    # x(0) = -inf with y = x ** 0.5: math.pow would give inf at the first node
    b = TapeBuilder(2)
    x = b.input(0)
    root = b.apply(Pow(0.5), x)
    m = make_ode_model(1, b.build([b.const(0.0), root]), (), {}, ("x",), ("y",),
                       init_exprs=(parse_expr(-math.inf),))
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=1.0))
    assert exc.value.node_id == root


def _bounce_model(g=9.81, height=0.05, barrier=100.0):
    """q' = v, v' = -g above a floor at q = 0 whose barrier exceeds the
    impact energy, so the particle rebounds."""
    b = TapeBuilder(4)                   # [q, v, t, g]
    q, v = b.input(0), b.input(1)
    tape = b.build([v, b.neg(b.input(3)), q, v])
    gb = TapeBuilder(2)                  # [q, t]
    floor = ImpactSurface(1, lambda _q: np.eye(1), lambda _q: barrier,
                          lambda _q: 0.0, gb.build([gb.neg(gb.input(0))]))
    return make_ode_model(2, tape, ("g",), {"g": g}, ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr(height), parse_expr(0.0)),
                          events=(impact_event(floor, 2),))


def test_sensitivity_across_impact_warns_once():
    # no saltation jump is applied at impacts: at tf dq/dg reads -0.01125
    # where central differences give about +0.0039
    m = _bounce_model()
    c = SimConfig(step=2e-3, tf=0.15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        primal = integrate(m, c)
    assert len(primal.events) == 1
    with pytest.warns(ImpactSensitivityWarning) as rec:
        sens = integrate(sensitivity_extend(m, "g"), c)
    assert len(sens.events) == 1
    assert len(rec) == 1
    msg = str(rec[0].message)
    assert f"impact event 0 at t={sens.events[0].time!r}" in msg


# ---------------------------------------------------------------------------
# one extension over several parameters
# ---------------------------------------------------------------------------

def _gain_dde_model():
    """x'(t) = -a x(t - h) - x(t - h/2) / 4 with prehistories 1 + a t and 1;
    h = 0.3137 is off the grid."""
    b = TapeBuilder(8)          # [x, t, a, h, xdel_1, xdel_2, xdelslope_1, xdelslope_2]
    x, a, xdel1, xdel2 = b.input(0), b.input(2), b.input(4), b.input(5)
    rhs = b.sub(b.neg(b.mul(a, xdel1)), b.mul(b.const(0.25), xdel2))
    t = b.build([rhs, x, x, x])
    return make_ode_model(
        1, t, ("a", "h"), {"a": 0.8, "h": 0.3137}, ("x",), ("y",),
        init_exprs=(parse_expr(1.0),),
        delays=(DelaySlot(parse_expr("h"), parse_expr("1 + a*t")),
                DelaySlot(parse_expr("h/2"), parse_expr(1.0))))


def _height_bounce_model():
    """q' = v, v' = -g from q(0) = z0 onto a rebounding floor at q = 0."""
    b = TapeBuilder(5)          # [q, v, t, g, z0]
    q, v = b.input(0), b.input(1)
    tape = b.build([v, b.neg(b.input(3)), q, v])
    gb = TapeBuilder(2)         # [q, t]
    floor = ImpactSurface(1, lambda _q: np.eye(1), lambda _q: 100.0,
                          lambda _q: 0.0, gb.build([gb.neg(gb.input(0))]))
    return make_ode_model(2, tape, ("g", "z0"), {"g": 9.81, "z0": 0.05},
                          ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr("z0"), parse_expr(0.0)),
                          events=(impact_event(floor, 2),))


def _late_start_model():
    """x' = a x from x(theta) = 2: the start time depends on theta."""
    b = TapeBuilder(4)          # [x, t, a, theta]
    x = b.input(0)
    t = b.build([b.mul(b.input(2), x), x])
    return make_ode_model(1, t, ("a", "theta"), {"a": 0.7, "theta": 0.25},
                          ("x",), ("y",), init_exprs=(parse_expr(2.0),),
                          init_time=parse_expr("theta"))


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model, names, config", [
    (_gain_dde_model, ["h", "a"], SimConfig(step=1e-2, tf=1.0)),
    (_height_bounce_model, ["g", "z0"], SimConfig(step=2e-3, tf=0.15)),
    (_late_start_model, ["theta", "a"], SimConfig(step=1e-2, tf=1.0)),
    (_late_start_model, ["a", "theta", "a"], SimConfig(step=1e-2, tf=1.0)),
], ids=["dde-off-grid", "impact", "theta-start", "repeated-name"])
def test_vector_extension_columns_equal_scalar_extension(model, names, config):
    m = model()
    n, q = m.n, m.n_outputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImpactSensitivityWarning)
        ext = sensitivity_extend(m, names)
        tr = integrate(ext, config)
        scalar = [integrate(sensitivity_extend(m, th), config) for th in names]
    assert ext.n == (len(names) + 1) * n
    assert len(ext.delays) == (len(names) + 1) * len(m.delays)
    for k, sc in enumerate(scalar):
        # the primal block, then block k + 1, against the scalar layout
        ix = [*range(n), *range((k + 1) * n, (k + 2) * n)]
        iy = [*range(q), *range((k + 1) * q, (k + 2) * q)]
        assert [ext.state_names[i] for i in ix] == list(sc.state_names)
        assert [ext.output_names[i] for i in iy] == list(sc.output_names)
        assert _same_bits(tr.times, sc.times)
        assert _same_bits(tr.states[:, ix], sc.states)
        assert _same_bits(tr.outputs[:, iy], sc.outputs)
        assert len(tr.events) == len(sc.events)
        for ev, ev1 in zip(tr.events, sc.events):
            assert (ev.time, ev.guard_index) == (ev1.time, ev1.guard_index)
            assert _same_bits(ev.pre_state[ix], ev1.pre_state)
            assert _same_bits(ev.post_state[ix], ev1.post_state)
            assert _same_bits(ev.pre_outputs[iy], ev1.pre_outputs)
            assert _same_bits(ev.post_outputs[iy], ev1.post_outputs)
    if model is _height_bounce_model:
        assert len(tr.events) == 1


def _integrate_both(doc, tf):
    """``integrate`` and the reference march of a flattened diagram, as hex."""
    m = flatten(parse_diagram(json.dumps(doc)))
    c = SimConfig(step=0.05, tf=tf)
    tr, want = integrate(m, c), _reference_march(m, c)
    return (_hex(tr.states), _hex(tr.outputs)), (_hex(want[1]), _hex(want[2]))


def test_deeply_nested_arms_lookup_table():
    # every breakpoint test reads sin(x), so each segment of the table's
    # branch chain sits in an arm that could raise: 200 nested arms
    bp = np.linspace(-1.0, 1.0, 200).tolist()
    doc = {"schema": 1, "name": "lut", "params": {},
           "blocks": [{"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
                      {"id": "X", "kind": "Integrator", "initial": 0.0},
                      {"id": "F", "kind": "Fn", "fn": "sin"},
                      {"id": "L", "kind": "LookupTable1D", "breakpoints": bp,
                       "values": [v * v for v in bp]},
                      {"id": "Y", "kind": "Integrator", "initial": 0.0}],
           "links": [{"from": "U.out", "to": "X.in"}, {"from": "X.out", "to": "F.in"},
                     {"from": "F.out", "to": "L.in"}, {"from": "L.out", "to": "Y.in"}],
           "outputs": [{"name": "l", "from": "L.out"}, {"name": "y", "from": "Y.out"}]}
    got, want = _integrate_both(doc, 2.0)
    assert got == want


def test_deeply_nested_arms_switch_cascade():
    # S{k} passes S{k-1} while sin(x) >= k / 200 and log(1 + x) otherwise
    k_max = 150
    blocks = [{"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
              {"id": "X", "kind": "Integrator", "initial": 0.0},
              {"id": "F", "kind": "Fn", "fn": "sin"},
              {"id": "C", "kind": "Constant", "value": 1.0},
              {"id": "A", "kind": "Sum", "signs": "++"},
              {"id": "G", "kind": "Fn", "fn": "log"},
              {"id": "Y", "kind": "Integrator", "initial": 0.0}]
    links = [{"from": "U.out", "to": "X.in"}, {"from": "X.out", "to": "F.in"},
             {"from": "X.out", "to": "A.in1"}, {"from": "C.out", "to": "A.in2"},
             {"from": "A.out", "to": "G.in"}, {"from": "G.out", "to": "S0.in1"},
             {"from": f"S{k_max - 1}.out", "to": "Y.in"}]
    for k in range(k_max):
        blocks.append({"id": f"S{k}", "kind": "Switch", "threshold": k / 200})
        links += [{"from": "F.out", "to": f"S{k}.in2"}, {"from": "G.out", "to": f"S{k}.in3"}]
        if k:
            links.append({"from": f"S{k - 1}.out", "to": f"S{k}.in1"})
    doc = {"schema": 1, "name": "cascade", "params": {}, "blocks": blocks, "links": links,
           "outputs": [{"name": "s", "from": f"S{k_max - 1}.out"}, {"name": "y", "from": "Y.out"}]}
    got, want = _integrate_both(doc, 1.0)
    assert got == want


# ---------------------------------------------------------------------------
# golden delay trajectories
# ---------------------------------------------------------------------------

def _delay_reset_model():
    """x'(t) = 1 - x(t - h) / 2 with prehistory t / 4 and h = 0.37 off the
    grid; x is reset to 0.1 whenever it rises through 0.6, so event
    bisections read the history behind the latest lookups."""
    b = TapeBuilder(5)          # [x, t, h, xdel, xdelslope]
    x = b.input(0)
    t = b.build([b.sub(b.const(1.0), b.mul(b.const(0.5), b.input(3))), x, x])
    gb = TapeBuilder(2)         # [x, t]
    guard = gb.build([gb.sub(gb.input(0), gb.const(0.6))])
    return make_ode_model(
        1, t, ("h",), {"h": 0.37}, ("x",), ("y",), init_exprs=(parse_expr(0.0),),
        events=(EventSpec(guard, lambda x, t: np.full_like(x, 0.1)),),
        delays=(DelaySlot(parse_expr("h"), parse_expr("t/4")),))


def _two_delay_jump_model():
    """x'(t) = -x(t - 0.1) / 2 - x(t - 0.3) from x(0) = 1, with prehistory
    2 + 2 t for both slots, so the carried signal jumps at the start time.
    On a step of 0.1 both delays are on the grid: a node's lookup of the
    0.3 slot depends on the step anchor until 0.3, after the 0.1 slot's
    has stopped depending on it."""
    b = TapeBuilder(6)          # [x, t, xdel_1, xdel_2, xdelslope_1, xdelslope_2]
    x = b.input(0)
    rhs = b.sub(b.neg(b.mul(b.const(0.5), b.input(2))), b.input(3))
    t = b.build([rhs, x, x, x])
    pre = parse_expr("2 + 2*t")
    return make_ode_model(
        1, t, (), {}, ("x",), ("y",), init_exprs=(parse_expr(1.0),),
        delays=(DelaySlot(parse_expr(0.1), pre), DelaySlot(parse_expr(0.3), pre)))


def _signed_zero_prehistory_model():
    """x' = x(t - 0.5) - x from t0 = 0.5 with the prehistories -c at c = 0
    and cos(t) on two slots that carry x; the outputs are the delayed
    values and time-slopes.  Before t = 1 they read the prehistories:
    -c and its t-derivative are -0.0, as is -sin(t) at the start node
    (tau = 0), and the CSV prints each as -0."""
    b = TapeBuilder(7)          # [x, t, c, xdel_1, xdel_2, xdelslope_1, xdelslope_2]
    x = b.input(0)
    d1, d2, s1, s2 = (b.input(j) for j in range(3, 7))
    t = b.build([b.sub(d2, x), d1, s1, d2, s2, x, x])
    return make_ode_model(
        1, t, ("c",), {"c": 0.0}, ("x",), ("v1", "s1", "v2", "s2"),
        init_exprs=(parse_expr(1.0),),
        delays=(DelaySlot(parse_expr(0.5), parse_expr("-c")),
                DelaySlot(parse_expr(0.5), parse_expr("cos(t)"))))


def _shared_delay_model():
    """x' = -(x1(t - h) + x2(t - h)/2 + x3(t - 2h/2)/4) - x with x1 = x,
    x2 = x^2 and x3 = t x: two slots on the expression h and one on 2*h/2,
    which evaluates equal to it.  h = 0.35 is off the step grid."""
    b = TapeBuilder(9)          # [x, t, h, d1, d2, d3, s1, s2, s3]
    x, tn = b.input(0), b.input(1)
    d1, d2, d3 = (b.input(j) for j in range(3, 6))
    mix = b.add(b.add(d1, b.mul(b.const(0.5), d2)), b.mul(b.const(0.25), d3))
    t = b.build([b.sub(b.neg(mix), x), mix, x, b.mul(x, x), b.mul(tn, x)])
    return make_ode_model(
        1, t, ("h",), {"h": 0.35}, ("x",), ("y",), init_exprs=(parse_expr(1.0),),
        delays=(DelaySlot(parse_expr("h"), parse_expr("1 + t")),
                DelaySlot(parse_expr("h"), parse_expr("2*h")),
                DelaySlot(parse_expr("2*h/2"), parse_expr("t/4"))))


def _special_constants_model():
    """Constants -0.0, inf, -inf and nan on the tape, and the branch
    thresholds -0.0 (a Saturation with lo = 0, lowered as ``flatten``
    does) and inf.  x' = sat(t - 0.5) - x with limits [0, inf]; z starts
    at -0.0 with rhs -0.0, so it stays -0.0.  The CSV prints -0, inf, -inf
    and nan."""
    b = TapeBuilder(3)          # [x, z, t]
    x = b.input(0)
    nzero, inf, ninf, nan = (b.const(v) for v in (-0.0, math.inf, -math.inf, math.nan))
    u = b.sub(b.input(2), b.const(0.5))
    sat = b.branch(u, math.inf, b.const(math.inf),
                   b.branch(b.neg(u), -0.0, b.const(0.0), u))
    t = b.build([b.sub(sat, x), nzero, sat, b.mul(nzero, x), b.add(x, ninf),
                 b.branch(x, math.inf, nan, nzero), inf, nan])
    return make_ode_model(
        2, t, (), {}, ("x", "z"), ("sat", "nzx", "ninf", "pick", "inf", "nan"),
        init_exprs=(parse_expr(1.0), parse_expr(-0.0)))


GOLDEN_DELAY = [
    ("gain_dde", _gain_dde_model, SimConfig(step=1e-2, tf=1.0)),
    ("two_delay_jump", _two_delay_jump_model, SimConfig(step=0.1, tf=1.0)),
    ("gain_dde.h_a", lambda: sensitivity_extend(_gain_dde_model(), ["h", "a"]),
     SimConfig(step=1e-2, tf=1.0)),
    ("delay_reset", _delay_reset_model, SimConfig(step=1e-2, tf=3.0)),
    ("dde_third.midpoint", lambda: _dde_model(1.0 / 3.0),
     SimConfig(step=1.0 / 3.0, tf=2.0, method="midpoint")),
    ("signed_zero_prehistory", _signed_zero_prehistory_model,
     SimConfig(step=0.1, tf=1.5, t0=0.5)),
    ("shared_delay", _shared_delay_model, SimConfig(step=0.1, tf=2.0)),
]


@pytest.mark.parametrize("name, model, config", GOLDEN_DELAY,
                         ids=[g[0] for g in GOLDEN_DELAY])
def test_delay_trajectory_matches_golden_file(monkeypatch, name, model, config):
    # the golden files were written before the slots shared one history
    # with a cursor per delay; that must not move a bit
    reads_behind = []
    bisect_right = sim.bisect.bisect_right
    monkeypatch.setattr(sim.bisect, "bisect_right",
                        lambda *a: reads_behind.append(a[1]) or bisect_right(*a))
    tr = integrate(model(), config)
    if name == "delay_reset":
        # an event bisection reads behind the cursor, and both sides of
        # each event time are recorded
        assert len(tr.events) >= 3 and reads_behind
    path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.csv")
    with open(path, encoding="ascii", newline="") as fh:
        assert tr.to_csv() == fh.read()


def test_node_lookup_reuses_the_last_stage_lookup(monkeypatch):
    # past t0 + h the step anchor cannot reach the prehistory, so the
    # lookup at an accepted node is the last RK stage's at the same time.
    # Every lookup of the one delay, written out in the march or run by
    # ``_look``, starts with ``tau = <t> - _h0``: each such statement of the
    # generated source also records its t
    calls = []
    generate = sim._generate_stepper

    def counting_generate(*args):
        source, picks = generate(*args)
        return re.sub(r"^( *)tau = (.+) - _h0$", r"\1_calls.append(\2)\n\g<0>", source,
                      flags=re.M), picks

    monkeypatch.setattr(sim, "_CODE", {})
    monkeypatch.setattr(sim, "_generate_stepper", counting_generate)
    monkeypatch.setitem(sim._GLOBALS, "_calls", calls)
    counts = []
    for tf in (1.0, 1.1):
        calls.clear()
        integrate(_dde_model(0.5), SimConfig(step=0.1, tf=tf))
        counts.append(len(calls))
    # the step from 1.0 to 1.1: one lookup at the two midpoint stages and
    # one at the end, which the node at 1.1 reuses
    assert counts[1] - counts[0] == 2


@pytest.mark.parametrize("method,stages", [("rk4", 3), ("midpoint", 1)])
def test_march_works_out_the_lookup_anchor_once_per_step(method, stages):
    m = _dde_model()
    source = sim._generate_stepper(m, method, sim._with_slot_slopes(m))[0]
    march = source[source.index("    def march("):]
    # one anchor per step for its stages, and the accepted node's own
    # anchor and lookup at tn, all written out (``tau = <t> - _h0`` starts
    # each); RK4's third stage, at the second's time, keeps its lookup
    at = re.findall(r"tau = (\S+) - _h0$", march, flags=re.M)
    assert (march.count("a = t if t - _hmax < _left"), len(at) - at.count("tn")) == (
        1, stages - (method == "rk4"))
    assert (march.count("a = tn if tn - _hmax < _left"), at.count("tn")) == (1, 1)
    # ``_look`` runs only where a stage or the node failed, for the slot
    # values the interpreter re-runs it with
    lines = march.split("\n")
    failed = [lines[k - 1].strip() for k, ln in enumerate(lines) if "_look(" in ln]
    assert failed == ["except _ARITH_ERRORS:"] * (stages + 1)
    assert march.count("_look(tn, tn)") == 1


def _pole_at_stage_model(undefined=None):
    """x' = (x(t - 0.5) + 0.125) / (x(t - 0.5) + 0.125) from x(0) = 0, with
    the prehistory t: before t = 0.5 the delayed x is t - 0.5, so the rhs
    divides zero by zero at the stage time 0.375 of a step of 0.25, never at
    a node.  A second slot on the same delay carries x with the prehistory
    t^2, and the output reads it; ``undefined`` replaces that slot by one on
    the delay ``undefined``, with no prehistory, that nothing reads."""
    b = TapeBuilder(6)          # [x, t, d0, d1, s0, s1]
    x = b.input(0)
    d = b.add(b.input(2), b.const(0.125))
    rhs = b.div(d, d)
    second = (DelaySlot(parse_expr(0.5), parse_expr("t*t")) if undefined is None
              else DelaySlot(parse_expr(undefined), None))
    t = b.build([rhs, x if undefined else b.input(3), x, x])
    return make_ode_model(1, t, (), {}, ("x",), ("y",), init_exprs=(parse_expr(0.0),),
                          delays=(DelaySlot(parse_expr(0.5), parse_expr("t")), second)), rhs


def test_stage_failure_of_a_delay_model_reruns_the_whole_lookup(monkeypatch):
    # the stage reads slot 0 alone, and the node at 0.25 looked slot 1 up
    # for the output: the interpreter gets every slot value and slope at
    # the failing stage (tau = -0.125), none left from the node's lookup
    m, rhs = _pole_at_stage_model()
    seen = []
    rerun = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval", lambda t, vals: seen.append(vals) or rerun(t, vals))
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.25, tf=1.0))
    assert exc.value.node_id == rhs
    at = {"t": 0.375 - 0.5}
    pre = [slot.prehistory for slot in m.delays]
    want = [0.375, 0.375, *(e.evaluate(at) for e in pre), *(e.diff("t").evaluate(at) for e in pre)]
    assert seen == [want] and want[3] != (-0.25) ** 2


@pytest.mark.parametrize("delay", [0.5, 0.3])
def test_delay_underflow_for_a_slot_nothing_reads(delay):
    # the march looks up no slot that nothing reads, and the start node's
    # lookup, which sets every slot, raises
    from hybridad import DelayUnderflow
    m, _ = _pole_at_stage_model(undefined=delay)
    with pytest.raises(DelayUnderflow, match=f"^lookup at t={-delay} precedes history "
                                             "and no prehistory is defined$"):
        integrate(m, SimConfig(step=0.1, tf=1.0))


def test_a_guard_hit_leaves_no_partial_lookup_for_ev():
    # x' = 1 - x(t - 0.3) / 2 with the output x(t - 0.3)^2, which the rhs
    # does not read, and the guard x - 0.5.  The march's stages look up
    # only the slot the rhs reads; after the guard hit, ``ev`` at the last
    # stage's time and anchor must look the record up again
    b = TapeBuilder(6)          # [x, t, d0, d1, s0, s1]
    x = b.input(0)
    t = b.build([b.sub(b.const(1.0), b.mul(b.const(0.5), b.input(2))), b.input(3), x, b.mul(x, x)])
    gb = TapeBuilder(2)
    guard = gb.build([gb.sub(gb.input(0), gb.const(0.5))])
    m = make_ode_model(1, t, (), {}, ("x",), ("y",), init_exprs=(parse_expr(0.0),),
                       events=(EventSpec(guard, lambda x, t: x),),
                       delays=(DelaySlot(parse_expr(0.3), parse_expr(0.0)),
                               DelaySlot(parse_expr(0.3), parse_expr("t"))))
    c = SimConfig(step=0.1, tf=2.0)

    def node_after_hit(elsewhere):      # ``elsewhere``: first look up at another time
        x, env = [0.0], m.theta_env()
        ev, step, guards, march = sim._stepper(m, c, x, 0.0, env)
        f, y = ev(*x, 0.0, 0.0, True)
        _, _, x, t, h, _, _, y = march(x, 0.0, f, [guards[0](*x, 0.0)], [-math.inf], [0.0], x, y)
        if elsewhere:
            ev(*x, t + 0.5 * h, t, False)
        return ev(*y, t + h, t, True)[1]
    assert _hex([node_after_hit(False)]) == _hex([node_after_hit(True)])


def test_models_of_one_structure_share_the_compiled_code():
    # the delay record reads its constants from a table, so models that
    # differ only in a delay or prehistory constant compile once
    def model(c):
        b = TapeBuilder(4)          # [x, t, xdel, xdelslope]
        x = b.input(0)
        return make_ode_model(1, b.build([b.neg(b.input(2)), x, x]), (), {}, ("x",), ("y",),
                              init_exprs=(parse_expr(1.0),),
                              delays=(DelaySlot(parse_expr(c), parse_expr(c)),))
    made = [sim._bind_stepper(model(c), "rk4") for c in (0.5, 0.25)]
    assert made[0].__code__ is made[1].__code__
    cfg = SimConfig(step=0.25, tf=0.25)
    # x(0.25) = 1 - 0.25 c: each model reads its own prehistory constant
    assert [integrate(model(c), cfg).states[-1, 0] for c in (0.5, 0.25)] == [0.875, 0.9375]


def _chain_model(hi, clk, pole, mid):
    """Two stages of the benchmark's large-diagram chain, each e' = k (u -
    e) into a Saturation [-hi, hi], a lag 1/(s + pole), a Switch on a
    Step at time clk and a lookup whose third value is mid; extended by
    dy/dk."""
    blocks = [{"id": "U", "kind": "Step", "time": 0.0, "level": 1.0},
              {"id": "Clk", "kind": "Step", "time": clk, "level": 1.0}]
    links, prev = [], "U.out"
    for s in ("A", "B"):
        blocks += [
            {"id": f"{s}E", "kind": "Sum", "signs": "+-"},
            {"id": f"{s}G", "kind": "Gain", "gain": "k"},
            {"id": f"{s}I", "kind": "Integrator", "initial": 0.0},
            {"id": f"{s}Sat", "kind": "Saturation", "lo": -hi, "hi": hi},
            {"id": f"{s}T", "kind": "TransferFnS", "num": [1.0], "den": [1.0, pole]},
            {"id": f"{s}W", "kind": "Switch", "threshold": 0.5},
            {"id": f"{s}L", "kind": "LookupTable1D", "breakpoints": [-1.0, 0.0, 0.4, 1.0],
             "values": [-1.0, 0.0, mid, 1.1]}]
        links += [
            {"from": prev, "to": f"{s}E.in1"}, {"from": f"{s}I.out", "to": f"{s}E.in2"},
            {"from": f"{s}E.out", "to": f"{s}G.in"}, {"from": f"{s}G.out", "to": f"{s}I.in"},
            {"from": f"{s}I.out", "to": f"{s}Sat.in"}, {"from": f"{s}Sat.out", "to": f"{s}T.in"},
            {"from": f"{s}T.out", "to": f"{s}W.in1"}, {"from": "Clk.out", "to": f"{s}W.in2"},
            {"from": f"{s}Sat.out", "to": f"{s}W.in3"}, {"from": f"{s}W.out", "to": f"{s}L.in"}]
        prev = f"{s}L.out"
    doc = {"schema": 1, "name": "chain", "params": {"k": 2.0}, "blocks": blocks,
           "links": links, "outputs": [{"name": "y", "from": prev}]}
    return sensitivity_extend(flatten(parse_diagram(json.dumps(doc))), "k")


class _CodeCache:
    """An empty code cache for one test: ``misses`` counts the models whose
    code was generated, ``hits`` those bound to cached code, and
    ``sources`` holds each generated source."""

    def __init__(self, monkeypatch):
        self.sources, self.binds = [], 0
        generate, bind = sim._generate_stepper, sim._bind_stepper

        def counted_generate(*args):
            made = generate(*args)
            self.sources.append(made[0])
            return made

        def counted_bind(*args):
            self.binds += 1
            return bind(*args)

        monkeypatch.setattr(sim, "_CODE", {})
        monkeypatch.setattr(sim, "_generate_stepper", counted_generate)
        monkeypatch.setattr(sim, "_bind_stepper", counted_bind)

    @property
    def misses(self):
        return len(self.sources)

    @property
    def hits(self):
        return self.binds - self.misses


@pytest.fixture
def code_cache(monkeypatch):
    return _CodeCache(monkeypatch)


def test_one_structure_compiles_once_and_runs_its_own_numbers(code_cache):
    # every constant of B differs from A's; the generated source does not
    a = {"hi": 0.8, "clk": 0.7, "pole": 0.2, "mid": 0.5}
    b = {"hi": 0.6, "clk": 0.9, "pole": 0.3, "mid": 0.45}
    cfg = SimConfig(step=0.01, tf=1.5)
    shared = [integrate(_chain_model(**p), cfg).to_csv() for p in (a, b, a)]
    assert (code_cache.misses, code_cache.hits) == (1, 2)
    assert shared[0] == shared[2] != shared[1]
    for p, csv in zip((a, b), shared):
        sim._CODE.clear()
        assert integrate(_chain_model(**p), cfg).to_csv() == csv


def test_one_structure_names_the_failing_models_node(code_cache):
    # x' = sqrt(c - t): c = 0.5 fails past t = 0.5, c = 2 runs to the end
    def model(c):
        b = TapeBuilder(2)          # [x, t]
        root = b.apply(SQRT, b.sub(b.const(c), b.input(1)))
        return make_ode_model(1, b.build([root, b.input(0)]), (), {}, ("x",), ("y",),
                              init_exprs=(parse_expr(0.0),)), root
    cfg = SimConfig(step=0.1, tf=1.0)
    clean = integrate(model(2.0)[0], cfg).to_csv()
    bad, root = model(0.5)
    with pytest.raises(EvalDomainError, match="sqrt of negative value") as exc:
        integrate(bad, cfg)
    assert exc.value.node_id == root
    assert integrate(model(2.0)[0], cfg).to_csv() == clean
    assert code_cache.misses == 1


def _switched_model(gain=2.0, time=0.3, threshold=0.5, lo=-0.4, hi=0.6):
    """e' = gain * (sat(u) - e), u a Step at ``time`` through a Saturation
    [lo, hi], and e' = -e instead while u is below the Switch's
    ``threshold``."""
    blocks = [{"id": "U", "kind": "Step", "time": time, "level": 1.0},
              {"id": "Sat", "kind": "Saturation", "lo": lo, "hi": hi},
              {"id": "E", "kind": "Sum", "signs": "+-"},
              {"id": "G", "kind": "Gain", "gain": gain},
              {"id": "N", "kind": "Gain", "gain": -1.0},
              {"id": "W", "kind": "Switch", "threshold": threshold},
              {"id": "I", "kind": "Integrator", "initial": 0.1}]
    links = [{"from": "U.out", "to": "Sat.in"}, {"from": "Sat.out", "to": "E.in1"},
             {"from": "I.out", "to": "E.in2"}, {"from": "E.out", "to": "G.in"},
             {"from": "I.out", "to": "N.in"}, {"from": "G.out", "to": "W.in1"},
             {"from": "U.out", "to": "W.in2"}, {"from": "N.out", "to": "W.in3"},
             {"from": "W.out", "to": "I.in"}]
    doc = {"schema": 1, "name": "switched", "params": {}, "blocks": blocks,
           "links": links, "outputs": [{"name": "y", "from": "I.out"}]}
    return flatten(parse_diagram(json.dumps(doc)))


def _floor_model(height):
    """q' = v, v' = -9.81 from q(0) = 0.3 onto a rebounding floor at q = height."""
    b = TapeBuilder(3)          # [q, v, t]
    q, v = b.input(0), b.input(1)
    tape = b.build([v, b.const(-9.81), q, v])
    gb = TapeBuilder(2)         # [q, t]
    floor = ImpactSurface(1, lambda _q: np.eye(1), lambda _q: 100.0, lambda _q: 0.0,
                          gb.build([gb.sub(gb.const(height), gb.input(0))]))
    return make_ode_model(2, tape, (), {}, ("q", "v"), ("q", "v"),
                          init_exprs=(parse_expr(0.3), parse_expr(0.0)),
                          events=(impact_event(floor, 2),))


def _const_delay_model(delay, prehistory, c=0.5):
    """x'(t) = -c x(t - delay), x = prehistory before 0 (expressions of t)."""
    b = TapeBuilder(4)          # [x, t, xdel, xdelslope]
    x = b.input(0)
    return make_ode_model(1, b.build([b.mul(b.const(c), b.neg(b.input(2))), x, x]), (), {},
                          ("x",), ("y",), init_exprs=(parse_expr(1.0),),
                          delays=(DelaySlot(parse_expr(delay), parse_expr(prehistory)),))


SAME_STRUCTURE = {      # two models whose numbers differ, and a config
    "constant": (lambda v: _switched_model(gain=v), (2.0, 3.5), SimConfig(step=0.05, tf=1.0)),
    "step-time": (lambda v: _switched_model(time=v), (0.3, 0.55), SimConfig(step=0.05, tf=1.0)),
    "switch-threshold": (lambda v: _switched_model(threshold=v), (0.5, 1.5),
                         SimConfig(step=0.05, tf=1.0)),
    "saturation-limits": (lambda v: _switched_model(lo=-v, hi=v), (0.6, 0.25),
                          SimConfig(step=0.05, tf=1.0)),
    "impact-floor": (_floor_model, (0.0, 0.1), SimConfig(step=0.01, tf=0.5)),
    "delay-constant": (lambda v: _const_delay_model(v, "1 + 0.5*t"), (0.3, 0.45),
                       SimConfig(step=0.05, tf=1.0)),
    "prehistory-constant": (lambda v: _const_delay_model(0.3, f"{v} + 0.5*t*t"), (1.0, 2.5),
                            SimConfig(step=0.05, tf=1.0)),
}


@pytest.mark.parametrize("case", sorted(SAME_STRUCTURE))
def test_models_differing_in_numbers_share_one_code_object(code_cache, case):
    model, values, cfg = SAME_STRUCTURE[case]
    csvs = [integrate(model(v), cfg).to_csv() for v in values]
    assert (code_cache.misses, code_cache.hits) == (1, 1)
    assert csvs[0] != csvs[1]
    for v, csv in zip(values, csvs):        # each ran its own numbers
        sim._CODE.clear()
        assert integrate(model(v), cfg).to_csv() == csv
    assert code_cache.misses == 3


def _pow_model(p):
    b = TapeBuilder(2)          # [x, t]
    x = b.input(0)
    return make_ode_model(1, b.build([b.neg(b.apply(Pow(p), x)), x]), (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(1.5),))


def _clamped_model(clamps):
    b = TapeBuilder(2)          # [x, t]
    return make_ode_model(1, b.build([b.const(1.0), b.input(0)]), (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(0.0),), state_clamps=clamps)


def _slots_model(*hs):
    """x' = -x(t - h_1) - x(t - h_2) / 2 - x(t - h_3) / 3 ...: one slot per
    delay, slots of equal delays sharing one."""
    J = len(hs)
    b = TapeBuilder(2 + 2 * J)      # [x, t, xdel_1.., xdelslope_1..]
    x, rhs = b.input(0), b.const(0.0)
    for j in range(J):
        rhs = b.sub(rhs, b.mul(b.const(1.0 / (j + 1)), b.input(2 + j)))
    return make_ode_model(1, b.build([rhs, x, *[x] * J]), (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(1.0),),
                          delays=tuple(DelaySlot(parse_expr(h), parse_expr(1.0)) for h in hs))


def _unfolded_gain_delay_model(c):
    """x'(t) = c * x(t - 0.3), whose slot carries the rhs, with the product
    of c kept as a node even at c = 1.0, so only the slot-slope tape, where
    the tangent of c * xdel folds at 1.0, tells the two apart."""
    nodes = (Node("input", a=0), Node("input", a=1), Node("input", a=2), Node("input", a=3),
             Node("const", value=c), Node("mul", a=4, b=2))
    return make_ode_model(1, Tape(nodes, 4, (5, 0, 5)), (), {}, ("x",), ("y",),
                          init_exprs=(parse_expr(1.0),),
                          delays=(DelaySlot(parse_expr(0.3), parse_expr(1.0)),))


DIFFERENT_STRUCTURE = {     # two models of different generated source, and their configs
    "pow-exponent": ((lambda: _pow_model(2.0), lambda: _pow_model(3.0)),
                     [SimConfig(step=0.05, tf=1.0)] * 2),
    "clamps": ((lambda: _clamped_model(()), lambda: _clamped_model(((0, -0.5, 0.5),))),
               [SimConfig(step=0.1, tf=1.0)] * 2),
    "method": ((_decay_model, _decay_model),
               [SimConfig(step=0.1, tf=1.0), SimConfig(step=0.1, tf=1.0, method="midpoint")]),
    "shared-delay": ((lambda: _slots_model(0.3, 0.3), lambda: _slots_model(0.3, 0.45)),
                     [SimConfig(step=0.05, tf=1.0)] * 2),
    "delay-grouping": ((lambda: _slots_model(0.3, 0.3, 0.45),
                        lambda: _slots_model(0.3, 0.45, 0.45)),
                       [SimConfig(step=0.05, tf=1.0)] * 2),
    "prehistory-shape": ((lambda: _const_delay_model(0.3, "1 + 0.5*t"),
                          lambda: _const_delay_model(0.3, "1 + 0.5*t*t")),
                         [SimConfig(step=0.05, tf=1.0)] * 2),
    "slot-slope-fold": ((lambda: _unfolded_gain_delay_model(1.0),
                         lambda: _unfolded_gain_delay_model(0.7)),
                        [SimConfig(step=0.05, tf=1.0)] * 2),
}


@pytest.mark.parametrize("case", sorted(DIFFERENT_STRUCTURE))
def test_models_of_different_source_get_separate_entries(code_cache, case):
    models, cfgs = DIFFERENT_STRUCTURE[case]
    csvs = [integrate(model(), cfg).to_csv() for model, cfg in zip(models, cfgs)]
    assert code_cache.misses == 2 and len(sim._CODE) == 2
    assert code_cache.sources[0] != code_cache.sources[1]
    assert csvs[0] != csvs[1]
    sim._CODE.clear()
    assert integrate(models[1](), cfgs[1]).to_csv() == csvs[1]


def test_slot_slope_fold_is_the_only_difference():
    one, other = _unfolded_gain_delay_model(1.0), _unfolded_gain_delay_model(0.7)
    assert sim._shape(one.tape) == sim._shape(other.tape)
    assert sim._shape(sim._with_slot_slopes(one)) != sim._shape(sim._with_slot_slopes(other))


def test_code_cache_is_bounded_and_regenerates_bitwise(code_cache):
    cfg = SimConfig(step=0.05, tf=0.5)

    def run(k):                 # structure k: x' = -x ** (1 + k / 8)
        return integrate(_pow_model(1.0 + k / 8), cfg).to_csv()
    firsts = [run(k) for k in range(33)]
    assert code_cache.misses == 33 and len(sim._CODE) == sim._CODE_SIZE == 32
    # the least recently used structure, the first, was evicted; it is generated again
    assert run(0) == firsts[0]
    assert code_cache.misses == 34 and len(sim._CODE) == 32
    assert code_cache.sources[-1] == code_cache.sources[0]
    # a hit keeps structure 2, so structure 33 evicts 3, used longer ago
    run(2)
    run(33)
    assert code_cache.misses == 35
    run(2)
    assert code_cache.misses == 35
    assert run(3) == firsts[3] and code_cache.misses == 36


def test_threads_sharing_the_code_cache_run_their_own_models(monkeypatch):
    # more structures than the cache holds, so threads evict while others bind
    monkeypatch.setattr(sim, "_CODE", {})
    cfg = SimConfig(step=0.05, tf=0.2)
    ks = list(range(40))
    want = {k: integrate(_pow_model(1.0 + k / 8), cfg).to_csv() for k in ks}
    got, errors = {}, []

    def work(first):
        try:
            for k in ks[first:] + ks[:first]:
                got[first, k] = integrate(_pow_model(1.0 + k / 8), cfg).to_csv()
        except Exception as exc:        # reported by the assertion below
            errors.append(exc)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(10 * i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and errors == []
    assert len(got) == 160 and all(csv == want[k] for (_, k), csv in got.items())
    assert len(sim._CODE) <= sim._CODE_SIZE


def test_the_code_cache_retains_no_model(code_cache):
    m = _switched_model()
    integrate(m, SimConfig(step=0.05, tf=1.0))
    gone = weakref.ref(m)
    del m
    gc.collect()
    assert gone() is None and len(sim._CODE) == 1


def test_stage_inputs_the_rhs_does_not_read_are_not_stored(code_cache, monkeypatch):
    # x0' = sqrt(0.5 - t), x1' = 1: the rhs reads the time, no state; the
    # second stage of the step from 0.5 fails, and the interpreter re-runs
    # it at the stage inputs the march did not store
    b = TapeBuilder(3)          # [x0, x1, t]
    x0, x1, tn = b.input(0), b.input(1), b.input(2)
    root = b.apply(SQRT, b.sub(b.const(0.5), tn))
    m = make_ode_model(2, b.build([root, b.const(1.0), x0, x1]), (), {}, ("x0", "x1"),
                       ("y0", "y1"), init_exprs=(parse_expr(0.0), parse_expr(0.0)))
    cfg = SimConfig(step=0.1, tf=1.0)
    before = integrate(m, SimConfig(step=0.1, tf=0.5))
    march = code_cache.sources[0].split("    def march(")[1]
    assert f"_v{x0} = " not in march and f"_v{x1} = " not in march
    assert f"_v{tn} = t + hh" in march
    seen = []
    rerun = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval", lambda t, vals: seen.append(vals) or rerun(t, vals))
    with pytest.raises(EvalDomainError, match="sqrt of negative value") as exc:
        integrate(m, cfg)
    assert exc.value.node_id == root
    t, (s0, s1) = before.times[-1], before.states[-1]
    hh = 0.5 * (min(0.0 + 6 * 0.1, 1.0) - t)
    assert seen == [[s0 + hh * 0.0, s1 + hh * 1.0, t + hh]]


def test_the_march_calls_ev_nowhere(code_cache):
    # the accepted node's rhs, outputs and delay record row are written into
    # the march as well; the bounce's rhs and outputs are all inputs, so its
    # node has no statement to guard
    cfg = SimConfig(step=0.05, tf=1.0)
    for m in (_chain_model(0.8, 0.7, 0.2, 0.5), _dde_model(), _bounce_model()):
        integrate(m, cfg)
    marches = [source.split("    def march(")[1] for source in code_cache.sources]
    assert len(marches) == 3 and not any("ev(" in march for march in marches)
    node = marches[2].split("            y = [")[1]
    assert "try:" not in node.split("            if not tn <= u1:")[0]
    assert "f = [y[1], _v" in node and "out = [y[0], y[1]]" in node


@pytest.mark.parametrize("delay", [False, True])
def test_output_failure_at_an_accepted_node_is_named(code_cache, monkeypatch, delay):
    # x' = -1 from x(0) = 0.25 and y = sqrt(x): no stage reads x, and only
    # the output fails, at the first node past x = 0; the interpreter
    # re-runs the tape at that node's state and time, as ``ev`` at the node
    # did.  With a delay slot carrying x, the node also reads and extends
    # the delay record
    def model(output):
        b = TapeBuilder(4 if delay else 2)      # [x, t(, xdel, xdelslope)]
        x = b.input(0)
        y = b.apply(SQRT, x) if output else x
        slots = dict(delays=(DelaySlot(parse_expr(0.5), parse_expr(0.25)),)) if delay else {}
        outs = [b.const(-1.0), y, *([x] if delay else [])]
        m = make_ode_model(1, b.build(outs), (), {}, ("x",), ("y",),
                           init_exprs=(parse_expr(0.25),), **slots)
        return m, y
    cfg = SimConfig(step=0.1, tf=1.0)
    clean = integrate(model(False)[0], cfg)
    k = int(np.argmax(clean.states[:, 0] < 0.0))
    m, root = model(True)
    seen = []
    rerun = sim.tape_eval
    monkeypatch.setattr(sim, "tape_eval", lambda t, vals: seen.append(vals) or rerun(t, vals))
    with pytest.raises(EvalDomainError, match="sqrt of negative value") as exc:
        integrate(m, cfg)
    assert exc.value.node_id == root
    assert [vals[:2] for vals in seen] == [[clean.states[k, 0], clean.times[k]]]
    # the node extends the delay record; no statement reads a slot input,
    # so only the node's failure runs the lookup at tn, for the values the
    # interpreter re-runs the tape with
    march = code_cache.sources[-1].split("    def march(")[1]
    assert ("_T.append(tn)" in march) == delay and "tau = " not in march
    assert ("except _ARITH_ERRORS:\n                _look(tn, tn)" in march) == delay


def test_special_constants_trajectory_matches_golden_file():
    # written before constants and thresholds were read from a table
    tr = integrate(_special_constants_model(), SimConfig(step=0.25, tf=1.5))
    path = os.path.join(os.path.dirname(__file__), "golden", "special_constants.csv")
    with open(path, encoding="ascii", newline="") as fh:
        assert tr.to_csv() == fh.read()


def test_unknown_parameter_override_is_a_typed_error():
    with pytest.raises(UnknownParameter, match="unknown parameter 'bogus'"):
        integrate(_dde_model(), SimConfig(step=0.1, tf=1.0), theta={"bogus": 1.0})


def _slot_model(slot_of, x0: float):
    """x' = -x(t - 0.5) with prehistory 0, whose one slot carries
    ``slot_of(builder, x)``."""
    b = TapeBuilder(5)          # [x, t, p, xdel, xdelslope]
    x = b.input(0)
    slot = slot_of(b, x)
    return make_ode_model(1, b.build([b.neg(b.input(3)), x, slot]), ("p",), {"p": 0.0},
                          ("x",), ("y",), init_exprs=(parse_expr(x0),),
                          delays=(DelaySlot(parse_expr(0.5), parse_expr(0.0)),))


def test_domain_error_in_a_slot_slope_alone_names_the_node():
    # the slot carries sqrt(x) with x(0) = 0: its value is fine, but the
    # chain rule of its time-slope divides x' by 2 * sqrt(x) = 0
    m = _slot_model(lambda b, x: b.apply(SQRT, x), 0.0)
    with pytest.raises(EvalDomainError) as exc:
        integrate(m, SimConfig(step=0.1, tf=1.0))
    # a node of the appended time tangent, past the model's own nodes
    assert exc.value.node_id >= len(m.tape)


def test_slot_of_a_parameter_power_times_x_has_a_zero_slope_at_p_zero():
    # p ** 0.5 * x at p = 0: p is fixed in time, so the chain rule of the
    # time-slope never reaches p ** -0.5, and the slope is exactly 0
    m = _slot_model(lambda b, x: b.mul(b.apply(Pow(0.5), b.input(2)), x), 1.0)
    assert tape_eval(sim._with_slot_slopes(m), [1.0, 0.0, 0.0, 0.0, 0.0])[-1] == 0.0
    tr = integrate(m, SimConfig(step=0.1, tf=1.0))
    assert tr.output("y").tolist() == [1.0] * len(tr.times)


@pytest.mark.parametrize("bad", [{"tf": math.inf}, {"tf": math.nan}, {"t0": -math.inf},
                                 {"t0": math.nan}])
def test_non_finite_start_or_end_time_is_rejected(bad):
    # only the config is built: an infinite end would march until memory runs out
    with pytest.raises(ValueError, match="finite"):
        SimConfig(**{"step": 0.1, "tf": 1.0, **bad})
