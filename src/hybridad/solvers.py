"""Newton solvers and differentiation of implicitly defined functions.

An implicit system is a square residual P(x, theta) = 0 on a tape.
The derivative of a regular root never needs the iteration history:
dx/dtheta = -J_P^{-1} dP/dtheta evaluated at the root (the sign belongs
in the formula; a solver that differentiates the printed form without it
gets the direction of every sensitivity wrong).

``newton_jet`` runs Newton in truncated-series arithmetic, so one solve
yields Taylor coefficients of the root with respect to the parameter;
each iteration doubles the number of exact coefficients once the
constant term has converged, hence the deterministic
ceil(log2(order+1)) extra-iteration margin.

``warm_start_probe`` reproduces the classic failure of differentiating
*through* an iterative solver that reuses the previous solution: with a
loose tolerance the output is piecewise constant in the parameter and
its finite difference is exactly zero almost everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, SingularJacobian
from .jet import Jet, jet_const, jet_div, jet_sub, jet_var
from .tape import Tape, hessian, reverse_gradient, tape_eval

_REL_FLOOR = 1e-300   # keeps the relative-step metric finite near zero roots


@dataclass(frozen=True)
class ImplicitSystem:
    """Square residual P(x, theta) on a tape with inputs [x..., theta...]."""

    tape: Tape
    n_x: int
    n_theta: int

    def __post_init__(self):
        if self.tape.num_inputs != self.n_x + self.n_theta:
            raise ValueError("tape inputs must be [x..., theta...]")
        if len(self.tape.outputs) != self.n_x:
            raise ValueError("system must be square in x")

    def residual(self, x, theta) -> np.ndarray:
        return np.asarray(tape_eval(self.tape, list(x) + list(theta)))

    def jacobians(self, x, theta):
        """(dP/dx, dP/dtheta) via one reverse sweep per residual row."""
        rows = [reverse_gradient(self.tape, list(x) + list(theta), i)
                for i in range(self.n_x)]
        J = np.array(rows)
        return J[:, :self.n_x], J[:, self.n_x:]


@dataclass(frozen=True)
class NewtonResult:
    root: np.ndarray
    iterations: int
    residual_norm: float


def newton(s: ImplicitSystem, x0, theta, tol: float = 1e-12,
           max_iter: int = 50) -> NewtonResult:
    """Dense-LU Newton iteration.

    The proposed step is checked *before* it is applied: the solve exits
    as soon as the relative proposal drops to ``tol``, mirroring how
    fixed-tolerance production loops behave (and what makes
    differentiating through them hazardous, see ``warm_start_probe``).

    A singular Jacobian at the starting point raises SingularJacobian;
    hitting one mid-flight counts as failure to converge and raises
    MaxIterExceeded with the best iterate seen.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.asarray(x0, dtype=float).copy()
    theta = np.asarray(theta, dtype=float)
    best = x.copy()
    best_norm = math.inf
    for it in range(max_iter + 1):
        r = s.residual(x, theta)
        rn = float(np.linalg.norm(r))
        if rn < best_norm:
            best, best_norm = x.copy(), rn
        J, _ = s.jacobians(x, theta)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            if it == 0:
                raise SingularJacobian(f"at starting point {x.tolist()}: {exc}") from exc
            raise MaxIterExceeded(best, best_norm, it) from exc
        rel = float(np.max(np.abs(step) / np.maximum(np.abs(x), _REL_FLOOR)))
        if rel <= tol:
            return NewtonResult(x, it, rn)
        x = x + step
    raise MaxIterExceeded(best, best_norm, max_iter)


def implicit_sensitivity(s: ImplicitSystem, root, theta) -> np.ndarray:
    """dx/dtheta at a regular root: solve J_P dx = -dP/dtheta columnwise."""
    J, Jt = s.jacobians(root, theta)
    try:
        return np.linalg.solve(J, -Jt)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"at root {np.asarray(root).tolist()}: {exc}") from exc


def implicit_second_derivative(s: ImplicitSystem, root, theta) -> float:
    """d^2x/dtheta^2 for a scalar system (nested implicit differentiation).

    Differentiating J_P x' + P_theta = 0 once more gives
    x'' = -(P_xx x'^2 + 2 P_xtheta x' + P_thetatheta) / P_x.
    """
    if s.n_x != 1 or s.n_theta != 1:
        raise ValueError("second derivative helper is scalar-only")
    x = [float(np.asarray(root).reshape(-1)[0]), float(np.asarray(theta).reshape(-1)[0])]
    J, Jt = s.jacobians(x[:1], x[1:])
    px = J[0, 0]
    if px == 0.0:
        raise SingularJacobian("P_x vanishes at the root")
    xp = -Jt[0, 0] / px
    H = hessian(s.tape, x, 0)
    num = H[0, 0] * xp * xp + 2.0 * H[0, 1] * xp + H[1, 1]
    return -num / px


def newton_jet(s: ImplicitSystem, theta_value: float, x0: float, tol: float = 1e-12,
               order: int = 8, max_iter: int = 60,
               iterations: int | None = None) -> Jet:
    """Newton iteration on truncated series: root as a jet in theta.

    The convergence test applies to the constant term only; unless an
    explicit ``iterations`` count is forced, ceil(log2(order+1)) extra
    iterations are appended afterwards so coefficients up to ``order``
    are exact (series Newton doubles the correct prefix per sweep).
    """
    if s.n_x != 1 or s.n_theta != 1:
        raise ValueError("newton_jet is scalar-only")
    if order < 1:
        raise ValueError("order must be >= 1")
    th = jet_var(theta_value, order)
    x = jet_const(float(x0), order)

    def step(xj: Jet) -> Jet:
        r = _jet_residual(s, xj, th)
        jp = _jet_residual_dx(s, xj, th)
        return jet_sub(xj, jet_div(r, jp))

    if iterations is not None:
        for _ in range(iterations):
            x = step(x)
        return x

    it = 0
    while True:
        xn = step(x)
        it += 1
        rel = abs(xn.coeffs[0] - x.coeffs[0]) / max(abs(xn.coeffs[0]), _REL_FLOOR)
        x = xn
        if rel <= tol:
            break
        if it >= max_iter:
            raise MaxIterExceeded(x, rel, it)
    for _ in range(math.ceil(math.log2(order + 1))):
        x = step(x)
    return x


def _jet_residual(s: ImplicitSystem, x: Jet, th: Jet) -> Jet:
    from .tape import tape_jet_eval
    return tape_jet_eval(s.tape, [x, th])[0]


def _jet_residual_dx(s: ImplicitSystem, x: Jet, th: Jet) -> Jet:
    # dP/dx as a jet: propagate the tangent (1, 0) through with x seeded
    from .tape import jvp_tape, tape_jet_eval
    jt = jvp_tape(s.tape)
    one = jet_const(1.0, x.order)
    zero = jet_const(0.0, x.order)
    return tape_jet_eval(jt, [x, th, one, zero])[1]


@dataclass(frozen=True)
class WarmStartReport:
    theta_grid: tuple[float, ...]
    roots: tuple[float, ...]
    constant_fraction: float     # grid points whose output equals the previous one
    tol: float


def warm_start_probe(s: ImplicitSystem, theta_grid, tol: float) -> WarmStartReport:
    """Warm-started Newton across a parameter grid.

    Each solve (``newton``) starts from the previous root and stops as
    soon as the proposed relative step is within ``tol`` -- with a loose
    tolerance the first proposal is usually already "good enough", the
    output repeats the previous value exactly, and the finite-difference
    derivative is exactly zero: the hazard this probe quantifies.
    """
    if s.n_x != 1 or s.n_theta != 1:
        raise ValueError("warm_start_probe is scalar-only")
    grid = [float(v) for v in theta_grid]
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("theta_grid must be sorted ascending")
    roots = []
    x = 1.0
    for th in grid:
        x = float(newton(s, [x], [th], tol).root[0])
        roots.append(x)
    same = sum(1 for a, b in zip(roots, roots[1:]) if a == b)
    frac = same / (len(roots) - 1) if len(roots) > 1 else 0.0
    return WarmStartReport(tuple(grid), tuple(roots), frac, tol)
