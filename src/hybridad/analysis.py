"""Cross-validation and structural analysis.

Every derivative this package produces can be checked against the
finite-difference oracle here; the oracle stays deliberately independent
of the tape/diagram machinery (plain repeated evaluation).  The module
also hosts the numeric identifiability/observability test and the
iterated-sequence precision probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch
from .jet import jet_derivative, jet_scale, jet_var
from .sim import OdeModel, SimConfig, integrate, sensitivity_extend


@dataclass(frozen=True)
class FdScheme:
    kind: str = "central"            # forward | central
    eps_rel: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("forward", "central"):
            raise ValueError(f"unknown scheme {self.kind!r}")
        if not self.eps_rel > 0.0:
            raise ValueError("eps_rel must be positive")

    def step(self, x: float) -> float:
        return self.eps_rel * max(1.0, abs(x))


def finite_difference(f, x, scheme: FdScheme = FdScheme()) -> np.ndarray:
    """Jacobian of a vector callable by one-sided or central differences."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        h = scheme.step(x[j])
        xp = x.copy()
        xp[j] += h
        fp = np.atleast_1d(np.asarray(f(xp), dtype=float))
        if scheme.kind == "forward":
            J[:, j] = (fp - f0) / h
        else:
            xm = x.copy()
            xm[j] -= h
            fm = np.atleast_1d(np.asarray(f(xm), dtype=float))
            J[:, j] = (fp - fm) / (2.0 * h)
    return J


@dataclass(frozen=True)
class CompareReport:
    max_abs: float
    max_abs_at: tuple[int, int]
    max_rel: float
    max_rel_at: tuple[int, int]
    tol: float
    passed: bool

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: max abs {self.max_abs:.3e} at {self.max_abs_at}, "
                f"max rel {self.max_rel:.3e} at {self.max_rel_at} (tol {self.tol:g})")

    def to_json(self) -> str:
        return json.dumps({
            "max_abs": self.max_abs, "max_abs_at": list(self.max_abs_at),
            "max_rel": self.max_rel, "max_rel_at": list(self.max_rel_at),
            "tol": self.tol, "passed": self.passed})


def compare_report(ad, fd, tol: float = 1e-6) -> CompareReport:
    """Elementwise discrepancy between two derivative matrices.

    Absolute discrepancies are symmetric under swapping the arguments;
    relative ones are scaled by max(1, |ad|, |fd|) so they are too.
    """
    ad = np.atleast_2d(np.asarray(ad, dtype=float))
    fd = np.atleast_2d(np.asarray(fd, dtype=float))
    if ad.shape != fd.shape:
        raise ShapeMismatch(f"shapes {ad.shape} and {fd.shape} differ")
    diff = np.abs(ad - fd)
    scale = np.maximum(1.0, np.maximum(np.abs(ad), np.abs(fd)))
    rel = diff / scale
    ia = np.unravel_index(int(np.argmax(diff)), diff.shape)
    ir = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return CompareReport(float(diff[ia]), (int(ia[0]), int(ia[1])),
                         float(rel[ir]), (int(ir[0]), int(ir[1])),
                         tol, bool(np.max(rel) <= tol))


# ---------------------------------------------------------------------------
# identifiability / observability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentifiabilityReport:
    matrix: np.ndarray
    times: tuple[float, ...]
    column_labels: tuple[str, ...]
    determinant: float | None
    sigma_min: float
    sigma_ratio: float
    verdict: str                     # "identifiable+observable" | "inconclusive"

    def __str__(self) -> str:
        det = "n/a" if self.determinant is None else f"{self.determinant:.6e}"
        return (f"{self.verdict} (sigma_min {self.sigma_min:.3e}, "
                f"normalized {self.sigma_ratio:.3e}, det {det}, "
                f"times {list(self.times)})")

    def to_json(self) -> str:
        return json.dumps({
            "verdict": self.verdict, "sigma_min": self.sigma_min,
            "sigma_ratio": self.sigma_ratio, "determinant": self.determinant,
            "times": list(self.times), "columns": list(self.column_labels),
            "matrix": self.matrix.tolist()})


_SIGMA_THRESHOLD = 1e-8


def identifiability_test(m: OdeModel, times=None, config: SimConfig = None,
                         ic_params=None, theta_params=None) -> IdentifiabilityReport:
    """Sensitivity-matrix test for local observability and identifiability.

    Builds the matrix of output sensitivities with respect to initial
    conditions (``ic_params``) and parameters (``theta_params``), rows
    stacked outputs-within-sample-time, and declares
    "identifiable+observable" when the scale-normalized smallest singular
    value clears a threshold.  A small value never *proves* a vanishing
    determinant (the sample times could be unlucky), so the negative
    verdict is only ever "inconclusive".

    ``times=None`` picks just enough equispaced samples on (0, tf] to
    make the matrix square; pass explicit times when those happen to be
    unlucky (near roots of the determinant).

    Each row reads the node nearest its sample time, so the run stops two
    steps past the last sample, or at ``config.tf`` if that comes first:
    the nodes up to there, and so the matrix, are those of the run to
    ``config.tf`` bit for bit.  A model that fails only after that end
    returns a report.
    """
    if config is None:
        raise ValueError("a SimConfig is required")
    if ic_params is None:
        ic_params = []
    if theta_params is None:
        theta_params = [p for p in m.param_names if p not in set(ic_params)]
    columns = list(ic_params) + list(theta_params)
    if not columns:
        raise ShapeMismatch("no parameters to test")
    q = len(m.output_names)
    if times is None:
        count = max(1, -(-len(columns) // max(q, 1)))
        times = [config.tf * (i + 1) / count for i in range(count)]
    times = [float(t) for t in times]
    if not times:
        raise ShapeMismatch("need at least one sample time")

    M = np.empty((len(times) * q, len(columns)))
    # the nodes nearest the samples are those of the run to tf; none past the end is read
    end = min(config.tf, max(times) + 2 * config.step)
    tr = integrate(sensitivity_extend(m, columns), replace(config, tf=end))
    for it, tq in enumerate(times):
        idx = int(np.argmin(np.abs(tr.times - tq)))
        M[it * q:(it + 1) * q] = tr.outputs[idx, q:].reshape(len(columns), q).T

    sv = np.linalg.svd(M, compute_uv=False)
    sigma_min = float(sv[-1]) if sv.size else 0.0
    norm = float(sv[0]) if sv.size else 0.0
    ratio = sigma_min / norm if norm > 0 else 0.0
    det = float(np.linalg.det(M)) if M.shape[0] == M.shape[1] else None
    verdict = "identifiable+observable" if ratio > _SIGMA_THRESHOLD else "inconclusive"
    return IdentifiabilityReport(M, tuple(times), tuple(columns), det,
                                 sigma_min, ratio, verdict)


# ---------------------------------------------------------------------------
# iterated-sequence precision probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceProbe:
    value: tuple[float, int]
    ad_derivative: float
    ad_exact: bool
    fd: dict                        # eps -> derivative estimate (doubles)
    fd_float32: dict                # eps -> estimate through float32 values

    def __str__(self) -> str:
        lines = [
            f"f^21(0, -10) = {self.value}",
            f"dual-propagation derivative = {self.ad_derivative!r} "
            f"(exactly 1.0: {self.ad_exact})",
        ]
        for eps, v in self.fd.items():
            lines.append(f"forward FD (double), eps={eps:g}: {v!r}")
        for eps, v in self.fd_float32.items():
            lines.append(f"forward FD (float32 arithmetic), eps={eps:g}: {v!r}")
        return "\n".join(lines)


def _sequence_map(x, n):
    return 10.0 ** n * x, n + 1


def _sequence_value(x0: float, n0: int, steps: int = 21) -> tuple[float, int]:
    x, n = float(x0), int(n0)
    for _ in range(steps):
        x, n = _sequence_map(x, n)
    return x, n


def _sequence_value_f32(x0, n0, steps=21):
    x = np.float32(x0)
    n = int(n0)
    for _ in range(steps):
        x = np.float32(np.float32(10.0 ** n) * x)
        n += 1
    return float(x), n


def sequence_probe() -> SequenceProbe:
    """Derivative of the 21-fold iterate of (x, n) -> (10^n x, n+1).

    The dual derivative propagates a first-order jet in x through the 21
    steps, multiplying by the factors 10^n for n = -10..10, and lands
    within a couple of ulps of the exact value 1 (1 + 2^-52: the negative
    powers of ten are not binary fractions, and even correctly rounding
    every step gives this).  The finite difference is benign in doubles
    (the smallest intermediate, 1e-8 * 1e-55, stays in range) but reads
    zero once the arithmetic narrows to float32, where the mid-iteration
    magnitudes fall below the smallest subnormal (~1.4e-45).  That
    collapse is a range effect, not a failure of finite differences
    alone: a dual propagated in float32 underflows to zero as well.
    """
    v = _sequence_value(0.0, -10)
    dual = jet_var(0.0, 1)
    for n in range(-10, 11):
        dual = jet_scale(10.0 ** n, dual)
    d = jet_derivative(dual, 1)
    fd = {}
    for eps in (1e-8, 1e-6):
        fd[eps] = (_sequence_value(eps, -10)[0] - v[0]) / eps
    fd32 = {}
    for eps in (1e-8, 1e-6):
        fd32[eps] = (_sequence_value_f32(eps, -10)[0] - _sequence_value_f32(0.0, -10)[0]) / eps
    return SequenceProbe(v, d, d == 1.0, fd, fd32)
