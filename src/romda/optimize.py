"""Bound-constrained limited-memory quasi-Newton minimization.

Projected L-BFGS: the two-loop recursion proposes a direction, iterates are
clipped to the box along an Armijo backtracking search, and components
pressed against an active bound see their gradient projected out. Falls
back to projected steepest descent when the quasi-Newton direction is not
a descent direction.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
LBFGS_MEMORY = 10  # correction pairs


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 1e-8  # projected-gradient infinity norm
    max_iter: int = 500
    f_rel_tol: float = 1e-12  # relative decrease per accepted step


@dataclass
class OptimizeResult:
    x: np.ndarray
    f: float
    grad: np.ndarray
    iterations: int
    converged: bool
    reason: str
    f_trace: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class _Box:
    """Which bounds are finite and the edges within which a point counts as
    pressed against them; built once per descent."""

    has_lower: np.ndarray
    lower_edge: np.ndarray
    has_upper: np.ndarray
    upper_edge: np.ndarray

    @classmethod
    def of(cls, lower: np.ndarray, upper: np.ndarray) -> "_Box":
        span = np.where(np.isfinite(upper - lower), upper - lower, 1.0)
        edge = 1e-12 * np.maximum(span, 1.0)
        return cls(np.isfinite(lower), lower + edge, np.isfinite(upper), upper - edge)

    def project(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Gradient with components into an active bound zeroed out."""
        pg = grad.copy()
        at_lower = self.has_lower & (x <= self.lower_edge)
        at_upper = self.has_upper & (x >= self.upper_edge)
        pg[at_lower] = np.minimum(pg[at_lower], 0.0)
        pg[at_upper] = np.maximum(pg[at_upper], 0.0)
        return pg


def _two_loop(grad: np.ndarray, pairs: deque) -> np.ndarray:
    """L-BFGS two-loop recursion for -H * grad (search direction)."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    s_last, y_last, _ = pairs[-1]
    q *= (s_last @ y_last) / (y_last @ y_last)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def bounded_quasi_newton(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    bounds: np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizeResult:
    """Minimize ``f`` over a box given its gradient.

    ``bounds`` has shape (n, 2); entries may be infinite. Terminates when
    the projected-gradient infinity norm falls below ``config.tol``, the
    relative objective decrease of an accepted step falls below
    ``config.f_rel_tol``, or ``config.max_iter`` is reached. The trace of
    accepted objective values is nonincreasing by construction.
    """
    config = config or OptimizerConfig()
    if config.tol <= 0:
        raise ValueError(f"tol must be positive, got {config.tol}")
    x0 = np.asarray(x0, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (x0.size, 2):
        raise ValueError(f"bounds must have shape ({x0.size}, 2), got {bounds.shape}")
    lower, upper = bounds[:, 0], bounds[:, 1]
    if np.any(x0 < lower - 1e-12) or np.any(x0 > upper + 1e-12):
        raise ValueError("starting point is outside the bounds")

    x = np.clip(x0, lower, upper)
    fx = float(f(x))
    gx = np.asarray(grad(x), dtype=float)
    if not np.isfinite(fx) or not np.all(np.isfinite(gx)):
        raise ValueError("objective or gradient is not finite at the starting point")

    box = _Box.of(lower, upper)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    f_trace = [fx]
    pg = box.project(x, gx)  # at the current point, reused until it moves
    grad_norms = [float(np.max(np.abs(pg)))]
    converged = False
    reason = "max_iter"
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        if grad_norms[-1] <= config.tol:
            converged, reason = True, "projected_gradient"
            iterations -= 1
            break

        direction = _two_loop(gx, pairs) if pairs else -gx
        if not np.all(np.isfinite(direction)) or float(direction @ gx) >= 0.0:
            direction = -pg

        accepted = False
        for trial_direction in (direction, -pg):
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                x_new = np.clip(x + step * trial_direction, lower, upper)
                move = x_new - x
                if not np.any(move):
                    break  # fully blocked by the bounds
                predicted = float(gx @ move)
                if predicted >= 0.0:
                    step *= 0.5
                    continue
                f_new = float(f(x_new))
                if np.isfinite(f_new) and f_new <= fx + ARMIJO_C1 * predicted:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                break
            if trial_direction is direction and np.array_equal(direction, -pg):
                break  # already tried the fallback
        if not accepted:
            converged, reason = False, "line_search_failure"
            break

        g_new = np.asarray(grad(x_new), dtype=float)
        s = x_new - x
        y = g_new - gx
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
        else:
            # Negative/zero curvature along the step: the stored model is
            # stale and Armijo-only searches can loop on it. Restart.
            pairs.clear()

        decrease = fx - f_new
        x, fx, gx = x_new, f_new, g_new
        f_trace.append(fx)
        pg = box.project(x, gx)
        grad_norms.append(float(np.max(np.abs(pg))))
        if decrease <= config.f_rel_tol * max(abs(fx), 1.0):
            converged, reason = True, "f_decrease"
            break

    return OptimizeResult(
        x=x,
        f=fx,
        grad=gx,
        iterations=iterations,
        converged=converged,
        reason=reason,
        f_trace=f_trace,
        grad_norms=grad_norms,
    )
