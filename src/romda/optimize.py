"""Bound-constrained limited-memory quasi-Newton minimization.

Projected L-BFGS: the two-loop recursion proposes a direction, iterates are
clipped to the box along an Armijo backtracking search, and components
pressed against an active bound see their gradient projected out. Falls
back to projected steepest descent when the quasi-Newton direction is not
a descent direction.

The iteration's own vector work (the two-loop recursion, the clipped trial
point, the Armijo test, the curvature pair and the projected gradient) runs
on lists of Python floats: the solvers' parameter vectors have a handful of
entries, where a numpy call costs more than its arithmetic. ``f`` and
``grad`` still receive numpy arrays.
"""
from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 60
LBFGS_MEMORY = 10  # correction pairs


@dataclass(frozen=True)
class OptimizerConfig:
    """Stopping rules of :func:`bounded_quasi_newton`. ``tol`` must be
    positive. ``f_rel_tol`` must be nonnegative; 0 turns the decrease stop
    off, so a descent ends only on ``tol``, a failed line search or
    ``max_iter``."""

    tol: float = 1e-8  # projected-gradient infinity norm
    max_iter: int = 500
    f_rel_tol: float = 1e-12  # relative decrease per accepted step


@dataclass
class OptimizeResult:
    x: np.ndarray
    f: float
    iterations: int
    converged: bool
    reason: str
    f_trace: list[float] = field(default_factory=list)


def _dot(u: list[float], v: list[float]) -> float:
    return sum(map(operator.mul, u, v))


def _two_loop(grad: list[float], pairs: deque) -> list[float]:
    """L-BFGS two-loop recursion for -H * grad (search direction); each
    pair holds (s, y, 1 / s.y, s.y / y.y)."""
    q = grad
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * _dot(s, q)
        alphas.append(a)
        q = [qi - a * yi for qi, yi in zip(q, y)]
    scale = pairs[-1][3]
    q = [scale * qi for qi in q]
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        b = a - rho * _dot(y, q)
        q = [qi + b * si for qi, si in zip(q, s)]
    return [-qi for qi in q]


def _edges(low: list[float], high: list[float]) -> tuple[list[float], list[float]]:
    """Per coordinate, the values at or beyond which a point is pressed
    against its lower and its upper bound: 1e-12 max(span, 1) inside a
    finite bound. An infinite bound is its own edge, which no finite point
    reaches."""
    gaps = [1e-12 * max(h - l, 1.0) if math.isfinite(h - l) else 1e-12 for l, h in zip(low, high)]
    return [l + e for l, e in zip(low, gaps)], [h - e for h, e in zip(high, gaps)]


def _project(x: list[float], grad: list[float], edges: tuple[list[float], list[float]]) -> list[float]:
    """Gradient with components into an active bound zeroed out."""
    low_edge, high_edge = edges
    pg = [min(g, 0.0) if xi <= edge else g for xi, g, edge in zip(x, grad, low_edge)]
    return [max(g, 0.0) if xi >= edge else g for xi, g, edge in zip(x, pg, high_edge)]


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
    ``config.f_rel_tol`` (never, at 0), or ``config.max_iter`` is reached.
    The trace of accepted objective values is nonincreasing by construction.
    """
    config = config or OptimizerConfig()
    if config.tol <= 0:
        raise ValueError(f"tol must be positive, got {config.tol}")
    if config.f_rel_tol < 0:
        raise ValueError(f"f_rel_tol must be nonnegative, got {config.f_rel_tol}")
    x0 = np.asarray(x0, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (x0.size, 2):
        raise ValueError(f"bounds must have shape ({x0.size}, 2), got {bounds.shape}")
    lower, upper = bounds[:, 0], bounds[:, 1]
    if np.any(x0 < lower - 1e-12) or np.any(x0 > upper + 1e-12):
        raise ValueError("starting point is outside the bounds")

    x_arr = np.clip(x0, lower, upper)
    fx = float(f(x_arr))
    g_arr = np.asarray(grad(x_arr), dtype=float)
    if not np.isfinite(fx) or not np.all(np.isfinite(g_arr)):
        raise ValueError("objective or gradient is not finite at the starting point")

    x, gx = x_arr.tolist(), g_arr.tolist()
    low, high = lower.tolist(), upper.tolist()
    edges = _edges(low, high)
    pairs: deque = deque(maxlen=LBFGS_MEMORY)
    f_trace = [fx]
    pg = _project(x, gx, edges)  # at the current point, reused until it moves
    pg_norm = max(map(abs, pg))
    converged = False
    reason = "max_iter"
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        if pg_norm <= config.tol:
            converged, reason = True, "projected_gradient"
            iterations -= 1
            break

        steepest = [-gi for gi in pg]
        direction = _two_loop(gx, pairs) if pairs else [-gi for gi in gx]
        if not all(map(math.isfinite, direction)) or _dot(direction, gx) >= 0.0:
            direction = steepest

        accepted = False
        for trial_direction in (direction, steepest):
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                x_new = [
                    min(max(xi + step * di, l), h)
                    for xi, di, l, h in zip(x, trial_direction, low, high)
                ]
                move = [xn - xi for xn, xi in zip(x_new, x)]
                if not any(move):
                    break  # fully blocked by the bounds
                predicted = _dot(gx, move)
                if predicted >= 0.0:
                    step *= 0.5
                    continue
                trial = np.array(x_new)
                f_new = float(f(trial))
                if math.isfinite(f_new) and f_new <= fx + ARMIJO_C1 * predicted:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                break
            if trial_direction is direction and direction == steepest:
                break  # already tried the fallback
        if not accepted:
            converged, reason = False, "line_search_failure"
            break

        x_arr = trial
        g_new = np.asarray(grad(x_arr), dtype=float).tolist()
        y = [gn - gi for gn, gi in zip(g_new, gx)]
        sy = _dot(move, y)
        yy = _dot(y, y)
        if sy > 1e-10 * math.sqrt(_dot(move, move)) * math.sqrt(yy):
            pairs.append((move, y, 1.0 / sy, sy / yy))
        else:
            # Negative/zero curvature along the step: the stored model is
            # stale and Armijo-only searches can loop on it. Restart.
            pairs.clear()

        decrease = fx - f_new
        x, fx, gx = x_new, f_new, g_new
        f_trace.append(fx)
        pg = _project(x, gx, edges)
        pg_norm = max(map(abs, pg))
        if config.f_rel_tol and decrease <= config.f_rel_tol * max(abs(fx), 1.0):
            converged, reason = True, "f_decrease"
            break

    return OptimizeResult(
        x=x_arr,
        f=fx,
        iterations=iterations,
        converged=converged,
        reason=reason,
        f_trace=f_trace,
    )
