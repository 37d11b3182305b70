from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from romda.optimize import (
    ARMIJO_C1,
    LBFGS_MEMORY,
    MAX_BACKTRACKS,
    OptimizerConfig,
    _edges,
    _project,
    bounded_quasi_newton,
)


def box(*pairs):
    return np.array(pairs, dtype=float)


def quadratic(center):
    center = np.asarray(center, dtype=float)
    f = lambda x: float(np.sum((x - center) ** 2))
    g = lambda x: 2.0 * (x - center)
    return f, g


def test_interior_quadratic_minimum() -> None:
    f, g = quadratic([0.3, -0.2, 1.0])
    res = bounded_quasi_newton(f, g, np.zeros(3), box((-2, 2), (-2, 2), (-2, 2)))
    assert res.converged
    assert np.allclose(res.x, [0.3, -0.2, 1.0], atol=1e-8)


def test_exterior_quadratic_projects_onto_box() -> None:
    f, g = quadratic([5.0, -4.0])
    res = bounded_quasi_newton(f, g, np.zeros(2), box((-1, 2), (-3, 1)))
    assert res.converged
    assert np.allclose(res.x, [2.0, -3.0], atol=1e-10)


def test_rosenbrock_in_box() -> None:
    def f(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def g(x):
        return np.array(
            [
                -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )

    res = bounded_quasi_newton(f, g, np.array([-1.2, 1.0]), box((-2, 2), (-2, 2)))
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_trace_is_nonincreasing() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    h = a.T @ a + 0.1 * np.eye(4)
    b = rng.standard_normal(4)
    f = lambda x: float(0.5 * x @ h @ x - b @ x + np.sum(np.sin(x) ** 2))
    g = lambda x: h @ x - b + np.sin(2.0 * x)
    res = bounded_quasi_newton(f, g, np.zeros(4), box(*[(-5, 5)] * 4))
    diffs = np.diff(res.f_trace)
    assert np.all(diffs <= 1e-15)
    assert len(res.f_trace) - 1 == res.iterations - (res.reason == "line_search_failure")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
def test_trace_is_monotone_and_iterates_stay_in_bounds(seed, dim) -> None:
    # A nonconvex objective whose unconstrained minimum may lie outside a
    # random box, some of whose sides are infinite.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim + 2, dim))
    h = a.T @ a + 0.1 * np.eye(dim)
    b = 3.0 * rng.standard_normal(dim)
    lower = rng.uniform(-2.0, 0.0, dim)
    upper = rng.uniform(0.1, 2.0, dim)
    lower[rng.random(dim) < 0.2] = -np.inf
    upper[rng.random(dim) < 0.2] = np.inf
    evaluated = []

    def f(x):
        evaluated.append(x.copy())
        return float(0.5 * x @ h @ x - b @ x + np.sum(np.sin(x) ** 2))

    def g(x):
        evaluated.append(x.copy())
        return h @ x - b + np.sin(2.0 * x)

    x0 = np.clip(rng.uniform(-1.0, 1.0, dim), lower, upper)
    res = bounded_quasi_newton(f, g, x0, np.column_stack([lower, upper]))
    assert np.all(np.diff(res.f_trace) <= 1e-15)
    assert res.f_trace[-1] == res.f
    assert len(res.f_trace) - 1 == res.iterations - (res.reason == "line_search_failure")
    points = np.array(evaluated + [res.x])
    assert np.all(points >= lower) and np.all(points <= upper)


def test_starts_at_bound_with_outward_gradient() -> None:
    # Minimum outside the box in every coordinate; start on the boundary.
    f, g = quadratic([10.0])
    res = bounded_quasi_newton(f, g, np.array([1.0]), box((0.0, 1.0)))
    assert res.converged
    assert res.x[0] == 1.0
    assert res.iterations == 0


def test_rejects_bad_start() -> None:
    f, g = quadratic([0.0])
    with pytest.raises(ValueError, match="outside the bounds"):
        bounded_quasi_newton(f, g, np.array([3.0]), box((0.0, 1.0)))
    nan_f = lambda x: float("nan")
    with pytest.raises(ValueError, match="not finite"):
        bounded_quasi_newton(nan_f, g, np.array([0.5]), box((0.0, 1.0)))
    with pytest.raises(ValueError, match="tol"):
        bounded_quasi_newton(f, g, np.array([0.5]), box((0.0, 1.0)), OptimizerConfig(tol=0.0))


def test_f_rel_tol_zero_turns_the_decrease_stop_off() -> None:
    f, g = quadratic([0.0])
    with pytest.raises(ValueError, match="f_rel_tol must be nonnegative, got -1e-12"):
        bounded_quasi_newton(f, g, np.array([0.5]), box((0.0, 1.0)), OptimizerConfig(f_rel_tol=-1e-12))
    # A cost so large that the first step's decrease rounds to 0, which
    # Armijo accepts: the default run stops on it; without the decrease
    # stop the run goes on to the projected-gradient test, met at the lower
    # bound.
    flat, slope = lambda x: 1e20, lambda x: np.array([1.0])
    start, bounds = np.array([0.5]), box((0.0, 1.0))
    assert bounded_quasi_newton(flat, slope, start, bounds).reason == "f_decrease"
    res = bounded_quasi_newton(flat, slope, start, bounds, OptimizerConfig(f_rel_tol=0.0))
    assert (res.reason, res.x[0]) == ("projected_gradient", 0.0)


def test_max_iter_reported() -> None:
    f, g = quadratic([0.9] * 5)
    res = bounded_quasi_newton(
        f, g, np.zeros(5), box(*[(-1, 1)] * 5), OptimizerConfig(max_iter=1)
    )
    assert res.iterations == 1
    assert res.reason in ("max_iter", "f_decrease", "projected_gradient")


def test_projected_gradient_masks_active_bounds() -> None:
    edges = _edges([0.0, -np.inf], [1.0, np.inf])
    assert _project([0.0, 0.0], [2.0, 2.0], edges) == [0.0, 2.0]
    assert _project([1.0, 0.0], [-2.0, -2.0], edges) == [0.0, -2.0]
    # Within 1e-12 of a bound counts as on it; further inside does not.
    assert _project([1e-13, 1.0 - 1e-13], [2.0, 2.0], _edges([0.0, 0.0], [1.0, 1.0])) == [0.0, 2.0]
    assert _project([1e-11, 1.0 - 1e-13], [2.0, -2.0], _edges([0.0, 0.0], [1.0, 1.0])) == [2.0, 0.0]


def test_unbounded_problem_allows_infinite_box() -> None:
    f, g = quadratic([4.0, -7.0])
    infinite = box((-np.inf, np.inf), (-np.inf, np.inf))
    res = bounded_quasi_newton(f, g, np.zeros(2), infinite)
    assert res.converged
    assert np.allclose(res.x, [4.0, -7.0], atol=1e-8)


# The descent with its vector work in numpy, as it was written before the
# float-level loop: the reference for the decisions of bounded_quasi_newton.


# Relative margin within which a decision counts as made by roundoff.
ROUNDOFF = 1e-11


class NumpyBox:
    def __init__(self, lower, upper):
        span = np.where(np.isfinite(upper - lower), upper - lower, 1.0)
        edge = 1e-12 * np.maximum(span, 1.0)
        self.has_lower, self.lower_edge = np.isfinite(lower), lower + edge
        self.has_upper, self.upper_edge = np.isfinite(upper), upper - edge

    def project(self, x, grad):
        pg = grad.copy()
        at_lower = self.has_lower & (x <= self.lower_edge)
        at_upper = self.has_upper & (x >= self.upper_edge)
        pg[at_lower] = np.minimum(pg[at_lower], 0.0)
        pg[at_upper] = np.maximum(pg[at_upper], 0.0)
        return pg


def numpy_two_loop(grad, pairs):
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


def numpy_quasi_newton(f, grad, x0, bounds, config=OptimizerConfig()):
    """(x, f, iterations, reason, evaluations, close) of the numpy descent;
    ``close`` is whether some decision fell within roundoff of its threshold
    (a relative margin under ROUNDOFF), where another summation order of the
    same dot products may decide it the other way."""
    lower, upper = bounds[:, 0], bounds[:, 1]
    calls, close = 0, False

    def counted(fn, x):
        nonlocal calls
        calls += 1
        return fn(x)

    def decide(value, threshold, scale):
        nonlocal close
        close = close or abs(value - threshold) <= ROUNDOFF * scale
        return value

    x = np.clip(x0, lower, upper)
    fx, gx = float(counted(f, x)), np.asarray(counted(grad, x), dtype=float)
    box = NumpyBox(lower, upper)
    pairs = deque(maxlen=LBFGS_MEMORY)
    pg = box.project(x, gx)
    grad_norm = float(np.max(np.abs(pg)))
    reason, iterations = "max_iter", 0
    for iterations in range(1, config.max_iter + 1):
        if decide(grad_norm, config.tol, config.tol) <= config.tol:
            reason, iterations = "projected_gradient", iterations - 1
            break
        direction = numpy_two_loop(gx, pairs) if pairs else -gx
        # A component cancelled to roundoff decides whether a clipped move
        # is zero.
        close = close or np.min(np.abs(direction)) <= ROUNDOFF * np.max(np.abs(direction))
        slope = float(direction @ gx)
        if not np.all(np.isfinite(direction)) or decide(
            slope, 0.0, np.linalg.norm(direction) * np.linalg.norm(gx)
        ) >= 0.0:
            direction = -pg
        accepted = False
        for trial_direction in (direction, -pg):
            step = 1.0
            for _ in range(MAX_BACKTRACKS):
                x_new = np.clip(x + step * trial_direction, lower, upper)
                move = x_new - x
                if not np.any(move):
                    break
                predicted = decide(float(gx @ move), 0.0, np.linalg.norm(gx) * np.linalg.norm(move))
                if predicted >= 0.0:
                    step *= 0.5
                    continue
                f_new = float(counted(f, x_new))
                armijo = fx + ARMIJO_C1 * predicted
                if np.isfinite(f_new) and decide(f_new, armijo, max(abs(fx), 1.0)) <= armijo:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                break
            if trial_direction is direction and np.array_equal(direction, -pg):
                break
        if not accepted:
            reason = "line_search_failure"
            break
        g_new = np.asarray(counted(grad, x_new), dtype=float)
        s, y = x_new - x, g_new - gx
        sy = float(s @ y)
        curvature = 1e-10 * np.linalg.norm(s) * np.linalg.norm(y)
        if decide(sy, curvature, np.linalg.norm(s) * np.linalg.norm(y)) > curvature:
            pairs.append((s, y, 1.0 / sy))
        else:
            pairs.clear()
        decrease = fx - f_new
        x, fx, gx = x_new, f_new, g_new
        pg = box.project(x, gx)
        grad_norm = float(np.max(np.abs(pg)))
        stall = config.f_rel_tol * max(abs(fx), 1.0)
        if config.f_rel_tol and decide(decrease, stall, max(abs(fx), 1.0)) <= stall:
            reason = "f_decrease"
            break
    return x, fx, iterations, reason, calls, close


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
def test_float_iteration_makes_the_numpy_iterations_decisions(seed, dim) -> None:
    # Strictly convex quadratics on random boxes, some sides infinite, some
    # starts on a face: the same evaluations, iterations and stop, and the
    # same x up to the roundoff of dot products summed in another order
    # (numpy's dot fuses each product into its sum; the float loop rounds
    # it first). A decision within roundoff of its threshold may go either
    # way, so a descent that makes one is not compared: at the default
    # tolerances most descents end on a step whose decrease is roundoff
    # (seed=856, dim=3 of the test above: the float loop accepts such a
    # step after 41 evaluations, the numpy loop rejects it and stops after
    # 42), hence the projected-gradient stop at 1e-5 here.
    config = OptimizerConfig(tol=1e-5, f_rel_tol=1e-15)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim + 2, dim))
    h = a.T @ a + 0.1 * np.eye(dim)
    b = 3.0 * rng.standard_normal(dim)
    lower = rng.uniform(-2.0, 0.0, dim)
    upper = rng.uniform(0.1, 2.0, dim)
    lower[rng.random(dim) < 0.2] = -np.inf
    upper[rng.random(dim) < 0.2] = np.inf
    x0 = np.clip(rng.uniform(-1.5, 1.5, dim), lower, upper)
    bounds = np.column_stack([lower, upper])
    f = lambda x: float(0.5 * x @ h @ x - b @ x)
    g = lambda x: h @ x - b
    x, fx, iterations, reason, evaluations, close = numpy_quasi_newton(f, g, x0, bounds, config)
    assume(not close)
    calls = []
    res = bounded_quasi_newton(lambda x: calls.append(1) or f(x),
                               lambda x: calls.append(1) or g(x), x0, bounds, config)
    assert (len(calls), res.iterations, res.reason) == (evaluations, iterations, reason)
    assert np.all(np.abs(res.x - x) <= 1e-10 * np.maximum(np.abs(x), 1.0))
    assert res.f == pytest.approx(fx, rel=1e-12, abs=1e-12)
