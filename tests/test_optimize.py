import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda.optimize import OptimizerConfig, _Box, bounded_quasi_newton


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
    assert len(res.f_trace) == len(res.grad_norms)


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
    assert len(res.f_trace) == len(res.grad_norms)
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


def test_max_iter_reported() -> None:
    f, g = quadratic([0.9] * 5)
    res = bounded_quasi_newton(
        f, g, np.zeros(5), box(*[(-1, 1)] * 5), OptimizerConfig(max_iter=1)
    )
    assert res.iterations == 1
    assert res.reason in ("max_iter", "f_decrease", "projected_gradient")


def test_projected_gradient_masks_active_bounds() -> None:
    lower = np.array([0.0, -np.inf])
    upper = np.array([1.0, np.inf])
    g = np.array([2.0, 2.0])
    pg = _Box.of(lower, upper).project(np.array([0.0, 0.0]), g)
    assert pg[0] == 0.0 and pg[1] == 2.0
    g = np.array([-2.0, -2.0])
    pg = _Box.of(lower, upper).project(np.array([1.0, 0.0]), g)
    assert pg[0] == 0.0 and pg[1] == -2.0


def test_unbounded_problem_allows_infinite_box() -> None:
    f, g = quadratic([4.0, -7.0])
    infinite = box((-np.inf, np.inf), (-np.inf, np.inf))
    res = bounded_quasi_newton(f, g, np.zeros(2), infinite)
    assert res.converged
    assert np.allclose(res.x, [4.0, -7.0], atol=1e-8)
