import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from romda.assimilate import (
    AssimilationProblem,
    cost_3dvar,
    podpce_cost,
    podpce_gradient,
    scale_covariances,
    solve_classical_3dvar,
    solve_poden3dvar,
    solve_podpce3dvar,
)
from romda.optimize import OptimizerConfig
from romda.pce import PceModel, make_basis
from romda.pod import PodBasis
from romda.pce import PceConfig, pce_jacobian
from romda.surrogate import (
    COVARIANCE_KINDS,
    PodPceSurrogate,
    build_poden,
    build_podpce,
    observation_covariance,
    podpce_predict,
)


def spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def wide_bounds(m):
    return np.column_stack([np.full(m, -1e6), np.full(m, 1e6)])


def make_problem(rng, m_x=3, m_y=6, **kwargs):
    return AssimilationProblem(
        x_b=rng.standard_normal(m_x),
        background_cov=spd(rng, m_x),
        y_o=rng.standard_normal(m_y),
        observation_cov=spd(rng, m_y),
        bounds=wide_bounds(m_x),
        **kwargs,
    )


def test_cost_zero_at_perfect_fit() -> None:
    rng = np.random.default_rng(0)
    problem = make_problem(rng)
    model = lambda x: problem.y_o
    assert cost_3dvar(problem.x_b, model, problem) == 0.0


def test_cost_unit_deviation() -> None:
    rng = np.random.default_rng(1)
    x_b = rng.standard_normal(4)
    y_o = rng.standard_normal(5)
    problem = AssimilationProblem(
        x_b=x_b,
        background_cov=np.eye(4),
        y_o=y_o,
        observation_cov=np.eye(5),
        bounds=wide_bounds(4),
    )
    x = x_b + np.array([1.0, 0.0, 0.0, 0.0])
    assert cost_3dvar(x, lambda _: y_o, problem) == pytest.approx(0.5)


def test_cost_matches_explicit_inverse_oracle() -> None:
    rng = np.random.default_rng(2)
    problem = make_problem(rng)
    g_mat = rng.standard_normal((6, 3))
    model = lambda x: g_mat @ x
    for _ in range(5):
        x = rng.standard_normal(3)
        db = x - problem.x_b
        dr = model(x) - problem.y_o
        oracle = 0.5 * db @ np.linalg.inv(problem.background_cov) @ db
        oracle += 0.5 * dr @ np.linalg.inv(problem.observation_cov) @ dr
        assert cost_3dvar(x, model, problem) == pytest.approx(oracle, rel=1e-10)


def test_cost_rejects_non_pd_covariance() -> None:
    rng = np.random.default_rng(3)
    bad = np.diag([1.0, -0.5, 2.0])
    problem = AssimilationProblem(
        x_b=np.zeros(3),
        background_cov=bad,
        y_o=np.zeros(4),
        observation_cov=np.eye(4),
        bounds=wide_bounds(3),
    )
    with pytest.raises(ValueError, match="positive definite"):
        cost_3dvar(np.zeros(3), lambda x: np.zeros(4), problem)


def linear_ensemble(rng, m_x=3, m_y=8, n=40, noise=0.0):
    params = rng.standard_normal((m_x, n))
    g_mat = rng.standard_normal((m_y, m_x))
    states = g_mat @ params + rng.standard_normal((m_y, 1)) * 0.2
    if noise:
        states = states + noise * rng.standard_normal((m_y, n))
    return params, states


def test_poden_background_dominated_limit() -> None:
    rng = np.random.default_rng(4)
    params, states = linear_ensemble(rng, noise=0.05)
    s = build_poden(params, states, modes=5)
    problem = AssimilationProblem(
        x_b=params[:, 0],
        background_cov=np.eye(3),
        y_o=states[:, 1] + rng.standard_normal(8),
        observation_cov=np.eye(8),
        bounds=wide_bounds(3),
        alpha_r=1e9,
    )
    res = solve_poden3dvar(s, problem)
    assert res.evaluations == 0
    assert np.allclose(res.x_a, problem.x_b, atol=1e-6)


def test_poden_observation_dominated_limit_matches_least_squares() -> None:
    rng = np.random.default_rng(5)
    params, states = linear_ensemble(rng)
    s = build_poden(params, states, modes=3)
    r_cov = spd(rng, 8)
    problem = AssimilationProblem(
        x_b=params[:, 2],
        background_cov=np.eye(3),
        y_o=states[:, 3] + 0.1 * rng.standard_normal(8),
        observation_cov=r_cov,
        bounds=wide_bounds(3),
        alpha_b=1e9,
    )
    res = solve_poden3dvar(s, problem)
    h_y = s.phi_y * s.sigma[None, :]
    mean_y = s.joint_mean[s.m_x :]
    r_inv = np.linalg.inv(r_cov)
    oracle = np.linalg.solve(h_y.T @ r_inv @ h_y, h_y.T @ r_inv @ (problem.y_o - mean_y))
    assert np.allclose(res.nu_a, oracle, atol=1e-6)


def test_poden_closed_form_matches_descent() -> None:
    rng = np.random.default_rng(6)
    for trial in range(3):
        # Noise keeps the joint ensemble full rank so every retained mode
        # carries variance.
        params, states = linear_ensemble(rng, n=30, noise=0.05)
        d = 2 + trial
        s = build_poden(params, states, modes=d)
        problem = AssimilationProblem(
            x_b=params[:, 0],
            background_cov=spd(rng, 3),
            y_o=states[:, 1] + 0.05 * rng.standard_normal(8),
            observation_cov=spd(rng, 8, scale=0.5),
            bounds=wide_bounds(3),
        )
        closed = solve_poden3dvar(s, problem)
        descent = solve_poden3dvar(
            s, problem, method="descent", optimizer_config=OptimizerConfig(tol=1e-12)
        )
        assert np.allclose(closed.nu_a, descent.nu_a, atol=1e-8)
        assert closed.reason == "closed_form"


def test_poden_singular_normal_matrix_advises_smaller_d() -> None:
    rng = np.random.default_rng(7)
    params = rng.standard_normal((2, 12))
    states = np.vstack([params.sum(axis=0), params.sum(axis=0)])  # rank-deficient joint matrix
    s = build_poden(params, states, modes=4)
    problem = AssimilationProblem(
        x_b=params[:, 0],
        background_cov=np.eye(2),
        y_o=states[:, 1],
        observation_cov=np.eye(2),
        bounds=wide_bounds(2),
    )
    with pytest.raises(ValueError, match="smaller d"):
        solve_poden3dvar(s, problem)


def one_parameter_surrogate(bounds=(0.0, 2.0), mean_y=1.0, sigma=0.8, c0=0.2, c1=0.5):
    basis = PodBasis(
        mean=np.array([mean_y]),
        modes=np.array([[1.0]]),
        singular_values=np.array([sigma]),
        coefficients=np.ones((6, 1)) / np.sqrt(6.0),
        retained=1,
    )
    skeleton = make_basis(np.array([bounds]), 1)
    pce = PceModel(
        basis=skeleton,
        coefficients=np.array([[c0, c1]]),
        empirical_errors=np.zeros(1),
        selected_degrees=(1,),
        validation_bias=np.zeros(1),
    )
    return PodPceSurrogate(
        state_basis=basis,
        pce=pce,
        parameter_bounds=np.array([bounds]),
        n_members=6,
    )


def test_podpce_zero_residual_fixed_point() -> None:
    s = one_parameter_surrogate()
    x_b = np.array([1.2])
    problem = AssimilationProblem(
        x_b=x_b,
        background_cov=np.eye(1),
        y_o=podpce_predict(s, x_b),
        observation_cov=np.eye(1),
        bounds=np.array([[0.0, 2.0]]),
    )
    res = solve_podpce3dvar(s, problem)
    assert res.converged
    assert np.allclose(res.x_a, x_b, atol=1e-10)
    assert res.j_final == pytest.approx(0.0, abs=1e-20)


def test_podpce_hand_quadratic_minimum() -> None:
    # Scalar linear surrogate: G(x) = a + b x; with B = R = 1 the minimizer
    # of the quadratic cost is x* = (x_b + b (y_o - a)) / (1 + b^2).
    lo, hi = 0.0, 2.0
    s = one_parameter_surrogate(bounds=(lo, hi))
    offset = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)
    sigma, c0, c1, mean_y = 0.8, 0.2, 0.5, 1.0
    slope = sigma * c1 * math.sqrt(3.0) / scale
    intercept = mean_y + sigma * (c0 - c1 * math.sqrt(3.0) * offset / scale)
    x_b, y_o = 0.9, 2.1
    x_star = (x_b + slope * (y_o - intercept)) / (1.0 + slope**2)
    assert lo < x_star < hi

    problem = AssimilationProblem(
        x_b=np.array([x_b]),
        background_cov=np.eye(1),
        y_o=np.array([y_o]),
        observation_cov=np.eye(1),
        bounds=np.array([[lo, hi]]),
    )
    res = solve_podpce3dvar(s, problem, OptimizerConfig(tol=1e-12))
    assert res.x_a[0] == pytest.approx(x_star, abs=1e-8)


def test_podpce_gradient_matches_finite_differences() -> None:
    rng = np.random.default_rng(8)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    params = rng.uniform(0, 1, size=(40, 2)).T
    phi = rng.standard_normal((9, 2))
    states = phi @ np.vstack([np.sin(3 * params[0]), params[1] ** 2]) + 0.3
    s = build_podpce(params, states, PceConfig(bounds, 3), split_seed=1, modes=2)
    problem = AssimilationProblem(
        x_b=np.array([0.4, 0.6]),
        background_cov=spd(rng, 2, 0.5),
        y_o=states[:, 5] + 0.05 * rng.standard_normal(9),
        observation_cov=spd(rng, 9, 0.1),
        bounds=bounds,
    )

    from romda.assimilate import _background_misfit, _observation_misfit
    from romda.pce import pce_jacobian

    def j_tilde(x):
        return _background_misfit(problem, x) + _observation_misfit(
            problem, podpce_predict(s, x)
        )

    h_y = s.state_basis.retained_view.modes * s.state_basis.retained_view.singular_values
    b_fac = cho_factor(problem.alpha_b * problem.background_cov)
    r_fac = cho_factor(problem.alpha_r * problem.observation_cov)
    for _ in range(20):
        x = rng.uniform(0.05, 0.95, size=2)
        residual = podpce_predict(s, x) - problem.y_o
        grad = cho_solve(b_fac, x - problem.x_b) + (
            h_y @ pce_jacobian(s.pce, x)
        ).T @ cho_solve(r_fac, residual)
        for i in range(2):
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (j_tilde(xp) - j_tilde(xm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_classical_identity_model_keeps_background() -> None:
    x_b = np.array([0.3, -0.4])
    problem = AssimilationProblem(
        x_b=x_b,
        background_cov=np.eye(2),
        y_o=x_b.copy(),
        observation_cov=np.eye(2),
        bounds=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )
    res = solve_classical_3dvar(lambda x: x, problem)
    assert res.converged
    assert np.allclose(res.x_a, x_b, atol=1e-8)


def test_classical_linear_gaussian_closed_form() -> None:
    rng = np.random.default_rng(9)
    m_x, m_y = 3, 7
    g_mat = rng.standard_normal((m_y, m_x))
    b_cov = spd(rng, m_x, 0.5)
    r_cov = spd(rng, m_y, 0.2)
    x_b = rng.standard_normal(m_x) * 0.1
    x_t = x_b + 0.2 * rng.standard_normal(m_x)
    y_o = g_mat @ x_t
    problem = AssimilationProblem(
        x_b=x_b,
        background_cov=b_cov,
        y_o=y_o,
        observation_cov=r_cov,
        bounds=wide_bounds(m_x),
    )
    res = solve_classical_3dvar(lambda x: g_mat @ x, problem, optimizer_config=OptimizerConfig(tol=1e-10))
    b_inv = np.linalg.inv(b_cov)
    r_inv = np.linalg.inv(r_cov)
    gain = np.linalg.inv(b_inv + g_mat.T @ r_inv @ g_mat) @ g_mat.T @ r_inv
    oracle = x_b + gain @ (y_o - g_mat @ x_b)
    assert np.allclose(res.x_a, oracle, atol=1e-6)
    # One gradient costs 2 m_x model runs.
    assert res.evaluations >= res.iterations_lower_bound if hasattr(res, "iterations_lower_bound") else True
    assert res.evaluations >= 2 * m_x


def test_classical_gradient_runs_model_once_at_a_bound_point() -> None:
    # x_b sits on a corner of the box, so every component takes a one-sided
    # step: the gradient needs f(x) once plus one probe per component.
    problem = AssimilationProblem(
        x_b=np.array([0.0, 1.0, 0.5]),
        background_cov=np.eye(3),
        y_o=np.array([0.2, 0.7, 0.5]),
        observation_cov=np.eye(3),
        bounds=np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
    )
    points = []

    def model(x):
        points.append(x.copy())
        return x

    res = solve_classical_3dvar(model, problem, optimizer_config=OptimizerConfig(max_iter=0))
    # f(x_b) for the optimizer, then the gradient: f(x_b) once, one probe for
    # each bounded component and two for the interior one.
    assert res.evaluations == 1 + 1 + 1 + 1 + 2
    assert sum(np.array_equal(p, problem.x_b) for p in points) == 2 + 1  # + reporting run


def test_classical_propagates_model_failure_with_probe() -> None:
    problem = AssimilationProblem(
        x_b=np.array([0.5]),
        background_cov=np.eye(1),
        y_o=np.array([0.0]),
        observation_cov=np.eye(1),
        bounds=np.array([[0.0, 1.0]]),
    )

    def broken(x):
        raise FloatingPointError("boom")

    with pytest.raises(RuntimeError, match="probe point"):
        solve_classical_3dvar(broken, problem)


def test_scale_covariances_identity_and_validation() -> None:
    rng = np.random.default_rng(10)
    problem = make_problem(rng)
    same = scale_covariances(problem, 1.0, 1.0)
    assert same.alpha_b == problem.alpha_b and same.alpha_r == problem.alpha_r
    assert same is not problem
    with pytest.raises(ValueError, match="positive"):
        scale_covariances(problem, 0.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        scale_covariances(problem, 1.0, -2.0)


def test_uniform_scaling_leaves_argmin_unchanged() -> None:
    rng = np.random.default_rng(11)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    params = rng.uniform(0, 1, size=(50, 2)).T
    states = np.vstack([params[0] + params[1], params[0] * params[1], params[1] ** 2]) + 0.1
    s = build_podpce(params, states, PceConfig(bounds, 2), split_seed=9, modes=2)
    problem = AssimilationProblem(
        x_b=np.array([0.5, 0.5]),
        background_cov=0.3 * np.eye(2),
        y_o=states[:, 7] + 0.02 * rng.standard_normal(3),
        observation_cov=0.05 * np.eye(3),
        bounds=bounds,
    )
    base = solve_podpce3dvar(s, problem, OptimizerConfig(tol=1e-11))
    scaled = solve_podpce3dvar(
        s, scale_covariances(problem, 7.3, 7.3), OptimizerConfig(tol=1e-11)
    )
    assert np.allclose(base.x_a, scaled.x_a, atol=1e-6)
    assert scaled.j_final == pytest.approx(base.j_final / 7.3, rel=1e-6)


def test_cost_trace_nonincreasing_everywhere() -> None:
    rng = np.random.default_rng(12)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    params = rng.uniform(0, 1, size=(40, 2)).T
    states = np.vstack([np.cos(params[0]), params[1], params[0] * params[1]])
    s = build_podpce(params, states, PceConfig(bounds, 2), split_seed=4, modes=2)
    problem = AssimilationProblem(
        x_b=np.array([0.3, 0.7]),
        background_cov=np.eye(2),
        y_o=states[:, 3],
        observation_cov=0.1 * np.eye(3),
        bounds=bounds,
    )
    res = solve_podpce3dvar(s, problem)
    assert np.all(np.diff(res.cost_trace) <= 1e-15)
    assert res.in_bounds
    assert np.all(res.x_a >= bounds[:, 0]) and np.all(res.x_a <= bounds[:, 1])


def test_analysis_respects_bounds_when_optimum_outside() -> None:
    s = one_parameter_surrogate(bounds=(0.0, 2.0))
    # Huge observation pull toward x far above the upper bound.
    problem = AssimilationProblem(
        x_b=np.array([1.0]),
        background_cov=np.eye(1) * 100.0,
        y_o=np.array([50.0]),
        observation_cov=np.eye(1) * 0.01,
        bounds=np.array([[0.0, 2.0]]),
    )
    res = solve_podpce3dvar(s, problem)
    assert res.x_a[0] == pytest.approx(2.0)
    assert res.in_bounds


def random_podpce_problem(seed, r_form):
    """A POD-PCE surrogate of a smooth 2-input map and a problem whose R is
    given as 'variances' (1-D), 'diagonal' (2-D) or 'dense' SPD."""
    rng = np.random.default_rng(seed)
    bounds = np.array([[0.0, 1.0], [-1.0, 2.0]])
    m_y = 11
    params = np.vstack([rng.uniform(0, 1, 48), rng.uniform(-1, 2, 48)])
    phi = rng.standard_normal((m_y, 3))
    states = phi @ np.vstack([np.sin(2 * params[0]), params[1] ** 2, params[0] * params[1]]) + 0.4
    s = build_podpce(params, states, PceConfig(bounds, 3), split_seed=seed % 1000, modes=3)
    variances = rng.uniform(0.01, 0.2, m_y)
    r_cov = {
        "variances": variances,
        "diagonal": np.diag(variances),
        "dense": spd(rng, m_y, 0.02),
    }[r_form]
    problem = AssimilationProblem(
        x_b=np.array([0.5, 0.3]),
        background_cov=spd(rng, 2, 0.3),
        y_o=states[:, 0] + 0.1 * rng.standard_normal(m_y),
        observation_cov=r_cov,
        bounds=bounds,
        alpha_r=float(rng.uniform(0.5, 2.0)),
    )
    return s, problem, rng


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r_form=st.sampled_from(["variances", "diagonal", "dense"]))
def test_reduced_cost_equals_dense_oracle(seed, r_form) -> None:
    s, problem, rng = random_podpce_problem(seed, r_form)
    b_fac = cho_factor(problem.alpha_b * problem.background_cov)
    r_dense = np.diag(problem.observation_cov) if r_form == "variances" else problem.observation_cov
    r_fac = cho_factor(problem.alpha_r * r_dense)
    for _ in range(5):
        x = rng.uniform([0.05, -0.85], [0.95, 1.85])
        db = x - problem.x_b
        dr = podpce_predict(s, x) - problem.y_o
        oracle = 0.5 * db @ cho_solve(b_fac, db) + 0.5 * dr @ cho_solve(r_fac, dr)
        assert podpce_cost(s, problem, x) == pytest.approx(oracle, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r_form=st.sampled_from(["variances", "diagonal", "dense"]))
def test_reduced_gradient_matches_central_differences(seed, r_form) -> None:
    s, problem, rng = random_podpce_problem(seed, r_form)
    span = problem.bounds[:, 1] - problem.bounds[:, 0]
    for _ in range(5):
        x = rng.uniform(problem.bounds[:, 0] + 0.05 * span, problem.bounds[:, 1] - 0.05 * span)
        grad = podpce_gradient(s, problem, x)
        scale = max(1.0, podpce_cost(s, problem, x))
        for i in range(2):
            h = 1e-6 * span[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (podpce_cost(s, problem, xp) - podpce_cost(s, problem, xm)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8 * scale)


def random_rtilde_problem(seed, d, kind, r_form, alpha_r, floored):
    """A POD-PCE surrogate with d retained modes of a noisy 2-input map (so
    every truncated mode carries variance) and a problem against its R~ of
    ``kind`` over a base R given as 'variances', 'diagonal' or 'dense'.
    ``floored`` zeroes the weight of retained mode 0."""
    rng = np.random.default_rng(seed)
    bounds = np.array([[0.0, 1.0], [-1.0, 2.0]])
    m_y, n = 11, 48
    params = np.vstack([rng.uniform(0, 1, n), rng.uniform(-1, 2, n)])
    features = np.vstack([np.sin(2 * params[0]), params[1] ** 2, params[0] * params[1]])
    states = rng.standard_normal((m_y, 3)) @ features + 0.4
    states = states + 0.05 * rng.standard_normal((m_y, n))
    s = build_podpce(params, states, PceConfig(bounds, 3), split_seed=seed % 1000, modes=d)
    if floored:
        pce = s.pce
        if kind == "r_tilde":
            pce = dataclasses.replace(pce, empirical_errors=np.r_[0.0, pce.empirical_errors[1:]])
        else:  # bias^2 > delta floors the corrected variance
            bias = np.r_[2.0 * math.sqrt(pce.empirical_errors[0]), pce.validation_bias[1:]]
            pce = dataclasses.replace(pce, validation_bias=bias)
        s = dataclasses.replace(s, pce=pce)
    variances = rng.uniform(0.01, 0.2, m_y)
    r = {
        "variances": variances,
        "diagonal": np.diag(variances),
        "dense": spd(rng, m_y, 0.02),
    }[r_form]
    cov = observation_covariance(kind, s, r)
    assert cov.n_retained == d - floored
    problem = AssimilationProblem(
        x_b=np.array([0.5, 0.3]),
        background_cov=spd(rng, 2, 0.3),
        y_o=states[:, 0] + 0.1 * rng.standard_normal(m_y),
        observation_cov=cov,
        bounds=bounds,
        alpha_r=alpha_r,
    )
    return s, problem, rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    kind=st.sampled_from(["r_tilde", "r_tilde_corrected"]),
    r_form=st.sampled_from(["variances", "diagonal", "dense"]),
    alpha_r=st.floats(1e-2, 1e2),
    floored=st.booleans(),
)
def test_structured_rtilde_whitening_equals_dense_oracle(
    seed, d, kind, r_form, alpha_r, floored
) -> None:
    s, problem, rng = random_rtilde_problem(seed, d, kind, r_form, alpha_r, floored)
    b_dense = problem.alpha_b * problem.background_cov
    r_dense = problem.alpha_r * problem.observation_cov.matrix
    b_fac, r_fac = cho_factor(b_dense), cho_factor(r_dense)
    retained = s.state_basis.retained_view
    h_y = retained.modes * retained.singular_values
    predict = lambda x: podpce_predict(s, x)
    for _ in range(4):
        x = rng.uniform([0.05, -0.85], [0.95, 1.85])
        db = x - problem.x_b
        dr = podpce_predict(s, x) - problem.y_o
        oracle = 0.5 * db @ cho_solve(b_fac, db) + 0.5 * dr @ cho_solve(r_fac, dr)
        assert podpce_cost(s, problem, x) == pytest.approx(oracle, rel=1e-10)
        assert cost_3dvar(x, predict, problem) == pytest.approx(oracle, rel=1e-10)

        terms = (cho_solve(b_fac, db), (h_y @ pce_jacobian(s.pce, x)).T @ cho_solve(r_fac, dr))
        scale = max(float(np.abs(t).max()) for t in terms)
        np.testing.assert_allclose(
            podpce_gradient(s, problem, x), terms[0] + terms[1], rtol=1e-10, atol=1e-10 * scale
        )

    v = rng.standard_normal((problem.m_y, 3))
    w = problem.whiten_observation(v)
    quad = v.T @ cho_solve(r_fac, v)
    np.testing.assert_allclose(w.T @ w, quad, rtol=1e-10, atol=1e-10 * np.abs(quad).max())


@pytest.mark.parametrize("r_form", ["variances", "diagonal", "dense"])
@pytest.mark.parametrize("bad", [0.0, -0.05])
def test_structured_rtilde_rejects_nonpositive_base_variance(r_form, bad) -> None:
    s, problem, _ = random_rtilde_problem(5, 2, "r_tilde", r_form, 1.0, False)
    r = problem.observation_cov.r.copy()
    if r.ndim == 1:
        r[3] = bad
    else:
        r[3, 3] = bad
    problem = dataclasses.replace(problem, observation_cov=observation_covariance("r_tilde", s, r))
    with pytest.raises(ValueError, match="observation covariance is not positive definite"):
        podpce_cost(s, problem, np.array([0.5, 0.3]))


def test_dense_r_symmetry_is_judged_the_same_for_every_covariance_kind() -> None:
    s, problem, _ = random_rtilde_problem(11, 2, "r_tilde", "variances", 1.0, False)
    near = 0.01 * np.eye(problem.m_y)
    near[0, 1] += 5e-11  # roundoff-level asymmetry: accepted
    gross = 0.01 * np.eye(problem.m_y)
    gross[0, 1] += 1e-3
    for kind in COVARIANCE_KINDS:
        cov = observation_covariance(kind, s, near)
        analysis = solve_podpce3dvar(s, dataclasses.replace(problem, observation_cov=cov))
        assert np.isfinite(analysis.j_final)
        with pytest.raises(ValueError, match="observation covariance must be symmetric"):
            cov = observation_covariance(kind, s, gross)
            solve_podpce3dvar(s, dataclasses.replace(problem, observation_cov=cov))
