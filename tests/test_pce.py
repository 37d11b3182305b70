import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_triangular

from romda import toymodel
from romda.pce import (
    BOUNDS_RTOL,
    COLLINEAR_TOL,
    MAX_TERMS,
    PceConfig,
    PceModel,
    design_matrix,
    fit_lars,
    make_basis,
    multi_index_set,
    pce_eval,
    pce_jacobian,
    select_degree,
    _Design,
    _Point,
    degree_cap,
    _derivatives,
    _lars_path,
    _orthonormal,
    _prefix_scores,
)


def unit_basis(max_degree, m_x=1):
    bounds = np.tile(np.array([[-1.0, 1.0]]), (m_x, 1))
    return make_basis(bounds, max_degree)


def one_input_model(max_degree):
    """The one-input expansion on [-1, 1] (so t = x) whose k-th output is the
    degree-k orthonormal Legendre polynomial (identity coefficients)."""
    basis = unit_basis(max_degree)
    n = basis.n_terms
    return PceModel(basis, np.eye(n), np.zeros(n), (max_degree,) * n, np.zeros(n))


def test_legendre_values() -> None:
    psi = design_matrix(np.array([[0.37], [0.5], [1.0]]), unit_basis(5))
    assert psi[0, 0] == pytest.approx(1.0)
    assert psi[1, 1] == pytest.approx(math.sqrt(3.0) * 0.5)
    assert psi[2, 2] == pytest.approx(math.sqrt(5.0))
    # P_b(1) = 1 for all b: normalized value is sqrt(2b + 1).
    for b in range(6):
        assert psi[2, b] == pytest.approx(math.sqrt(2 * b + 1))
    with pytest.raises(ValueError, match="max_degree must be >= 0"):
        unit_basis(-1)
    with pytest.raises(ValueError, match=re.escape("input 1: bounds must satisfy low < high")):
        make_basis(np.array([[-1.0, 1.0], [2.0, 2.0]]), 1)


def test_univariate_derivatives() -> None:
    model = one_input_model(3)

    def derivative(degree, t):
        return pce_jacobian(model, np.array([t]))[degree, 0]

    assert derivative(0, 0.3) == 0.0
    for t in (-0.8, 0.0, 0.9):
        assert derivative(1, t) == pytest.approx(math.sqrt(3.0))
    h = 1e-6
    t = 0.2
    fd = (pce_eval(model, np.array([t + h]))[3] - pce_eval(model, np.array([t - h]))[3]) / (2 * h)
    assert derivative(3, t) == pytest.approx(fd, rel=1e-7)


def test_multi_index_set_counts_and_order() -> None:
    assert len(multi_index_set(1, 3)) == 4
    assert len(multi_index_set(4, 2)) == 15
    assert multi_index_set(2, 0) == ((0, 0),)
    indices = multi_index_set(2, 2)
    assert indices[0] == (0, 0)
    degrees = [sum(alpha) for alpha in indices]
    assert degrees == sorted(degrees)
    assert len(set(indices)) == len(indices)
    assert len(multi_index_set(3, 4)) == math.comb(3 + 4, 4)


def test_design_matrix_values() -> None:
    basis = unit_basis(2)
    psi = design_matrix(np.array([[1.0], [0.0], [-0.3]]), basis)
    assert np.allclose(psi[:, 0], 1.0)
    assert np.allclose(psi[0], [1.0, math.sqrt(3.0), math.sqrt(5.0)])


def test_design_matrix_rejects_out_of_bounds() -> None:
    basis = make_basis(np.array([[0.0, 2.0]]), 2)
    with pytest.raises(ValueError, match="outside the declared bounds"):
        design_matrix(np.array([[2.1]]), basis)
    # within tolerance: accepted and clipped
    design_matrix(np.array([[2.0 + 1e-12]]), basis)


def test_design_matrix_mc_orthonormality() -> None:
    rng = np.random.default_rng(5)
    basis = unit_basis(3, m_x=3)
    samples = rng.uniform(-1.0, 1.0, size=(20000, 3))
    psi = design_matrix(samples, basis)
    gram = psi.T @ psi / samples.shape[0]
    assert np.max(np.abs(gram - np.eye(basis.n_terms))) <= 0.05


def test_fit_lars_exact_single_term() -> None:
    rng = np.random.default_rng(1)
    basis = unit_basis(3, m_x=2)
    samples = rng.uniform(-1.0, 1.0, size=(60, 2))
    psi = design_matrix(samples, basis)
    col = basis.indices.index((2, 0))
    fit = fit_lars(psi, 2.5 * psi[:, col])
    assert fit.active == (col,)
    assert fit.coefficients[col] == pytest.approx(2.5, abs=1e-8)
    others = np.delete(fit.coefficients, col)
    assert np.allclose(others, 0.0, atol=1e-10)


def test_fit_lars_zero_targets() -> None:
    rng = np.random.default_rng(2)
    basis = unit_basis(2, m_x=2)
    psi = design_matrix(rng.uniform(-1, 1, size=(40, 2)), basis)
    fit = fit_lars(psi, np.zeros(40))
    assert fit.active == ()
    assert np.all(fit.coefficients == 0.0)
    # Every prefix scores 0, so the tie goes to the intercept alone.
    assert np.all(_prefix_scores(*np.linalg.qr(psi), np.zeros(40)) == 0.0)


def test_fit_lars_recovers_planted_sparse_support() -> None:
    rng = np.random.default_rng(3)
    basis = unit_basis(5, m_x=1)
    samples = rng.uniform(-1.0, 1.0, size=(200, 1))
    psi = design_matrix(samples, basis)
    truth = np.zeros(6)
    truth[0], truth[1], truth[3] = 1.0, 0.7, -1.2
    targets = psi @ truth
    fit = fit_lars(psi, targets)
    assert set(fit.active) == {1, 3}
    # Oracle: direct least squares on the true support.
    oracle, *_ = np.linalg.lstsq(psi[:, [0, 1, 3]], targets, rcond=None)
    assert fit.coefficients[0] == pytest.approx(oracle[0], abs=1e-6)
    assert fit.coefficients[1] == pytest.approx(oracle[1], abs=1e-6)
    assert fit.coefficients[3] == pytest.approx(oracle[2], abs=1e-6)


def test_fit_lars_requires_constant_column() -> None:
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="constant"):
        fit_lars(rng.uniform(size=(10, 3)), rng.uniform(size=10))


def test_corrected_loo_dominates_training_mse() -> None:
    rng = np.random.default_rng(6)
    basis = unit_basis(4, m_x=2)
    samples = rng.uniform(-1.0, 1.0, size=(80, 2))
    psi = design_matrix(samples, basis)
    y = np.sin(2.0 * samples[:, 0]) + 0.3 * rng.standard_normal(80)
    # Nested designs along a plausible path: each model's LOO bounds its
    # training error from above and its corrected LOO bounds its LOO, in the
    # per-prefix oracle and in the one-factor scores alike.
    scores = _prefix_scores(*np.linalg.qr(psi), y)
    assert scores.size == 15
    for p_cols in (1, 3, 6, 10, 15):
        coef, loo, corrected = ols_with_loo(psi[:, :p_cols], y)
        mse = float(np.mean((y - psi[:, :p_cols] @ coef) ** 2))
        assert loo >= mse - 1e-12
        assert corrected >= loo - 1e-12
        assert scores[p_cols - 1] >= loo - 1e-12
        assert scores[p_cols - 1] == pytest.approx(corrected, rel=1e-10)


def test_prefix_scores_stop_at_the_first_rank_deficient_block() -> None:
    rng = np.random.default_rng(16)
    basis = unit_basis(3, m_x=2)
    samples = rng.uniform(-1.0, 1.0, size=(40, 2))
    psi = design_matrix(samples, basis)
    y = np.cos(samples[:, 1]) + 0.1 * rng.standard_normal(40)
    design = psi[:, [0, 1, 2, 1, 3]]  # the fourth column repeats the second
    assert ols_with_loo(design[:, :4], y) is None
    scores = _prefix_scores(*np.linalg.qr(design), y)
    assert scores.size == 3
    for p_cols in (1, 2, 3):
        assert scores[p_cols - 1] == pytest.approx(ols_with_loo(design[:, :p_cols], y)[2], rel=1e-10)


def test_lars_path_is_monotone_nested() -> None:
    rng = np.random.default_rng(7)
    basis = unit_basis(4, m_x=3)
    samples = rng.uniform(-1.0, 1.0, size=(120, 3))
    psi = design_matrix(samples, basis)
    y = (
        0.5
        - 1.1 * psi[:, 2]
        + 0.8 * psi[:, 5]
        + 0.05 * rng.standard_normal(120)
    )
    design = _Design.of(psi)
    order = _lars_path(design.gram, design.x.T @ (y - y.mean()), 10, 1e-10)
    # One column per step, never twice, planted columns first.
    assert len(order) == len(set(order)) == 10
    assert set(design.candidates[order[:2]]) == {2, 5}
    # Each prefix of the path is a model of its own: adding a column never
    # raises the training residual.
    residuals = [np.linalg.lstsq(psi[:, [0, *design.candidates[order[:p]]]], y, rcond=None)[1][0]
                 for p in range(1, 11)]
    assert np.all(np.diff(residuals) <= 1e-12)


def test_select_degree_linear_target() -> None:
    rng = np.random.default_rng(8)
    bounds = np.array([[0.0, 2.0], [-1.0, 3.0]])
    x_train = rng.uniform(bounds[:, 0], bounds[:, 1], size=(80, 2))
    x_val = rng.uniform(bounds[:, 0], bounds[:, 1], size=(30, 2))
    f = lambda x: 2.0 + 0.5 * x[:, 0] - 1.5 * x[:, 1]
    model = select_degree(
        x_train, f(x_train)[:, None], x_val, f(x_val)[:, None], PceConfig(bounds, max_degree=4)
    )
    assert model.selected_degrees == (1,)
    assert model.empirical_errors[0] <= 1e-12


def test_select_degree_pure_noise_keeps_intercept() -> None:
    rng = np.random.default_rng(9)
    bounds = np.array([[-1.0, 1.0]])
    x_train = rng.uniform(-1, 1, size=(200, 1))
    x_val = rng.uniform(-1, 1, size=(200, 1))
    noise_std = 0.7
    y_train = noise_std * rng.standard_normal(200)
    y_val = noise_std * rng.standard_normal(200)
    model = select_degree(x_train, y_train[:, None], x_val, y_val[:, None], PceConfig(bounds, 4))
    # The chosen model stays near the intercept; its empirical error is close
    # to the validation targets' variance.
    assert model.empirical_errors[0] == pytest.approx(np.mean(y_val**2), rel=0.30)


def test_select_degree_cubic_target() -> None:
    rng = np.random.default_rng(10)
    bounds = np.array([[-2.0, 2.0]])
    x_train = rng.uniform(-2, 2, size=(300, 1))
    x_val = rng.uniform(-2, 2, size=(100, 1))
    f = lambda x: 0.3 * x**3 - x + 0.2
    model = select_degree(
        x_train, f(x_train[:, 0])[:, None], x_val, f(x_val[:, 0])[:, None], PceConfig(bounds, 5)
    )
    assert model.selected_degrees == (3,)
    assert model.empirical_errors[0] <= 1e-10


def test_select_degree_rejects_empty_validation() -> None:
    bounds = np.array([[-1.0, 1.0]])
    with pytest.raises(ValueError, match="validation"):
        select_degree(
            np.zeros((10, 1)), np.zeros((10, 1)), np.zeros((0, 1)), np.zeros((0, 1)), PceConfig(bounds)
        )


@pytest.mark.parametrize("m_x, cap", [(1, 1999), (2, 61), (4, 12), (10, 4)])
def test_degree_cap_is_the_largest_degree_within_the_term_budget(m_x, cap) -> None:
    assert degree_cap(m_x) == cap
    assert len(multi_index_set(m_x, cap)) <= MAX_TERMS < math.comb(m_x + cap + 1, cap + 1)


def test_select_degree_rejects_a_degree_above_the_cap() -> None:
    rng = np.random.default_rng(5)
    bounds = np.tile([[-1.0, 1.0]], (4, 1))
    x, y = rng.uniform(-1.0, 1.0, (12, 4)), rng.standard_normal((12, 1))
    with pytest.raises(ValueError, match=re.escape("max_degree: degree must be at most 12 for 4 inputs")):
        select_degree(x[:8], y[:8], x[8:], y[8:], PceConfig(bounds, 13))


def test_pce_eval_intercept_model() -> None:
    rng = np.random.default_rng(11)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    basis = make_basis(bounds, 2)
    coef = np.zeros((3, basis.n_terms))
    coef[:, 0] = [1.0, -2.0, 0.25]
    from romda.pce import PceModel

    model = PceModel(
        basis=basis,
        coefficients=coef,
        empirical_errors=np.zeros(3),
        selected_degrees=(0, 0, 0),
        validation_bias=np.zeros(3),
    )
    for x in rng.uniform(0, 1, size=(5, 2)):
        assert np.allclose(pce_eval(model, x), [1.0, -2.0, 0.25])
    assert np.allclose(pce_jacobian(model, np.array([0.5, 0.5])), 0.0)


def test_exact_polynomial_reproduction() -> None:
    rng = np.random.default_rng(12)
    bounds = np.array([[0.0, 1.0], [2.0, 5.0], [-1.0, 0.0], [10.0, 11.0]])
    config = PceConfig(bounds, max_degree=3)
    basis = make_basis(bounds, 3)
    truth = rng.standard_normal(basis.n_terms)
    n = 2 * basis.n_terms + 10
    x_train = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, 4))
    x_val = rng.uniform(bounds[:, 0], bounds[:, 1], size=(40, 4))
    y_train = design_matrix(x_train, basis) @ truth
    y_val = design_matrix(x_val, basis) @ truth
    model = select_degree(x_train, y_train[:, None], x_val, y_val[:, None], config)
    assert np.max(np.abs(model.coefficients[0] - truth)) <= 1e-8
    x_fresh = rng.uniform(bounds[:, 0], bounds[:, 1], size=(50, 4))
    predicted = np.array([pce_eval(model, x)[0] for x in x_fresh])
    expected = design_matrix(x_fresh, basis) @ truth
    assert np.allclose(predicted, expected, atol=1e-8)


def test_jacobian_linear_model_constant_slope() -> None:
    bounds = np.array([[1.0, 4.0]])
    basis = make_basis(bounds, 1)
    from romda.pce import PceModel

    coef = np.zeros((1, 2))
    coef[0, 1] = 1.0  # nu = xi_1(T(x))
    model = PceModel(
        basis=basis,
        coefficients=coef,
        empirical_errors=np.zeros(1),
        selected_degrees=(1,),
        validation_bias=np.zeros(1),
    )
    slope = math.sqrt(3.0) * 2.0 / (4.0 - 1.0)
    for x in (1.2, 2.0, 3.9):
        assert pce_jacobian(model, np.array([x]))[0, 0] == pytest.approx(slope)


def test_jacobian_matches_finite_differences() -> None:
    rng = np.random.default_rng(14)
    bounds = np.array([[0.0, 2.0], [-3.0, 1.0], [5.0, 9.0]])
    config = PceConfig(bounds, max_degree=3)
    x_train = rng.uniform(bounds[:, 0], bounds[:, 1], size=(150, 3))
    x_val = rng.uniform(bounds[:, 0], bounds[:, 1], size=(60, 3))
    g = lambda x: np.column_stack(
        [
            np.sin(x[:, 0]) + x[:, 1] * x[:, 2],
            0.1 * x[:, 0] * x[:, 1] - x[:, 2],
        ]
    )
    model = select_degree(x_train, g(x_train), x_val, g(x_val), config)
    span = bounds[:, 1] - bounds[:, 0]
    lo = bounds[:, 0] + 0.05 * span
    hi = bounds[:, 1] - 0.05 * span
    for _ in range(20):
        x = rng.uniform(lo, hi)
        jac = pce_jacobian(model, x)
        for i in range(3):
            h = 1e-6 * span[i]
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (pce_eval(model, xp) - pce_eval(model, xm)) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(jac[:, i] - fd) / scale) <= 1e-6


def test_degree_selection_is_deterministic() -> None:
    rng = np.random.default_rng(15)
    bounds = np.array([[-1.0, 2.0], [0.0, 1.0]])
    x_train = rng.uniform(bounds[:, 0], bounds[:, 1], size=(90, 2))
    x_val = rng.uniform(bounds[:, 0], bounds[:, 1], size=(30, 2))
    y_train = np.column_stack([np.cos(x_train[:, 0]), x_train[:, 1] ** 2])
    y_val = np.column_stack([np.cos(x_val[:, 0]), x_val[:, 1] ** 2])
    first = select_degree(x_train, y_train, x_val, y_val, PceConfig(bounds, 4))
    second = select_degree(x_train, y_train, x_val, y_val, PceConfig(bounds, 4))
    assert first.selected_degrees == second.selected_degrees
    assert np.array_equal(first.coefficients, second.coefficients)
    assert np.array_equal(first.empirical_errors, second.empirical_errors)


# Loop references: one basis term, one input at a time, skipping zero exponents,
# each univariate table from its own recurrence.


def _legendre_values(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre values sqrt(2b + 1) P_b(t), shape (max_degree + 1, len(t))."""
    out = np.empty((max_degree + 1, t.size))
    p_prev = np.ones_like(t)
    out[0] = p_prev
    if max_degree == 0:
        return out
    p_cur = t.copy()
    out[1] = math.sqrt(3.0) * p_cur
    for b in range(1, max_degree):
        p_next = ((2 * b + 1) * t * p_cur - b * p_prev) / (b + 1)
        out[b + 1] = math.sqrt(2 * (b + 1) + 1) * p_next
        p_prev, p_cur = p_cur, p_next
    return out


def _legendre_derivatives(max_degree: int, t: np.ndarray) -> np.ndarray:
    """d/dt of the orthonormal Legendre values, same shape convention."""
    out = np.empty((max_degree + 1, t.size))
    out[0] = 0.0
    if max_degree == 0:
        return out
    dp_prev = np.zeros_like(t)  # P_0'
    dp_cur = np.ones_like(t)  # P_1'
    out[1] = math.sqrt(3.0) * dp_cur
    p_prev = np.ones_like(t)
    p_cur = t.copy()
    for b in range(1, max_degree):
        # P'_{b+1} = P'_{b-1} + (2b + 1) P_b
        dp_next = dp_prev + (2 * b + 1) * p_cur
        out[b + 1] = math.sqrt(2 * (b + 1) + 1) * dp_next
        p_next = ((2 * b + 1) * t * p_cur - b * p_prev) / (b + 1)
        p_prev, p_cur = p_cur, p_next
        dp_prev, dp_cur = dp_cur, dp_next
    return out


def _tables(basis, t, table):
    degrees = [max(alpha[i] for alpha in basis.indices) for i in range(basis.input_dim)]
    return [table(degrees[i], t[:, i]) for i in range(basis.input_dim)]


def loop_standardize(basis, samples):
    t = (samples - basis.offsets[None, :]) / basis.scales[None, :]
    for i in range(basis.input_dim):
        over = np.abs(t[:, i]) - 1.0
        worst = int(np.argmax(over))
        if over[worst] > 1e-9:
            raise ValueError(
                f"sample {worst} is outside the declared bounds of input {i} "
                f"(standardized coordinate {t[worst, i]:.12g})"
            )
        t[:, i] = np.clip(t[:, i], -1.0, 1.0)
    return t


def loop_design_matrix(samples, basis):
    t = loop_standardize(basis, samples)
    per_degree = _tables(basis, t, _legendre_values)
    psi = np.ones((t.shape[0], basis.n_terms))
    for col, alpha in enumerate(basis.indices):
        for i, a_i in enumerate(alpha):
            if a_i > 0:
                psi[:, col] *= per_degree[i][a_i]
    return psi


def loop_pce_jacobian(model, x):
    basis = model.basis
    t = loop_standardize(basis, x[None, :])
    values = [table[:, 0] for table in _tables(basis, t, _legendre_values)]
    derivs = [table[:, 0] for table in _tables(basis, t, _legendre_derivatives)]
    m_x = basis.input_dim
    dz = np.zeros((basis.n_terms, m_x))
    for col, alpha in enumerate(basis.indices):
        for i in range(m_x):
            if alpha[i] == 0:
                continue
            term = derivs[i][alpha[i]] / basis.scales[i]
            for j in range(m_x):
                if j != i and alpha[j] > 0:
                    term *= values[j][alpha[j]]
            dz[col, i] = term
    return model.coefficients @ dz


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m_x=st.integers(1, 4),
    max_degree=st.integers(0, 4),
)
def test_vectorized_basis_matches_loop_reference_bitwise(seed, m_x, max_degree) -> None:
    rng = np.random.default_rng(seed)
    bounds = np.column_stack([rng.uniform(-2.0, 0.0, m_x), rng.uniform(0.5, 3.0, m_x)])
    basis = make_basis(bounds, max_degree)
    samples = np.column_stack([rng.uniform(low, high, 7) for low, high in bounds])
    assert np.array_equal(design_matrix(samples, basis), loop_design_matrix(samples, basis))

    model = PceModel(
        basis=basis,
        coefficients=rng.standard_normal((3, basis.n_terms)),
        empirical_errors=np.zeros(3),
        selected_degrees=(max_degree,) * 3,
        validation_bias=np.zeros(3),
    )
    for x in samples:
        assert np.array_equal(pce_jacobian(model, x), loop_pce_jacobian(model, x))

    # Out-of-bounds samples are reported alike: first input, worst sample.
    outside = samples.copy()
    for i in range(m_x)[::-1]:
        outside[rng.integers(7), i] = bounds[i, 1] + rng.uniform(0.01, 1.0)
        with pytest.raises(ValueError) as expected:
            loop_standardize(basis, outside)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            design_matrix(outside, basis)


# Per-prefix LARS scoring and a column-by-column step search: the references
# for fit_lars's one QR per path and _lars_path's vectorized step. The step
# search reads the same Gram arithmetic; the n-row path, which forms
# x^T (y - mu) from the samples at every step, is the reference for that
# arithmetic on designs without ties or collinear columns.


def ols_with_loo(design, y):
    """Least squares fit with hat-matrix LOO and its corrected variant.

    Returns (coefficients, loo, corrected_loo); None if the design is
    numerically rank deficient.
    """
    n, p = design.shape
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        return None
    coef = solve_triangular(r, q.T @ y)
    resid = y - design @ coef
    leverage = np.einsum("ij,ij->i", q, q)
    denom = 1.0 - leverage
    if np.any(denom <= 1e-12):
        return coef, np.inf, np.inf
    loo = float(np.mean((resid / denom) ** 2))
    if n <= p:
        return coef, loo, np.inf
    r_inv = solve_triangular(r, np.eye(p))
    trace_inv = float(np.sum(r_inv**2))  # tr((Psi^T Psi)^-1)
    correction = (n / (n - p)) * (1.0 + trace_inv)
    return coef, loo, loo * correction


def loop_lars_path(gram, xty, max_active, floor):
    """_lars_path with the step length searched one column at a time."""
    k = xty.size
    c = xty.copy()
    active, barred = [], set()
    signs = np.empty(max_active)
    g_active = np.empty((k, max_active))
    l_inv = np.zeros((max_active, max_active))
    while len(active) < max_active:
        c_abs = np.abs(c)
        c_abs[active + sorted(barred)] = -np.inf
        j = int(np.argmax(c_abs))
        if not c_abs[j] > floor:
            break
        m = len(active)
        ell = l_inv[:m, :m] @ g_active[j, :m]
        gap = gram[j, j] - ell @ ell
        if gap <= COLLINEAR_TOL:
            barred.add(j)
            continue
        root = np.sqrt(gap)
        l_inv[m, :m] = (ell @ l_inv[:m, :m]) / -root
        l_inv[m, m] = 1.0 / root
        g_active[:, m] = gram[:, j]
        signs[m] = -1.0 if c[j] < 0.0 else 1.0
        active.append(j)
        m += 1
        if m == max_active:
            break
        z = l_inv[:m, :m] @ signs[:m]
        a_norm = 1.0 / np.sqrt(z @ z)
        a = g_active[:, :m] @ ((a_norm * z) @ l_inv[:m, :m])
        corr_max = np.abs(c[active]).max()
        gamma = corr_max / a_norm
        for i in range(k):
            if i in active or i in barred:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                candidates = ((corr_max - c[i]) / (a_norm - a[i]), (corr_max + c[i]) / (a_norm + a[i]))
            for candidate in candidates:
                if np.isfinite(candidate) and 1e-15 < candidate < gamma:
                    gamma = candidate
        c -= gamma * a
    return active


def nrow_lars_path(x, y, max_active):
    """LARS path of the standardized n-row design ``x``: every step forms
    c = x^T (y - mu) and solves the signed active Gram afresh. The columns
    in the order they enter."""
    n, n_cols = x.shape
    mu = np.zeros(n)
    active, barred = [], set()
    corr_floor = 1e-10 * max(float(np.linalg.norm(y)), 1.0)
    while len(active) < max_active:
        c = x.T @ (y - mu)
        c_abs = np.abs(c)
        c_abs[active + sorted(barred)] = -np.inf
        j_new = int(np.argmax(c_abs))
        if not np.isfinite(c_abs[j_new]) or c_abs[j_new] <= corr_floor:
            break
        trial = active + [j_new]
        signs = np.sign(c[trial])
        signs[signs == 0.0] = 1.0
        xa = x[:, trial] * signs[None, :]
        try:
            ginv_ones = np.linalg.solve(xa.T @ xa, np.ones(len(trial)))
        except np.linalg.LinAlgError:
            barred.add(j_new)
            continue
        total = float(ginv_ones.sum())
        if total <= 1e-12:
            barred.add(j_new)
            continue
        active = trial
        if len(active) >= max_active:
            break
        a_norm = 1.0 / np.sqrt(total)
        u = xa @ (a_norm * ginv_ones)
        corr_max = float(np.max(np.abs(c[active])))
        a = x.T @ u
        gamma = corr_max / a_norm
        free = np.ones(n_cols, dtype=bool)
        free[active + sorted(barred)] = False
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.concatenate(
                ((corr_max - c[free]) / (a_norm - a[free]), (corr_max + c[free]) / (a_norm + a[free]))
            )
        steps = steps[np.isfinite(steps) & (steps > 1e-15) & (steps < gamma)]
        if steps.size:
            gamma = float(steps.min())
        mu = mu + gamma * u
    return active


def per_prefix_fit(psi, targets):
    """fit_lars's winner when every path prefix is refactored and scored.

    Returns the winner (corrected LOO, coefficients, active set), the
    longest path's design columns and every prefix's corrected LOO, None
    where the prefix is rank deficient.
    """
    n, n_terms = psi.shape
    centered = {j: psi[:, j] - psi[:, j].mean() for j in range(1, n_terms)}
    keep = [j for j, col in centered.items() if np.linalg.norm(col) > 1e-13 * np.sqrt(n)]
    design = _Design.of(psi)
    assert design.candidates.tolist() == keep
    y_c = targets - targets.mean()
    path_args = (design.gram, design.x.T @ y_c, min(len(keep), n - 1),
                 1e-10 * max(float(np.linalg.norm(y_c)), 1.0))
    order = loop_lars_path(*path_args)
    assert _lars_path(*path_args) == order
    best, scores = None, []
    for p in range(len(order) + 1):
        active = tuple(keep[j] for j in order[:p])
        fitted = ols_with_loo(psi[:, (0,) + active], targets)
        scores.append(None if fitted is None else fitted[2])
        if fitted is not None and (best is None or fitted[2] < best[0]):
            coef = np.zeros(n_terms)
            coef[[0, *active]] = fitted[0]
            best = (fitted[2], coef, active)
    return best, (0,) + active, scores


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 60),
    m_x=st.integers(1, 3),
    max_degree=st.integers(1, 4),
    duplicate=st.booleans(),
)
# The winner's LOO scored from the longest path's QR differs from its own
# refit's by 2.9e-10 relative here, inside the prefix check's tolerance.
@example(seed=185806, n=9, m_x=3, max_degree=2, duplicate=True)
# The n-row path takes both copies here, (3, 2, 0, 1, 4), the second through
# a nearly singular solve; the Gram path bars the second copy.
@example(seed=0, n=9, m_x=2, max_degree=2, duplicate=True)
def test_one_factor_lars_matches_per_prefix_oracle(seed, n, m_x, max_degree, duplicate) -> None:
    rng = np.random.default_rng(seed)
    basis = unit_basis(max_degree, m_x=m_x)
    samples = rng.uniform(-1.0, 1.0, size=(n, m_x))
    psi = design_matrix(samples, basis)
    if duplicate and basis.n_terms > 2:
        # A repeated regressor: LARS either bars it or the prefix holding it
        # is rank deficient, on both sides.
        j = int(rng.integers(1, basis.n_terms - 1))
        psi[:, j + 1] = psi[:, j]
    # Noisy targets keep every residual, and so every LOO, away from roundoff.
    targets = np.sin(samples @ rng.standard_normal(m_x)) + 0.2 * rng.standard_normal(n)
    (_, oracle_coef, oracle_active), path, oracle_scores = per_prefix_fit(psi, targets)

    fit = fit_lars(psi, targets)
    assert fit.active == oracle_active
    assert np.array_equal(fit.coefficients, oracle_coef)

    # Every prefix is scored alike, and scoring stops at the first deficient
    # one. A prefix's LOO divides by its 1 - h_i, so both computations agree
    # to 1e-10 relative over the smallest of those.
    q, r = np.linalg.qr(psi[:, path])
    scores = _prefix_scores(q, r, targets)
    valid = [score for score in oracle_scores if score is not None]
    assert oracle_scores[: len(valid)] == valid
    assert scores.size == len(valid)
    valid = np.array(valid)
    finite = np.isfinite(valid)
    assert np.array_equal(np.isfinite(scores), finite)
    slack = 1.0 - np.max(np.cumsum(q * q, axis=1), axis=0)[: scores.size]
    ours, oracle, slack = scores[finite], valid[finite], slack[finite]
    assert np.all(np.abs(ours - oracle) <= 1e-10 * oracle / slack)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gram_path_matches_the_nrow_path_on_toy_designs(seed) -> None:
    # Well-posed designs: the toy model's standardized POD coefficients on
    # Legendre designs of its four inputs. The two arithmetics can part only
    # at ties and near-collinear columns (a duplicated regressor), which
    # these designs do not have.
    for n in (100, 400, 800):
        draws = toymodel.sample_parameters(n, seed)
        states = toymodel.propagate(draws)
        states = (states - states.mean(axis=1, keepdims=True)) / states.std(axis=1, keepdims=True)
        u, sigma, _ = np.linalg.svd(states - states.mean(axis=1, keepdims=True), full_matrices=False)
        targets = (u[:, :3].T @ states).T  # (n, 3): three leading mode coefficients
        psi = design_matrix(draws, make_basis(toymodel.PARAMETER_BOUNDS, 4))
        for degree in range(1, 5):
            design = _Design.of(psi).prefix(len(multi_index_set(4, degree)))
            for y in targets.T:
                y_c = y - y.mean()
                max_active = min(design.candidates.size, n - 1)
                floor = 1e-10 * max(float(np.linalg.norm(y_c)), 1.0)
                assert _lars_path(design.gram, design.x.T @ y_c, max_active, floor) == \
                    nrow_lars_path(design.x, y_c, max_active)


# Where each input of an evaluated point sits: strictly inside its box, on a
# face, or outside a face by no more than the bounds tolerance.
PLACES = ("inside", "low", "high", "below", "above")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m_x=st.integers(1, 4),
    max_degree=st.integers(0, 4),
    places=st.lists(st.sampled_from(PLACES), min_size=4, max_size=4),
)
def test_evaluated_point_gives_the_array_bits(seed, m_x, max_degree, places) -> None:
    rng = np.random.default_rng(seed)
    bounds = np.column_stack([rng.uniform(-2.0, 0.0, m_x), rng.uniform(0.5, 3.0, m_x)])
    basis = make_basis(bounds, max_degree)
    model = PceModel(
        basis=basis,
        coefficients=rng.standard_normal((3, basis.n_terms)),
        empirical_errors=np.zeros(3),
        selected_degrees=(max_degree,) * 3,
        validation_bias=np.zeros(3),
    )
    slack = basis.scales * 0.5 * BOUNDS_RTOL * rng.uniform(0.01, 1.0, m_x)
    at = {
        "inside": basis.offsets + basis.scales * rng.uniform(-1.0, 1.0, m_x),
        "low": bounds[:, 0],
        "high": bounds[:, 1],
        "below": bounds[:, 0] - slack,
        "above": bounds[:, 1] + slack,
    }
    x = np.array([at[place][i] for i, place in enumerate(places[:m_x])])
    point = _Point.of(basis, x)
    # A design_matrix row is the product of the point's factors, bit for bit.
    assert np.array_equal(design_matrix(x[None], basis)[0], np.multiply.reduce(point.factors, axis=1))
    assert np.array_equal(pce_eval(model, point), pce_eval(model, x))
    assert np.array_equal(pce_jacobian(model, point), loop_pce_jacobian(model, x))
    assert np.array_equal(pce_jacobian(model, point), pce_jacobian(model, x))

    # Beyond the tolerance, the point and the array routes reject x alike.
    i = int(rng.integers(m_x))
    outside = x.copy()
    outside[i] = basis.offsets[i] + basis.scales[i] * rng.choice([-1.0, 1.0]) * (1.0 + 1e-6)
    with pytest.raises(ValueError) as expected:
        loop_standardize(basis, outside[None, :])
    assert f"input {i} " in str(expected.value)
    for route in (lambda: _Point.of(basis, outside), lambda: pce_eval(model, outside),
                  lambda: pce_jacobian(model, outside), lambda: design_matrix(outside[None], basis)):
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            route()


def mask_loop_pce_jacobian(model, point):
    """pce_jacobian with boolean-mask products, one copy per get and set."""
    basis = model.basis
    inputs = np.arange(basis.input_dim)
    others = inputs[:, None] != inputs[None, :]  # row j masks the inputs other than j
    dz = _orthonormal(_derivatives(point.table), basis.norms)[basis.exponents, inputs]
    dz /= basis.scales
    for j in inputs:
        dz[:, others[j]] *= point.factors[:, j, None]
    dz[basis.exponents == 0] = 0.0
    return model.coefficients @ dz


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m_x=st.integers(1, 6),
    max_degree=st.integers(0, 6),
    places=st.lists(st.sampled_from(PLACES), min_size=6, max_size=6),
)
def test_jacobian_masked_products_keep_the_mask_loop_bits(seed, m_x, max_degree, places) -> None:
    # The in-place masked multiply forms each entry's product in the order
    # the mask-copy loop does, so the Jacobians agree bit for bit, box faces
    # and the tolerance band around them included.
    rng = np.random.default_rng(seed)
    bounds = np.column_stack([rng.uniform(-2.0, 0.0, m_x), rng.uniform(0.5, 3.0, m_x)])
    basis = make_basis(bounds, max_degree)
    model = PceModel(
        basis=basis,
        coefficients=rng.standard_normal((3, basis.n_terms)),
        empirical_errors=np.zeros(3),
        selected_degrees=(max_degree,) * 3,
        validation_bias=np.zeros(3),
    )
    slack = basis.scales * 0.5 * BOUNDS_RTOL * rng.uniform(0.01, 1.0, m_x)
    at = {
        "inside": basis.offsets + basis.scales * rng.uniform(-1.0, 1.0, m_x),
        "low": bounds[:, 0],
        "high": bounds[:, 1],
        "below": bounds[:, 0] - slack,
        "above": bounds[:, 1] + slack,
    }
    point = _Point.of(basis, np.array([at[place][i] for i, place in enumerate(places[:m_x])]))
    assert np.array_equal(pce_jacobian(model, point), mask_loop_pce_jacobian(model, point))
