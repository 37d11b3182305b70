import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda.pce import (
    PceConfig,
    PceModel,
    design_matrix,
    fit_lars,
    make_basis,
    multi_index_set,
    pce_eval,
    pce_jacobian,
    select_degree,
    univariate_derivative,
    univariate_eval,
    _hermite_derivatives,
    _hermite_values,
    _legendre_derivatives,
    _legendre_values,
    _ols_with_loo,
)


def unit_basis(max_degree, m_x=1):
    bounds = np.tile(np.array([[-1.0, 1.0]]), (m_x, 1))
    return make_basis(bounds, max_degree)


def test_legendre_values() -> None:
    assert univariate_eval("legendre", 0, 0.37) == pytest.approx(1.0)
    assert univariate_eval("legendre", 1, 0.5) == pytest.approx(math.sqrt(3.0) * 0.5)
    assert univariate_eval("legendre", 2, 1.0) == pytest.approx(math.sqrt(5.0))
    # P_b(1) = 1 for all b: normalized value is sqrt(2b + 1).
    for b in range(6):
        assert univariate_eval("legendre", b, 1.0) == pytest.approx(math.sqrt(2 * b + 1))
    with pytest.raises(ValueError):
        univariate_eval("legendre", -1, 0.0)
    with pytest.raises(ValueError):
        univariate_eval("chebyshev", 1, 0.0)


def test_hermite_values_orthonormal_mc() -> None:
    rng = np.random.default_rng(0)
    t = rng.standard_normal(200000)
    values = np.stack([univariate_eval("hermite", b, t) for b in range(4)])
    gram = values @ values.T / t.size
    assert np.allclose(gram, np.eye(4), atol=0.05)


def test_univariate_derivatives() -> None:
    assert univariate_derivative("legendre", 0, 0.3) == 0.0
    assert univariate_derivative("hermite", 0, 0.3) == 0.0
    for t in (-0.8, 0.0, 0.9):
        assert univariate_derivative("legendre", 1, t) == pytest.approx(math.sqrt(3.0))
    h = 1e-6
    for family, t in (("legendre", 0.2), ("hermite", 0.7)):
        fd = (univariate_eval(family, 3, t + h) - univariate_eval(family, 3, t - h)) / (2 * h)
        assert univariate_derivative(family, 3, t) == pytest.approx(fd, rel=1e-7)


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
    assert fit.loo_error == 0.0


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
    # Nested designs along a plausible path: every model's corrected LOO
    # bounds its own training error from above.
    for p_cols in (1, 3, 6, 10, 15):
        fitted = _ols_with_loo(psi[:, :p_cols], y)
        assert fitted is not None
        coef, loo, corrected = fitted
        mse = float(np.mean((y - psi[:, :p_cols] @ coef) ** 2))
        assert loo >= mse - 1e-12
        assert corrected >= loo - 1e-12


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
    from romda.pce import _lars_path

    x = psi[:, 1:] - psi[:, 1:].mean(axis=0)
    x /= np.linalg.norm(x, axis=0)
    prefixes = _lars_path(x, y - y.mean(), max_active=10)
    sizes = [len(p) for p in prefixes]
    assert sizes == sorted(sizes)
    for smaller, larger in zip(prefixes, prefixes[1:]):
        assert set(smaller).issubset(set(larger))


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
    predicted = pce_eval(model, x_fresh)[:, 0]
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


# Loop references: one basis term, one input at a time, skipping zero exponents.


def _tables(basis, t, kind):
    fns = {
        "values": {"legendre": _legendre_values, "hermite": _hermite_values},
        "derivatives": {"legendre": _legendre_derivatives, "hermite": _hermite_derivatives},
    }[kind]
    degrees = [max(alpha[i] for alpha in basis.indices) for i in range(basis.input_dim)]
    return [fns[f](degrees[i], t[:, i]) for i, f in enumerate(basis.families)]


def loop_standardize(basis, samples):
    t = (samples - basis.offsets[None, :]) / basis.scales[None, :]
    for i, family in enumerate(basis.families):
        if family != "legendre":
            continue
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
    per_degree = _tables(basis, t, "values")
    psi = np.ones((t.shape[0], basis.n_terms))
    for col, alpha in enumerate(basis.indices):
        for i, a_i in enumerate(alpha):
            if a_i > 0:
                psi[:, col] *= per_degree[i][a_i]
    return psi


def loop_pce_jacobian(model, x):
    basis = model.basis
    t = loop_standardize(basis, x[None, :])
    values = [table[:, 0] for table in _tables(basis, t, "values")]
    derivs = [table[:, 0] for table in _tables(basis, t, "derivatives")]
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
    families=st.lists(st.sampled_from(["legendre", "hermite"]), min_size=1, max_size=4),
    max_degree=st.integers(0, 4),
)
def test_vectorized_basis_matches_loop_reference_bitwise(seed, families, max_degree) -> None:
    rng = np.random.default_rng(seed)
    m_x = len(families)
    # Legendre rows are (low, high); Hermite rows are (mean, std).
    bounds = np.column_stack([rng.uniform(-2.0, 0.0, m_x), rng.uniform(0.5, 3.0, m_x)])
    basis = make_basis(bounds, max_degree, tuple(families))
    samples = np.column_stack(
        [
            rng.uniform(low, high, 7) if family == "legendre" else rng.normal(low, high, 7)
            for family, (low, high) in zip(families, bounds)
        ]
    )
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

    # Out-of-bounds samples are reported alike: first bounded input, worst sample.
    outside = samples.copy()
    for i in np.flatnonzero(np.array(families) == "legendre")[::-1]:
        outside[rng.integers(7), i] = bounds[i, 1] + rng.uniform(0.01, 1.0)
        with pytest.raises(ValueError) as expected:
            loop_standardize(basis, outside)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            design_matrix(outside, basis)
