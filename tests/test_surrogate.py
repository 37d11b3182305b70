import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda.pce import PceConfig, PceModel, make_basis, select_degree
from romda.pod import PodBasis, evr, fit_pod, reconstruct, truncate
from romda.surrogate import (
    PodPceSurrogate,
    Standardizer,
    build_poden,
    build_podpce,
    corrected_error_covariance,
    metamodel_error_covariance,
    poden_predict,
    podpce_predict,
)
from romda import toymodel


def project(basis, y):
    """Reduced coordinates of a state, Sigma_d^-1 Phi_d^T (y - mean): the
    oracle inverse of ``reconstruct``."""
    d = basis.retained
    return (basis.modes[:, :d].T @ (y - basis.mean)) / basis.singular_values[:d]


@pytest.mark.parametrize("shape", [(7,), (7, 5)], ids=["1-D", "2-D"])
def test_standardizer_transform_leaves_its_input_alone(shape) -> None:
    # The CLI standardizes the states it read; a 2-D transform divides its
    # own centered copy in place, never the caller's array.
    rng = np.random.default_rng(3)
    stdzr = Standardizer.fit(rng.normal(2.0, 3.0, (7, 5)))
    values = rng.normal(2.0, 3.0, shape)
    kept = values.copy()
    z = stdzr.transform(values)
    np.testing.assert_array_equal(values, kept)
    mean, std = (stdzr.mean, stdzr.std) if len(shape) == 1 else (stdzr.mean[:, None], stdzr.std[:, None])
    assert z.tobytes() == ((kept - mean) / std).tobytes()


def test_poden_linear_single_direction() -> None:
    rng = np.random.default_rng(0)
    w = rng.standard_normal(3)
    a = rng.standard_normal(12)
    g = rng.standard_normal(50)
    params = np.outer(w, g)
    states = np.outer(a, g) + 1.5
    s = build_poden(params, states, modes=1)
    assert evr(s.basis, 1) >= 0.999
    assert s.d == 1
    assert s.phi_x.shape == (3, 1)
    assert s.phi_y.shape == (12, 1)


def test_poden_constant_params_have_zero_mode_rows() -> None:
    rng = np.random.default_rng(1)
    params = np.ones((3, 20)) * np.array([[2.0], [5.0], [-1.0]])
    states = rng.standard_normal((8, 20))
    s = build_poden(params, states, modes=4)
    assert np.allclose(s.phi_x, 0.0, atol=1e-12)


def test_poden_round_trip_and_prediction() -> None:
    rng = np.random.default_rng(2)
    params = rng.standard_normal((2, 12))
    states = rng.standard_normal((5, 12))
    s = build_poden(params, states, modes=min(2 + 5, 12))
    assert s.d == 7
    for j in (0, 5, 11):
        nu = s.basis.coefficients[j, : s.d]
        x, y = poden_predict(s, nu)
        assert np.allclose(x, params[:, j], atol=1e-8)
        assert np.allclose(y, states[:, j], atol=1e-8)

    x0, y0 = poden_predict(s, np.zeros(s.d))
    assert np.allclose(x0, params.mean(axis=1))
    assert np.allclose(y0, states.mean(axis=1))


def test_poden_predict_is_affine() -> None:
    rng = np.random.default_rng(3)
    s = build_poden(rng.standard_normal((2, 10)), rng.standard_normal((6, 10)), modes=3)
    mean_x, mean_y = poden_predict(s, np.zeros(3))
    for _ in range(3):
        nu1, nu2 = rng.standard_normal(3), rng.standard_normal(3)
        a, b = rng.standard_normal(2)
        x12, y12 = poden_predict(s, a * nu1 + b * nu2)
        x1, y1 = poden_predict(s, nu1)
        x2, y2 = poden_predict(s, nu2)
        assert np.allclose(x12 - mean_x, a * (x1 - mean_x) + b * (x2 - mean_x), atol=1e-10)
        assert np.allclose(y12 - mean_y, a * (y1 - mean_y) + b * (y2 - mean_y), atol=1e-10)


def podpce_quadratic_fixture(n=120, seed=4):
    rng = np.random.default_rng(seed)
    bounds = np.array([[-1.0, 2.0], [0.0, 1.0]])
    params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, 2)).T
    phi = rng.standard_normal(25)
    phi /= np.linalg.norm(phi)
    base = rng.standard_normal(25)
    g = 0.8 * params[0] ** 2 - params[0] * params[1] + 0.3 * params[1]
    states = base[:, None] + np.outer(phi, g)
    return params, states, bounds, phi


def test_podpce_build_on_quadratic_single_mode() -> None:
    params, states, bounds, _ = podpce_quadratic_fixture()
    s = build_podpce(params, states, PceConfig(bounds, max_degree=4), split_seed=11, modes=1)
    assert evr(s.state_basis, 1) >= 0.999
    assert s.pce.selected_degrees == (2,)
    assert s.empirical_errors[0] <= 1e-10

    # Prediction matches the constructed truth at fresh points.
    _, _, _, phi = podpce_quadratic_fixture()
    rng = np.random.default_rng(5)
    fresh = rng.uniform(bounds[:, 0], bounds[:, 1], size=(20, 2))
    mean_g = (0.8 * params[0] ** 2 - params[0] * params[1] + 0.3 * params[1]).mean()
    for x in fresh:
        g = 0.8 * x[0] ** 2 - x[0] * x[1] + 0.3 * x[1]
        exact = states.mean(axis=1) + phi * (g - mean_g)
        predicted = podpce_predict(s, x)
        scale = max(np.linalg.norm(exact), 1.0)
        assert np.linalg.norm(predicted - exact) / scale <= 1e-6


def test_podpce_constant_states_select_intercepts() -> None:
    rng = np.random.default_rng(6)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    params = rng.uniform(0, 1, size=(60, 2)).T
    base = rng.standard_normal(10)
    states = base[:, None] + 1e-9 * rng.standard_normal((10, 60))
    s = build_podpce(params, states, PceConfig(bounds, max_degree=3), split_seed=3, modes=2)
    assert all(p == 0 for p in s.pce.selected_degrees)


def test_podpce_prediction_stays_in_retained_subspace() -> None:
    params, states, bounds, _ = podpce_quadratic_fixture(seed=8)
    s = build_podpce(params, states, PceConfig(bounds, 3), split_seed=5, modes=1)
    phi_d = s.state_basis.modes[:, : s.d]
    x = np.array([0.5, 0.5])
    deviation = podpce_predict(s, x) - s.state_basis.mean
    residual = deviation - phi_d @ (phi_d.T @ deviation)
    assert np.linalg.norm(residual) <= 1e-10


def test_podpce_heldout_member_error_bound() -> None:
    params_all = toymodel.sample_parameters(410, seed=42)
    states_all = toymodel.propagate(params_all)
    train_p, train_y = params_all[:400].T, states_all[:, :400]
    held_p, held_y = params_all[400:], states_all[:, 400:]
    # Standardize states by training-ensemble statistics.
    mean = train_y.mean(axis=1)
    std = train_y.std(axis=1)
    std = np.maximum(std, 1e-12)
    z_train = (train_y - mean[:, None]) / std[:, None]
    s = build_podpce(
        train_p,
        z_train,
        PceConfig(toymodel.PARAMETER_BOUNDS, max_degree=3),
        split_seed=1,
        evr_threshold=0.95,
    )
    lam = s.state_basis.eigenvalues[: s.d]
    slack = 5.0 * np.sqrt(float(np.sum(lam * s.empirical_errors)))
    m_y = z_train.shape[0]
    for x, y in zip(held_p, held_y.T):
        z = (y - mean) / std
        projected = reconstruct(s.state_basis, project(s.state_basis, z))
        err_proj = np.linalg.norm(z - projected)
        err_pred = np.linalg.norm(z - podpce_predict(s, x))
        assert err_pred <= err_proj + slack


def hand_surrogate(delta, bias=None, lam=(4.0, 1.0), d=1, n=5):
    """Two-mode identity-basis surrogate with prescribed learning errors."""
    lam = np.asarray(lam, dtype=float)
    coeffs, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, 2)))
    basis = PodBasis(
        mean=np.zeros(2),
        modes=np.eye(2),
        singular_values=np.sqrt(lam),
        coefficients=coeffs,
        retained=d,
    )
    delta = np.asarray(delta, dtype=float)
    bias = np.zeros(d) if bias is None else np.asarray(bias, dtype=float)
    pce_basis = make_basis(np.array([[0.0, 1.0]]), 0)
    pce = PceModel(
        basis=pce_basis,
        coefficients=np.zeros((d, 1)),
        empirical_errors=delta,
        selected_degrees=(0,) * d,
        validation_bias=bias,
    )
    return PodPceSurrogate(
        state_basis=basis,
        pce=pce,
        n_members=n,
    )


def test_metamodel_covariance_hand_case() -> None:
    s = hand_surrogate(delta=[0.01])
    cov = metamodel_error_covariance(s, np.zeros((2, 2)))
    assert np.allclose(cov.matrix, np.diag([0.04, 0.25]), atol=1e-14)
    assert cov.n_retained == 1
    assert np.allclose(cov.weights[:1], [0.04])  # retained: lambda_1 delta_1
    assert np.allclose(cov.weights[1:], [0.25])  # truncated: lambda_2 / (n - 1)


def test_metamodel_covariance_reduces_to_r_without_truncation() -> None:
    params, states, bounds, _ = podpce_quadratic_fixture(seed=9, n=40)
    s = build_podpce(params, states, PceConfig(bounds, 2), split_seed=2, modes=1)
    # Zero learning error and no truncation: doctor the pieces.
    full = PodPceSurrogate(
        state_basis=truncate(s.state_basis, modes=s.state_basis.n_modes),
        pce=PceModel(
            basis=s.pce.basis,
            coefficients=np.zeros((s.state_basis.n_modes, len(s.pce.basis.indices))),
            empirical_errors=np.zeros(s.state_basis.n_modes),
            selected_degrees=(0,) * s.state_basis.n_modes,
            validation_bias=np.zeros(s.state_basis.n_modes),
        ),
        n_members=s.n_members,
    )
    rng = np.random.default_rng(10)
    a = rng.standard_normal((25, 25))
    r = a @ a.T / 25.0
    cov = metamodel_error_covariance(full, r)
    assert np.allclose(cov.matrix, r, atol=1e-12)


def test_metamodel_covariance_trace_identity_and_psd() -> None:
    params = toymodel.sample_parameters(80, seed=3)
    states = toymodel.propagate(params)
    mean = states.mean(axis=1, keepdims=True)
    std = np.maximum(states.std(axis=1, keepdims=True), 1e-12)
    z = (states - mean) / std
    s = build_podpce(
        params.T, z, PceConfig(toymodel.PARAMETER_BOUNDS, 2), split_seed=7, modes=4
    )
    m_y = z.shape[0]
    r = np.diag(np.full(m_y, 0.05))
    cov = metamodel_error_covariance(s, r)

    lam = s.state_basis.eigenvalues
    d = s.d
    n = s.n_members
    expected_gain = lam[d:].sum() / (n - 1) + float(np.sum(lam[:d] * s.empirical_errors))
    gain = np.trace(cov.matrix) - np.trace(r)
    assert gain == pytest.approx(expected_gain, rel=1e-8)

    diff_eigs = np.linalg.eigvalsh(cov.matrix - r)
    assert diff_eigs.min() >= -1e-10 * np.trace(cov.matrix) / m_y

    # delta = 0 keeps only the truncation term.
    zero_pce = PodPceSurrogate(
        state_basis=s.state_basis,
        pce=PceModel(
            basis=s.pce.basis,
            coefficients=s.pce.coefficients,
            empirical_errors=np.zeros(d),
            selected_degrees=s.pce.selected_degrees,
            validation_bias=np.zeros(d),
        ),
        n_members=n,
    )
    cov0 = metamodel_error_covariance(zero_pce, r)
    gain0 = np.trace(cov0.matrix) - np.trace(r)
    assert gain0 == pytest.approx(lam[d:].sum() / (n - 1), rel=1e-8)


def test_corrected_covariance_bias_zero_matches_plain() -> None:
    s = hand_surrogate(delta=[0.01], bias=[0.0])
    plain = metamodel_error_covariance(s, np.zeros((2, 2)))
    corrected = corrected_error_covariance(s, np.zeros((2, 2)))
    assert np.allclose(plain.matrix, corrected.matrix)
    assert corrected.floored_modes == ()


def test_corrected_covariance_full_bias_removes_pce_term() -> None:
    s = hand_surrogate(delta=[0.01], bias=[0.1])  # bias^2 == delta
    corrected = corrected_error_covariance(s, np.zeros((2, 2)))
    assert np.allclose(corrected.weights[: corrected.n_retained], 0.0, atol=1e-15)
    assert np.allclose(corrected.matrix, np.diag([0.0, 0.25]))


def test_corrected_covariance_floors_and_flags() -> None:
    s = hand_surrogate(delta=[0.01], bias=[0.2])  # bias^2 > delta
    corrected = corrected_error_covariance(s, np.zeros((2, 2)))
    assert corrected.floored_modes == (0,)
    assert np.allclose(corrected.weights[: corrected.n_retained], 0.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    corrected=st.booleans(),
    r_form=st.sampled_from(["variances", "diagonal", "dense"]),
)
def test_augmented_covariance_parts_over_random_ensembles(seed, corrected, r_form) -> None:
    # R~ - R is PSD, the retained modes weigh lambda_k var_k and the
    # truncated ones lambda_k / (n - 1), the dense matrix is the sum of its
    # parts, and the trace gain is the sum of the weights, i.e. the paper's
    # sum_{k>d} lambda_k / (n - 1) + sum_{k<=d} lambda_k var_k.
    rng = np.random.default_rng(seed)
    m_y, n = int(rng.integers(3, 16)), int(rng.integers(8, 40))
    params = rng.uniform(0.0, 1.0, (2, n))
    features = np.vstack([np.sin(3 * params[0]), params[1] ** 2, params[0] * params[1]])
    states = rng.standard_normal((m_y, 3)) @ features + 0.1 * rng.standard_normal((m_y, n))
    d = int(rng.integers(1, min(m_y, n) - 1))
    s = build_podpce(params, states, PceConfig(np.array([[0.0, 1.0]] * 2), 2), seed % 1000, modes=d)
    variances = rng.uniform(0.01, 0.2, m_y)
    a = rng.standard_normal((m_y, m_y))
    r = {"variances": variances, "diagonal": np.diag(variances), "dense": a @ a.T / m_y}[r_form]
    r_dense = np.diag(r) if r.ndim == 1 else r

    if corrected:
        cov = corrected_error_covariance(s, r)
        var = np.maximum(s.empirical_errors - s.validation_bias**2, 0.0)
    else:
        cov = metamodel_error_covariance(s, r)
        var = s.empirical_errors
    basis = s.state_basis
    lam = basis.eigenvalues
    gain = float(np.sum(lam[:d] * var) + lam[d:].sum() / (n - 1))

    diff = cov.matrix - r_dense
    scale = max(float(np.abs(cov.matrix).max()), 1e-300)
    assert np.linalg.eigvalsh(diff).min() >= -1e-12 * scale
    w = cov.weights
    assert cov.n_retained == d and cov.modes is basis.modes
    np.testing.assert_allclose(w[:d], lam[:d] * var, rtol=1e-12)
    np.testing.assert_allclose(w[d:], lam[d:] / (n - 1), rtol=1e-12)
    pce_part, pod_part = ((cov.modes[:, k] * w[k]) @ cov.modes[:, k].T
                          for k in (slice(None, d), slice(d, None)))
    np.testing.assert_allclose(cov.matrix, r_dense + pod_part + pce_part, rtol=0.0, atol=1e-14 * scale)
    assert np.trace(diff) == pytest.approx(cov.weights.sum(), rel=1e-10)
    assert cov.weights.sum() == pytest.approx(gain, rel=1e-10)
    floored = list(cov.floored_modes)  # kept with weight 0
    assert np.all(cov.weights[floored] == 0.0)
    assert np.all(np.delete(cov.weights, floored) > 0.0)


def test_biased_learner_measured_bias() -> None:
    # Learner trained against targets offset by a constant c; validated
    # against unshifted truth. The measured bias recovers c and the
    # corrected variance collapses to the noise floor.
    rng = np.random.default_rng(12)
    bounds = np.array([[-1.0, 1.0]])
    c = 0.5
    noise = 0.1
    x_train = rng.uniform(-1, 1, size=(600, 1))
    x_val = rng.uniform(-1, 1, size=(200, 1))
    f = lambda x: 0.3 * x[:, 0]
    y_train = f(x_train) + c + noise * rng.standard_normal(600)
    y_val = f(x_val) + noise * rng.standard_normal(200)
    model = select_degree(x_train, y_train[:, None], x_val, y_val[:, None], PceConfig(bounds, 2))
    delta = model.empirical_errors[0]
    bias = model.validation_bias[0]
    assert bias == pytest.approx(-c, abs=0.05)
    assert delta == pytest.approx(c**2 + noise**2, rel=0.20)
    corrected_var = delta - bias**2
    assert corrected_var == pytest.approx(noise**2, rel=0.20)


def test_build_rejects_mismatched_members() -> None:
    with pytest.raises(ValueError, match="member count"):
        build_poden(np.zeros((2, 5)), np.zeros((3, 6)), modes=1)
    with pytest.raises(ValueError, match="at least 4"):
        build_podpce(
            np.zeros((2, 3)),
            np.zeros((3, 3)),
            PceConfig(np.array([[0.0, 1.0], [0.0, 1.0]])),
            split_seed=0,
            modes=1,
        )


def test_poden_names_a_nan_parameter_with_or_without_a_state_basis() -> None:
    rng = np.random.default_rng(4)
    params, states = rng.standard_normal((3, 10)), rng.standard_normal((6, 10))
    params[2, 7] = np.nan
    for state_basis in (None, fit_pod(states)):
        with pytest.raises(ValueError, match="non-finite snapshot entry at row 2, column 7"):
            build_poden(params, states, modes=2, state_basis=state_basis)
