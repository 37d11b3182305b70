import numpy as np
import pytest

from romda.pod import PodBasis, SnapshotMatrix, evr, fit_pod, project, reconstruct, truncate


def random_orthonormal(rng, m, k):
    q, r = np.linalg.qr(rng.standard_normal((m, k)))
    return q * np.sign(np.diag(r))[None, :]


def test_zero_variance_matrix_gives_mean_and_zero_spectrum() -> None:
    column = np.array([1.0, -2.0, 0.5])
    data = np.tile(column[:, None], (1, 6))
    basis = fit_pod(data)
    assert np.allclose(basis.mean, column)
    assert np.all(basis.singular_values == 0.0)
    recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
    assert np.allclose(recon, data)


def test_planted_singular_values_recovered() -> None:
    # Construct U = mean + Phi diag(3, 1) N^T from hand-chosen orthonormal factors
    # whose coefficient columns sum to zero, so the ensemble mean is exactly `mean`.
    rng = np.random.default_rng(42)
    phi = random_orthonormal(rng, 2, 2)
    n_mat = np.column_stack(
        [
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
        ]
    )
    mean = np.array([0.3, -0.7])
    data = mean[:, None] + phi @ np.diag([3.0, 1.0]) @ n_mat.T
    basis = fit_pod(data)
    assert np.allclose(basis.mean, mean, atol=1e-12)
    assert np.allclose(basis.singular_values, [3.0, 1.0], atol=1e-12)
    recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
    assert np.allclose(recon, data, atol=1e-12)


def test_rank_one_matrix_recovers_mode_direction() -> None:
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(5)
    phi /= np.linalg.norm(phi)
    nu = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
    data = 4.0 * np.outer(phi, nu)
    data -= data.mean(axis=1, keepdims=True)  # already centered up to fp
    basis = fit_pod(data)
    top = basis.singular_values[0]
    assert np.sum(basis.singular_values > 1e-10 * top) == 1
    mode = basis.modes[:, 0]
    assert np.allclose(np.abs(mode @ phi), 1.0, atol=1e-12)


@pytest.mark.parametrize("shape", [(20, 12), (12, 20), (200, 100), (150, 7)])
def test_orthonormality_and_round_trip(shape) -> None:
    rng = np.random.default_rng(7)
    data = rng.standard_normal(shape)
    basis = fit_pod(data)
    e = min(shape)
    assert basis.modes.shape == (shape[0], e)
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(e), atol=1e-10)
    nz = basis.nonzero_rank
    gram = basis.coefficients[:, :nz].T @ basis.coefficients[:, :nz]
    assert np.allclose(gram, np.eye(nz), atol=1e-10)
    assert np.all(np.diff(basis.singular_values) <= 1e-12)
    recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
    assert np.linalg.norm(recon - data) <= 1e-8 * np.linalg.norm(data)


def test_mode_sign_convention() -> None:
    rng = np.random.default_rng(11)
    data = rng.standard_normal((30, 10))
    basis = fit_pod(data)
    for k in range(basis.n_modes):
        col = basis.modes[:, k]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_fit_rejects_bad_input() -> None:
    with pytest.raises(ValueError, match="at least 2"):
        fit_pod(np.ones((4, 1)))
    bad = np.ones((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="row 1, column 2"):
        fit_pod(bad)
    with pytest.raises(ValueError, match="2D"):
        fit_pod(np.ones(5))


def test_evr_values_and_monotonicity() -> None:
    basis = fit_pod(np.random.default_rng(0).standard_normal((10, 6)))
    doctored = PodBasis(
        mean=basis.mean,
        modes=basis.modes,
        singular_values=np.array([3.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
        coefficients=basis.coefficients,
        retained=6,
    )
    assert evr(doctored, 1) == pytest.approx(0.9)
    assert evr(doctored, 6) == pytest.approx(1.0, abs=1e-12)

    two_two = PodBasis(
        mean=basis.mean,
        modes=basis.modes,
        singular_values=np.array([2.0, 2.0, 0.0, 0.0, 0.0, 0.0]),
        coefficients=basis.coefficients,
        retained=6,
    )
    assert evr(two_two, 1) == pytest.approx(0.5)

    values = [evr(basis, d) for d in range(1, basis.n_modes + 1)]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-12)

    zero = PodBasis(
        mean=basis.mean,
        modes=basis.modes,
        singular_values=np.zeros(6),
        coefficients=basis.coefficients,
        retained=6,
    )
    with pytest.raises(ValueError, match="all-zero spectrum"):
        evr(zero, 1)


def test_truncate_by_threshold_and_count() -> None:
    rng = np.random.default_rng(5)
    base = fit_pod(rng.standard_normal((8, 6)))
    doctored = PodBasis(
        mean=base.mean,
        modes=base.modes,
        singular_values=np.array([3.0, 1.0, 0.0, 0.0, 0.0]),
        coefficients=base.coefficients[:, :5],
        retained=5,
    )
    assert truncate(doctored, evr_threshold=0.85).retained == 1
    assert truncate(doctored, evr_threshold=0.95).retained == 2

    five = fit_pod(rng.standard_normal((5, 9)))
    cut = truncate(five, modes=2)
    assert cut.retained == 2
    assert np.array_equal(cut.retained_view.modes, five.modes[:, :2])
    assert np.array_equal(cut.retained_view.singular_values, five.singular_values[:2])
    # The complement stays in the truncated basis.
    assert np.array_equal(cut.modes, five.modes)
    assert np.array_equal(cut.singular_values, five.singular_values)

    with pytest.raises(ValueError):
        truncate(five, modes=6)
    with pytest.raises(ValueError):
        truncate(five, evr_threshold=0.0)
    with pytest.raises(ValueError):
        truncate(five, modes=2, evr_threshold=0.5)


def test_project_basics() -> None:
    # Wide matrix: after centering the spectrum stays fully nonzero (rank m <= n - 1).
    rng = np.random.default_rng(9)
    data = rng.standard_normal((8, 12))
    basis = fit_pod(data)
    assert np.allclose(project(basis, basis.mean), 0.0, atol=1e-12)

    y = basis.mean + basis.singular_values[0] * basis.modes[:, 0]
    nu = project(basis, y)
    expect = np.zeros(basis.retained)
    expect[0] = 1.0
    assert np.allclose(nu, expect, atol=1e-10)

    # At full rank the projection of a training snapshot matches its stored coefficients.
    j = 3
    nu_j = project(basis, data[:, j])
    assert np.allclose(nu_j, basis.coefficients[j], atol=1e-9)


def test_project_rejects_zero_singular_values() -> None:
    data = np.tile(np.array([1.0, 2.0])[:, None], (1, 4))
    basis = fit_pod(data)
    with pytest.raises(ValueError, match="zero singular value"):
        project(basis, np.array([1.0, 2.0]))


def test_reconstruct_round_trips() -> None:
    rng = np.random.default_rng(13)
    data = rng.standard_normal((7, 9))
    basis = fit_pod(data)
    assert np.allclose(reconstruct(basis, np.zeros(basis.retained)), basis.mean)

    for j in range(data.shape[1]):
        y = reconstruct(basis, project(basis, data[:, j]))
        assert np.linalg.norm(y - data[:, j]) <= 1e-8 * max(np.linalg.norm(data[:, j]), 1.0)

    # Truncated: residual orthogonal to the retained modes.
    cut = truncate(basis, modes=3)
    y = data[:, 2]
    resid = y - reconstruct(cut, project(cut, y))
    assert np.allclose(cut.retained_view.modes.T @ resid, 0.0, atol=1e-10)

    with pytest.raises(ValueError, match="shape"):
        reconstruct(cut, np.zeros(5))


def test_project_reconstruct_identity_on_reduced_space() -> None:
    rng = np.random.default_rng(17)
    basis = truncate(fit_pod(rng.standard_normal((10, 6))), modes=4)
    nu = rng.standard_normal(4)
    assert np.allclose(project(basis, reconstruct(basis, nu)), nu, atol=1e-10)


def test_rank_d_optimality_vs_random_bases() -> None:
    rng = np.random.default_rng(21)
    data = rng.standard_normal((40, 25))
    centered = data - data.mean(axis=1, keepdims=True)
    basis = truncate(fit_pod(data), modes=5)
    phi = basis.retained_view.modes
    err_pod = np.linalg.norm(centered - phi @ (phi.T @ centered))
    for _ in range(20):
        q = random_orthonormal(rng, 40, 5)
        err_q = np.linalg.norm(centered - q @ (q.T @ centered))
        assert err_pod <= err_q + 1e-12


def test_snapshot_method_agrees_with_direct_svd() -> None:
    # Tall matrix (m = 15 n): the spectrum, orthonormality and reconstruction
    # still hold, checked against a plain SVD of the same data.
    rng = np.random.default_rng(25)
    left = rng.standard_normal((300, 6))
    right = rng.standard_normal((6, 20))
    data = left @ right + rng.standard_normal((300, 20)) * 0.01
    basis = fit_pod(data)
    centered = data - data.mean(axis=1, keepdims=True)
    svals_direct = np.linalg.svd(centered, compute_uv=False)
    assert np.allclose(basis.singular_values, svals_direct, atol=1e-10 * svals_direct[0])
    e = min(data.shape)
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(e), atol=1e-10)
    recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
    assert np.linalg.norm(recon - data) <= 1e-8 * np.linalg.norm(data)


def test_snapshot_matrix_wrapper() -> None:
    data = np.random.default_rng(1).standard_normal((3, 4))
    snap = SnapshotMatrix(
        data=data, row_labels=("a", "b", "c"), member_ids=("m0", "m1", "m2", "m3")
    )
    basis = fit_pod(snap)
    assert basis.n_members == 4
    plain = fit_pod(data)
    assert np.array_equal(basis.modes, plain.modes)
    assert np.array_equal(basis.singular_values, plain.singular_values)
