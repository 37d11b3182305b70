import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda import toymodel
from romda.io import load_surrogate, save_surrogate
from romda.pod import (
    ZERO_SV_RTOL,
    PodBasis,
    SnapshotMatrix,
    evr,
    fit_pod,
    fit_stacked_pod,
    numerical_rank,
    reconstruct,
    truncate,
)
from romda.surrogate import PodEnSurrogate, Scaling, Standardizer


def project(basis, y):
    """Reduced coordinates of a state, Sigma_d^-1 Phi_d^T (y - mean): the
    oracle inverse of ``reconstruct``."""
    d = basis.retained
    return (basis.modes[:, :d].T @ (y - basis.mean)) / basis.singular_values[:d]


def random_orthonormal(rng, m, k):
    q, r = np.linalg.qr(rng.standard_normal((m, k)))
    return q * np.sign(np.diag(r))[None, :]


def test_fit_rejects_a_constant_matrix() -> None:
    # Every member equals the mean: there is no mode to keep. The second
    # matrix's row means do not round exactly; its centered entries of 1e-16
    # have one singular value (3e-16) that is roundoff, not a mode.
    for data in (np.tile(np.array([1.0, -2.0, 0.5])[:, None], (1, 6)),
                 np.tile([0.1, 0.7, 1.3], (7, 1)).T):
        with pytest.raises(ValueError, match="no variance"):
            fit_pod(data)


def test_no_zero_singular_value_reaches_project(tmp_path) -> None:
    # project divides by the retained singular values without a guard: neither
    # a fit nor a stored document can hand it a basis with a zero one.
    data = np.tile(np.array([1.0, 2.0])[:, None], (1, 4))
    with pytest.raises(ValueError, match="no variance"):
        fit_pod(data)
    zero = PodBasis(
        mean=np.array([1.0, 2.0]),
        modes=np.eye(2),
        singular_values=np.zeros(2),
        coefficients=np.zeros((4, 2)),
        retained=2,
    )
    unit = Standardizer(np.zeros(1), np.ones(1))
    scaling = Scaling(unit, unit, np.array([[-1.0, 1.0]]))
    save_surrogate(tmp_path / "zero.json", PodEnSurrogate(zero, m_x=1), scaling)
    with pytest.raises(ValueError, match="exceeds the numerical rank 0"):
        load_surrogate(tmp_path / "zero.json")


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
    r = min(shape[0], shape[1] - 1)  # centering removes one direction
    assert basis.modes.shape == (shape[0], r) and basis.coefficients.shape == (shape[1], r)
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(r), atol=1e-10)
    gram = basis.coefficients.T @ basis.coefficients
    assert np.allclose(gram, np.eye(r), atol=1e-10)
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
        modes=basis.modes[:, :2],
        singular_values=np.array([3.0, 1.0]),
        coefficients=basis.coefficients[:, :2],
        retained=2,
    )
    assert evr(doctored, 1) == pytest.approx(0.9)
    assert evr(doctored, 2) == pytest.approx(1.0, abs=1e-12)

    two_two = PodBasis(
        mean=basis.mean,
        modes=basis.modes[:, :2],
        singular_values=np.array([2.0, 2.0]),
        coefficients=basis.coefficients[:, :2],
        retained=2,
    )
    assert evr(two_two, 1) == pytest.approx(0.5)

    values = [evr(basis, d) for d in range(1, basis.n_modes + 1)]
    assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match=r"\[1, 2\], got 3"):
        evr(doctored, 3)


def test_truncate_by_threshold_and_count() -> None:
    rng = np.random.default_rng(5)
    base = fit_pod(rng.standard_normal((8, 6)))
    doctored = PodBasis(
        mean=base.mean,
        modes=base.modes[:, :2],
        singular_values=np.array([3.0, 1.0]),
        coefficients=base.coefficients[:, :2],
        retained=2,
    )
    assert truncate(doctored, evr_threshold=0.85).retained == 1
    assert truncate(doctored, evr_threshold=0.95).retained == 2

    five = fit_pod(rng.standard_normal((5, 9)))
    cut = truncate(five, modes=2)
    assert cut.retained == 2
    # The leading modes are the retained block; the other modes stay in the
    # truncated basis.
    assert np.array_equal(cut.modes, five.modes)
    assert np.array_equal(cut.singular_values, five.singular_values)

    with pytest.raises(ValueError, match=r"\[1, 5\].*got 6"):
        truncate(five, modes=6)
    with pytest.raises(ValueError):
        truncate(five, evr_threshold=0.0)
    with pytest.raises(ValueError):
        truncate(five, modes=2, evr_threshold=0.5)


@pytest.mark.parametrize("modes", [True, 2.7, 2.0, "2"])
def test_truncate_takes_an_integer_mode_count(modes) -> None:
    # A bool or a float would be cut to an int: True to 1 mode, 2.7 to 2.
    five = fit_pod(np.random.default_rng(3).standard_normal((5, 9)))
    with pytest.raises(ValueError, match=f"^modes: counts must be integers, got {modes!r}$"):
        truncate(five, modes=modes)
    assert truncate(five, modes=np.int64(2)).retained == 2


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
    assert np.allclose(cut.modes[:, :3].T @ resid, 0.0, atol=1e-10)

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
    phi = basis.modes[:, :basis.retained]
    err_pod = np.linalg.norm(centered - phi @ (phi.T @ centered))
    for _ in range(20):
        q = random_orthonormal(rng, 40, 5)
        err_q = np.linalg.norm(centered - q @ (q.T @ centered))
        assert err_pod <= err_q + 1e-12


def test_tall_matrix_agrees_with_direct_svd() -> None:
    # Tall matrix (m = 15 n): the spectrum, orthonormality and reconstruction
    # hold, checked against a plain SVD of the same data. Centering leaves
    # rank n - 1, and the one dropped singular value is numerically zero.
    rng = np.random.default_rng(25)
    left = rng.standard_normal((300, 6))
    right = rng.standard_normal((6, 20))
    data = left @ right + rng.standard_normal((300, 20)) * 0.01
    basis = fit_pod(data)
    centered = data - data.mean(axis=1, keepdims=True)
    svals_direct = np.linalg.svd(centered, compute_uv=False)
    r = data.shape[1] - 1
    assert basis.n_modes == r and svals_direct[r] <= ZERO_SV_RTOL * svals_direct[0]
    assert np.allclose(basis.singular_values, svals_direct[:r], atol=1e-10 * svals_direct[0])
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(r), atol=1e-10)
    recon = basis.mean[:, None] + basis.modes @ np.diag(basis.singular_values) @ basis.coefficients.T
    assert np.linalg.norm(recon - data) <= 1e-8 * np.linalg.norm(data)


def test_snapshot_matrix_wrapper() -> None:
    # The labelled wrapper carries its data untouched: fitting snap.data, as
    # ``romda fit-pod`` does, gives the basis of the plain array, one
    # coefficient row per member id.
    data = np.random.default_rng(1).standard_normal((3, 4))
    snap = SnapshotMatrix(
        data=data, row_labels=("a", "b", "c"), member_ids=("m0", "m1", "m2", "m3")
    )
    basis = fit_pod(snap.data)
    assert basis.n_members == len(snap.member_ids) == 4
    assert basis.mean.shape == (len(snap.row_labels),)
    plain = fit_pod(data)
    assert np.array_equal(basis.modes, plain.modes)
    assert np.array_equal(basis.singular_values, plain.singular_values)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    ratio=st.floats(0.05, 3.0),
    rank=st.integers(1, 12),
    noise=st.sampled_from([0.0, 1e-13]),
    data=st.data(),
)
def test_snapshot_matrices_match_a_plain_svd(seed, m, ratio, rank, noise, data) -> None:
    # Tall (n <= m) and wide (n > m) matrices. A planted spectrum 1, 1/2,
    # 1/4, ... keeps the retained subspaces separated; the optional noise has
    # spectral norm 1e-13 sigma_1, below the zero threshold, so the basis
    # ends at the planted rank.
    rng = np.random.default_rng(seed)
    n = max(2, round(ratio * m))
    rank = min(rank, m, n - 1)
    phi = random_orthonormal(rng, m, rank)
    coeff = rng.standard_normal((n, rank))
    coeff, _ = np.linalg.qr(coeff - coeff.mean(axis=0))  # zero-mean columns
    planted = 0.5 ** np.arange(rank)
    snapshots = rng.uniform(-3.0, 3.0, m)[:, None] + (phi * planted) @ coeff.T
    if noise:
        jitter = rng.standard_normal((m, n))
        snapshots += noise * jitter / np.linalg.norm(jitter, 2)
    basis = fit_pod(snapshots)

    centered = snapshots - snapshots.mean(axis=1, keepdims=True)
    u, svals, _ = np.linalg.svd(centered, full_matrices=False)
    assert basis.modes.shape == (m, rank) and basis.coefficients.shape == (n, rank)
    assert np.all(np.abs(basis.singular_values - svals[:rank]) <= 1e-13 * svals[0])
    assert np.all(svals[rank:] <= ZERO_SV_RTOL * svals[0])

    d = data.draw(st.integers(1, rank), label="retained")
    ours, oracle = basis.modes[:, :d], u[:, :d]
    assert np.max(np.abs(ours @ ours.T - oracle @ oracle.T)) <= 1e-10

    coeffs = basis.coefficients
    assert np.max(np.abs(coeffs.T @ coeffs - np.eye(rank))) <= 1e-10
    recon = basis.modes @ (basis.singular_values[:, None] * basis.coefficients.T)
    assert np.linalg.norm(recon - centered) <= 1e-12 * np.linalg.norm(centered)


@pytest.mark.parametrize("n", [16, 100, 400, 800])
def test_toy_ensembles_keep_the_thin_svd_rank(n) -> None:
    # The pivoted-QR cut keeps more rows than the rank rule needs (216 and
    # 221 of 570 at n = 800 against ranks 111 and 113), so it never reaches
    # a mode that rule keeps.
    for seed in (0, 7):
        states = toymodel.propagate(toymodel.sample_parameters(n, seed=seed))
        basis = fit_pod(states)
        svals = np.linalg.svd(states - states.mean(axis=1, keepdims=True), compute_uv=False)
        r = numerical_rank(svals)
        assert basis.n_modes == r
        assert np.all(np.abs(basis.singular_values - svals[:r]) <= 1e-13 * svals[0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["tall", "wide", "rank_deficient", "graded"]),
    m_x=st.integers(1, 5),
    rows_in_span=st.booleans(),
    data=st.data(),
)
def test_stacked_update_matches_a_fit_of_the_stack(seed, shape, m_x, rows_in_span, data) -> None:
    # The update's joint basis against fit_pod of the stacked matrix: tall,
    # wide and rank-deficient states, with the extra rows independent of the states or, when
    # rows_in_span, linear in them (then the stack has the states' rank and
    # the rows add nothing outside their span).
    rng = np.random.default_rng(seed)
    m, n = {"tall": (30, 12), "wide": (8, 30), "rank_deficient": (20, 25), "graded": (20, 25)}[shape]
    if shape == "rank_deficient":
        states = rng.standard_normal((m, 4)) @ rng.standard_normal((4, n))
    elif shape == "graded":
        # Singular values from 1 down to 1e-10: the projected coefficients of
        # the smallest modes are orthonormal only to ~eps * sigma_1 / sigma_r.
        coeff, _ = np.linalg.qr(rng.standard_normal((n, 12)))
        states = (random_orthonormal(rng, m, 12) * np.logspace(0, -10, 12)) @ coeff.T
    else:
        states = rng.standard_normal((m, n))
    states += rng.uniform(-3.0, 3.0, m)[:, None]
    if rows_in_span:
        rows = rng.standard_normal((m_x, m)) @ states
    else:
        rows = rng.standard_normal((m_x, n))
    stack = np.vstack([rows, states])

    joint = fit_stacked_pod(rows, states, fit_pod(states))
    oracle = fit_pod(stack)
    r = oracle.n_modes
    assert joint.n_modes == r and joint.retained == r
    sigma_1 = oracle.singular_values[0]
    assert np.max(np.abs(joint.singular_values - oracle.singular_values)) <= 1e-13 * sigma_1
    assert np.array_equal(joint.mean, stack.mean(axis=1))
    assert joint.modes.flags.c_contiguous

    # Retained projectors, to the accuracy that the gap after d allows.
    d = data.draw(st.integers(1, r), label="retained")
    svals = oracle.singular_values
    gap = svals[d - 1] - (svals[d] if d < r else 0.0)
    ours, want = joint.modes[:, :d], oracle.modes[:, :d]
    assert np.max(np.abs(ours @ ours.T - want @ want.T)) <= 1e-13 * sigma_1 / gap + 1e-12

    coeffs = joint.coefficients
    # Orthonormal to the accuracy of the projection rule at the condition
    # number of the kept spectrum.
    assert np.max(np.abs(coeffs.T @ coeffs - np.eye(r))) <= 1e-14 * sigma_1 / svals[-1] + 1e-12
    centered = stack - stack.mean(axis=1, keepdims=True)
    recon = joint.modes @ (joint.singular_values[:, None] * coeffs.T)
    assert np.linalg.norm(recon - centered) <= 1e-12 * np.linalg.norm(centered)


def test_stacked_update_checks_its_inputs() -> None:
    rng = np.random.default_rng(3)
    states = rng.standard_normal((6, 9))
    basis = fit_pod(states)
    rows = rng.standard_normal((2, 9))
    rows[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite snapshot entry at row 1, column 4"):
        fit_stacked_pod(rows, states, basis)
    with pytest.raises(ValueError, match="do not match"):
        fit_stacked_pod(rng.standard_normal((2, 8)), states, basis)
    with pytest.raises(ValueError, match="do not match"):
        fit_stacked_pod(rng.standard_normal((2, 9)), states[:5], basis)
