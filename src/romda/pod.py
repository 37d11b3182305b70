"""Snapshot-matrix Proper Orthogonal Decomposition.

A snapshot matrix U (rows: state components, columns: ensemble members) is
centered by its column mean and factored as U = mean + Phi * Sigma * N^T with
orthonormal Phi (modes) and N (expansion coefficients), singular values
Sigma sorted descending. A column-pivoted QR finds the rank of the centered
matrix and the SVD of the rows it keeps gives Phi and Sigma, one route for
every shape (see :func:`fit_pod`). A basis ends at the numerical rank r of
the centered matrix: only the modes with a nonzero singular value are kept,
so every mode can be inverted against. Rows stacked on top of a factored
matrix (PODEn's parameters over its states) are added by a low-rank update
of its basis (see :func:`fit_stacked_pod`), not by a second factorization.
Truncation at rank d <= r keeps the leading d modes as the retained block;
the other r - d modes stay in the basis.

Memory: above its (m, n) input a fit holds at most two arrays of that size
at a time, plus its (m, k) pivoted block and modes; a stacked fit holds one
centered (m + k, n) stack. A whole build, propagation included, peaks near
four ensemble-sized arrays (``tests/test_memory.py``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import qr

from .checks import EVR, check_counts, check_reals

# Singular values at or below this fraction of the largest are treated as
# zero; their modes are not kept (see numerical_rank).
ZERO_SV_RTOL = 1e-12

# Pivoted-QR rows with |R_kk| <= PIVOT_RTOL * |R_11| are cut before the SVD;
# sqrt(m) * PIVOT_RTOL stays far below ZERO_SV_RTOL (see fit_pod).
PIVOT_RTOL = 1e-15


@dataclass(frozen=True)
class SnapshotMatrix:
    """Paired realizations from a forward model, one member per column."""

    data: np.ndarray  # (m, n)
    row_labels: tuple[str, ...]
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class PodBasis:
    """Decomposition at its numerical rank plus the currently retained rank.

    Immutable; safe for concurrent reads. Invariants (orthonormal modes,
    descending singular values above the zero threshold, reconstruction
    identity) are established by :func:`fit_pod`, not re-checked here.
    """

    mean: np.ndarray  # (m,)
    modes: np.ndarray  # (m, r), r = numerical rank
    singular_values: np.ndarray  # (r,) descending, > ZERO_SV_RTOL * sigma_1
    coefficients: np.ndarray  # (n, r) orthonormal columns
    retained: int  # d, 1 <= d <= r

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]

    @property
    def n_members(self) -> int:
        return self.coefficients.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.singular_values**2


def check_finite(data: np.ndarray, field: str = "") -> None:
    """Reject a snapshot matrix with a NaN or infinite entry, naming the
    first (after ``field``, when given)."""
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        named = f"{field}: " if field else ""
        raise ValueError(f"{named}non-finite snapshot entry at row {i}, column {j}")


def numerical_rank(singular_values: np.ndarray) -> int:
    """Number of (descending) singular values above ZERO_SV_RTOL * sigma_1."""
    svals = np.asarray(singular_values, dtype=float)
    return int(np.sum(svals > ZERO_SV_RTOL * np.max(svals, initial=0.0)))


def _fix_mode_signs(modes: np.ndarray) -> np.ndarray:
    """Flip column signs so each mode's largest-magnitude entry is positive."""
    anchor = np.argmax(np.abs(modes), axis=0)
    return modes * np.sign(modes[anchor, np.arange(modes.shape[1])])


def fit_pod(snapshots: np.ndarray) -> PodBasis:
    """Decompose a snapshot matrix at its numerical rank r; all r modes
    retained initially.

    One rank-revealing route for every shape (Businger & Golub 1965; Chan
    1987): the R-only column-pivoted QR X^T P = Q R of the centered (m, n)
    matrix X, a cut of the rows with |R_kk| <= PIVOT_RTOL * |R_11|, and the
    thin SVD of the kept rows with the pivot undone, (R_k P^T)^T = U S W^T,
    so X = U S (Q_k W)^T up to a block of norm <= sqrt(m) PIVOT_RTOL sigma_1.
    A matrix whose every row is constant is rejected before it is factored
    (its centered entries are roundoff, not variance); otherwise the modes
    whose singular value is at or below ZERO_SV_RTOL * sigma_1 are dropped,
    which leaves at least one. Mode signs are fixed so each mode's
    largest-magnitude entry is positive; coefficients are X^T Phi / Sigma.
    """
    data = np.asarray(snapshots, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"snapshot data must be 2D (m, n), got shape {data.shape}")
    m, n = data.shape
    if m < 1:
        raise ValueError("snapshot matrix needs at least one row")
    if n < 2:
        raise ValueError(f"need at least 2 ensemble members for POD, got {n}")
    check_finite(data)
    if np.array_equal(data.max(axis=1), data.min(axis=1)):
        raise ValueError("snapshot matrix has no variance: every member equals the mean")

    mean = data.mean(axis=1)
    # Above its input the fit holds two (m, n) arrays at most, plus the
    # (m, k) block and modes: X^T (Fortran-ordered, as LAPACK wants it) is
    # factored in place and goes with the factorization, R once its kept
    # rows are cut, and the block and V^T before X is formed again for the
    # projections. A kept copy of X would make three.
    (_, _), r, pivot = qr((data - mean[:, None]).T, mode="raw", pivoting=True,
                          overwrite_a=True, check_finite=False)
    diag = np.abs(np.diagonal(r))
    block = np.empty((m, np.count_nonzero(diag > PIVOT_RTOL * diag[0])))
    block[pivot] = r[: block.shape[1]].T  # R_k P^T, transposed
    del r
    modes, svals = np.linalg.svd(block, full_matrices=False)[:2]
    del block
    return _at_rank(mean, data - mean[:, None], modes, svals)


def fit_stacked_pod(rows: np.ndarray, snapshots: np.ndarray, basis: PodBasis) -> PodBasis:
    """Decompose the stack [rows; snapshots] from ``basis = fit_pod(snapshots)``.

    A low-rank modification of the thin SVD (Brand 2006, Linear Algebra
    Appl. 415): the k new rows are added to the basis's r modes, so the
    (m + k, n) stack is never factored. With X = Phi Sigma V^T the centered
    snapshots and P the centered rows:

    * V = Q T is re-orthonormalized by a thin QR (the projected coefficients
      of modes near the zero threshold are not orthonormal to working
      precision);
    * A = P Q and E = P - A Q^T, the part of the rows outside the span of V,
      with the R-only QR E^T = W K;
    * the stack is [[I, 0], [0, Phi]] C [Q W]^T with the small core
      C = [[A, K^T], [Sigma T^T, 0]] of k + r rows, and both outer factors
      have orthonormal columns, so the SVD C = U S Z^T gives the stack's
      modes [[I, 0], [0, Phi]] U and singular values S.

    The rank, sign and coefficient rules are fit_pod's. ``basis`` is used at
    its numerical rank whatever its retained count; the result retains all
    its modes.
    """
    rows = np.asarray(rows, dtype=float)
    data = np.asarray(snapshots, dtype=float)
    m, n = basis.modes.shape[0], basis.n_members
    if data.shape != (m, n) or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(
            f"rows {rows.shape} and snapshots {data.shape} do not match a basis of "
            f"{m} rows and {n} members"
        )
    check_finite(rows)

    row_mean = rows.mean(axis=1)
    p_c = rows - row_mean[:, None]
    q, t = np.linalg.qr(basis.coefficients)
    a = p_c @ q
    k_tri = np.linalg.qr((p_c - a @ q.T).T, mode="r")  # K of E^T = W K
    k, r = rows.shape[0], q.shape[1]
    core = np.zeros((k + r, r + k_tri.shape[0]))
    core[:k, :r] = a
    core[:k, r:] = k_tri.T
    core[k:, :r] = basis.singular_values[:, None] * t.T
    u, svals, _ = np.linalg.svd(core, full_matrices=False)
    modes = np.vstack([u[:k], basis.modes @ u[k:]])
    centered = np.empty((k + m, n))  # the centered stack, filled in place
    centered[:k] = p_c
    np.subtract(data, basis.mean[:, None], out=centered[k:])
    return _at_rank(np.concatenate([row_mean, basis.mean]), centered, modes, svals)


def _at_rank(mean: np.ndarray, centered: np.ndarray, modes: np.ndarray, svals: np.ndarray) -> PodBasis:
    """The basis of the factored ``centered`` matrix at its numerical rank:
    signs fixed, coefficients the projections X^T Phi / Sigma."""
    r = numerical_rank(svals)
    modes, svals = _fix_mode_signs(modes[:, :r]), svals[:r]
    return PodBasis(
        mean=mean,
        modes=modes,
        singular_values=svals,
        coefficients=(centered.T @ modes) / svals,
        retained=r,
    )


def evr(basis: PodBasis, d: int) -> float:
    """Explained variance rate of the first ``d`` modes.

    Cumulative eigenvalue fraction: sum_{k<=d} sigma_k^2 / sum_k sigma_k^2.
    """
    r = basis.n_modes
    if not 1 <= d <= r:
        raise ValueError(f"d must be in [1, {r}], got {d}")
    lam = basis.eigenvalues
    return float(lam[:d].sum() / lam.sum())


class ModeCountError(ValueError):
    """A retained mode count outside [1, r], r the numerical rank."""


def truncate(
    basis: PodBasis,
    *,
    modes: int | None = None,
    evr_threshold: float | None = None,
) -> PodBasis:
    """New basis retaining d modes, by explicit count or smallest-rank EVR.

    All r modes are kept; the retained block of the result is the first d
    columns of ``modes`` and the first d singular values.
    """
    if (modes is None) == (evr_threshold is None):
        raise ValueError("specify exactly one of modes= or evr_threshold=")
    r = basis.n_modes
    if modes is not None:
        check_counts("modes", (modes,), 1, "mode counts start at 1")
        d = int(modes)
        if d > r:
            raise ModeCountError(
                f"retained mode count must be in [1, {r}] (the numerical rank of the "
                f"snapshots), got {d}"
            )
    else:
        check_reals("evr_threshold", (evr_threshold,), *EVR)
        lam = basis.eigenvalues
        ratios = np.cumsum(lam) / lam.sum()
        d = min(int(np.searchsorted(ratios, float(evr_threshold) - 1e-15) + 1), r)
    return replace(basis, retained=d)


def reconstruct(basis: PodBasis, nu: np.ndarray) -> np.ndarray:
    """State from reduced coordinates: mean + Phi_d Sigma_d nu."""
    nu = np.asarray(nu, dtype=float)
    d = basis.retained
    if nu.shape != (d,):
        raise ValueError(f"reduced vector must have shape ({d},), got {nu.shape}")
    return basis.mean + basis.modes[:, :d] @ (basis.singular_values[:d] * nu)
