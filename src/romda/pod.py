"""Snapshot-matrix Proper Orthogonal Decomposition.

A snapshot matrix U (rows: state components, columns: ensemble members) is
centered by its column mean and factored as U = mean + Phi * Sigma * N^T with
orthonormal Phi (modes) and N (expansion coefficients), singular values
Sigma sorted descending, by one thin SVD of the centered matrix whatever
its shape. Truncation at rank d keeps the leading d modes as the retained
block; the complement stays in the basis.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Singular values below this fraction of the largest are treated as zero;
# their modes are never inverted against.
ZERO_SV_RTOL = 1e-12


@dataclass(frozen=True)
class SnapshotMatrix:
    """Paired realizations from a forward model, one member per column."""

    data: np.ndarray  # (m, n)
    row_labels: tuple[str, ...]
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class PodView:
    """The retained column block of a decomposition."""

    mean: np.ndarray  # (m,)
    modes: np.ndarray  # (m, k)
    singular_values: np.ndarray  # (k,)
    coefficients: np.ndarray  # (n, k)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.singular_values**2


@dataclass(frozen=True)
class PodBasis:
    """Full decomposition plus the currently retained rank.

    Immutable; safe for concurrent reads. Invariants (orthonormal modes,
    descending singular values, reconstruction identity) are established by
    :func:`fit_pod`, not re-checked here.
    """

    mean: np.ndarray  # (m,)
    modes: np.ndarray  # (m, e), e = min(m, n)
    singular_values: np.ndarray  # (e,) descending, >= 0
    coefficients: np.ndarray  # (n, e), zero columns on the zero-sv block
    retained: int  # d, 1 <= d <= e

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]

    @property
    def n_members(self) -> int:
        return self.coefficients.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.singular_values**2

    @property
    def nonzero_rank(self) -> int:
        """Number of singular values above the zero threshold."""
        if self.singular_values.size == 0 or self.singular_values[0] <= 0.0:
            return 0
        return int(np.sum(self.singular_values > ZERO_SV_RTOL * self.singular_values[0]))

    @property
    def retained_view(self) -> PodView:
        d = self.retained
        return PodView(
            mean=self.mean,
            modes=self.modes[:, :d],
            singular_values=self.singular_values[:d],
            coefficients=self.coefficients[:, :d],
        )


def _first_nonfinite(data: np.ndarray) -> tuple[int, int]:
    bad = np.argwhere(~np.isfinite(data))
    i, j = bad[0]
    return int(i), int(j)


def _fix_mode_signs(modes: np.ndarray) -> np.ndarray:
    """Flip column signs so each mode's largest-magnitude entry is positive."""
    if modes.size == 0:
        return modes
    anchor = np.argmax(np.abs(modes), axis=0)
    signs = np.sign(modes[anchor, np.arange(modes.shape[1])])
    signs[signs == 0.0] = 1.0
    return modes * signs


def fit_pod(snapshots: SnapshotMatrix | np.ndarray) -> PodBasis:
    """Decompose a snapshot matrix; all modes retained initially.

    One thin SVD of the centered matrix, for tall and wide matrices alike.
    Mode signs are fixed so each mode's largest-magnitude entry is positive;
    coefficients are zero on the numerically zero part of the spectrum.
    """
    if isinstance(snapshots, SnapshotMatrix):
        data = np.asarray(snapshots.data, dtype=float)
    else:
        data = np.asarray(snapshots, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"snapshot data must be 2D (m, n), got shape {data.shape}")
    m, n = data.shape
    if m < 1:
        raise ValueError("snapshot matrix needs at least one row")
    if n < 2:
        raise ValueError(f"need at least 2 ensemble members for POD, got {n}")
    if not np.all(np.isfinite(data)):
        i, j = _first_nonfinite(data)
        raise ValueError(f"non-finite snapshot entry at row {i}, column {j}")

    mean = data.mean(axis=1)
    centered = data - mean[:, None]
    e = min(m, n)

    modes, svals, _ = np.linalg.svd(centered, full_matrices=False)
    modes = _fix_mode_signs(modes)
    nz = svals > (svals[0] * ZERO_SV_RTOL if svals[0] > 0 else np.inf)
    # Coefficients by projection, restricted to the nonzero spectrum.
    coeffs = np.zeros((n, e))
    coeffs[:, nz] = (centered.T @ modes[:, nz]) / svals[nz]

    return PodBasis(
        mean=mean,
        modes=modes,
        singular_values=svals,
        coefficients=coeffs,
        retained=e,
    )


def evr(basis: PodBasis, d: int) -> float:
    """Explained variance rate of the first ``d`` modes.

    Cumulative eigenvalue fraction: sum_{k<=d} sigma_k^2 / sum_k sigma_k^2.
    """
    e = basis.n_modes
    if not 1 <= d <= e:
        raise ValueError(f"d must be in [1, {e}], got {d}")
    lam = basis.eigenvalues
    total = float(lam.sum())
    if total <= 0.0:
        raise ValueError("explained variance rate undefined for an all-zero spectrum")
    return float(lam[:d].sum() / total)


def truncate(
    basis: PodBasis,
    *,
    modes: int | None = None,
    evr_threshold: float | None = None,
) -> PodBasis:
    """New basis retaining d modes, by explicit count or smallest-rank EVR.

    The full decomposition is kept; the retained block of the result is
    exposed as ``retained_view``, the first d columns of ``modes``.
    """
    if (modes is None) == (evr_threshold is None):
        raise ValueError("specify exactly one of modes= or evr_threshold=")
    e = basis.n_modes
    if modes is not None:
        d = int(modes)
        if not 1 <= d <= e:
            raise ValueError(f"retained mode count must be in [1, {e}], got {d}")
    else:
        tau = float(evr_threshold)
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"EVR threshold must be in (0, 1], got {tau}")
        lam = basis.eigenvalues
        total = float(lam.sum())
        if total <= 0.0:
            raise ValueError("explained variance rate undefined for an all-zero spectrum")
        ratios = np.cumsum(lam) / total
        d = int(np.searchsorted(ratios, tau - 1e-15) + 1)
        d = min(d, e)
    return replace(basis, retained=d)


def project(basis: PodBasis, y: np.ndarray) -> np.ndarray:
    """Reduced coordinates of a state: nu = Sigma_d^-1 Phi_d^T (y - mean)."""
    y = np.asarray(y, dtype=float)
    m = basis.mean.shape[0]
    if y.shape != (m,):
        raise ValueError(f"state vector must have shape ({m},), got {y.shape}")
    d = basis.retained
    svals = basis.singular_values[:d]
    top = basis.singular_values[0] if basis.n_modes else 0.0
    if np.any(svals <= top * ZERO_SV_RTOL):
        raise ValueError(
            "retained block contains a numerically zero singular value; "
            "projection is not invertible there"
        )
    return (basis.modes[:, :d].T @ (y - basis.mean)) / svals


def reconstruct(basis: PodBasis, nu: np.ndarray) -> np.ndarray:
    """State from reduced coordinates: mean + Phi_d Sigma_d nu."""
    nu = np.asarray(nu, dtype=float)
    d = basis.retained
    if nu.shape != (d,):
        raise ValueError(f"reduced vector must have shape ({d},), got {nu.shape}")
    return basis.mean + basis.modes[:, :d] @ (basis.singular_values[:d] * nu)
