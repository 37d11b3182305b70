"""Reduced-order surrogates of a forward model and their error covariances.

Two metamodels over an ensemble of paired parameter/state realizations:

* a linear one from a joint parameter-state decomposition (the stacked
  snapshot matrix is factored once; the mode matrix splits into parameter
  and state blocks sharing the reduced coordinates);
* a nonlinear one from a state-only decomposition whose retained expansion
  coefficients are each learned as a sparse polynomial of the parameters.

For the nonlinear surrogate, an augmented observation-error covariance adds
the truncated-mode ensemble variance and the per-mode learning error mapped
back to state space; a bias-corrected variant subtracts the squared
validation mean error from each mode's variance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pce import PceConfig, PceModel, pce_eval, select_degree, split_members
from .pod import ZERO_SV_RTOL, PodBasis, fit_pod, reconstruct, truncate

COVARIANCE_KINDS = ("r", "r_tilde", "r_tilde_corrected")


@dataclass(frozen=True)
class PodEnSurrogate:
    """Joint parameter-state linear surrogate; immutable after build."""

    basis: PodBasis  # decomposition of the stacked (m_x + m_y, n) matrix
    m_x: int

    @property
    def d(self) -> int:
        return self.basis.retained

    @property
    def m_y(self) -> int:
        return self.basis.mean.shape[0] - self.m_x

    @property
    def n_members(self) -> int:
        return self.basis.n_members

    @property
    def joint_mean(self) -> np.ndarray:
        return self.basis.mean

    @property
    def phi_x(self) -> np.ndarray:
        return self.basis.modes[: self.m_x, : self.d]

    @property
    def phi_y(self) -> np.ndarray:
        return self.basis.modes[self.m_x :, : self.d]

    @property
    def sigma(self) -> np.ndarray:
        return self.basis.singular_values[: self.d]


@dataclass(frozen=True)
class PodPceSurrogate:
    """State decomposition plus per-mode polynomial map; immutable after build."""

    state_basis: PodBasis  # retained d + complement
    pce: PceModel  # m_x inputs -> d modes
    parameter_bounds: np.ndarray  # (m_x, 2), the declared input box
    n_members: int

    @property
    def d(self) -> int:
        return self.state_basis.retained

    @property
    def m_y(self) -> int:
        return self.state_basis.mean.shape[0]

    @property
    def empirical_errors(self) -> np.ndarray:
        return self.pce.empirical_errors

    @property
    def validation_bias(self) -> np.ndarray:
        return self.pce.validation_bias


@dataclass(frozen=True)
class ErrorCovariance:
    """Observation/model error covariance with its additive components kept
    for audit."""

    matrix: np.ndarray  # (m_y, m_y) symmetric
    kind: str  # one of COVARIANCE_KINDS
    pod_term: np.ndarray
    pce_term: np.ndarray
    floored_modes: tuple[int, ...] = ()  # modes whose corrected variance hit 0


def _check_pair(params: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=float)
    states = np.asarray(states, dtype=float)
    if params.ndim != 2 or states.ndim != 2:
        raise ValueError("params and states must be 2D (rows: components, columns: members)")
    if params.shape[1] != states.shape[1]:
        raise ValueError(
            f"member count mismatch: params has {params.shape[1]} columns, "
            f"states has {states.shape[1]}"
        )
    if params.shape[1] < 2:
        raise ValueError("need at least 2 ensemble members")
    return params, states


def build_poden(
    params: np.ndarray,
    states: np.ndarray,
    *,
    modes: int | None = None,
    evr_threshold: float | None = None,
) -> PodEnSurrogate:
    """Fit the joint linear surrogate on column-paired ensembles.

    Inputs are taken as given; callers standardize rows beforehand so that
    parameters and heterogeneous state components carry comparable weight.
    """
    params, states = _check_pair(params, states)
    stacked = np.vstack([params, states])
    basis = fit_pod(stacked)
    basis = truncate(basis, modes=modes, evr_threshold=evr_threshold)
    return PodEnSurrogate(basis=basis, m_x=params.shape[0])


def poden_predict(surrogate: PodEnSurrogate, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameter and state vectors generated by reduced coordinates ``nu``."""
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (surrogate.d,):
        raise ValueError(f"nu must have shape ({surrogate.d},), got {nu.shape}")
    scaled = surrogate.sigma * nu
    x = surrogate.joint_mean[: surrogate.m_x] + surrogate.phi_x @ scaled
    y = surrogate.joint_mean[surrogate.m_x :] + surrogate.phi_y @ scaled
    return x, y


def build_podpce(
    params: np.ndarray,
    states: np.ndarray,
    pce_config: PceConfig,
    split_seed: int,
    *,
    modes: int | None = None,
    evr_threshold: float | None = None,
) -> PodPceSurrogate:
    """Fit the nonlinear surrogate: state decomposition, then one sparse
    polynomial per retained mode.

    Members are shuffled by ``split_seed`` and split 75/25 into a training
    set (coefficient fit) and a validation set (degree choice and the
    empirical error stored per mode). The split is fixed at build time, so
    the resulting error covariance is deterministic per seed.
    """
    params, states = _check_pair(params, states)
    n = params.shape[1]
    train_idx, val_idx = split_members(n, split_seed)

    basis = truncate(fit_pod(states), modes=modes, evr_threshold=evr_threshold)
    d = basis.retained
    targets = basis.coefficients[:, :d]  # (n, d)
    inputs = params.T  # (n, m_x)

    pce = select_degree(
        inputs[train_idx],
        targets[train_idx],
        inputs[val_idx],
        targets[val_idx],
        pce_config,
    )
    return PodPceSurrogate(
        state_basis=basis,
        pce=pce,
        parameter_bounds=np.asarray(pce_config.bounds, dtype=float),
        n_members=n,
    )


def podpce_predict(surrogate: PodPceSurrogate, x: np.ndarray) -> np.ndarray:
    """State prediction: mean + Phi_d Sigma_d nu_hat(x)."""
    nu = pce_eval(surrogate.pce, np.asarray(x, dtype=float))
    return reconstruct(surrogate.state_basis, nu)


def _complement_pod_term(basis: PodBasis, n_members: int) -> np.ndarray:
    """Ensemble-anomaly covariance of the truncated modes.

    (1 / (n - 1)) * Phi_comp Lambda_comp Phi_comp^T; modes with numerically
    zero singular values carry no variance and are skipped.
    """
    comp = basis.complement_view
    lam = comp.eigenvalues
    top = basis.singular_values[0] if basis.n_modes else 0.0
    keep = comp.singular_values > top * ZERO_SV_RTOL
    if not np.any(keep):
        m = basis.mean.shape[0]
        return np.zeros((m, m))
    phi = comp.modes[:, keep]
    weights = lam[keep] / (n_members - 1)
    return (phi * weights) @ phi.T


def _pce_term(basis: PodBasis, variances: np.ndarray) -> np.ndarray:
    """Per-mode learning variance mapped to state space:
    Phi_d diag(lambda_k * var_k) Phi_d^T."""
    ret = basis.retained_view
    weights = ret.eigenvalues * variances
    return (ret.modes * weights) @ ret.modes.T


def _check_observation_cov(r: np.ndarray, m_y: int) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (m_y, m_y):
        raise ValueError(f"observation covariance must have shape ({m_y}, {m_y}), got {r.shape}")
    if not np.allclose(r, r.T, atol=1e-12 * max(1.0, float(np.abs(r).max()))):
        raise ValueError("observation covariance must be symmetric")
    return r


def _augmented_covariance(
    surrogate: PodPceSurrogate,
    r: np.ndarray,
    variances: np.ndarray,
    kind: str,
    floored_modes: tuple[int, ...] = (),
) -> ErrorCovariance:
    """R plus the truncated-mode variance plus the per-mode learning
    ``variances`` mapped to state space, symmetrized."""
    pod_term = _complement_pod_term(surrogate.state_basis, surrogate.n_members)
    pce_term = _pce_term(surrogate.state_basis, variances)
    matrix = r + pod_term + pce_term
    matrix = 0.5 * (matrix + matrix.T)
    return ErrorCovariance(
        matrix=matrix,
        kind=kind,
        pod_term=pod_term,
        pce_term=pce_term,
        floored_modes=floored_modes,
    )


def metamodel_error_covariance(surrogate: PodPceSurrogate, r: np.ndarray) -> ErrorCovariance:
    """Augment R with the surrogate's own error budget.

    Adds the truncated-mode ensemble variance and the empirical per-mode
    learning errors weighted by their eigenvalues, both expressed through
    the orthonormal state modes. The result is symmetric and differs from R
    by a positive semidefinite matrix.
    """
    r = _check_observation_cov(r, surrogate.m_y)
    return _augmented_covariance(surrogate, r, surrogate.empirical_errors, "r_tilde")


def corrected_error_covariance(
    surrogate: PodPceSurrogate,
    r: np.ndarray,
    validation_bias: np.ndarray | None = None,
) -> ErrorCovariance:
    """Bias-corrected variant: per-mode variance delta_k - bias_k^2.

    ``validation_bias`` defaults to the mean validation error recorded at
    build time. Variances are floored at zero; floored modes are reported
    in the result for audit.
    """
    r = _check_observation_cov(r, surrogate.m_y)
    if validation_bias is None:
        validation_bias = surrogate.validation_bias
    bias = np.asarray(validation_bias, dtype=float)
    if bias.shape != (surrogate.d,):
        raise ValueError(f"validation_bias must have shape ({surrogate.d},), got {bias.shape}")
    delta = surrogate.empirical_errors
    variances = delta - bias**2
    floored = np.nonzero(variances < -1e-12 * np.maximum(delta, 1e-300))[0]
    variances = np.maximum(variances, 0.0)
    return _augmented_covariance(
        surrogate, r, variances, "r_tilde_corrected", tuple(int(k) for k in floored)
    )


def observation_covariance(
    kind: str, surrogate: PodPceSurrogate | PodEnSurrogate, r_variances: np.ndarray
) -> np.ndarray:
    """Observation covariance a solver runs against, by kind.

    ``"r"`` returns the 1-D variances of R as given (never densified);
    ``"r_tilde"`` and ``"r_tilde_corrected"`` return the dense augmented
    matrix of a POD-PCE surrogate.
    """
    if kind not in COVARIANCE_KINDS:
        raise ValueError(f"covariance kind must be one of {COVARIANCE_KINDS}, got {kind!r}")
    if kind == "r":
        return r_variances
    if not isinstance(surrogate, PodPceSurrogate):
        raise ValueError(f"covariance {kind!r} needs a POD-PCE surrogate; PODEn runs with 'r'")
    assemble = metamodel_error_covariance if kind == "r_tilde" else corrected_error_covariance
    return assemble(surrogate, np.diag(r_variances)).matrix
