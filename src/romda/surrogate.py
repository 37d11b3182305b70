"""Reduced-order surrogates of a forward model and their error covariances.

Two metamodels over an ensemble of paired parameter/state realizations:

* a linear one from a joint parameter-state decomposition (the state
  basis extended by the parameter rows; the mode matrix splits into
  parameter and state blocks sharing the reduced coordinates);
* a nonlinear one from a state-only decomposition whose retained expansion
  coefficients are each learned as a sparse polynomial of the parameters.

For the nonlinear surrogate, an augmented observation-error covariance adds
the truncated-mode ensemble variance and the per-mode learning error mapped
back to state space; a bias-corrected variant subtracts the squared
validation mean error from each mode's variance. Both additions live in the
span of the orthonormal state modes, so the augmented covariance is held as
its parts, R~ = R + Phi W Phi^T with W >= 0 diagonal over the r modes that
carry variance (r is at most the ensemble rank, far below m_y), and solvers
whiten it in r-space; the dense m_y x m_y matrix is built only on request.
A :class:`Scaling` records the standardized coordinates a surrogate was
built in and its physical parameter box.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .pce import PceConfig, PceModel, pce_eval, select_degree, split_members
from .pod import PodBasis, check_finite, fit_pod, fit_stacked_pod, reconstruct, truncate

log = logging.getLogger(__name__)

COVARIANCE_KINDS = ("r", "r_tilde", "r_tilde_corrected")


@dataclass(frozen=True)
class Standardizer:
    """Per-component affine map z = (y - mean) / std."""

    mean: np.ndarray  # (m,)
    std: np.ndarray  # (m,)

    @classmethod
    def fit(cls, ensemble: np.ndarray) -> "Standardizer":
        ensemble = np.asarray(ensemble, dtype=float)
        if ensemble.ndim != 2 or ensemble.shape[1] < 2:
            raise ValueError("standardizer needs a (m, n >= 2) ensemble")
        check_finite(ensemble)
        mean = ensemble.mean(axis=1)
        std = ensemble.std(axis=1)
        floor = 1e-12 + 1e-8 * np.abs(mean)
        if np.any(std < floor):
            log.warning("flooring %d zero-variance components", int(np.sum(std < floor)))
        return cls(mean=mean, std=np.maximum(std, floor))

    @classmethod
    def of_box(cls, bounds: np.ndarray) -> "Standardizer":
        """The map of a parameter box (rows (low, high)) onto [-1, 1]: its
        midpoint and half-range."""
        return cls(mean=bounds.mean(axis=1), std=(bounds[:, 1] - bounds[:, 0]) / 2.0)

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return (values - self.mean) / self.std
        z = values - self.mean[:, None]  # fresh, so divided in place; values is never written
        z /= self.std[:, None]
        return z

    def inverse(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return values * self.std + self.mean
        return values * self.std[:, None] + self.mean[:, None]

    def variance_diag(self, variances: np.ndarray) -> np.ndarray:
        """Diagonal variances mapped into standardized coordinates."""
        return np.asarray(variances, dtype=float) / self.std**2


@dataclass(frozen=True)
class Scaling:
    """The coordinates a surrogate was built in: the parameter and state
    standardizers and the physical parameter box (rows (low, high))."""

    params: Standardizer
    states: Standardizer
    bounds: np.ndarray  # (m_x, 2) physical

    @property
    def box(self) -> np.ndarray:
        """The parameter box in standardized coordinates."""
        return np.column_stack(
            [self.params.transform(self.bounds[:, 0]), self.params.transform(self.bounds[:, 1])]
        )


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

    state_basis: PodBasis  # retained d of its r modes
    pce: PceModel  # m_x inputs -> d modes
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
    """Augmented observation-error covariance R~ = R + Phi diag(weights) Phi^T.

    Kept as its parts: the base R as given, all r orthonormal modes of the
    state basis (which ends at its numerical rank), and their weights. The
    first ``n_retained`` columns are retained modes (weights: learning
    error), the rest truncated ones (weights: ensemble variance).
    A mode whose weight is zero (a floored corrected variance, say) is kept
    with weight 0, so every R~ of one surrogate build has the same mode
    block whatever its mode count and kind. The dense matrix is for audit
    and tests.
    """

    r: np.ndarray  # (m_y,) variances or (m_y, m_y) symmetric, as given
    modes: np.ndarray  # (m_y, r) the state basis's modes
    weights: np.ndarray  # (r,) >= 0
    n_retained: int  # leading columns of ``modes`` that are retained modes
    floored_modes: tuple[int, ...] = ()  # modes whose corrected variance hit 0

    @property
    def shape(self) -> tuple[int, int]:
        m_y = self.r.shape[0]
        return (m_y, m_y)

    @property
    def matrix(self) -> np.ndarray:
        """R + Phi W Phi^T, symmetrized, dense (m_y, m_y)."""
        r = np.diag(self.r) if self.r.ndim == 1 else self.r
        matrix = r + (self.modes * self.weights) @ self.modes.T
        return 0.5 * (matrix + matrix.T)


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
    state_basis: PodBasis | None = None,
) -> PodEnSurrogate:
    """Fit the joint linear surrogate on column-paired ensembles.

    The joint basis of the stack [params; states] is the state basis
    extended by the parameter rows (:func:`~romda.pod.fit_stacked_pod`).
    ``state_basis`` is ``fit_pod(states)`` when a caller already has it,
    else it is fitted here. Inputs are taken as given; callers standardize
    rows beforehand so that parameters and heterogeneous state components
    carry comparable weight.
    """
    params, states = _check_pair(params, states)
    if state_basis is None:
        state_basis = fit_pod(states)
    basis = fit_stacked_pod(params, states, state_basis)
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
    state_basis: PodBasis | None = None,
) -> PodPceSurrogate:
    """Fit the nonlinear surrogate: state decomposition (``state_basis``,
    fitted here when not given), then one sparse polynomial per retained
    mode.

    Members are shuffled by ``split_seed`` and split 75/25 into a training
    set (coefficient fit) and a validation set (degree choice and the
    empirical error stored per mode). The split is fixed at build time, so
    the resulting error covariance is deterministic per seed.
    """
    params, states = _check_pair(params, states)
    n = params.shape[1]
    train_idx, val_idx = split_members(n, split_seed)

    if state_basis is None:
        state_basis = fit_pod(states)
    basis = truncate(state_basis, modes=modes, evr_threshold=evr_threshold)
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
        n_members=n,
    )


def podpce_predict(surrogate: PodPceSurrogate, x: np.ndarray) -> np.ndarray:
    """State prediction: mean + Phi_d Sigma_d nu_hat(x)."""
    return reconstruct(surrogate.state_basis, pce_eval(surrogate.pce, x))


def _check_observation_cov(r: np.ndarray, m_y: int) -> np.ndarray:
    # Shape only: a dense R's symmetry is checked once, where it is whitened.
    r = np.asarray(r, dtype=float)
    if r.shape not in ((m_y,), (m_y, m_y)):
        raise ValueError(
            f"observation covariance must have shape ({m_y},) or ({m_y}, {m_y}), got {r.shape}"
        )
    return r


def _augmented_covariance(
    surrogate: PodPceSurrogate,
    r: np.ndarray,
    variances: np.ndarray,
    floored_modes: tuple[int, ...] = (),
) -> ErrorCovariance:
    """R plus the per-mode learning ``variances`` (weights lambda_k var_k on
    the retained modes) plus the truncated-mode variance (lambda_k / (n - 1)
    on the other modes of the basis)."""
    basis = surrogate.state_basis
    d = basis.retained
    weights = basis.singular_values**2
    weights[:d] *= variances
    weights[d:] /= surrogate.n_members - 1
    return ErrorCovariance(
        r=r,
        modes=basis.modes,  # the same block for every d and kind
        weights=weights,
        n_retained=d,
        floored_modes=floored_modes,
    )


def metamodel_error_covariance(surrogate: PodPceSurrogate, r: np.ndarray) -> ErrorCovariance:
    """Augment R with the surrogate's own error budget.

    Adds the truncated-mode ensemble variance and the empirical per-mode
    learning errors weighted by their eigenvalues, both expressed through
    the orthonormal state modes. ``r`` is R's (m_y,) variances or an
    (m_y, m_y) symmetric matrix. The result differs from R by a positive
    semidefinite low-rank term.
    """
    r = _check_observation_cov(r, surrogate.m_y)
    return _augmented_covariance(surrogate, r, surrogate.empirical_errors)


def corrected_error_covariance(surrogate: PodPceSurrogate, r: np.ndarray) -> ErrorCovariance:
    """Bias-corrected variant: per-mode variance delta_k - bias_k^2, with
    bias_k the mean validation error recorded at build time.

    Variances are floored at zero; floored modes are reported in the result
    for audit.
    """
    r = _check_observation_cov(r, surrogate.m_y)
    bias = surrogate.validation_bias
    if bias.shape != (surrogate.d,):  # a loaded document may disagree
        raise ValueError(f"validation_bias must have shape ({surrogate.d},), got {bias.shape}")
    delta = surrogate.empirical_errors
    variances = delta - bias**2
    floored = np.nonzero(variances < -1e-12 * np.maximum(delta, 1e-300))[0]
    variances = np.maximum(variances, 0.0)
    return _augmented_covariance(surrogate, r, variances, tuple(int(k) for k in floored))


def observation_covariance(
    kind: str, surrogate: PodPceSurrogate | PodEnSurrogate, r: np.ndarray
) -> np.ndarray | ErrorCovariance:
    """Observation covariance a solver runs against, by kind.

    ``"r"`` returns R as given (1-D variances are never densified);
    ``"r_tilde"`` and ``"r_tilde_corrected"`` return the structured
    augmented covariance of a POD-PCE surrogate.
    """
    if kind not in COVARIANCE_KINDS:
        raise ValueError(f"covariance: kind must be one of {COVARIANCE_KINDS}, got {kind!r}")
    if kind == "r":
        return r
    if not isinstance(surrogate, PodPceSurrogate):
        raise ValueError(f"covariance: {kind!r} needs a POD-PCE surrogate; PODEn runs with 'r'")
    assemble = metamodel_error_covariance if kind == "r_tilde" else corrected_error_covariance
    return assemble(surrogate, r)
