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
validation mean error from each mode's variance. Both additions live in the
span of the orthonormal state modes, so the augmented covariance is held as
its parts, R~ = R + Phi W Phi^T with W >= 0 diagonal over the r modes that
carry variance (r is at most the ensemble rank, far below m_y), and solvers
whiten it in r-space; the dense m_y x m_y matrix is built only on request.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pce import PceConfig, PceModel, pce_eval, select_degree, split_members
from .pod import PodBasis, fit_pod, reconstruct, truncate

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
    """Augmented observation-error covariance R~ = R + Phi diag(weights) Phi^T.

    Kept as its parts: the base R as given, the orthonormal state modes that
    carry variance and their weights. The first ``n_retained`` columns are
    retained modes (learning error, ``pce_term``), the rest truncated ones
    (ensemble variance, ``pod_term``). Modes with a zero singular value or a
    zero weight are dropped. The dense properties are for audit and tests.
    """

    r: np.ndarray  # (m_y,) variances or (m_y, m_y) symmetric, as given
    modes: np.ndarray  # (m_y, k) orthonormal columns of the state basis
    weights: np.ndarray  # (k,) nonzero
    n_retained: int  # leading columns of ``modes`` that are retained modes
    kind: str  # one of COVARIANCE_KINDS
    floored_modes: tuple[int, ...] = ()  # modes whose corrected variance hit 0

    @property
    def shape(self) -> tuple[int, int]:
        m_y = self.r.shape[0]
        return (m_y, m_y)

    def _term(self, cols: slice) -> np.ndarray:
        phi = self.modes[:, cols]
        return (phi * self.weights[cols]) @ phi.T

    @property
    def pod_term(self) -> np.ndarray:
        """Truncated-mode ensemble variance, dense (m_y, m_y)."""
        return self._term(slice(self.n_retained, None))

    @property
    def pce_term(self) -> np.ndarray:
        """Per-mode learning variance in state space, dense (m_y, m_y)."""
        return self._term(slice(None, self.n_retained))

    @property
    def matrix(self) -> np.ndarray:
        """R + pod_term + pce_term, symmetrized, dense (m_y, m_y)."""
        r = np.diag(self.r) if self.r.ndim == 1 else self.r
        matrix = r + self.pod_term + self.pce_term
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
    kind: str,
    floored_modes: tuple[int, ...] = (),
) -> ErrorCovariance:
    """R plus the per-mode learning ``variances`` (weights lambda_k var_k on
    the retained modes) plus the truncated-mode variance (lambda_k / (n - 1)
    on the complement), over the modes with a nonzero singular value."""
    basis = surrogate.state_basis
    d = basis.retained
    rank = basis.nonzero_rank
    weights = basis.eigenvalues[:rank].copy()
    weights[:d] *= variances[:rank]
    weights[d:] /= surrogate.n_members - 1
    keep = weights != 0.0
    modes = basis.modes[:, :rank]  # a view, unless a mode is dropped below
    if not keep.all():
        modes, weights = modes[:, keep], weights[keep]
    return ErrorCovariance(
        r=r,
        modes=modes,
        weights=weights,
        n_retained=int(np.count_nonzero(keep[:d])),
        kind=kind,
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
    kind: str, surrogate: PodPceSurrogate | PodEnSurrogate, r: np.ndarray
) -> np.ndarray | ErrorCovariance:
    """Observation covariance a solver runs against, by kind.

    ``"r"`` returns R as given (1-D variances are never densified);
    ``"r_tilde"`` and ``"r_tilde_corrected"`` return the structured
    augmented covariance of a POD-PCE surrogate.
    """
    if kind not in COVARIANCE_KINDS:
        raise ValueError(f"covariance kind must be one of {COVARIANCE_KINDS}, got {kind!r}")
    if kind == "r":
        return r
    if not isinstance(surrogate, PodPceSurrogate):
        raise ValueError(f"covariance {kind!r} needs a POD-PCE surrogate; PODEn runs with 'r'")
    assemble = metamodel_error_covariance if kind == "r_tilde" else corrected_error_covariance
    return assemble(surrogate, r)
