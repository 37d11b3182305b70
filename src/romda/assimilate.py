"""Variational solvers over surrogates and forward models.

The two-term quadratic-form cost J(x) = 1/2 ||x - x_b||^2_{B^-1}
+ 1/2 ||G(x) - y_o||^2_{R^-1} is evaluated in whitened coordinates,
1/2 ||L_B^-1 (x - x_b)||^2 + 1/2 ||L_R^-1 (G(x) - y_o)||^2 with L L^T the
scaled covariance, never by inverting a covariance. Each problem holds
one whitening factor per covariance, computed on first use: the standard
deviations of a diagonal covariance (which is never factored densely), the
lower Cholesky factor of a dense one, or, for the augmented covariance
R~ = R + Phi W Phi^T of a POD-PCE surrogate, R's factor plus an r-space
correction (one thin QR of L_R^-1 Phi and one r x r Cholesky, r the number
of modes carrying variance; the low-rank update algebra of Hager 1989), so
no m_y x m_y matrix is built or factored. Solvers:

* closed-form analysis for the linear joint-decomposition surrogate
  (cancelling the gradient of the reduced quadratic cost);
* bound-constrained quasi-Newton descent for the nonlinear surrogate, in
  reduced space: its prediction ybar + Phi_d Sigma_d nu(x) is affine in the
  mode coefficients, so the observation term is whitened once per
  (surrogate, problem) into a d x d triangle and a d-vector (thin QR of
  L_R^-1 Phi_d Sigma_d). Every cost and gradient evaluation then costs
  O(d m_x) and touches no m_y-sized array (the incremental 3DVAR of
  Courtier, Thepaut & Hollingsworth 1994);
* classical reference against any forward model with central
  finite-difference gradients.

Solvers operate on whatever space the problem is posed in; the experiment
drivers pose problems in standardized parameter/state coordinates and
convert analyses back to physical units.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .optimize import OptimizerConfig, bounded_quasi_newton
from .pce import pce_eval, pce_jacobian
from .surrogate import (
    ErrorCovariance,
    PodEnSurrogate,
    PodPceSurrogate,
    poden_predict,
    podpce_predict,
)

# Central-difference step for the classical solver, as a fraction of each
# parameter's bound width.
FD_STEP_FRACTION = 1e-4


@dataclass
class AssimilationProblem:
    """Background, observation, covariances, bounds and the alpha scalings.

    Covariances enter every computation as alpha_b * background_cov and
    alpha_r * observation_cov. The observation covariance may be given as
    its (m_y,) variances when it is diagonal; a 2-D covariance whose
    off-diagonal entries are all zero is treated the same way. It may also
    be a structured :class:`~romda.surrogate.ErrorCovariance`. Whitening
    factors are cached on first use; instances should be treated as
    immutable once handed to a solver.
    """

    x_b: np.ndarray  # (m_x,)
    background_cov: np.ndarray  # (m_x, m_x) symmetric positive definite
    y_o: np.ndarray  # (m_y,)
    # (m_y, m_y) symmetric positive definite, (m_y,) variances, or R + Phi W Phi^T
    observation_cov: np.ndarray | ErrorCovariance
    bounds: np.ndarray  # (m_x, 2)
    alpha_b: float = 1.0
    alpha_r: float = 1.0
    _b_factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _r_factor: "np.ndarray | _LowRankFactor | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _reduced: "_ReducedCost | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.x_b = np.asarray(self.x_b, dtype=float)
        self.background_cov = np.asarray(self.background_cov, dtype=float)
        self.y_o = np.asarray(self.y_o, dtype=float)
        if not isinstance(self.observation_cov, ErrorCovariance):
            self.observation_cov = np.asarray(self.observation_cov, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float)
        m_x = self.x_b.shape[0]
        m_y = self.y_o.shape[0]
        if self.background_cov.shape != (m_x, m_x):
            raise ValueError(f"background covariance must be ({m_x}, {m_x})")
        if self.observation_cov.shape not in ((m_y, m_y), (m_y,)):
            raise ValueError(f"observation covariance must be ({m_y}, {m_y}) or ({m_y},)")
        if self.bounds.shape != (m_x, 2):
            raise ValueError(f"bounds must be ({m_x}, 2)")
        if self.alpha_b <= 0.0 or self.alpha_r <= 0.0:
            raise ValueError("alpha scalings must be positive")
        if np.any(self.x_b < self.bounds[:, 0]) or np.any(self.x_b > self.bounds[:, 1]):
            raise ValueError("background must lie within the parameter bounds")

    @property
    def m_x(self) -> int:
        return self.x_b.shape[0]

    @property
    def m_y(self) -> int:
        return self.y_o.shape[0]

    def _background_factor(self) -> np.ndarray:
        if self._b_factor is None:
            self._b_factor = _whitening_factor(self.background_cov, self.alpha_b, "background")
        return self._b_factor

    def _observation_factor(self) -> "np.ndarray | _LowRankFactor":
        if self._r_factor is None:
            self._r_factor = _whitening_factor(self.observation_cov, self.alpha_r, "observation")
        return self._r_factor

    def whiten_background(self, v: np.ndarray) -> np.ndarray:
        """L_B^-1 v for a vector or for the columns of a matrix."""
        return _whiten(self._background_factor(), v)

    def whiten_observation(self, v: np.ndarray) -> np.ndarray:
        """L_R^-1 v for a vector or for the columns of a matrix."""
        return _whiten(self._observation_factor(), v)


@dataclass(frozen=True)
class _LowRankFactor:
    """Whitening factor of alpha (R + Phi W Phi^T), kept in r-space.

    With L_R L_R^T = alpha R, L_R^-1 Phi = Q0 R0 (thin QR) and
    C C^T = I + alpha R0 W R0^T, the factor is L_R F with
    F = (I - Q0 Q0^T) + Q0 C Q0^T, whose inverse is
    (I - Q0 Q0^T) + Q0 C^-1 Q0^T.
    """

    base: np.ndarray  # whitening factor of alpha R (1-D or lower 2-D)
    q: np.ndarray  # (m_y, r) Q0
    c: np.ndarray  # (r, r) C in its lower triangle (cho_factor leaves input above it)


def _whitening_factor(
    cov: np.ndarray | ErrorCovariance, alpha: float, name: str
) -> "np.ndarray | _LowRankFactor":
    """L with L L^T = alpha * cov: the standard deviations (1-D) when cov is
    diagonal, the lower Cholesky factor (2-D) when it is dense, R's factor
    plus its r-space correction when it is an :class:`ErrorCovariance`."""
    if isinstance(cov, ErrorCovariance):
        base = _whitening_factor(cov.r, alpha, name)
        if not np.all(np.isfinite(cov.weights)):
            raise ValueError(f"{name} covariance must be finite")
        if cov.weights.size == 0:
            return base
        q, r0 = np.linalg.qr(_whiten(base, cov.modes))
        g = r0 * np.sqrt(alpha * cov.weights)  # R0 (alpha W)^1/2
        c, _ = cho_factor(np.eye(g.shape[0]) + g @ g.T, lower=True)
        return _LowRankFactor(base=base, q=q, c=c)
    if cov.ndim == 2 and np.count_nonzero(cov) == np.count_nonzero(np.diagonal(cov)):
        cov = np.diagonal(cov)  # every nonzero entry sits on the diagonal
    if cov.ndim == 2:
        factor, _ = _factor_spd(alpha * cov, name)
        return factor
    variances = alpha * cov
    if not np.all(np.isfinite(variances)):
        raise ValueError(f"{name} covariance must be finite")
    if not np.all(variances > 0.0):
        raise ValueError(
            f"{name} covariance is not positive definite "
            f"(smallest eigenvalue {float(variances.min()):.6g})"
        )
    return np.sqrt(variances)


def _whiten(factor: "np.ndarray | _LowRankFactor", v: np.ndarray) -> np.ndarray:
    if isinstance(factor, _LowRankFactor):
        w = _whiten(factor.base, v)
        proj = factor.q.T @ w
        inner = solve_triangular(factor.c, proj, lower=True, check_finite=False)
        return w + factor.q @ (inner - proj)
    v = np.asarray_chkfinite(v, dtype=float)
    if factor.ndim == 1:
        return v / (factor if v.ndim == 1 else factor[:, None])
    # Only the lower triangle is read; cho_factor leaves input entries above it.
    return solve_triangular(factor, v, lower=True, check_finite=False)


def _factor_spd(matrix: np.ndarray, name: str) -> tuple:
    if not np.allclose(matrix, matrix.T, atol=1e-10 * max(1.0, float(np.abs(matrix).max()))):
        raise ValueError(f"{name} covariance must be symmetric")
    try:
        return cho_factor(matrix, lower=True)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(matrix).min())
        raise ValueError(
            f"{name} covariance is not positive definite (smallest eigenvalue {smallest:.6g})"
        ) from None


def scale_covariances(
    problem: AssimilationProblem, alpha_b: float, alpha_r: float
) -> AssimilationProblem:
    """New problem with covariances scaled by the given factors; the original
    is untouched."""
    if alpha_b <= 0.0 or alpha_r <= 0.0:
        raise ValueError(f"scale factors must be positive, got ({alpha_b}, {alpha_r})")
    return replace(problem, alpha_b=problem.alpha_b * alpha_b, alpha_r=problem.alpha_r * alpha_r)


@dataclass
class AnalysisResult:
    """Solver output: the analysis, its state, and the descent record."""

    x_a: np.ndarray
    y_a: np.ndarray  # surrogate or model output at x_a
    nu_a: np.ndarray | None  # reduced analysis (linear-surrogate case)
    cost_trace: list[float]
    grad_norms: list[float]
    evaluations: int  # model/surrogate calls made by the solver
    converged: bool
    reason: str
    j_final: float
    in_bounds: bool


def _background_misfit(problem: AssimilationProblem, x: np.ndarray) -> float:
    w = problem.whiten_background(x - problem.x_b)
    return 0.5 * float(w @ w)


def _observation_misfit(problem: AssimilationProblem, y: np.ndarray) -> float:
    w = problem.whiten_observation(y - problem.y_o)
    return 0.5 * float(w @ w)


def cost_3dvar(
    x: np.ndarray,
    model: Callable[[np.ndarray], np.ndarray],
    problem: AssimilationProblem,
) -> float:
    """Two-term cost at ``x`` with the state produced by ``model``."""
    x = np.asarray(x, dtype=float)
    return _background_misfit(problem, x) + _observation_misfit(problem, np.asarray(model(x)))


def solve_poden3dvar(
    surrogate: PodEnSurrogate,
    problem: AssimilationProblem,
    *,
    method: str = "closed_form",
    optimizer_config: OptimizerConfig | None = None,
) -> AnalysisResult:
    """Analysis for the linear surrogate.

    The reduced cost is quadratic in the shared coordinates, so the default
    analysis comes from one linear solve (gradient cancellation) with no
    model or surrogate evaluations. ``method="descent"`` minimizes the same
    cost iteratively with its analytic gradient instead; the linear
    generator is unconstrained, so the parameter analysis can leave the
    declared bounds (reported via ``in_bounds``).
    """
    if surrogate.m_x != problem.m_x or surrogate.m_y != problem.m_y:
        raise ValueError(
            f"surrogate dimensions ({surrogate.m_x}, {surrogate.m_y}) do not match "
            f"problem dimensions ({problem.m_x}, {problem.m_y})"
        )
    mean_x = surrogate.joint_mean[: surrogate.m_x]
    mean_y = surrogate.joint_mean[surrogate.m_x :]
    h_x = surrogate.phi_x * surrogate.sigma[None, :]  # (m_x, d)
    h_y = surrogate.phi_y * surrogate.sigma[None, :]  # (m_y, d)
    # Whitened generators: h^T C^-1 v = (L^-1 h)^T (L^-1 v).
    wb_hx = problem.whiten_background(h_x)
    wr_hy = problem.whiten_observation(h_y)
    normal = wb_hx.T @ wb_hx + wr_hy.T @ wr_hy
    rhs = wb_hx.T @ problem.whiten_background(problem.x_b - mean_x) + wr_hy.T @ (
        problem.whiten_observation(problem.y_o - mean_y)
    )

    def reduced_cost(nu: np.ndarray) -> float:
        x, y = poden_predict(surrogate, nu)
        return _background_misfit(problem, x) + _observation_misfit(problem, y)

    def reduced_grad(nu: np.ndarray) -> np.ndarray:
        x, y = poden_predict(surrogate, nu)
        return wb_hx.T @ problem.whiten_background(x - problem.x_b) + wr_hy.T @ (
            problem.whiten_observation(y - problem.y_o)
        )

    if method == "closed_form":
        try:
            low = np.linalg.cholesky(normal)
        except np.linalg.LinAlgError:
            low = None
        if low is None or np.min(np.diag(low)) <= 1e-12 * np.max(np.diag(low)):
            raise np.linalg.LinAlgError(
                "reduced normal matrix is numerically singular; retain fewer modes (smaller d)"
            )
        nu_a = cho_solve((low, True), rhs)
        j_final = reduced_cost(nu_a)
        cost_trace = [j_final]
        grad_norms = [float(np.max(np.abs(reduced_grad(nu_a))))]
        evaluations = 0
        converged, reason = True, "closed_form"
    elif method == "descent":
        free = np.column_stack(
            [np.full(surrogate.d, -np.inf), np.full(surrogate.d, np.inf)]
        )
        res = bounded_quasi_newton(
            reduced_cost, reduced_grad, np.zeros(surrogate.d), free, optimizer_config
        )
        nu_a = res.x
        j_final = res.f
        cost_trace = res.f_trace
        grad_norms = res.grad_norms
        evaluations = 0
        converged, reason = res.converged, res.reason
    else:
        raise ValueError(f"unknown method {method!r}, expected 'closed_form' or 'descent'")

    x_a, y_a = poden_predict(surrogate, nu_a)
    in_bounds = bool(
        np.all(x_a >= problem.bounds[:, 0] - 1e-12) and np.all(x_a <= problem.bounds[:, 1] + 1e-12)
    )
    return AnalysisResult(
        x_a=x_a,
        y_a=y_a,
        nu_a=nu_a,
        cost_trace=cost_trace,
        grad_norms=grad_norms,
        evaluations=evaluations,
        converged=converged,
        reason=reason,
        j_final=j_final,
        in_bounds=in_bounds,
    )


class _ReducedCost:
    """The POD-PCE 3DVAR cost of one (surrogate, problem) in reduced space.

    With y(x) = ybar + H nu(x), H = Phi_d Sigma_d, the whitened quantities
    A = L_R^-1 H = Q T (thin QR) and z = L_R^-1 (y_o - ybar) give
    1/2 ||y(x) - y_o||^2_{R^-1} = 1/2 ||T nu(x) - c||^2 + const with
    c = Q^T z and const = 1/2 ||z - Q c||^2, the part of z outside the
    span of A. The m_y-sized work is done once, here.
    """

    def __init__(self, surrogate: PodPceSurrogate, problem: AssimilationProblem) -> None:
        if surrogate.m_y != problem.m_y:
            raise ValueError(
                f"surrogate state dimension {surrogate.m_y} does not match problem {problem.m_y}"
            )
        retained = surrogate.state_basis.retained_view
        a = problem.whiten_observation(retained.modes * retained.singular_values[None, :])
        z = problem.whiten_observation(problem.y_o - retained.mean)
        q, self.t = np.linalg.qr(a)
        self.c = q.T @ z
        outside = z - q @ self.c
        self.const = 0.5 * float(outside @ outside)
        self.w_b = problem.whiten_background(np.eye(problem.m_x))  # L_B^-1
        self.x_b = problem.x_b
        self.surrogate = surrogate
        self._last: tuple[np.ndarray, np.ndarray] | None = None  # (x, nu(x))

    def nu(self, x: np.ndarray) -> np.ndarray:
        """nu(x), reused when asked again at the same x (the optimizer scores
        a point, then takes the gradient at the point it accepted)."""
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        nu = pce_eval(self.surrogate.pce, x)
        self._last = (np.array(x, dtype=float), nu)
        return nu

    def cost(self, x: np.ndarray) -> float:
        w = self.w_b @ (x - self.x_b)
        r = self.t @ self.nu(x) - self.c
        return 0.5 * float(w @ w) + 0.5 * float(r @ r) + self.const

    def gradient(self, x: np.ndarray) -> np.ndarray:
        w = self.w_b @ (x - self.x_b)
        r = self.t @ self.nu(x) - self.c
        return self.w_b.T @ w + pce_jacobian(self.surrogate.pce, x).T @ (self.t.T @ r)


def _reduced_cost(surrogate: PodPceSurrogate, problem: AssimilationProblem) -> _ReducedCost:
    """The problem's reduced cost for ``surrogate``, built on first use."""
    reduced = problem._reduced
    if reduced is None or reduced.surrogate is not surrogate:
        reduced = _ReducedCost(surrogate, problem)
        problem._reduced = reduced
    return reduced


def podpce_cost(surrogate: PodPceSurrogate, problem: AssimilationProblem, x: np.ndarray) -> float:
    """Surrogate cost: background misfit plus weighted surrogate residual.

    Evaluated in reduced space; the value includes the constant part of the
    observation misfit, so it equals the full two-term cost.
    """
    return _reduced_cost(surrogate, problem).cost(np.asarray(x, dtype=float))


def podpce_gradient(
    surrogate: PodPceSurrogate, problem: AssimilationProblem, x: np.ndarray
) -> np.ndarray:
    """Analytic gradient of :func:`podpce_cost`.

    B^-1 (x - x_b) plus the expansion Jacobian applied to the reduced
    residual: J_pce(x)^T T^T (T nu(x) - c).
    """
    return _reduced_cost(surrogate, problem).gradient(np.asarray(x, dtype=float))


def solve_podpce3dvar(
    surrogate: PodPceSurrogate,
    problem: AssimilationProblem,
    optimizer_config: OptimizerConfig | None = None,
) -> AnalysisResult:
    """Analysis for the nonlinear surrogate by bounded quasi-Newton descent.

    Starts from the background; the analysis respects the bounds by
    construction.
    """
    _reduced_cost(surrogate, problem)  # the one m_y-sized setup of the solve
    calls = 0

    def cost(x: np.ndarray) -> float:
        nonlocal calls
        calls += 1
        return podpce_cost(surrogate, problem, x)

    def gradient(x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        return podpce_gradient(surrogate, problem, x)

    res = bounded_quasi_newton(cost, gradient, problem.x_b, problem.bounds, optimizer_config)
    return AnalysisResult(
        x_a=res.x,
        y_a=podpce_predict(surrogate, res.x),
        nu_a=pce_eval(surrogate.pce, res.x),
        cost_trace=res.f_trace,
        grad_norms=res.grad_norms,
        evaluations=calls,
        converged=res.converged,
        reason=res.reason,
        j_final=res.f,
        in_bounds=True,
    )


def solve_classical_3dvar(
    model: Callable[[np.ndarray], np.ndarray],
    problem: AssimilationProblem,
    *,
    fd_step: np.ndarray | None = None,
    optimizer_config: OptimizerConfig | None = None,
) -> AnalysisResult:
    """Reference solver against the forward model itself.

    The gradient is approximated by central finite differences (one-sided
    within a step of a bound), costing 2 m_x model runs per gradient.
    Every model call is counted in ``evaluations``.
    """
    lower, upper = problem.bounds[:, 0], problem.bounds[:, 1]
    if fd_step is None:
        width = upper - lower
        if not np.all(np.isfinite(width)):
            raise ValueError("classical solver needs finite bounds to size its steps")
        fd_step = FD_STEP_FRACTION * width
    fd_step = np.asarray(fd_step, dtype=float)
    calls = 0

    def run_model(x: np.ndarray) -> np.ndarray:
        nonlocal calls
        calls += 1
        try:
            return np.asarray(model(x), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"forward model failed at probe point {x!r}: {exc}") from exc

    def cost(x: np.ndarray) -> float:
        return _background_misfit(problem, x) + _observation_misfit(problem, run_model(x))

    def gradient(x: np.ndarray) -> np.ndarray:
        grad = np.empty_like(x)
        f_x = None  # cost(x), run once and only if some step is one-sided
        for i in range(x.size):
            h = fd_step[i]
            hi_ok = x[i] + h <= upper[i]
            lo_ok = x[i] - h >= lower[i]
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[i] += h
            x_minus[i] -= h
            if hi_ok and lo_ok:
                grad[i] = (cost(x_plus) - cost(x_minus)) / (2.0 * h)
                continue
            if f_x is None:
                f_x = cost(x)
            if hi_ok:
                grad[i] = (cost(x_plus) - f_x) / h
            else:
                grad[i] = (f_x - cost(x_minus)) / h
        return grad

    res = bounded_quasi_newton(cost, gradient, problem.x_b, problem.bounds, optimizer_config)
    y_a = run_model(res.x)
    calls -= 1  # the reporting run above is not a solver evaluation
    return AnalysisResult(
        x_a=res.x,
        y_a=y_a,
        nu_a=None,
        cost_trace=res.f_trace,
        grad_norms=res.grad_norms,
        evaluations=calls,
        converged=res.converged,
        reason=res.reason,
        j_final=res.f,
        in_bounds=True,
    )
