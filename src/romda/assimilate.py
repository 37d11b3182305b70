"""Variational solvers over surrogates and forward models.

The two-term quadratic-form cost J(x) = 1/2 ||x - x_b||^2_{B^-1}
+ 1/2 ||G(x) - y_o||^2_{R^-1} is evaluated in whitened coordinates,
1/2 ||L_B^-1 (x - x_b)||^2 + 1/2 ||L_R^-1 (G(x) - y_o)||^2 with L L^T the
scaled covariance, never by inverting a covariance. Each problem holds
one whitening factor per covariance, computed when it is built: the
standard deviations of a diagonal covariance (never factored densely), the
lower Cholesky factor of a dense one, or, for the augmented covariance
R~ = R + Phi W Phi^T of a POD-PCE surrogate, R's factor plus an r-space
correction (the low-rank update algebra of Hager 1989), so no m_y x m_y
matrix is built or factored. The correction rests on the thin QR
L_R^-1 Phi = Q0 R0 (r the number of modes carrying variance), which
depends on R and the mode block alone: alpha only scales R's own factor
and the weights W only enter an r x r Cholesky. The cells of one surrogate
build and one R share that QR through a :class:`ModeWhitening` handed to
each problem as it is posed, whatever their mode count, R~ kind or alpha,
and the cells that also share the weights share the Cholesky. Solvers:

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

Solvers operate on whatever space the problem is posed in. The experiment
drivers and the command line pose every problem through
:func:`pose_problem`, in the standardized coordinates a surrogate was built
in, and convert analyses back to physical units.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .checks import check_reals
from .optimize import OptimizerConfig, bounded_quasi_newton
from .pce import _Point, pce_eval, pce_jacobian
from .surrogate import (
    ErrorCovariance,
    PodEnSurrogate,
    PodPceSurrogate,
    Scaling,
    observation_covariance,
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
    be a structured :class:`~romda.surrogate.ErrorCovariance`, whose mode QR
    comes from ``shared`` if given. Both whitening factors are computed at
    construction, so a covariance that cannot be whitened fails here; only
    ``_reduced`` is filled later (by :func:`podpce_cost`). Treat as immutable.
    """

    x_b: np.ndarray  # (m_x,)
    background_cov: np.ndarray  # (m_x, m_x) symmetric positive definite
    y_o: np.ndarray  # (m_y,)
    # (m_y, m_y) symmetric positive definite, (m_y,) variances, or R + Phi W Phi^T
    observation_cov: np.ndarray | ErrorCovariance
    bounds: np.ndarray  # (m_x, 2)
    alpha_b: float = 1.0
    alpha_r: float = 1.0
    shared: InitVar[ModeWhitening | None] = None
    _reduced: "_ReducedCost | None" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, shared: ModeWhitening | None) -> None:
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
        for name in ("alpha_b", "alpha_r"):
            check_reals(name, (getattr(self, name),), lambda a: a > 0.0, "alpha scalings must be positive")
        _check_background(self.x_b, self.bounds)
        self._b_factor = _whitening_factor(self.background_cov, self.alpha_b, "background")
        self._r_factor = _whitening_factor(self.observation_cov, self.alpha_r, "observation", shared)

    @property
    def m_x(self) -> int:
        return self.x_b.shape[0]

    @property
    def m_y(self) -> int:
        return self.y_o.shape[0]

    def whiten_background(self, v: np.ndarray) -> np.ndarray:
        """L_B^-1 v for a vector or for the columns of a matrix."""
        return _whiten(self._b_factor, v)

    def whiten_observation(self, v: np.ndarray) -> np.ndarray:
        """L_R^-1 v for a vector or for the columns of a matrix."""
        return _whiten(self._r_factor, v)


def _check_background(x_b: np.ndarray, bounds: np.ndarray) -> None:
    """Reject a background with an entry outside ``bounds`` (rows (low,
    high)), naming ``x_b``, the entry, its value and its bounds."""
    low, high = bounds.T
    outside = np.flatnonzero(~((low <= x_b) & (x_b <= high)))
    if outside.size:
        i = outside[0]
        raise ValueError(f"x_b: entry {i} ({x_b[i]:.6g}) lies outside the parameter bounds "
                         f"[{low[i]:.6g}, {high[i]:.6g}]")


@dataclass(frozen=True)
class _LowRankFactor:
    """Whitening factor of alpha (R + Phi W Phi^T), kept in r-space.

    With L_R L_R^T = R, L_R^-1 Phi = Q0 R0 (thin QR) and
    C C^T = I + R0 W R0^T, the factor is sqrt(alpha) L_R F with
    F = (I - Q0 Q0^T) + Q0 C Q0^T, whose inverse is
    (I - Q0 Q0^T) + Q0 C^-1 Q0^T. Neither Q0 nor C depends on alpha:
    whitening Phi with alpha R's factor instead would scale R0 by
    1 / sqrt(alpha), which cancels against alpha W. So alpha enters through
    ``base`` only, the factor of alpha R computed as for any covariance.
    """

    base: np.ndarray  # whitening factor of alpha R (1-D or lower 2-D)
    q: np.ndarray  # (m_y, r) Q0
    c: np.ndarray  # (r, r) C in its lower triangle (cho_factor leaves input above it)


class ModeWhitening:
    """The thin QR L_R^-1 Phi = Q0 R0 of one R against one mode block, and
    the r-space factor C = chol(I + R0 W R0^T) of one set of weights.

    The QR is the part of R~ = R + Phi W Phi^T's whitening that neither
    alpha nor the weights W touch, so every R~ posed on the modes of one
    surrogate build against one R can share it: each mode count, both R~
    kinds and every alpha. C does not depend on alpha either, so the cells
    that differ only in alpha (a covariance grid) share it too. An instance
    keeps the last QR and the last C it computed and computes new ones only
    when a problem brings a different R, mode block or weights; whoever
    loops over the cells of one build and one R owns it, hands it to each
    problem it poses (``shared=``), and both go when the instance does.
    """

    def __init__(self) -> None:
        self._key: tuple[np.ndarray, np.ndarray] | None = None  # (R, modes)
        self._qr: tuple[np.ndarray, np.ndarray] | None = None  # (Q0, R0)
        self._weights: np.ndarray | None = None  # of the kept C
        self._c: np.ndarray | None = None

    def factor(self, cov: ErrorCovariance, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(Q0, C) for ``cov``, each reused while what it depends on stays the same."""
        key = self._key
        if key is None or not (
            np.array_equal(key[0], cov.r) and np.array_equal(key[1], cov.modes)
        ):
            self._qr = _whitened_modes_qr(cov, name)
            self._key = (cov.r, cov.modes)
            self._c = None
        q, r0 = self._qr
        if self._c is None or not np.array_equal(self._weights, cov.weights):
            self._c = _rspace_factor(r0, cov.weights)
            self._weights = cov.weights
        return q, self._c


def _whitened_modes_qr(cov: ErrorCovariance, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of L_R^-1 Phi, with L_R the whitening factor of R itself."""
    return np.linalg.qr(_whiten(_whitening_factor(cov.r, 1.0, name), cov.modes))


def _rspace_factor(r0: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """C with C C^T = I + R0 W R0^T, in its lower triangle."""
    g = r0 * np.sqrt(weights)  # R0 W^1/2
    return cho_factor(np.eye(g.shape[0]) + g @ g.T, lower=True)[0]


def _whitening_factor(
    cov: np.ndarray | ErrorCovariance, alpha: float, name: str,
    shared: ModeWhitening | None = None,
) -> "np.ndarray | _LowRankFactor":
    """L with L L^T = alpha * cov: the standard deviations (1-D) when cov is
    diagonal, the lower Cholesky factor (2-D) when it is dense, alpha R's
    factor plus the r-space correction when it is an
    :class:`ErrorCovariance`, whose Q0 and C come from ``shared`` if given."""
    if isinstance(cov, ErrorCovariance):
        base = _whitening_factor(cov.r, alpha, name)
        if not (np.all(np.isfinite(cov.weights)) and np.all(cov.weights >= 0.0)):
            raise ValueError(f"{name} covariance weights must be finite and nonnegative")
        q, c = (shared or ModeWhitening()).factor(cov, name)
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


def pose_problem(
    surrogate: PodPceSurrogate | PodEnSurrogate | None, scaling: Scaling, y_o: np.ndarray,
    r_diag: np.ndarray, covariance: str = "r", *, x_b: np.ndarray | None = None,
    background_cov: np.ndarray | None = None, alpha_b: float = 1.0, alpha_r: float = 1.0,
    shared: ModeWhitening | None = None,
) -> AssimilationProblem:
    """The problem in the standardized coordinates of ``scaling``.

    ``y_o`` and its error variances ``r_diag`` are physical and mapped by the
    state standardizer; ``covariance`` then picks R, R~ or the corrected R~
    of ``surrogate`` (None will do for ``"r"``). ``x_b`` and
    ``background_cov`` are standardized and default to the parameter
    statistics, zeros and the identity. The bounds are the scaling's box.
    """
    if np.shape(y_o) != scaling.states.mean.shape:
        raise ValueError(f"observations of shape {np.shape(y_o)} for states {scaling.states.mean.shape}")
    m_x = scaling.params.mean.shape[0]
    r_std = scaling.states.variance_diag(r_diag)
    return AssimilationProblem(
        x_b=np.zeros(m_x) if x_b is None else x_b,
        background_cov=np.eye(m_x) if background_cov is None else background_cov,
        y_o=scaling.states.transform(y_o),
        observation_cov=observation_covariance(covariance, surrogate, r_std),
        bounds=scaling.box,
        alpha_b=alpha_b,
        alpha_r=alpha_r,
        shared=shared,
    )


@dataclass
class AnalysisResult:
    """Solver output: the analysis, its state, and the descent record."""

    x_a: np.ndarray
    y_a: np.ndarray  # surrogate or model output at x_a
    nu_a: np.ndarray | None  # reduced analysis (linear-surrogate case)
    cost_trace: list[float]
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

    def misfit(x: np.ndarray, y: np.ndarray) -> float:
        return _background_misfit(problem, x) + _observation_misfit(problem, y)

    def reduced_cost(nu: np.ndarray) -> float:
        return misfit(*poden_predict(surrogate, nu))

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
        x_a, y_a = poden_predict(surrogate, nu_a)
        j_final = misfit(x_a, y_a)
        cost_trace = [j_final]
        converged, reason = True, "closed_form"
    elif method == "descent":
        free = np.column_stack(
            [np.full(surrogate.d, -np.inf), np.full(surrogate.d, np.inf)]
        )
        res = bounded_quasi_newton(
            reduced_cost, reduced_grad, np.zeros(surrogate.d), free, optimizer_config
        )
        nu_a = res.x
        x_a, y_a = poden_predict(surrogate, nu_a)
        j_final = res.f
        cost_trace = res.f_trace
        converged, reason = res.converged, res.reason
    else:
        raise ValueError(f"unknown method {method!r}, expected 'closed_form' or 'descent'")

    in_bounds = bool(
        np.all(x_a >= problem.bounds[:, 0] - 1e-12) and np.all(x_a <= problem.bounds[:, 1] + 1e-12)
    )
    return AnalysisResult(
        x_a=x_a,
        y_a=y_a,
        nu_a=nu_a,
        cost_trace=cost_trace,
        evaluations=0,
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

    Each x is evaluated once. For the last x, keyed by its shape and bytes, the
    :class:`~romda.pce._Point` (its box check and Legendre table), nu(x),
    w = L_B^-1 (x - x_b) and r = T nu(x) - c are kept. The optimizer scores
    a point and then asks for the gradient at the point it accepted, so that
    gradient reads w and r, calls :func:`~romda.pce.pce_jacobian` on the kept
    point and builds no second table. A point is reused only for the same
    bits, so the kept values are the ones a fresh evaluation would give.
    Both ``pce_eval`` and ``pce_jacobian`` are called by name, so a traced
    run still times them.
    """

    def __init__(self, surrogate: PodPceSurrogate, problem: AssimilationProblem) -> None:
        if surrogate.m_y != problem.m_y:
            raise ValueError(
                f"surrogate state dimension {surrogate.m_y} does not match problem {problem.m_y}"
            )
        basis = surrogate.state_basis
        d = basis.retained
        a = problem.whiten_observation(basis.modes[:, :d] * basis.singular_values[:d])
        z = problem.whiten_observation(problem.y_o - basis.mean)
        q, self.t = np.linalg.qr(a)
        self.c = q.T @ z
        outside = z - q @ self.c
        self.const = 0.5 * float(outside @ outside)
        self.w_b = problem.whiten_background(np.eye(problem.m_x))  # L_B^-1
        self.x_b = problem.x_b
        self.surrogate = surrogate
        self._key: tuple | None = None  # (shape, bytes) of the kept x
        self._last: tuple[_Point, np.ndarray, np.ndarray, np.ndarray] | None = None

    def at(self, x: np.ndarray) -> tuple[_Point, np.ndarray, np.ndarray, np.ndarray]:
        """(point, nu, w, r) at x, computed once for the last x."""
        key = (x.shape, x.tobytes())
        if key != self._key:
            point = _Point.of(self.surrogate.pce.basis, x)
            nu = pce_eval(self.surrogate.pce, point)
            self._last = (point, nu, self.w_b @ (x - self.x_b), self.t @ nu - self.c)
            self._key = key
        return self._last

    def cost(self, x: np.ndarray) -> float:
        _, _, w, r = self.at(x)
        return 0.5 * float(w @ w) + 0.5 * float(r @ r) + self.const

    def gradient(self, x: np.ndarray) -> np.ndarray:
        point, _, w, r = self.at(x)
        return self.w_b.T @ w + pce_jacobian(self.surrogate.pce, point).T @ (self.t.T @ r)


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
    reduced = _reduced_cost(surrogate, problem)  # the one m_y-sized setup of the solve
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
        nu_a=reduced.at(res.x)[1],  # kept from the gradient at the accepted point
        cost_trace=res.f_trace,
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
    optimizer_config: OptimizerConfig | None = None,
) -> AnalysisResult:
    """Reference solver against the forward model itself.

    The gradient is approximated by central finite differences (one-sided
    within a step of a bound), costing 2 m_x model runs per gradient; each
    parameter's step is FD_STEP_FRACTION of its bound width. Every model
    call is counted in ``evaluations``.
    """
    lower, upper = problem.bounds[:, 0], problem.bounds[:, 1]
    width = upper - lower
    if not np.all(np.isfinite(width)):
        raise ValueError("classical solver needs finite bounds to size its steps")
    fd_step = FD_STEP_FRACTION * width
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
        evaluations=calls,
        converged=res.converged,
        reason=res.reason,
        j_final=res.f,
        in_bounds=True,
    )
