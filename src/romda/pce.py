"""Sparse orthonormal polynomial chaos regression.

Multivariate basis: products of orthonormal univariate polynomials
(Legendre for uniform inputs on a bounded interval, probabilists' Hermite
for Gaussian inputs), truncated by total degree. Coefficients are fitted by
least angle regression over standardized regressors; each path model is
re-estimated by least squares on its active set and scored with the
hat-matrix leave-one-out error times the usual small-sample correction
factor. Degree selection minimizes the empirical (validation) error per
output component independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

FAMILIES = ("legendre", "hermite")

# Tolerance for "sample inside declared bounds" checks, relative to the
# standardized support.
BOUNDS_RTOL = 1e-9


# Univariate orthonormal bases ------------------------------------------------


def _legendre_values(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre values, shape (max_degree + 1, len(t)).

    xi_b(t) = sqrt(2b + 1) * P_b(t), orthonormal for the uniform density on
    [-1, 1].
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((max_degree + 1, t.size))
    p_prev = np.ones_like(t)
    out[0] = p_prev
    if max_degree == 0:
        return out
    p_cur = t.copy()
    out[1] = math.sqrt(3.0) * p_cur
    for b in range(1, max_degree):
        p_next = ((2 * b + 1) * t * p_cur - b * p_prev) / (b + 1)
        out[b + 1] = math.sqrt(2 * (b + 1) + 1) * p_next
        p_prev, p_cur = p_cur, p_next
    return out


def _legendre_derivatives(max_degree: int, t: np.ndarray) -> np.ndarray:
    """d/dt of the orthonormal Legendre values, same shape convention."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((max_degree + 1, t.size))
    out[0] = 0.0
    if max_degree == 0:
        return out
    dp_prev = np.zeros_like(t)  # P_0'
    dp_cur = np.ones_like(t)  # P_1'
    out[1] = math.sqrt(3.0) * dp_cur
    p_prev = np.ones_like(t)
    p_cur = t.copy()
    for b in range(1, max_degree):
        # P'_{b+1} = P'_{b-1} + (2b + 1) P_b (stable at the endpoints).
        dp_next = dp_prev + (2 * b + 1) * p_cur
        out[b + 1] = math.sqrt(2 * (b + 1) + 1) * dp_next
        p_next = ((2 * b + 1) * t * p_cur - b * p_prev) / (b + 1)
        p_prev, p_cur = p_cur, p_next
        dp_prev, dp_cur = dp_cur, dp_next
    return out


def _hermite_values(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal probabilists' Hermite values: He_b(t) / sqrt(b!)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((max_degree + 1, t.size))
    he_prev = np.ones_like(t)
    out[0] = he_prev
    if max_degree == 0:
        return out
    he_cur = t.copy()
    out[1] = he_cur
    fact = 1.0
    for b in range(1, max_degree):
        he_next = t * he_cur - b * he_prev
        fact *= b + 1
        out[b + 1] = he_next / math.sqrt(fact)
        he_prev, he_cur = he_cur, he_next
    return out


def _hermite_derivatives(max_degree: int, t: np.ndarray) -> np.ndarray:
    # xi'_b = sqrt(b) * xi_{b-1}
    values = _hermite_values(max(max_degree - 1, 0), t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((max_degree + 1, t.size))
    for b in range(1, max_degree + 1):
        out[b] = math.sqrt(b) * values[b - 1]
    return out


_VALUES = {"legendre": _legendre_values, "hermite": _hermite_values}
_DERIVATIVES = {"legendre": _legendre_derivatives, "hermite": _hermite_derivatives}


def _univariate_tables(basis: "PceBasis", t: np.ndarray, kind: dict) -> list[np.ndarray]:
    """Per input i, a table of shape (degree + 1, n) whose row b is the
    degree-b polynomial (or derivative) of input i's family at t[:, i].

    One call per family covers all its inputs up to the highest degree any of
    them takes: the recurrences act elementwise and row by row, so every row
    holds the same bits as a call for that input alone.
    """
    n = t.shape[0]
    tables = [None] * basis.input_dim
    for family, inputs in basis.family_inputs.items():
        degree = int(basis.input_degrees[inputs].max())
        block = kind[family](degree, t[:, inputs].T.ravel()).reshape(degree + 1, inputs.size, n)
        for k, i in enumerate(inputs):
            tables[i] = block[:, k, :]
    return tables


def _univariate(table: dict, family: str, degree: int, t: float | np.ndarray) -> float | np.ndarray:
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if family not in table:
        raise ValueError(f"unknown basis family {family!r}, expected one of {FAMILIES}")
    values = table[family](degree, np.atleast_1d(t))[degree]
    return float(values[0]) if np.isscalar(t) else values


def univariate_eval(family: str, degree: int, t: float | np.ndarray) -> float | np.ndarray:
    """Orthonormalized univariate polynomial value at standardized ``t``."""
    return _univariate(_VALUES, family, degree, t)


def univariate_derivative(family: str, degree: int, t: float | np.ndarray) -> float | np.ndarray:
    """Derivative in ``t`` of :func:`univariate_eval`."""
    return _univariate(_DERIVATIVES, family, degree, t)


# Multi-indices and the basis skeleton ----------------------------------------


def multi_index_set(input_dim: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples with total degree <= max_degree, graded lexicographic."""
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    indices: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        indices.extend(sorted(compositions(degree, input_dim)))
    return tuple(indices)


@dataclass(frozen=True)
class PceBasis:
    """Basis skeleton: per-input family and affine standardization, index set.

    The affine map t = (x - offset) / scale sends the physical support to the
    standard one ([-1, 1] for Legendre bounds, unit Gaussian for Hermite).
    """

    families: tuple[str, ...]
    offsets: np.ndarray  # (m_x,)
    scales: np.ndarray  # (m_x,)
    indices: tuple[tuple[int, ...], ...]

    @property
    def input_dim(self) -> int:
        return len(self.families)

    @property
    def n_terms(self) -> int:
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        return max(sum(alpha) for alpha in self.indices)

    @cached_property
    def exponents(self) -> np.ndarray:
        """The index set as an integer array, shape (n_terms, m_x)."""
        return np.array(self.indices, dtype=np.intp).reshape(self.n_terms, self.input_dim)

    @cached_property
    def input_degrees(self) -> np.ndarray:
        """Highest exponent of each input over the index set, shape (m_x,)."""
        return self.exponents.max(axis=0)

    @cached_property
    def family_inputs(self) -> dict[str, np.ndarray]:
        """Input positions of each family present in the basis."""
        families = np.array(self.families)
        return {f: np.flatnonzero(families == f) for f in FAMILIES if f in self.families}

    def standardize(self, samples: np.ndarray, *, check_bounds: bool = True) -> np.ndarray:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != self.input_dim:
            raise ValueError(
                f"samples must have {self.input_dim} columns, got {samples.shape[1]}"
            )
        t = (samples - self.offsets[None, :]) / self.scales[None, :]
        bounded = self.family_inputs.get("legendre")
        if check_bounds and bounded is not None:
            over = np.abs(t[:, bounded]) - 1.0
            worst = np.argmax(over, axis=0)  # per bounded input
            outside = over[worst, np.arange(bounded.size)] > BOUNDS_RTOL
            if np.any(outside):
                k = int(np.argmax(outside))
                i, row = int(bounded[k]), int(worst[k])
                raise ValueError(
                    f"sample {row} is outside the declared bounds of input {i} "
                    f"(standardized coordinate {t[row, i]:.12g})"
                )
            t[:, bounded] = np.clip(t[:, bounded], -1.0, 1.0)
        return t


def make_basis(
    bounds: np.ndarray,
    max_degree: int,
    families: tuple[str, ...] | None = None,
) -> PceBasis:
    """Basis skeleton from physical bounds.

    ``bounds`` rows are (low, high) for Legendre inputs and (mean, std) for
    Hermite inputs.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"bounds must have shape (m_x, 2), got {bounds.shape}")
    m_x = bounds.shape[0]
    if families is None:
        families = ("legendre",) * m_x
    if len(families) != m_x:
        raise ValueError("one family per input required")
    offsets = np.empty(m_x)
    scales = np.empty(m_x)
    for i, family in enumerate(families):
        if family == "legendre":
            low, high = bounds[i]
            if not low < high:
                raise ValueError(f"input {i}: bounds must satisfy low < high, got {bounds[i]}")
            offsets[i] = 0.5 * (low + high)
            scales[i] = 0.5 * (high - low)
        elif family == "hermite":
            offsets[i] = bounds[i, 0]
            scales[i] = bounds[i, 1]
            if scales[i] <= 0:
                raise ValueError(f"input {i}: Hermite scale must be positive")
        else:
            raise ValueError(f"unknown basis family {family!r}, expected one of {FAMILIES}")
    return PceBasis(
        families=tuple(families),
        offsets=offsets,
        scales=scales,
        indices=multi_index_set(m_x, max_degree),
    )


def design_matrix(samples: np.ndarray, basis: PceBasis) -> np.ndarray:
    """Evaluation of every basis term at every sample, shape (n, n_terms)."""
    t = basis.standardize(samples)
    psi = np.ones((t.shape[0], basis.n_terms))
    # Degree-0 factors are exactly 1.0, so multiplying every column by every
    # input's factor gives the same bits as skipping the zero exponents.
    for i, values in enumerate(_univariate_tables(basis, t, _VALUES)):
        psi *= values.T[:, basis.exponents[:, i]]
    return psi


# LARS with corrected leave-one-out --------------------------------------------


@dataclass(frozen=True)
class LarsFit:
    coefficients: np.ndarray  # (n_terms,), exact zeros off the active set
    loo_error: float  # corrected leave-one-out of the selected model
    active: tuple[int, ...]  # selected columns, intercept excluded


def _ols_with_loo(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """Least squares fit with hat-matrix LOO and its corrected variant.

    Returns (coefficients, loo, corrected_loo); None if the design is
    numerically rank deficient.
    """
    n, p = design.shape
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        return None
    coef = solve_triangular(r, q.T @ y)
    resid = y - design @ coef
    leverage = np.einsum("ij,ij->i", q, q)
    denom = 1.0 - leverage
    if np.any(denom <= 1e-12):
        return coef, np.inf, np.inf
    loo = float(np.mean((resid / denom) ** 2))
    if n <= p:
        return coef, loo, np.inf
    r_inv = solve_triangular(r, np.eye(p))
    trace_inv = float(np.sum(r_inv**2))  # tr((Psi^T Psi)^-1)
    correction = (n / (n - p)) * (1.0 + trace_inv)
    return coef, loo, loo * correction


def fit_lars(psi: np.ndarray, targets: np.ndarray) -> LarsFit:
    """Sparse coefficients for ``targets ~ psi`` by LARS + corrected LOO.

    The path is computed on centered, unit-norm regressors (intercept held
    out); every path prefix is re-estimated by least squares on the original
    columns and the model with minimal corrected leave-one-out error wins,
    ties going to the sparser model.
    """
    psi = np.asarray(psi, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if psi.ndim != 2:
        raise ValueError(f"design matrix must be 2D, got shape {psi.shape}")
    n, n_terms = psi.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
    if n < 2:
        raise ValueError(f"need more than one sample, got {n}")
    if not np.allclose(psi[:, 0], 1.0, atol=1e-12):
        raise ValueError("first design column must be the constant term")

    # Standardize the candidate regressors; drop degenerate columns.
    y_mean = targets.mean()
    y_c = targets - y_mean
    candidates = []
    columns = []
    for j in range(1, n_terms):
        col = psi[:, j] - psi[:, j].mean()
        norm = np.linalg.norm(col)
        if norm > 1e-13 * np.sqrt(n):
            candidates.append(j)
            columns.append(col / norm)
    x = np.column_stack(columns) if columns else np.zeros((n, 0))

    prefixes = _lars_path(x, y_c, max_active=min(len(candidates), n - 1))

    best: tuple[float, np.ndarray, tuple[int, ...]] | None = None
    for prefix in [()] + prefixes:
        active = tuple(candidates[j] for j in prefix)
        design = psi[:, (0,) + active]
        fitted = _ols_with_loo(design, targets)
        if fitted is None:
            continue
        coef_active, _, corrected = fitted
        if best is None or corrected < best[0]:
            coef = np.zeros(n_terms)
            coef[0] = coef_active[0]
            for value, j in zip(coef_active[1:], active):
                coef[j] = value
            best = (corrected, coef, active)
    if best is None:
        raise ValueError("no valid model on the LARS path (design rank deficient)")
    corrected, coef, active = best
    return LarsFit(coefficients=coef, loo_error=corrected, active=active)


def _lars_path(x: np.ndarray, y: np.ndarray, max_active: int) -> list[tuple[int, ...]]:
    """Least angle regression path on standardized regressors.

    Returns the nested active sets, one per added regressor, in path order.
    Columns that make the active Gram matrix singular are skipped.
    """
    n, n_cols = x.shape
    if n_cols == 0 or max_active <= 0:
        return []
    mu = np.zeros(n)
    active: list[int] = []
    barred: set[int] = set()
    prefixes: list[tuple[int, ...]] = []
    corr_floor = 1e-10 * max(float(np.linalg.norm(y)), 1.0)

    while len(active) < max_active:
        c = x.T @ (y - mu)
        c_abs = np.abs(c)
        c_abs[list(active) + list(barred)] = -np.inf
        j_new = int(np.argmax(c_abs))
        if not np.isfinite(c_abs[j_new]) or c_abs[j_new] <= corr_floor:
            break

        trial = active + [j_new]
        signs = np.sign(c[trial])
        signs[signs == 0.0] = 1.0
        xa = x[:, trial] * signs[None, :]
        gram = xa.T @ xa
        try:
            ginv_ones = np.linalg.solve(gram, np.ones(len(trial)))
        except np.linalg.LinAlgError:
            barred.add(j_new)
            continue
        total = float(ginv_ones.sum())
        if total <= 1e-12:
            barred.add(j_new)
            continue

        active = trial
        prefixes.append(tuple(active))
        if len(active) >= max_active:
            break

        a_norm = 1.0 / np.sqrt(total)
        u = xa @ (a_norm * ginv_ones)  # unit equiangular direction
        corr_max = float(np.max(np.abs(c[active])))
        a = x.T @ u
        gamma = corr_max / a_norm  # full least-squares step by default
        for j in range(n_cols):
            if j in active or j in barred:
                continue
            for candidate in ((corr_max - c[j]) / (a_norm - a[j]), (corr_max + c[j]) / (a_norm + a[j])):
                if np.isfinite(candidate) and 1e-15 < candidate < gamma:
                    gamma = float(candidate)
        mu = mu + gamma * u
    return prefixes


# Degree selection and the fitted model ----------------------------------------


@dataclass(frozen=True)
class PceConfig:
    """Settings for fitting: declared input bounds and the degree cap."""

    bounds: np.ndarray  # (m_x, 2)
    max_degree: int = 3
    families: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PceModel:
    """Per-component sparse expansion sharing one multivariate basis.

    Row k of ``coefficients`` holds the expansion of output component k.
    ``empirical_errors`` are the validation mean squared errors used for
    degree selection; ``validation_bias`` the matching mean errors.
    Immutable after build; safe for concurrent reads.
    """

    basis: PceBasis
    coefficients: np.ndarray  # (d, n_terms)
    empirical_errors: np.ndarray  # (d,)
    selected_degrees: tuple[int, ...]  # (d,)
    validation_bias: np.ndarray  # (d,)

    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[0]


def split_members(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle ``n`` members by ``seed`` and split them 75/25 into training
    and validation indices."""
    if n < 4:
        raise ValueError(f"need at least 4 members for the 75/25 split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = (3 * n) // 4
    return order[:n_train], order[n_train:]


def select_degree(
    train_inputs: np.ndarray,
    train_targets: np.ndarray,
    val_inputs: np.ndarray,
    val_targets: np.ndarray,
    config: PceConfig,
) -> PceModel:
    """Fit one sparse expansion per target component, choosing its degree.

    For every component, LARS models of degree 0..max_degree are fitted on
    the training set; the degree with the smallest validation mean squared
    error wins, ties broken toward the smaller degree. Training-set
    coefficients are kept (the validation set only scores).
    """
    train_inputs = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    val_inputs = np.atleast_2d(np.asarray(val_inputs, dtype=float))
    train_targets = np.atleast_2d(np.asarray(train_targets, dtype=float))
    val_targets = np.atleast_2d(np.asarray(val_targets, dtype=float))
    if val_inputs.shape[0] == 0:
        raise ValueError("validation set is empty; empirical error undefined")
    if train_targets.shape[0] != train_inputs.shape[0]:
        raise ValueError("train targets/inputs row mismatch")
    if val_targets.shape[0] != val_inputs.shape[0]:
        raise ValueError("validation targets/inputs row mismatch")
    if config.max_degree < 0:
        raise ValueError("max_degree must be >= 0")

    d_out = train_targets.shape[1]
    full = make_basis(config.bounds, config.max_degree, config.families)
    psi_train = design_matrix(train_inputs, full)
    psi_val = design_matrix(val_inputs, full)
    m_x = full.input_dim
    # Graded-lex columns: degree-p block is a prefix of the degree-p_max matrix.
    n_terms_per_degree = [len(multi_index_set(m_x, p)) for p in range(config.max_degree + 1)]

    rows = np.zeros((d_out, full.n_terms))
    errors = np.empty(d_out)
    biases = np.empty(d_out)
    degrees = []
    for k in range(d_out):
        # Validation errors at roundoff level are ties; the parsimony rule
        # must not be decided by which exact fit rounds lower.
        floor = 1e-24 * float(np.mean(val_targets[:, k] ** 2))
        best: tuple[float, int, np.ndarray] | None = None
        for p, n_cols in enumerate(n_terms_per_degree):
            fit = fit_lars(psi_train[:, :n_cols], train_targets[:, k])
            predicted = psi_val[:, :n_cols] @ fit.coefficients
            residual = val_targets[:, k] - predicted
            delta = float(np.mean(residual**2))
            if delta <= floor:
                delta = 0.0
            if best is None or delta < best[0]:
                best = (delta, p, fit.coefficients)
        delta, p_sel, coef = best
        rows[k, : coef.size] = coef
        errors[k] = delta
        predicted = psi_val[:, : coef.size] @ coef
        biases[k] = float(np.mean(val_targets[:, k] - predicted))
        degrees.append(p_sel)

    return PceModel(
        basis=full,
        coefficients=rows,
        empirical_errors=errors,
        selected_degrees=tuple(degrees),
        validation_bias=biases,
    )


def pce_eval(model: PceModel, x: np.ndarray) -> np.ndarray:
    """Expansion value(s) at physical input(s): C zeta(T(x))."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    psi = design_matrix(np.atleast_2d(x), model.basis)
    values = psi @ model.coefficients.T  # (n, d)
    return values[0] if single else values


def pce_jacobian(model: PceModel, x: np.ndarray) -> np.ndarray:
    """Derivatives of the expansion at one physical input, shape (d, m_x).

    Entry (k, i) sums c^k_alpha over terms, each term differentiated in
    input i through the affine standardization (chain-rule factor 1/scale_i).
    """
    x = np.asarray(x, dtype=float)
    basis = model.basis
    if x.shape != (basis.input_dim,):
        raise ValueError(f"x must have shape ({basis.input_dim},), got {x.shape}")
    t = basis.standardize(x[None, :])
    exponents = basis.exponents
    values = [
        table[:, 0][exponents[:, i]]
        for i, table in enumerate(_univariate_tables(basis, t, _VALUES))
    ]
    derivs = _univariate_tables(basis, t, _DERIVATIVES)
    dz = np.empty((basis.n_terms, basis.input_dim))  # d zeta_alpha / d x_i
    for i, deriv in enumerate(derivs):
        term = deriv[:, 0][exponents[:, i]] / basis.scales[i]
        for j, value in enumerate(values):
            if j != i:
                term *= value  # degree-0 factors are exactly 1.0
        term[exponents[:, i] == 0] = 0.0  # a constant factor in x_i
        dz[:, i] = term
    return model.coefficients @ dz
