"""Sparse orthonormal polynomial chaos regression.

Multivariate basis: products of orthonormal Legendre polynomials, the
family that matches inputs uniform on a box (Xiu & Karniadakis 2002),
truncated by total degree. One three-term recurrence per evaluation gives
the polynomial values, and the derivatives come from the same table. A
batch (:func:`design_matrix`) and one point (:class:`_Point`) read it alike.
Coefficients are fitted by least angle regression over standardized
regressors (Efron et al. 2004), run in P-space: a training design is
standardized and its Gram matrix formed once, every mode and degree reads
leading blocks of them, and a step of the path touches no n-sized array.
The path only adds regressors, so its models are nested prefixes of one
design: a single QR of the longest model scores every prefix by its
hat-matrix leave-one-out error times the small-sample correction factor
(Blatman & Sudret 2011), and only the winning prefix is re-estimated by
least squares on its own columns. Degree selection minimizes the empirical
(validation) error per output component independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .checks import check_counts, check_each

# Tolerance for "sample inside declared bounds" checks, relative to the
# standardized support.
BOUNDS_RTOL = 1e-9

# The most terms a fitted basis may have: LARS forms the P x P Gram matrix
# of the training design, which then stays at or below 32 MB.
MAX_TERMS = 2000

# The fewest ensemble members the 75/25 training/validation split takes.
SPLIT_MIN_MEMBERS = 4


class OutsideBoxError(ValueError):
    """A sample lies outside the declared box of a basis."""


# Univariate Legendre tables ---------------------------------------------------


def _legendre(degree: int, t: np.ndarray) -> np.ndarray:
    """Legendre polynomials P_0..P_degree at every entry of ``t``, stacked
    on a new leading axis: (b + 1) P_{b+1} = (2b + 1) t P_b - b P_{b-1}."""
    p = np.empty((degree + 1,) + t.shape)
    p[0] = 1.0
    if degree > 0:
        p[1] = t
    for b in range(1, degree):
        p[b + 1] = ((2 * b + 1) * t * p[b] - b * p[b - 1]) / (b + 1)
    return p


def _derivatives(p: np.ndarray) -> np.ndarray:
    """d/dt of a :func:`_legendre` table, from the table itself:
    P'_{b+1} = P'_{b-1} + (2b + 1) P_b (stable at the endpoints)."""
    dp = np.zeros_like(p)
    if p.shape[0] > 1:
        dp[1] = 1.0
    for b in range(1, p.shape[0] - 1):
        dp[b + 1] = dp[b - 1] + (2 * b + 1) * p[b]
    return dp


def _orthonormal(table: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Row b of a Legendre table times ``norms[b]`` = sqrt(2b + 1)
    (:attr:`PceBasis.norms`): orthonormal for the uniform density on [-1, 1]."""
    return norms.reshape((-1,) + (1,) * (table.ndim - 1)) * table


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


def degree_cap(input_dim: int) -> int:
    """The largest total degree whose basis over ``input_dim`` inputs,
    C(input_dim + degree, degree) terms, has at most :data:`MAX_TERMS`."""
    degree = 0
    while degree < MAX_TERMS and math.comb(input_dim + degree + 1, degree + 1) <= MAX_TERMS:
        degree += 1
    return degree


def check_degree(field: str, degree: int, input_dim: int) -> None:
    """Reject a total degree that is no integer in [0, degree_cap(input_dim)];
    the message starts with ``field``."""
    check_counts(field, (degree,), 0, "degree must be >= 0")
    cap = degree_cap(input_dim)
    check_each(field, (degree,), lambda p: p <= cap,
               f"degree must be at most {cap} for {input_dim} inputs (a basis of at most {MAX_TERMS} terms)")


@dataclass(frozen=True)
class PceBasis:
    """Basis skeleton: per-input affine standardization and the index set.

    The affine map t = (x - offset) / scale sends each input's box to
    [-1, 1], where the Legendre polynomials are orthonormal.
    """

    offsets: np.ndarray  # (m_x,)
    scales: np.ndarray  # (m_x,)
    indices: tuple[tuple[int, ...], ...]

    @property
    def input_dim(self) -> int:
        return self.offsets.size

    @property
    def n_terms(self) -> int:
        return len(self.indices)

    @cached_property
    def exponents(self) -> np.ndarray:
        """The index set as an integer array, shape (n_terms, m_x)."""
        return np.array(self.indices, dtype=np.intp).reshape(self.n_terms, self.input_dim)

    @cached_property
    def degree(self) -> int:
        """The largest exponent: the last row of every Legendre table."""
        return int(self.exponents.max())

    @cached_property
    def norms(self) -> np.ndarray:
        """sqrt(2b + 1) for b = 0..degree, the orthonormal scale of table row b."""
        return np.sqrt(2.0 * np.arange(self.degree + 1) + 1.0)

    @cached_property
    def inputs(self) -> np.ndarray:
        """0..m_x - 1, the column each exponent is read from."""
        return np.arange(self.input_dim)

    @cached_property
    def flat_terms(self) -> np.ndarray:
        """exponents * m_x + inputs: where entry (alpha, i) of a term's
        factors sits in a flattened (degree + 1, m_x) table."""
        return self.exponents * self.input_dim + self.inputs

    @cached_property
    def flat_others(self) -> np.ndarray:
        """Slice k, entry (alpha, i): where factor (alpha, j) sits in a
        flattened (n_terms, m_x) array, j the k-th input other than i in
        increasing order; shape (m_x - 1, n_terms, m_x)."""
        m_x = self.input_dim
        others = np.array([[j for j in range(m_x) if j != i] for i in range(m_x)],
                          dtype=np.intp).reshape(m_x, m_x - 1)
        return np.arange(self.n_terms)[None, :, None] * m_x + others.T[:, None, :]

    def standardize(self, samples: np.ndarray) -> np.ndarray:
        """t = (x - offset) / scale; an input outside its box is rejected."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[1] != self.input_dim:
            raise ValueError(
                f"samples must have {self.input_dim} columns, got {samples.shape[1]}"
            )
        t = (samples - self.offsets[None, :]) / self.scales[None, :]
        over = np.abs(t) - 1.0
        worst = np.argmax(over, axis=0)  # per input
        outside = over[worst, np.arange(self.input_dim)] > BOUNDS_RTOL
        if np.any(outside):
            i = int(np.argmax(outside))
            row = int(worst[i])
            raise OutsideBoxError(
                f"sample {row} is outside the declared bounds of input {i} "
                f"(standardized coordinate {t[row, i]:.12g})"
            )
        return np.clip(t, -1.0, 1.0, out=t)


def make_basis(bounds: np.ndarray, max_degree: int) -> PceBasis:
    """Basis skeleton of total degree ``max_degree`` from the (low, high)
    rows of the inputs' boxes."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"bounds must have shape (m_x, 2), got {bounds.shape}")
    low, high = bounds.T
    bad = np.flatnonzero(~(low < high))
    if bad.size:
        raise ValueError(f"input {bad[0]}: bounds must satisfy low < high, got {bounds[bad[0]]}")
    return PceBasis(
        offsets=0.5 * (low + high),
        scales=0.5 * (high - low),
        indices=multi_index_set(bounds.shape[0], max_degree),
    )


def design_matrix(samples: np.ndarray, basis: PceBasis) -> np.ndarray:
    """Evaluation of every basis term at every sample, shape (n, n_terms):
    row j has the bits of :func:`pce_eval`'s terms at sample j."""
    t = basis.standardize(samples)
    factors = _orthonormal(_legendre(basis.degree, t.T), basis.norms)[basis.exponents, basis.inputs]
    psi = np.empty((t.shape[0], basis.n_terms))  # C order, as LARS reads it
    np.multiply.reduce(factors, axis=1, out=psi.T)  # (n_terms, m_x, n) over the inputs
    return psi


# LARS in P-space with corrected leave-one-out ---------------------------------

# A regressor whose squared distance from the span of the active ones is at
# most this (all unit norm: a sine to that span below 1e-5) is barred.
COLLINEAR_TOL = 1e-10


@dataclass(frozen=True)
class LarsFit:
    coefficients: np.ndarray  # (n_terms,), exact zeros off the active set
    active: tuple[int, ...]  # selected columns, intercept excluded


@dataclass(frozen=True)
class _Design:
    """A design matrix prepared for LARS: its candidate regressors (every
    column but the constant, centered and scaled to unit norm; a column of
    centered norm <= 1e-13 sqrt(n) is dropped) and their Gram matrix.

    Standardizing goes column by column, so the design of the first columns
    is made of leading blocks of this one (:meth:`prefix`): in graded-lex
    order the degree-p basis is a prefix of the degree cap's, and
    :func:`select_degree` prepares the cap's training design once for every
    mode and degree.
    """

    psi: np.ndarray  # (n, n_terms), column 0 the constant term
    x: np.ndarray  # (n, k) the standardized candidates
    candidates: np.ndarray  # (k,) increasing: the psi column of each x column
    gram: np.ndarray  # (k, k) x^T x

    @classmethod
    def of(cls, psi: np.ndarray) -> "_Design":
        psi = np.asarray(psi, dtype=float)
        if psi.ndim != 2:
            raise ValueError(f"design matrix must be 2D, got shape {psi.shape}")
        n = psi.shape[0]
        if n < 2:
            raise ValueError(f"need more than one sample, got {n}")
        if not np.allclose(psi[:, 0], 1.0, atol=1e-12):
            raise ValueError("first design column must be the constant term")
        centered = psi[:, 1:] - psi[:, 1:].mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->j", centered, centered))
        keep = np.flatnonzero(norms > 1e-13 * np.sqrt(n))
        x = centered[:, keep] / norms[keep]
        return cls(psi, x, keep + 1, x.T @ x)

    def prefix(self, n_terms: int) -> "_Design":
        """The design of the first ``n_terms`` columns."""
        k = int(np.searchsorted(self.candidates, n_terms))
        return _Design(self.psi[:, :n_terms], self.x[:, :k], self.candidates[:k],
                       self.gram[:k, :k])


def _prefix_scores(q: np.ndarray, r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Corrected leave-one-out error of every leading-column block of a design.

    ``q, r`` is the thin QR of an (n, P) design. The first p columns of the
    design have the leading blocks q[:, :p], r[:p, :p] as their factor, so one
    pass of running sums scores them all: leverages are running row sums of
    q**2, residuals running subtractions of q[:, k] (q[:, k] . y), and
    tr((Psi_p^T Psi_p)^-1) the running sum of squared column norms of R^-1.
    Entry p - 1 is the hat-matrix LOO error of the least-squares fit on the
    first p columns times the correction n / (n - p) (1 + tr(...)); it is
    infinite where a leverage reaches 1 or p >= n. The array stops before
    the first numerically rank-deficient block (running min over running
    max of |diag R|), as every longer block is deficient too.
    """
    n = q.shape[0]
    diag = np.abs(np.diag(r))
    full_rank = np.minimum.accumulate(diag) > 1e-12 * np.maximum(np.maximum.accumulate(diag), 1.0)
    p_max = int(full_rank.sum())
    q, r = q[:, :p_max], r[:p_max, :p_max]
    sizes = np.arange(1, p_max + 1)

    leverage = np.cumsum(q * q, axis=1)
    resid = y[:, None] - np.cumsum(q * (q.T @ y), axis=1)
    denom = 1.0 - leverage
    trace_inv = np.cumsum(np.sum(solve_triangular(r, np.eye(p_max)) ** 2, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        loo = np.mean((resid / denom) ** 2, axis=0)
        correction = (n / (n - sizes)) * (1.0 + trace_inv)
    corrected = loo * correction
    corrected[(sizes >= n) | np.any(denom <= 1e-12, axis=0)] = np.inf
    return corrected


def fit_lars(psi: np.ndarray | _Design, targets: np.ndarray) -> LarsFit:
    """Sparse coefficients for ``targets ~ psi`` by LARS + corrected LOO.

    ``psi`` may be a prepared :class:`_Design`. The path (:func:`_lars_path`)
    runs on the standardized regressors (intercept held out). It never drops
    a regressor, so its models are nested: model k uses the intercept and
    the first k path columns. One QR of the longest model's design scores
    every prefix (:func:`_prefix_scores`); the prefix with minimal corrected
    leave-one-out error wins, ties going to the sparser model. Only the
    winner is refitted, by least squares on its own columns, so its
    coefficients do not depend on the path that scored it.
    """
    design = psi if isinstance(psi, _Design) else _Design.of(psi)
    psi = design.psi
    targets = np.asarray(targets, dtype=float)
    n, n_terms = psi.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")

    y_c = targets - targets.mean()
    order = _lars_path(
        design.gram, design.x.T @ y_c, min(design.candidates.size, n - 1),
        1e-10 * max(float(np.linalg.norm(y_c)), 1.0),
    )
    path = [0, *design.candidates[order].tolist()]
    q, r = np.linalg.qr(psi[:, path])
    # The intercept-only prefix is never rank deficient, so a winner exists.
    p = int(np.argmin(_prefix_scores(q, r, targets))) + 1
    if p < len(path):
        q, r = np.linalg.qr(psi[:, path[:p]])
    fitted = solve_triangular(r, q.T @ targets)
    coef = np.zeros(n_terms)
    coef[path[:p]] = fitted
    return LarsFit(coefficients=coef, active=tuple(path[1:p]))


def _lars_path(gram: np.ndarray, xty: np.ndarray, max_active: int, floor: float) -> list[int]:
    """Least angle regression on standardized regressors, in P-space
    (Efron et al. 2004, section 7): the columns in the order they enter.

    Only the Gram matrix G = X^T X and X^T y are read. The correlations
    c = X^T (y - mu) move by -gamma G_A u_A per step, and the equiangular
    direction u_A = G_AA^-1 s / sqrt(s^T G_AA^-1 s) (s the signs the
    active columns entered with) comes from L^-1, the inverse Cholesky
    factor of G_AA, grown by one row per entering column. The path stops
    at ``max_active`` columns or when no free |c| exceeds ``floor``.

    * Ties: of equal |c|, the lowest column enters.
    * Collinearity: a column whose squared distance from the span of the
      active ones, G_jj - |L^-1 G_Aj|^2, is at most ``COLLINEAR_TOL`` is
      barred; it neither enters nor bounds a step.
    """
    k = xty.size
    c = xty.copy()
    free = np.ones(k, dtype=bool)  # neither active nor barred
    active: list[int] = []
    signs = np.empty(max_active)
    g_active = np.empty((k, max_active))  # G[:, active]
    l_inv = np.zeros((max_active, max_active))
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(active) < max_active:
            c_abs = np.where(free, np.abs(c), -np.inf)
            j = int(np.argmax(c_abs))
            if not c_abs[j] > floor:
                break
            free[j] = False
            m = len(active)
            ell = l_inv[:m, :m] @ g_active[j, :m]
            gap = gram[j, j] - ell @ ell
            if gap <= COLLINEAR_TOL:
                continue
            root = np.sqrt(gap)
            l_inv[m, :m] = (ell @ l_inv[:m, :m]) / -root
            l_inv[m, m] = 1.0 / root
            g_active[:, m] = gram[:, j]
            signs[m] = -1.0 if c[j] < 0.0 else 1.0
            active.append(j)
            m += 1
            if m == max_active:
                break
            z = l_inv[:m, :m] @ signs[:m]
            a_norm = 1.0 / np.sqrt(z @ z)
            a = g_active[:, :m] @ ((a_norm * z) @ l_inv[:m, :m])
            corr_max = np.abs(c[active]).max()
            gamma = corr_max / a_norm  # the full least-squares step
            c_free, a_free = c[free], a[free]
            steps = np.concatenate(
                ((corr_max - c_free) / (a_norm - a_free), (corr_max + c_free) / (a_norm + a_free))
            )
            steps = steps[(steps > 1e-15) & (steps < gamma)]
            if steps.size:
                gamma = steps.min()
            c -= gamma * a
    return active


# Degree selection and the fitted model ----------------------------------------


@dataclass(frozen=True)
class PceConfig:
    """Settings for fitting: declared input bounds and the degree cap."""

    bounds: np.ndarray  # (m_x, 2)
    max_degree: int = 3


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


def split_members(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle ``n`` members by ``seed`` and split them 75/25 into training
    and validation indices."""
    if n < SPLIT_MIN_MEMBERS:
        raise ValueError(f"need at least {SPLIT_MIN_MEMBERS} members for the 75/25 split, got {n}")
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
    the training set, all on leading blocks of one prepared :class:`_Design`
    (one standardization and one Gram matrix per call); the degree with the
    smallest validation mean squared error wins, ties broken toward the
    smaller degree. Training-set coefficients are kept (the validation set
    only scores).
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
    check_degree("max_degree", config.max_degree, train_inputs.shape[1])

    d_out = train_targets.shape[1]
    full = make_basis(config.bounds, config.max_degree)
    train = _Design.of(design_matrix(train_inputs, full))
    psi_val = design_matrix(val_inputs, full)
    # Graded-lex columns: the degree-p design is a prefix of the degree cap's.
    designs = [
        train.prefix(len(multi_index_set(full.input_dim, p))) for p in range(config.max_degree + 1)
    ]

    rows = np.zeros((d_out, full.n_terms))
    errors = np.empty(d_out)
    biases = np.empty(d_out)
    degrees = []
    for k in range(d_out):
        # Validation errors at roundoff level are ties; the parsimony rule
        # must not be decided by which exact fit rounds lower.
        floor = 1e-24 * float(np.mean(val_targets[:, k] ** 2))
        best: tuple[float, int, np.ndarray, np.ndarray] | None = None
        for p, design in enumerate(designs):
            fit = fit_lars(design, train_targets[:, k])
            predicted = psi_val[:, : fit.coefficients.size] @ fit.coefficients
            residual = val_targets[:, k] - predicted
            delta = float(np.mean(residual**2))
            if delta <= floor:
                delta = 0.0
            if best is None or delta < best[0]:
                best = (delta, p, fit.coefficients, residual)
        delta, p_sel, coef, residual = best
        rows[k, : coef.size] = coef
        errors[k] = delta
        biases[k] = float(np.mean(residual))
        degrees.append(p_sel)

    return PceModel(
        basis=full,
        coefficients=rows,
        empirical_errors=errors,
        selected_degrees=tuple(degrees),
        validation_bias=biases,
    )


@dataclass(frozen=True)
class _Point:
    """One physical input evaluated once for a basis: its Legendre table and
    each term's orthonormal factor per input, which :func:`pce_eval` and
    :func:`pce_jacobian` at this x both read (an optimizer asks for the
    value and the gradient at the same point).

    Built for 4-vectors, where a numpy call costs more than its arithmetic:
    the box check reads the largest |t| off t's list of floats, and only a
    t with an entry beyond [-1, 1] is checked entry by entry and clipped
    (clipping changes no entry inside). The factors are one ``take``
    through :attr:`PceBasis.flat_terms`. The table and factors keep the
    bits of :func:`design_matrix`'s row for x.
    """

    table: np.ndarray  # (degree + 1, m_x) P_b at the clipped standardized x
    factors: np.ndarray  # (n_terms, m_x) entry (alpha, i): sqrt(2a + 1) P_a(t_i), a = alpha_i

    @classmethod
    def of(cls, basis: PceBasis, x: np.ndarray) -> "_Point":
        """Standardize, check and tabulate ``x`` once: the same bits and
        the same messages as :meth:`PceBasis.standardize` on one row."""
        if x.shape != (basis.input_dim,):
            raise ValueError(f"x must have shape ({basis.input_dim},), got {x.shape}")
        t = (x - basis.offsets) / basis.scales
        # A NaN compares false: unless every other entry is inside [-1, 1],
        # the max is NaN or above 1 and the entries are checked one by one.
        if not max(map(abs, t.tolist())) <= 1.0:
            if np.any(np.abs(t) - 1.0 > BOUNDS_RTOL):
                basis.standardize(x)  # raises, naming the input
            np.minimum(np.maximum(t, -1.0, out=t), 1.0, out=t)
        table = _legendre(basis.degree, t)
        factors = _orthonormal(table, basis.norms).take(basis.flat_terms)
        return cls(table, factors)


def pce_eval(model: PceModel, x: np.ndarray | _Point) -> np.ndarray:
    """Expansion value at one physical input, C zeta(T(x)), shape (d,).
    ``x`` may be an evaluated :class:`_Point`, whose factors are reused."""
    point = x if isinstance(x, _Point) else _Point.of(model.basis, np.asarray(x, dtype=float))
    # Term alpha's factors multiply in input order, as in design_matrix.
    return np.multiply.reduce(point.factors, axis=1) @ model.coefficients.T


def pce_jacobian(model: PceModel, x: np.ndarray | _Point) -> np.ndarray:
    """Derivatives of the expansion at one physical input, shape (d, m_x).

    Entry (k, i) sums c^k_alpha over terms, each term differentiated in
    input i through the affine standardization (chain-rule factor 1/scale_i).
    ``x`` may be an evaluated :class:`_Point`, whose table is reused.

    Column i of a term's derivative is its derivative factor in input i
    times its factors in the other inputs, in increasing input order: m_x - 1
    whole-array multiplies, each reading one slice of one ``take`` through
    :attr:`PceBasis.flat_others`. A degree-0 factor has derivative 0.0 and
    value 1.0 exactly, so no term needs masking.
    """
    basis = model.basis
    point = x if isinstance(x, _Point) else _Point.of(basis, np.asarray(x, dtype=float))
    dz = _orthonormal(_derivatives(point.table), basis.norms).take(basis.flat_terms)
    dz /= basis.scales  # d zeta / d x
    for others in point.factors.take(basis.flat_others):
        dz *= others
    return model.coefficients @ dz
