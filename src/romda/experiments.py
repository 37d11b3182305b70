"""Twin and measurement experiment drivers over the synthetic tidal model.

Everything the solvers see is standardized: parameters are centered/reduced
by the prior table statistics (so the default background covariance is the
identity), states by per-component training-ensemble statistics. Analyses
are reported back in physical units. All randomness flows from the run
seed through named substreams; sweeps are deterministic per (config, seed),
and nested training-size sweeps reuse members.
"""
from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import toymodel
from .assimilate import (
    AssimilationProblem,
    scale_covariances,
    solve_classical_3dvar,
    solve_poden3dvar,
    solve_podpce3dvar,
)
from .optimize import OptimizerConfig
from .pce import PceConfig
from .pod import truncate
from .rng import split_seed, substream, substream_seed
from .surrogate import (
    COVARIANCE_KINDS,
    PodEnSurrogate,
    PodPceSurrogate,
    build_poden,
    build_podpce,
    observation_covariance,
)

log = logging.getLogger(__name__)

SURROGATE_KINDS = ("podpce", "poden")
DEFAULT_NOISE_LEVELS = (0.01, 0.05, 0.10, 0.20, 0.40)
DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


# Standardization ---------------------------------------------------------------


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
        mean = ensemble.mean(axis=1)
        std = ensemble.std(axis=1)
        floor = 1e-12 + 1e-8 * np.abs(mean)
        if np.any(std < floor):
            log.warning("flooring %d zero-variance components", int(np.sum(std < floor)))
        return cls(mean=mean, std=np.maximum(std, floor))

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return (values - self.mean) / self.std
        return (values - self.mean[:, None]) / self.std[:, None]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            return values * self.std + self.mean
        return values * self.std[:, None] + self.mean[:, None]

    def variance_diag(self, variances: np.ndarray) -> np.ndarray:
        """Diagonal variances mapped into standardized coordinates."""
        return np.asarray(variances, dtype=float) / self.std**2


def parameter_standardizer() -> Standardizer:
    """Fixed parameter standardization from the prior table statistics."""
    return Standardizer(mean=toymodel.PARAMETER_MEANS.copy(), std=toymodel.PARAMETER_STDS.copy())


# Noise and metrics --------------------------------------------------------------


def inject_noise(
    y_t: np.ndarray,
    noise_level: float,
    seed: int,
    grid: toymodel.ToyGrid | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian perturbation of a true state, plus the matching R diagonal.

    The standard deviation of each component is ``noise_level`` times the
    temporal standard deviation of its own (variable, station) series, so
    every series is perturbed relative to its size. The same variances fill
    the returned observation-error diagonal.
    """
    if not 0.0 < noise_level < 1.0:
        raise ValueError(f"noise level must be in (0, 1), got {noise_level}")
    grid = grid or toymodel.default_grid()
    y_t = np.asarray(y_t, dtype=float)
    if y_t.shape != (grid.n_state,):
        raise ValueError(f"state must have shape ({grid.n_state},), got {y_t.shape}")

    cube = toymodel.unflatten(y_t, grid)  # (variable, station, time)
    series_std = cube.std(axis=2)
    series_mean = cube.mean(axis=2)
    zero = series_std <= 0.0
    if np.any(zero):
        log.warning("flooring %d zero-variance observation series", int(np.sum(zero)))
        series_std = np.where(
            zero, 1e-6 * np.abs(series_mean) + 1e-12 / noise_level, series_std
        )
    sigma = (noise_level * series_std)[:, :, None] * np.ones(grid.n_times)
    sigma = sigma.reshape(-1)

    rng = substream(seed, "noise")
    y_o = y_t + sigma * rng.standard_normal(y_t.size)
    return y_o, sigma**2


def rmse_global(
    y_ref: np.ndarray,
    y_hat: np.ndarray,
    standardizer: Standardizer,
    *,
    relative: bool = False,
) -> float:
    """Root mean square error over standardized components.

    With ``relative=True`` the value is divided by the standardized
    reference root mean square.
    """
    z_ref = standardizer.transform(np.asarray(y_ref, dtype=float))
    z_hat = standardizer.transform(np.asarray(y_hat, dtype=float))
    if z_ref.shape != z_hat.shape:
        raise ValueError("reference and prediction must have equal shapes")
    rmse = float(np.sqrt(np.mean((z_hat - z_ref) ** 2)))
    if not relative:
        return rmse
    ref_rms = float(np.sqrt(np.mean(z_ref**2)))
    if ref_rms <= 0.0:
        raise ValueError("relative RMSE undefined: standardized reference has zero RMS")
    return rmse / ref_rms


def rmse_by(
    y_ref: np.ndarray,
    y_hat: np.ndarray,
    standardizer: Standardizer,
    by: str = "variable",
    grid: toymodel.ToyGrid | None = None,
) -> dict[str, float]:
    """Standardized RMSE sliced by 'variable', 'station' or 'series'."""
    grid = grid or toymodel.default_grid()
    z_ref = standardizer.transform(np.asarray(y_ref, dtype=float))
    z_hat = standardizer.transform(np.asarray(y_hat, dtype=float))
    diff2 = toymodel.unflatten((z_hat - z_ref) ** 2, grid)
    out: dict[str, float] = {}
    if by == "variable":
        for v, name in enumerate(toymodel.VARIABLES):
            out[name] = float(np.sqrt(diff2[v].mean()))
    elif by == "station":
        for p in range(toymodel.N_STATIONS):
            out[f"P{p + 1}"] = float(np.sqrt(diff2[:, p].mean()))
    elif by == "series":
        for v, name in enumerate(toymodel.VARIABLES):
            for p in range(toymodel.N_STATIONS):
                out[f"{name}@P{p + 1}"] = float(np.sqrt(diff2[v, p].mean()))
    else:
        raise ValueError(f"unknown grouping {by!r}, expected variable/station/series")
    return out


# Configurations and report rows --------------------------------------------------


def _check_sweep(config: "TwinConfig | MeasurementConfig") -> None:
    """Checks shared by the sweep configurations; each message names its field."""
    sizes = config.training_sizes
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise ValueError("training_sizes: training sizes must be strictly increasing and nonempty")
    if min(sizes) < 8:
        raise ValueError("training_sizes: training sizes below 8 members are not supported")
    for kind in config.surrogates:
        if kind not in SURROGATE_KINDS:
            raise ValueError(
                f"surrogates: surrogate kind must be one of {SURROGATE_KINDS}, got {kind!r}"
            )
    if config.evr_threshold is None and not config.mode_numbers:
        raise ValueError("mode_numbers: need mode_numbers or evr_threshold")


@dataclass(frozen=True)
class TwinConfig:
    seed: int = 0
    x_t: tuple[float, ...] | None = None  # drawn from the truth substream if None
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    training_sizes: tuple[int, ...] = (100, 400)
    mode_numbers: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    evr_threshold: float | None = None  # overrides mode_numbers when set
    surrogates: tuple[str, ...] = SURROGATE_KINDS
    covariance_kind: str = "r_tilde"  # applies to the nonlinear surrogate
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    grid_noise: float = 0.10  # covariance-grid driver settings
    grid_modes: int = 5
    bootstrap_replicates: int = 50
    bootstrap_size: int = 800
    bootstrap_noise: float = 0.10
    pce_degree: int = 3
    b_from_truth: bool = False

    def __post_init__(self) -> None:
        for level in self.noise_levels + (self.grid_noise, self.bootstrap_noise):
            if not 0.0 < level < 1.0:
                raise ValueError(
                    f"noise level {level} rejected: observation covariance must be "
                    "positive definite, so levels lie strictly in (0, 1)"
                )
        _check_sweep(self)
        if self.covariance_kind not in COVARIANCE_KINDS:
            raise ValueError(f"covariance kind must be one of {COVARIANCE_KINDS}")
        if any(a <= 0 for a in self.alpha_grid):
            raise ValueError("alpha factors must be positive")


@dataclass(frozen=True)
class MeasurementConfig:
    seed: int = 0
    assumed_noise: float = 0.05  # fills R from observed-series variability
    training_sizes: tuple[int, ...] = (400,)
    mode_numbers: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    evr_threshold: float | None = None
    surrogates: tuple[str, ...] = SURROGATE_KINDS
    covariance_kinds: tuple[str, ...] = ("r", "r_tilde")
    pce_degree: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.assumed_noise < 1.0:
            raise ValueError("assumed noise must be in (0, 1)")
        _check_sweep(self)
        for kind in self.covariance_kinds:
            if kind not in COVARIANCE_KINDS:
                raise ValueError(f"covariance kind must be one of {COVARIANCE_KINDS}")


@dataclass
class ReportRow:
    experiment: str
    solver: str  # podpce | poden | classical
    covariance: str
    n: int
    d: int
    noise: float
    alpha_b: float
    alpha_r: float
    rmse_truth: float
    rmse_obs: float
    rmse_truth_background: float
    rmse_by_variable: dict[str, float]
    rmse_by_station: dict[str, float]
    x_a: np.ndarray
    clipped: bool
    j_final: float
    model_runs: int
    surrogate_evals: int
    converged: bool
    reason: str
    wall_time: float
    error: str = ""


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    seed: int
    experiment: str
    extras: dict = field(default_factory=dict)


# Shared experiment machinery ------------------------------------------------------


@dataclass
class _Context:
    """Pools and transforms shared by every cell of one experiment run."""

    seed: int
    grid: toymodel.ToyGrid
    params_pool: np.ndarray  # (n_max, 4) physical
    states_pool: np.ndarray  # (m_y, n_max) physical
    param_std: Standardizer
    pce_degree: int

    def members(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n > self.params_pool.shape[0]:
            raise ValueError(
                f"training size {n} exceeds the sampled pool {self.params_pool.shape[0]}"
            )
        return self.params_pool[:n], self.states_pool[:, :n]


def _make_context(
    seed: int, n_max: int, pce_degree: int, grid: toymodel.ToyGrid | None = None
) -> _Context:
    grid = grid or toymodel.default_grid()
    params_pool = toymodel.sample_parameters(n_max, seed)
    states_pool = toymodel.propagate(params_pool, grid)
    return _Context(
        seed=seed,
        grid=grid,
        params_pool=params_pool,
        states_pool=states_pool,
        param_std=parameter_standardizer(),
        pce_degree=pce_degree,
    )


def _draw_truth(config: TwinConfig) -> np.ndarray:
    if config.x_t is not None:
        x_t = np.asarray(config.x_t, dtype=float)
        toymodel.check_bounds(x_t)
        return x_t
    rng = substream(config.seed, "truth")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    return low + rng.random(4) * (high - low)


@dataclass
class _Builds:
    """Surrogates built once per (n, kind) at the largest requested rank and
    sliced per mode count (mode fits are independent, so slicing is exact)."""

    podpce: dict[int, PodPceSurrogate]
    poden: dict[int, PodEnSurrogate]
    standardizer: Standardizer


def _shrink_podpce(s: PodPceSurrogate, d: int) -> PodPceSurrogate:
    pce = dataclasses.replace(
        s.pce,
        coefficients=s.pce.coefficients[:d],
        empirical_errors=s.pce.empirical_errors[:d],
        selected_degrees=s.pce.selected_degrees[:d],
        validation_bias=s.pce.validation_bias[:d],
    )
    return dataclasses.replace(s, state_basis=truncate(s.state_basis, modes=d), pce=pce)


def _build_surrogates(
    ctx: _Context,
    n: int,
    kinds: Iterable[str],
    mode_numbers: tuple[int, ...],
    evr_threshold: float | None,
) -> _Builds:
    """Surrogates of the first ``n`` members: one per mode number, or the
    single rank that ``evr_threshold`` selects when it is set."""
    params_phys, states_phys = ctx.members(n)
    standardizer = Standardizer.fit(states_phys)
    z_states = standardizer.transform(states_phys)
    z_params = ctx.param_std.transform(params_phys.T)  # (4, n), components first
    if evr_threshold is None:
        truncation = {"modes": max(mode_numbers)}
    else:
        truncation = {"evr_threshold": evr_threshold}

    def ranks(full) -> tuple[int, ...]:
        return mode_numbers if evr_threshold is None else (full.d,)

    podpce: dict[int, PodPceSurrogate] = {}
    poden: dict[int, PodEnSurrogate] = {}
    if "podpce" in kinds:
        full = build_podpce(
            z_params,
            z_states,
            PceConfig(_standardized_bounds(ctx.param_std), ctx.pce_degree),
            split_seed=split_seed(ctx.seed, n),
            **truncation,
        )
        podpce = {d: _shrink_podpce(full, d) for d in ranks(full)}
    if "poden" in kinds:
        base = build_poden(z_params, z_states, **truncation)
        poden = {d: PodEnSurrogate(basis=truncate(base.basis, modes=d), m_x=4) for d in ranks(base)}
    return _Builds(podpce=podpce, poden=poden, standardizer=standardizer)


def _standardized_bounds(param_std: Standardizer) -> np.ndarray:
    return np.column_stack(
        [
            param_std.transform(toymodel.PARAMETER_BOUNDS[:, 0]),
            param_std.transform(toymodel.PARAMETER_BOUNDS[:, 1]),
        ]
    )


def _background_cov_std(config_b_from_truth: bool, x_t: np.ndarray, param_std: Standardizer) -> np.ndarray:
    if not config_b_from_truth:
        return np.eye(4)
    deviation = param_std.transform(toymodel.PARAMETER_MEANS) - param_std.transform(x_t)
    return np.diag(np.maximum(deviation**2, 1e-12))


@dataclass(frozen=True)
class _Cell:
    """One assimilation of a sweep, as named by the leading report columns."""

    experiment: str
    solver: str
    covariance: str
    n: int
    d: int
    noise: float
    alpha_b: float = 1.0
    alpha_r: float = 1.0


@dataclass(frozen=True)
class _Observed:
    """What the cells of a run assimilate (physical units) and are scored
    against; the truth and background states are None in measurement mode."""

    y_o: np.ndarray
    r_diag: np.ndarray
    b_cov: np.ndarray  # standardized background covariance
    y_t: np.ndarray | None = None
    y_b: np.ndarray | None = None


def _cells(
    builds: _Builds,
    surrogates: tuple[str, ...],
    covariances: tuple[str, ...],
    **key,
) -> Iterator[_Cell]:
    """Cells of one build in report order: solver, then covariance (the
    linear surrogate runs with plain R only), then mode count."""
    for solver in surrogates:
        available = builds.podpce if solver == "podpce" else builds.poden
        for covariance in (covariances if solver == "podpce" else ("r",)):
            for d in sorted(available):
                yield _Cell(solver=solver, covariance=covariance, d=d, **key)


def _run_cell(ctx: _Context, builds: _Builds, cell: _Cell, observed: _Observed) -> ReportRow:
    """Solve one cell in standardized space and report it in physical units.

    A failure is logged and becomes an error row, so the sweep goes on.
    """
    nan = float("nan")
    start = time.perf_counter()
    try:
        standardizer = builds.standardizer
        surrogate = builds.podpce[cell.d] if cell.solver == "podpce" else builds.poden[cell.d]
        r_diag_std = standardizer.variance_diag(observed.r_diag)
        problem = AssimilationProblem(
            x_b=np.zeros(4),
            background_cov=observed.b_cov,
            y_o=standardizer.transform(observed.y_o),
            observation_cov=observation_covariance(cell.covariance, surrogate, r_diag_std),
            bounds=_standardized_bounds(ctx.param_std),
        )
        problem = scale_covariances(problem, cell.alpha_b, cell.alpha_r)
        if cell.solver == "podpce":
            analysis = solve_podpce3dvar(surrogate, problem)
            surrogate_evals = analysis.evaluations
        else:
            analysis = solve_poden3dvar(surrogate, problem)
            surrogate_evals = 0

        x_a_phys = ctx.param_std.inverse(analysis.x_a)
        low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
        x_a = np.clip(x_a_phys, low, high)
        y_a = toymodel.simulate(x_a, ctx.grid)  # reporting run, not a solver call
        y_t, y_b, y_o = observed.y_t, observed.y_b, observed.y_o
        reference = y_t if y_t is not None else y_o
        return ReportRow(
            **dataclasses.asdict(cell),
            rmse_truth=rmse_global(y_t, y_a, standardizer) if y_t is not None else nan,
            rmse_obs=rmse_global(y_o, y_a, standardizer),
            rmse_truth_background=(
                rmse_global(y_t, y_b, standardizer) if (y_t is not None and y_b is not None) else nan
            ),
            rmse_by_variable=rmse_by(reference, y_a, standardizer, "variable", ctx.grid),
            rmse_by_station=rmse_by(reference, y_a, standardizer, "station", ctx.grid),
            x_a=x_a,
            clipped=bool(np.any(np.abs(x_a - x_a_phys) > 0.0)),
            j_final=analysis.j_final,
            model_runs=cell.n,  # ensemble only; the surrogate solvers never call the model
            surrogate_evals=surrogate_evals,
            converged=analysis.converged,
            reason=analysis.reason,
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:  # recorded per cell, sweep continues
        log.warning("cell failed: %s", exc, exc_info=True)
        return ReportRow(
            **dataclasses.asdict(cell),
            rmse_truth=nan,
            rmse_obs=nan,
            rmse_truth_background=nan,
            rmse_by_variable={},
            rmse_by_station={},
            x_a=np.full(4, np.nan),
            clipped=False,
            j_final=nan,
            model_runs=0,
            surrogate_evals=0,
            converged=False,
            reason="error",
            wall_time=0.0,
            error=str(exc),
        )


# Drivers --------------------------------------------------------------------------


def run_twin(config: TwinConfig) -> ExperimentReport:
    """Noise x training-size x mode sweep against a drawn synthetic truth."""
    n_max = max(config.training_sizes)
    ctx = _make_context(config.seed, n_max, config.pce_degree)
    x_t = _draw_truth(config)
    y_t = toymodel.simulate(x_t, ctx.grid)
    y_b = toymodel.simulate(toymodel.PARAMETER_MEANS, ctx.grid)
    b_cov = _background_cov_std(config.b_from_truth, x_t, ctx.param_std)

    observed = {}
    for level in config.noise_levels:
        y_o, r_diag = inject_noise(y_t, level, substream_seed(config.seed, f"noise/{level!r}"), ctx.grid)
        observed[level] = _Observed(y_o, r_diag, b_cov, y_t, y_b)
    builds = {
        n: _build_surrogates(ctx, n, config.surrogates, config.mode_numbers, config.evr_threshold)
        for n in config.training_sizes
    }
    rows = [
        _run_cell(ctx, builds[n], cell, observed[noise])
        for noise in config.noise_levels
        for n in config.training_sizes
        for cell in _cells(
            builds[n], config.surrogates, (config.covariance_kind,),
            experiment="twin", n=n, noise=noise,
        )
    ]
    return ExperimentReport(
        rows=rows,
        seed=config.seed,
        experiment="twin",
        extras={"x_t": x_t.tolist(), "rmse_truth_background": rows[0].rmse_truth_background if rows else None},
    )


def run_covariance_grid(config: TwinConfig) -> ExperimentReport:
    """One assimilation per (alpha_B, alpha_R) pair on the alpha grid."""
    n = max(config.training_sizes)
    ctx = _make_context(config.seed, n, config.pce_degree)
    x_t = _draw_truth(config)
    y_t = toymodel.simulate(x_t, ctx.grid)
    y_b = toymodel.simulate(toymodel.PARAMETER_MEANS, ctx.grid)
    b_cov = _background_cov_std(config.b_from_truth, x_t, ctx.param_std)
    y_o, r_diag = inject_noise(
        y_t, config.grid_noise, substream_seed(config.seed, f"noise/{config.grid_noise!r}"), ctx.grid
    )
    observed = _Observed(y_o, r_diag, b_cov, y_t, y_b)
    builds = _build_surrogates(ctx, n, ("podpce",), (config.grid_modes,), None)
    rows = [
        _run_cell(ctx, builds, cell, observed)
        for alpha_b in config.alpha_grid
        for alpha_r in config.alpha_grid
        for cell in _cells(
            builds, ("podpce",), (config.covariance_kind,),
            experiment="covgrid", n=n, noise=config.grid_noise, alpha_b=alpha_b, alpha_r=alpha_r,
        )
    ]
    size = len(config.alpha_grid)
    matrix = np.array([row.rmse_truth for row in rows]).reshape(size, size)
    return ExperimentReport(
        rows=rows,
        seed=config.seed,
        experiment="covgrid",
        extras={"x_t": x_t.tolist(), "alpha_grid": list(config.alpha_grid), "rmse_matrix": matrix.tolist()},
    )


def run_bootstrap(config: TwinConfig) -> ExperimentReport:
    """Fresh training ensembles per replicate at a fixed size; RMSE spread per
    mode count and solver."""
    x_t = _draw_truth(config)
    grid = toymodel.default_grid()
    y_t = toymodel.simulate(x_t, grid)
    y_b = toymodel.simulate(toymodel.PARAMETER_MEANS, grid)
    b_cov = _background_cov_std(config.b_from_truth, x_t, parameter_standardizer())
    y_o, r_diag = inject_noise(
        y_t,
        config.bootstrap_noise,
        substream_seed(config.seed, f"noise/{config.bootstrap_noise!r}"),
        grid,
    )
    observed = _Observed(y_o, r_diag, b_cov, y_t, y_b)

    rows: list[ReportRow] = []
    for replicate in range(config.bootstrap_replicates):
        member_seed = substream_seed(config.seed, f"bootstrap/{replicate}")
        ctx = _make_context(member_seed, config.bootstrap_size, config.pce_degree, grid)
        builds = _build_surrogates(
            ctx, config.bootstrap_size, config.surrogates, config.mode_numbers, config.evr_threshold
        )
        rows.extend(
            _run_cell(ctx, builds, cell, observed)
            for cell in _cells(
                builds, config.surrogates, (config.covariance_kind,),
                experiment=f"bootstrap/{replicate}", n=config.bootstrap_size,
                noise=config.bootstrap_noise,
            )
        )

    summary: dict[str, dict[str, float]] = {}
    for solver in config.surrogates:
        for d in sorted({r.d for r in rows if r.solver == solver}):
            values = [
                r.rmse_truth
                for r in rows
                if r.solver == solver and r.d == d and np.isfinite(r.rmse_truth)
            ]
            if values:
                summary[f"{solver}/d={d}"] = {
                    "min": float(np.min(values)),
                    "mean": float(np.mean(values)),
                    "max": float(np.max(values)),
                }
    return ExperimentReport(
        rows=rows,
        seed=config.seed,
        experiment="bootstrap",
        extras={"x_t": x_t.tolist(), "summary": summary},
    )


def measurement_noise_diag(
    y_o: np.ndarray, assumed_noise: float, grid: toymodel.ToyGrid | None = None
) -> np.ndarray:
    """R diagonal for a measured state: variance from each observed series."""
    grid = grid or toymodel.default_grid()
    cube = toymodel.unflatten(np.asarray(y_o, dtype=float), grid)
    series_std = np.maximum(cube.std(axis=2), 1e-12)
    sigma = (assumed_noise * series_std)[:, :, None] * np.ones(grid.n_times)
    return sigma.reshape(-1) ** 2


def run_measurement(config: MeasurementConfig, y_o: np.ndarray) -> ExperimentReport:
    """Surrogate solvers confronted with the classical reference on a
    measured (external) observation vector."""
    grid = toymodel.default_grid()
    y_o = np.asarray(y_o, dtype=float)
    if y_o.shape != (grid.n_state,):
        raise ValueError(
            f"observation vector must match the state layout ({grid.n_state},), got {y_o.shape}"
        )
    n_max = max(config.training_sizes)
    ctx = _make_context(config.seed, n_max, config.pce_degree)
    r_diag = measurement_noise_diag(y_o, config.assumed_noise, grid)

    builds = {
        n: _build_surrogates(ctx, n, config.surrogates, config.mode_numbers, config.evr_threshold)
        for n in config.training_sizes
    }

    # Classical reference in the same standardized coordinates as the
    # largest training ensemble.
    standardizer = builds[n_max].standardizer
    param_std = ctx.param_std
    bounds_std = _standardized_bounds(param_std)

    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]

    def model_std(x_std: np.ndarray) -> np.ndarray:
        # Probes can sit on a bound; the inverse affine map may overshoot it
        # by one ulp, so snap back before simulating.
        x_phys = np.clip(param_std.inverse(x_std), low, high)
        return standardizer.transform(toymodel.simulate(x_phys, grid))

    problem = AssimilationProblem(
        x_b=np.zeros(4),
        background_cov=np.eye(4),
        y_o=standardizer.transform(y_o),
        observation_cov=standardizer.variance_diag(r_diag),
        bounds=bounds_std,
    )
    start = time.perf_counter()
    classical = solve_classical_3dvar(model_std, problem, optimizer_config=OptimizerConfig())
    classical_time = time.perf_counter() - start
    x_a_classical = param_std.inverse(classical.x_a)
    y_a_classical = toymodel.simulate(x_a_classical, grid)
    classical_row = ReportRow(
        experiment="measure",
        solver="classical",
        covariance="r",
        n=0,
        d=0,
        noise=config.assumed_noise,
        alpha_b=1.0,
        alpha_r=1.0,
        rmse_truth=float("nan"),
        rmse_obs=rmse_global(y_o, y_a_classical, standardizer),
        rmse_truth_background=float("nan"),
        rmse_by_variable=rmse_by(y_o, y_a_classical, standardizer, "variable", grid),
        rmse_by_station=rmse_by(y_o, y_a_classical, standardizer, "station", grid),
        x_a=x_a_classical,
        clipped=False,
        j_final=classical.j_final,
        model_runs=classical.evaluations,
        surrogate_evals=0,
        converged=classical.converged,
        reason=classical.reason,
        wall_time=classical_time,
    )

    observed = _Observed(y_o, r_diag, np.eye(4))
    rows = [classical_row] + [
        _run_cell(ctx, builds[n], cell, observed)
        for n in config.training_sizes
        for cell in _cells(
            builds[n], config.surrogates, config.covariance_kinds,
            experiment="measure", n=n, noise=config.assumed_noise,
        )
    ]
    return ExperimentReport(
        rows=rows,
        seed=config.seed,
        experiment="measure",
        extras={
            "classical_rmse_obs": classical_row.rmse_obs,
            "classical_model_runs": classical_row.model_runs,
            "classical_iterations": len(classical.cost_trace) - 1,
            "classical_x_a": x_a_classical.tolist(),
        },
    )
