"""Twin and measurement experiment drivers over the synthetic tidal model.

Everything the solvers see is standardized: parameters are centered/reduced
by the prior table statistics (so the default background covariance is the
identity), states by per-component training-ensemble statistics; the
drivers and the ``build-surrogate`` command both build through
:func:`build_surrogates`. Analyses are reported back in physical units. All
randomness flows from the run seed through named substreams; sweeps are
deterministic per (config, seed), and nested training-size sweeps reuse members.
Each driver runs with the OpenBLAS copies bundled with numpy and scipy at
one thread (:func:`_one_blas_thread`), wherever it is called from, unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set. The independent
units of a sweep (bootstrap replicates, twin (noise, n) groups) run in
forked workers (:func:`_map`); their rows do not depend on the worker count.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Sequence

import numpy as np
import scipy

from . import toymodel
from .assimilate import (
    ModeWhitening,
    pose_problem,
    solve_classical_3dvar,
    solve_poden3dvar,
    solve_podpce3dvar,
)
from .pce import PceConfig
from .pod import ModeCountError, fit_pod, truncate
from .rng import split_seed, substream, substream_seed
from .surrogate import (
    COVARIANCE_KINDS,
    PodEnSurrogate,
    PodPceSurrogate,
    Scaling,
    Standardizer,
    build_poden,
    build_podpce,
)

log = logging.getLogger(__name__)

SURROGATE_KINDS = ("podpce", "poden")
DEFAULT_NOISE_LEVELS = (0.01, 0.05, 0.10, 0.20, 0.40)
DEFAULT_ALPHA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


# Standardized builds -------------------------------------------------------------


def parameter_standardizer() -> Standardizer:
    """Fixed parameter standardization from the prior table statistics."""
    return Standardizer(mean=toymodel.PARAMETER_MEANS.copy(), std=toymodel.PARAMETER_STDS.copy())


def build_surrogates(
    params: np.ndarray, states: np.ndarray, bounds: np.ndarray, kinds: Collection[str], *,
    pce_degree: int, split_seed: int, param_std: Standardizer | None = None,
    modes: int | None = None, evr_threshold: float | None = None,
) -> tuple[dict[str, PodPceSurrogate | PodEnSurrogate], Scaling]:
    """Fit each surrogate kind in ``kinds`` ("podpce", "poden") on one
    standardized ensemble, and return them with the :class:`Scaling` used.
    The state POD is fitted once and serves both kinds.

    ``params`` (m_x, n) and ``states`` (m_y, n) are physical, paired by
    column, and ``bounds`` is the physical box. Parameters are standardized
    by ``param_std``, by default the box's midpoint and half-range; states
    by their per-component ensemble statistics.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (np.shape(params)[0], 2) or not np.all(bounds[:, 1] > bounds[:, 0]):
        raise ValueError(f"bounds must be one (low, high) row per parameter, low < high: {bounds}")
    if param_std is None:
        param_std = Standardizer(bounds.mean(axis=1), (bounds[:, 1] - bounds[:, 0]) / 2.0)
    scaling = Scaling(params=param_std, states=Standardizer.fit(states), bounds=bounds)
    z_params = scaling.params.transform(params)
    z_states = scaling.states.transform(states)
    shared = {"modes": modes, "evr_threshold": evr_threshold, "state_basis": fit_pod(z_states)}
    built: dict[str, PodPceSurrogate | PodEnSurrogate] = {}
    if "podpce" in kinds:
        config = PceConfig(scaling.box, pce_degree)
        built["podpce"] = build_podpce(z_params, z_states, config, split_seed, **shared)
    if "poden" in kinds:
        built["poden"] = build_poden(z_params, z_states, **shared)
    return built, scaling


# Observation noise --------------------------------------------------------------


def _series_sigma(y: np.ndarray, noise_level: float) -> np.ndarray:
    """Per-component noise standard deviation of a state: ``noise_level``
    times the temporal standard deviation of its own (variable, station)
    series. A constant series is floored at 1e-6 |mean| + 1e-12 / noise_level,
    with a warning."""
    cube = toymodel.unflatten(np.asarray(y, dtype=float))  # (variable, station, time)
    series_std = cube.std(axis=2)
    zero = series_std <= 0.0
    if np.any(zero):
        log.warning("flooring %d zero-variance observation series", int(np.sum(zero)))
        series_std = np.where(
            zero, 1e-6 * np.abs(cube.mean(axis=2)) + 1e-12 / noise_level, series_std
        )
    sigma = (noise_level * series_std)[:, :, None] * np.ones(cube.shape[2])
    return sigma.reshape(-1)


def inject_noise(
    y_t: np.ndarray,
    noise_level: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian perturbation of a true state, plus the matching R diagonal.

    Each component's standard deviation is :func:`_series_sigma`'s, so every
    series is perturbed relative to its size. The same variances fill the
    returned observation-error diagonal.
    """
    if not 0.0 < noise_level < 1.0:
        raise ValueError(f"noise level must be in (0, 1), got {noise_level}")
    y_t = np.asarray(y_t, dtype=float)
    sigma = _series_sigma(y_t, noise_level)
    rng = substream(seed, "noise")
    y_o = y_t + sigma * rng.standard_normal(y_t.size)
    return y_o, sigma**2


def measurement_noise_diag(y_o: np.ndarray, assumed_noise: float) -> np.ndarray:
    """R diagonal for a measured state: the variances of
    :func:`_series_sigma` at ``assumed_noise``."""
    return _series_sigma(y_o, assumed_noise) ** 2


# Configurations and report rows --------------------------------------------------


def _check_each(field: str, values: tuple, ok: Callable, rule: str) -> None:
    """Reject an empty ``values`` or its first entry that fails ``ok``; the
    message starts with ``field``."""
    if not values:
        raise ValueError(f"{field}: need at least one entry")
    for value in values:
        if not ok(value):
            raise ValueError(f"{field}: {rule}, got {value!r}")


# (ok, rule) of an observation noise level.
_NOISE = (lambda level: 0.0 < level < 1.0,
          "noise levels lie strictly in (0, 1), so the observation covariance is positive definite")


def _check_counts(field: str, values: tuple, low: int, rule: str) -> None:
    """Reject an entry of a count field that is no integer (a bool is
    none) or, by ``rule``, is below ``low``."""
    _check_each(field, values, lambda k: isinstance(k, (int, np.integer)) and not isinstance(k, bool),
                "counts must be integers")
    _check_each(field, values, lambda k: k >= low, rule)


def _check_sweep(config: "TwinConfig | MeasurementConfig") -> None:
    """Checks shared by the sweep configurations, made before any ensemble
    is drawn; each message starts with its field."""
    sizes = config.training_sizes
    _check_counts("training_sizes", sizes, 8, "training sizes below 8 members are not supported")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("training_sizes: training sizes must be strictly increasing")
    _check_each("surrogates", config.surrogates, SURROGATE_KINDS.__contains__,
                f"surrogate kind must be one of {SURROGATE_KINDS}")
    if config.evr_threshold is None and not config.mode_numbers:
        raise ValueError("mode_numbers: need mode_numbers or evr_threshold")
    if config.mode_numbers:
        _check_counts("mode_numbers", config.mode_numbers, 1, "mode counts start at 1")
    if config.evr_threshold is not None:
        _check_each("evr_threshold", (config.evr_threshold,), lambda tau: 0.0 < tau <= 1.0,
                    "EVR threshold must be in (0, 1]")
    _check_counts("pce_degree", (config.pce_degree,), 0, "degree must be >= 0")


def _check_truth(x_t: tuple | None) -> None:
    """Reject a given truth that is not 4 finite values inside the toy
    model's parameter box; the message starts with ``x_t``."""
    if x_t is None:
        return
    names = toymodel.PARAMETER_NAMES
    try:
        values = np.asarray(x_t, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (len(names),) or not np.all(np.isfinite(values)):
        raise ValueError(f"x_t: need {len(names)} finite parameters {names}, got {x_t!r}")
    try:
        toymodel.check_bounds(values)
    except ValueError as exc:
        raise ValueError(f"x_t: {exc}") from None


def _check_modes(field: str, counts: tuple[int, ...], n: int) -> None:
    """Reject a mode count above n - 1, the rank of n centered members;
    each driver checks its own counts before it draws an ensemble."""
    _check_each(field, counts, lambda d: d <= n - 1, f"{n} members hold at most {n - 1} modes")


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
        _check_truth(self.x_t)
        _check_each("noise_levels", self.noise_levels, *_NOISE)
        _check_each("grid_noise", (self.grid_noise,), *_NOISE)
        _check_each("bootstrap_noise", (self.bootstrap_noise,), *_NOISE)
        _check_sweep(self)
        _check_each("covariance_kind", (self.covariance_kind,), COVARIANCE_KINDS.__contains__,
                    f"covariance kind must be one of {COVARIANCE_KINDS}")
        _check_each("alpha_grid", self.alpha_grid, lambda a: a > 0, "alpha factors must be positive")
        _check_counts("grid_modes", (self.grid_modes,), 1, "mode counts start at 1")
        _check_counts("bootstrap_replicates", (self.bootstrap_replicates,), 1,
                      "need at least one replicate")
        _check_counts("bootstrap_size", (self.bootstrap_size,), 8,
                      "ensembles below 8 members are not supported")


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
        _check_each("assumed_noise", (self.assumed_noise,), *_NOISE)
        _check_sweep(self)
        _check_each("covariance_kinds", self.covariance_kinds, COVARIANCE_KINDS.__contains__,
                    f"covariance kind must be one of {COVARIANCE_KINDS}")


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
    # The defaults below describe a cell that produced no analysis.
    rmse_truth: float = float("nan")
    rmse_obs: float = float("nan")
    rmse_truth_background: float = float("nan")
    # Against the truth, or the observation in measurement mode.
    rmse_u: float = float("nan")
    rmse_v: float = float("nan")
    rmse_eta: float = float("nan")
    rmse_p1: float = float("nan")
    rmse_p2: float = float("nan")
    rmse_p3: float = float("nan")
    rmse_p4: float = float("nan")
    rmse_p5: float = float("nan")
    x_a: np.ndarray = field(default_factory=lambda: np.full(4, np.nan))
    clipped: bool = False
    j_final: float = float("nan")
    model_runs: int = 0
    surrogate_evals: int = 0
    converged: bool = False
    reason: str = "error"
    wall_time: float = 0.0
    error: str = ""


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    experiment: str
    extras: dict = field(default_factory=dict)


# Shared experiment machinery ------------------------------------------------------


@dataclass
class _Context:
    """The sampled training pool of one run, in physical units; a training
    size n uses its first n members."""

    seed: int
    params_pool: np.ndarray  # (n_max, 4)
    states_pool: np.ndarray  # (m_y, n_max)
    pce_degree: int


def _make_context(seed: int, n_max: int, pce_degree: int) -> _Context:
    params_pool = toymodel.sample_parameters(n_max, seed)
    return _Context(seed, params_pool, toymodel.propagate(params_pool), pce_degree)


def _draw_truth(config: TwinConfig) -> np.ndarray:
    if config.x_t is not None:
        return np.asarray(config.x_t, dtype=float)
    rng = substream(config.seed, "truth")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    return low + rng.random(4) * (high - low)


@dataclass
class _Builds:
    """Surrogates built once per (n, kind) at the largest requested rank and
    sliced per mode count d (mode fits are independent, so slicing is exact)."""

    surrogates: dict[str, dict[int, PodPceSurrogate | PodEnSurrogate]]  # [kind][d]
    scaling: Scaling


def _shrink(s: PodPceSurrogate | PodEnSurrogate, d: int) -> PodPceSurrogate | PodEnSurrogate:
    """The surrogate restricted to its first d modes."""
    if isinstance(s, PodEnSurrogate):
        return PodEnSurrogate(basis=truncate(s.basis, modes=d), m_x=s.m_x)
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
    kinds: Collection[str],
    mode_numbers: tuple[int, ...],
    evr_threshold: float | None,
    field: str = "mode_numbers",
) -> _Builds:
    """Surrogates of the first ``n`` members: one per mode number, or the
    single rank that ``evr_threshold`` selects when it is set. A count above
    the members' rank, known once they are fitted, fails naming ``field``."""
    try:
        full, scaling = build_surrogates(
            ctx.params_pool[:n].T, ctx.states_pool[:, :n], toymodel.PARAMETER_BOUNDS, kinds,
            pce_degree=ctx.pce_degree, split_seed=split_seed(ctx.seed, n),
            param_std=parameter_standardizer(),
            modes=max(mode_numbers) if evr_threshold is None else None, evr_threshold=evr_threshold,
        )
    except ModeCountError as exc:
        raise ModeCountError(f"{field}: {exc}") from None
    return _Builds({
        kind: {d: _shrink(s, d) for d in (mode_numbers if evr_threshold is None else (s.d,))}
        for kind, s in full.items()
    }, scaling)


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


def _observe_truth(
    config: TwinConfig, noise_levels: tuple[float, ...]
) -> tuple[np.ndarray, dict[float, _Observed]]:
    """The synthetic truth x_t and, per noise level, its noisy observation
    with the truth and background states the cells are scored against."""
    x_t = _draw_truth(config)
    y_t = toymodel.simulate(x_t)
    y_b = toymodel.simulate(toymodel.PARAMETER_MEANS)
    b_cov = np.eye(4)  # standardized; from the truth's deviation from the prior mean if asked
    if config.b_from_truth:
        b_cov = np.diag(np.maximum(parameter_standardizer().transform(x_t) ** 2, 1e-12))
    observed = {}
    for level in noise_levels:
        y_o, r_diag = inject_noise(y_t, level, substream_seed(config.seed, f"noise/{level!r}"))
        observed[level] = _Observed(y_o, r_diag, b_cov, y_t, y_b)
    return x_t, observed


def _cells(
    builds: _Builds,
    surrogates: tuple[str, ...],
    covariances: tuple[str, ...],
    **key,
) -> Iterator[_Cell]:
    """Cells of one build in report order: solver, then covariance (the
    linear surrogate runs with plain R only), then mode count."""
    for solver in surrogates:
        for covariance in (covariances if solver == "podpce" else ("r",)):
            for d in sorted(builds.surrogates[solver]):
                yield _Cell(solver=solver, covariance=covariance, d=d, **key)


def _physical(scaling: Scaling, x_std: np.ndarray) -> tuple[np.ndarray, bool]:
    """A standardized analysis in physical units, snapped into the box (the
    inverse map may overshoot a bound by an ulp), and whether it was snapped."""
    x_phys = scaling.params.inverse(x_std)
    x_a = np.clip(x_phys, scaling.bounds[:, 0], scaling.bounds[:, 1])
    return x_a, bool(np.any(np.abs(x_a - x_phys) > 0.0))


def _rms(z: np.ndarray) -> float:
    return float(np.sqrt(np.mean(z**2)))


class _Scorer:
    """Report rows of the analyses of one build against one observation,
    scored in the build's standardized state units. The observed states are
    standardized once; each analysis's reporting run once per row."""

    def __init__(self, states: Standardizer, observed: _Observed) -> None:
        self.states = states
        self.z_o = states.transform(observed.y_o)
        self.z_t = None if observed.y_t is None else states.transform(observed.y_t)
        self.rmse_truth_background = float("nan")
        if self.z_t is not None and observed.y_b is not None:
            self.rmse_truth_background = _rms(states.transform(observed.y_b) - self.z_t)

    def rmses(self, y_a: np.ndarray) -> dict[str, float]:
        """The RMSE fields of a :class:`ReportRow` for the physical state ``y_a``."""
        z_a = self.states.transform(y_a)
        to_obs = z_a - self.z_o
        to_ref = to_obs if self.z_t is None else z_a - self.z_t
        squared = toymodel.unflatten(to_ref**2)  # (variable, station, time)
        return {
            "rmse_truth": float("nan") if self.z_t is None else _rms(to_ref),
            "rmse_obs": _rms(to_obs),
            "rmse_truth_background": self.rmse_truth_background,
            **{f"rmse_{name}": float(np.sqrt(squared[v].mean()))
               for v, name in enumerate(toymodel.VARIABLES)},
            **{f"rmse_p{p + 1}": float(np.sqrt(squared[:, p].mean()))
               for p in range(toymodel.N_STATIONS)},
        }

    def row(self, cell: _Cell, analysis, x_a: np.ndarray, **counts) -> ReportRow:
        """Row of the physical analysis ``x_a``; ``counts`` are the clipped,
        model_runs, surrogate_evals and wall_time fields."""
        return ReportRow(
            **dataclasses.asdict(cell),
            **self.rmses(toymodel.simulate(x_a)),  # reporting run, not a solver call
            x_a=x_a,
            j_final=analysis.j_final,
            converged=analysis.converged,
            reason=analysis.reason,
            **counts,
        )


def _run_cells(builds: _Builds, observed: _Observed, cells: Iterator[_Cell]) -> list[ReportRow]:
    """The cells of one build against one observation, scored by one
    scorer; every R~ among them whitens its modes with one shared QR."""
    whitening = ModeWhitening()
    scorer = _Scorer(builds.scaling.states, observed)
    return [_run_cell(builds, cell, observed, whitening, scorer) for cell in cells]


def _run_cell(
    builds: _Builds, cell: _Cell, observed: _Observed, whitening: ModeWhitening, scorer: _Scorer
) -> ReportRow:
    """Solve one cell in standardized space and report it in physical units.

    A failure is logged and becomes an error row, so the sweep goes on.
    """
    start = time.perf_counter()
    try:
        surrogate = builds.surrogates[cell.solver][cell.d]
        problem = whitening.share(pose_problem(
            surrogate, builds.scaling, observed.y_o, observed.r_diag, cell.covariance,
            background_cov=observed.b_cov, alpha_b=cell.alpha_b, alpha_r=cell.alpha_r,
        ))
        solve = solve_podpce3dvar if cell.solver == "podpce" else solve_poden3dvar
        analysis = solve(surrogate, problem)
        x_a, clipped = _physical(builds.scaling, analysis.x_a)
        return scorer.row(
            cell, analysis, x_a, clipped=clipped,
            model_runs=cell.n,  # ensemble only; the surrogate solvers never call the model
            surrogate_evals=analysis.evaluations,
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:  # recorded per cell, sweep continues
        log.warning("cell failed: %s", exc, exc_info=True)
        return ReportRow(**dataclasses.asdict(cell), error=str(exc))


# BLAS threads and independent units ------------------------------------------------


# Thread-count functions (get, set) of the bundled OpenBLAS, by build flavour.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _bundled_openblas() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of each OpenBLAS bundled with numpy
    and scipy (in ``<package>.libs``); empty when there is none."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return found


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the body with the bundled OpenBLAS copies at one thread each;
    every driver runs in this scope.

    Every kernel of a toy-model sweep is small (570 state rows, at most a
    few hundred columns), so a second BLAS thread costs more in
    synchronization than it computes: on a 2-core machine the benchmark's
    twin, bootstrap, covgrid and measure workloads each ran 2.7-3.8 times
    faster with one thread than with two. The previous counts are put back
    on exit. Nothing changes when the user chose a count through the
    environment.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        yield
        return
    pools = _bundled_openblas()
    previous = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, previous):
            put(count)


_unit: Callable[[Any], Any] | None = None  # a worker's fn, set by _adopt after fork


def _adopt(fn: Callable[[Any], Any]) -> None:
    global _unit
    _unit = fn


def _apply(item: Any) -> Any:
    return _unit(item)


def _map(fn: Callable[[Any], Any], items: Sequence) -> list:
    """``[fn(item) for item in items]``, run on forked workers: one per CPU
    the process may use, divided by the bundled OpenBLAS's thread count (so
    workers never oversubscribe the CPUs), and at most one per item.

    The workers reach ``fn`` and what it closes over through fork, so only
    the items and the results are pickled; they inherit the caller's BLAS
    thread counts, so the results do not depend on the worker count. An
    exception raised by ``fn`` is re-raised here, and a worker that dies
    raises ``BrokenProcessPool``. With one worker, ``fn`` runs in this process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    blas_threads = max([get() for get, _ in _bundled_openblas()], default=1)
    workers = min(cpus // blas_threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, fork, initializer=_adopt, initargs=(fn,)) as pool:
        return list(pool.map(_apply, items))


# Drivers --------------------------------------------------------------------------


@_one_blas_thread()
def run_twin(config: TwinConfig) -> ExperimentReport:
    """Noise x training-size x mode sweep against a drawn synthetic truth."""
    if config.evr_threshold is None:
        _check_modes("mode_numbers", config.mode_numbers, min(config.training_sizes))
    n_max = max(config.training_sizes)
    ctx = _make_context(config.seed, n_max, config.pce_degree)
    x_t, observed = _observe_truth(config, config.noise_levels)
    builds = {
        n: _build_surrogates(ctx, n, config.surrogates, config.mode_numbers, config.evr_threshold)
        for n in config.training_sizes
    }

    def group_rows(group: tuple[float, int]) -> list[ReportRow]:
        noise, n = group
        return _run_cells(builds[n], observed[noise], _cells(
            builds[n], config.surrogates, (config.covariance_kind,),
            experiment="twin", n=n, noise=noise,
        ))

    groups = [(noise, n) for noise in config.noise_levels for n in config.training_sizes]
    rows = [row for group in _map(group_rows, groups) for row in group]
    return ExperimentReport(
        rows=rows,
        experiment="twin",
        extras={"x_t": x_t.tolist(), "rmse_truth_background": rows[0].rmse_truth_background if rows else None},
    )


@_one_blas_thread()
def run_covariance_grid(config: TwinConfig) -> ExperimentReport:
    """One assimilation per (alpha_B, alpha_R) pair on the alpha grid."""
    n = max(config.training_sizes)
    _check_modes("grid_modes", (config.grid_modes,), n)
    ctx = _make_context(config.seed, n, config.pce_degree)
    x_t, observed = _observe_truth(config, (config.grid_noise,))
    builds = _build_surrogates(ctx, n, ("podpce",), (config.grid_modes,), None, "grid_modes")
    cells = (
        cell
        for alpha_b in map(float, config.alpha_grid)  # a JSON config may hold ints
        for alpha_r in map(float, config.alpha_grid)
        for cell in _cells(
            builds, ("podpce",), (config.covariance_kind,),
            experiment="covgrid", n=n, noise=config.grid_noise, alpha_b=alpha_b, alpha_r=alpha_r,
        )
    )
    rows = _run_cells(builds, observed[config.grid_noise], cells)
    size = len(config.alpha_grid)
    matrix = np.array([row.rmse_truth for row in rows]).reshape(size, size)
    return ExperimentReport(
        rows=rows,
        experiment="covgrid",
        extras={"x_t": x_t.tolist(), "alpha_grid": list(config.alpha_grid), "rmse_matrix": matrix.tolist()},
    )


@_one_blas_thread()
def run_bootstrap(config: TwinConfig) -> ExperimentReport:
    """Fresh training ensembles per replicate at a fixed size; RMSE spread per
    mode count and solver."""
    if config.evr_threshold is None:
        _check_modes("mode_numbers", config.mode_numbers, config.bootstrap_size)
    x_t, observed = _observe_truth(config, (config.bootstrap_noise,))

    def replicate_rows(replicate: int) -> list[ReportRow]:
        member_seed = substream_seed(config.seed, f"bootstrap/{replicate}")
        ctx = _make_context(member_seed, config.bootstrap_size, config.pce_degree)
        builds = _build_surrogates(
            ctx, config.bootstrap_size, config.surrogates, config.mode_numbers, config.evr_threshold
        )
        return _run_cells(builds, observed[config.bootstrap_noise], _cells(
            builds, config.surrogates, (config.covariance_kind,),
            experiment=f"bootstrap/{replicate}", n=config.bootstrap_size,
            noise=config.bootstrap_noise,
        ))

    replicates = _map(replicate_rows, range(config.bootstrap_replicates))
    rows = [row for replicate in replicates for row in replicate]

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
        experiment="bootstrap",
        extras={"x_t": x_t.tolist(), "summary": summary},
    )


@_one_blas_thread()
def run_measurement(config: MeasurementConfig, y_o: np.ndarray) -> ExperimentReport:
    """Surrogate solvers confronted with the classical reference on a
    measured (external) observation vector."""
    if config.evr_threshold is None:
        _check_modes("mode_numbers", config.mode_numbers, min(config.training_sizes))
    y_o = np.asarray(y_o, dtype=float)
    m_y = toymodel.default_grid().n_state
    if y_o.shape != (m_y,):
        raise ValueError(f"observation vector must match the state layout ({m_y},), got {y_o.shape}")
    n_max = max(config.training_sizes)
    ctx = _make_context(config.seed, n_max, config.pce_degree)
    r_diag = measurement_noise_diag(y_o, config.assumed_noise)

    builds = {
        n: _build_surrogates(ctx, n, config.surrogates, config.mode_numbers, config.evr_threshold)
        for n in config.training_sizes
    }

    # Classical reference in the same standardized coordinates as the
    # largest training ensemble. Probes can sit on a bound, so the model
    # sees them snapped into the box, as the analysis is reported.
    scaling = builds[n_max].scaling

    def model_std(x_std: np.ndarray) -> np.ndarray:
        return scaling.states.transform(toymodel.simulate(_physical(scaling, x_std)[0]))

    start = time.perf_counter()
    classical = solve_classical_3dvar(model_std, pose_problem(None, scaling, y_o, r_diag))
    classical_time = time.perf_counter() - start
    x_a_classical, clipped = _physical(scaling, classical.x_a)
    observed = _Observed(y_o, r_diag, np.eye(4))
    classical_row = _Scorer(scaling.states, observed).row(
        _Cell("measure", "classical", "r", 0, 0, config.assumed_noise), classical, x_a_classical,
        clipped=clipped, model_runs=classical.evaluations, wall_time=classical_time,
    )
    rows = [classical_row] + [
        row
        for n in config.training_sizes
        for row in _run_cells(builds[n], observed, _cells(
            builds[n], config.surrogates, config.covariance_kinds,
            experiment="measure", n=n, noise=config.assumed_noise,
        ))
    ]
    return ExperimentReport(
        rows=rows,
        experiment="measure",
        extras={
            "classical_rmse_obs": classical_row.rmse_obs,
            "classical_model_runs": classical_row.model_runs,
            "classical_iterations": len(classical.cost_trace) - 1,
            "classical_x_a": x_a_classical.tolist(),
        },
    )
