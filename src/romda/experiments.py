"""Twin and measurement experiment drivers over the synthetic tidal model.

Everything the solvers see is standardized: parameters by the box's
midpoint and half-range (so the default background covariance is the
identity), states by per-component training-ensemble statistics; the
drivers and the ``build-surrogate`` command both build through
:func:`build_surrogates`. Analyses are reported back in physical units. All
randomness flows from the run seed through named substreams; sweeps are
deterministic per (config, seed), and nested training-size sweeps reuse members.
Each driver runs with the OpenBLAS copies bundled with numpy and scipy at
one thread (:func:`_one_blas_thread`), wherever it is called from, unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set. The independent
units of a sweep (bootstrap replicates, twin training sizes) each draw, fit
and solve in a forked worker (:func:`_map`); their rows do not depend on
the worker count.
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
from .checks import EVR, NOISE, check_counts, check_distinct, check_each, check_reals
from .pce import PceConfig, check_degree
from .pod import ModeCountError, check_finite, fit_pod, truncate
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


def build_surrogates(
    params: np.ndarray, states: np.ndarray, bounds: np.ndarray, kinds: Collection[str], *,
    pce_degree: int, split_seed: int, modes: int | None = None, evr_threshold: float | None = None,
) -> tuple[dict[str, PodPceSurrogate | PodEnSurrogate], Scaling]:
    """Fit each surrogate kind in ``kinds`` ("podpce", "poden") on one
    standardized ensemble, and return them with the :class:`Scaling` used.
    The state POD is fitted once and serves both kinds.

    ``params`` (m_x, n) and ``states`` (m_y, n) are physical, paired by
    column, and ``bounds`` is the physical box. Parameters are standardized
    by the box's midpoint and half-range, states by their per-component
    ensemble statistics. A bad ``params`` or ``states`` entry, ``bounds``,
    ``pce_degree``, ``modes`` or ``evr_threshold`` fails naming it.
    """
    m_x = np.shape(params)[0]
    box = np.array(bounds, dtype=object)
    if box.shape != (m_x, 2):
        raise ValueError(f"bounds: need one (low, high) row per parameter, got {bounds!r}")
    check_reals("bounds", tuple(box.ravel()))
    check_each("bounds", tuple(map(tuple, box)), lambda row: row[0] < row[1], "need low < high in each row")
    check_finite(params, "params")
    check_finite(states, "states")
    if "podpce" in kinds:
        check_degree("pce_degree", pce_degree, m_x)
    bounds = box.astype(float)
    scaling = Scaling(params=Standardizer.of_box(bounds), states=Standardizer.fit(states), bounds=bounds)
    z_params = scaling.params.transform(params)
    z_states = scaling.states.transform(states)
    # The physical ensemble goes before the fits when the caller holds no
    # other reference (from Python 3.11 an unnamed argument is the callee's).
    del states
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
    check_reals("noise_level", (noise_level,), *NOISE)
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


def _check_sweep(config: "TwinConfig | MeasurementConfig") -> None:
    """Checks shared by the sweep configurations, made first in
    ``__post_init__`` and so before any ensemble is drawn; each message
    starts with its field. A list in a tuple field becomes a tuple, and any
    other value there but a null where the field may be None is rejected.
    ``mode_numbers`` defaults to 1..6 when ``evr_threshold`` is null; a
    config sets one of the two, not both."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not f.type.startswith("tuple") or isinstance(value, tuple):
            continue
        if isinstance(value, list):
            object.__setattr__(config, f.name, tuple(value))
        elif not (value is None and f.type.endswith("| None")):
            raise ValueError(f"{f.name}: need a list, got {value!r}")
    if config.evr_threshold is None:
        if config.mode_numbers is None:
            object.__setattr__(config, "mode_numbers", (1, 2, 3, 4, 5, 6))
        check_counts("mode_numbers", config.mode_numbers, 1, "mode counts start at 1")
        check_distinct("mode_numbers", config.mode_numbers)
    elif config.mode_numbers is not None:
        raise ValueError("evr_threshold: set evr_threshold or mode_numbers, not both")
    else:
        check_reals("evr_threshold", (config.evr_threshold,), *EVR)
    sizes = config.training_sizes
    check_counts("training_sizes", sizes, 8, "training sizes below 8 members are not supported")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("training_sizes: training sizes must be strictly increasing")
    check_each("surrogates", config.surrogates, SURROGATE_KINDS.__contains__,
               f"surrogate kind must be one of {SURROGATE_KINDS}")
    check_distinct("surrogates", config.surrogates)
    check_degree("pce_degree", config.pce_degree, len(toymodel.PARAMETER_NAMES))


def _check_truth(x_t: tuple | None) -> None:
    """Reject a given truth that is not 4 finite values inside the toy
    model's parameter box; the message starts with ``x_t``."""
    if x_t is None:
        return
    names = toymodel.PARAMETER_NAMES
    if len(x_t) != len(names):
        raise ValueError(f"x_t: need {len(names)} finite parameters {names}, got {x_t!r}")
    check_reals("x_t", x_t)
    try:
        toymodel.check_bounds(np.array(x_t, dtype=float))
    except ValueError as exc:
        raise ValueError(f"x_t: {exc}") from None


@dataclass(frozen=True)
class TwinConfig:
    seed: int = 0
    x_t: tuple[float, ...] | None = None  # drawn from the truth substream if None
    noise_levels: tuple[float, ...] = DEFAULT_NOISE_LEVELS
    training_sizes: tuple[int, ...] = (100, 400)
    mode_numbers: tuple[int, ...] | None = None  # 1..6 unless evr_threshold is set
    evr_threshold: float | None = None
    surrogates: tuple[str, ...] = SURROGATE_KINDS
    covariance_kind: str = "r_tilde"  # applies to the nonlinear surrogate
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    grid_noise: float = 0.10  # covariance-grid driver settings
    grid_modes: int = 5
    bootstrap_replicates: int = 50
    bootstrap_size: int = 800
    bootstrap_noise: float = 0.10
    pce_degree: int = 3

    def __post_init__(self) -> None:
        _check_sweep(self)
        _check_truth(self.x_t)
        check_reals("noise_levels", self.noise_levels, *NOISE)
        check_distinct("noise_levels", self.noise_levels)
        check_reals("grid_noise", (self.grid_noise,), *NOISE)
        check_reals("bootstrap_noise", (self.bootstrap_noise,), *NOISE)
        check_each("covariance_kind", (self.covariance_kind,), COVARIANCE_KINDS.__contains__,
                   f"covariance kind must be one of {COVARIANCE_KINDS}")
        check_reals("alpha_grid", self.alpha_grid, lambda a: a > 0, "alpha factors must be positive")
        check_distinct("alpha_grid", self.alpha_grid)
        check_counts("grid_modes", (self.grid_modes,), 1, "mode counts start at 1")
        check_counts("bootstrap_replicates", (self.bootstrap_replicates,), 1,
                     "need at least one replicate")
        check_counts("bootstrap_size", (self.bootstrap_size,), 8,
                     "ensembles below 8 members are not supported")


@dataclass(frozen=True)
class MeasurementConfig:
    seed: int = 0
    assumed_noise: float = 0.05  # fills R from observed-series variability
    training_sizes: tuple[int, ...] = (400,)
    mode_numbers: tuple[int, ...] | None = None  # as in TwinConfig
    evr_threshold: float | None = None
    surrogates: tuple[str, ...] = SURROGATE_KINDS
    covariance_kinds: tuple[str, ...] = ("r", "r_tilde")
    pce_degree: int = 3

    def __post_init__(self) -> None:
        _check_sweep(self)
        check_reals("assumed_noise", (self.assumed_noise,), *NOISE)
        check_each("covariance_kinds", self.covariance_kinds, COVARIANCE_KINDS.__contains__,
                   f"covariance kind must be one of {COVARIANCE_KINDS}")
        check_distinct("covariance_kinds", self.covariance_kinds)


@dataclass
class ReportRow:
    """One sweep cell, named by its first eight fields, and its result; in
    order, the fields are report.csv's columns (``io.REPORT_COLUMNS``)."""

    experiment: str
    solver: str  # podpce | poden | classical
    covariance: str
    n: int
    d: int
    noise: float
    alpha_b: float = 1.0
    alpha_r: float = 1.0
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
    x_a: np.ndarray = field(default_factory=lambda: np.full(len(toymodel.PARAMETER_NAMES), np.nan))
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
    """A sweep's result: ``rows`` are the one record of every cell value (a
    ``report.csv`` line each), and ``extras`` holds only what no row does,
    the truth ``x_t`` of a twin, covgrid or bootstrap sweep or the classical
    solver's ``classical_iterations`` in a measurement."""

    rows: list[ReportRow]
    extras: dict


# Shared experiment machinery ------------------------------------------------------


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


def _check_rank(n: int, mode_numbers: tuple[int, ...], evr_threshold: float | None, field: str) -> None:
    """Reject a given mode count above n - 1, the rank of n centered members,
    naming ``field``; a rank that ``evr_threshold`` selects is not known
    before the fit."""
    if evr_threshold is None:
        check_each(field, mode_numbers, lambda d: d <= n - 1, f"{n} members hold at most {n - 1} modes")


def _fit(
    seed: int,
    n: int,
    kinds: Collection[str],
    mode_numbers: tuple[int, ...],
    evr_threshold: float | None,
    pce_degree: int,
    field: str = "mode_numbers",
) -> _Builds:
    """The surrogates of one training ensemble, the first n members drawn
    under ``seed``, propagated and fitted: one per mode number, or the single
    rank that ``evr_threshold`` selects when it is set. Draws are nested in n
    and every column of a propagation keeps its bits, so the sizes of a sweep
    share their members. A count the ensemble cannot hold fails naming
    ``field``: before the draw by :func:`_check_rank` when the counts are
    given, once the members are fitted otherwise."""
    _check_rank(n, mode_numbers, evr_threshold, field)
    params = toymodel.sample_parameters(n, seed)  # (n, 4)
    try:
        full, scaling = build_surrogates(
            params.T, toymodel.propagate(params), toymodel.PARAMETER_BOUNDS, kinds,
            pce_degree=pce_degree, split_seed=split_seed(seed, n),
            modes=max(mode_numbers) if evr_threshold is None else None, evr_threshold=evr_threshold,
        )
    except ModeCountError as exc:
        raise ModeCountError(f"{field}: {exc}") from None
    return _Builds({
        kind: {d: _shrink(s, d) for d in (mode_numbers if evr_threshold is None else (s.d,))}
        for kind, s in full.items()
    }, scaling)


@dataclass(frozen=True)
class _Observed:
    """What the cells of a run assimilate (physical units) and are scored
    against; the truth and background states are None in measurement mode."""

    y_o: np.ndarray
    r_diag: np.ndarray
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
    observed = {}
    for level in noise_levels:
        y_o, r_diag = inject_noise(y_t, level, substream_seed(config.seed, f"noise/{level!r}"))
        observed[level] = _Observed(y_o, r_diag, y_t, y_b)
    return x_t, observed


def _cells(
    builds: _Builds,
    surrogates: tuple[str, ...],
    covariances: tuple[str, ...],
    **key,
) -> Iterator[ReportRow]:
    """Cells of one build in report order, as rows holding only their key:
    solver, then covariance (the linear surrogate runs with plain R only),
    then mode count."""
    for solver in surrogates:
        for covariance in (covariances if solver == "podpce" else ("r",)):
            for d in sorted(builds.surrogates[solver]):
                yield ReportRow(solver=solver, covariance=covariance, d=d, **key)


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

    def row(self, cell: ReportRow, analysis, x_a: np.ndarray, **counts) -> ReportRow:
        """The ``cell`` row with the physical analysis ``x_a``; ``counts``
        are the clipped, model_runs, surrogate_evals and wall_time fields."""
        return dataclasses.replace(
            cell,
            **self.rmses(toymodel.simulate(x_a)),  # reporting run, not a solver call
            x_a=x_a,
            j_final=analysis.j_final,
            converged=analysis.converged,
            reason=analysis.reason,
            **counts,
        )


def _run_cells(builds: _Builds, observed: _Observed, cells: Iterator[ReportRow]) -> list[ReportRow]:
    """The cells of one build against one observation, scored by one
    scorer; every R~ among them whitens its modes with one shared QR."""
    whitening = ModeWhitening()
    scorer = _Scorer(builds.scaling.states, observed)
    return [_run_cell(builds, cell, observed, whitening, scorer) for cell in cells]


def _run_cell(
    builds: _Builds, cell: ReportRow, observed: _Observed, whitening: ModeWhitening, scorer: _Scorer
) -> ReportRow:
    """Solve one cell in standardized space and report it in physical units.

    A failure is logged and becomes an error row, so the sweep goes on.
    """
    start = time.perf_counter()
    try:
        surrogate = builds.surrogates[cell.solver][cell.d]
        problem = pose_problem(
            surrogate, builds.scaling, observed.y_o, observed.r_diag, cell.covariance,
            alpha_b=cell.alpha_b, alpha_r=cell.alpha_r, shared=whitening,
        )
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
        return dataclasses.replace(cell, error=str(exc))


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
    """Noise x training-size x mode sweep against a drawn synthetic truth.

    Each training size is one unit that draws, fits and solves its cells at
    every noise level, so this process holds no ensemble when the units run
    in workers. The mode counts are checked on the smallest size first, so
    a bad count fails before any draw. Rows come in noise, n, cell order.
    """
    _check_rank(config.training_sizes[0], config.mode_numbers, config.evr_threshold, "mode_numbers")
    x_t, observed = _observe_truth(config, config.noise_levels)

    def size_rows(n: int) -> list[list[ReportRow]]:
        builds = _fit(config.seed, n, config.surrogates, config.mode_numbers, config.evr_threshold,
                      config.pce_degree)
        return [_run_cells(builds, observed[noise], _cells(
            builds, config.surrogates, (config.covariance_kind,),
            experiment="twin", n=n, noise=noise,
        )) for noise in config.noise_levels]

    by_size = _map(size_rows, config.training_sizes)  # [n][noise] -> rows
    rows = [row for by_noise in zip(*by_size) for group in by_noise for row in group]
    return ExperimentReport(rows, {"x_t": x_t.tolist()})


@_one_blas_thread()
def run_covariance_grid(config: TwinConfig) -> ExperimentReport:
    """One assimilation per (alpha_B, alpha_R) pair on the alpha grid."""
    n = max(config.training_sizes)
    builds = _fit(config.seed, n, ("podpce",), (config.grid_modes,), None, config.pce_degree,
                  "grid_modes")
    x_t, observed = _observe_truth(config, (config.grid_noise,))
    cells = (
        cell
        for alpha_b in map(float, config.alpha_grid)  # a JSON config may hold ints
        for alpha_r in map(float, config.alpha_grid)
        for cell in _cells(
            builds, ("podpce",), (config.covariance_kind,),
            experiment="covgrid", n=n, noise=config.grid_noise, alpha_b=alpha_b, alpha_r=alpha_r,
        )
    )
    return ExperimentReport(_run_cells(builds, observed[config.grid_noise], cells), {"x_t": x_t.tolist()})


@_one_blas_thread()
def run_bootstrap(config: TwinConfig) -> ExperimentReport:
    """Fresh training ensembles per replicate at a fixed size, against one
    observation of the truth; the rows give the RMSE spread per mode count
    and solver. The mode counts are checked before the truth is simulated,
    so a bad count fails before any model run."""
    n = config.bootstrap_size
    _check_rank(n, config.mode_numbers, config.evr_threshold, "mode_numbers")
    x_t, observed = _observe_truth(config, (config.bootstrap_noise,))

    def replicate_rows(replicate: int) -> list[ReportRow]:
        member_seed = substream_seed(config.seed, f"bootstrap/{replicate}")
        builds = _fit(member_seed, n, config.surrogates, config.mode_numbers,
                      config.evr_threshold, config.pce_degree)
        return _run_cells(builds, observed[config.bootstrap_noise], _cells(
            builds, config.surrogates, (config.covariance_kind,),
            experiment=f"bootstrap/{replicate}", n=n, noise=config.bootstrap_noise,
        ))

    replicates = _map(replicate_rows, range(config.bootstrap_replicates))
    rows = [row for replicate in replicates for row in replicate]
    return ExperimentReport(rows, {"x_t": x_t.tolist()})


@_one_blas_thread()
def run_measurement(config: MeasurementConfig, y_o: np.ndarray) -> ExperimentReport:
    """Surrogate solvers confronted with the classical reference on a
    measured (external) observation vector."""
    y_o = np.asarray(y_o, dtype=float)
    m_y = toymodel.default_grid().n_state
    if y_o.shape != (m_y,):
        raise ValueError(f"observation vector must match the state layout ({m_y},), got {y_o.shape}")
    builds = {n: _fit(config.seed, n, config.surrogates, config.mode_numbers, config.evr_threshold,
                      config.pce_degree) for n in config.training_sizes}  # smallest n first
    r_diag = measurement_noise_diag(y_o, config.assumed_noise)

    # Classical reference in the same standardized coordinates as the
    # largest training ensemble. Probes can sit on a bound, so the model
    # sees them snapped into the box, as the analysis is reported.
    scaling = builds[max(config.training_sizes)].scaling

    def model_std(x_std: np.ndarray) -> np.ndarray:
        return scaling.states.transform(toymodel.simulate(_physical(scaling, x_std)[0]))

    start = time.perf_counter()
    classical = solve_classical_3dvar(model_std, pose_problem(None, scaling, y_o, r_diag))
    classical_time = time.perf_counter() - start
    x_a_classical, clipped = _physical(scaling, classical.x_a)
    observed = _Observed(y_o, r_diag)
    classical_row = _Scorer(scaling.states, observed).row(
        ReportRow("measure", "classical", "r", 0, 0, config.assumed_noise), classical, x_a_classical,
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
    return ExperimentReport(rows, {"classical_iterations": len(classical.cost_trace) - 1})
