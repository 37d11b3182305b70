"""Millisecond-cost synthetic tidal forward model.

Five stations record depth-averaged velocity components (u, v) and free
surface elevation (eta) over one semi-diurnal period at a 20-minute step.
The boundary forcing is a superposition of three harmonic constituents; the
water level is scaled and shifted by the CTL/MTL calibration coefficients,
the raw current by CTV, and a Strickler-style quadratic drag (friction
coefficient ~ 1/K2^2 h^(4/3)) damps the velocities. The model is pure: the
same parameters always give the bit-identical state vector.

There is one configuration, the packaged grid ``toy-grid/1``. It is loaded
once at import, and the three parameter-free harmonic sums (raw level, raw
along- and across-channel current) are computed from it once; a run only
scales them and applies the drag.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .rng import substream

PARAMETER_NAMES = ("K2", "MTL", "CTL", "CTV")

# Uncertain-parameter box, prior means and prior standard deviations
# (half-range) used to standardize parameters and build the background
# covariance.
PARAMETER_BOUNDS = np.array(
    [
        [21.02, 90.66],  # K2, Strickler friction coefficient [m^(1/3)/s]
        [4.0, 6.0],  # MTL, mean tidal level [m]
        [0.8, 1.3],  # CTL, tidal level coefficient [-]
        [0.8, 3.0],  # CTV, tidal velocity coefficient [-]
    ]
)
PARAMETER_MEANS = np.array([55.84, 5.0, 1.05, 1.9])
PARAMETER_STDS = np.array([34.82, 1.0, 0.25, 1.1])

VARIABLES = ("u", "v", "eta")
N_STATIONS = 5

GRID_SCHEMA = "toy-grid/1"


@dataclass(frozen=True)
class ToyGrid:
    """Stations, record times and harmonic constants (versioned, frozen)."""

    periods_hours: np.ndarray  # (3,)
    level_amplitudes: np.ndarray  # (3,) [m]
    level_phases: np.ndarray  # (3,) [rad]
    velocity_amplitudes: np.ndarray  # (3,) [m/s]
    velocity_phase_offset: float  # psi_i = phi_i + offset
    station_phase_step: float  # theta_p = step * (p - 1)
    station_depth_offsets: np.ndarray  # (5,) [m]
    time_step_minutes: float
    n_times: int
    gravity: float
    drag_timescale: float
    min_depth: float
    transverse_fraction: float

    @property
    def times_hours(self) -> np.ndarray:
        return np.arange(self.n_times) * self.time_step_minutes / 60.0

    @property
    def n_state(self) -> int:
        return len(VARIABLES) * N_STATIONS * self.n_times

    @property
    def velocity_phases(self) -> np.ndarray:
        return self.level_phases + self.velocity_phase_offset

    @property
    def station_phases(self) -> np.ndarray:
        return self.station_phase_step * np.arange(N_STATIONS)

    @classmethod
    def from_dict(cls, raw: dict) -> "ToyGrid":
        if raw.get("schema") != GRID_SCHEMA:
            raise ValueError(
                f"unsupported grid schema {raw.get('schema')!r}, expected {GRID_SCHEMA!r}"
            )
        grid = cls(
            periods_hours=np.asarray(raw["periods_hours"], dtype=float),
            level_amplitudes=np.asarray(raw["level_amplitudes_m"], dtype=float),
            level_phases=np.asarray(raw["level_phases_rad"], dtype=float),
            velocity_amplitudes=np.asarray(raw["velocity_amplitudes_ms"], dtype=float),
            velocity_phase_offset=float(raw["velocity_phase_offset_rad"]),
            station_phase_step=float(raw["station_phase_step_rad"]),
            station_depth_offsets=np.asarray(raw["station_depth_offsets_m"], dtype=float),
            time_step_minutes=float(raw["time_step_minutes"]),
            n_times=int(raw["n_times"]),
            gravity=float(raw["gravity_ms2"]),
            drag_timescale=float(raw["drag_timescale_s"]),
            min_depth=float(raw["min_depth_m"]),
            transverse_fraction=float(raw["transverse_fraction"]),
        )
        if grid.station_depth_offsets.shape != (N_STATIONS,):
            raise ValueError(f"expected {N_STATIONS} station depth offsets")
        if np.any(np.diff(grid.times_hours) <= 0.0):
            raise ValueError("record times must be strictly increasing")
        if np.any(grid.station_depth_offsets <= 0.0):
            raise ValueError("station depth offsets must be positive")
        return grid


def default_grid() -> ToyGrid:
    """Grid shipped with the package (constants file toy_grid_v1.json)."""
    raw = json.loads(resources.files("romda.data").joinpath("toy_grid_v1.json").read_text())
    return ToyGrid.from_dict(raw)


_GRID = default_grid()  # the model's own copy; callers of default_grid() get a fresh one


def _harmonic_sums(grid: ToyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw level and raw along/across-channel currents, each (5, k): the sums
    over the constituents of amplitude * cos(2 pi t / T_i - phase_i - theta_p)."""
    t = grid.times_hours  # (k,)
    theta = grid.station_phases  # (5,)
    arg = 2.0 * np.pi * t[None, None, :] / grid.periods_hours[:, None, None]
    arg = arg - theta[None, :, None]
    level = grid.level_amplitudes[:, None, None]
    speed = grid.velocity_amplitudes[:, None, None]
    psi = grid.velocity_phases
    eta_raw = np.sum(level * np.cos(arg - grid.level_phases[:, None, None]), axis=0)
    along = np.sum(speed * np.cos(arg - psi[:, None, None]), axis=0)
    across = np.sum(speed * np.cos(arg - (psi + 0.5 * np.pi)[:, None, None]), axis=0)
    return eta_raw, along, across


_ETA_RAW, _ALONG_RAW, _ACROSS_RAW = _harmonic_sums(_GRID)


def unflatten(state: np.ndarray) -> np.ndarray:
    """State vector as a (variable, station, time) array view.

    Layout is variable-major, then station, then time:
    [u@P1 t0..t_{k-1}, ..., u@P5, v@P1, ..., v@P5, eta@P1, ..., eta@P5].
    """
    state = np.asarray(state)
    if state.shape != (_GRID.n_state,):
        raise ValueError(f"state vector must have shape ({_GRID.n_state},), got {state.shape}")
    return state.reshape(len(VARIABLES), N_STATIONS, _GRID.n_times)


def check_bounds(values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    low, high = PARAMETER_BOUNDS[:, 0], PARAMETER_BOUNDS[:, 1]
    for i, name in enumerate(PARAMETER_NAMES):
        if not low[i] <= values[i] <= high[i]:
            raise ValueError(
                f"parameter {name}={values[i]:.6g} outside bounds [{low[i]}, {high[i]}]"
            )


def simulate(params: np.ndarray, *, enforce_bounds: bool = True) -> np.ndarray:
    """State vector for one parameter set (K2, MTL, CTL, CTV).

    ``enforce_bounds=False`` permits out-of-range probes in tests; regular
    callers stay inside the declared parameter box.
    """
    values = np.asarray(params, dtype=float)
    if values.shape != (4,):
        raise ValueError(f"expected 4 parameters {PARAMETER_NAMES}, got shape {values.shape}")
    if enforce_bounds:
        check_bounds(values)
    k2, mtl, ctl, ctv = values

    eta = ctl * _ETA_RAW + mtl
    depth = np.maximum(mtl + _GRID.station_depth_offsets[:, None] + ctl * _ETA_RAW, _GRID.min_depth)
    s_along = ctv * _ALONG_RAW
    s_across = ctv * _ACROSS_RAW

    friction = _GRID.gravity * _GRID.drag_timescale / (k2**2 * depth ** (4.0 / 3.0))
    u = s_along / (1.0 + friction * np.abs(s_along))
    v = _GRID.transverse_fraction * s_across / (1.0 + friction * np.abs(s_across))

    return np.concatenate([u.ravel(), v.ravel(), eta.ravel()])


def sample_parameters(
    n: int,
    seed: int,
    bounds: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform parameter draws, one row per member, shape (n, 4).

    Nested by construction: the first rows of a larger draw with the same
    seed coincide bit-for-bit with a smaller draw, so inclusive
    training-size sweeps reuse members.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bounds = PARAMETER_BOUNDS if bounds is None else np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must be (m_x, 2) rows of low < high")
    rng = substream(seed, "sampling")
    raw = rng.random((n, bounds.shape[0]))  # row-major fill keeps draws nested in n
    return bounds[:, 0] + raw * (bounds[:, 1] - bounds[:, 0])


def propagate(params: np.ndarray) -> np.ndarray:
    """States for a batch of parameter rows, one state per column (m_y, n).

    One :func:`simulate` call per member, so every column has the bits of a
    lone run: a single broadcast over all members does not, because numpy's
    vectorized ``power`` rounds ``depth ** (4/3)`` differently depending on
    an element's position in the array.
    """
    params = np.atleast_2d(np.asarray(params, dtype=float))
    out = np.empty((_GRID.n_state, params.shape[0]))
    for j, row in enumerate(params):
        out[:, j] = simulate(row)
    return out
