"""Millisecond-cost synthetic tidal forward model.

Five stations record depth-averaged velocity components (u, v) and free
surface elevation (eta) over one semi-diurnal period at a 20-minute step.
The boundary forcing is a superposition of three harmonic constituents; the
water level is scaled and shifted by the CTL/MTL calibration coefficients,
the raw current by CTV, and a Strickler-style quadratic drag (friction
coefficient ~ 1/K2^2 h^(4/3)) damps the velocities. The model is pure: the
same parameters always give the bit-identical state vector.

There is one configuration, the grid of :func:`default_grid`, and this
module is the one statement of its constants and of the parameter box. The
three parameter-free harmonic sums (raw level, raw along- and
across-channel current) are computed from it once, at import; a run only
scales them and applies the drag. One implementation, :func:`propagate`,
runs every member; :func:`simulate` is its one-member case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substream

PARAMETER_NAMES = ("K2", "MTL", "CTL", "CTV")

# Uncertain-parameter box. Its midpoint is the prior mean and the background;
# every build standardizes parameters by the midpoint and half-range.
PARAMETER_BOUNDS = np.array(
    [
        [21.02, 90.66],  # K2, Strickler friction coefficient [m^(1/3)/s]
        [4.0, 6.0],  # MTL, mean tidal level [m]
        [0.8, 1.3],  # CTL, tidal level coefficient [-]
        [0.8, 3.0],  # CTV, tidal velocity coefficient [-]
    ]
)
PARAMETER_MEANS = PARAMETER_BOUNDS.mean(axis=1)

VARIABLES = ("u", "v", "eta")
N_STATIONS = 5


@dataclass(frozen=True)
class ToyGrid:
    """Stations, record times and harmonic constants (frozen)."""

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


def default_grid() -> ToyGrid:
    """The toy model's one grid, a fresh copy per call."""
    return ToyGrid(
        periods_hours=np.array([12.42, 12.0, 12.66]),
        level_amplitudes=np.array([2.5, 0.8, 0.5]),
        level_phases=np.array([0.0, 0.5, 1.0]),
        velocity_amplitudes=np.array([0.8, 0.25, 0.15]),
        velocity_phase_offset=0.3,
        station_phase_step=0.05,
        station_depth_offsets=np.array([8.0, 10.0, 12.0, 9.0, 11.0]),
        time_step_minutes=20.0,
        n_times=38,
        gravity=9.81,
        drag_timescale=1000.0,
        min_depth=0.1,
        transverse_fraction=0.4,
    )


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
    """Reject float parameters that are not one set (4,) or a batch (n, 4),
    or that lie outside the box, naming the parameter and, in a batch, the
    first offending member."""
    if values.ndim not in (1, 2) or values.shape[-1] != 4:
        raise ValueError(f"expected rows of 4 parameters {PARAMETER_NAMES}, got shape {values.shape}")
    low, high = PARAMETER_BOUNDS.T
    outside = np.argwhere(~((low <= values) & (values <= high)))  # NaN is outside
    if outside.size:
        *member, i = outside[0]
        raise ValueError("".join(f"member {j}: " for j in member) + f"parameter {PARAMETER_NAMES[i]}="
                         f"{values[tuple(outside[0])]:.6g} outside bounds [{low[i]}, {high[i]}]")


def simulate(params: np.ndarray) -> np.ndarray:
    """State vector for one parameter set (K2, MTL, CTL, CTV) inside the
    declared parameter box: the one column of :func:`propagate`."""
    values = np.asarray(params, dtype=float)
    if values.shape != (4,):
        raise ValueError(f"expected 4 parameters {PARAMETER_NAMES}, got shape {values.shape}")
    return propagate(values)[:, 0]


def sample_parameters(n: int, seed: int) -> np.ndarray:
    """Uniform draws in the parameter box, one row per member, shape (n, 4).

    Nested by construction: the first rows of a larger draw with the same
    seed coincide bit-for-bit with a smaller draw, so inclusive
    training-size sweeps reuse members.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    low, high = PARAMETER_BOUNDS[:, 0], PARAMETER_BOUNDS[:, 1]
    raw = substream(seed, "sampling").random((n, 4))  # row-major fill keeps draws nested in n
    return low + raw * (high - low)


def propagate(params: np.ndarray) -> np.ndarray:
    """States for one parameter set (4,) or a batch of rows (n, 4), one
    state per column (m_y, n).

    One broadcast over the members, box-checked once. Every column keeps the
    bits of that member run alone: numpy squares a scalar differently from
    an array, so K2 is squared member by member, as a numpy scalar.

    Besides the output, two arrays of one variable's size are allocated:
    the depth, which becomes the friction in place, and the scratch that
    holds each velocity's drag denominator.
    """
    values = np.asarray(params, dtype=float)
    check_bounds(values)  # before the batch axis, so a lone set is named without one
    values = np.atleast_2d(values)
    k2_squared = np.array([k2**2 for k2 in values[:, 0]])
    mtl, ctl, ctv = values[:, 1:].T
    out = np.empty((len(VARIABLES), N_STATIONS, _GRID.n_times, len(values)))  # member axis last
    u, v, eta = out
    depth = ctl * _ETA_RAW[..., None]  # the scaled level, then the depth, in place
    np.add(depth, mtl, out=eta)
    np.add(mtl + _GRID.station_depth_offsets[:, None, None], depth, out=depth)
    np.maximum(depth, _GRID.min_depth, out=depth)
    friction = np.power(depth, 4.0 / 3.0, out=depth)  # g T / (K2^2 h^(4/3)), in place
    np.multiply(k2_squared, friction, out=friction)
    np.divide(_GRID.gravity * _GRID.drag_timescale, friction, out=friction)
    denominator = np.empty_like(friction)
    for speed, raw, scale in ((u, _ALONG_RAW, 1.0), (v, _ACROSS_RAW, _GRID.transverse_fraction)):
        np.multiply(ctv, raw[..., None], out=speed)
        np.abs(speed, out=denominator)  # 1 + friction |speed|, from the unscaled speed
        np.multiply(friction, denominator, out=denominator)
        np.add(1.0, denominator, out=denominator)
        np.multiply(speed, scale, out=speed)
        np.divide(speed, denominator, out=speed)
    return out.reshape(_GRID.n_state, len(values))
