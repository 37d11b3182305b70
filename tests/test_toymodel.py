import numpy as np
import pytest

from romda.toymodel import (
    N_STATIONS,
    PARAMETER_BOUNDS,
    PARAMETER_MEANS,
    VARIABLES,
    default_grid,
    propagate,
    sample_parameters,
    simulate,
    unflatten,
)
from romda.rng import substream_seed


def mid_params():
    return PARAMETER_MEANS.copy()


def test_state_vector_size_and_layout() -> None:
    grid = default_grid()
    assert grid.n_times == 38
    assert grid.n_state == 5 * 3 * 38 == 570
    y = simulate(mid_params())
    assert y.shape == (570,)
    assert np.all(np.isfinite(y))
    cube = unflatten(y)
    assert cube.shape == (len(VARIABLES), N_STATIONS, 38)
    # Variable-major, then station, then time.
    for v in range(len(VARIABLES)):
        for p in range(N_STATIONS):
            start = (v * N_STATIONS + p) * 38
            assert np.array_equal(y[start : start + 38], cube[v, p])
    with pytest.raises(ValueError, match="shape"):
        unflatten(y[:-1])


def test_simulate_is_pure() -> None:
    params = mid_params()
    a = simulate(params)
    b = simulate(tuple(params))
    assert np.array_equal(a, b)
    assert np.array_equal(params, mid_params())
    with pytest.raises(ValueError, match="expected 4 parameters"):
        simulate(params[:3])


def test_ctl_zero_probe_forces_constant_level() -> None:
    params = mid_params()
    params[2] = 0.0  # outside bounds: test-only override
    y = unflatten(simulate(params, enforce_bounds=False))
    assert np.allclose(y[2], params[1])


def test_ctv_zero_probe_kills_velocities() -> None:
    params = mid_params()
    params[3] = 0.0
    y = unflatten(simulate(params, enforce_bounds=False))
    assert np.allclose(y[0], 0.0)
    assert np.allclose(y[1], 0.0)


def test_weaker_friction_gives_larger_peak_velocity() -> None:
    low, high = mid_params(), mid_params()
    low[0] = PARAMETER_BOUNDS[0, 0]
    high[0] = PARAMETER_BOUNDS[0, 1]
    u_low = np.abs(unflatten(simulate(low))[0]).max()
    u_high = np.abs(unflatten(simulate(high))[0]).max()
    assert u_high > u_low


def test_friction_only_damps() -> None:
    grid = default_grid()
    params = mid_params()
    y = unflatten(simulate(params))
    # Rebuild the undamped current and compare magnitudes.
    t = grid.times_hours
    arg = 2 * np.pi * t[None, None, :] / grid.periods_hours[:, None, None]
    arg = arg - grid.station_phases[None, :, None]
    s = params[3] * np.sum(
        grid.velocity_amplitudes[:, None, None]
        * np.cos(arg - grid.velocity_phases[:, None, None]),
        axis=0,
    )
    assert np.all(np.abs(y[0]) <= np.abs(s) + 1e-15)


def test_level_envelope_bound() -> None:
    rng = np.random.default_rng(2)
    for _ in range(5):
        params = rng.uniform(PARAMETER_BOUNDS[:, 0], PARAMETER_BOUNDS[:, 1])
        eta = unflatten(simulate(params))[2]
        bound = params[2] * 3.8  # CTL * sum of level amplitudes
        assert np.max(np.abs(eta - params[1])) <= bound + 1e-12


def test_out_of_bounds_rejected() -> None:
    params = mid_params()
    params[0] = 5.0
    with pytest.raises(ValueError, match="K2"):
        simulate(params)


def test_sample_parameters_within_bounds_and_mean() -> None:
    draws = sample_parameters(1000, seed=123)
    assert draws.shape == (1000, 4)
    assert np.all(draws >= PARAMETER_BOUNDS[:, 0])
    assert np.all(draws <= PARAMETER_BOUNDS[:, 1])
    k2_mean = draws[:, 0].mean()
    assert 52.0 <= k2_mean <= 60.0  # population mean 55.84


def test_sample_parameters_nested_in_n() -> None:
    small = sample_parameters(100, seed=7)
    large = sample_parameters(400, seed=7)
    assert np.array_equal(small, large[:100])


def test_propagate_matches_loop() -> None:
    # The second input is one where a single broadcast over all members
    # differs from the per-member loop in the last bit (vectorized ``power``).
    for n, seed in ((3, 9), (800, substream_seed(7, "bootstrap/0"))):
        params = sample_parameters(n, seed=seed)
        states = propagate(params)
        assert states.shape == (570, n)
        for j in range(n):
            assert np.array_equal(states[:, j], simulate(params[j]))
