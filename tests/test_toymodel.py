import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from romda import toymodel
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


# sha256 of the states of the box's 16 corners and its midpoint, one column
# per point, as little-endian float64 in C order (numpy 2.4, x86-64).
PINNED_STATES_SHA256 = "16e4edfd58ac98d36c269c164fc969f2a5b30ca186ed1c2d0ebe3a7fdbd034d4"


def mid_params():
    return PARAMETER_MEANS.copy()


def loop_simulate(params: np.ndarray) -> np.ndarray:
    """The model for one in-box parameter set, written out on its own: the
    reference the batched propagate is checked against. K2 is a numpy
    scalar here, so it is squared as one."""
    grid = toymodel._GRID
    k2, mtl, ctl, ctv = params
    eta = ctl * toymodel._ETA_RAW + mtl
    depth = np.maximum(mtl + grid.station_depth_offsets[:, None] + ctl * toymodel._ETA_RAW, grid.min_depth)
    s_along = ctv * toymodel._ALONG_RAW
    s_across = ctv * toymodel._ACROSS_RAW
    friction = grid.gravity * grid.drag_timescale / (k2**2 * depth ** (4.0 / 3.0))
    u = s_along / (1.0 + friction * np.abs(s_along))
    v = grid.transverse_fraction * s_across / (1.0 + friction * np.abs(s_across))
    return np.concatenate([u.ravel(), v.ravel(), eta.ravel()])


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


def test_propagate_keeps_the_pinned_bits() -> None:
    # The grid constants and the box are literals in toymodel.py; a change to
    # one of them, or to the arithmetic, changes these bits.
    points = np.array([*itertools.product(*PARAMETER_BOUNDS), PARAMETER_BOUNDS.mean(axis=1)])
    states = np.ascontiguousarray(propagate(points), dtype="<f8")
    assert hashlib.sha256(states.tobytes()).hexdigest() == PINNED_STATES_SHA256


def test_simulate_is_pure() -> None:
    params = mid_params()
    a = simulate(params)
    b = simulate(tuple(params))
    assert np.array_equal(a, b)
    assert np.array_equal(params, mid_params())
    with pytest.raises(ValueError, match="expected 4 parameters"):
        simulate(params[:3])


@pytest.fixture
def unbounded(monkeypatch):
    """simulate without its parameter-box check, for out-of-box probes."""
    monkeypatch.setattr(toymodel, "check_bounds", lambda values: None)


def test_ctl_zero_probe_forces_constant_level(unbounded) -> None:
    params = mid_params()
    params[2] = 0.0  # outside bounds
    y = unflatten(simulate(params))
    assert np.allclose(y[2], params[1])


def test_ctv_zero_probe_kills_velocities(unbounded) -> None:
    params = mid_params()
    params[3] = 0.0
    y = unflatten(simulate(params))
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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 900),
    on_faces=st.floats(0.0, 1.0),
)
@example(seed=substream_seed(7, "bootstrap/0"), n=800, on_faces=0.0)
def test_propagate_matches_loop(seed, n, on_faces) -> None:
    # Each batch column against the model written out for one member
    # (loop_simulate) and against that member run alone (simulate, a batch
    # of one), bit for bit: reports do not depend on how members are
    # batched. A share of the entries is moved onto a face of the box, where
    # the check is inclusive and friction is extreme.
    rng = np.random.default_rng(seed)
    params = sample_parameters(n, seed=seed)
    rows, cols = np.nonzero(rng.random(params.shape) < on_faces)
    params[rows, cols] = PARAMETER_BOUNDS[cols, rng.integers(0, 2, cols.size)]
    states = propagate(params)
    assert states.shape == (570, n) and states.flags.c_contiguous
    for j in range(n):
        assert np.array_equal(states[:, j], loop_simulate(params[j]))
        assert np.array_equal(states[:, j], simulate(params[j]))


def test_propagate_names_the_out_of_box_member() -> None:
    params = sample_parameters(6, seed=3)
    params[4, 2] = PARAMETER_BOUNDS[2, 1] + 0.01
    params[5, 0] = np.nan
    with pytest.raises(ValueError, match=r"^member 4: parameter CTL=1\.31 outside bounds"):
        propagate(params)
    with pytest.raises(ValueError, match=r"^parameter CTL=1\.31 outside bounds"):
        simulate(params[4])  # a lone set has no member index
    with pytest.raises(ValueError, match="expected rows of 4 parameters"):
        propagate(params[:, :3])
