import dataclasses
import logging
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda import assimilate, experiments, io, surrogate, toymodel
from romda.experiments import (
    MeasurementConfig,
    TwinConfig,
    inject_noise,
    measurement_noise_diag,
    parameter_standardizer,
    run_bootstrap,
    run_covariance_grid,
    run_measurement,
    run_twin,
)
from romda.pod import ModeCountError, fit_pod, truncate
from romda.rng import split_seed, substream, substream_seed
from romda.surrogate import Standardizer, build_poden


def test_standardizer_round_trip() -> None:
    rng = np.random.default_rng(0)
    ensemble = rng.standard_normal((12, 30)) * 3.0 + 1.0
    stdzr = Standardizer.fit(ensemble)
    z = stdzr.transform(ensemble)
    assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=1), 1.0, atol=1e-12)
    assert np.allclose(stdzr.inverse(z), ensemble, atol=1e-10)
    var = rng.uniform(0.1, 2.0, 12)
    assert np.allclose(stdzr.variance_diag(var), var / stdzr.std**2)


def test_parameter_standardizer_uses_table_statistics() -> None:
    stdzr = parameter_standardizer()
    z = stdzr.transform(toymodel.PARAMETER_MEANS)
    assert np.allclose(z, 0.0)
    assert np.allclose(stdzr.std, toymodel.PARAMETER_STDS)


def truth_state(seed=3):
    rng = substream(seed, "truth")
    low, high = toymodel.PARAMETER_BOUNDS[:, 0], toymodel.PARAMETER_BOUNDS[:, 1]
    x_t = low + rng.random(4) * (high - low)
    return x_t, toymodel.simulate(x_t)


def test_inject_noise_diagonal_matches_construction() -> None:
    _, y_t = truth_state()
    y_o, r_diag = inject_noise(y_t, 0.10, seed=5)
    cube_var = toymodel.unflatten(r_diag)
    cube_std = toymodel.unflatten(y_t).std(axis=2)
    for v in range(3):
        for p in range(5):
            assert np.allclose(cube_var[v, p], (0.10 * cube_std[v, p]) ** 2)
            # Constant variance within a series.
            assert np.ptp(cube_var[v, p]) == 0.0


def test_inject_noise_empirical_std_matches_sigma() -> None:
    _, y_t = truth_state()
    draws = []
    for k in range(400):
        y_o, r_diag = inject_noise(y_t, 0.20, seed=k)
        draws.append(y_o - y_t)
    draws = np.array(draws)
    sigma = np.sqrt(r_diag)
    ratio = draws.std(axis=0) / sigma
    # Averaged over components the empirical spread matches sigma within 3%.
    assert abs(ratio.mean() - 1.0) <= 0.03


def test_a_constant_series_gets_one_floored_variance_from_both_callers(caplog) -> None:
    _, y_t = truth_state()
    y = y_t.copy()
    toymodel.unflatten(y)[2, 0] = 1.5  # eta at P1 held constant
    with caplog.at_level(logging.WARNING, logger="romda.experiments"):
        _, r_injected = inject_noise(y, 0.10, seed=0)
        r_measured = measurement_noise_diag(y, 0.10)
    assert [r.getMessage() for r in caplog.records] == ["flooring 1 zero-variance observation series"] * 2
    np.testing.assert_array_equal(r_injected, r_measured)
    cube = toymodel.unflatten(r_measured)
    assert np.all(cube[2, 0] == (0.10 * (1e-6 * 1.5 + 1e-12 / 0.10)) ** 2)
    # The series that vary keep 0.1 times their spread, bit for bit.
    spread = (0.10 * toymodel.unflatten(y).std(axis=2))[:, :, None] * np.ones(cube.shape[2])
    varying = np.ones(cube.shape[:2], dtype=bool)
    varying[2, 0] = False
    np.testing.assert_array_equal(cube[varying], spread[varying] ** 2)


def test_inject_noise_rejects_bad_level() -> None:
    _, y_t = truth_state()
    for level in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError, match="noise level"):
            inject_noise(y_t, level, seed=0)


def _scorer(y_ref: np.ndarray, stdzr: Standardizer) -> experiments._Scorer:
    """A scorer against the truth ``y_ref``, observed without noise."""
    return experiments._Scorer(stdzr, experiments._Observed(y_ref, np.ones(570), np.eye(4), y_ref))


def test_rmse_global_basics() -> None:
    rng = np.random.default_rng(1)
    ensemble = rng.standard_normal((570, 40)) + 2.0
    stdzr = Standardizer.fit(ensemble)
    y = ensemble[:, 0]
    assert _scorer(y, stdzr).rmses(y)["rmse_truth"] == 0.0
    shift = 0.37
    y_shifted = y + shift * stdzr.std
    assert _scorer(y, stdzr).rmses(y_shifted)["rmse_truth"] == pytest.approx(shift)


def test_rmse_groups_recombine_to_global() -> None:
    rng = np.random.default_rng(2)
    ensemble = rng.standard_normal((570, 25)) + 1.0
    stdzr = Standardizer.fit(ensemble)
    y_ref = ensemble[:, 3]
    y_hat = y_ref + rng.standard_normal(570) * stdzr.std * 0.2
    rmses = _scorer(y_ref, stdzr).rmses(y_hat)
    total = rmses["rmse_truth"]
    by_var = [rmses[f"rmse_{name}"] for name in toymodel.VARIABLES]
    assert np.sqrt(np.mean([v**2 for v in by_var])) == pytest.approx(total, rel=1e-12)
    by_station = [rmses[f"rmse_p{p}"] for p in range(1, toymodel.N_STATIONS + 1)]
    assert np.sqrt(np.mean([v**2 for v in by_station])) == pytest.approx(total, rel=1e-12)


def test_physical_snaps_an_analysis_one_ulp_outside_the_box() -> None:
    bounds = toymodel.PARAMETER_BOUNDS
    scaling = surrogate.Scaling(parameter_standardizer(), Standardizer(np.zeros(1), np.ones(1)), bounds)
    inside = scaling.params.transform(toymodel.PARAMETER_MEANS)
    x_a, clipped = experiments._physical(scaling, inside)
    assert not clipped
    assert np.array_equal(x_a, scaling.params.inverse(inside))

    # One ulp below K2's standardized lower bound maps below its physical one.
    outside = inside.copy()
    outside[0] = np.nextafter(scaling.box[0, 0], -np.inf)
    assert scaling.params.inverse(outside)[0] < bounds[0, 0]
    x_a, clipped = experiments._physical(scaling, outside)
    assert clipped
    assert x_a[0] == bounds[0, 0]
    assert np.array_equal(x_a[1:], scaling.params.inverse(outside)[1:])


def small_config(**kwargs):
    defaults = dict(
        seed=7,
        noise_levels=(0.10,),
        training_sizes=(60,),
        mode_numbers=(2, 3),
        surrogates=("podpce",),
        covariance_kind="r_tilde",
        pce_degree=2,
    )
    defaults.update(kwargs)
    return TwinConfig(**defaults)


def test_twin_config_validation() -> None:
    with pytest.raises(ValueError, match="positive definite"):
        TwinConfig(noise_levels=(0.0,))
    with pytest.raises(ValueError, match="increasing"):
        TwinConfig(training_sizes=(100, 100))
    with pytest.raises(ValueError, match="covariance kind"):
        TwinConfig(covariance_kind="q")
    with pytest.raises(ValueError, match="surrogate kind"):
        TwinConfig(surrogates=("kriging",))


@pytest.mark.parametrize(
    "field, value",
    [
        ("surrogates", ("foo",)),
        ("training_sizes", (5,)),
        ("mode_numbers", ()),
    ],
)
def test_sweep_configs_reject_bad_fields(field, value) -> None:
    for config_type in (TwinConfig, MeasurementConfig):
        with pytest.raises(ValueError, match=field):
            config_type(**{field: value})
    # An EVR threshold stands in for explicit mode numbers.
    MeasurementConfig(mode_numbers=(), evr_threshold=0.95)


@pytest.mark.parametrize("b_from_truth", [False, True])
def test_background_covariance_from_the_truth(monkeypatch, b_from_truth) -> None:
    # K2 sits on its prior mean, so its variance takes the 1e-12 floor.
    x_t = (toymodel.PARAMETER_MEANS[0], 4.5, 1.2, 2.5)
    z_t = (np.array(x_t) - toymodel.PARAMETER_MEANS) / toymodel.PARAMETER_STDS
    expected = np.diag(np.maximum(z_t**2, 1e-12)) if b_from_truth else np.eye(4)
    posed = []

    def pose(*args, **kwargs):
        posed.append(kwargs["background_cov"])
        return assimilate.pose_problem(*args, **kwargs)

    monkeypatch.setattr(experiments, "pose_problem", pose)
    report = run_twin(small_config(x_t=x_t, b_from_truth=b_from_truth))
    assert [row.error for row in report.rows] == ["", ""]
    assert len(posed) == 2 and all(np.array_equal(b, expected) for b in posed)
    assert expected[0, 0] == (1e-12 if b_from_truth else 1.0)


def test_run_twin_rows_and_improvement() -> None:
    report = run_twin(small_config())
    assert len(report.rows) == 2  # one noise x one size x two mode counts
    for row in report.rows:
        assert row.error == ""
        assert row.j_final >= 0.0
        assert np.all(row.x_a >= toymodel.PARAMETER_BOUNDS[:, 0])
        assert np.all(row.x_a <= toymodel.PARAMETER_BOUNDS[:, 1])
    best = min(row.rmse_truth for row in report.rows)
    assert best < report.rows[0].rmse_truth_background


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_run_twin_deterministic_and_nested(seed) -> None:
    first = run_twin(small_config(seed=seed))
    second = run_twin(small_config(seed=seed))
    for a, b in zip(first.rows, second.rows):
        assert np.array_equal(a.x_a, b.x_a)
        assert a.rmse_truth == b.rmse_truth
        assert a.j_final == b.j_final

    larger = run_twin(small_config(seed=seed, training_sizes=(60, 90)))
    small_rows = [r for r in larger.rows if r.n == 60]
    for a, b in zip(first.rows, small_rows):
        assert np.array_equal(a.x_a, b.x_a)
        assert a.rmse_truth == b.rmse_truth


def test_sweeps_whiten_rtilde_modes_once_per_build_and_observation(monkeypatch) -> None:
    # A shared counter: the twin groups, and so their QRs, may run in forked workers.
    qrs = multiprocessing.Value("i", 0)
    whitened_modes_qr = assimilate._whitened_modes_qr

    def counted(cov, name):
        with qrs.get_lock():
            qrs.value += 1
        return whitened_modes_qr(cov, name)

    monkeypatch.setattr(assimilate, "_whitened_modes_qr", counted)
    grid = small_config(alpha_grid=(0.1, 1.0, 10.0), grid_modes=3)
    assert len(run_covariance_grid(grid).rows) == 9
    assert qrs.value == 1  # one build, one R

    qrs.value = 0
    twin = small_config(noise_levels=(0.05, 0.10), training_sizes=(60, 90))
    assert len(run_twin(twin).rows) == 8  # two mode counts per (n, noise)
    assert qrs.value == 4  # one per (n, noise)


def test_run_twin_rmse_obs_nondecreasing_in_noise() -> None:
    report = run_twin(small_config(noise_levels=(0.01, 0.10, 0.40), mode_numbers=(3,)))
    by_noise = {row.noise: row.rmse_obs for row in report.rows}
    values = [by_noise[level] for level in (0.01, 0.10, 0.40)]
    assert values[0] <= values[1] <= values[2]


def test_run_covariance_grid_shape_and_uniform_scaling() -> None:
    config = small_config(
        training_sizes=(80,),
        alpha_grid=(0.1, 1.0, 10.0),
        grid_noise=0.10,
        grid_modes=3,
    )
    report = run_covariance_grid(config)
    assert len(report.rows) == 9
    matrix = np.array(report.extras["rmse_matrix"])
    assert matrix.shape == (3, 3)
    diag_rows = [r for r in report.rows if r.alpha_b == r.alpha_r]
    reference = diag_rows[0]
    for row in diag_rows[1:]:
        assert np.allclose(row.x_a, reference.x_a, atol=1e-6 * np.abs(reference.x_a).max())


def test_run_bootstrap_order_statistics() -> None:
    config = small_config(
        surrogates=("podpce", "poden"),
        mode_numbers=(1, 2),
        bootstrap_replicates=3,
        bootstrap_size=40,
        bootstrap_noise=0.10,
    )
    report = run_bootstrap(config)
    assert len(report.rows) == 3 * 2 * 2
    assert report.extras["summary"]
    for stats in report.extras["summary"].values():
        assert stats["min"] <= stats["mean"] <= stats["max"]


def test_run_bootstrap_builds_the_evr_selected_rank() -> None:
    config = TwinConfig(
        seed=7, evr_threshold=0.95, mode_numbers=(), bootstrap_replicates=1, bootstrap_size=40
    )
    report = run_bootstrap(config)

    # The ranks the threshold selects on the replicate's own ensemble.
    params = toymodel.sample_parameters(40, substream_seed(7, "bootstrap/0"))
    states = toymodel.propagate(params)
    z_states = Standardizer.fit(states).transform(states)
    z_params = parameter_standardizer().transform(params.T)
    expected = {
        "podpce": truncate(fit_pod(z_states), evr_threshold=0.95).retained,
        "poden": build_poden(z_params, z_states, evr_threshold=0.95).d,
    }
    assert [(row.solver, row.d) for row in report.rows] == list(expected.items())
    assert all(row.error == "" for row in report.rows)
    assert set(report.extras["summary"]) == {f"{s}/d={d}" for s, d in expected.items()}


def test_both_kinds_share_one_state_pod(monkeypatch) -> None:
    # PODEn's joint basis extends the POD-PCE state basis: one fit_pod per build.
    fitted = []

    def counting(data):
        fitted.append(np.shape(data))
        return fit_pod(data)

    monkeypatch.setattr(experiments, "fit_pod", counting)
    monkeypatch.setattr(surrogate, "fit_pod", counting)
    params = toymodel.sample_parameters(40, 3)
    states = toymodel.propagate(params)
    built, _ = experiments.build_surrogates(
        params.T, states, toymodel.PARAMETER_BOUNDS, ("podpce", "poden"),
        pce_degree=2, split_seed=1, modes=3,
    )
    assert fitted == [states.shape]
    assert built["poden"].m_y == built["podpce"].m_y == states.shape[0]


@pytest.mark.parametrize("kinds", [("poden",), ("podpce", "poden")])
def test_a_nan_parameter_is_rejected_by_name(kinds) -> None:
    params = toymodel.sample_parameters(40, 3).T.copy()
    states = toymodel.propagate(params.T)
    params[1, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite snapshot entry at row 1, column 5"):
        experiments.build_surrogates(
            params, states, toymodel.PARAMETER_BOUNDS, kinds, pce_degree=2, split_seed=1, modes=3
        )


def _tiny_sweep(driver: str):
    """A small sweep of each driver; every one has POD-PCE cells at d = 2."""
    twin = small_config(surrogates=("podpce", "poden"), training_sizes=(40,))
    if driver == "twin":
        return run_twin(twin)
    if driver == "covgrid":
        return run_covariance_grid(dataclasses.replace(twin, alpha_grid=(1.0, 10.0), grid_modes=2))
    if driver == "bootstrap":
        return run_bootstrap(dataclasses.replace(twin, bootstrap_replicates=2, bootstrap_size=40))
    config = MeasurementConfig(
        seed=7, training_sizes=(40,), mode_numbers=(2, 3), pce_degree=2,
        covariance_kinds=("r", "r_tilde"),
    )
    return run_measurement(config, toymodel.simulate([70.0, 4.6, 1.2, 2.2]))


def _row_fields(row) -> dict:
    fields = dataclasses.asdict(row)
    del fields["wall_time"]
    return fields


def _cpus(monkeypatch, count: int) -> None:
    """Let the drivers see ``count`` CPUs in the process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs: a driver, on its one BLAS thread, runs two or more units
    on two workers. Yields the number of cell groups run outside this
    process, shared across fork."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _cpus(monkeypatch, 2)
    in_workers = multiprocessing.Value("i", 0)
    parent, run_cells = os.getpid(), experiments._run_cells

    def counted(*args):
        if os.getpid() != parent:
            with in_workers.get_lock():
                in_workers.value += 1
        return run_cells(*args)

    monkeypatch.setattr(experiments, "_run_cells", counted)
    yield in_workers


# Several units per driver, so two CPUs give two workers.
POOLED = small_config(surrogates=("podpce", "poden"), noise_levels=(0.05, 0.10),
                      training_sizes=(40, 60), bootstrap_replicates=3, bootstrap_size=40)


@pytest.mark.parametrize("driver", [run_bootstrap, run_twin])
def test_pooled_rows_equal_serial_rows_bit_for_bit(driver, monkeypatch, two_cpus) -> None:
    pooled = driver(POOLED)
    assert multiprocessing.active_children() == []
    units = len(pooled.rows) // 4  # four cells per replicate or (noise, n) group
    assert two_cpus.value == units  # every unit ran in a worker
    _cpus(monkeypatch, 1)
    serial = driver(POOLED)
    assert two_cpus.value == units
    assert len(pooled.rows) == len(serial.rows) > 0
    np.testing.assert_equal([_row_fields(r) for r in pooled.rows], [_row_fields(r) for r in serial.rows])
    assert io.report_csv_text(pooled) == io.report_csv_text(serial)


@pytest.mark.parametrize("driver", [run_bootstrap, run_twin])
def test_a_cell_failing_in_a_worker_becomes_its_error_row_in_place(driver, monkeypatch, two_cpus) -> None:
    baseline = driver(POOLED)
    solve = experiments.solve_podpce3dvar

    def failing_at_d2(surrogate, problem):
        if surrogate.d == 2:
            raise ValueError("injected failure")
        return solve(surrogate, problem)

    monkeypatch.setattr(experiments, "solve_podpce3dvar", failing_at_d2)
    two_cpus.value = 0
    report = driver(POOLED)
    assert multiprocessing.active_children() == []
    assert two_cpus.value > 0
    failed = [i for i, row in enumerate(report.rows) if row.error]
    assert failed == [i for i, row in enumerate(baseline.rows) if row.solver == "podpce" and row.d == 2]
    assert len(failed) == len(report.rows) // 4  # one row in four: podpce at d = 2
    for i, (before, after) in enumerate(zip(baseline.rows, report.rows)):
        if i in failed:
            assert "injected failure" in after.error and after.reason == "error"
            assert (after.experiment, after.n, after.noise) == (before.experiment, before.n, before.noise)
        else:
            np.testing.assert_equal(_row_fields(after), _row_fields(before))


@pytest.mark.parametrize("error, message", [
    (ModeCountError("injected rank failure"), "mode_numbers: injected rank failure"),
    (np.linalg.LinAlgError("injected numerical failure"), "injected numerical failure"),
])
def test_a_replicate_build_failing_in_a_worker_is_raised_in_the_parent(
    monkeypatch, two_cpus, error, message
) -> None:
    failing = split_seed(substream_seed(POOLED.seed, "bootstrap/1"), POOLED.bootstrap_size)
    build = experiments.build_surrogates

    def build_or_fail(*args, split_seed, **kwargs):
        if split_seed == failing:
            raise error
        return build(*args, split_seed=split_seed, **kwargs)

    monkeypatch.setattr(experiments, "build_surrogates", build_or_fail)
    with pytest.raises(type(error), match=message):
        run_bootstrap(POOLED)
    assert multiprocessing.active_children() == []


def test_a_killed_worker_raises_instead_of_hanging(two_cpus) -> None:
    def die_at_one(item):
        if item == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with pytest.raises(BrokenProcessPool), experiments._one_blas_thread():
        experiments._map(die_at_one, [0, 1, 2])
    assert multiprocessing.active_children() == []


@experiments._one_blas_thread()
def test_workers_do_not_oversubscribe_the_blas_threads(monkeypatch, two_cpus) -> None:
    pools = experiments._bundled_openblas()
    if not pools:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    parent = os.getpid()
    assert experiments._map(lambda item: os.getpid(), [0, 1]) != [parent, parent]
    for _, put in pools:
        put(2)  # two threads fill both CPUs: the units run here
    assert experiments._map(lambda item: os.getpid(), [0, 1]) == [parent, parent]
    _cpus(monkeypatch, 4)
    assert experiments._map(lambda item: os.getpid(), [0, 1]) != [parent, parent]


@pytest.mark.parametrize("driver", ["twin", "covgrid", "bootstrap", "measure"])
def test_failed_cell_becomes_an_error_row_and_the_sweep_goes_on(driver, monkeypatch) -> None:
    baseline = _tiny_sweep(driver)
    solve = experiments.solve_podpce3dvar

    def failing_at_d2(surrogate, problem):
        if surrogate.d == 2:
            raise ValueError("injected failure")
        return solve(surrogate, problem)

    monkeypatch.setattr(experiments, "solve_podpce3dvar", failing_at_d2)
    report = _tiny_sweep(driver)

    key = ("experiment", "solver", "covariance", "n", "d", "noise", "alpha_b", "alpha_r")
    assert len(report.rows) == len(baseline.rows)
    failed = 0
    for before, after in zip(baseline.rows, report.rows):
        assert [getattr(after, k) for k in key] == [getattr(before, k) for k in key]
        if after.solver == "podpce" and after.d == 2:
            failed += 1
            assert after.reason == "error"
            assert "injected failure" in after.error
            assert after.model_runs == 0
            assert np.all(np.isnan(after.x_a))
            for metric in (after.rmse_truth, after.rmse_obs, after.j_final):
                assert np.isnan(metric)
        else:
            assert before.error == ""
            np.testing.assert_equal(_row_fields(after), _row_fields(before))
    assert failed >= 1


def test_run_measurement_with_planted_truth() -> None:
    x_hidden = np.array([70.0, 4.6, 1.2, 2.2])
    y_o = toymodel.simulate(x_hidden)
    config = MeasurementConfig(
        seed=11,
        assumed_noise=0.01,
        training_sizes=(100,),
        mode_numbers=(4,),
        surrogates=("podpce",),
        covariance_kinds=("r",),
        pce_degree=2,
    )
    report = run_measurement(config, y_o)
    classical = report.rows[0]
    assert classical.solver == "classical"
    param_std = parameter_standardizer()
    recovered = param_std.transform(classical.x_a) - param_std.transform(x_hidden)
    assert np.max(np.abs(recovered)) <= 1e-3
    assert classical.model_runs >= 2 * 4  # at least one central-difference gradient

    surrogate_rows = [r for r in report.rows if r.solver == "podpce"]
    assert surrogate_rows
    for row in surrogate_rows:
        assert row.model_runs == row.n  # ensemble only
        assert np.isnan(row.rmse_truth)  # no truth column in measurement mode


def test_run_measurement_rejects_bad_layout() -> None:
    with pytest.raises(ValueError, match="layout"):
        run_measurement(MeasurementConfig(), np.zeros(10))


def test_twin_parameter_recovery_at_95_evr() -> None:
    # n=400, d at 95% EVR, 10% noise: each parameter recovered within 0.15
    # prior standard deviations. (At this rank one friction/velocity
    # combination is weakly identified, so the margin is seed specific.)
    config = TwinConfig(
        seed=2026,
        noise_levels=(0.10,),
        training_sizes=(400,),
        evr_threshold=0.95,
        surrogates=("podpce",),
        covariance_kind="r_tilde",
    )
    report = run_twin(config)
    row = report.rows[0]
    x_t = np.array(report.extras["x_t"])
    pstd = parameter_standardizer()
    err = np.abs(pstd.transform(row.x_a) - pstd.transform(x_t))
    assert np.all(err <= 0.15)


def test_inflated_observation_error_pulls_toward_background() -> None:
    config = small_config(training_sizes=(80,), alpha_grid=(1.0, 100.0), grid_modes=3)
    report = run_covariance_grid(config)
    pstd = parameter_standardizer()

    def distance_to_background(row):
        return float(np.linalg.norm(pstd.transform(row.x_a)))  # x_b is the prior mean

    inflated = next(r for r in report.rows if r.alpha_b == 1.0 and r.alpha_r == 100.0)
    reference = next(r for r in report.rows if r.alpha_b == 1.0 and r.alpha_r == 1.0)
    assert distance_to_background(inflated) <= distance_to_background(reference)


@pytest.mark.parametrize("driver", ["twin", "covgrid", "bootstrap", "measure"])
def test_plot_cells_equal_the_report_cells_of_their_row(driver, tmp_path) -> None:
    report = _tiny_sweep(driver)

    def table(path):
        lines = path.read_text().splitlines()[1:]  # after the metadata comment
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    io.write_report_csv(tmp_path / "report.csv", report)
    written = io.write_plot_csvs(tmp_path, report)
    rows = table(tmp_path / "report.csv")
    plots = [(name, experiment) for name, experiment, _ in io._PLOTS if experiment == driver]
    assert [path.name for path in written] == [name for name, _ in plots]
    for name, experiment in plots:
        plot = table(tmp_path / name)
        kept = [row for row in rows if row["experiment"].split("/")[0] == experiment]
        assert len(plot) == len(kept) > 0
        for cells, row in zip(plot, kept):
            for column, cell in cells.items():
                expected = row["experiment"].split("/")[1] if column == "replicate" else row[column]
                assert cell == expected, (name, column)
