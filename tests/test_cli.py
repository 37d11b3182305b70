import argparse
import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import romda
from romda import cli, experiments, io, toymodel
from romda.assimilate import pose_problem, solve_poden3dvar, solve_podpce3dvar
from romda.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, EXIT_WORKER_LOST, main
from romda.experiments import build_surrogates, measurement_noise_diag
from romda.pce import PceConfig, select_degree, split_members
from romda.pod import ModeCountError, PodBasis, SnapshotMatrix, fit_pod, truncate
from romda.rng import split_seed, substream_seed
from romda.surrogate import PodEnSurrogate, Scaling, Standardizer

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class ToyChain:
    """The README chain sample -> simulate -> build-surrogate (-> assimilate)
    on the toy model, every command writing into one output directory."""

    def __init__(self, tmp_path):
        self.tmp = tmp_path
        self.out = tmp_path / "out"

    def run(self, command: str, cfg: dict, seed: int) -> int:
        path = write_config(self.tmp, f"{command}.json", cfg)
        return main([command, "--config", path, "--seed", str(seed), "--out", str(self.out)])

    def ensemble(self, n: int, seed: int) -> Path:
        """sample and simulate an n-member ensemble; returns the output directory."""
        assert self.run("sample", {"n": n}, seed) == EXIT_OK
        assert self.run("simulate", {"parameters_csv": str(self.out / "parameters.csv")}, seed) == EXIT_OK
        return self.out

    def build(self, seed: int, **keys) -> int:
        """build-surrogate with the required keys (POD-PCE in the toy box) and ``keys``."""
        cfg = {
            "kind": "podpce",
            "parameters_csv": str(self.out / "parameters.csv"),
            "states_csv": str(self.out / "states.csv"),
            "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
            **keys,
        }
        return self.run("build-surrogate", cfg, seed)


@pytest.fixture
def chain(tmp_path):
    return ToyChain(tmp_path)


def write_observation(path, y_o) -> None:
    labels = tuple(f"c{i}" for i in range(y_o.size))
    io.write_snapshot_csv(path, SnapshotMatrix(np.asarray(y_o)[:, None], labels, ("obs",)))


def test_unknown_subcommand_fails_validation(capsys) -> None:
    assert main(["frobnicate"]) == EXIT_VALIDATION


def test_sample_then_simulate_pipeline(chain) -> None:
    out = chain.ensemble(12, 3)
    params_csv = out / "parameters.csv"
    assert (out / "config_used.json").exists()
    states = io.read_snapshot_csv(out / "states.csv")
    assert states.data.shape == (570, 12)
    params = io.read_snapshot_csv(params_csv)
    assert np.array_equal(states.data[:, 0], toymodel.simulate(params.data[:, 0]))


def test_unknown_config_key_rejected(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "bad.json", {"n": 5, "banana": 1})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "banana" in capsys.readouterr().err


def test_fit_pod_and_surrogate_pipeline(chain, tmp_path) -> None:
    out = chain.ensemble(40, 7)
    pod_cfg = write_config(
        tmp_path, "pod.json", {"states_csv": str(out / "states.csv"), "evr_threshold": 0.95}
    )
    assert main(["fit-pod", "--config", pod_cfg, "--seed", "7", "--out", str(out)]) == EXIT_OK
    # The document holds the POD of the CSV's snapshot data, field for field.
    doc = io.load_json(out / "pod_basis.json", "pod_basis")
    expected = truncate(fit_pod(io.read_snapshot_csv(out / "states.csv").data), evr_threshold=0.95)
    assert doc["retained"] == expected.retained >= 1
    for name in ("mean", "modes", "singular_values", "coefficients"):
        assert np.array_equal(np.array(doc[name]), getattr(expected, name))

    assert chain.build(7, modes=2, max_degree=2) == EXIT_OK
    surrogate, scaling = io.load_surrogate(out / "surrogate.json")
    assert surrogate.d == 2
    assert np.array_equal(scaling.bounds, toymodel.PARAMETER_BOUNDS)


def test_assimilate_command_and_noise_zero_validation(chain, capsys) -> None:
    out = chain.ensemble(40, 1)
    assert chain.build(1, modes=2, max_degree=2) == EXIT_OK
    # Single-member observation file from a fresh simulation.
    write_observation(out / "obs.csv", toymodel.simulate(np.array([60.0, 5.2, 1.0, 2.0])))

    base = {
        "surrogate": str(out / "surrogate.json"),
        "observations_csv": str(out / "obs.csv"),
        "covariance": "r_tilde",
        "x_b": list(toymodel.PARAMETER_MEANS),
    }
    assert chain.run("assimilate", {**base, "noise_level": 0.05}, 1) == EXIT_OK
    doc = io.load_json(out / "analysis.json", "analysis")
    assert len(doc["x_a"]) == 4

    assert chain.run("assimilate", {**base, "noise_level": 0.0}, 1) == EXIT_VALIDATION
    assert "observation covariance must be positive definite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, solve", [("podpce", solve_podpce3dvar), ("poden", solve_poden3dvar)]
)
def test_readme_chain_runs_with_only_the_required_keys(chain, kind, solve) -> None:
    seed, n = 3, 200
    out = chain.ensemble(n, seed)
    assert chain.build(seed, kind=kind, evr_threshold=0.999) == EXIT_OK
    y_o = toymodel.simulate(np.array([70.0, 4.6, 1.2, 2.2]))
    write_observation(out / "obs.csv", y_o)
    assim = {
        "surrogate": str(out / "surrogate.json"),
        "observations_csv": str(out / "obs.csv"),
        "noise_level": 0.05,
    }
    assert chain.run("assimilate", assim, seed) == EXIT_OK
    x_a = np.array(io.load_json(out / "analysis.json", "analysis")["x_a"])
    low, high = toymodel.PARAMETER_BOUNDS.T
    assert np.all(x_a >= low) and np.all(x_a <= high)

    # The library path on the same arrays: shared build, problem helper, solver.
    params = io.read_snapshot_csv(out / "parameters.csv").data
    states = io.read_snapshot_csv(out / "states.csv").data
    built, scaling = build_surrogates(
        params, states, toymodel.PARAMETER_BOUNDS, (kind,), pce_degree=3,
        split_seed=split_seed(seed, n), evr_threshold=0.999,
    )
    problem = pose_problem(built[kind], scaling, y_o, measurement_noise_diag(y_o, 0.05))
    expected = scaling.params.inverse(solve(built[kind], problem).x_a)
    np.testing.assert_allclose(x_a, expected, rtol=1e-10, atol=0.0)


def test_build_failure_cases_on_a_small_ensemble(chain, capsys, caplog) -> None:
    """A 12-member toy ensemble: a plain build, a constant state row (floored
    with a warning) and a NaN entry (rejected, naming where it sits)."""
    out = chain.ensemble(12, 3)
    assert chain.build(3, modes=4) == EXIT_OK
    assert io.load_surrogate(out / "surrogate.json")[0].d == 4

    states = io.read_snapshot_csv(out / "states.csv")
    data = states.data.copy()
    data[5] = 1.5
    io.write_snapshot_csv(out / "states.csv", SnapshotMatrix(data, states.row_labels, states.member_ids))
    with caplog.at_level(logging.WARNING):
        assert chain.build(3, modes=4) == EXIT_OK
    assert "flooring 1 zero-variance components" in caplog.text

    data[3, 2] = np.nan
    io.write_snapshot_csv(out / "states.csv", SnapshotMatrix(data, states.row_labels, states.member_ids))
    assert chain.build(3, modes=4) == EXIT_VALIDATION
    assert "non-finite snapshot entry at row 3, column 2" in capsys.readouterr().err


def test_poden_build_rejects_max_degree(chain, capsys) -> None:
    out = chain.ensemble(12, 3)
    assert chain.build(3, kind="poden", modes=2, max_degree=7) == EXIT_VALIDATION
    assert "max_degree" in capsys.readouterr().err
    assert not (out / "surrogate.json").exists()
    assert chain.build(3, kind="poden", modes=2) == EXIT_OK
    assert chain.build(3, kind="podpce", modes=2, max_degree=1) == EXIT_OK
    assert max(io.load_surrogate(out / "surrogate.json")[0].pce.selected_degrees) <= 1


def test_v1_documents_assimilate_with_identity_scaling(tmp_path) -> None:
    """A podpce-surrogate/1 document gives the analysis the previous schema's
    program wrote for the same config, bit for bit; a poden-surrogate/1
    document assimilates in an unbounded box."""
    base = {"observations_csv": str(DATA / "obs_v1.csv"), "noise_level": 0.05}
    cfg = {**base, "surrogate": str(DATA / "podpce_v1.json"), "x_b": [0.5, 2.5]}
    out = tmp_path / "podpce"
    assert main(["assimilate", "--config", write_config(tmp_path, "a.json", cfg),
                 "--seed", "4", "--out", str(out)]) == EXIT_OK
    doc = io.load_json(out / "analysis.json", "analysis")
    expected = io.load_json(DATA / "podpce_v1_analysis.json", "analysis")
    for key in ("x_a", "y_a", "nu_a", "j_final", "cost_trace", "evaluations", "converged",
                "reason", "in_bounds"):
        assert doc[key] == expected[key], key

    cfg = {**base, "surrogate": str(DATA / "poden_v1.json")}
    out = tmp_path / "poden"
    assert main(["assimilate", "--config", write_config(tmp_path, "e.json", cfg),
                 "--out", str(out)]) == EXIT_OK
    assert io.load_json(out / "analysis.json", "analysis")["reason"] == "closed_form"


def test_twin_command_writes_reports(tmp_path) -> None:
    out = tmp_path / "twin"
    cfg = write_config(
        tmp_path,
        "twin.json",
        {
            "noise_levels": [0.1],
            "training_sizes": [50],
            "mode_numbers": [2],
            "surrogates": ["podpce"],
            "pce_degree": 2,
        },
    )
    assert main(["twin", "--config", cfg, "--seed", "9", "--out", str(out)]) == EXIT_OK
    report = (out / "report.csv").read_text()
    assert report.startswith("# romda=")
    assert "seed=9" in report.splitlines()[0]
    assert (out / "summary.json").exists()
    assert (out / "timings.csv").exists()
    assert (out / "plot_noise_sweep.csv").exists()


def test_numerical_failure_maps_to_exit_2(tmp_path, capsys) -> None:
    # A PODEn document whose two joint mode columns are equal (a basis fit_pod
    # never writes): with identity scaling, B = I and R = I the reduced normal
    # matrix is [[1, 1], [1, 1]] exactly, and the closed-form analysis must
    # fail numerically.
    out = tmp_path / "out"
    out.mkdir(parents=True)
    column = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 0.0])
    basis = PodBasis(
        mean=np.zeros(6),
        modes=np.column_stack([column, column]),
        singular_values=np.ones(2),
        coefficients=np.zeros((30, 2)),
        retained=2,
    )
    scaling = Scaling(
        *(Standardizer(np.zeros(m), np.ones(m)) for m in (2, 4)), np.tile([-100.0, 100.0], (2, 1))
    )
    io.save_surrogate(out / "surrogate.json", PodEnSurrogate(basis=basis, m_x=2), scaling)
    write_observation(out / "obs.csv", np.array([1.0, -1.0, 2.0, 0.5]))
    assim_cfg = write_config(
        tmp_path,
        "a.json",
        {
            "surrogate": str(out / "surrogate.json"),
            "observations_csv": str(out / "obs.csv"),
            "r_diag": [1.0, 1.0, 1.0, 1.0],
            "x_b": [5.0, 3.0],
        },
    )
    assert main(["assimilate", "--config", assim_cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "smaller d" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["podpce", "poden"])
def test_build_asking_for_more_modes_than_the_rank_fails_validation(chain, capsys, kind) -> None:
    # 12 centered members span 11 directions, so a 12th mode does not exist.
    out = chain.ensemble(12, 3)
    assert chain.build(3, kind=kind, modes=12) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "[1, 11]" in err and "numerical rank" in err and "got 12" in err
    assert not (out / "surrogate.json").exists()
    assert chain.build(3, kind=kind, modes=11) == EXIT_OK


def test_covgrid_command_cell_count(tmp_path) -> None:
    out = tmp_path / "grid"
    cfg = write_config(
        tmp_path,
        "grid.json",
        {
            "training_sizes": [60],
            "alpha_grid": [0.1, 1.0, 10.0],
            "grid_modes": 2,
            "pce_degree": 2,
        },
    )
    assert main(["covgrid", "--config", cfg, "--seed", "2", "--out", str(out)]) == EXIT_OK
    lines = [
        line
        for line in (out / "report.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert len(lines) - 1 == 9  # header + one row per grid cell


def test_measure_command_rejects_bad_config_naming_the_field(tmp_path, capsys) -> None:
    for field, value in (("surrogates", ["foo"]), ("training_sizes", [5])):
        cfg = write_config(
            tmp_path, f"{field}.json", {"observations_csv": "unused.csv", field: value}
        )
        out = str(tmp_path / field)
        assert main(["measure", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("twin", "surrogates", []),
        ("measure", "covariance_kinds", []),
        ("measure", "covariance_kinds", ["q"]),
        ("twin", "covariance_kind", "q"),
        ("twin", "mode_numbers", [0]),
        ("measure", "mode_numbers", [-1, 2]),
        ("twin", "noise_levels", [0.1, 1.5]),
        ("covgrid", "grid_noise", 1.5),
        ("bootstrap", "bootstrap_noise", 1.5),
        ("covgrid", "alpha_grid", [1.0, 0.0]),
        ("measure", "assumed_noise", 1.5),
        ("twin", "evr_threshold", 1.5),
        ("twin", "pce_degree", -1),
        ("covgrid", "grid_modes", 0),
        ("bootstrap", "bootstrap_replicates", 0),
        ("bootstrap", "bootstrap_size", 4),
        # n members hold at most n - 1 modes: the smallest default training
        # size (100) for twin, the largest (400) for covgrid, the one (400)
        # for measure, bootstrap_size (800) for bootstrap.
        ("twin", "mode_numbers", [100]),
        ("covgrid", "grid_modes", 400),
        ("measure", "mode_numbers", [2, 400]),
        ("bootstrap", "mode_numbers", [800]),
        # Counts are integers: no fraction, no bool.
        ("twin", "training_sizes", [16.5]),
        ("measure", "training_sizes", [True, 400]),
        ("twin", "pce_degree", 1.5),
        ("measure", "pce_degree", True),
        ("twin", "mode_numbers", [2.5]),
        ("twin", "mode_numbers", [True]),
        ("covgrid", "grid_modes", 2.0),
        ("bootstrap", "bootstrap_replicates", 1.5),
        ("bootstrap", "bootstrap_size", True),
        # A given truth is 4 finite parameters inside the box.
        ("twin", "x_t", [70.0, 4.6]),
        ("twin", "x_t", [70.0, 4.6, 1.2, float("nan")]),
        ("covgrid", "x_t", ["K2", 4.6, 1.2, 2.2]),
        ("bootstrap", "x_t", [70.0, 4.6, 1.2, 99.0]),
    ],
)
def test_sweep_config_fails_before_sampling_naming_the_field(
    tmp_path, capsys, monkeypatch, command, field, value
) -> None:
    def never(*args, **kwargs):
        raise AssertionError("an ensemble was drawn or fitted")

    monkeypatch.setattr("romda.experiments.fit_pod", never)
    monkeypatch.setattr("romda.toymodel.sample_parameters", never)
    monkeypatch.setattr("romda.toymodel.propagate", never)
    observations = tmp_path / "obs.csv"
    write_observation(observations, np.zeros(toymodel.default_grid().n_state))
    cfg = {field: value, **({"observations_csv": str(observations)} if command == "measure" else {})}
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("command, field, value", [("twin", "mode_numbers", [150]),
                                                   ("covgrid", "grid_modes", 150)])
def test_mode_count_above_the_ensemble_rank_fails_naming_the_field(
    tmp_path, capsys, command, field, value
) -> None:
    # 200 toy members pass the n - 1 check but span only 99 state modes; the
    # rank is known once they are fitted, so the ensemble is propagated.
    cfg = {"training_sizes": [200], field: value, "surrogates": ["podpce"], "noise_levels": [0.1]}
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "numerical rank" in err


def test_stored_pce_family_other_than_legendre_fails_validation(tmp_path, capsys) -> None:
    doc = json.loads((DATA / "podpce_v1.json").read_text())
    doc["pce"]["families"] = ["legendre", "chebyshev"]
    surrogate = tmp_path / "podpce.json"
    surrogate.write_text(json.dumps(doc))
    cfg = {"surrogate": str(surrogate), "observations_csv": str(DATA / "obs_v1.csv"), "noise_level": 0.05}
    assert main(["assimilate", "--config", write_config(tmp_path, "a.json", cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "families" in capsys.readouterr().err


def test_readme_command_block_lists_every_subcommand() -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("romda ")]
    parser = cli._parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(subcommands.choices)
    assert len(listed) == len(set(listed))


def test_every_exported_name_resolves() -> None:
    assert [name for name in romda.__all__ if not hasattr(romda, name)] == []


def test_importing_the_drivers_loads_no_cli() -> None:
    code = "import sys, romda.experiments; print('romda.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(romda.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_import_loads_no_process_pool() -> None:
    # The sweeps import the pool only when they run units in workers.
    code = ("import sys, romda, romda.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing.pool') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(romda.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("error, code, message", [
    (None, EXIT_OK, ""),
    (ModeCountError("injected rank failure"), EXIT_VALIDATION, "error: mode_numbers: injected rank failure"),
    (np.linalg.LinAlgError("injected numerical failure"), EXIT_NUMERICAL,
     "numerical failure: injected numerical failure"),
    (signal.SIGKILL, EXIT_WORKER_LOST, "worker process lost: "),  # the replicate kills its worker
])
def test_bootstrap_in_workers_exits_by_its_replicates_and_leaves_no_process(
    tmp_path, capsys, monkeypatch, error, code, message
) -> None:
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = {"surrogates": ["podpce"], "mode_numbers": [2], "pce_degree": 2,
           "bootstrap_replicates": 3, "bootstrap_size": 40}
    failing = split_seed(substream_seed(5, "bootstrap/2"), 40)
    parent, build = os.getpid(), experiments.build_surrogates

    def build_or_fail(*args, split_seed, **kwargs):
        if error is signal.SIGKILL and split_seed == failing:
            assert os.getpid() != parent, "the replicates must run in workers"
            os.kill(os.getpid(), error)
        if error is not None and split_seed == failing:
            raise error
        return build(*args, split_seed=split_seed, **kwargs)

    monkeypatch.setattr(experiments, "build_surrogates", build_or_fail)
    path = write_config(tmp_path, "bootstrap.json", cfg)
    assert main(["bootstrap", "--config", path, "--seed", "5", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(message)
    assert multiprocessing.active_children() == []
    assert (tmp_path / "out" / "report.csv").exists() == (error is None)


def test_workers_option_and_key_are_rejected(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "twin.json", {"training_sizes": [40]})
    out = str(tmp_path / "out")
    assert main(["twin", "--config", cfg, "--workers", "2", "--out", out]) == EXIT_VALIDATION
    assert "--workers" in capsys.readouterr().err
    cfg = write_config(tmp_path, "workers.json", {"workers": 2})
    assert main(["twin", "--config", cfg, "--out", out]) == EXIT_VALIDATION
    assert "workers" in capsys.readouterr().err


def test_cli_builds_split_members_with_the_driver_seed_rule(chain, tmp_path) -> None:
    n, seed = 40, 5
    out = chain.ensemble(n, 1)
    params = io.read_snapshot_csv(out / "parameters.csv").data
    states = io.read_snapshot_csv(out / "states.csv").data
    bounds = toymodel.PARAMETER_BOUNDS
    assert chain.build(seed, modes=2, max_degree=2) == EXIT_OK
    built, _ = build_surrogates(
        params, states, bounds, ("podpce",), pce_degree=2,
        split_seed=substream_seed(seed, f"split/{n}"), modes=2,
    )
    direct = built["podpce"]
    cli_built = io.load_surrogate(out / "surrogate.json")[0]
    assert np.array_equal(cli_built.pce.coefficients, direct.pce.coefficients)

    # fit-pce splits its members the same way.
    targets = direct.state_basis.coefficients[:, :2]  # (n, 2)
    io.write_snapshot_csv(
        out / "targets.csv",
        SnapshotMatrix(targets.T, ("k1", "k2"), tuple(f"member{j}" for j in range(n))),
    )
    pce = {"parameters_csv": str(out / "parameters.csv"), "targets_csv": str(out / "targets.csv"),
           "bounds": bounds.tolist(), "max_degree": 2}
    argv = ["--seed", str(seed), "--out", str(out)]
    assert main(["fit-pce", "--config", write_config(tmp_path, "p.json", pce), *argv]) == EXIT_OK
    train, val = split_members(n, substream_seed(seed, f"split/{n}"))
    x = params.T
    expected = select_degree(x[train], targets[train], x[val], targets[val], PceConfig(bounds, 2))
    doc = io.load_json(out / "pce_model.json", "pce_model")
    assert np.array_equal(np.array(doc["coefficients"]), expected.coefficients)


@pytest.fixture
def blas_pools(monkeypatch):
    """The bundled OpenBLAS thread controls, each set to 2 threads for the
    test and put back afterwards; no thread count chosen in the environment."""
    pools = experiments._bundled_openblas()
    if not pools:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(2)
    yield pools
    for (_, put), count in zip(pools, before):
        put(count)


def threads(pools):
    return [get() for get, _ in pools]


def recording_command(pools, seen, error=None):
    def command(args, cfg):
        seen.append(threads(pools))
        if error is not None:
            raise error
        return EXIT_OK

    return command


def record_driver_threads(monkeypatch, pools, seen, error=None) -> None:
    """Record the thread counts inside each driver, where it draws its
    training ensemble; then raise ``error``, or draw the ensemble."""
    make_context = experiments._make_context

    def recording(*args):
        seen.append(threads(pools))
        if error is not None:
            raise error
        return make_context(*args)

    monkeypatch.setattr(experiments, "_make_context", recording)


# The smallest sweep of each command: 16 members, one mode, one unit.
TINY_SWEEPS = {
    "twin": {"training_sizes": [16], "mode_numbers": [1], "noise_levels": [0.1], "surrogates": ["poden"]},
    "covgrid": {"training_sizes": [16], "grid_modes": 1, "alpha_grid": [1.0], "pce_degree": 1},
    "bootstrap": {"bootstrap_replicates": 1, "bootstrap_size": 16, "mode_numbers": [1],
                  "surrogates": ["poden"]},
    "measure": {"training_sizes": [16], "mode_numbers": [1], "surrogates": ["poden"],
                "covariance_kinds": ["r"]},
}


def tiny_sweep(tmp_path, command: str) -> list[str]:
    """Arguments of ``command`` run on its TINY_SWEEPS config."""
    cfg = dict(TINY_SWEEPS[command])
    if command == "measure":
        write_observation(tmp_path / "obs.csv", toymodel.simulate([70.0, 4.6, 1.2, 2.2]))
        cfg["observations_csv"] = str(tmp_path / "obs.csv")
    return [command, "--config", write_config(tmp_path, "tiny.json", cfg), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "error, code",
    [(None, EXIT_OK), (ValueError("bad field"), EXIT_VALIDATION), (RuntimeError("nan"), EXIT_NUMERICAL)],
)
@pytest.mark.parametrize("command", ["twin", "covgrid", "bootstrap", "measure"])
def test_sweep_runs_on_one_blas_thread_and_restores_count(
    blas_pools, monkeypatch, tmp_path, command, error, code
) -> None:
    # The driver, not the CLI, enters the one-thread scope.
    previous = threads(blas_pools)
    seen = []
    record_driver_threads(monkeypatch, blas_pools, seen, error)
    assert main(tiny_sweep(tmp_path, command)) == code
    assert seen == [[1] * len(blas_pools)]
    assert threads(blas_pools) == previous


def test_library_twin_call_runs_on_one_blas_thread(blas_pools, monkeypatch) -> None:
    seen = []
    record_driver_threads(monkeypatch, blas_pools, seen)
    config = experiments.TwinConfig(seed=3, **{k: tuple(v) for k, v in TINY_SWEEPS["twin"].items()})
    assert len(experiments.run_twin(config).rows) == 1
    assert seen == [[1] * len(blas_pools)]
    assert threads(blas_pools) == [2] * len(blas_pools)


@pytest.mark.parametrize("command", ["sample", "fit-pod", "build-surrogate", "assimilate"])
def test_other_commands_leave_blas_threads_alone(blas_pools, monkeypatch, tmp_path, command) -> None:
    previous = threads(blas_pools)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, recording_command(blas_pools, seen))
    assert main([command, "--out", str(tmp_path)]) == EXIT_OK
    assert seen == [previous]
    assert threads(blas_pools) == previous


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_blas_threads_left_alone_when_chosen_in_environment(
    blas_pools, monkeypatch, tmp_path, variable
) -> None:
    monkeypatch.setenv(variable, "2")
    previous = threads(blas_pools)
    seen = []
    record_driver_threads(monkeypatch, blas_pools, seen)
    assert main(tiny_sweep(tmp_path, "twin")) == EXIT_OK
    assert seen == [previous]
    assert threads(blas_pools) == previous


def test_sweep_runs_without_a_bundled_openblas(monkeypatch, tmp_path) -> None:
    monkeypatch.setattr(experiments, "_bundled_openblas", lambda: [])
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    seen = []
    record_driver_threads(monkeypatch, [], seen)
    assert main(tiny_sweep(tmp_path, "twin")) == EXIT_OK
    assert seen == [[]]
