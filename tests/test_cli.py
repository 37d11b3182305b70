import json

import numpy as np

from romda import io, toymodel
from romda.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from romda.pce import PceConfig, select_degree, split_members
from romda.pod import SnapshotMatrix
from romda.rng import substream_seed
from romda.surrogate import build_podpce


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_unknown_subcommand_fails_validation(capsys) -> None:
    assert main(["frobnicate"]) == EXIT_VALIDATION


def test_sample_then_simulate_pipeline(tmp_path) -> None:
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "sample.json", {"n": 12})
    assert main(["sample", "--config", cfg, "--seed", "3", "--out", str(out)]) == EXIT_OK
    params_csv = out / "parameters.csv"
    assert params_csv.exists()
    assert (out / "config_used.json").exists()

    sim_cfg = write_config(tmp_path, "sim.json", {"parameters_csv": str(params_csv)})
    assert main(["simulate", "--config", sim_cfg, "--seed", "3", "--out", str(out)]) == EXIT_OK
    states = io.read_snapshot_csv(out / "states.csv")
    assert states.data.shape == (570, 12)
    params = io.read_snapshot_csv(params_csv)
    assert np.array_equal(states.data[:, 0], toymodel.simulate(params.data[:, 0]))


def test_unknown_config_key_rejected(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "bad.json", {"n": 5, "banana": 1})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "banana" in capsys.readouterr().err


def test_fit_pod_and_surrogate_pipeline(tmp_path) -> None:
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "sample.json", {"n": 40})
    main(["sample", "--config", cfg, "--seed", "7", "--out", str(out)])
    sim_cfg = write_config(tmp_path, "sim.json", {"parameters_csv": str(out / "parameters.csv")})
    main(["simulate", "--config", sim_cfg, "--seed", "7", "--out", str(out)])

    pod_cfg = write_config(
        tmp_path, "pod.json", {"states_csv": str(out / "states.csv"), "evr_threshold": 0.95}
    )
    assert main(["fit-pod", "--config", pod_cfg, "--seed", "7", "--out", str(out)]) == EXIT_OK
    basis = io.load_pod_basis(out / "pod_basis.json")
    assert basis.retained >= 1

    surr_cfg = write_config(
        tmp_path,
        "surr.json",
        {
            "kind": "podpce",
            "parameters_csv": str(out / "parameters.csv"),
            "states_csv": str(out / "states.csv"),
            "modes": 2,
            "max_degree": 2,
            "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
        },
    )
    assert main(["build-surrogate", "--config", surr_cfg, "--seed", "7", "--out", str(out)]) == EXIT_OK
    surrogate = io.load_podpce(out / "surrogate.json")
    assert surrogate.d == 2


def test_assimilate_command_and_noise_zero_validation(tmp_path, capsys) -> None:
    out = tmp_path / "out"
    main(["sample", "--config", write_config(tmp_path, "s.json", {"n": 40}), "--seed", "1", "--out", str(out)])
    main(
        [
            "simulate",
            "--config",
            write_config(tmp_path, "m.json", {"parameters_csv": str(out / "parameters.csv")}),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    main(
        [
            "build-surrogate",
            "--config",
            write_config(
                tmp_path,
                "b.json",
                {
                    "kind": "podpce",
                    "parameters_csv": str(out / "parameters.csv"),
                    "states_csv": str(out / "states.csv"),
                    "modes": 2,
                    "max_degree": 2,
                    "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
                },
            ),
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    # Single-member observation file from a fresh simulation.
    x_obs = np.array([60.0, 5.2, 1.0, 2.0])
    from romda.pod import SnapshotMatrix

    obs = SnapshotMatrix(
        data=toymodel.simulate(x_obs)[:, None],
        row_labels=tuple(f"c{i}" for i in range(570)),
        member_ids=("obs",),
    )
    io.write_snapshot_csv(out / "obs.csv", obs)

    base = {
        "kind": "podpce",
        "surrogate": str(out / "surrogate.json"),
        "observations_csv": str(out / "obs.csv"),
        "covariance": "r_tilde",
        "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
        "x_b": list(toymodel.PARAMETER_MEANS),
    }
    ok_cfg = write_config(tmp_path, "assim.json", {**base, "noise_level": 0.05})
    assert main(["assimilate", "--config", ok_cfg, "--seed", "1", "--out", str(out)]) == EXIT_OK
    doc = io.load_json(out / "analysis.json", "analysis")
    assert len(doc["x_a"]) == 4

    zero_cfg = write_config(tmp_path, "assim0.json", {**base, "noise_level": 0.0})
    assert main(["assimilate", "--config", zero_cfg, "--seed", "1", "--out", str(out)]) == EXIT_VALIDATION
    assert "observation covariance must be positive definite" in capsys.readouterr().err


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
    out = tmp_path / "out"
    # Rank-one joint ensemble with 3 retained modes: the reduced normal
    # matrix is singular and the closed-form analysis must fail numerically.
    rng = np.random.default_rng(0)
    from romda.pod import SnapshotMatrix

    g = rng.standard_normal(30)
    params = np.outer(np.array([1.0, -2.0]), g) + np.array([[5.0], [3.0]])
    states = np.outer(rng.standard_normal(4), g)
    out.mkdir(parents=True)
    io.write_snapshot_csv(
        out / "params.csv",
        SnapshotMatrix(params, ("a", "b"), tuple(f"m{j}" for j in range(30))),
    )
    io.write_snapshot_csv(
        out / "states.csv",
        SnapshotMatrix(states, ("s0", "s1", "s2", "s3"), tuple(f"m{j}" for j in range(30))),
    )
    build_cfg = write_config(
        tmp_path,
        "b.json",
        {
            "kind": "poden",
            "parameters_csv": str(out / "params.csv"),
            "states_csv": str(out / "states.csv"),
            "modes": 3,
        },
    )
    assert main(["build-surrogate", "--config", build_cfg, "--out", str(out)]) == EXIT_OK
    obs = SnapshotMatrix(states[:, :1], ("s0", "s1", "s2", "s3"), ("obs",))
    io.write_snapshot_csv(out / "obs.csv", obs)
    assim_cfg = write_config(
        tmp_path,
        "a.json",
        {
            "kind": "poden",
            "surrogate": str(out / "surrogate.json"),
            "observations_csv": str(out / "obs.csv"),
            "noise_level": 0.1,
            "x_b": [5.0, 3.0],
            "bounds": [[-100.0, 100.0], [-100.0, 100.0]],
        },
    )
    assert main(["assimilate", "--config", assim_cfg, "--out", str(out)]) == EXIT_NUMERICAL
    assert "smaller d" in capsys.readouterr().err


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


def test_workers_option_and_key_are_rejected(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "twin.json", {"training_sizes": [40]})
    out = str(tmp_path / "out")
    assert main(["twin", "--config", cfg, "--workers", "2", "--out", out]) == EXIT_VALIDATION
    assert "--workers" in capsys.readouterr().err
    cfg = write_config(tmp_path, "workers.json", {"workers": 2})
    assert main(["twin", "--config", cfg, "--out", out]) == EXIT_VALIDATION
    assert "workers" in capsys.readouterr().err


def test_cli_builds_split_members_with_the_driver_seed_rule(tmp_path) -> None:
    out = tmp_path / "out"
    n, seed = 40, 5
    main(["sample", "--config", write_config(tmp_path, "s.json", {"n": n}), "--seed", "1", "--out", str(out)])
    sim = write_config(tmp_path, "m.json", {"parameters_csv": str(out / "parameters.csv")})
    main(["simulate", "--config", sim, "--out", str(out)])
    params = io.read_snapshot_csv(out / "parameters.csv").data
    states = io.read_snapshot_csv(out / "states.csv").data
    bounds = toymodel.PARAMETER_BOUNDS
    surr = {
        "kind": "podpce",
        "parameters_csv": str(out / "parameters.csv"),
        "states_csv": str(out / "states.csv"),
        "modes": 2,
        "max_degree": 2,
        "bounds": bounds.tolist(),
    }
    argv = ["--seed", str(seed), "--out", str(out)]
    assert main(["build-surrogate", "--config", write_config(tmp_path, "b.json", surr), *argv]) == EXIT_OK
    direct = build_podpce(
        params, states, PceConfig(bounds, 2), split_seed=substream_seed(seed, f"split/{n}"), modes=2
    )
    assert np.array_equal(io.load_podpce(out / "surrogate.json").pce.coefficients, direct.pce.coefficients)

    # fit-pce splits its members the same way.
    targets = direct.state_basis.coefficients[:, :2]  # (n, 2)
    io.write_snapshot_csv(
        out / "targets.csv",
        SnapshotMatrix(targets.T, ("k1", "k2"), tuple(f"member{j}" for j in range(n))),
    )
    pce = {"parameters_csv": str(out / "parameters.csv"), "targets_csv": str(out / "targets.csv"),
           "bounds": bounds.tolist(), "max_degree": 2}
    assert main(["fit-pce", "--config", write_config(tmp_path, "p.json", pce), *argv]) == EXIT_OK
    train, val = split_members(n, substream_seed(seed, f"split/{n}"))
    x = params.T
    expected = select_degree(x[train], targets[train], x[val], targets[val], PceConfig(bounds, 2))
    assert np.array_equal(io.load_pce_model(out / "pce_model.json").coefficients, expected.coefficients)
