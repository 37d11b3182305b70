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
from romda import cli, experiments, io, rng, toymodel
from romda.assimilate import pose_problem, solve_poden3dvar, solve_podpce3dvar
from romda.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, EXIT_WORKER_LOST, main
from romda.experiments import build_surrogates, measurement_noise_diag
from romda.pod import ModeCountError, PodBasis, SnapshotMatrix, evr, fit_pod, truncate
from romda.rng import split_seed, substream_seed
from romda.surrogate import PodEnSurrogate, Scaling, Standardizer

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


def test_fit_pod_and_surrogate_pipeline(chain, capsys) -> None:
    out = chain.ensemble(40, 7)
    capsys.readouterr()
    assert chain.build(7, evr_threshold=0.95, max_degree=2) == EXIT_OK
    # The document holds the POD of the CSV's standardized states, field for
    # field, and the summary line prints d, its EVR and the PCE degrees.
    surrogate, scaling = io.load_surrogate(out / "surrogate.json")
    states = io.read_snapshot_csv(out / "states.csv").data
    expected = truncate(fit_pod(scaling.states.transform(states)), evr_threshold=0.95)
    assert surrogate.d == expected.retained >= 1
    for name in ("mean", "modes", "singular_values", "coefficients"):
        assert np.array_equal(getattr(surrogate.state_basis, name), getattr(expected, name))
    assert np.array_equal(scaling.bounds, toymodel.PARAMETER_BOUNDS)
    assert capsys.readouterr().out == (
        f"build-surrogate[podpce]: d={expected.retained} (EVR {evr(expected, expected.retained):.6f}), "
        f"degrees {surrogate.pce.selected_degrees} -> {out / 'surrogate.json'}\n"
    )


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
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["schema"] == io.SCHEMAS["analysis"]
    assert len(doc["x_a"]) == 4

    assert chain.run("assimilate", {**base, "noise_level": 0.0}, 1) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: noise_level: ") and "observation covariance is positive definite" in err


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
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["schema"] == io.SCHEMAS["analysis"]
    x_a = np.array(doc["x_a"])
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
    assert (f"error: states_csv: snapshot CSV {out / 'states.csv'}: row {states.row_labels[3]!r}, "
            f"member {states.member_ids[2]!r} is nan, not a finite number\n") in capsys.readouterr().err


def test_poden_build_rejects_max_degree(chain, capsys) -> None:
    out = chain.ensemble(12, 3)
    assert chain.build(3, kind="poden", modes=2, max_degree=7) == EXIT_VALIDATION
    assert "max_degree" in capsys.readouterr().err
    assert not (out / "surrogate.json").exists()
    assert chain.build(3, kind="poden", modes=2) == EXIT_OK
    assert chain.build(3, kind="podpce", modes=2, max_degree=1) == EXIT_OK
    assert max(io.load_surrogate(out / "surrogate.json")[0].pce.selected_degrees) <= 1


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("sample", "n", 40.9),
        ("sample", "n", True),
        ("build-surrogate", "modes", 3.9),
        ("build-surrogate", "max_degree", 2.7),
        ("build-surrogate", "max_degree", True),
    ],
)
def test_non_sweep_commands_reject_non_integer_counts(chain, capsys, command, key, value) -> None:
    # Each count is checked by the sweeps' rule before anything is written,
    # instead of being truncated (40.9 members to 40, True to 1).
    out = chain.ensemble(12, 3)
    inputs = {
        "sample": {},
        "build-surrogate": {"kind": "podpce", "parameters_csv": str(out / "parameters.csv"),
                            "states_csv": str(out / "states.csv"),
                            "bounds": toymodel.PARAMETER_BOUNDS.tolist(), "modes": 2},
    }[command]
    capsys.readouterr()
    assert chain.run(command, {**inputs, key: value}, 3) == EXIT_VALIDATION
    assert f"error: {key}: counts must be integers, got {value!r}" in capsys.readouterr().err


class SmallDocs:
    """podpce-surrogate/2 and poden-surrogate/2 documents fitted on 24
    members of a 2-parameter, 4-component model in the box [0, 1] x [2, 3],
    and one 4-entry observation of it, all written to ``tmp_path``."""

    def __init__(self, tmp_path):
        rng = np.random.default_rng(0)
        bounds = np.array([[0.0, 1.0], [2.0, 3.0]])
        params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(24, 2)).T
        built, scaling = build_surrogates(params, self.model(params), bounds, ("podpce", "poden"),
                                          pce_degree=2, split_seed=1, modes=2)
        self.paths = {kind: tmp_path / f"{kind}.json" for kind in built}
        for kind, surrogate in built.items():
            io.save_surrogate(self.paths[kind], surrogate, scaling)
        self.obs = tmp_path / "obs.csv"
        write_observation(self.obs, self.model(np.array([[0.5], [2.5]]))[:, 0])

    @staticmethod
    def model(params):
        return np.vstack([np.sin(params[0]), params[1] ** 2, params[0] * params[1], params[0] + params[1]])

    def doc(self, kind: str) -> dict:
        return json.loads(self.paths[kind].read_text())

    def assimilate(self, kind: str = "podpce", **keys) -> dict:
        """An assimilate config on the ``kind`` document and the observation, plus ``keys``."""
        return {"surrogate": str(self.paths[kind]), "observations_csv": str(self.obs),
                "noise_level": 0.05, "x_b": [0.5, 2.5], **keys}


@pytest.fixture
def docs(tmp_path):
    return SmallDocs(tmp_path)


def input_configs(docs) -> dict:
    """A valid config of each command that reads a file, up to the file keys
    that a test sets; the keys read first name readable files."""
    csv = str(docs.obs)
    return {
        "simulate": {},
        "build-surrogate": {"kind": "podpce", "parameters_csv": csv, "states_csv": csv,
                            "bounds": [[0.0, 1.0]], "evr_threshold": 0.9},
        "assimilate": docs.assimilate(),
        "measure": {},
    }


FILE_KEYS = [
    ("simulate", "parameters_csv"),
    ("build-surrogate", "parameters_csv"),
    ("build-surrogate", "states_csv"),
    ("assimilate", "surrogate"),
    ("assimilate", "observations_csv"),
    ("measure", "observations_csv"),
]


@pytest.mark.parametrize("command, key", FILE_KEYS)
def test_a_missing_input_file_fails_by_its_config_key(docs, tmp_path, capsys, command, key) -> None:
    cfg = input_configs(docs)[command]
    missing = str(tmp_path / "missing.csv")
    path = write_config(tmp_path, "cfg.json", {**cfg, key: missing})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {key}: cannot read {missing}: No such file or directory\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [None, True, 2.5, []], ids=["null", "true", "2.5", "empty-list"])
@pytest.mark.parametrize("command, key", FILE_KEYS)
def test_a_file_key_that_is_no_path_fails_by_its_config_key(docs, tmp_path, capsys, command, key,
                                                            value) -> None:
    path = write_config(tmp_path, "cfg.json", {**input_configs(docs)[command], key: value})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {key}: need a file path, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", [(c, k) for c, k in FILE_KEYS if k.endswith("_csv")])
def test_a_non_finite_csv_entry_fails_by_its_config_key(docs, tmp_path, capsys, command, key, entry) -> None:
    # Named where it is read, not later as a non-finite snapshot or covariance.
    bad = tmp_path / "bad.csv"
    write_observation(bad, np.array([1.0, entry, 1.0, 1.0]))
    path = write_config(tmp_path, "cfg.json", {**input_configs(docs)[command], key: str(bad)})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {key}: snapshot CSV {bad}: row 'c1', member 'obs' is {entry}, not a finite number\n")
    assert not out.exists()


def test_a_surrogate_document_without_its_member_count_fails_by_the_key(docs, tmp_path, capsys) -> None:
    doc = docs.doc("podpce")
    del doc["n_members"]
    surrogate = write_config(tmp_path, "no_n_members.json", doc)
    path = write_config(tmp_path, "cfg.json", docs.assimilate(surrogate=surrogate))
    out = tmp_path / "out"
    assert main(["assimilate", "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: surrogate: {surrogate} has no field 'n_members'\n"
    assert not out.exists()


def test_a_numerical_failure_while_reading_stays_one(docs, tmp_path, capsys, monkeypatch) -> None:
    def singular(path):
        raise np.linalg.LinAlgError("injected numerical failure")

    monkeypatch.setattr(io, "load_surrogate", singular)
    path = write_config(tmp_path, "cfg.json", docs.assimilate())
    assert main(["assimilate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: injected numerical failure\n"


@pytest.mark.parametrize("command, field, value", [
    ("assimilate", "alpha_r", "x"),
    ("assimilate", "alpha_b", -1),
    ("assimilate", "alpha_b", True),
    ("assimilate", "x_b", [0.5]),
    ("assimilate", "background_diag", [1.0, 1.0, 1.0]),
    ("assimilate", "background_diag", [1.0, 0.0]),
    ("assimilate", "x_b", [0.5, 3.5]),
    ("assimilate", "noise_level", True),
    ("assimilate", "noise_level", 1.5),
    ("assimilate", "r_diag", [0.1, float("nan"), 0.1, 0.1]),
    ("assimilate", "r_diag", [0.1, 0.1]),
    ("build-surrogate", "evr_threshold", True),
    ("build-surrogate", "evr_threshold", 1.5),
    ("build-surrogate", "evr_threshold", "abc"),
    ("build-surrogate", "kind", None),
])
def test_non_sweep_commands_name_the_field_they_reject(docs, tmp_path, capsys, command, field, value) -> None:
    path = write_config(tmp_path, "cfg.json", {**input_configs(docs)[command], field: value})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    ({"r_diag": [0.1] * 4}, "noise_level: the observation covariance takes noise_level or r_diag, not both"),
    ({"r_diag": [0.1] * 4, "noise_level": "x"},
     "noise_level: the observation covariance takes noise_level or r_diag, not both"),
    # The box is [0, 1] x [2, 3] in physical units, [-1, 1] x [-1, 1] standardized.
    ({"x_b": [0.5, 3.5]}, "x_b: entry 1 (3.5) lies outside the parameter bounds [2, 3]"),
], ids=["r_diag-and-noise_level", "r_diag-and-bad-noise_level", "x_b-outside-the-box"])
def test_assimilate_rejects_its_background_and_noise_keys_in_physical_terms(
    docs, tmp_path, capsys, keys, message
) -> None:
    path = write_config(tmp_path, "cfg.json", docs.assimilate(**keys))
    out = tmp_path / "out"
    assert main(["assimilate", "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, m_y", [("assimilate", 4), ("measure", toymodel.default_grid().n_state)])
def test_observations_of_the_wrong_length_fail_naming_the_key(docs, tmp_path, capsys, command, m_y) -> None:
    # The surrogate's state count for assimilate, the toy layout for measure.
    short = tmp_path / "short.csv"
    write_observation(short, np.zeros(5))
    path = write_config(tmp_path, "cfg.json", {**input_configs(docs)[command], "observations_csv": str(short)})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: observations_csv: need {m_y} entries, one per state component, got 5\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, covariance, message", [
    ("podpce", "q", "kind must be one of"),
    ("poden", "r_tilde", "'r_tilde' needs a POD-PCE surrogate"),
], ids=["podpce-q", "poden-r_tilde"])
def test_assimilate_names_the_covariance_it_cannot_pose(docs, tmp_path, capsys, kind, covariance,
                                                        message) -> None:
    cfg = docs.assimilate(kind, covariance=covariance)
    out = tmp_path / "out"
    assert main(["assimilate", "--config", write_config(tmp_path, "cfg.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: covariance: ") and message in err
    assert not out.exists()


def test_an_rtilde_that_cannot_be_whitened_fails_before_any_output(chain, tmp_path, capsys) -> None:
    out = chain.ensemble(40, 1)
    assert chain.build(1, modes=2, max_degree=2) == EXIT_OK
    doc = json.loads((out / "surrogate.json").read_text())
    doc["pce"]["empirical_errors"][0] = -1.0  # a tampered learning error
    (tmp_path / "tampered.json").write_text(json.dumps(doc))
    write_observation(out / "obs.csv", toymodel.simulate(np.array([60.0, 5.2, 1.0, 2.0])))
    cfg = {"surrogate": str(tmp_path / "tampered.json"), "observations_csv": str(out / "obs.csv"),
           "noise_level": 0.05, "covariance": "r_tilde"}
    run = tmp_path / "run"
    assert main(["assimilate", "--config", write_config(tmp_path, "cfg.json", cfg),
                 "--out", str(run)]) == EXIT_VALIDATION
    assert "observation covariance weights must be finite and nonnegative" in capsys.readouterr().err
    assert not (run / "config_used.json").exists()


@pytest.mark.parametrize("rows, message", [
    (4, "member 0: parameter K2=5 outside bounds"),
    (3, "expected rows of 4 parameters"),
])
def test_simulate_checks_the_box_before_it_writes(tmp_path, capsys, rows, message) -> None:
    params = toymodel.PARAMETER_MEANS.copy()
    params[0] = 5.0  # K2 below its bound
    csv = tmp_path / "parameters.csv"
    labels = toymodel.PARAMETER_NAMES[:rows]
    io.write_snapshot_csv(csv, SnapshotMatrix(params[:rows, None], labels, ("m0",)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, "cfg.json", {"parameters_csv": str(csv)}),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: parameters_csv: {message}")
    assert not out.exists()


def test_simulate_rejects_a_row_narrower_than_the_header(tmp_path, capsys) -> None:
    # The header names 3 members over rows of 2 values.
    csv = tmp_path / "parameters.csv"
    names, means = toymodel.PARAMETER_NAMES, toymodel.PARAMETER_MEANS
    csv.write_text("label,m0,m1,m2\n" + "".join(f"{name},{mean},{mean}\n" for name, mean in zip(names, means)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, "cfg.json", {"parameters_csv": str(csv)}),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: parameters_csv: snapshot CSV {csv}: row '{names[0]}' has 2 entries, the header names 3 members\n")
    assert not out.exists()


def test_assimilate_refuses_a_v1_surrogate_document(docs, tmp_path, capsys) -> None:
    # A /1 document stores no scaling; only /2 documents are read.
    doc = docs.doc("podpce")
    doc["schema"] = "podpce-surrogate/1"
    doc["parameter_bounds"] = doc.pop("scaling")["bounds"]
    surrogate = write_config(tmp_path, "podpce_v1.json", doc)
    out = tmp_path / "out"
    assert main(["assimilate", "--config", write_config(tmp_path, "a.json", docs.assimilate(surrogate=surrogate)),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: surrogate: schema mismatch in {surrogate}: found 'podpce-surrogate/1', "
        "expected one of ['poden-surrogate/2', 'podpce-surrogate/2']\n"
    )
    assert not out.exists()


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
    assert err.startswith("error: modes: ")
    assert "[1, 11]" in err and "numerical rank" in err and "got 12" in err
    assert not (out / "surrogate.json").exists()
    assert chain.build(3, kind=kind, modes=11) == EXIT_OK


@pytest.mark.parametrize("members, keys, message", [
    (20, {"bounds": [[1.0, 0.0]]}, "error: bounds: "),
    (20, {"bounds": [[21.02, 90.66], [4.0, 6.0], [1.3, 0.8], [0.8, 3.0]]}, "error: bounds: "),
    (20, {"bounds": [[21.02, 90.66], [4.0, 6.0], [0.8, 1.3], [0.8, float("inf")]]}, "error: bounds: "),
    (20, {"bounds": {}}, "error: bounds: "),
    (20, {"bounds": "x"}, "error: bounds: "),
    (20, {"bounds": [[False, 3.0], [4.0, 6.0], [0.8, 1.3], [0.8, 3.0]]}, "error: bounds: "),
    (20, {"bounds": [["21.02", 90.66], [4.0, 6.0], [0.8, 1.3], [0.8, 3.0]]}, "error: bounds: "),
    (20, {"modes": 500}, "error: modes: "),
    (3, {}, "error: parameters_csv: need at least 4 members"),
    (20, {"max_degree": 13}, "error: max_degree: degree must be at most 12 for 4 inputs"),
    (1, {"kind": "poden", "modes": 1}, "error: parameters_csv: need at least 2 members for a poden"),
    (20, {"bounds": [[50.0, 90.66], [4.0, 6.0], [0.8, 1.3], [0.8, 3.0]]},
     "error: parameters_csv: sample "),
], ids=["one-row", "reversed-row", "infinite", "object", "text", "bool-entry", "text-entry",
        "modes-above-rank", "three-members", "degree-above-cap", "one-poden-member", "member-outside-box"])
def test_build_surrogate_computes_before_it_writes(chain, tmp_path, capsys, members, keys, message) -> None:
    # The ensemble lives in chain.out; the build writes into a fresh directory.
    chain.ensemble(members, 3)
    cfg = {"kind": "podpce", "parameters_csv": str(chain.out / "parameters.csv"),
           "states_csv": str(chain.out / "states.csv"), "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
           "modes": 2, **keys}
    out = tmp_path / "build"
    capsys.readouterr()
    assert main(["build-surrogate", "--config", write_config(tmp_path, "b.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_build_surrogate_names_states_of_another_member_count(chain, tmp_path, capsys) -> None:
    chain.ensemble(12, 3)
    params = str(chain.out / "parameters.csv")
    chain.out = tmp_path / "other"
    chain.ensemble(20, 3)
    cfg = {"kind": "poden", "parameters_csv": params, "states_csv": str(chain.out / "states.csv"),
           "bounds": toymodel.PARAMETER_BOUNDS.tolist(), "modes": 2}
    out = tmp_path / "build"
    capsys.readouterr()
    assert main(["build-surrogate", "--config", write_config(tmp_path, "b.json", cfg),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: states_csv: 20 members, parameters_csv has 12\n"
    assert not out.exists()


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
        # Float fields take finite numbers: no bool, no infinity, no text.
        ("measure", "assumed_noise", True),
        ("covgrid", "alpha_grid", [1.0, float("inf")]),
        ("covgrid", "alpha_grid", [True]),
        ("covgrid", "alpha_grid", ["1.0"]),
        ("twin", "evr_threshold", True),
        ("measure", "evr_threshold", float("nan")),
        ("twin", "noise_levels", [True]),
        # List fields take distinct entries.
        ("twin", "noise_levels", [0.1, 0.1]),
        ("covgrid", "alpha_grid", [1.0, 10.0, 1.0]),
        ("bootstrap", "surrogates", ["podpce", "podpce"]),
        ("measure", "mode_numbers", [2, 2, 1]),
        ("measure", "covariance_kinds", ["r", "r"]),
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


BOTH = {"mode_numbers": [5], "evr_threshold": 0.9}
NOT_BOTH = "evr_threshold: set evr_threshold or mode_numbers, not both"
DEGREE_CAP = "pce_degree: degree must be at most 12 for 4 inputs (a basis of at most 2000 terms), got"


@pytest.mark.parametrize("command, cfg, message", [
    # A list field takes a list: no bool, number or text (whose characters
    # would be read as entries), and null only where the field may be None.
    ("twin", {"noise_levels": True}, "noise_levels: need a list, got True"),
    ("covgrid", {"alpha_grid": 1.0}, "alpha_grid: need a list, got 1.0"),
    ("twin", {"surrogates": "podpce"}, "surrogates: need a list, got 'podpce'"),
    ("measure", {"covariance_kinds": "r"}, "covariance_kinds: need a list, got 'r'"),
    ("measure", {"mode_numbers": 5}, "mode_numbers: need a list, got 5"),
    ("bootstrap", {"training_sizes": {}}, "training_sizes: need a list, got {}"),
    ("covgrid", {"mode_numbers": None, "training_sizes": None}, "training_sizes: need a list, got None"),
    ("twin", {"x_t": 70.0}, "x_t: need a list, got 70.0"),
    # mode_numbers or a non-null evr_threshold, not both: with both, the
    # mode numbers would be ignored for the EVR rank.
    *((command, BOTH, NOT_BOTH) for command in cli._SWEEPS),
    ("measure", {"mode_numbers": [], "evr_threshold": 0.9}, NOT_BOTH),
    # The degree cap bounds the basis at 2000 terms: degree 12 for 4 inputs.
    ("twin", {"pce_degree": 13}, f"{DEGREE_CAP} 13"),
    ("measure", {"pce_degree": 14}, f"{DEGREE_CAP} 14"),
])
def test_sweep_config_fails_alike_from_the_library_and_the_cli(
    tmp_path, capsys, monkeypatch, command, cfg, message
) -> None:
    def never(*args, **kwargs):
        raise AssertionError("an ensemble was drawn")

    monkeypatch.setattr("romda.toymodel.sample_parameters", never)
    with pytest.raises(ValueError) as raised:
        cli._SWEEPS[command].config_type(**cfg)
    assert str(raised.value) == message
    observations = tmp_path / "obs.csv"
    write_observation(observations, np.zeros(toymodel.default_grid().n_state))
    extra = {"observations_csv": str(observations)} if command == "measure" else {}
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, "cfg.json", {**cfg, **extra}),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, field, value, sizes, message", [
    # 200 toy members pass the n - 1 check but span only 99 state modes; the
    # rank is known once they are fitted, so the ensemble is propagated.
    pytest.param("twin", "mode_numbers", [150], {"training_sizes": [200]}, "numerical rank",
                 id="twin-mode_numbers-value0"),
    pytest.param("covgrid", "grid_modes", 150, {"training_sizes": [200]}, "numerical rank",
                 id="covgrid-grid_modes-150"),
    # n members hold at most n - 1 modes, which each driver checks first.
    pytest.param("twin", "mode_numbers", [100], {"training_sizes": [100]},
                 "100 members hold at most 99 modes", id="twin-n"),
    pytest.param("covgrid", "grid_modes", 40, {"training_sizes": [40]},
                 "40 members hold at most 39 modes", id="covgrid-n"),
    pytest.param("bootstrap", "mode_numbers", [16], {"bootstrap_size": 16, "bootstrap_replicates": 1},
                 "16 members hold at most 15 modes", id="bootstrap-n"),
])
def test_mode_count_above_the_ensemble_rank_fails_naming_the_field(
    tmp_path, capsys, command, field, value, sizes, message
) -> None:
    cfg = {**sizes, field: value, "surrogates": ["podpce"], "noise_levels": [0.1]}
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert message in err
    assert not (tmp_path / "out").exists()


def test_stored_pce_family_other_than_legendre_fails_validation(docs, tmp_path, capsys) -> None:
    doc = docs.doc("podpce")
    doc["pce"]["families"] = ["legendre", "chebyshev"]
    cfg = docs.assimilate(surrogate=write_config(tmp_path, "chebyshev.json", doc))
    assert main(["assimilate", "--config", write_config(tmp_path, "a.json", cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "families" in capsys.readouterr().err


def test_readme_command_block_lists_every_subcommand() -> None:
    # The README's command block names each command of the CLI's table once,
    # in its order, and nothing else.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("romda ")]
    assert listed == list(cli._COMMANDS)


def test_importing_the_package_loads_no_module_of_it_and_no_scipy() -> None:
    # The library API is imported from its modules.
    code = "import sys, romda; print(sorted(m for m in sys.modules if m.startswith(('romda.', 'scipy'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(romda.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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


# A pooled sweep's unit build succeeds, raises or kills its worker.
UNIT_FAILURES = pytest.mark.parametrize("error, code, message", [
    (None, EXIT_OK, ""),
    (ModeCountError("injected rank failure"), EXIT_VALIDATION, "error: mode_numbers: injected rank failure"),
    (np.linalg.LinAlgError("injected numerical failure"), EXIT_NUMERICAL,
     "numerical failure: injected numerical failure"),
    (signal.SIGKILL, EXIT_WORKER_LOST, "worker process lost: "),
])


def _exits_by_its_units(tmp_path, capsys, monkeypatch, command, cfg, failing, error, code, message) -> None:
    """Run ``command`` on two CPUs with the build of split seed ``failing``
    failing by ``error``: it exits ``code`` with ``message``, leaves no
    child process, and writes ``--out`` only on success."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, build = os.getpid(), experiments.build_surrogates

    def build_or_fail(*args, split_seed, **kwargs):
        if error is signal.SIGKILL and split_seed == failing:
            assert os.getpid() != parent, f"the {command} units must build in workers"
            os.kill(os.getpid(), error)
        if error is not None and split_seed == failing:
            raise error
        return build(*args, split_seed=split_seed, **kwargs)

    monkeypatch.setattr(experiments, "build_surrogates", build_or_fail)
    path = write_config(tmp_path, f"{command}.json", cfg)
    assert main([command, "--config", path, "--seed", "5", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(message)
    assert multiprocessing.active_children() == []
    assert (tmp_path / "out").exists() == (error is None)


@UNIT_FAILURES
def test_bootstrap_in_workers_exits_by_its_replicates_and_leaves_no_process(
    tmp_path, capsys, monkeypatch, error, code, message
) -> None:
    cfg = {"surrogates": ["podpce"], "mode_numbers": [2], "pce_degree": 2,
           "bootstrap_replicates": 3, "bootstrap_size": 40}
    failing = split_seed(substream_seed(5, "bootstrap/2"), 40)  # the third replicate
    _exits_by_its_units(tmp_path, capsys, monkeypatch, "bootstrap", cfg, failing, error, code, message)


@UNIT_FAILURES
def test_twin_in_workers_exits_by_its_training_sizes_and_leaves_no_process(
    tmp_path, capsys, monkeypatch, error, code, message
) -> None:
    cfg = {"surrogates": ["podpce"], "mode_numbers": [2], "pce_degree": 2,
           "noise_levels": [0.05, 0.1], "training_sizes": [30, 40]}
    failing = split_seed(5, 40)  # the second training size
    _exits_by_its_units(tmp_path, capsys, monkeypatch, "twin", cfg, failing, error, code, message)


def test_twin_checks_every_training_size_before_its_units_run(tmp_path, capsys, monkeypatch) -> None:
    # On two CPUs each training size is a worker's unit; 40 members hold at
    # most 39 modes, so the count fails in this process before any unit
    # starts, as it would with one unit.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def never(*args, **kwargs):
        raise AssertionError("a unit was started or an ensemble drawn")

    monkeypatch.setattr(experiments, "_map", never)
    monkeypatch.setattr("romda.toymodel.sample_parameters", never)
    cfg = {"mode_numbers": [2, 40], "training_sizes": [40, 400]}
    out = tmp_path / "out"
    assert main(["twin", "--config", write_config(tmp_path, "twin.json", cfg), "--out", str(out)]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: mode_numbers: 40 members hold at most 39 modes, got 40\n"
    assert not out.exists()


def test_workers_option_and_key_are_rejected(tmp_path, capsys) -> None:
    cfg = write_config(tmp_path, "twin.json", {"training_sizes": [40]})
    out = str(tmp_path / "out")
    assert main(["twin", "--config", cfg, "--workers", "2", "--out", out]) == EXIT_VALIDATION
    assert "--workers" in capsys.readouterr().err
    cfg = write_config(tmp_path, "workers.json", {"workers": 2})
    assert main(["twin", "--config", cfg, "--out", out]) == EXIT_VALIDATION
    assert "workers" in capsys.readouterr().err


def test_cli_builds_split_members_with_the_driver_seed_rule(chain) -> None:
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
        return cli._Output((), lambda out: f"recorded -> {out}")

    return command


def record_driver_threads(monkeypatch, pools, seen, error=None) -> None:
    """Record the thread counts inside each driver, where it fits its
    surrogates; then raise ``error``, or fit them."""
    fit = experiments._fit

    def recording(*args):
        seen.append(threads(pools))
        if error is not None:
            raise error
        return fit(*args)

    monkeypatch.setattr(experiments, "_fit", recording)


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


@pytest.mark.parametrize("command", ["twin", "covgrid", "bootstrap", "measure"])
def test_a_sweep_summary_holds_only_what_no_report_row_holds(tmp_path, capsys, command) -> None:
    # report.csv is the record of every cell value; the measure summary line
    # reads the classical RMSE from its first row.
    assert main(tiny_sweep(tmp_path, command)) == EXIT_OK
    out = tmp_path / "out"
    body = set(json.loads((out / "summary.json").read_text())) - {"_meta", "schema"}
    assert body == ({"classical_iterations"} if command == "measure" else {"x_t"})
    if command == "measure":
        lines = (out / "report.csv").read_text().splitlines()
        classical = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert classical["solver"] == "classical"
        assert f"classical rmse_obs={float(classical['rmse_obs']):.6g}," in capsys.readouterr().out


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


@pytest.mark.parametrize("command", ["sample", "assimilate"])
def test_other_commands_leave_blas_threads_alone(blas_pools, monkeypatch, tmp_path, command) -> None:
    previous = threads(blas_pools)
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, recording_command(blas_pools, seen))
    assert main([command, "--out", str(tmp_path)]) == EXIT_OK
    assert seen == [previous]
    assert threads(blas_pools) == previous


def run_build_surrogate(chain, monkeypatch, pools, seen) -> int:
    """Run build-surrogate on a 16-member toy ensemble, recording the thread
    counts inside its fit, at ``fit_pod``."""
    previous = threads(pools)
    chain.ensemble(16, 4)
    assert threads(pools) == previous

    def fit_recording(*args, **kwargs):
        seen.append(threads(pools))
        return fit_pod(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_pod", fit_recording)
    return chain.build(4, modes=2, max_degree=1)


def test_build_surrogate_runs_on_one_blas_thread(blas_pools, monkeypatch, chain) -> None:
    previous = threads(blas_pools)
    seen = []
    assert run_build_surrogate(chain, monkeypatch, blas_pools, seen) == EXIT_OK
    assert seen == [[1] * len(blas_pools)]
    assert threads(blas_pools) == previous


def test_build_surrogate_leaves_blas_threads_chosen_in_environment(blas_pools, monkeypatch, chain) -> None:
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    previous = threads(blas_pools)
    seen = []
    assert run_build_surrogate(chain, monkeypatch, blas_pools, seen) == EXIT_OK
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


@pytest.mark.parametrize("command", ["twin", "covgrid", "bootstrap", "measure"])
def test_sweeps_take_the_seed_from_the_option_only(tmp_path, capsys, command) -> None:
    # A config seed would be replaced by --seed while config_used.json echoed it.
    path = write_config(tmp_path, "cfg.json", {"seed": 5})
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: unknown config keys for {command}: ['seed']\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_a_seed_that_is_no_non_negative_integer_fails_naming_the_option(tmp_path, capsys, command, seed) -> None:
    # Before any config is read, and so before any output.
    assert main([command, "--seed", seed, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert f"error: argument --seed: need a non-negative integer, got '{seed}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_library_seeds_are_non_negative() -> None:
    for derive in (rng.substream, rng.substream_seed):
        with pytest.raises(ValueError, match="^seed: need a non-negative integer, got -1$"):
            derive(-1, "truth")


def test_config_keys_outside_the_command_fail_even_from_a_written_config(chain, capsys) -> None:
    # A document's schema and _meta keys are config keys like any other; so
    # config_used.json, whose keys are its stamp and the effective config,
    # cannot be fed back as a config.
    assert chain.run("sample", {"n": 3, "schema": "anything", "_meta": {}}, 0) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: unknown config keys for sample: ['_meta', 'schema']\n"
    assert not chain.out.exists()
    assert chain.run("sample", {"n": 3}, 0) == EXIT_OK
    written = json.loads((chain.out / "config_used.json").read_text())
    assert main(["sample", "--config", str(chain.out / "config_used.json"),
                 "--out", str(chain.tmp / "again")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: unknown config keys for sample: {sorted(written)}")


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_out_that_cannot_be_a_directory_fails_before_any_compute(
    tmp_path, capsys, monkeypatch, out
) -> None:
    (tmp_path / "file").write_text("kept\n")

    def never(*args, **kwargs):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(toymodel, "sample_parameters", never)
    path = write_config(tmp_path, "sample.json", {"n": 2})
    assert main(["sample", "--config", path, "--out", str(tmp_path / out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: --out: {tmp_path / 'file'} exists and is not a directory\n"
    assert (tmp_path / "file").read_text() == "kept\n"


def test_a_file_that_cannot_be_written_fails_naming_out(tmp_path, capsys, monkeypatch) -> None:
    def full(path, *args, **kwargs):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(io, "write_snapshot_csv", full)
    path = write_config(tmp_path, "sample.json", {"n": 2})
    out = tmp_path / "out"
    assert main(["sample", "--config", path, "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: --out: [Errno 28] No space left on device: '{out / 'parameters.csv'}'\n")


# One-key fuzz of the config rules: a valid tiny config per command, each key
# set in turn to each value the test lists, and so is one entry of each
# list-valued key (case "key[entry]": its last entry, or in a box the low
# bound of its first row). A run exits 1 with a first stderr line that names
# the key and leaves no --out, or, for the (command, case, value) triples in
# FUZZ_VALID, exits 0 and writes --out.
SWEEP_KEYS = {"training_sizes": [16], "mode_numbers": [1], "evr_threshold": None, "pce_degree": 1,
              "surrogates": ["poden"]}
TWIN_KEYS = {**SWEEP_KEYS, "x_t": [70.0, 4.6, 1.2, 2.2], "noise_levels": [0.1], "covariance_kind": "r_tilde",
             "alpha_grid": [1.0], "grid_noise": 0.1, "grid_modes": 1, "bootstrap_replicates": 1,
             "bootstrap_size": 16, "bootstrap_noise": 0.1}
FUZZ_VALID = {
    ("build-surrogate", "max_degree", "zero"),
    ("assimilate", "alpha_b", "2.5"),
    ("assimilate", "alpha_r", "2.5"),
    *((command, "pce_degree", "zero") for command in cli._SWEEPS),
    *((command, "evr_threshold", "null") for command in cli._SWEEPS),  # the default
    *((command, "mode_numbers", "null") for command in cli._SWEEPS),  # the default, 1..6
    *((command, "x_t", "null") for command in ("twin", "covgrid", "bootstrap")),  # drawn from the seed
    *(("build-surrogate", "bounds[entry]", value) for value in ("minus-one", "zero", "2.5")),  # a wider box
    # 2.5 lies in the box of the last parameter, which x_t and x_b end with.
    *(("assimilate", f"{key}[entry]", "2.5") for key in ("x_b", "background_diag")),
    *((command, f"{key}[entry]", "2.5") for command in ("twin", "covgrid", "bootstrap")
      for key in ("alpha_grid", "x_t")),
}


def with_one_entry(values: list, value) -> list:
    """``values`` with its last entry, or in a box the low bound of its first row, set to ``value``."""
    if isinstance(values[0], list):
        return [[value, *values[0][1:]], *values[1:]]
    return [*values[:-1], value]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory) -> dict:
    """The valid tiny config of each command, on a 16-member toy ensemble,
    a POD-PCE surrogate of it and one toy observation."""
    tmp = tmp_path_factory.mktemp("fuzz")
    chain = ToyChain(tmp)
    chain.ensemble(16, 1)
    files = {"parameters_csv": str(tmp / "out" / "parameters.csv"),
             "states_csv": str(tmp / "out" / "states.csv")}
    assert chain.build(1, modes=1, max_degree=1) == EXIT_OK
    observations = tmp / "obs.csv"
    write_observation(observations, toymodel.simulate([70.0, 4.6, 1.2, 2.2]))
    return {
        "sample": {"n": 2},
        "simulate": {"parameters_csv": files["parameters_csv"]},
        "build-surrogate": {"kind": "podpce", **files, "bounds": toymodel.PARAMETER_BOUNDS.tolist(),
                            "modes": 1, "max_degree": 1},
        "assimilate": {"surrogate": str(tmp / "out" / "surrogate.json"),
                       "observations_csv": str(observations), "noise_level": 0.1, "covariance": "r",
                       "alpha_b": 1.0, "alpha_r": 1.0, "x_b": toymodel.PARAMETER_MEANS.tolist(),
                       "background_diag": [1.0, 1.0, 1.0, 1.0]},
        "twin": TWIN_KEYS,
        "covgrid": TWIN_KEYS,
        "bootstrap": TWIN_KEYS,
        "measure": {**SWEEP_KEYS, "observations_csv": str(observations), "assumed_noise": 0.1,
                    "covariance_kinds": ["r"]},
    }


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_bad_key_fails_naming_it_and_leaves_no_output(fuzz_inputs, tmp_path, capsys, command) -> None:
    valid = fuzz_inputs[command]
    values = {"null": None, "true": True, "text": "x", "minus-one": -1, "zero": 0, "2.5": 2.5,
              "nan": float("nan"), "infinity": float("inf"), "empty-list": [], "empty-object": {},
              "reversed-box": toymodel.PARAMETER_BOUNDS[:, ::-1].tolist(),
              "missing-file": str(tmp_path / "missing.csv")}
    broken = []
    for key, good in valid.items():
        cases = {(key, name): value for name, value in values.items()}
        if isinstance(good, list):
            cases.update({(f"{key}[entry]", name): with_one_entry(good, value) for name, value in values.items()})
        for (case, name), value in cases.items():
            out = tmp_path / f"out-{case}-{name}"
            path = write_config(tmp_path, "cfg.json", {**valid, key: value})
            code = main([command, "--config", path, "--out", str(out)])
            err = capsys.readouterr().err
            if (command, case, name) in FUZZ_VALID:
                ok = code == EXIT_OK and out.is_dir()
            else:
                ok = code == EXIT_VALIDATION and err.startswith(f"error: {key}: ") and not out.exists()
            if not ok:
                broken.append((case, name, code, err.splitlines()[:1]))
    assert broken == []
