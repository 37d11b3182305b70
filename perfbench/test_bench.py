"""Tests of the benchmark's own code: spans, the report check, the metric lists.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scipy.linalg  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
from romda import assimilate, cli, experiments, pce, pod, surrogate  # noqa: E402
from romda import io as romda_io  # noqa: E402
from romda import toymodel  # noqa: E402
from romda.pod import SnapshotMatrix  # noqa: E402
from spans import ROOT_SPAN, SPAN_NAMES, Tracer  # noqa: E402

TINY_TWIN = {"training_sizes": [16], "mode_numbers": [1, 2], "noise_levels": [0.1],
             "alpha_grid": [1.0, 10.0], "grid_modes": 2,
             "bootstrap_replicates": 1, "bootstrap_size": 16, "pce_degree": 2}
TINY_MEASURE = {"training_sizes": [16], "mode_numbers": [1, 2], "pce_degree": 2,
                "covariance_kinds": ["r", "r_tilde", "r_tilde_corrected"]}


def _run_traced(tmp_path: Path, command: str, config: dict) -> Tracer:
    config_path = tmp_path / f"{command}.json"
    config_path.write_text(json.dumps(config))
    argv = [command, "--config", str(config_path), "--seed", "3", "--out", str(tmp_path / command)]
    with Tracer() as tracer:
        assert cli.main(argv) == 0
    return tracer


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, Tracer]:
    tmp_path = tmp_path_factory.mktemp("traced")
    y_o = toymodel.simulate([70.0, 4.6, 1.2, 2.2])
    obs = tmp_path / "obs.csv"
    romda_io.write_snapshot_csv(obs, SnapshotMatrix(
        data=y_o[:, None], row_labels=tuple(f"y{i}" for i in range(y_o.size)),
        member_ids=("observed",)))
    tracers = {command: _run_traced(tmp_path, command, TINY_TWIN)
               for command in ("twin", "covgrid", "bootstrap")}
    tracers["measure"] = _run_traced(
        tmp_path, "measure", dict(TINY_MEASURE, observations_csv=str(obs)))
    return tracers


def test_every_span_is_called_on_some_workload(traced):
    missing = [name for name in SPAN_NAMES
               if not any(t.stats[name][0] for t in traced.values())]
    assert missing == []


def test_self_times_sum_to_the_root_span(traced):
    for tracer in traced.values():
        root = tracer.stats[ROOT_SPAN][1]
        total_self = sum(stats[2] for stats in tracer.stats.values())
        assert root > 0.0
        assert math.isclose(total_self, root, rel_tol=1e-9)
        assert all(stats[2] >= -1e-9 for stats in tracer.stats.values())


def test_optimizer_counters_are_consistent(traced):
    metrics = traced["twin"].metrics()
    assert metrics["optimize.f_calls"] >= metrics["optimize.bounded_quasi_newton.calls"]
    assert 0.0 < metrics["optimize.accept_ratio"] <= 1.0
    assert traced["measure"].metrics()["assimilate.classical_model_runs"] > 0


def test_aliases_are_wrapped_and_then_restored():
    originals = {
        (experiments, "build_podpce"): surrogate.build_podpce,
        (surrogate, "fit_pod"): pod.fit_pod,
        (surrogate, "select_degree"): pce.select_degree,
        (assimilate, "bounded_quasi_newton"): sys.modules["romda.optimize"].bounded_quasi_newton,
        (assimilate, "cho_factor"): scipy.linalg.cho_factor,
        (cli, "run_twin"): experiments.run_twin,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        assert scipy.linalg.cho_factor is originals[(assimilate, "cho_factor")]
    finally:
        tracer.restore()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_report_check_admits_roundoff_and_catches_changes():
    rows = check.rows(check.reference_body("covgrid"))
    assert check.failed_cells(rows, rows, numeric=True) == (0, [])
    nudged = [dict(r, j_final=repr(float(r["j_final"]) * (1 + 1e-12))) for r in rows]
    assert check.failed_cells(nudged, rows, numeric=True) == (0, [])
    moved = [dict(r) for r in rows]
    moved[3]["x_a_k2"] = repr(float(moved[3]["x_a_k2"]) * 1.001)
    failed, messages = check.failed_cells(moved, rows, numeric=True)
    assert failed == 1 and "x_a_k2" in messages[0]
    assert check.failed_cells(moved, rows, numeric=False) == (0, [])
    unconverged = [dict(r) for r in rows]
    unconverged[0]["converged"] = "0"
    assert check.failed_cells(unconverged, rows, numeric=False)[0] == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
