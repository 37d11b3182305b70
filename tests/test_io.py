import json

import numpy as np
import pytest

from romda import io
from romda.experiments import TwinConfig, run_twin
from romda.pce import PceConfig
from romda.pod import SnapshotMatrix, fit_pod, project, reconstruct, truncate
from romda.surrogate import (
    build_poden,
    build_podpce,
    podpce_predict,
    poden_predict,
)


def test_snapshot_csv_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(0)
    snap = SnapshotMatrix(
        data=rng.standard_normal((4, 6)) * np.pi,
        row_labels=("a", "b", "c", "d"),
        member_ids=tuple(f"m{j}" for j in range(6)),
    )
    path = tmp_path / "snap.csv"
    io.write_snapshot_csv(path, snap, seed=3)
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("# romda=")
    assert "seed=3" in first_line
    loaded = io.read_snapshot_csv(path)
    assert loaded.row_labels == snap.row_labels
    assert loaded.member_ids == snap.member_ids
    assert np.array_equal(loaded.data, snap.data)  # bit-for-bit


def test_pod_basis_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(1)
    data = rng.standard_normal((6, 10))
    basis = truncate(fit_pod(data), modes=3)
    path = tmp_path / "basis.json"
    io.save_pod_basis(path, basis, seed=1)
    loaded = io.load_pod_basis(path)
    assert np.array_equal(loaded.modes, basis.modes)
    assert loaded.retained == 3
    y = data[:, 4]
    assert np.array_equal(
        reconstruct(loaded, project(loaded, y)), reconstruct(basis, project(basis, y))
    )


def test_pce_model_round_trip_predictions(tmp_path) -> None:
    rng = np.random.default_rng(2)
    bounds = np.array([[0.0, 1.0], [2.0, 3.0]])
    params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(50, 2)).T
    states = np.vstack([params[0] ** 2, params[1], params[0] * params[1]])
    s = build_podpce(params, states, PceConfig(bounds, 2), split_seed=5, modes=2)
    path = tmp_path / "pce.json"
    io.save_pce_model(path, s.pce, seed=2)
    loaded = io.load_pce_model(path)
    from romda.pce import pce_eval

    x = rng.uniform(bounds[:, 0], bounds[:, 1], size=(100, 2))
    assert np.array_equal(pce_eval(loaded, x), pce_eval(s.pce, x))


def test_surrogate_round_trips(tmp_path) -> None:
    rng = np.random.default_rng(3)
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    params = rng.uniform(0, 1, size=(40, 2)).T
    states = np.vstack([np.sin(params[0]), params[1] ** 2, params[0] + params[1]])
    podpce = build_podpce(params, states, PceConfig(bounds, 2), split_seed=1, modes=2)
    io.save_podpce(tmp_path / "podpce.json", podpce, seed=0)
    loaded = io.load_podpce(tmp_path / "podpce.json")
    x = np.array([0.4, 0.7])
    assert np.array_equal(podpce_predict(loaded, x), podpce_predict(podpce, x))

    poden = build_poden(params, states, modes=2)
    io.save_poden(tmp_path / "poden.json", poden, seed=0)
    loaded_en = io.load_poden(tmp_path / "poden.json")
    nu = np.array([0.3, -0.2])
    for a, b in zip(poden_predict(loaded_en, nu), poden_predict(poden, nu)):
        assert np.array_equal(a, b)


def test_tampered_schema_rejected(tmp_path) -> None:
    rng = np.random.default_rng(4)
    basis = fit_pod(rng.standard_normal((4, 6)))
    path = tmp_path / "basis.json"
    io.save_pod_basis(path, basis)
    doc = json.loads(path.read_text())
    doc["schema"] = "pod-basis/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(io.SchemaError, match="pod-basis/99"):
        io.load_pod_basis(path)


def test_report_csv_deterministic_bytes(tmp_path) -> None:
    config = TwinConfig(
        seed=5,
        noise_levels=(0.10,),
        training_sizes=(50,),
        mode_numbers=(2,),
        surrogates=("podpce",),
        pce_degree=2,
    )
    text_a = io.report_csv_text(run_twin(config), seed=5, cfg_hash="abc")
    text_b = io.report_csv_text(run_twin(config), seed=5, cfg_hash="abc")
    assert text_a == text_b
    header = text_a.splitlines()[1].split(",")
    assert header == list(io.REPORT_COLUMNS)
