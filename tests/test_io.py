import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romda import io
from romda.experiments import ExperimentReport, ReportRow, TwinConfig, build_surrogates, run_twin
from romda.pce import PceConfig, design_matrix
from romda.pod import (
    ZERO_SV_RTOL,
    SnapshotMatrix,
    fit_pod,
    numerical_rank,
    reconstruct,
    truncate,
)
from romda.surrogate import (
    PodEnSurrogate,
    PodPceSurrogate,
    Scaling,
    Standardizer,
    build_podpce,
    podpce_predict,
    poden_predict,
)

def project(basis, y):
    """Reduced coordinates of a state, Sigma_d^-1 Phi_d^T (y - mean): the
    oracle inverse of ``reconstruct``."""
    d = basis.retained
    return (basis.modes[:, :d].T @ (y - basis.mean)) / basis.singular_values[:d]


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


def identity_scaling(bounds, m_y):
    """Identity standardizers for a surrogate built on physical values in
    the box ``bounds`` (m_x, 2)."""
    params, states = (Standardizer(np.zeros(m), np.ones(m)) for m in (len(bounds), m_y))
    return Scaling(params, states, bounds)


def test_pod_basis_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(1)
    data = rng.standard_normal((6, 10))
    basis = truncate(fit_pod(data), modes=3)
    # A surrogate document stores every field of its basis exactly.
    path = tmp_path / "poden.json"
    io.save_surrogate(path, PodEnSurrogate(basis, m_x=1), identity_scaling(np.array([[-1.0, 1.0]]), 5))
    loaded = io.load_surrogate(path)[0].basis
    assert_identical(loaded, basis)
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
    # A surrogate document stores the PCE exactly and predicts with the same bits.
    path = tmp_path / "podpce.json"
    io.save_surrogate(path, s, identity_scaling(bounds, 3), seed=2)
    # It names each input's family.
    assert json.loads(path.read_text())["pce"]["families"] == ["legendre"] * 2
    loaded = io.load_surrogate(path)[0].pce
    assert_identical(loaded, s.pce)
    x = rng.uniform(bounds[:, 0], bounds[:, 1], size=(100, 2))
    assert np.array_equal(design_matrix(x, loaded.basis) @ loaded.coefficients.T,
                          design_matrix(x, s.pce.basis) @ s.pce.coefficients.T)


def assert_identical(a, b) -> None:
    """Equal types, and every field, array or value equal exactly."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    else:
        assert a == b


def assert_at_rank(basis) -> None:
    """The basis ends at its numerical rank and retains 1..r modes."""
    r = basis.n_modes
    assert basis.singular_values.shape == (r,) and basis.coefficients.shape[1] == r
    assert r == numerical_rank(basis.singular_values)
    assert np.all(basis.singular_values > ZERO_SV_RTOL * basis.singular_values[0])
    assert 1 <= basis.retained <= r


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(12, 40),
    d=st.integers(1, 3),
    shape=st.sampled_from(["wide", "tall", "rank-deficient"]),
)
def test_surrogate_round_trips(seed, n, d, shape) -> None:
    # Fewer state rows than members (wide), more (tall), or more rows on
    # three planted directions (rank-deficient): the POD basis, the PCE model
    # and both surrogate kinds come back with every array equal, at rank.
    rng = np.random.default_rng(seed)
    low = rng.uniform(-2.0, 2.0, 2)
    bounds = np.column_stack([low, low + rng.uniform(0.5, 3.0, 2)])
    params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n, 2)).T
    states = np.vstack([np.sin(params[0]), params[1] ** 2, params[0] * params[1], params[0] + params[1]])
    if shape == "tall":
        states = rng.standard_normal((n + 7, 4)) @ states + 0.1 * rng.standard_normal((n + 7, n))
    elif shape == "rank-deficient":
        states = rng.standard_normal((n + 7, 3)) @ states[:3]
    built, scaling = build_surrogates(
        params, states, bounds, ("podpce", "poden"), pce_degree=2, split_seed=seed, modes=d
    )
    state_basis = built["podpce"].state_basis
    assert state_basis.n_modes == {"wide": 4, "tall": n - 1, "rank-deficient": 3}[shape]
    loaded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind, surrogate in built.items():
            path = Path(tmp) / f"{kind}.json"
            io.save_surrogate(path, surrogate, scaling, seed=seed)
            doc = json.loads(path.read_text())
            assert doc["schema"] == io.SCHEMAS[kind] == f"{kind}-surrogate/2"
            assert "parameter_bounds" not in doc  # the box lives in the scaling record only
            loaded[kind], loaded_scaling = io.load_surrogate(path)
            assert_identical(loaded[kind], surrogate)
            assert_identical(loaded_scaling, scaling)
            assert np.array_equal(loaded_scaling.box, scaling.box)
            assert_at_rank(loaded[kind].state_basis if kind == "podpce" else loaded[kind].basis)
    z = scaling.params.transform(params[:, 0])
    assert np.array_equal(podpce_predict(loaded["podpce"], z), podpce_predict(built["podpce"], z))
    nu = np.linspace(-0.3, 0.3, d)
    for a, b in zip(poden_predict(loaded["poden"], nu), poden_predict(built["poden"], nu)):
        assert np.array_equal(a, b)


def test_v2_podpce_documents_ignore_a_stored_parameter_bounds(tmp_path) -> None:
    # Early podpce-surrogate/2 documents repeat the box as parameter_bounds;
    # the reader takes it from the scaling record alone.
    rng = np.random.default_rng(4)
    bounds = np.array([[0.0, 1.0], [2.0, 3.0]])
    params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(30, 2)).T
    states = np.vstack([params[0] ** 2, params[1], params[0] * params[1]])
    built, scaling = build_surrogates(params, states, bounds, ("podpce",), pce_degree=2, split_seed=1, modes=2)
    path = tmp_path / "podpce.json"
    io.save_surrogate(path, built["podpce"], scaling)
    doc = json.loads(path.read_text())
    doc["parameter_bounds"] = [[-9.0, 9.0], [-9.0, 9.0]]
    path.write_text(json.dumps(doc))
    loaded, loaded_scaling = io.load_surrogate(path)
    assert_identical(loaded, built["podpce"])
    assert_identical(loaded_scaling, scaling)


def surrogate_document(tmp_path, kind: str) -> tuple[PodPceSurrogate | PodEnSurrogate, dict]:
    """A surrogate of ``kind`` (2 parameters, 4 state components, 24 members;
    a PODEn basis has rank 5) and its ``/2`` document."""
    rng = np.random.default_rng(6)
    bounds = np.array([[0.0, 1.0], [2.0, 3.0]])
    params = rng.uniform(bounds[:, 0], bounds[:, 1], size=(24, 2)).T
    states = np.vstack([np.sin(params[0]), params[1] ** 2, params[0] * params[1], params[0] + params[1]])
    built, scaling = build_surrogates(params, states, bounds, (kind,), pce_degree=2, split_seed=1, modes=2)
    path = tmp_path / f"{kind}.json"
    io.save_surrogate(path, built[kind], scaling)
    return built[kind], json.loads(path.read_text())


def load_document(tmp_path, doc: dict):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return io.load_surrogate(path)[0]


def test_a_stored_mode_below_the_zero_threshold_is_dropped(tmp_path) -> None:
    # Documents written before bases ended at their numerical rank carry
    # more columns; one with sigma below ZERO_SV_RTOL * sigma_1 loads without it.
    poden, doc = surrogate_document(tmp_path, "poden")
    assert poden.basis.n_modes == 5
    body = doc["basis"]
    body["singular_values"].append(0.5 * ZERO_SV_RTOL * body["singular_values"][0])
    body["modes"] = [row + [0.0] for row in body["modes"]]
    body["coefficients"] = [row + [0.0] for row in body["coefficients"]]
    loaded = load_document(tmp_path, doc)
    assert_at_rank(loaded.basis)
    assert_identical(loaded, poden)


def test_stored_retained_above_the_rank_is_rejected(tmp_path) -> None:
    _, doc = surrogate_document(tmp_path, "poden")
    doc["basis"]["retained"] = 6
    with pytest.raises(ValueError, match="retained mode count 6 exceeds the numerical rank 5"):
        load_document(tmp_path, doc)


@pytest.mark.parametrize("kind", ["podpce", "poden"])
def test_v1_surrogate_documents_are_refused(tmp_path, kind) -> None:
    # A /1 document stores no scaling; the reader names the schemas it accepts.
    _, doc = surrogate_document(tmp_path, kind)
    doc["schema"] = f"{kind}-surrogate/1"
    del doc["scaling"]
    accepted = "['poden-surrogate/2', 'podpce-surrogate/2']"
    with pytest.raises(io.SchemaError, match=re.escape(f"found '{kind}-surrogate/1', expected one of {accepted}")):
        load_document(tmp_path, doc)


def test_tampered_schema_rejected(tmp_path) -> None:
    rng = np.random.default_rng(4)
    basis = fit_pod(rng.standard_normal((4, 6)))
    path = tmp_path / "poden.json"
    io.save_surrogate(path, PodEnSurrogate(basis, m_x=1), identity_scaling(np.array([[-1.0, 1.0]]), 3))
    doc = json.loads(path.read_text())
    doc["schema"] = "poden-surrogate/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(io.SchemaError, match="poden-surrogate/99"):
        io.load_surrogate(path)


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


# report.csv's columns as the schema "report/1" fixes them; io derives them
# from ReportRow's fields, so a reordered or renamed field fails here.
REPORT_HEADER = [
    "experiment", "solver", "covariance", "n", "d", "noise", "alpha_b", "alpha_r",
    "rmse_truth", "rmse_obs", "rmse_truth_background",
    "rmse_u", "rmse_v", "rmse_eta", "rmse_p1", "rmse_p2", "rmse_p3", "rmse_p4", "rmse_p5",
    "x_a_k2", "x_a_mtl", "x_a_ctl", "x_a_ctv",
    "clipped", "j_final", "model_runs", "surrogate_evals", "converged", "reason", "error",
]


def test_report_header_is_the_schema_and_every_plot_column_is_in_it(tmp_path) -> None:
    report = ExperimentReport([ReportRow("twin", "podpce", "r", 40, 2, 0.1, 1.0, 1.0)], {})
    header, line = io.report_csv_text(report).splitlines()[1:]
    assert header.split(",") == REPORT_HEADER
    assert len(line.split(",")) == len(REPORT_HEADER)
    io.write_timings_csv(tmp_path / "timings.csv", report)
    assert (tmp_path / "timings.csv").read_text().splitlines()[1].split(",") == [
        *REPORT_HEADER[:8], "wall_time_s"]
    for name, _, columns in io._PLOTS:
        assert set(columns) <= {*REPORT_HEADER, "replicate"}, name
