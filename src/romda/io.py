"""Schema-versioned persistence for ensembles, surrogates and reports.

JSON documents carry a ``schema`` tag (a surrogate's is checked on load)
and a ``_meta`` block with tool version, config hash and seed as their
first key. CSV files begin with one comment line carrying the same
metadata. Numeric round trips are exact: floats are serialized with their
shortest round-trip representation.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .experiments import ReportRow
from .pce import PceBasis, PceModel
from .pod import PodBasis, SnapshotMatrix, numerical_rank
from .surrogate import PodEnSurrogate, PodPceSurrogate, Scaling, Standardizer
from .toymodel import PARAMETER_NAMES

SCHEMAS = {
    "snapshot": "snapshot/1",
    "podpce": "podpce-surrogate/2",
    "poden": "poden-surrogate/2",
    "analysis": "analysis/1",
    "report": "report/1",
    "config": "config/1",
}


class SchemaError(ValueError):
    """Document schema does not match what the loader expects."""


def config_hash(config: Any) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _meta(seed: int | None = None, cfg_hash: str | None = None) -> dict:
    return {
        "tool": "romda",
        "version": __version__,
        "config": cfg_hash or "none",
        "seed": "none" if seed is None else int(seed),
    }


def csv_header_line(seed: int | None = None, cfg_hash: str | None = None, **extra: str) -> str:
    parts = [f"romda={__version__}", f"config={cfg_hash or 'none'}",
             f"seed={'none' if seed is None else seed}"]
    parts.extend(f"{key}={value}" for key, value in extra.items())
    return "# " + " ".join(parts)


def save_json(path: str | Path, schema_key: str, body: dict,
              seed: int | None = None, cfg_hash: str | None = None) -> None:
    doc = {"_meta": _meta(seed, cfg_hash), "schema": SCHEMAS[schema_key]}
    doc.update(body)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


# Snapshot matrices ---------------------------------------------------------------


def write_snapshot_csv(path: str | Path, snapshots: SnapshotMatrix,
                       seed: int | None = None, cfg_hash: str | None = None) -> None:
    lines = [csv_header_line(seed, cfg_hash, schema=SCHEMAS["snapshot"])]
    lines.append(",".join(["label", *snapshots.member_ids]))
    for label, row in zip(snapshots.row_labels, snapshots.data):
        lines.append(",".join([label, *(_fmt(v) for v in row)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshot_csv(path: str | Path) -> SnapshotMatrix:
    """The snapshot matrix in ``path``. A row whose width differs from the
    header's, or a NaN or infinite entry, fails naming its row and member."""
    rows = []
    labels = []
    member_ids: tuple[str, ...] | None = None
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = next(csv.reader([line]))
        if member_ids is None:
            if cells[0] != "label":
                raise ValueError(f"snapshot CSV {path} must start with a 'label' header row")
            member_ids = tuple(cells[1:])
            continue
        if len(cells) - 1 != len(member_ids):
            raise ValueError(f"snapshot CSV {path}: row {cells[0]!r} has {len(cells) - 1} entries, "
                             f"the header names {len(member_ids)} members")
        labels.append(cells[0])
        rows.append([float(v) for v in cells[1:]])
    if member_ids is None or not rows:
        raise ValueError(f"snapshot CSV {path} has no data")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"snapshot CSV {path}: row {labels[i]!r}, member {member_ids[j]!r} "
                         f"is {data[i, j]}, not a finite number")
    return SnapshotMatrix(data=data, row_labels=tuple(labels), member_ids=member_ids)


# Decompositions and models --------------------------------------------------------


def _pod_body(basis: PodBasis) -> dict:
    return {
        "mean": basis.mean.tolist(),
        "modes": basis.modes.tolist(),
        "singular_values": basis.singular_values.tolist(),
        "coefficients": basis.coefficients.tolist(),
        "retained": basis.retained,
    }


def _pod_from_body(doc: dict) -> PodBasis:
    """The stored basis at its numerical rank r. Columns beyond r, which
    documents written before bases ended there carry, are dropped; a
    retained count above r is rejected."""
    svals = np.array(doc["singular_values"], dtype=float)
    r = numerical_rank(svals)
    retained = int(doc["retained"])
    if retained > r:
        raise ValueError(f"stored retained mode count {retained} exceeds the numerical rank {r}")
    return PodBasis(
        mean=np.array(doc["mean"], dtype=float),
        modes=np.array(doc["modes"], dtype=float)[:, :r],
        singular_values=svals[:r],
        coefficients=np.array(doc["coefficients"], dtype=float)[:, :r],
        retained=retained,
    )


def _pce_body(model: PceModel) -> dict:
    basis = model.basis
    return {
        # Every input is Legendre; the reader rejects any other family.
        "families": ["legendre"] * basis.input_dim,
        "offsets": basis.offsets.tolist(),
        "scales": basis.scales.tolist(),
        "indices": [list(alpha) for alpha in basis.indices],
        "coefficients": model.coefficients.tolist(),
        "empirical_errors": model.empirical_errors.tolist(),
        "selected_degrees": list(model.selected_degrees),
        "validation_bias": model.validation_bias.tolist(),
    }


def _pce_from_body(doc: dict) -> PceModel:
    m_x = len(doc["offsets"])
    if doc["families"] != ["legendre"] * m_x:
        raise SchemaError(
            f"families: expected 'legendre' for each of the {m_x} inputs, got {doc['families']!r}"
        )
    return PceModel(
        basis=PceBasis(
            offsets=np.array(doc["offsets"], dtype=float),
            scales=np.array(doc["scales"], dtype=float),
            indices=tuple(tuple(alpha) for alpha in doc["indices"]),
        ),
        coefficients=np.array(doc["coefficients"], dtype=float),
        empirical_errors=np.array(doc["empirical_errors"], dtype=float),
        selected_degrees=tuple(doc["selected_degrees"]),
        validation_bias=np.array(doc["validation_bias"], dtype=float),
    )


def save_surrogate(
    path: str | Path, surrogate: PodPceSurrogate | PodEnSurrogate, scaling: Scaling, **meta: Any
) -> None:
    """Write a surrogate together with the scaling it was built in."""
    if isinstance(surrogate, PodPceSurrogate):
        kind, body = "podpce", {
            "state_basis": _pod_body(surrogate.state_basis),
            "pce": _pce_body(surrogate.pce),
            "n_members": surrogate.n_members,
        }
    else:
        kind, body = "poden", {"basis": _pod_body(surrogate.basis), "m_x": surrogate.m_x}
    body["scaling"] = {
        "parameters": {"mean": scaling.params.mean.tolist(), "std": scaling.params.std.tolist()},
        "states": {"mean": scaling.states.mean.tolist(), "std": scaling.states.std.tolist()},
        "bounds": scaling.bounds.tolist(),
    }
    save_json(path, kind, body, **meta)


def load_surrogate(path: str | Path) -> tuple[PodPceSurrogate | PodEnSurrogate, Scaling]:
    """Read a surrogate document of either kind (by its schema tag) with its
    scaling. The box comes from the scaling record only; the duplicate
    ``parameter_bounds`` that early POD-PCE documents carry is ignored.
    """
    doc = json.loads(Path(path).read_text())
    kinds = {SCHEMAS["podpce"]: "podpce", SCHEMAS["poden"]: "poden"}
    if doc.get("schema") not in kinds:
        raise SchemaError(
            f"schema mismatch in {path}: found {doc.get('schema')!r}, expected one of {sorted(kinds)}"
        )
    if kinds[doc["schema"]] == "podpce":
        surrogate = PodPceSurrogate(
            state_basis=_pod_from_body(doc["state_basis"]),
            pce=_pce_from_body(doc["pce"]),
            n_members=int(doc["n_members"]),
        )
    else:
        surrogate = PodEnSurrogate(basis=_pod_from_body(doc["basis"]), m_x=int(doc["m_x"]))
    scaling = doc["scaling"]

    def standardizer(key: str) -> Standardizer:
        return Standardizer(np.array(scaling[key]["mean"], dtype=float),
                            np.array(scaling[key]["std"], dtype=float))

    bounds = np.array(scaling["bounds"], dtype=float)
    return surrogate, Scaling(standardizer("parameters"), standardizer("states"), bounds)


# Experiment reports ----------------------------------------------------------------

# The report schema: ReportRow's fields in order, with x_a as one
# x_a_<parameter> column per entry and wall_time left to timings.csv; the
# first eight name a cell.
_X_A_COLUMNS = {f"x_a_{name.lower()}": i for i, name in enumerate(PARAMETER_NAMES)}
REPORT_COLUMNS = tuple(
    column
    for f in dataclasses.fields(ReportRow) if f.name != "wall_time"
    for column in (_X_A_COLUMNS if f.name == "x_a" else (f.name,))
)
_KEY_COLUMNS = REPORT_COLUMNS[:8]


def _cell(value) -> str:
    """One CSV cell: text with its separators masked, bools and integers
    as integers, floats in their shortest round-trip form."""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return _fmt(value)


def _value(row, column: str):
    """A report row's ``column``: the row attribute of that name, except an
    entry of ``row.x_a``, the wall time in seconds, and the replicate of a
    ``bootstrap/<replicate>`` row."""
    if column in _X_A_COLUMNS:
        return row.x_a[_X_A_COLUMNS[column]]
    if column == "wall_time_s":
        return row.wall_time
    if column == "replicate":
        return row.experiment.split("/", 1)[1]
    return getattr(row, column)


def _line(row, columns: tuple[str, ...]) -> str:
    return ",".join(_cell(_value(row, column)) for column in columns)


def _csv_text(header: str, rows, columns: tuple[str, ...]) -> str:
    return "\n".join([header, ",".join(columns), *(_line(row, columns) for row in rows)]) + "\n"


def report_csv_text(report, seed: int | None = None, cfg_hash: str | None = None) -> str:
    """Canonical report CSV: deterministic bytes for a given (config, seed).

    Wall-clock timings vary between runs, so they are written separately by
    :func:`write_timings_csv`.
    """
    header = csv_header_line(seed, cfg_hash, schema=SCHEMAS["report"])
    return _csv_text(header, report.rows, REPORT_COLUMNS)


def write_report_csv(path: str | Path, report, seed: int | None = None,
                     cfg_hash: str | None = None) -> None:
    Path(path).write_text(report_csv_text(report, seed, cfg_hash))


def write_timings_csv(path: str | Path, report, seed: int | None = None,
                      cfg_hash: str | None = None) -> None:
    """The cell keys and each cell's wall time in seconds."""
    header = csv_header_line(seed, cfg_hash, schema=SCHEMAS["report"], content="timings")
    Path(path).write_text(_csv_text(header, report.rows, _KEY_COLUMNS + ("wall_time_s",)))


# (file, experiment, columns) of each figure analogue; a bootstrap row's
# experiment is "bootstrap/<replicate>".
_PLOTS = (
    ("plot_noise_sweep.csv", "twin", ("noise", "n", "d", "solver", "rmse_truth", "rmse_obs")),
    ("plot_mode_sweep.csv", "twin", ("d", "n", "noise", "solver", "rmse_truth")),
    ("plot_covariance_grid.csv", "covgrid", ("alpha_b", "alpha_r", "rmse_truth")),
    ("plot_bootstrap.csv", "bootstrap", ("replicate", "solver", "d", "rmse_truth")),
    ("plot_measurement.csv", "measure", ("solver", "covariance", "n", "d", "rmse_obs", "model_runs")),
)


def write_plot_csvs(outdir: str | Path, report, seed: int | None = None,
                    cfg_hash: str | None = None) -> list[Path]:
    """Long-format CSVs, one per figure analogue with a successful row in
    the report; each cell equals the report.csv cell of its row and column."""
    written: list[Path] = []
    for name, experiment, columns in _PLOTS:
        rows = [r for r in report.rows
                if r.experiment.split("/", 1)[0] == experiment and not r.error]
        if rows:
            path = Path(outdir) / name
            path.write_text(_csv_text(csv_header_line(seed, cfg_hash, content=name), rows, columns))
            written.append(path)
    return written
