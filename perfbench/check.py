"""Correctness of a ``report.csv`` against a stored reference.

Line 1 of every report carries a config hash, so hashes and comparisons use
the body (line 2 onwards). Discrete columns must match exactly. Numeric
columns must match within ``RTOL``, which admits the roundoff that a change
of BLAS thread count causes. ``surrogate_evals``, ``model_runs``, ``reason``
and ``clipped`` are left out: they move with the optimizer's path at
roundoff level, so they are counts, not results.

The discrete columns depend only on the workload config, not on the seed,
so every run is checked against them. The numeric columns are checked on
the seed the reference was made with.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

DISCRETE = (
    "experiment", "solver", "covariance", "n", "d", "noise",
    "alpha_b", "alpha_r", "converged", "error",
)
NUMERIC = (
    "rmse_truth", "rmse_obs", "rmse_truth_background",
    "rmse_u", "rmse_v", "rmse_eta",
    "rmse_p1", "rmse_p2", "rmse_p3", "rmse_p4", "rmse_p5",
    "x_a_k2", "x_a_mtl", "x_a_ctl", "x_a_ctv",
    "j_final",
)
RTOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def report_body(path: Path) -> str:
    """Report text without its first line (the config-hash stamp)."""
    return path.read_text().split("\n", 1)[1]


def body_sha256(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def rows(body: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(body)))


def reference_body(workload: str) -> str:
    return (REFERENCE_DIR / f"{workload}.csv").read_text()


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= RTOL * max(abs(x), abs(y))


def row_mismatches(got: dict, want: dict, numeric: bool) -> list[str]:
    """Names of the columns in which ``got`` differs from ``want``."""
    bad = [c for c in DISCRETE if got[c] != want[c]]
    if numeric:
        bad += [c for c in NUMERIC if not _close(got[c], want[c])]
    return bad


def failed_cells(got: list[dict], want: list[dict], numeric: bool) -> tuple[int, list[str]]:
    """Count cells that errored, did not converge or differ from the reference.

    Returns the count and one message per mismatch, for the run's log.
    """
    messages = []
    if len(got) != len(want):
        messages.append(f"{len(got)} rows, reference has {len(want)}")
    failed = max(len(want) - len(got), 0)
    for i, (g, w) in enumerate(zip(got, want)):
        bad = row_mismatches(g, w, numeric)
        if bad:
            messages.append(f"row {i}: {', '.join(bad)} differ from the reference")
        if bad or g["error"] or g["converged"] != "1":
            failed += 1
    return failed, messages

