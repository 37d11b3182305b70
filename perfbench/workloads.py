"""Benchmark workloads: the inputs each ``romda`` command is given.

Every workload is one CLI call, repeated in a run with a fixed number of
call seeds derived from the benchmark seed (:func:`call_seeds`). A call seed
becomes the CLI ``--seed`` (training ensembles, validation splits,
observation noise) and, for ``measure``, the noise on the generated
observation file. The synthetic truth is a fixed constant of the benchmark:
with a seed-drawn truth the optimizer's work per cell varied by up to 2x
between seeds, which would hide a 10% change in the solver behind the
choice of seed. What still varies with the seed is averaged over the calls
of a run.

Inputs are written at fixed paths under ``.bench_work/<workload>/`` so the
config hash that the CLI stamps into its outputs is the same on every run.
"""
from __future__ import annotations

import json
from pathlib import Path

WORK_ROOT = Path(".bench_work")
REFERENCE_SEED = 7
TRUTH = (70.0, 4.6, 1.2, 2.2)  # K2, MTL, CTL, CTV inside the prior box
MEASURE_NOISE = 0.05

# ``calls`` is the number of calls a run of ``NOMINAL_SECONDS`` makes; other
# run lengths scale it. It is fixed per workload, so the same seed and run
# length always give the same inputs, and it is set so that each workload's
# run-to-run spread of wall time stays near 7% on a 2-core box: one call of
# ``twin`` takes ~12.5 s, of ``bootstrap`` ~7.5 s, of ``covgrid`` and
# ``measure`` ~5 s, setup included.
NOMINAL_SECONDS = 25.0
WORKLOADS: dict[str, dict] = {
    # Solve-heavy: 120 cells, 60 POD-PCE descents against R-tilde.
    "twin": {"command": "twin", "config": {"x_t": list(TRUTH)}, "calls": 3},
    # Build-heavy: a fresh n=800 ensemble and surrogate per replicate.
    "bootstrap": {
        "command": "bootstrap",
        "config": {"x_t": list(TRUTH), "bootstrap_replicates": 2},
        "calls": 3,
    },
    # One surrogate, one R-tilde assembled and factored for 25 alpha pairs.
    "covgrid": {"command": "covgrid", "config": {"x_t": list(TRUTH)}, "calls": 3},
    # Classical solver with the forward model inside the optimizer, and all
    # three observation covariances on the same surrogates.
    "measure": {
        "command": "measure",
        "config": {"covariance_kinds": ["r", "r_tilde", "r_tilde_corrected"]},
        "calls": 5,
    },
}


def call_seeds(workload: str, seed: int, seconds: float) -> list[int]:
    """CLI seeds of the calls in one run: ``seed`` first, then derived ones."""
    calls = max(1, round(WORKLOADS[workload]["calls"] * seconds / NOMINAL_SECONDS))
    return [seed] + [1000 * seed + k for k in range(1, calls)]


def workdir(workload: str) -> Path:
    return WORK_ROOT / workload


def generate_inputs(workload: str, seed: int) -> list[str]:
    """Write the workload's input files and return the CLI argument list."""
    spec = WORKLOADS[workload]
    inputs = workdir(workload) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    config = dict(spec["config"])
    if workload == "measure":
        config["observations_csv"] = str(_write_observations(inputs, seed))
    config_path = inputs / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True) + "\n")
    return [
        spec["command"],
        "--config", str(config_path),
        "--seed", str(seed),
        "--out", str(workdir(workload) / "out"),
    ]


def _write_observations(inputs: Path, seed: int) -> Path:
    """One noisy observation vector of the fixed truth, as a snapshot CSV."""
    from romda import io, toymodel
    from romda.experiments import inject_noise
    from romda.pod import SnapshotMatrix

    y_t = toymodel.simulate(list(TRUTH))
    y_o, _ = inject_noise(y_t, MEASURE_NOISE, seed)
    path = inputs / "observations.csv"
    io.write_snapshot_csv(
        path,
        SnapshotMatrix(
            data=y_o[:, None],
            row_labels=tuple(f"y{i}" for i in range(y_o.size)),
            member_ids=("observed",),
        ),
    )
    return path
