"""romda benchmark: one CLI sweep per call, each in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload twin --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

``--trace 0`` makes untraced calls, as many as the workload's share of
``--seconds`` allows (``workloads.call_seeds``), each with its own CLI seed,
and reports medians of the end-to-end metrics. ``--trace 1`` makes one untraced
call, one traced call and one traced call with single-threaded BLAS, and
reports the per-layer metrics. Every call's ``report.csv`` is checked (see
``check.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (environment, per-call values, report hash), which
are also written to ``.bench_work/<workload>/result.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import REFERENCE_SEED, WORKLOADS, call_seeds, workdir

CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170.0  # a run never starts a call it may not finish by then
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cell_ok_ratio": "ratio",
    "analysis_chi2_p50": "ratio",
}
# Single-BLAS-thread figures reported beside the default-thread trace.
SINGLE_THREAD_KEYS = (
    "layer.build.self_s",
    "layer.solve.self_s",
    "pce.select_degree.total_s",
    "blas.threads",
)


class RunError(RuntimeError):
    """A call did not produce a report; the run has no result."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    from spans import SPAN_NAMES

    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "optimize.iterations": "count",
        "optimize.f_calls": "count",
        "optimize.grad_calls": "count",
        "optimize.backtracks": "count",
        "optimize.accept_ratio": "ratio",
        "optimize.converged_ratio": "ratio",
        "assimilate.classical_model_runs": "count",
        "layer.build.self_s": "s",
        "layer.solve.self_s": "s",
        "layer.build.share": "ratio",
        "layer.solve.share": "ratio",
        "blas.threads": "count",
        "nproc": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.span_calls": "count",
        "analysis_rmse_p50": "1",
        "fail_ratio": "ratio",
        "st.wall_s": "s",
    })
    units.update({f"st.{key}": units[key] for key in SINGLE_THREAD_KEYS})
    return units


# Calls ------------------------------------------------------------------------


def run_call(workload: str, seed: int, trace: int, deadline: float,
             extra_env: dict[str, str] | None = None) -> dict:
    """Spawn one child, wait for it, and attach its report body."""
    out = workdir(workload) / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, **(extra_env or {}))
    command = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)], env=env, capture_output=True,
            text=True, timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} call did not finish within the run limit") from None
    if proc.returncode != 0:
        raise RunError(f"{workload} call exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        raise RunError(f"romda {workload} exited {result['exit_code']}: {proc.stderr[-2000:]}")
    result["body"] = check.report_body(out / "report.csv")
    return result


class Verdict:
    """Correctness bookkeeping over the calls of one run."""

    def __init__(self, workload: str) -> None:
        self.reference = check.rows(check.reference_body(workload))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, call: dict, seed: int, same_as: dict | None = None) -> None:
        """Score one call made with CLI ``seed``.

        ``same_as`` is an earlier call with the same inputs and threading,
        whose report body this one must equal byte for byte.
        """
        got = check.rows(call["body"])
        failed, messages = check.failed_cells(got, self.reference, seed == REFERENCE_SEED)
        self.attempted += len(self.reference)
        self.failed += failed
        self.messages += messages
        if same_as is not None and call["body"] != same_as["body"]:
            self.messages.append("report body differs between identical calls")

    def add_close(self, call: dict, seed: int, base: dict) -> None:
        """Score a call run under other BLAS threading: equal to ``base`` within RTOL."""
        self.add(call, seed)
        for i, (g, w) in enumerate(zip(check.rows(call["body"]), check.rows(base["body"]))):
            bad = check.row_mismatches(g, w, numeric=True)
            if bad:
                self.messages.append(f"row {i}: {', '.join(bad)} move with BLAS threads")

    @property
    def correct(self) -> bool:
        return not self.messages

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def analysis_figures(calls: list[dict], workload: str) -> dict[str, float]:
    """Medians over the report rows of the calls; failed cells hold NaN and are skipped."""
    rmse_column = "rmse_obs" if workload == "measure" else "rmse_truth"
    rmse, chi2 = [], []
    for call in calls:
        for row in check.rows(call["body"]):
            rmse.append(float(row[rmse_column]))
            chi2.append(2.0 * float(row["j_final"]) / call["state_dim"])
    rmse = [v for v in rmse if math.isfinite(v)]
    chi2 = [v for v in chi2 if math.isfinite(v)]
    if not rmse or not chi2:
        raise RunError(f"{workload}: no cell produced an analysis")
    return {
        "analysis_rmse_p50": statistics.median(rmse),
        "analysis_chi2_p50": statistics.median(chi2),
    }


# Runs -------------------------------------------------------------------------


def plain_run(workload: str, seed: int, seconds: float) -> tuple[Verdict, dict, dict]:
    """Untraced calls, one per call seed; end-to-end medians."""
    verdict = Verdict(workload)
    deadline = time.monotonic() + RUN_LIMIT_S
    seeds = call_seeds(workload, seed, seconds)
    calls: list[dict] = []
    for call_seed in seeds:
        longest = max((c["setup_s"] + c["wall_s"] for c in calls), default=0.0)
        if time.monotonic() + 1.5 * longest > deadline:
            raise RunError(f"{workload} calls take too long for the run limit")
        calls.append(run_call(workload, call_seed, 0, deadline))
        verdict.add(calls[-1], call_seed)

    metrics = {key: statistics.median(c[key] for c in calls)
               for key in ("setup_s", "wall_s", "peak_rss_mb")}
    metrics["cell_ok_ratio"] = 1.0 - verdict.fail_ratio
    figures = analysis_figures(calls, workload)
    metrics["analysis_chi2_p50"] = figures["analysis_chi2_p50"]
    details = {
        "calls": [dict(seed=s, **{k: c[k] for k in ("setup_s", "wall_s", "peak_rss_mb")},
                       report_sha256=check.body_sha256(c["body"]))
                  for s, c in zip(seeds, calls)],
        "fail_ratio": verdict.fail_ratio,
        "analysis_rmse_p50": figures["analysis_rmse_p50"],
        "env": calls[0]["env"],
    }
    return verdict, metrics, details


def traced_run(workload: str, seed: int) -> tuple[Verdict, dict, dict]:
    """Untraced, traced, and traced single-BLAS-thread calls; per-layer metrics."""
    verdict = Verdict(workload)
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_call(workload, seed, 0, deadline)
    verdict.add(plain, seed)
    traced = run_call(workload, seed, 1, deadline)
    verdict.add(traced, seed, same_as=plain)
    single = run_call(workload, seed, 1, deadline, SINGLE_THREAD_ENV)
    verdict.add_close(single, seed, plain)

    metrics = dict(traced["spans"])
    metrics["blas.threads"] = traced["env"]["blas.threads"]
    metrics["nproc"] = traced["env"]["nproc"]
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["analysis_rmse_p50"] = analysis_figures([plain], workload)["analysis_rmse_p50"]
    metrics["fail_ratio"] = verdict.fail_ratio
    metrics["st.wall_s"] = single["wall_s"]
    single_spans = dict(single["spans"], **{"blas.threads": single["env"]["blas.threads"]})
    for key in SINGLE_THREAD_KEYS:
        metrics[f"st.{key}"] = single_spans[key]
    details = {
        "report_sha256": check.body_sha256(plain["body"]),
        "env": traced["env"],
        "single_thread_env": single["env"],
        "single_thread_spans": single["spans"],
    }
    return verdict, metrics, details


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run; writes ``result.json`` and prints the details line."""
    if trace:
        verdict, values, details = traced_run(workload, seed)
        units = per_layer_units()
    else:
        verdict, values, details = plain_run(workload, seed, seconds)
        units = END_TO_END_UNITS
    details.update(workload=workload, seed=seed, trace=trace, messages=verdict.messages)
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir(workload) / "result.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1) + "\n"
    )
    print(json.dumps({"details": details}))
    return result, details


def print_table(results: dict[str, tuple[dict, dict]]) -> None:
    """Human-readable summary of a run over every workload."""
    for workload, (result, details) in results.items():
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        if "fail_ratio" not in result["metrics"]:
            rows += [("fail_ratio", details["fail_ratio"], "ratio"),
                     ("analysis_rmse_p50", details["analysis_rmse_p50"], "1")]
        for name, value, unit in rows:
            print(f"{workload:10s} {name:40s} {value:12.6g} {unit}")
        print(f"{workload:10s} correct={result['correct']} "
              f"failed/attempted={result['failed']}/{result['attempted']}")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description="romda end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=non_negative, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store one call's report body at seed {REFERENCE_SEED} as the reference")
    args = parser.parse_args()

    if not Path("src/romda/__init__.py").is_file():
        print("run from the root of a romda checkout: src/romda is missing", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        check.REFERENCE_DIR.mkdir(exist_ok=True)
        for workload in workloads:
            call = run_call(workload, REFERENCE_SEED, 0, time.monotonic() + RUN_LIMIT_S)
            (check.REFERENCE_DIR / f"{workload}.csv").write_text(call["body"])
        return 0
    try:
        results = {w: run(w, args.seed, args.seconds, args.trace) for w in workloads}
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(results)
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
