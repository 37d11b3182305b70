"""Batch command-line entry points.

Every run takes a JSON config (strict keys), an integer seed, and an output
directory; flags override config values. The effective configuration is
echoed into the output directory and its hash stamped into every output
file. Exit codes: 0 success, 1 validation/configuration error, 2 numerical
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, io, toymodel
from .assimilate import AssimilationProblem, solve_poden3dvar, solve_podpce3dvar
from .experiments import (
    MeasurementConfig,
    TwinConfig,
    measurement_noise_diag,
    run_bootstrap,
    run_covariance_grid,
    run_measurement,
    run_twin,
)
from .pce import PceConfig, select_degree, split_members
from .pod import SnapshotMatrix, evr, fit_pod, truncate
from .rng import split_seed
from .surrogate import build_poden, build_podpce, observation_covariance

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    raw.pop("_meta", None)
    raw.pop("schema", None)
    return raw


def _check_keys(cfg: dict, allowed: set[str], command: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")


def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ConfigError(f"{command} config requires {key!r}")
    return cfg[key]


def _tuplify(cfg: dict, cls) -> dict:
    """JSON lists become tuples where the config dataclass holds tuples."""
    out = dict(cfg)
    for field in dataclasses.fields(cls):
        if field.name in out and isinstance(out[field.name], list):
            out[field.name] = tuple(out[field.name])
    return out


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out: Path, command: str, cfg: dict, seed: int) -> str:
    effective = {"command": command, "seed": seed, **cfg}
    cfg_hash = io.config_hash(effective)
    io.save_json(out / "config_used.json", "config", {"effective": effective},
                 seed=seed, cfg_hash=cfg_hash)
    return cfg_hash


def _summary(line: str) -> None:
    print(line)


# Command handlers ------------------------------------------------------------------


def _cmd_sample(args, cfg: dict) -> int:
    _check_keys(cfg, {"n"}, "sample")
    n = int(_require(cfg, "n", "sample"))
    out = _outdir(args)
    cfg_hash = _echo_config(out, "sample", cfg, args.seed)
    draws = toymodel.sample_parameters(n, args.seed)
    snap = SnapshotMatrix(
        data=draws.T,
        row_labels=toymodel.PARAMETER_NAMES,
        member_ids=tuple(f"member{j}" for j in range(n)),
    )
    io.write_snapshot_csv(out / "parameters.csv", snap, seed=args.seed, cfg_hash=cfg_hash)
    _summary(f"sample: {n} members -> {out / 'parameters.csv'}")
    return EXIT_OK


def _cmd_simulate(args, cfg: dict) -> int:
    _check_keys(cfg, {"parameters_csv"}, "simulate")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "simulate", cfg, args.seed)
    params = io.read_snapshot_csv(_require(cfg, "parameters_csv", "simulate"))
    states = toymodel.propagate(params.data.T)
    grid = toymodel.default_grid()
    labels = tuple(
        f"{variable}@P{p + 1}@t{t}"
        for variable in toymodel.VARIABLES
        for p in range(toymodel.N_STATIONS)
        for t in range(grid.n_times)
    )
    snap = SnapshotMatrix(data=states, row_labels=labels, member_ids=params.member_ids)
    io.write_snapshot_csv(out / "states.csv", snap, seed=args.seed, cfg_hash=cfg_hash)
    _summary(f"simulate: {states.shape[1]} members -> {out / 'states.csv'}")
    return EXIT_OK


def _truncation(cfg: dict) -> dict:
    modes = cfg.get("modes")
    threshold = cfg.get("evr_threshold")
    if (modes is None) == (threshold is None):
        raise ConfigError("specify exactly one of 'modes' or 'evr_threshold'")
    if modes is not None:
        return {"modes": int(modes)}
    return {"evr_threshold": float(threshold)}


def _cmd_fit_pod(args, cfg: dict) -> int:
    _check_keys(cfg, {"states_csv", "modes", "evr_threshold"}, "fit-pod")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "fit-pod", cfg, args.seed)
    snap = io.read_snapshot_csv(_require(cfg, "states_csv", "fit-pod"))
    basis = truncate(fit_pod(snap), **_truncation(cfg))
    io.save_pod_basis(out / "pod_basis.json", basis, seed=args.seed, cfg_hash=cfg_hash)
    _summary(
        f"fit-pod: retained d={basis.retained} (EVR {evr(basis, basis.retained):.6f}) "
        f"-> {out / 'pod_basis.json'}"
    )
    return EXIT_OK


def _cmd_fit_pce(args, cfg: dict) -> int:
    _check_keys(cfg, {"parameters_csv", "targets_csv", "bounds", "max_degree"}, "fit-pce")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "fit-pce", cfg, args.seed)
    params = io.read_snapshot_csv(_require(cfg, "parameters_csv", "fit-pce")).data.T  # (n, m_x)
    targets = io.read_snapshot_csv(_require(cfg, "targets_csv", "fit-pce")).data.T  # (n, d)
    bounds = np.asarray(_require(cfg, "bounds", "fit-pce"), dtype=float)
    n = params.shape[0]
    if targets.shape[0] != n:
        raise ConfigError("parameters and targets must have the same member count")
    train, val = split_members(n, split_seed(args.seed, n))
    model = select_degree(
        params[train], targets[train], params[val], targets[val],
        PceConfig(bounds, int(cfg.get("max_degree", 3))),
    )
    io.save_pce_model(out / "pce_model.json", model, seed=args.seed, cfg_hash=cfg_hash)
    _summary(
        f"fit-pce: degrees {model.selected_degrees} -> {out / 'pce_model.json'}"
    )
    return EXIT_OK


def _cmd_build_surrogate(args, cfg: dict) -> int:
    allowed = {"kind", "parameters_csv", "states_csv", "modes", "evr_threshold",
               "max_degree", "bounds"}
    _check_keys(cfg, allowed, "build-surrogate")
    kind = _require(cfg, "kind", "build-surrogate")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "build-surrogate", cfg, args.seed)
    params = io.read_snapshot_csv(_require(cfg, "parameters_csv", "build-surrogate")).data
    states = io.read_snapshot_csv(_require(cfg, "states_csv", "build-surrogate")).data
    if kind == "podpce":
        bounds = np.asarray(_require(cfg, "bounds", "build-surrogate"), dtype=float)
        surrogate = build_podpce(
            params,
            states,
            PceConfig(bounds, int(cfg.get("max_degree", 3))),
            split_seed=split_seed(args.seed, params.shape[1]),
            **_truncation(cfg),
        )
        io.save_podpce(out / "surrogate.json", surrogate, seed=args.seed, cfg_hash=cfg_hash)
        detail = f"d={surrogate.d}, degrees {surrogate.pce.selected_degrees}"
    elif kind == "poden":
        surrogate = build_poden(params, states, **_truncation(cfg))
        io.save_poden(out / "surrogate.json", surrogate, seed=args.seed, cfg_hash=cfg_hash)
        detail = f"d={surrogate.d}"
    else:
        raise ConfigError(f"unknown surrogate kind {kind!r}, expected podpce or poden")
    _summary(f"build-surrogate[{kind}]: {detail} -> {out / 'surrogate.json'}")
    return EXIT_OK


def _observation_diag(y_o: np.ndarray, cfg: dict) -> np.ndarray:
    if "r_diag" in cfg:
        diag = np.asarray(cfg["r_diag"], dtype=float)
        if diag.shape != y_o.shape:
            raise ConfigError("r_diag length must match the observation vector")
        if np.any(diag <= 0.0):
            raise ConfigError("observation covariance must be positive definite")
        return diag
    noise = float(cfg.get("noise_level", 0.0))
    if noise <= 0.0:
        raise ConfigError(
            "observation covariance must be positive definite: set noise_level > 0 or r_diag"
        )
    if y_o.shape == (toymodel.default_grid().n_state,):
        return measurement_noise_diag(y_o, noise)
    scale = float(np.std(y_o))
    return np.full(y_o.shape, (noise * max(scale, 1e-12)) ** 2)


def _cmd_assimilate(args, cfg: dict) -> int:
    allowed = {"surrogate", "kind", "observations_csv", "noise_level", "r_diag",
               "covariance", "alpha_b", "alpha_r", "x_b", "background_diag", "bounds"}
    _check_keys(cfg, allowed, "assimilate")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "assimilate", cfg, args.seed)
    kind = _require(cfg, "kind", "assimilate")
    surrogate_path = _require(cfg, "surrogate", "assimilate")
    obs = io.read_snapshot_csv(_require(cfg, "observations_csv", "assimilate"))
    if obs.data.shape[1] != 1:
        raise ConfigError("observations CSV must hold exactly one member column")
    y_o = obs.data[:, 0]
    r_diag = _observation_diag(y_o, cfg)

    if kind == "podpce":
        surrogate = io.load_podpce(surrogate_path)
        m_x = surrogate.parameter_bounds.shape[0]
        bounds = np.asarray(cfg.get("bounds", surrogate.parameter_bounds), dtype=float)
    elif kind == "poden":
        surrogate = io.load_poden(surrogate_path)
        m_x = surrogate.m_x
        if "bounds" not in cfg:
            raise ConfigError("poden assimilation requires explicit 'bounds'")
        bounds = np.asarray(cfg["bounds"], dtype=float)
    else:
        raise ConfigError(f"unknown surrogate kind {kind!r}")

    x_b = np.asarray(cfg.get("x_b", np.zeros(m_x)), dtype=float)
    b_diag = np.asarray(cfg.get("background_diag", np.ones(m_x)), dtype=float)
    if np.any(b_diag <= 0.0):
        raise ConfigError("background covariance must be positive definite")

    covariance = cfg.get("covariance", "r")
    problem = AssimilationProblem(
        x_b=x_b,
        background_cov=np.diag(b_diag),
        y_o=y_o,
        observation_cov=observation_covariance(covariance, surrogate, r_diag),
        bounds=bounds,
        alpha_b=float(cfg.get("alpha_b", 1.0)),
        alpha_r=float(cfg.get("alpha_r", 1.0)),
    )
    if kind == "podpce":
        analysis = solve_podpce3dvar(surrogate, problem)
    else:
        analysis = solve_poden3dvar(surrogate, problem)
    io.save_json(
        out / "analysis.json",
        "analysis",
        {
            "x_a": analysis.x_a.tolist(),
            "y_a": analysis.y_a.tolist(),
            "nu_a": None if analysis.nu_a is None else analysis.nu_a.tolist(),
            "j_final": analysis.j_final,
            "cost_trace": analysis.cost_trace,
            "evaluations": analysis.evaluations,
            "converged": analysis.converged,
            "reason": analysis.reason,
            "in_bounds": analysis.in_bounds,
        },
        seed=args.seed,
        cfg_hash=cfg_hash,
    )
    _summary(
        f"assimilate[{kind}/{covariance}]: J={analysis.j_final:.6g} "
        f"converged={analysis.converged} -> {out / 'analysis.json'}"
    )
    return EXIT_OK


def _sweep_config(args, cfg: dict, cls, command: str, extra: frozenset = frozenset()):
    """Sweep configuration of type ``cls`` from the config keys (minus the
    ``extra`` keys the command reads itself) and the run seed."""
    _check_keys(cfg, {f.name for f in dataclasses.fields(cls)} | extra, command)
    merged = _tuplify({k: v for k, v in cfg.items() if k not in extra}, cls)
    merged["seed"] = args.seed
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _write_experiment_outputs(out: Path, report, seed: int, cfg_hash: str) -> None:
    io.write_report_csv(out / "report.csv", report, seed=seed, cfg_hash=cfg_hash)
    io.write_timings_csv(out / "timings.csv", report, seed=seed, cfg_hash=cfg_hash)
    io.write_plot_csvs(out, report, seed=seed, cfg_hash=cfg_hash)
    failures = sum(1 for row in report.rows if row.error)
    io.save_json(
        out / "summary.json",
        "report",
        {
            "experiment": report.experiment,
            "cells": len(report.rows),
            "failures": failures,
            "extras": report.extras,
        },
        seed=seed,
        cfg_hash=cfg_hash,
    )


def _cmd_twin(args, cfg: dict) -> int:
    config = _sweep_config(args, cfg, TwinConfig, "twin")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "twin", cfg, args.seed)
    report = run_twin(config)
    _write_experiment_outputs(out, report, args.seed, cfg_hash)
    _summary(f"twin: {len(report.rows)} cells -> {out / 'report.csv'} (seed {args.seed})")
    return EXIT_OK


def _cmd_covgrid(args, cfg: dict) -> int:
    config = _sweep_config(args, cfg, TwinConfig, "covgrid")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "covgrid", cfg, args.seed)
    report = run_covariance_grid(config)
    _write_experiment_outputs(out, report, args.seed, cfg_hash)
    _summary(
        f"covgrid: {len(report.rows)} cells ({len(config.alpha_grid)}x"
        f"{len(config.alpha_grid)}) -> {out / 'report.csv'}"
    )
    return EXIT_OK


def _cmd_bootstrap(args, cfg: dict) -> int:
    config = _sweep_config(args, cfg, TwinConfig, "bootstrap")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "bootstrap", cfg, args.seed)
    report = run_bootstrap(config)
    _write_experiment_outputs(out, report, args.seed, cfg_hash)
    _summary(
        f"bootstrap: {config.bootstrap_replicates} replicates -> {out / 'report.csv'}"
    )
    return EXIT_OK


def _cmd_measure(args, cfg: dict) -> int:
    config = _sweep_config(
        args, cfg, MeasurementConfig, "measure", frozenset({"observations_csv"})
    )
    obs = io.read_snapshot_csv(_require(cfg, "observations_csv", "measure"))
    if obs.data.shape[1] != 1:
        raise ConfigError("observations CSV must hold exactly one member column")
    out = _outdir(args)
    cfg_hash = _echo_config(out, "measure", cfg, args.seed)
    report = run_measurement(config, obs.data[:, 0])
    _write_experiment_outputs(out, report, args.seed, cfg_hash)
    _summary(
        f"measure: classical rmse_obs={report.extras['classical_rmse_obs']:.6g}, "
        f"{len(report.rows)} rows -> {out / 'report.csv'}"
    )
    return EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "fit-pod": _cmd_fit_pod,
    "fit-pce": _cmd_fit_pce,
    "build-surrogate": _cmd_build_surrogate,
    "assimilate": _cmd_assimilate,
    "twin": _cmd_twin,
    "covgrid": _cmd_covgrid,
    "bootstrap": _cmd_bootstrap,
    "measure": _cmd_measure,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="romda",
        description="Surrogate-based variational assimilation: sampling, surrogate "
        "construction, solvers and experiment sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"romda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON configuration file")
        cmd.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
        cmd.add_argument("--out", default="romda_out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    # LinAlgError subclasses ValueError, so the numerical branch comes first.
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, io.SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
