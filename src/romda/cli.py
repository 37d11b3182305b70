"""Batch command-line entry points.

Every run takes a JSON config (strict keys), an integer seed (``--seed``,
the only seed) and an output directory. A command computes everything
first; only on success does ``main`` create ``--out``, echo the effective
configuration into it and write the files stamped with its hash, so output
appears only on exit 0. A rejected field or input file starts its message
with the key. Exit codes: 0 success, 1 validation or configuration error
(a bad ``--out`` included), 2 numerical failure, 3 a worker process of a
pooled sweep was lost. The toy-model sweeps (twin, covgrid, bootstrap,
measure) call the drivers of :mod:`romda.experiments`, which own their BLAS
thread count; build-surrogate enters the same one-thread scope.

``build-surrogate`` is the one command that fits. It builds through the
drivers' ``build_surrogates``, standardizing parameters by the midpoint and
half-range of the required ``bounds`` as the drivers do with the toy box, and
stores that scaling and the box with the POD basis (and, for POD-PCE, the
PCE) in the surrogate document.
``assimilate`` takes the kind, the box and the default background from the
document, poses the problem with ``pose_problem`` like the drivers, and
reports ``x_a`` and ``y_a`` in physical units.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, io, toymodel
from .assimilate import _check_background, pose_problem, solve_poden3dvar, solve_podpce3dvar
from .checks import EVR, NOISE, check_counts, check_reals
from .experiments import (
    SURROGATE_KINDS,
    MeasurementConfig,
    TwinConfig,
    _one_blas_thread,
    _physical,
    build_surrogates,
    measurement_noise_diag,
    run_bootstrap,
    run_covariance_grid,
    run_measurement,
    run_twin,
)
from .pce import SPLIT_MIN_MEMBERS, OutsideBoxError, check_degree
from .pod import ModeCountError, SnapshotMatrix, evr
from .rng import split_seed
from .surrogate import PodPceSurrogate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_WORKER_LOST = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return raw


def _check_keys(cfg: dict, allowed: set[str], command: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {unknown}")


def _require(cfg: dict, key: str, command: str):
    if key not in cfg:
        raise ValueError(f"{command} config requires {key!r}")
    return cfg[key]


def _reals(cfg: dict, key: str, size: int, *rule) -> np.ndarray:
    """``cfg[key]``, a list of ``size`` finite numbers each passing ``rule``
    (ok, text), as an array; the message names ``key``."""
    values = cfg[key]
    if not isinstance(values, list) or len(values) != size:
        got = f"{len(values)} entries" if isinstance(values, list) else repr(values)
        raise ValueError(f"{key}: need a list of {size} numbers, got {got}")
    check_reals(key, tuple(values), *rule)
    return np.array(values, dtype=float)


def _read(cfg: dict, key: str, command: str, read: Callable = io.read_snapshot_csv):
    """``read`` of the file that config key ``key`` names. A file that cannot
    be read, or a document that lacks a field (the readers look up nothing
    but document fields), fails naming the key and the path; a malformed
    one, naming the key. A numerical failure stays one."""
    path = _require(cfg, key, command)
    if not isinstance(path, str):
        raise ValueError(f"{key}: need a file path, got {path!r}")
    try:
        return read(path)
    except OSError as exc:
        raise ValueError(f"{key}: cannot read {path}: {exc.strerror or exc}") from None
    except np.linalg.LinAlgError:
        raise  # a numerical failure, which main reports as one
    except KeyError as exc:
        raise ValueError(f"{key}: {path} has no field {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


class _Output(NamedTuple):
    """What a command writes once it has computed everything."""
    writers: tuple[Callable, ...]  # each called in order as write(out, seed=, cfg_hash=)
    summary: Callable[[Path], str]  # summary(out), the line printed after them


def _check_out(path: str) -> None:
    """Reject an ``--out`` whose nearest existing path (itself or an ancestor) is no directory."""
    existing = next((p for p in (Path(path), *Path(path).parents) if os.path.exists(p)), None)
    if existing is not None and not os.path.isdir(existing):
        raise ValueError(f"--out: {existing} exists and is not a directory")


def _write(args, cfg: dict, output: _Output) -> None:
    """The one output step: create ``--out``, echo the effective config into
    ``config_used.json``, call the writers and print the summary."""
    out = Path(args.out)
    effective = {"command": args.command, "seed": args.seed, **cfg}
    stamp = {"seed": args.seed, "cfg_hash": io.config_hash(effective)}
    try:
        out.mkdir(parents=True, exist_ok=True)
        io.save_json(out / "config_used.json", "config", {"effective": effective}, **stamp)
        for write in output.writers:
            write(out, **stamp)
    except OSError as exc:
        raise ValueError(f"--out: {exc}") from None
    print(output.summary(out))


# Command handlers ------------------------------------------------------------------
# Each checks its config, computes, and returns the _Output it writes. The
# writers look the io functions up by module name when they are called, so
# wrapping those names (as a tracer does) works.


def _cmd_sample(args, cfg: dict) -> _Output:
    _check_keys(cfg, {"n"}, "sample")
    n = _require(cfg, "n", "sample")
    check_counts("n", (n,), 1, "sample at least one member")
    draws = toymodel.sample_parameters(n, args.seed)
    snap = SnapshotMatrix(
        data=draws.T,
        row_labels=toymodel.PARAMETER_NAMES,
        member_ids=tuple(f"member{j}" for j in range(n)),
    )
    return _Output(
        (lambda out, **stamp: io.write_snapshot_csv(out / "parameters.csv", snap, **stamp),),
        lambda out: f"sample: {n} members -> {out / 'parameters.csv'}",
    )


def _read_parameters(path: str) -> SnapshotMatrix:
    """The toy-model parameter CSV at ``path``, its members checked against the box."""
    params = io.read_snapshot_csv(path)
    toymodel.check_bounds(params.data.T)
    return params


def _cmd_simulate(args, cfg: dict) -> _Output:
    _check_keys(cfg, {"parameters_csv"}, "simulate")
    params = _read(cfg, "parameters_csv", "simulate", _read_parameters)
    states = toymodel.propagate(params.data.T)
    grid = toymodel.default_grid()
    labels = tuple(
        f"{variable}@P{p + 1}@t{t}"
        for variable in toymodel.VARIABLES
        for p in range(toymodel.N_STATIONS)
        for t in range(grid.n_times)
    )
    snap = SnapshotMatrix(data=states, row_labels=labels, member_ids=params.member_ids)
    return _Output(
        (lambda out, **stamp: io.write_snapshot_csv(out / "states.csv", snap, **stamp),),
        lambda out: f"simulate: {states.shape[1]} members -> {out / 'states.csv'}",
    )


def _truncation(cfg: dict) -> dict:
    """The one of ``modes`` and ``evr_threshold`` that is set, checked
    before any file is read."""
    modes = cfg.get("modes")
    threshold = cfg.get("evr_threshold")
    if (modes is None) == (threshold is None):
        raise ValueError("modes: specify exactly one of 'modes' or 'evr_threshold'")
    if modes is not None:
        check_counts("modes", (modes,), 1, "mode counts start at 1")
        return {"modes": modes}
    check_reals("evr_threshold", (threshold,), *EVR)
    return {"evr_threshold": threshold}


# build-surrogate runs on one BLAS thread, as the sweeps do
# (:func:`~romda.experiments._one_blas_thread`).
@_one_blas_thread()
def _cmd_build_surrogate(args, cfg: dict) -> _Output:
    allowed = {"kind", "parameters_csv", "states_csv", "modes", "evr_threshold",
               "max_degree", "bounds"}
    _check_keys(cfg, allowed, "build-surrogate")
    kind = _require(cfg, "kind", "build-surrogate")
    if kind not in SURROGATE_KINDS:
        raise ValueError(f"kind: unknown surrogate kind {kind!r}, expected podpce or poden")
    if kind == "poden" and "max_degree" in cfg:
        raise ValueError("max_degree applies to podpce only: a poden surrogate has no polynomial degree")
    bounds = _require(cfg, "bounds", "build-surrogate")  # build_surrogates checks it
    max_degree = cfg.get("max_degree", 3)
    truncation = _truncation(cfg)
    params = _read(cfg, "parameters_csv", "build-surrogate").data
    if kind == "podpce":
        check_degree("max_degree", max_degree, params.shape[0])
    states = _read(cfg, "states_csv", "build-surrogate").data
    # POD-PCE splits its members 75/25; the state standardizer needs two.
    fewest = SPLIT_MIN_MEMBERS if kind == "podpce" else 2
    if params.shape[1] < fewest:
        raise ValueError(f"parameters_csv: need at least {fewest} members for a {kind} "
                         f"surrogate, got {params.shape[1]}")
    if states.shape[1] != params.shape[1]:
        raise ValueError(f"states_csv: {states.shape[1]} members, parameters_csv has {params.shape[1]}")
    try:
        built, scaling = build_surrogates(
            params, states, bounds, (kind,), pce_degree=max_degree,
            split_seed=split_seed(args.seed, params.shape[1]), **truncation,
        )
    except ModeCountError as exc:
        raise ValueError(f"modes: {exc}") from None
    except OutsideBoxError as exc:
        raise ValueError(f"parameters_csv: {exc}") from None
    surrogate = built[kind]
    basis = surrogate.state_basis if kind == "podpce" else surrogate.basis
    detail = f"d={surrogate.d} (EVR {evr(basis, surrogate.d):.6f})"
    if kind == "podpce":
        detail += f", degrees {surrogate.pce.selected_degrees}"
    return _Output(
        (lambda out, **stamp: io.save_surrogate(out / "surrogate.json", surrogate, scaling, **stamp),),
        lambda out: f"build-surrogate[{kind}]: {detail} -> {out / 'surrogate.json'}",
    )


def _read_observation(cfg: dict, command: str, m_y: int) -> np.ndarray:
    """The one observation column of ``observations_csv``, of ``m_y`` entries."""
    obs = _read(cfg, "observations_csv", command)
    if obs.data.shape[1] != 1:
        raise ValueError("observations_csv: the CSV must hold exactly one member column")
    if obs.data.shape[0] != m_y:
        raise ValueError(f"observations_csv: need {m_y} entries, one per state component, "
                         f"got {obs.data.shape[0]}")
    return obs.data[:, 0]


def _observation_diag(y_o: np.ndarray, cfg: dict) -> np.ndarray:
    if "r_diag" in cfg:
        r_diag = _reals(cfg, "r_diag", y_o.size, lambda v: v > 0.0, "observation variances must be positive")
        if "noise_level" in cfg:
            raise ValueError("noise_level: the observation covariance takes noise_level or r_diag, not both")
        return r_diag
    if "noise_level" not in cfg:
        raise ValueError("noise_level: the observation covariance needs noise_level or r_diag")
    noise = cfg["noise_level"]
    check_reals("noise_level", (noise,), *NOISE)
    if y_o.shape == (toymodel.default_grid().n_state,):
        return measurement_noise_diag(y_o, noise)
    scale = float(np.std(y_o))
    return np.full(y_o.shape, (noise * max(scale, 1e-12)) ** 2)


def _cmd_assimilate(args, cfg: dict) -> _Output:
    allowed = {"surrogate", "observations_csv", "noise_level", "r_diag", "covariance",
               "alpha_b", "alpha_r", "x_b", "background_diag"}
    _check_keys(cfg, allowed, "assimilate")
    surrogate, scaling = _read(cfg, "surrogate", "assimilate", io.load_surrogate)
    y_o = _read_observation(cfg, "assimilate", scaling.states.mean.size)
    # Physical background settings, checked against the box and then mapped
    # like everything else the solver sees; the problem checks the alphas.
    m_x = len(scaling.bounds)
    x_b = None
    if "x_b" in cfg:
        x_b = _reals(cfg, "x_b", m_x)
        _check_background(x_b, scaling.bounds)
        x_b = scaling.params.transform(x_b)
    background_cov = None
    if "background_diag" in cfg:
        b_diag = _reals(cfg, "background_diag", m_x, lambda v: v > 0.0,
                        "background variances must be positive")
        background_cov = np.diag(scaling.params.variance_diag(b_diag))
    alphas = {key: cfg.get(key, 1.0) for key in ("alpha_b", "alpha_r")}
    covariance = cfg.get("covariance", "r")
    problem = pose_problem(
        surrogate, scaling, y_o, _observation_diag(y_o, cfg), covariance,
        x_b=x_b, background_cov=background_cov, **alphas,
    )
    if isinstance(surrogate, PodPceSurrogate):
        kind, analysis = "podpce", solve_podpce3dvar(surrogate, problem)
    else:
        kind, analysis = "poden", solve_poden3dvar(surrogate, problem)
    document = {
        "x_a": _physical(scaling, analysis.x_a)[0].tolist(),
        "y_a": scaling.states.inverse(analysis.y_a).tolist(),
        "nu_a": None if analysis.nu_a is None else analysis.nu_a.tolist(),
        **{key: getattr(analysis, key)
           for key in ("j_final", "cost_trace", "evaluations", "converged", "reason", "in_bounds")},
    }
    return _Output(
        (lambda out, **stamp: io.save_json(out / "analysis.json", "analysis", document, **stamp),),
        lambda out: f"assimilate[{kind}/{covariance}]: J={analysis.j_final:.6g} "
        f"converged={analysis.converged} -> {out / 'analysis.json'}",
    )


def _sweep_config(args, cfg: dict, cls, command: str, extra: frozenset = frozenset()):
    """Sweep configuration of type ``cls`` from the config keys (minus the
    ``extra`` keys the command reads itself) and the run seed, which only
    ``--seed`` sets; ``cls`` checks its own fields."""
    _check_keys(cfg, {f.name for f in dataclasses.fields(cls)} - {"seed"} | extra, command)
    return cls(**{k: v for k, v in cfg.items() if k not in extra}, seed=args.seed)


class _Sweep(NamedTuple):
    config_type: type
    # driver(config), or driver(config, y_o) when observed; each calls the
    # driver by its module name, so wrapping that name (as a tracer does) works.
    driver: Callable
    summary: Callable[..., str]  # summary(config, report, report_path)
    observed: bool = False  # also reads one observation vector, observations_csv


_SWEEPS = {
    "twin": _Sweep(
        TwinConfig, lambda config: run_twin(config),
        lambda config, report, path: f"twin: {len(report.rows)} cells -> {path} (seed {config.seed})",
    ),
    "covgrid": _Sweep(
        TwinConfig, lambda config: run_covariance_grid(config),
        lambda config, report, path: f"covgrid: {len(report.rows)} cells "
        f"({len(config.alpha_grid)}x{len(config.alpha_grid)}) -> {path}",
    ),
    "bootstrap": _Sweep(
        TwinConfig, lambda config: run_bootstrap(config),
        lambda config, report, path: f"bootstrap: {config.bootstrap_replicates} replicates -> {path}",
    ),
    "measure": _Sweep(
        MeasurementConfig, lambda config, y_o: run_measurement(config, y_o),
        lambda config, report, path: "measure: classical rmse_obs="
        f"{report.rows[0].rmse_obs:.6g}, {len(report.rows)} rows -> {path}",
        observed=True,
    ),
}


def _cmd_sweep(args, cfg: dict) -> _Output:
    sweep = _SWEEPS[args.command]
    extra = frozenset({"observations_csv"} if sweep.observed else ())
    config = _sweep_config(args, cfg, sweep.config_type, args.command, extra)
    m_y = toymodel.default_grid().n_state
    inputs = [_read_observation(cfg, args.command, m_y)] if sweep.observed else []
    report = sweep.driver(config, *inputs)
    return _Output(
        (
            lambda out, **stamp: io.write_report_csv(out / "report.csv", report, **stamp),
            lambda out, **stamp: io.write_timings_csv(out / "timings.csv", report, **stamp),
            lambda out, **stamp: io.write_plot_csvs(out, report, **stamp),
            lambda out, **stamp: io.save_json(out / "summary.json", "report", report.extras, **stamp),
        ),
        lambda out: sweep.summary(config, report, out / "report.csv"),
    )


_COMMANDS = {
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "build-surrogate": _cmd_build_surrogate,
    "assimilate": _cmd_assimilate,
    **dict.fromkeys(_SWEEPS, _cmd_sweep),
}


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, the entropy of every substream."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return int(text)


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
        cmd.add_argument("--seed", type=_seed, default=0, help="run seed (default 0)")
        cmd.add_argument("--out", default="romda_out", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config)
        _check_out(args.out)
        _write(args, cfg, _COMMANDS[args.command](args, cfg))
        return EXIT_OK
    # A pool whose worker died raises BrokenProcessPool, a BrokenExecutor
    # and so a RuntimeError: it is no numerical failure of the inputs.
    # The base class is caught so that importing the CLI loads no pool.
    except BrokenExecutor as exc:
        print(f"worker process lost: {exc}", file=sys.stderr)
        return EXIT_WORKER_LOST
    # LinAlgError subclasses ValueError, so the numerical branch comes first.
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
