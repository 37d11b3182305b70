"""Outside-in spans over romda's public functions.

A :class:`Tracer` replaces each listed function with a timing wrapper in
every ``romda`` module namespace that holds it, so ``from .x import f``
aliases (``experiments.build_podpce``, ``assimilate.cho_solve`` and so on)
are timed as well as the defining module's own name. Nothing inside the
package is edited; :meth:`Tracer.restore` puts the original objects back.

Spans are aggregated in memory per name: call count, total time and self
time (total minus the time spent in traced children). Counters are read
from return values and from the objective/gradient callables handed to the
optimizer.
"""
from __future__ import annotations

import sys
import time

# Layer -> public functions timed as "<layer>.<function>". Names bound from
# scipy (cho_factor, cho_solve) are timed as bound in romda's namespaces,
# never patched inside scipy itself.
SPANS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "experiments": ("run_twin", "run_covariance_grid", "run_bootstrap", "run_measurement"),
    "toymodel": ("propagate", "simulate"),
    "pod": ("fit_pod",),
    "pce": ("select_degree", "fit_lars", "design_matrix", "pce_eval", "pce_jacobian"),
    "surrogate": (
        "build_podpce",
        "build_poden",
        "metamodel_error_covariance",
        "corrected_error_covariance",
        "podpce_predict",
    ),
    "optimize": ("bounded_quasi_newton",),
    "assimilate": (
        "solve_podpce3dvar",
        "solve_poden3dvar",
        "solve_classical_3dvar",
        "podpce_cost",
        "podpce_gradient",
        "cho_factor",
        "cho_solve",
    ),
    "io": ("write_report_csv", "write_timings_csv", "write_plot_csvs", "save_json"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns)
ROOT_SPAN = "cli.main"

# Spans whose self time is surrogate construction or variational solving.
BUILD_SPANS = (
    "toymodel.propagate",
    "toymodel.simulate",
    "pod.fit_pod",
    "pce.select_degree",
    "pce.fit_lars",
    "surrogate.build_podpce",
    "surrogate.build_poden",
)
SOLVE_SPANS = (
    "optimize.bounded_quasi_newton",
    "assimilate.solve_podpce3dvar",
    "assimilate.solve_poden3dvar",
    "assimilate.solve_classical_3dvar",
    "assimilate.podpce_cost",
    "assimilate.podpce_gradient",
    "assimilate.cho_factor",
    "assimilate.cho_solve",
    "pce.pce_eval",
    "pce.pce_jacobian",
    "surrogate.podpce_predict",
    "surrogate.metamodel_error_covariance",
    "surrogate.corrected_error_covariance",
)

COUNTERS = (
    "optimize.solves",
    "optimize.iterations",
    "optimize.f_calls",
    "optimize.grad_calls",
    "optimize.accepted",
    "optimize.backtracks",
    "optimize.converged",
    "assimilate.classical_model_runs",
)


def _romda_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "romda" or name.startswith("romda."))]


class Tracer:
    """Patch, time and restore. One instance per traced call."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # Installation -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function under every romda name bound to it."""
        modules = _romda_modules()
        by_name = {m.__name__: m for m in modules}
        counting = {
            "optimize.bounded_quasi_newton": self._count_quasi_newton,
            "assimilate.solve_classical_3dvar": self._count_classical,
        }
        for layer, functions in SPANS.items():
            home = by_name[f"romda.{layer}"]
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._timed(name, original)
                if name in counting:
                    wrapper = counting[name](wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # Timing and counting --------------------------------------------------------

    def _timed(self, name: str, fn):
        stats = self.stats[name]
        stack = self._child_time
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return timed

    def _count_quasi_newton(self, solve):
        counters = self.counters

        def counted(f, grad, *args, **kwargs):
            calls = [0, 0]

            def f_counted(x):
                calls[0] += 1
                return f(x)

            def grad_counted(x):
                calls[1] += 1
                return grad(x)

            result = solve(f_counted, grad_counted, *args, **kwargs)
            accepted = len(result.f_trace) - 1
            trials = calls[0] - 1  # the first call scores the starting point
            counters["optimize.solves"] += 1
            counters["optimize.iterations"] += result.iterations
            counters["optimize.f_calls"] += calls[0]
            counters["optimize.grad_calls"] += calls[1]
            counters["optimize.accepted"] += accepted
            counters["optimize.backtracks"] += trials - accepted
            counters["optimize.converged"] += int(result.converged)
            return result

        return counted

    def _count_classical(self, solve):
        counters = self.counters

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            counters["assimilate.classical_model_runs"] += result.evaluations
            return result

        return counted

    # Results ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: span calls/total/self and counter ratios."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, total, self_time = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_time
        c = self.counters
        out["optimize.iterations"] = c["optimize.iterations"]
        out["optimize.f_calls"] = c["optimize.f_calls"]
        out["optimize.grad_calls"] = c["optimize.grad_calls"]
        out["optimize.backtracks"] = c["optimize.backtracks"]
        trials = c["optimize.f_calls"] - c["optimize.solves"]
        out["optimize.accept_ratio"] = c["optimize.accepted"] / trials if trials else 0.0
        solves = c["optimize.solves"]
        out["optimize.converged_ratio"] = c["optimize.converged"] / solves if solves else 0.0
        out["assimilate.classical_model_runs"] = c["assimilate.classical_model_runs"]
        build = sum(self.stats[n][2] for n in BUILD_SPANS)
        solve = sum(self.stats[n][2] for n in SOLVE_SPANS)
        root = self.stats[ROOT_SPAN][1]
        out["layer.build.self_s"] = build
        out["layer.solve.self_s"] = solve
        out["layer.build.share"] = build / root if root else 0.0
        out["layer.solve.share"] = solve / root if root else 0.0
        out["trace.span_calls"] = sum(stats[0] for stats in self.stats.values())
        return out

