"""One benchmark call in a fresh interpreter: set up, then ``romda.cli.main``.

Run by ``run.py`` from the root of a checkout, never imported. Prints one
JSON line as the last line of its standard output:

* ``setup_s``: from the parent's spawn timestamp to just before
  ``cli.main``, which covers interpreter start, ``import romda`` and input
  generation;
* ``wall_s``: the ``cli.main`` call;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``exit_code``, the environment and, with ``--trace 1``, the span metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path("src").resolve()
sys.path.insert(0, str(SRC))  # the checkout's romda, ahead of any installed copy

# Symbols that report OpenBLAS's thread count, by build flavour.
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(package) -> int:
    """Threads of the OpenBLAS bundled with ``package``; -1 if not found."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def environment() -> dict:
    import numpy
    import scipy

    def blas(package) -> str:
        info = package.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas.threads": _openblas_threads(numpy),
        "scipy_blas_threads": _openblas_threads(scipy),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    args = parser.parse_args()

    import romda
    from romda import cli, toymodel

    if not Path(romda.__file__).resolve().is_relative_to(SRC):
        print(f"romda imported from {romda.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    from workloads import generate_inputs

    argv = generate_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    start = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    result = {
        "exit_code": exit_code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_dim": toymodel.default_grid().n_state,
        "env": environment(),
    }
    if tracer is not None:
        result["spans"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
