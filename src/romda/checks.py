"""The input rules shared by the library, the sweep configurations and the
command line. Each rejection is a ``ValueError`` whose message starts with
the field (or config key) it names."""
from __future__ import annotations

from typing import Callable

import numpy as np


def check_each(field: str, values: tuple, ok: Callable, rule: str) -> None:
    """Reject an empty ``values`` or its first entry that fails ``ok``; the
    message starts with ``field``."""
    if not values:
        raise ValueError(f"{field}: need at least one entry")
    for value in values:
        if not ok(value):
            raise ValueError(f"{field}: {rule}, got {value!r}")


# (ok, rule) of an observation noise level and of an EVR threshold.
NOISE = (lambda level: 0.0 < level < 1.0,
         "noise levels lie strictly in (0, 1), so the observation covariance is positive definite")
EVR = (lambda tau: 0.0 < tau <= 1.0, "EVR threshold must be in (0, 1]")


def check_distinct(field: str, values: tuple) -> None:
    """Reject an entry of a list field that repeats an earlier one."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{field}: entries must be distinct, got {value!r} twice")


def check_counts(field: str, values: tuple, low: int, rule: str) -> None:
    """Reject an entry of a count field that is no integer (a bool is
    none) or, by ``rule``, is below ``low``."""
    check_each(field, values, lambda k: isinstance(k, (int, np.integer)) and not isinstance(k, bool),
               "counts must be integers")
    check_each(field, values, lambda k: k >= low, rule)


def check_reals(field: str, values: tuple, ok: Callable = lambda v: True, rule: str = "") -> None:
    """Reject an entry of a float field that is no finite number (a bool or
    text is none) or, by ``rule``, fails ``ok``."""
    check_each(field, values, lambda v: isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) and np.isfinite(v), "values must be finite numbers")
    check_each(field, values, ok, rule)
