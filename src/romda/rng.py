"""Named, reproducible random substreams derived from a single run seed."""
from __future__ import annotations

import zlib

import numpy as np


def _sequence(seed: int, name: str) -> np.random.SeedSequence:
    """The seed sequence of substream ``name`` of run ``seed``, a
    non-negative integer."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed: need a non-negative integer, got {seed}")
    # crc32 is stable across platforms and Python versions.
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(zlib.crc32(name.encode("utf-8")),))


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the substream ``name`` of run ``seed``.

    Streams with distinct names are statistically independent, and the same
    (seed, name) pair always yields the same stream. No global RNG state is
    touched anywhere in the package.
    """
    return np.random.default_rng(_sequence(seed, name))


def substream_seed(seed: int, name: str) -> int:
    """Derived integer seed for APIs that take a seed rather than a Generator."""
    return int(_sequence(seed, name).generate_state(1)[0])


def split_seed(seed: int, n: int) -> int:
    """Seed of the 75/25 train/validation split of an ``n``-member ensemble
    under run ``seed``; every surrogate build of the package uses it."""
    return substream_seed(seed, f"split/{n}")
