"""Named, reproducible random substreams derived from a single run seed."""
from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the substream ``name`` of run ``seed``.

    Streams with distinct names are statistically independent, and the same
    (seed, name) pair always yields the same stream. No global RNG state is
    touched anywhere in the package.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    # crc32 is stable across platforms and Python versions.
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))


def substream_seed(seed: int, name: str) -> int:
    """Derived integer seed for APIs that take a seed rather than a Generator."""
    key = zlib.crc32(name.encode("utf-8"))
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)).generate_state(1)[0])


def split_seed(seed: int, n: int) -> int:
    """Seed of the 75/25 train/validation split of an ``n``-member ensemble
    under run ``seed``; every surrogate build of the package uses it."""
    return substream_seed(seed, f"split/{n}")
