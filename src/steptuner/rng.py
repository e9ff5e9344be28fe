"""Deterministic randomness keyed per sample.

Every random quantity is drawn from a generator seeded by an integer key
tuple, e.g. (master seed, step index, sample index). Because each sample
owns its seed, a row's values depend only on its key, never on the batch
size or on which other rows are drawn with it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

# Purpose tags keep seed key tuples disjoint across uses of the same master
# seed. Values are arbitrary but frozen: changing them changes all outputs.
PURPOSE_TUNE = 1
PURPOSE_PATHS = 2
PURPOSE_DATA = 3
PURPOSE_EVAL = 4
PURPOSE_PROJ = 5


def check_seed(seed: int, name: str = "seed") -> None:
    """Seeds are SeedSequence entropy, which must be a non-negative integer."""
    if seed < 0:
        raise DomainError(f"{name}: must be >= 0, got {seed}")


def derive_rng(*key: int) -> np.random.Generator:
    """Generator seeded by an integer key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def per_sample_map(
    fill: Callable[[np.random.Generator, int], None],
    n: int,
    key: Sequence[int],
) -> None:
    """Call ``fill(rng_j, j)`` for j in range(n), rng_j keyed by (*key, j)."""
    key = tuple(int(k) for k in key)
    for j in range(n):
        fill(derive_rng(*key, j), j)
