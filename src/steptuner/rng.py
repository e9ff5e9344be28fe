"""Deterministic randomness with worker-count-independent results.

Every random quantity is drawn from a generator seeded by an integer key
tuple, e.g. (master seed, step index, sample index). Because each sample
owns its seed, a batch can be produced by any number of workers in any
split and still come out bit-identical: workers only decide which indices
they fill, never what the values are.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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

# Workers grab sample indices in fixed blocks of this size. The block size
# only affects scheduling, not values.
_BLOCK = 256


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
    workers: int = 1,
) -> None:
    """Call ``fill(rng_j, j)`` for j in range(n), each j with its own rng.

    ``fill`` must write its result into a preallocated array at row j and
    must not touch any other row; under that contract the output is
    identical for every worker count.
    """
    key = tuple(int(k) for k in key)

    def run_block(start: int, stop: int) -> None:
        for j in range(start, stop):
            fill(derive_rng(*key, j), j)

    if workers <= 1 or n <= _BLOCK:
        run_block(0, n)
        return
    blocks = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # consume the iterator to surface exceptions
        list(pool.map(lambda b: run_block(*b), blocks))


def standard_normal_batch(
    n: int, dim: int, key: Sequence[int], workers: int = 1
) -> np.ndarray:
    """(n, dim) standard normal draws, one generator per row."""
    out = np.empty((n, dim))

    def fill(rng: np.random.Generator, j: int) -> None:
        out[j] = rng.standard_normal(dim)

    per_sample_map(fill, n, key, workers)
    return out
