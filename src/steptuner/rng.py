"""Deterministic randomness keyed per block of rows.

Every random quantity is drawn from a generator seeded by an integer key
of one fixed shape, (master seed, purpose, step, block), each entry a
32-bit word. Rows are drawn in fixed blocks of ``BLOCK`` rows, one
generator per block, in the spirit of the counter-based keyed streams of
Salmon et al. (2011). Because the block size is fixed, a row's values
depend only on its key and its index, never on the batch size or on which
other rows are drawn with it: the first m rows of an n-row draw equal an
m-row draw.

The fixed key length and the 32-bit range keep keys injective.
``SeedSequence`` pads its entropy with zeros and splits larger integers
into several 32-bit words, so (5, 2, 3) and (5, 2, 3, 0), or (2**32, 2, j)
and (0, 1, 2, j), would otherwise seed the same stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_integer

# Purpose tags keep seed key tuples disjoint across uses of the same master
# seed. Values are arbitrary but frozen: changing them changes all outputs.
PURPOSE_TUNE = 1
PURPOSE_PATHS = 2
PURPOSE_DATA = 3
PURPOSE_EVAL = 4
PURPOSE_PROJ = 5

# Rows per generator. Frozen like the purpose tags: changing it changes
# every random output.
BLOCK = 256

_KEY_LENGTH = 4  # (seed, purpose, step, block)
_WORD = 2**32


def check_seed(seed: int, name: str = "seed") -> None:
    """Seeds are one 32-bit word of a generator key: integers in [0, 2**32)."""
    check_integer(name, seed, 0)
    if seed >= _WORD:
        raise DomainError(f"{name}: must lie in [0, 2**32), got {seed}")


def derive_rng(*key: int) -> np.random.Generator:
    """Generator seeded by a (seed, purpose, step, block) key of 32-bit words."""
    if len(key) != _KEY_LENGTH or not all(0 <= k < _WORD for k in key):
        raise DomainError(
            f"RNG key must be {_KEY_LENGTH} integers in [0, 2**32) "
            f"(seed, purpose, step, block), got {key}"
        )
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def per_sample_map(
    fill: Callable[[np.random.Generator, slice], None],
    n: int,
    key: Sequence[int],
) -> None:
    """Call ``fill(rng_b, rows)`` for each block b of ``BLOCK`` rows out of n.

    key is (seed, purpose, step); rng_b is keyed by (*key, b) and rows is
    the slice of the rows of block b, shorter for the last block. A fill
    whose values for a short block are the first rows of a full block's
    keeps every row independent of n.
    """
    key = tuple(int(k) for k in key)
    for b, start in enumerate(range(0, n, BLOCK)):
        fill(derive_rng(*key, b), slice(start, min(n, start + BLOCK)))
