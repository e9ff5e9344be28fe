"""Seed derivation: determinism and per-sample keying."""

import numpy as np

from steptuner.rng import (
    PURPOSE_DATA,
    PURPOSE_PATHS,
    PURPOSE_TUNE,
    derive_rng,
    per_sample_map,
)


def test_derive_rng_deterministic():
    a = derive_rng(3, PURPOSE_TUNE, 5, 7).standard_normal(4)
    b = derive_rng(3, PURPOSE_TUNE, 5, 7).standard_normal(4)
    assert np.array_equal(a, b)


def test_purposes_give_distinct_streams():
    a = derive_rng(0, PURPOSE_TUNE, 0).standard_normal(8)
    b = derive_rng(0, PURPOSE_PATHS, 0).standard_normal(8)
    c = derive_rng(0, PURPOSE_DATA, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


def test_per_sample_map_covers_all_rows():
    def run():
        out = np.full((700, 2), np.nan)

        def fill(rng, j):
            out[j] = (j, rng.standard_normal())

        per_sample_map(fill, 700, (1,))
        return out

    out = run()
    assert np.array_equal(out[:, 0], np.arange(700, dtype=float))
    assert out[5, 1] == derive_rng(1, 5).standard_normal()
    assert np.array_equal(out, run())


def test_per_sample_map_propagates_errors():
    def fill(rng, j):
        if j == 300:
            raise ValueError("boom")

    try:
        per_sample_map(fill, 600, (1,))
    except ValueError as exc:
        assert "boom" in str(exc)
    else:
        raise AssertionError("expected the fill error to propagate")
