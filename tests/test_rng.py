"""Seed derivation: determinism, injective keys and block-keyed rows."""

from math import ceil

import numpy as np
import pytest

from steptuner import DomainError, SamplerConfig, baseline_tuned, make_trajectory
from steptuner import rng as rng_module
from steptuner import samplers
from steptuner.analysis import draw_start_states
from steptuner.rng import (
    BLOCK,
    PURPOSE_DATA,
    PURPOSE_PATHS,
    PURPOSE_TUNE,
    check_seed,
    derive_rng,
    per_sample_map,
)
from steptuner.samplers import sample_path

BLOCK_EDGES = [1, 255, 256, 257, 700]


def test_derive_rng_deterministic():
    a = derive_rng(3, PURPOSE_TUNE, 5, 7).standard_normal(4)
    b = derive_rng(3, PURPOSE_TUNE, 5, 7).standard_normal(4)
    assert np.array_equal(a, b)


def test_purposes_give_distinct_streams():
    a = derive_rng(0, PURPOSE_TUNE, 0, 0).standard_normal(8)
    b = derive_rng(0, PURPOSE_PATHS, 0, 0).standard_normal(8)
    c = derive_rng(0, PURPOSE_DATA, 0, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


def test_keys_are_injective():
    # SeedSequence alone pads its entropy with zeros and splits an integer
    # >= 2**32 into 32-bit words, so these entropy pairs collide
    def state(entropy):
        return np.random.SeedSequence(entropy).generate_state(4)

    assert np.array_equal(state((5, 2, 3)), state((5, 2, 3, 0)))
    assert np.array_equal(state((2**32, 2, 9)), state((0, 1, 2, 9)))
    # start-state block 3 and step 3's noise block 0 of the same seed
    a = derive_rng(5, PURPOSE_PATHS, 0, 3).standard_normal(8)
    b = derive_rng(5, PURPOSE_PATHS, 3, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    # the largest sample seed against tune seed 0's batch at step 2
    a = derive_rng(2**32 - 1, PURPOSE_PATHS, 0, 9).standard_normal(8)
    b = derive_rng(0, PURPOSE_TUNE, 2, 9).standard_normal(8)
    assert not np.array_equal(a, b)
    for key in [(5, 2, 3), (5, 2, 3, 0, 0), (2**32, 2, 0, 9), (0, 2, -1, 0)]:
        with pytest.raises(DomainError):
            derive_rng(*key)
    check_seed(2**32 - 1)
    for seed in (-1, 2**32):
        with pytest.raises(DomainError):
            check_seed(seed)


def test_per_sample_map_covers_all_rows():
    def run():
        out = np.full((700, 2), np.nan)

        def fill(rng, rows):
            out[rows, 0] = np.arange(rows.start, rows.stop)
            out[rows, 1] = rng.standard_normal()

        per_sample_map(fill, 700, (1, 2, 3))
        return out

    out = run()
    assert np.array_equal(out[:, 0], np.arange(700, dtype=float))
    # one generator per block: 0..255, 256..511, 512..699
    for b, (start, stop) in enumerate([(0, 256), (256, 512), (512, 700)]):
        assert np.all(out[start:stop, 1] == derive_rng(1, 2, 3, b).standard_normal())
    assert np.array_equal(out, run())
    with pytest.raises(DomainError):
        per_sample_map(lambda rng, rows: None, 1, (1, 2))


def test_per_sample_map_propagates_errors():
    def fill(rng, rows):
        if rows.start <= 300 < rows.stop:
            raise ValueError("boom")

    try:
        per_sample_map(fill, 600, (1, 2, 3))
    except ValueError as exc:
        assert "boom" in str(exc)
    else:
        raise AssertionError("expected the fill error to propagate")


def _noise_per_step(monkeypatch, model, n: int) -> list:
    """The noise sample_path hands each eta-0.7 step for an n-row batch."""
    schedule = model.schedule
    tuned = baseline_tuned(make_trajectory("quadratic", 3, schedule), schedule, "ddim-family")
    seen = []
    real_step = samplers.step

    def spy(x, t_from, t_to, taus, model, sampler, noise=None):
        seen.append(noise.copy())
        return real_step(x, t_from, t_to, taus, model, sampler, noise)

    with monkeypatch.context() as patch:
        patch.setattr(samplers, "step", spy)
        sample_path(np.zeros((n, model.dim)), tuned, SamplerConfig(eta=0.7, seed=4), model)
    return seen


def test_rows_are_prefix_stable_at_block_edges(gmm8_model, monkeypatch):
    x0, normals = gmm8_model.draw(700, (8, PURPOSE_TUNE, 2), extra=2)
    starts = draw_start_states(gmm8_model, 700, 6)
    noise = _noise_per_step(monkeypatch, gmm8_model, 700)
    for n in BLOCK_EDGES:
        x0_n, normals_n = gmm8_model.draw(n, (8, PURPOSE_TUNE, 2), extra=2)
        assert np.array_equal(x0_n, x0[:n])
        assert np.array_equal(normals_n, normals[:, :n])
        assert np.array_equal(draw_start_states(gmm8_model, n, 6), starts[:n])
        for full, part in zip(noise, _noise_per_step(monkeypatch, gmm8_model, n)):
            assert np.array_equal(part, full[:n])


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_one_generator_per_block(gmm8_model, monkeypatch, n):
    # guards against a per-row generator loop coming back
    built = []
    real = rng_module.derive_rng

    def counting(*key):
        built.append(key)
        return real(*key)

    monkeypatch.setattr(rng_module, "derive_rng", counting)
    blocks = ceil(n / BLOCK)
    gmm8_model.draw(n, (0, PURPOSE_TUNE, 1), extra=3)
    assert len(built) == blocks
    built.clear()
    schedule = gmm8_model.schedule
    tuned = baseline_tuned(make_trajectory("quadratic", 3, schedule), schedule, "ddim-family")
    sample_path(np.zeros((n, 2)), tuned, SamplerConfig(eta=0.7, seed=1), gmm8_model)
    assert len(built) == 3 * blocks
