"""Uniform blocks: same bytes as the int64 -> float64 / 2^53 formula."""

import inspect
from unittest import mock

import numpy as np
import pytest

from banditlab import rng, sim
from banditlab.instances import make_power_payoff


def former_uniforms(gen, n):
    return gen.integers(1, 1 << 53, size=n).astype(np.float64) / 2 ** 53


# rng.BLOCK - 1, BLOCK and BLOCK + 1, and a partial fourth block: the
# blocked draws read the variates of one integers() call.
@pytest.mark.parametrize("n", [1, 7, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                               3 * 2 ** 16 + 5, 100_000])
def test_open_uniforms_equal_former_formula(n):
    assert rng.BLOCK == 2 ** 16
    want = former_uniforms(rng.stream(4, 2, 9), n).tobytes()
    assert rng.open_uniforms(rng.stream(4, 2, 9), n).tobytes() == want
    # Into a row of a 2-D array: that row is written, the other is not.
    out = np.full((2, n), -1.0)
    got = rng.open_uniforms(rng.stream(4, 2, 9), n, out=out[1])
    assert got.base is out
    assert out[1].tobytes() == want
    assert (out[0] == -1.0).all()


def test_draw_streams_uniforms_equal_separate_blocks():
    T, seed, rep = 5_000, 8, 3
    with mock.patch.object(sim, "Rewards", wraps=sim.Rewards) as made:
        sim.draw_streams(make_power_payoff(0.6, 1.0), T, seed, rep)
    u = made.call_args.args[1]
    want = np.stack([rng.noise_uniform_block(seed, rep, T, arm) for arm in (1, 2)])
    assert u.tobytes() == want.tobytes()


@pytest.mark.parametrize("block,last", [(rng.covariate_block, "d"),
                                        (rng.noise_uniform_block, "arm")])
def test_block_signatures(block, last):
    # perfbench's tracer keys its block counts on the four leading
    # positional arguments; anything else must be keyword-only.
    params = list(inspect.signature(block).parameters.values())
    assert [p.name for p in params[:4]] == ["base_seed", "rep", "T", last]
    assert all(p.kind == p.KEYWORD_ONLY for p in params[4:])
