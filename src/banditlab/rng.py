"""Deterministic, counter-based random streams.

Every random quantity in a simulation is drawn from a Philox counter-based
generator keyed by a 64-bit value derived from (base_seed, replication,
purpose tag) with the splitmix64 mixing constants.  The derivation below is
the documented contract: any port that reproduces `derive_key` and reads the
same number of variates per stream reproduces our draws bit for bit.

Streams per episode:

* covariates:   tag 0xC0;  uniforms in (0, 1), one block of T*d values.
* reward noise: tag 0xA0 + arm (arm in {1, 2}); one block of T values.

Position t in a stream is the draw for time step t, so noise depends on
(base_seed, rep, t, arm) and never on the policy's actions.

A block is drawn BLOCK values at a time, so no stream-length integer
array is held next to it.  The blocked draws read the same variates as
one call: each value in [1, 2^53) is made from whole 64-bit Philox
outputs (the range exceeds 2^32, so numpy keeps no half-used output
between calls), and the generator carries its state from call to call.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MASK64 = (1 << 64) - 1

TAG_COVARIATE = 0xC0
TAG_NOISE = 0xA0

# Values per pass over a stream-length array, here and in the engines and
# the regret accounting: each of their temporaries holds at most this many
# values (0.5 MiB of float64) instead of one per step.
BLOCK = 1 << 16


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * MIX1 & MASK64
    z = (z ^ (z >> 27)) * MIX2 & MASK64
    return z ^ (z >> 31)


def derive_key(base_seed: int, *tokens: int) -> int:
    """Fold integer tokens into a 64-bit Philox key (splitmix64 chain)."""
    state = (int(base_seed) * SPLITMIX_GAMMA + SPLITMIX_GAMMA) & MASK64
    for tok in tokens:
        state = (state + (int(tok) & MASK64) * SPLITMIX_GAMMA + SPLITMIX_GAMMA) & MASK64
        state = _mix(state)
    return _mix(state)


def stream(base_seed: int, *tokens: int) -> np.random.Generator:
    """Philox generator for the (base_seed, tokens) stream."""
    return np.random.Generator(np.random.Philox(key=derive_key(base_seed, *tokens)))


def open_uniforms(gen: np.random.Generator, n: int, out=None) -> np.ndarray:
    """n uniforms in the open interval (0, 1), safe for inverse-CDF maps.

    Integers in [1, 2^53) scaled by 2^-53, written into out if given (a
    float64 array of n entries).  Both steps are exact: int64 -> float64
    below 2^53 and scaling by a power of two, so multiplying by 2^-53 gives
    the bits of dividing by 2^53, at about half the cost.  They are drawn
    BLOCK at a time, the same variates as one call of n (module docstring).
    """
    if out is None:
        out = np.empty(n)
    for start in range(0, n, BLOCK):
        stop = min(n, start + BLOCK)
        np.multiply(gen.integers(1, 1 << 53, size=stop - start), 2.0 ** -53,
                    out=out[start:stop])
    return out


def covariate_block(base_seed: int, rep: int, T: int, d: int) -> np.ndarray:
    """Covariates X_1..X_T, shape (T, d), uniform on [0,1]^d."""
    gen = stream(base_seed, rep, TAG_COVARIATE)
    return open_uniforms(gen, T * d).reshape(T, d)


def noise_uniform_block(base_seed: int, rep: int, T: int, arm: int, *,
                        out=None) -> np.ndarray:
    """Per-step uniform draws for one arm's reward channel, into out if given."""
    gen = stream(base_seed, rep, TAG_NOISE + arm)
    return open_uniforms(gen, T, out=out)


def gaussian_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals via the inverse CDF.

    Bit-stable for the pinned numpy/scipy on glibc x86_64, as
    perfbench/reference.json records; scipy's ndtri takes its tails
    (|u - 1/2| > 1/2 - e^-2) through the C library's log, so another libm
    may round them differently.
    """
    return ndtri(u)
