"""Adaptively Binned Successive Elimination over a dyadic tree.

Each live bin plays the surviving arms round robin.  After both arms have s
samples the trailing arm is eliminated when the empirical gap exceeds the
confidence radius

    eps(B, s) = gamma_abse * 4 * noise_scale * sqrt(ln(T |B|^-(2 beta + d)) / s)

with |B| the bin side 2^-depth.  At noise_scale = 1/2 (bounded rewards in
[0,1]) and gamma_abse = 1 this is the classical 2 sqrt(ln(.)/s) radius, and
at the bin lifetime

    l_B = ceil(c0^-2 |B|^-(2 beta) ln(T |B|^-(2 beta + d)))

it has shrunk to (4 noise_scale gamma_abse) c0 |B|^beta.  A bin that
reaches its lifetime with both arms alive splits into 2^d children, unless
it already sits at the maximum depth

    k0 = ceil(log2(T / ln T) / (2 beta + d)),

in which case it commits to the empirically better arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StateDesyncError
from .partition import Partition, locate_bin


@dataclass(frozen=True)
class AbseConfig:
    """Tuning for one ABSE run; beta is the assumed smoothness.

    c0, gamma_abse and noise_scale default to the published table.
    """

    beta: float
    T: int
    d: int = 1
    c0: float = 2.0
    gamma_abse: float = 2.0
    noise_scale: float = 0.5

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.c0 <= 0 or self.gamma_abse <= 0 or self.noise_scale <= 0:
            raise ValueError("c0, gamma_abse and noise_scale must be positive")
        if self.T < 2:
            raise ValueError(f"horizon must be >= 2, got {self.T}")


def max_depth(cfg: AbseConfig) -> int:
    """Deepest refinement level k0; bins never split past side 2^-k0."""
    return max(0, math.ceil(
        math.log2(cfg.T / math.log(cfg.T)) / (2 * cfg.beta + cfg.d)))


def _log_term(cfg: AbseConfig, depth: int) -> float:
    """ln(T |B|^-(2 beta + d)) for a bin of side |B| = 2^-depth."""
    side = 2.0 ** (-depth)
    return math.log(cfg.T * side ** -(2 * cfg.beta + cfg.d))


def lifetime(cfg: AbseConfig, depth: int) -> int:
    """Pairs of pulls a bin at this depth collects before splitting."""
    side = 2.0 ** (-depth)
    return math.ceil(cfg.c0 ** -2 * side ** (-2 * cfg.beta) * _log_term(cfg, depth))


def radius(cfg: AbseConfig, depth: int, s):
    """Elimination radius after s pulls of each arm (s may be an array)."""
    return cfg.gamma_abse * 4.0 * cfg.noise_scale * np.sqrt(_log_term(cfg, depth) / s)


def next_arm(counts) -> int:
    """Arm that keeps two arms alternating: arm 1 unless it is ahead."""
    return 1 if counts[0] <= counts[1] else 2


class _Bin:
    __slots__ = ("depth", "coords", "committed", "counts", "sums", "life")

    def __init__(self, depth, coords, life):
        self.depth = depth
        self.coords = coords
        self.committed = 0          # 0 while live, else the committed arm
        self.counts = [0, 0]
        self.sums = [0.0, 0.0]      # reward totals; the gap is their difference / s
        self.life = life


class AbsePolicy:
    """Sequential reference implementation (one state per episode)."""

    kind = "abse"

    def __init__(self, config: AbseConfig):
        self.config = config
        self.k0 = max_depth(config)
        self.grid = Partition(config.d, 2 ** self.k0)      # the depth-k0 cells
        root = _Bin(0, (0,) * config.d, lifetime(config, 0))
        self.bins = {(0, root.coords): root}
        self.n_splits = 0

    # -- bin lookup --------------------------------------------------------

    def _find(self, x) -> _Bin:
        # The cell at depth k0 gives the cell at every shallower depth by a
        # shift: floor(x 2^k) = floor(x 2^k0) >> (k0 - k).
        deepest = locate_bin(self.grid, x)
        for depth in range(self.k0 + 1):
            key = (depth, tuple(c >> (self.k0 - depth) for c in deepest))
            if key in self.bins:
                return self.bins[key]
        raise StateDesyncError(f"no live or committed bin contains {x}")

    # -- policy interface ---------------------------------------------------

    def choose(self, x) -> int:
        b = self._find(x)
        return b.committed or next_arm(b.counts)

    def update(self, x, arm: int, y: float) -> None:
        b = self._find(x)
        if b.committed:
            if arm != b.committed:
                raise StateDesyncError(
                    f"bin committed to arm {b.committed} but arm {arm} played")
            return
        expected = next_arm(b.counts)
        if arm != expected:
            raise StateDesyncError(
                f"round robin expected arm {expected}, got {arm}")
        i = arm - 1
        b.counts[i] += 1
        b.sums[i] += y

        s = b.counts[0]
        if b.counts[0] != b.counts[1]:
            return
        # A pair just completed: elimination test, then lifetime actions.
        eps = radius(self.config, b.depth, s)
        gap = (b.sums[0] - b.sums[1]) / s
        if abs(gap) > eps:
            b.committed = 1 if gap > 0 else 2
            return
        if s >= b.life:
            if b.depth < self.k0:
                self._split(b)
            else:
                b.committed = 1 if gap >= 0 else 2

    # -- tree transitions ---------------------------------------------------

    def _split(self, b: _Bin) -> None:
        del self.bins[(b.depth, b.coords)]
        depth = b.depth + 1
        life = lifetime(self.config, depth)
        for offs in np.ndindex(*((2,) * self.config.d)):
            coords = tuple(2 * c + o for c, o in zip(b.coords, offs))
            self.bins[(depth, coords)] = _Bin(depth, coords, life)
        self.n_splits += 1

    # -- introspection for tests ---------------------------------------------

    def live_volume(self) -> float:
        return sum(2.0 ** (-d * self.config.d) for (d, _) in self.bins)
