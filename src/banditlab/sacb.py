"""Smoothness-Adaptive Contextual Bandits (sequential reference).

The policy runs a smoothness-estimation phase on a level-l partition: in
each bin it alternates arms in rounds of max(1, round(q^r)) pulls per arm,
and at the end of each round r <= r_bar compares two local polynomial
fits of each arm's payoff, with bandwidths q^-j1 (coarse) and q^-j2
(fine), at the bin's mesh points.  The first round where

    sup_{arm, mesh} |f_coarse - f_fine| > gamma (ln T)^(d/(2 beta_lo) + 1/2) / q^(r/2)

is recorded as r_last for the bin (r_last = r_bar when the test never
fires).  Once every bin has fired or exhausted its rounds the smoothness
estimate

    beta_hat = (min_B r_last - upsilon log_q ln T) / (2 l)

is clamped to [beta_lo, beta_hi] and the rest of the run is handed to
ABSE tuned for min(1, beta_hat) (`SacbPolicy.handoff_config`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .abse import AbseConfig, AbsePolicy, check_reals, next_arm
from .errors import StateDesyncError
from .locpoly import floor_strict, window_fits
from .partition import (build_partition, cells_per_axis, locate_bin, log_base,
                        mesh_points, sacb_levels)


@dataclass(frozen=True)
class SacbConfig:
    """Tuning for the adaptive policy.

    The defaults are the published table.  c0, gamma_abse and noise_scale
    tune the ABSE policy that takes over after estimation, with AbseConfig's
    defaults; handoff_horizon chooses the horizon it is tuned for: "full"
    passes T, "remaining" passes T - T_sacb.
    """

    beta_lo: float = 0.4
    beta_hi: float = 1.0
    gamma: float = 0.145
    q: float = 1.1
    upsilon: float = 0.325
    handoff_horizon: str = "full"
    c0: float = AbseConfig.c0
    gamma_abse: float = AbseConfig.gamma_abse
    noise_scale: float = AbseConfig.noise_scale

    def __post_init__(self):
        check_reals(self)
        if not (0 < self.beta_lo <= self.beta_hi):
            raise ValueError(
                f"need 0 < beta_lo <= beta_hi, got [{self.beta_lo}, {self.beta_hi}]")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.q <= 1:
            raise ValueError(f"q: base must exceed 1, got {self.q}")
        if self.upsilon < 0:
            raise ValueError(f"upsilon must be >= 0, got {self.upsilon}")
        if self.handoff_horizon not in ("full", "remaining"):
            raise ValueError(f"bad handoff_horizon {self.handoff_horizon!r}")
        # ABSE's own checks of the handoff tuning, now rather than at handoff.
        AbseConfig(beta=1.0, T=2, c0=self.c0, gamma_abse=self.gamma_abse,
                   noise_scale=self.noise_scale)


def round_samples(q: float, r: int) -> int:
    """Per-arm sample count for round r: q^r snapped as cells_per_axis does."""
    return cells_per_axis(q, r)


def test_threshold(gamma: float, T: int, d: int, beta_lo: float, q: float,
                   r: int) -> float:
    """Right-hand side of the bandwidth-comparison test at round r."""
    return gamma * math.log(T) ** (d / (2.0 * beta_lo) + 0.5) / q ** (r / 2.0)


class _BinState:
    __slots__ = ("r", "counts", "buffers", "r_last")

    def __init__(self):
        self.r = 1
        self.counts = [0, 0]
        self.buffers = ([], [])      # current round, one (x, y) list per arm
        self.r_last = None           # the round the test fired in, if any


class SacbPolicy:
    """Sequential reference implementation (one state per episode)."""

    kind = "sacb"

    def __init__(self, config: SacbConfig, T: int, d: int):
        self.config = config
        self.T = int(T)
        self.d = int(d)
        self.levels = sacb_levels(T, d, config.q, config.beta_lo,
                                  config.beta_hi, config.upsilon)
        self.partition = build_partition(d, config.q, self.levels.l)
        self.degree = floor_strict(config.beta_hi)
        self.mesh = {}           # a bin's mesh points, made when it is first tested
        self.state = {bin_id: _BinState() for bin_id in self.partition.bin_ids()}
        self.t = 0
        self.t_sacb = None
        self.beta_hat = None
        self.beta_hat_raw = None
        self.handoff = None

    # -- policy interface ----------------------------------------------------

    def choose(self, x) -> int:
        if self.handoff is not None:
            return self.handoff.choose(x)
        return next_arm(self.state[locate_bin(self.partition, x)].counts)

    def update(self, x, arm: int, y: float) -> None:
        if self.handoff is not None:
            self.handoff.update(x, arm, y)
            self.t += 1
            return
        bin_id = locate_bin(self.partition, x)
        st = self.state[bin_id]
        expected = next_arm(st.counts)
        if arm != expected:
            raise StateDesyncError(f"alternation expected arm {expected}, got {arm}")
        st.buffers[arm - 1].append((np.atleast_1d(np.asarray(x, float)).copy(), float(y)))
        st.counts[arm - 1] += 1
        self.t += 1

        need = 2 * round_samples(self.config.q, st.r)
        if st.counts[0] + st.counts[1] >= need and st.r <= self.levels.r_bar:
            if st.r_last is None:
                # Alternation ends the round with need / 2 >= 1 samples per arm.
                X = np.array([[rec[0] for rec in buf] for buf in st.buffers])
                y = np.array([[rec[1] for rec in buf] for buf in st.buffers])
                if self.round_fires([bin_id], st.r, X[None], y[None])[0]:
                    st.r_last = st.r
            st.r += 1
            st.counts = [0, 0]
            st.buffers = ([], [])

        if all(s.r_last is not None or s.r > self.levels.r_bar
               for s in self.state.values()):
            self.handoff = AbsePolicy(self.handoff_config(self.t))

    # -- estimation subroutine -------------------------------------------------

    def round_fires(self, bin_ids, r: int, X, y) -> np.ndarray:
        """Whether round r's test fires, one bool per bin of bin_ids.

        It fires in a bin when, for some arm, the sup over the bin's mesh
        points of |coarse fit - fine fit| exceeds test_threshold at round
        r.  X, shape (len(bin_ids), 2, n, d), and y, shape
        (len(bin_ids), 2, n), hold each bin's n = round_samples(q, r)
        samples of each arm this round.  Every bin and arm is fitted in one
        stacked window_fits call.
        """
        cfg = self.config
        thr = test_threshold(cfg.gamma, self.T, self.d, cfg.beta_lo, cfg.q, r)
        h1 = cfg.q ** (-self.levels.j1)
        h2 = cfg.q ** (-self.levels.j2)
        for bin_id in set(bin_ids) - self.mesh.keys():
            self.mesh[bin_id] = mesh_points(bin_id, self.partition, cfg.q,
                                            self.levels.l_tilde)
        # Dataset 2 i + a is arm a of bin i; its centers are the bin's mesh,
        # first all coarse, then all fine.
        meshes = [self.mesh[bin_id] for bin_id in bin_ids for _ in (0, 1)]
        sizes = np.array([len(mesh) for mesh in meshes])
        mesh = np.concatenate(meshes)
        owner = np.repeat(np.arange(len(meshes)), sizes)
        n_half = len(mesh)
        v = window_fits(X.reshape(-1, *X.shape[2:]), y.reshape(-1, y.shape[2]),
                        np.concatenate([mesh, mesh]), np.repeat([h1, h2], n_half),
                        self.degree, owner=np.concatenate([owner, owner]))
        gap = np.abs(v[:n_half] - v[n_half:])
        over = np.maximum.reduceat(gap, np.cumsum(sizes) - sizes) > thr
        return over.reshape(-1, 2).any(axis=1)

    def estimate_smoothness(self) -> float:
        """Raw estimate from the recorded rounds (clamping happens at handoff)."""
        r_vals = []
        for st in self.state.values():
            r_vals.append(st.r_last if st.r_last is not None else self.levels.r_bar)
        cfg = self.config
        return (min(r_vals) - cfg.upsilon * log_base(cfg.q, math.log(self.T))) \
            / (2.0 * self.levels.l)

    def handoff_config(self, t_sacb: int) -> AbseConfig:
        """End the estimation phase after t_sacb steps.

        Records t_sacb, beta_hat_raw and the clamped beta_hat; returns the
        config of the ABSE policy that plays the rest of the run.
        """
        cfg = self.config
        self.t_sacb = t_sacb
        self.beta_hat_raw = self.estimate_smoothness()
        self.beta_hat = min(max(cfg.beta_lo, self.beta_hat_raw), cfg.beta_hi)
        horizon = self.T if cfg.handoff_horizon == "full" else self.T - t_sacb
        return AbseConfig(beta=min(1.0, self.beta_hat), T=max(2, horizon),
                          d=self.d, c0=cfg.c0, gamma_abse=cfg.gamma_abse,
                          noise_scale=cfg.noise_scale)
