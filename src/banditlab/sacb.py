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

is clamped to [beta_lo, beta_hi] and the run is handed to the input
policy built for that smoothness (ABSE(min(1, beta_hat)) by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abse import AbseConfig, AbsePolicy
from .errors import StateDesyncError
from .locpoly import floor_strict, window_fits
from .partition import build_partition, locate_bin, log_base, mesh_points, sacb_levels


@dataclass(frozen=True)
class SacbConfig:
    """Tuning for the adaptive policy.

    input_policy_factory, when given, maps the clamped smoothness estimate
    to the handoff policy; it must accept (beta0, T, d).  The default
    builds ABSE(min(1, beta0)) from abse_params.  handoff_horizon chooses
    the horizon the input policy is tuned for: "full" passes T (the
    default), "remaining" passes T - T_sacb.
    """

    beta_lo: float = 0.4
    beta_hi: float = 1.0
    gamma: float = 0.145
    q: float = 1.1
    upsilon: float = 0.325
    handoff_horizon: str = "full"
    abse_params: dict = field(default_factory=dict)
    input_policy_factory: object = None

    def __post_init__(self):
        if not (0 < self.beta_lo <= self.beta_hi):
            raise ValueError(
                f"need 0 < beta_lo <= beta_hi, got [{self.beta_lo}, {self.beta_hi}]")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.q <= 1:
            raise ValueError(f"q must exceed 1, got {self.q}")
        if self.upsilon < 0:
            raise ValueError(f"upsilon must be >= 0, got {self.upsilon}")
        if self.handoff_horizon not in ("full", "remaining"):
            raise ValueError(f"bad handoff_horizon {self.handoff_horizon!r}")


def round_samples(q: float, r: int) -> int:
    """Per-arm sample count for round r (geometric growth, rounded)."""
    return max(1, round(q ** r))


def test_threshold(gamma: float, T: int, d: int, beta_lo: float, q: float,
                   r: int) -> float:
    """Right-hand side of the bandwidth-comparison test at round r."""
    return gamma * math.log(T) ** (d / (2.0 * beta_lo) + 0.5) / q ** (r / 2.0)


class _BinState:
    __slots__ = ("r", "counts", "buffers", "fired", "r_last")

    def __init__(self):
        self.r = 1
        self.counts = [0, 0]
        self.buffers = ([], [])      # current round, one (x, y) list per arm
        self.fired = False
        self.r_last = None


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
        self.mesh = {
            bin_id: mesh_points(bin_id, self.partition, config.q, self.levels.l_tilde)
            for bin_id in self.partition.bin_ids()
        }
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
        st = self.state[locate_bin(self.partition, x)]
        return 2 if st.counts[0] > st.counts[1] else 1

    def update(self, x, arm: int, y: float) -> None:
        if self.handoff is not None:
            self.handoff.update(x, arm, y)
            self.t += 1
            return
        st = self.state[locate_bin(self.partition, x)]
        expected = 2 if st.counts[0] > st.counts[1] else 1
        if arm != expected:
            raise StateDesyncError(f"alternation expected arm {expected}, got {arm}")
        st.buffers[arm - 1].append((np.atleast_1d(np.asarray(x, float)).copy(), float(y)))
        st.counts[arm - 1] += 1
        self.t += 1

        need = 2 * round_samples(self.config.q, st.r)
        if st.counts[0] + st.counts[1] >= need and st.r <= self.levels.r_bar:
            bin_id = locate_bin(self.partition, x)
            if not st.fired and self.hypothesis_test(bin_id):
                st.r_last = st.r
                st.fired = True
            st.r += 1
            st.counts = [0, 0]
            st.buffers = ([], [])

        if all(s.fired or s.r > self.levels.r_bar for s in self.state.values()):
            self.t_sacb = self.t
            self._hand_off()

    # -- estimation subroutine -------------------------------------------------

    def hypothesis_test(self, bin_id) -> bool:
        """Compare coarse and fine fits of the current round's buffers."""
        cfg = self.config
        st = self.state[bin_id]
        thr = test_threshold(cfg.gamma, self.T, self.d, cfg.beta_lo, cfg.q, st.r)
        arms = [(np.stack([rec[0] for rec in buf]), np.array([rec[1] for rec in buf]))
                for buf in st.buffers if buf]
        return self.round_statistic(bin_id, arms) > thr

    def round_statistic(self, bin_id, arms) -> float:
        """Sup over arms and mesh points of |coarse fit - fine fit|.

        arms holds one (X, y) pair per arm with samples this round.
        """
        h1 = self.config.q ** (-self.levels.j1)
        h2 = self.config.q ** (-self.levels.j2)
        mesh = self.mesh[bin_id]
        n = len(mesh)
        # Coarse and fine fits in one call: the mesh twice, one bandwidth each.
        centers = np.concatenate([mesh, mesh])
        h = np.repeat([h1, h2], n)
        sup = 0.0
        for X, y in arms:
            v = window_fits(X, y, centers, h, self.degree)
            sup = max(sup, float(np.max(np.abs(v[:n] - v[n:]))))
        return sup

    def estimate_smoothness(self) -> float:
        """Raw estimate from the recorded rounds (clamping happens at handoff)."""
        r_vals = []
        for st in self.state.values():
            r_vals.append(st.r_last if st.r_last is not None else self.levels.r_bar)
        cfg = self.config
        return (min(r_vals) - cfg.upsilon * log_base(cfg.q, math.log(self.T))) \
            / (2.0 * self.levels.l)

    def _hand_off(self) -> None:
        cfg = self.config
        self.beta_hat_raw = self.estimate_smoothness()
        self.beta_hat = min(max(cfg.beta_lo, self.beta_hat_raw), cfg.beta_hi)
        horizon = self.T if cfg.handoff_horizon == "full" else self.T - self.t_sacb
        horizon = max(2, horizon)
        if cfg.input_policy_factory is not None:
            self.handoff = cfg.input_policy_factory(self.beta_hat, horizon, self.d)
        else:
            p = dict(cfg.abse_params)
            self.handoff = AbsePolicy(AbseConfig(
                beta=min(1.0, self.beta_hat),
                c0=float(p.get("c0", 2.0)),
                gamma_abse=float(p.get("gamma_abse", 1.0)),
                T=horizon,
                d=self.d,
                noise_scale=float(p.get("noise_scale", 0.5)),
            ))
