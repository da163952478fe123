"""Vectorized episode engines.

Both policies route each arrival to the unique live bin containing the
covariate, and every bin-level decision (eliminate / split / commit for
ABSE, round advance / hypothesis test for SACB) depends only on the bin's
own arrival subsequence.  With covariates and per-(t, arm) reward noise
drawn up front, an episode is therefore a deterministic function of the
pre-drawn arrays and can be replayed bin by bin with numpy, producing the
same action sequence as the sequential policies in `abse.py` / `sacb.py`
(verified in tests/test_fast_equivalence.py).
"""

from __future__ import annotations

import math

import numpy as np

from .abse import AbseConfig, AbsePolicy, lifetime, max_depth
from .policies import FixedArmPolicy, OraclePolicy
from .sacb import SacbPolicy, round_samples, test_threshold
# Not called here; perfbench's tracer still wraps this name.
from .locpoly import fit_local_polynomial  # noqa: F401


def _fill_alternation(actions: np.ndarray, idx: np.ndarray) -> None:
    actions[idx[0::2]] = 1
    actions[idx[1::2]] = 2


def abse_actions(cfg: AbseConfig, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Action sequence of ABSE on a pre-drawn (X, Y) stream.

    X has shape (n, d); Y has shape (n, 2) holding the reward each arm
    would give at step t.  Returns int8 actions in {1, 2}.
    """
    n = len(X)
    actions = np.zeros(n, dtype=np.int8)
    if n == 0:
        return actions
    k0 = max_depth(cfg)
    d = cfg.d
    stack = [(0, (0,) * d, np.arange(n, dtype=np.int64))]
    while stack:
        depth, coords, idx = stack.pop()
        m = len(idx)
        if m == 0:
            continue
        life = lifetime(cfg, depth)
        s_max = min(life, m // 2)
        if s_max > 0:
            y1 = Y[idx[0:2 * s_max:2], 0]
            y2 = Y[idx[1:2 * s_max:2], 1]
            s_arr = np.arange(1, s_max + 1, dtype=np.float64)
            diff = (np.cumsum(y1) - np.cumsum(y2)) / s_arr
            side_log = math.log(cfg.T * (2.0 ** (-depth)) ** -(2 * cfg.beta + d))
            eps = (cfg.gamma_abse * 4.0 * cfg.noise_scale
                   * np.sqrt(side_log / s_arr))
            fire = np.abs(diff) > eps
            hit = int(np.argmax(fire)) if fire.any() else -1
        else:
            hit = -1
        if hit >= 0:
            cut = 2 * (hit + 1)
            winner = 1 if diff[hit] > 0 else 2
            _fill_alternation(actions, idx[:cut])
            actions[idx[cut:]] = winner
            continue
        if m >= 2 * life:
            cut = 2 * life
            _fill_alternation(actions, idx[:cut])
            rest = idx[cut:]
            if depth == k0:
                mean1 = float(np.sum(y1[:life]))
                mean2 = float(np.sum(y2[:life]))
                actions[rest] = 1 if mean1 >= mean2 else 2
                continue
            # Split: route the remaining arrivals to the 2^d children.
            child_n = 1 << (depth + 1)
            rel = np.zeros(len(rest), dtype=np.int64)
            for j in range(d):
                cj = np.minimum(child_n - 1,
                                np.floor(X[rest, j] * child_n).astype(np.int64))
                rel = rel * 2 + (cj - 2 * coords[j])
            for code in range(1 << d):
                sub = rest[rel == code]
                offs = tuple((code >> (d - 1 - j)) & 1 for j in range(d))
                child = tuple(2 * c + o for c, o in zip(coords, offs))
                stack.append((depth + 1, child, sub))
        else:
            _fill_alternation(actions, idx)
    return actions


def sacb_actions(policy: SacbPolicy, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Action sequence of SACB on a pre-drawn stream.

    Sets t_sacb / beta_hat / beta_hat_raw on the policy object for trace
    reporting.  When some bin never completes its rounds the estimation
    phase runs to the end of the stream and no handoff happens.
    """
    cfg = policy.config
    n = len(X)
    actions = np.zeros(n, dtype=np.int8)
    part = policy.partition
    pa = part.per_axis
    d = policy.d

    b_idx = np.zeros(n, dtype=np.int64)
    for j in range(d):
        cj = np.minimum(pa - 1, np.floor(X[:, j] * pa).astype(np.int64))
        b_idx = b_idx * pa + cj
    order = np.argsort(b_idx, kind="stable")
    sorted_bins = b_idx[order]
    starts = np.searchsorted(sorted_bins, np.arange(pa ** d), side="left")
    ends = np.searchsorted(sorted_bins, np.arange(pa ** d), side="right")

    r_bar = policy.levels.r_bar
    sizes = np.array([2 * round_samples(cfg.q, r) for r in range(1, r_bar + 1)])
    cum = np.concatenate([[0], np.cumsum(sizes)])

    bin_ids = list(part.bin_ids())
    exit_times = []
    r_lasts = []
    bin_arrivals = {}
    for flat, bin_id in enumerate(bin_ids):
        idx = order[starts[flat]:ends[flat]]
        bin_arrivals[bin_id] = idx
        fire_r = None
        for r in range(1, r_bar + 1):
            if cum[r] > len(idx):
                break
            sl = idx[cum[r - 1]:cum[r]]
            # Within a round the arms alternate, arm 1 first.
            arms = [(X[sl[arm::2]], Y[sl[arm::2], arm]) for arm in (0, 1)]
            thr = test_threshold(cfg.gamma, policy.T, d, cfg.beta_lo, cfg.q, r)
            if policy.round_statistic(bin_id, arms) > thr:
                fire_r = r
                break
        if fire_r is not None:
            r_lasts.append(fire_r)
            exit_times.append(int(idx[cum[fire_r] - 1]))
        elif cum[r_bar] <= len(idx):
            r_lasts.append(r_bar)
            exit_times.append(int(idx[cum[r_bar] - 1]))
        else:
            r_lasts.append(None)
            exit_times.append(None)

    starved = any(t is None for t in exit_times)
    t_sacb_pos = n - 1 if starved else max(exit_times)

    # Estimation-phase actions: within-bin, within-round alternation.
    for bin_id in bin_ids:
        idx = bin_arrivals[bin_id]
        est = idx[idx <= t_sacb_pos]
        if len(est) == 0:
            continue
        pos = np.arange(len(est))
        # Round containing each position; positions past the last round
        # boundary keep alternating with a fresh counter (r stays r_bar + 1).
        ridx = np.minimum(np.searchsorted(cum, pos, side="right") - 1,
                          len(cum) - 1)
        local = pos - cum[ridx]
        actions[est] = 1 + (local % 2).astype(np.int8)

    if starved:
        policy.t_sacb = None
        policy.beta_hat = None
        return actions

    policy.t_sacb = t_sacb_pos + 1
    from .partition import log_base
    raw = (min(r_lasts) - cfg.upsilon * log_base(cfg.q, math.log(policy.T))) \
        / (2.0 * policy.levels.l)
    policy.beta_hat_raw = raw
    policy.beta_hat = min(max(cfg.beta_lo, raw), cfg.beta_hi)

    horizon = policy.T if cfg.handoff_horizon == "full" \
        else policy.T - policy.t_sacb
    horizon = max(2, horizon)
    p = dict(cfg.abse_params)
    handoff_cfg = AbseConfig(
        beta=min(1.0, policy.beta_hat),
        c0=float(p.get("c0", 2.0)),
        gamma_abse=float(p.get("gamma_abse", 1.0)),
        T=horizon,
        d=d,
        noise_scale=float(p.get("noise_scale", 0.5)),
    )
    rest = slice(t_sacb_pos + 1, n)
    actions[rest] = abse_actions(handoff_cfg, X[rest], Y[rest])
    return actions


def run_fast(policy, X: np.ndarray, Y: np.ndarray):
    """Dispatch to a vectorized engine; None when no engine exists."""
    if isinstance(policy, FixedArmPolicy):
        return np.full(len(X), policy.arm, dtype=np.int8)
    if isinstance(policy, OraclePolicy):
        inst = policy.instance
        F = inst.payoffs(X[:, 0] if inst.d == 1 else X)
        return np.where(F[:, 1] > F[:, 0], 2, 1).astype(np.int8)
    if isinstance(policy, AbsePolicy):
        return abse_actions(policy.config, X, Y)
    if isinstance(policy, SacbPolicy):
        if policy.config.input_policy_factory is not None:
            return None
        return sacb_actions(policy, X, Y)
    return None
