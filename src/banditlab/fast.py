"""Vectorized episode engines.

Both policies route each arrival to the unique live bin containing the
covariate, and every bin-level decision (eliminate / split / commit for
ABSE, round advance / hypothesis test for SACB) depends only on the bin's
own arrival subsequence.  With covariates and per-(t, arm) reward noise
drawn up front, an episode is therefore a deterministic function of the
pre-drawn arrays and can be replayed bin by bin with numpy, producing the
same action sequence as the sequential policies in `abse.py` / `sacb.py`
(verified in tests/test_fast_equivalence.py).  The engines call those
modules' rules (cell_coords, lifetime, radius, round_fires,
handoff_config) rather than restating them.
"""

from __future__ import annotations

import numpy as np

from .abse import AbseConfig, AbsePolicy, lifetime, max_depth, radius
from .partition import cell_coords
from .policies import FixedArmPolicy, OraclePolicy
from .sacb import SacbPolicy, round_samples
# Not called here; perfbench's tracer still wraps this name.
from .locpoly import fit_local_polynomial  # noqa: F401


def _fill_alternation(actions: np.ndarray, idx: np.ndarray) -> None:
    """abse.next_arm over one bin's arrivals: arm 1, arm 2, arm 1, ..."""
    actions[idx[0::2]] = 1
    actions[idx[1::2]] = 2


def abse_actions(cfg: AbseConfig, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Action sequence of ABSE on a pre-drawn (X, Y) stream.

    X has shape (n, d); Y has shape (n, 2) holding the reward each arm
    would give at step t.  Returns int8 actions in {1, 2}.
    """
    n = len(X)
    actions = np.zeros(n, dtype=np.int8)
    k0 = max_depth(cfg)
    stack = [(0, np.arange(n, dtype=np.int64))]
    while stack:
        depth, idx = stack.pop()
        life = lifetime(cfg, depth)
        s = np.arange(1, min(life, len(idx) // 2) + 1, dtype=np.float64)
        y1 = Y[idx[0:2 * len(s):2], 0]
        y2 = Y[idx[1:2 * len(s):2], 1]
        diff = (np.cumsum(y1) - np.cumsum(y2)) / s
        fire = np.abs(diff) > radius(cfg, depth, s)
        hit = int(np.argmax(fire)) if fire.any() else None
        # Alternate until the first elimination or the end of the lifetime.
        cut = 2 * life if hit is None else 2 * (hit + 1)
        _fill_alternation(actions, idx[:cut])
        rest = idx[cut:]
        if hit is not None:
            actions[rest] = 1 if diff[hit] > 0 else 2
        elif len(rest) == 0:
            continue
        elif depth == k0:
            # Lifetime over at the deepest level: commit to the arm with the
            # larger reward sum, arm 1 on a tie, as AbsePolicy does.
            actions[rest] = 1 if diff[-1] >= 0 else 2
        else:
            # Split: route the remaining arrivals to the 2^d children by
            # their offsets (child cell mod 2) along each axis.
            code = 0
            for col in X.T:
                code = 2 * code + (cell_coords(col[rest], 2 << depth) & 1)
            for c in range(1 << cfg.d):
                sub = rest[code == c]
                if len(sub):
                    stack.append((depth + 1, sub))
    return actions


def sacb_actions(policy: SacbPolicy, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Action sequence of SACB on a pre-drawn stream.

    Writes each bin's r_last into policy.state and hands off through
    `SacbPolicy.handoff_config`, as the sequential policy does.  When some
    bin never completes its rounds the estimation phase runs to the end of
    the stream and no handoff happens.
    """
    n = len(X)
    actions = np.zeros(n, dtype=np.int8)
    part = policy.partition
    b_idx = np.ravel_multi_index(cell_coords(X, part.per_axis).T,
                                 (part.per_axis,) * part.d)
    order = np.argsort(b_idx, kind="stable")
    bounds = np.cumsum([0, *np.bincount(b_idx, minlength=part.n_bins)])

    r_bar = policy.levels.r_bar
    cum = np.cumsum([0] + [2 * round_samples(policy.config.q, r)
                           for r in range(1, r_bar + 1)])
    # Steps of the estimation phase; n + 1 while some bin is unfinished.
    t_sacb = 0
    for flat, bin_id in enumerate(part.bin_ids()):
        idx = order[bounds[flat]:bounds[flat + 1]]
        # Rounds have even sizes, so the alternation runs across them.
        _fill_alternation(actions, idx)
        rounds = int(np.searchsorted(cum, len(idx), side="right")) - 1
        for r in range(1, rounds + 1):
            sl = idx[cum[r - 1]:cum[r]]
            arms = [(X[sl[arm::2]], Y[sl[arm::2], arm]) for arm in (0, 1)]
            if policy.round_fires(bin_id, r, arms):
                policy.state[bin_id].r_last = r
                break
        r_end = policy.state[bin_id].r_last or (r_bar if rounds == r_bar else None)
        t_sacb = max(t_sacb, n + 1 if r_end is None else int(idx[cum[r_end] - 1]) + 1)

    if t_sacb <= n:
        handoff_cfg = policy.handoff_config(t_sacb)
        actions[t_sacb:] = abse_actions(handoff_cfg, X[t_sacb:], Y[t_sacb:])
    return actions


def run_fast(policy, X: np.ndarray, Y: np.ndarray, F: np.ndarray):
    """Dispatch to a vectorized engine; None when no engine exists.

    F holds the payoffs at X, shape (n, 2); only the oracle reads it.
    """
    if isinstance(policy, FixedArmPolicy):
        return np.full(len(X), policy.arm, dtype=np.int8)
    if isinstance(policy, OraclePolicy):
        return np.where(F[:, 1] > F[:, 0], 2, 1).astype(np.int8)
    if isinstance(policy, AbsePolicy):
        return abse_actions(policy.config, X, Y)
    if isinstance(policy, SacbPolicy):
        return sacb_actions(policy, X, Y)
    return None
