"""Vectorized episode engines.

Both policies route each arrival to the unique live bin containing the
covariate, and every bin-level decision (eliminate / split / commit for
ABSE, round advance / hypothesis test for SACB) depends only on the bin's
own arrival subsequence.  With covariates and per-(t, arm) noise uniforms
drawn up front, an episode is therefore a deterministic function of the
pre-drawn streams and can be replayed bin by bin with numpy, producing the
same action sequence as the sequential policies in `abse.py` / `sacb.py`
(verified in tests/test_fast_equivalence.py).  The engines call those
modules' rules (cell_coords, lifetime, radius, round_fires,
handoff_config) rather than restating them.

ABSE is replayed from one leaf-sorted index instead of routing arrivals
down the tree.  Sorting the arrivals by their depth-k0 cell, and by time
within a cell, puts each leaf's arrivals in one contiguous, time-ordered
run, and every node owns a block of consecutive runs.  The index is one
array of packed keys, (cell << bits) | t, sorted in place and then masked
to t: 4 bytes an arrival while d k0 + bits <= 32, against the 8 of an
argsort's intp index and its sort buffer.  A node tests only the
arrivals its elimination test uses, the first 2 * lifetime of its cell
from its start time on, and its children start after the last of them;
so each arrival is tested by at most one node.  A node that eliminates
or commits writes its arm where its leaf block holds no tested arrival,
and one scatter at the end puts each arm at its time.  The cost is one
sort of n packed keys plus the tested arrivals (and, for a node of
several runs, the at most 2 * lifetime candidates per run it merges them
from), and the per-leaf tables hold 2^(d k0) < 2^d T / ln T entries.

SACB's estimation phase is replayed round by round from a bin-sorted
index of a stream prefix.  Round r of a bin reads its arrivals cum[r - 1]
to cum[r] (cum the running total of round sizes), and one `round_fires`
call tests every bin still testing in round r.  The prefix starts at
2 * n_bins * cum[1] steps and doubles only until every bin still testing
has cum[r] arrivals, or it is the whole stream; a bin that fired, ran
out of rounds or ran out of arrivals asks for no more.  That is exact
because a bin's tests read nothing past its cum[r_end] arrivals, the last
of which ends its estimation, so t_sacb lies inside the prefix and every
later step is ABSE's.

The engines read rewards only through `sim.Rewards`, which makes each
(t, arm) entry on its first read; an episode pays for the rewards its
tests use, not for the whole (T, 2) table.

Memory.  An episode holds its streams: X, the (T, 2) payoffs, the (2, T)
uniforms that become rewards and their done masks, 34 + 8 d bytes a step.
On top of them the ABSE engine holds its packed keys and two int8 arrays
of its n steps (played and actions), SACB its int8 actions and its binned
prefix, and every other stream-length pass (the draws in `rng`, the cell
keys here, the scatter of the actions, the regret accounting in `sim`)
runs rng.BLOCK steps at a time, so its temporaries are that long.
"""

from __future__ import annotations

import numpy as np

from . import rng
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


def _key_dtype(n_codes: int) -> np.dtype:
    """The narrowest unsigned dtype that holds n_codes - 1.

    numpy's stable argsort is a radix sort on 8- and 16-bit keys.
    """
    return np.min_scalar_type(n_codes - 1)


def _leaf_order(X: np.ndarray, k0: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrivals sorted by depth-k0 cell, and the cells' arrival counts.

    In d >= 2 the axes' cell bits are interleaved (a Morton code), axis 0
    most significant, as AbsePolicy orders a split's children; so the
    leaves of any cell at any depth form one contiguous block.  Arrival t
    of cell c is the packed key (c << bits) | t, bits enough for n - 1, in
    the narrowest unsigned dtype of d k0 + bits bits (uint32 while that is
    at most 32).  The keys are made rng.BLOCK points at a time, so each
    cell_coords call's float64 and int64 temporaries are that long, and
    sorted in place.  They are distinct, so they sort as a stable argsort
    by cell would; the counts are found by binary search, and masking off
    the cell bits leaves the order, in the key dtype.
    """
    n = len(X)
    bits = max(n - 1, 0).bit_length()
    n_leaves = 1 << (X.shape[1] * k0)
    dtype = _key_dtype(n_leaves << bits)
    shift, mask = dtype.type(bits), dtype.type((1 << bits) - 1)
    keys = np.empty(n, dtype=dtype)
    for start in range(0, n, rng.BLOCK):
        coords = cell_coords(X[start:start + rng.BLOCK], 1 << k0)
        code = coords[:, 0]
        if coords.shape[1] > 1:
            code = np.zeros(len(coords), dtype=np.int64)
            for bit in range(k0 - 1, -1, -1):
                for col in coords.T:
                    code = 2 * code + ((col >> bit) & 1)
        stop = start + len(code)
        np.bitwise_or(code.astype(dtype) << shift,
                      np.arange(start, stop, dtype=dtype), out=keys[start:stop])
    keys.sort()
    # Cell c's run ends after its last key, (c << bits) | mask.
    run_end = np.searchsorted(keys, np.arange(n_leaves, dtype=dtype) << shift | mask,
                              side="right")
    keys &= mask
    return keys, np.diff(run_end, prepend=0)


def abse_actions(cfg: AbseConfig, X: np.ndarray, rewards) -> np.ndarray:
    """Action sequence of ABSE on the stream of covariates X and rewards.

    X has shape (n, d); rewards is a `sim.Rewards` over the same n steps,
    read for the arrivals the elimination tests use.  Returns int8 actions
    in {1, 2}.

    Leaf-run replay: after a stable sort by depth-k0 cell, a node at depth
    k owns 2^(d (k0 - k)) consecutive leaf runs, and the arrivals it has
    not yet seen are a suffix of each, starting at its run heads.  Its
    first 2 * lifetime arrivals are among the first 2 * lifetime of each
    run; merged by time, they feed the node's own cumsum, as AbsePolicy's
    reward sums do.  The node then ends in an elimination or a commit,
    whose arm fills the positions of its block that no test played, or
    passes each child its block of run heads, advanced past the arrivals
    it tested.  A node is popped only after its ancestors, so those
    positions are exactly the rest of its runs; terminal blocks are
    disjoint.  The cost is one in-place sort of n packed keys plus the
    tested arrivals and their merge candidates; the per-leaf tables hold
    2^(d k0) entries.
    """
    n = len(X)
    k0 = max_depth(cfg)
    order, size = _leaf_order(X, k0)
    run_end = size.cumsum()
    run_start = run_end - size
    # Each depth's rules: pairs per lifetime, and the radius after
    # s = 1, 2, ..., lifetime pairs (no node sees more than n / 2 pairs).
    life = [lifetime(cfg, k) for k in range(k0 + 1)]
    pairs = [np.arange(1, min(lf, n // 2) + 1, dtype=np.float64) for lf in life]
    eps = [radius(cfg, k, s) for k, s in enumerate(pairs)]
    played = np.zeros(n, dtype=np.int8)      # indexed by sorted position
    stack = [(0, 0, run_start)]              # (depth, first leaf, run heads)
    while stack:
        depth, first, head = stack.pop()
        runs = len(head)
        end = run_end[first:first + runs]
        m = 2 * life[depth]
        if runs == 1:
            pos = np.arange(head[0], min(head[0] + m, end[0]))
            idx = order[pos].astype(np.intp)
        else:
            take = np.minimum(end - head, m)
            which = np.repeat(np.arange(runs), take)
            pos = np.arange(len(which)) + np.repeat(head - take.cumsum() + take, take)
            idx = order[pos].astype(np.intp)
            first_m = idx.argsort(kind="stable")[:m]
            pos, which, idx = pos[first_m], which[first_m], idx[first_m]
        p = len(idx) // 2
        diff = (rewards.read(0, idx[0:2 * p:2]).cumsum()
                - rewards.read(1, idx[1:2 * p:2]).cumsum()) / pairs[depth][:p]
        fire = np.abs(diff) > eps[depth][:p]
        hit = int(fire.argmax()) if fire.any() else None
        if hit is None and len(idx) < m:
            _fill_alternation(played, pos)  # the stream ends inside the lifetime
            continue
        # Alternate until the first elimination or the end of the lifetime.
        cut = m if hit is None else 2 * (hit + 1)
        _fill_alternation(played, pos[:cut])
        if hit is not None or depth == k0:
            # Eliminate the trailing arm, or, when the lifetime ends at the
            # deepest level, commit to the arm with the larger reward sum,
            # arm 1 on a tie, as AbsePolicy does.  (An eliminating gap
            # exceeds a positive radius, so it is never 0.)  The rest of
            # its runs are the positions of its block that no test played.
            gap = diff[-1 if hit is None else hit]
            block = played[run_start[first]:end[-1]]
            block[block == 0] = 1 if gap >= 0 else 2
            continue
        # Split: child c owns the c-th block of the node's leaf runs.
        width = runs >> cfg.d
        rest = head + (cut if runs == 1 else np.bincount(which[:cut], minlength=runs))
        alive = (end > rest).reshape(-1, width).any(axis=1)
        for c in np.flatnonzero(alive):
            stack.append((depth + 1, first + c * width, rest[c * width:(c + 1) * width]))
    actions = np.empty(n, dtype=np.int8)
    for start in range(0, n, rng.BLOCK):    # each block's index made intp
        actions[order[start:start + rng.BLOCK]] = played[start:start + rng.BLOCK]
    return actions


def sacb_actions(policy: SacbPolicy, X: np.ndarray, rewards) -> np.ndarray:
    """Action sequence of SACB on the stream of covariates X and rewards.

    Writes each bin's r_last into policy.state and hands off through
    `SacbPolicy.handoff_config`, as the sequential policy does.  When some
    bin never completes its rounds the estimation phase runs to the end of
    the stream and no handoff happens.

    The rounds run in order, and round r tests, in one `round_fires` call,
    every bin that has neither fired nor run out of arrivals.  Only a
    prefix of the stream is binned, sorted and alternated: it starts at
    2 * n_bins * cum[1] steps and doubles, before round r, until every bin
    still testing has cum[r] arrivals or the prefix is the whole stream.
    That is exact: a bin's round r reads its arrivals cum[r - 1] to
    cum[r], so every bin is tested on the arrivals the sequential policy
    tests it on, and the step its estimation ends, its cum[r_end]-th
    arrival, lies inside the prefix; so does t_sacb, the last of them.
    Before t_sacb every arrival plays the alternation of its bin's
    arrivals so far; the steps from t_sacb on are ABSE's.  A bin starved
    of arrivals takes the prefix to the whole stream and stops testing;
    then t_sacb is None.
    """
    n = len(X)
    actions = np.zeros(n, dtype=np.int8)
    part = policy.partition
    bin_ids = list(part.bin_ids())
    r_bar = policy.levels.r_bar
    cum = np.cumsum([0] + [2 * round_samples(policy.config.q, r)
                           for r in range(1, r_bar + 1)])

    # The binned prefix X[:m], its bin sizes, and its bin-sorted index.
    codes, size = [], np.zeros(part.n_bins, dtype=np.int64)
    order, first = np.zeros(0, dtype=np.intp), np.zeros_like(size)
    m, stop = 0, min(n, 2 * part.n_bins * cum[1])
    r_end = np.zeros(part.n_bins, dtype=np.int64)     # 0: unfinished
    testing = np.arange(part.n_bins)
    for r in range(1, r_bar + 1):
        # Each doubling bins only the steps it adds.
        while m < n and size[testing].min(initial=cum[r]) < cum[r]:
            codes.append(np.ravel_multi_index(
                cell_coords(X[m:stop], part.per_axis).T,
                (part.per_axis,) * part.d).astype(_key_dtype(part.n_bins)))
            size += np.bincount(codes[-1], minlength=part.n_bins)
            m, stop = stop, min(n, 2 * stop)
        if len(order) < m:
            order = np.argsort(np.concatenate(codes), kind="stable")
            first = size.cumsum() - size
        testing = testing[size[testing] >= cum[r]]   # the others are starved
        if not len(testing):
            break
        # Round r of bin i is its arrivals cum[r - 1] to cum[r], alternating
        # arm 1, arm 2 (rounds have even sizes): arm a's are idx[i, a].
        pos = first[testing, None] + np.arange(cum[r - 1], cum[r])
        idx = order[pos].reshape(len(testing), -1, 2).transpose(0, 2, 1)
        y = np.stack([rewards.read(arm, idx[:, arm].ravel()).reshape(len(testing), -1)
                      for arm in (0, 1)], axis=1)
        fires = policy.round_fires([bin_ids[i] for i in testing], r, X[idx], y)
        for i in testing[fires]:
            policy.state[bin_ids[i]].r_last = r
        r_end[testing[fires]] = r
        testing = testing[~fires]
    r_end[testing] = r_bar

    # Every binned arrival alternates within its bin.
    actions[order] = 1 + ((np.arange(m) - np.repeat(first, size)) & 1)
    if np.all(r_end > 0):
        t_sacb = int(order[first + cum[r_end] - 1].max()) + 1
        actions[t_sacb:] = abse_actions(policy.handoff_config(t_sacb), X[t_sacb:],
                                        rewards.tail(t_sacb))
    return actions


def run_fast(policy, X: np.ndarray, rewards, F: np.ndarray) -> np.ndarray:
    """Actions of a policy built by PolicySpec.build, on its engine.

    rewards is the `sim.Rewards` of the same n steps.  F holds the payoffs
    at X, shape (n, 2); only the oracle reads it.
    """
    if isinstance(policy, FixedArmPolicy):
        return np.full(len(X), policy.arm, dtype=np.int8)
    if isinstance(policy, OraclePolicy):
        return np.where(F[:, 1] > F[:, 0], 2, 1).astype(np.int8)
    if isinstance(policy, AbsePolicy):
        return abse_actions(policy.config, X, rewards)
    return sacb_actions(policy, X, rewards)
