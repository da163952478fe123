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

ABSE is replayed depth by depth, for a list of configs on one stream at
once, from one leaf-sorted index instead of routing arrivals down the
tree.  Sorting the arrivals by their cell at the deepest k0 of the list,
and by time within a cell, puts each leaf's arrivals in one contiguous,
time-ordered run; in Morton order a cell of any depth, in any config's
tree, is a block of consecutive runs.  The index is one array of packed
keys, (leaf << bits) | t, sorted in place: 4 bytes an arrival while
d k0 + bits <= 32, against the 8 of an argsort's intp index.  A node is a
cell and the step it starts at; the roots start at the replay's start, 0,
or t_sacb in SACB's handoff, whose index keys only the steps from there.
It tests the first 2 * lifetime arrivals of its cell from its start on,
and its children start one step after the last of them; so each arrival
is tested by at most one node of a config.
At each depth the nodes of every config are grouped by cell.  Each leaf
run of a cell gives its arrivals from the cell's earliest start to its
latest start and the largest 2 * lifetime beyond, and one sort of packed
(cell << bits) | t keys merges the cells' candidates into time order;
then each config's nodes are tested at once, as rows.  A step is played
by the node that decides it: a node plays the arrivals it tests, and one
that eliminates or commits plays its arm, at that depth, at the steps of
its leaf runs after its last tested arrival.  So a list costs one sort of
n keys and, per depth above the deepest, one sort of at most n
candidates, whatever its length.

SACB's estimation phase is replayed round by round from a bin-sorted
index of a stream prefix.  Round r of a bin reads its arrivals cum[r - 1]
to cum[r] (cum the running total of round sizes), and one `round_fires`
call tests every bin still testing in round r.  The prefix starts at
2 * n_bins * cum[1] steps and doubles only until every bin still testing
has cum[r] arrivals, or it is the whole stream; a bin that fired, ran
out of rounds or ran out of arrivals asks for no more.  That is exact
because a bin's tests read nothing past its cum[r_end] arrivals, the last
of which ends its estimation, so t_sacb lies inside the prefix and every
later step is ABSE's: a replay whose root starts at t_sacb.

The engines read rewards only through `sim.Rewards`, which makes each
(t, arm) entry, and its payoff, on its first read; an episode pays for
the rewards its tests use, not for the whole (T, 2) table.

Memory.  An episode holds its streams: X, the (T,) payoff gaps F0 - F1,
the (2, T) uniforms that become rewards and their done masks, 26 + 8 d
bytes a step.
On top of them the ABSE engine holds its packed keys, one depth's cell
lists (at most n keys; none at the deepest depth, which reads the keys)
and one int8 array of actions per config it replays; SACB holds its int8
actions and its binned prefix.  Every other stream-length pass (the draws
in `rng`, the cell keys, the candidates, the test rows and the arms a
terminal node plays here, the regret accounting in `sim`) runs rng.BLOCK
steps at a time, so its temporaries are that long.
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


def _key_dtype(n_codes: int) -> np.dtype:
    """The narrowest unsigned dtype that holds n_codes - 1.

    numpy's stable argsort is a radix sort on 8- and 16-bit keys.
    """
    return np.min_scalar_type(n_codes - 1)


def _leaf_keys(X: np.ndarray, k: int, first: int = 0) -> tuple[np.ndarray, int]:
    """The sorted keys (leaf << bits) | t of the arrivals t >= first, and bits.

    leaf is the depth-k cell of arrival t.  In d >= 2 the axes' cell bits
    are interleaved (a Morton code), axis 0 most significant, as
    AbsePolicy orders a split's children; so the leaves of any cell at any
    depth up to k form one contiguous block.  bits is enough for n - 1,
    and the keys take the narrowest unsigned dtype of d k + bits bits
    (uint32 while that is at most 32).  They are made rng.BLOCK points at
    a time, so each cell_coords call's float64 and int64 temporaries are
    that long, and sorted in place.  They are distinct, so each leaf's
    arrivals form one time-ordered run, as a stable argsort by leaf would
    order them.
    """
    n = len(X)
    bits = max(n - 1, 0).bit_length()
    dtype = _key_dtype((1 << (X.shape[1] * k)) << bits)
    shift = dtype.type(bits)
    keys = np.empty(n - first, dtype=dtype)
    for start in range(first, n, rng.BLOCK):
        coords = cell_coords(X[start:start + rng.BLOCK], 1 << k)
        code = coords[:, 0]
        if coords.shape[1] > 1:
            code = np.zeros(len(coords), dtype=np.int64)
            for bit in range(k - 1, -1, -1):
                for col in coords.T:
                    code = 2 * code + ((col >> bit) & 1)
        stop = start + len(code)
        np.bitwise_or(code.astype(dtype) << shift, np.arange(start, stop, dtype=dtype),
                      out=keys[start - first:stop - first])
    keys.sort()
    return keys, bits


def _ranges(start: np.ndarray, length: np.ndarray):
    """start[i], start[i] + 1, ..., start[i] + length[i] - 1, range after
    range, in blocks of at most rng.BLOCK positions."""
    end = np.cumsum(length)
    total = int(end[-1]) if len(end) else 0
    for a in range(0, total, rng.BLOCK):
        b = min(a + rng.BLOCK, total)
        # Ranges r to s meet [a, b); cut the first and the last to it.
        r, s = np.searchsorted(end, [a, b - 1], side="right")
        head, size = start[r:s + 1].copy(), length[r:s + 1].copy()
        skip = a - end[r] + length[r]
        head[0] += skip
        size[0] -= skip
        size[-1] -= end[s] - b
        yield np.repeat(head - size.cumsum() + size, size) + np.arange(a, b) - a


def _subcells(cells: np.ndarray, shift: int) -> np.ndarray:
    """The cells shift Morton bits below each of cells, cell by cell."""
    return (cells[:, None] << shift | np.arange(1 << shift)).ravel()


def _cell_lists(keys, bits, run_end, shift, cells, starts, need):
    """The arrivals the nodes of one depth may test, merged per cell.

    A node of cell c, starting at step s, tests the first need arrivals of
    c at or after s.  In each leaf run of c these lie among the arrivals
    before the latest start t_max on c plus the next m_max, the largest
    need on c; so each run gives its arrivals from the earliest start
    t_min on, up to that many.  A node that finds fewer than its need in
    the lists has them all: no run was cut short for it.  Returns them as
    packed (c << bits) | t keys, sorted: each cell's list in time order.
    At the deepest depth a cell is one leaf run, and the keys are its list.
    """
    if not shift:
        return keys
    by_cell = cells.argsort()
    cells, starts, need = cells[by_cell], starts[by_cell], need[by_cell]
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    per = 1 << shift                    # leaf runs per cell
    leaf = _subcells(cells[first], shift)
    dtype = keys.dtype
    head = leaf.astype(dtype) << dtype.type(bits)
    lo, mid = (np.searchsorted(keys, head | np.repeat(t, per).astype(dtype))
               for t in (np.minimum.reduceat(starts, first),
                         np.maximum.reduceat(starts, first)))
    take = np.minimum(run_end[leaf] - lo,
                      mid - lo + np.repeat(np.maximum.reduceat(need, first), per))
    lists = np.empty(int(take.sum()), dtype=dtype)
    at = 0
    for pos in _ranges(lo, take):       # leaf to cell, in each key
        block = keys[pos]
        lists[at:at + len(pos)] = (block >> dtype.type(bits + shift) << dtype.type(bits)
                                   | block & dtype.type((1 << bits) - 1))
        at += len(pos)
    lists.sort()
    return lists


def _test_nodes(cfg, depth, lists, first, length, mask, rewards, actions):
    """The elimination tests of one config's nodes at one depth, as rows.

    Node i tests lists[first[i]:first[i] + length[i]], its first length[i]
    arrivals from its start: the arms alternate 1, 2, 1, ..., and after s
    pairs the gap of reward sums / s is tested against radius(cfg, depth,
    s), as AbsePolicy does.  Each row's cumsum adds its pairs in order, so
    its sums are bit for bit those of the node alone; a short row's
    padding sits after its last pair.  The rows are tested in blocks of at
    most rng.BLOCK entries, and each node's arrivals up to its first
    elimination, or all of them, are played in actions.  Returns, per
    node, whether it eliminated, its gap (at the elimination, or after its
    last pair) and the step of its last played arrival (-1 if none).
    """
    fired = np.zeros(len(first), dtype=bool)
    gap = np.zeros(len(first))
    last = np.full(len(first), -1, dtype=np.int64)
    width = int(length.max())
    if not width:
        return fired, gap, last
    pairs = np.arange(1, width // 2 + 1, dtype=np.float64)
    eps = radius(cfg, depth, pairs)
    col = np.arange(width)
    arm = 1 + (col & 1)
    rows = max(1, rng.BLOCK // width)
    for a in range(0, len(first), rows):
        b = slice(a, a + rows)
        t = (lists[np.minimum(first[b, None] + col, len(lists) - 1)]
             & mask).astype(np.intp)
        row = np.arange(len(t))
        paired = np.arange(len(pairs)) < length[b, None] // 2
        y = np.zeros((2, len(t), len(pairs)))
        for i in (0, 1):
            y[i][paired] = rewards.read(i, t[:, i:2 * len(pairs):2][paired])
        sums = y.cumsum(axis=2)
        diff = (sums[0] - sums[1]) / pairs
        fire = (np.abs(diff) > eps) & paired
        fired[b] = fire.any(axis=1)
        hit = fire.argmax(axis=1) if len(pairs) else 0
        cut = np.where(fired[b], 2 * hit + 2, length[b])
        played = col < cut[:, None]
        actions[t[played]] = np.broadcast_to(arm, t.shape)[played]
        if len(pairs):
            gap[b] = diff[row, np.where(fired[b], hit, len(pairs) - 1)]
        last[b] = np.where(cut > 0, t[row, np.maximum(cut - 1, 0)], -1)
    return fired, gap, last


def abse_group_actions(cfgs, X: np.ndarray, rewards, start: int = 0) -> list[np.ndarray]:
    """Action sequences of several ABSE configs on one stream.

    X has shape (n, d), the covariates of every config's d; rewards is a
    `sim.Rewards` over the same n steps, read for the arrivals the
    elimination tests use.  Every root starts at step start.  Returns, per
    config, n int8 actions: 0 before start, in {1, 2} from start on.

    Depth-by-depth replay of every config's tree from one index: the
    packed keys of `_leaf_keys` at the deepest k0 of the configs, in which
    a cell of any depth is a contiguous block of leaf runs.  A node is a
    cell and the step it starts at; its tests read the first 2 * lifetime
    arrivals of its cell from its start on.  At each depth the live nodes
    of all configs are grouped by cell, each cell's candidates are merged
    by one sort (`_cell_lists`), and each config's nodes are tested at
    once, as rows (`_test_nodes`), which plays the arrivals they test.  A
    node that eliminates, or reaches its lifetime at its config's k0
    (committing to the arm with the larger reward sum, arm 1 on a tie, as
    AbsePolicy does), then plays its arm at the untested steps of its
    block: in each leaf run, those after the key (leaf << bits) | last,
    last its last tested arrival, for it tested its cell's arrivals from
    its start through last and its ancestors every earlier one.  The
    search is above (leaf, last), not at last + 1, whose time bits spill
    into the leaf bits at last = n - 1.  A node that reaches its lifetime
    above k0 splits into 2^d children that start at last + 1.  A node
    whose stream ends inside its lifetime tests all its arrivals.  A
    config's terminal blocks are disjoint, so each step is played once.
    """
    n, d = X.shape
    k0 = [max_depth(cfg) for cfg in cfgs]
    deepest = max(k0)
    keys, bits = _leaf_keys(X, deepest, start)
    dtype = keys.dtype
    mask = dtype.type((1 << bits) - 1)
    run_end = np.searchsorted(keys, np.arange(1 << (d * deepest), dtype=dtype)
                              << dtype.type(bits) | mask, side="right")
    actions = [np.zeros(n, dtype=np.int8) for _ in cfgs]
    cells = [np.zeros(1, dtype=np.int64) for _ in cfgs]    # live nodes
    starts = [np.full(1, start, dtype=np.int64) for _ in cfgs]
    for depth in range(deepest + 1):
        for j in range(len(cfgs)):                       # drop the empty ones
            cells[j], starts[j] = cells[j][starts[j] < n], starts[j][starts[j] < n]
        count = np.array([len(c) for c in cells])
        if not count.any():
            break
        need = np.array([2 * lifetime(cfg, depth) if c else 0
                         for cfg, c in zip(cfgs, count)])
        shift = d * (deepest - depth)
        lists = _cell_lists(keys, bits, run_end, shift, np.concatenate(cells),
                            np.concatenate(starts), np.repeat(need, count))
        for j, cfg in enumerate(cfgs):
            if not count[j]:
                continue
            head = cells[j].astype(dtype) << dtype.type(bits)
            first = np.searchsorted(lists, head | starts[j].astype(dtype))
            length = np.minimum(need[j], np.searchsorted(lists, head | mask,
                                                         side="right") - first)
            fired, gap, last = _test_nodes(cfg, depth, lists, first, length, mask,
                                           rewards, actions[j])
            lived = ~fired & (length == need[j])
            ends = fired | lived & (depth == k0[j])
            leaves = _subcells(cells[j][ends], shift)
            lo = np.searchsorted(keys, leaves.astype(dtype) << dtype.type(bits)
                                 | np.repeat(last[ends], 1 << shift).astype(dtype),
                                 side="right")
            arm = np.repeat(np.where(gap[ends] >= 0, 1, 2), 1 << shift)
            for a in (1, 2):
                for pos in _ranges(lo[arm == a], (run_end[leaves] - lo)[arm == a]):
                    actions[j][keys[pos] & mask] = a
            split = lived & (depth < k0[j])
            cells[j] = _subcells(cells[j][split], d)
            starts[j] = np.repeat(last[split] + 1, 1 << d)
    return actions


def abse_actions(cfg: AbseConfig, X: np.ndarray, rewards, start: int = 0) -> np.ndarray:
    """Action sequence of ABSE on the stream of covariates X and rewards.

    X has shape (n, d); rewards is a `sim.Rewards` over the same n steps.
    Returns n int8 actions: 0 before start, where the root starts, and in
    {1, 2} from there.  The replay of a lone policy, and of SACB's
    handoff: `abse_group_actions` of the list [cfg].
    """
    return abse_group_actions([cfg], X, rewards, start)[0]


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
    arrivals so far; the steps from t_sacb on are ABSE's, its root at
    t_sacb of the same stream.  A bin starved of arrivals takes the
    prefix to the whole stream and stops testing; then t_sacb is None.
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
        actions[t_sacb:] = abse_actions(policy.handoff_config(t_sacb), X, rewards,
                                        t_sacb)[t_sacb:]
    return actions


def run_fast(policy, X: np.ndarray, rewards, gap: np.ndarray) -> np.ndarray:
    """Actions of a policy built by PolicySpec.build, on its engine.

    rewards is the `sim.Rewards` of the same n steps.  gap holds the
    payoff gaps F0 - F1 at X, shape (n,); only the oracle reads it, and
    gap < 0 is its test F1 > F0, for a - b < 0 exactly when a < b.
    """
    if isinstance(policy, FixedArmPolicy):
        return np.full(len(X), policy.arm, dtype=np.int8)
    if isinstance(policy, OraclePolicy):
        return np.where(gap < 0, 2, 1).astype(np.int8)
    if isinstance(policy, AbsePolicy):
        return abse_actions(policy.config, X, rewards)
    return sacb_actions(policy, X, rewards)
