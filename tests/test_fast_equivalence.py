"""The vectorized engines must replay the sequential policies exactly."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from banditlab import fast, rng
from banditlab.abse import AbseConfig, AbsePolicy, lifetime, max_depth
from banditlab.instances import ProblemInstance, make_instance, make_power_payoff
from banditlab.partition import cells_per_axis, sacb_levels
from banditlab.policies import PolicySpec
import banditlab.sim as sim


def sequential_actions(policy, X, Y):
    out = np.zeros(len(X), dtype=np.int8)
    for t in range(len(X)):
        arm = policy.choose(X[t])
        policy.update(X[t], arm, Y[t, arm - 1])
        out[t] = arm
    return out


def dense_rewards(rewards, T):
    """The (T, 2) reward table, every entry read from rewards."""
    rows = np.arange(T)
    return np.column_stack([rewards.read(arm, rows) for arm in (0, 1)])


def table_rewards(F, u, noise):
    """Rewards whose payoffs at step t are F[t], a stored (T, 2) table."""
    def arm(a):
        return lambda steps: F[steps[:, 0].astype(np.intp), a]
    steps = np.arange(len(F), dtype=np.float64)[:, None]
    return sim.Rewards(steps, u, ProblemInstance("table", 1, arm(0), arm(1), noise))


def engine_then_reference(instance, policy, T, seed):
    """Engine actions on freshly drawn, unread rewards, then the dense Y.

    The engine runs first, so its reads make the rewards (the miss path);
    Y comes from a second draw read in one pass, and every entry the engine
    made must equal it.
    """
    X, gap, rewards = sim.draw_streams(instance, T, seed)
    actions = fast.run_fast(policy, X, rewards, gap)
    Y = dense_rewards(sim.draw_streams(instance, T, seed).rewards, T)
    assert np.array_equal(dense_rewards(rewards, T), Y)
    return X, Y, actions


CASES = [
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     PolicySpec("abse", {"beta": 0.7, "gamma_abse": 2.0}), 20_000),
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     PolicySpec("abse", {"beta": 0.4, "gamma_abse": 2.0}), 20_000),
    ({"kind": "setting2", "beta": 0.5},
     PolicySpec("abse", {"beta": 1.0}), 20_000),
    ({"kind": "power", "beta": 0.6, "delta": 1.0},
     PolicySpec("abse", {"beta": 0.5, "noise_scale": 0.5}), 15_000),
    ({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
      "delta": 0.25, "member": 1},
     PolicySpec("abse", {"beta": 0.5}), 15_000),
    ({"kind": "power", "beta": 0.6, "delta": 1.0},
     PolicySpec("sacb", {"gamma": 0.5, "q": 1.5, "upsilon": 2.5,
                         "beta_lo": 0.6, "beta_hi": 1.0,
                         "gamma_abse": 2.0}), 50_000),
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     PolicySpec("sacb", {"gamma": 0.3, "q": 1.4, "upsilon": 1.5,
                         "beta_lo": 0.5, "beta_hi": 1.0,
                         "gamma_abse": 2.0}), 40_000),
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     PolicySpec("oracle", {}), 10_000),
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     PolicySpec("fixed", {"arm": 2}), 10_000),
    # The sacb-degree1 benchmark shape: beta_hi = 1.5 gives degree-1 fits.
    ({"kind": "power", "beta": 0.6, "delta": 1.0},
     PolicySpec("sacb", {"gamma": 0.42, "q": 1.5, "upsilon": 2.5,
                         "beta_lo": 0.6, "beta_hi": 1.5,
                         "gamma_abse": 2.0}), 50_000),
    # d = 2, degree 1 (Bernoulli rewards); q = 3 keeps the mesh at 81^2
    # points per bin so both engines finish in seconds.
    ({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
      "delta": 0.25, "member": 1, "d": 2},
     PolicySpec("sacb", {"gamma": 0.3, "q": 3.0, "upsilon": 2.5,
                         "beta_lo": 0.9, "beta_hi": 1.5}), 10_000),
    # Bernoulli noise, handoff tuned for the remaining horizon.
    ({"kind": "power", "beta": 0.6, "delta": 1.0, "noise": ["bernoulli"]},
     PolicySpec("sacb", {"gamma": 0.42, "q": 1.5, "upsilon": 2.5,
                         "beta_lo": 0.6, "beta_hi": 0.9,
                         "handoff_horizon": "remaining"}), 50_000),
    # ABSE alone in d = 2: about 80 splits into 4 children each, a few
    # eliminations, and over 200 commits at depth k0 = 4.
    ({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
      "delta": 0.25, "member": 1, "d": 2},
     PolicySpec("abse", {"beta": 0.5, "c0": 4.0, "gamma_abse": 0.25}), 15_000),
    # Found by the fuzz below: with Bernoulli rewards the arms can tie at a
    # depth-k0 lifetime commit (seed 17).  Both sides must break the tie on
    # reward sums, not on running means, whose rounding differs.
    ({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
      "delta": 0.25, "member": 1, "d": 2},
     PolicySpec("abse", {"beta": 0.75, "c0": 4.0, "gamma_abse": 1.0}), 5_000),
]
# A deep tree (k0 = 9, reached) with eliminations at several depths above
# k0: its shallow nodes merge up to 2^9 leaf runs and its eliminations cut
# runs at many depths.  The test checks that the case keeps doing so.
DEEP_ABSE = ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
             PolicySpec("abse", {"beta": 0.15, "gamma_abse": 0.25}), 20_000)
CASES.append(DEEP_ABSE)


@pytest.mark.parametrize("inst_spec,pspec,T", CASES)
@pytest.mark.parametrize("seed", [3, 17])
def test_engine_matches_sequential(inst_spec, pspec, T, seed, monkeypatch):
    instance = make_instance(inst_spec, T)
    fast_pol = pspec.build(instance, T)
    abse_configs = []
    abse_actions = fast.abse_actions

    def recording_abse_actions(cfg, X, rewards, start=0):
        abse_configs.append(cfg)
        return abse_actions(cfg, X, rewards, start)

    monkeypatch.setattr(fast, "abse_actions", recording_abse_actions)
    X, Y, a_fast = engine_then_reference(instance, fast_pol, T, seed)
    seq_pol = pspec.build(instance, T)
    a_seq = sequential_actions(seq_pol, X, Y)
    assert np.array_equal(a_fast, a_seq)
    if pspec.kind == "sacb":
        assert fast_pol.t_sacb is not None
        assert fast_pol.t_sacb == seq_pol.t_sacb
        assert fast_pol.beta_hat_raw == seq_pol.beta_hat_raw
        assert fast_pol.beta_hat == seq_pol.beta_hat
        assert abse_configs == [seq_pol.handoff.config]
    if (inst_spec, pspec, T) == DEEP_ABSE:
        eliminated = {k for (k, _), b in seq_pol.bins.items()
                      if b.committed and k < seq_pol.k0}
        assert seq_pol.k0 >= 8
        assert max(k for k, _ in seq_pol.bins) == seq_pol.k0
        assert len(eliminated) >= 3


def morton_leaf(X, k0):
    """Each point's depth-k0 cell, its axes' bits interleaved from the top."""
    cells = np.minimum(np.floor(X * 2 ** k0).astype(int), 2 ** k0 - 1)
    leaf = []
    for row in cells:
        digits = [format(c, f"0{k0}b") for c in row]     # one string per axis
        leaf.append(int("".join("".join(bits) for bits in zip(*digits)) or "0", 2))
    return np.array(leaf)


# n = 2^12: the last arrival's key has every time bit set, and ends its run.
@pytest.mark.parametrize("d,k0,n,dtype", [
    pytest.param(1, None, 4_096, np.uint32, id="1"),
    pytest.param(2, None, 4_096, np.uint32, id="2"),
    # d k0 + bits = 20 + 13 > 32: the keys take 64 bits.
    pytest.param(2, 10, 5_000, np.uint64, id="uint64"),
])
def test_abse_leaf_keys_in_blocks(d, k0, n, dtype, monkeypatch):
    """The packed keys, made in one block or 7 points at a time, order the
    points as a stable argsort by leaf: their time bits are that order,
    and their leaf bits each point's leaf."""
    k0 = k0 or max_depth(AbseConfig(beta=0.5, T=n, d=d, gamma_abse=0.5))
    X = np.random.default_rng(12).random((n, d))
    X[:3] = [[0.0] * d, [1.0] * d, [0.5] * d]
    leaf = morton_leaf(X, k0)
    want = np.argsort(leaf, kind="stable")
    for block in (rng.BLOCK, 7):
        monkeypatch.setattr(rng, "BLOCK", block)
        keys, bits = fast._leaf_keys(X, k0)
        assert keys.dtype == dtype and bits == (n - 1).bit_length()
        assert np.array_equal(keys & ((1 << bits) - 1), want)
        assert np.array_equal(keys >> bits, leaf[want])


# The deep Setting I tree of DEEP_ABSE (d = 1) and the d = 2 abse case of
# CASES, at a shorter horizon.
@pytest.mark.parametrize("inst_spec,params", [
    ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
     {"beta": 0.15, "gamma_abse": 0.25}),
    ({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
      "delta": 0.25, "member": 1, "d": 2},
     {"beta": 0.5, "c0": 4.0, "gamma_abse": 0.25}),
], ids=["d1", "d2"])
def test_abse_roots_that_start_late(inst_spec, params, monkeypatch):
    """A replay whose roots start at step s plays 0 before s and, from s
    on, what AbsePolicy plays on X[s:] with the same rewards; its index
    keys the steps from s on, and only those.  s is 0, a step inside the
    second rng.BLOCK, n - 1 and n."""
    monkeypatch.setattr(rng, "BLOCK", 2_048)
    n = 6_000
    instance = make_instance(inst_spec, n)
    cfg = PolicySpec("abse", params).build(instance, n).config
    for s in (0, rng.BLOCK + 300, n - 1, n):
        X, _, rewards = sim.draw_streams(instance, n, 41)
        actions = fast.abse_actions(cfg, X, rewards, start=s)
        Y = dense_rewards(rewards, n)
        assert not actions[:s].any()
        assert np.array_equal(actions[s:],
                              sequential_actions(AbsePolicy(cfg), X[s:], Y[s:]))
        keys, bits = fast._leaf_keys(X, max_depth(cfg), s)
        assert len(keys) == n - s
        assert np.array_equal(np.sort(keys & ((1 << bits) - 1)), np.arange(s, n))


@pytest.mark.parametrize("d", [1, 2])
def test_abse_engine_on_cell_edges(d, monkeypatch):
    """Covariates at 0, 1 and the dyadic edges j / 2^k, where cells meet.

    cell_coords puts j / 2^k in cell j and x = 1 in the last cell; the
    leaf-run index must then hand each such arrival to the same bin as
    AbsePolicy does, at every depth, and the engine's blocked passes (its
    keys and the final scatter) must agree with one block of the stream.
    """
    T = 4_000
    cfg = AbseConfig(beta=0.5, T=T, d=d, gamma_abse=0.5)
    k0 = max_depth(cfg)
    g = np.random.default_rng(11)
    edges = np.unique(np.concatenate(
        [np.arange(2 ** k + 1) / 2 ** k for k in range(k0 + 2)]))
    X = np.where(g.random((T, d)) < 0.5, g.choice(edges, size=(T, d)),
                 g.random((T, d)))
    X[:4] = [[0.0] * d, [1.0] * d, [0.5] * d, [0.0] * (d - 1) + [1.0]]
    # Bernoulli rewards whose better arm flips at x_0 = 1/2.
    mean = np.where(X[:, :1] < 0.5, [0.8, 0.3], [0.35, 0.7])
    U = g.random((T, 2))
    seq_pol = AbsePolicy(cfg)
    Y = (U < mean).astype(np.float64)
    a_seq = sequential_actions(seq_pol, X, Y)
    assert max(k for k, _ in seq_pol.bins) == k0
    # In a group with a deeper tree the index is made at the deeper k0, and
    # cfg reads each of its cells as a block of those leaves.
    deep = AbseConfig(beta=0.2, T=T, d=d, c0=4.0, gamma_abse=0.5)
    assert max_depth(deep) > k0
    a_deep = sequential_actions(AbsePolicy(deep), X, Y)
    for block in (rng.BLOCK, 7):
        monkeypatch.setattr(rng, "BLOCK", block)
        rewards = table_rewards(mean, U.T.copy(), ("bernoulli",))
        assert np.array_equal(fast.abse_actions(cfg, X, rewards), a_seq)
        rewards = table_rewards(mean, U.T.copy(), ("bernoulli",))
        group = fast.abse_group_actions([deep, cfg], X, rewards)
        assert np.array_equal(group[0], a_deep)
        assert np.array_equal(group[1], a_seq)


def test_abse_fill_after_the_last_step(monkeypatch):
    """A node that commits at step n - 1 = 2^12 - 1, whose key has every
    time bit set, and a node that eliminates with the rest of its block to
    fill.

    Every left-half arrival sits at one point x, in the odd depth-k0 cell 1
    and in an odd leaf of a deeper tree; both arms pay 1 there, so cfg's
    nodes on that track split at their lifetimes and its depth-k0 node
    commits to arm 1 on the last step.  On the right half arm 2 pays 1 and
    arm 1 pays 0, so a depth-1 node eliminates arm 1 and arm 2 fills the
    rest of the stream there.  The fill searches each leaf run after a
    node's last tested arrival: a search at last + 1 would spill into the
    leaf bits here, and one that starts at the run's start, or includes
    the last tested arrival, would overwrite tested arrivals.
    """
    n = 2 ** 12
    cfg = AbseConfig(beta=0.5, T=n, c0=2.0, gamma_abse=0.25)
    deep = AbseConfig(beta=0.2, T=n, c0=4.0, gamma_abse=0.5)
    k0, shift = max_depth(cfg), max_depth(deep) - max_depth(cfg)
    assert shift > 0
    x = (2 ** shift + 1.5) / 2 ** max_depth(deep)
    root, track = (2 * sum(lifetime(cfg, k) for k in range(stop))
                   for stop in (1, k0 + 1))
    g = np.random.default_rng(5)
    on_track = np.zeros(n, dtype=bool)
    on_track[:root] = on_track[-1] = True
    on_track[g.choice(np.arange(root, n - 1), track - root - 1, replace=False)] = True
    X = np.where(on_track, x, 0.5 + 0.5 * g.random(n))[:, None]
    mean = np.where(X < 0.5, [1.0, 1.0], [0.0, 1.0])
    U = g.random((n, 2))
    Y = (U < mean).astype(np.float64)
    seq_pol, before = AbsePolicy(cfg), AbsePolicy(cfg)
    a_seq = sequential_actions(seq_pol, X, Y)
    sequential_actions(before, X[:-1], Y[:-1])
    assert not before.bins[k0, (1,)].committed and seq_pol.bins[k0, (1,)].committed == 1
    assert seq_pol.bins[1, (1,)].committed == 2
    a_deep = sequential_actions(AbsePolicy(deep), X, Y)
    for block in (rng.BLOCK, 7):
        monkeypatch.setattr(rng, "BLOCK", block)
        rewards = table_rewards(mean, U.T.copy(), ("bernoulli",))
        assert np.array_equal(fast.abse_actions(cfg, X, rewards), a_seq)
        rewards = table_rewards(mean, U.T.copy(), ("bernoulli",))
        group = fast.abse_group_actions([deep, cfg], X, rewards)
        assert np.array_equal(group[0], a_deep)
        assert np.array_equal(group[1], a_seq)


def test_sacb_engine_with_16_bit_bin_keys():
    """A partition of 257 bins, so the engine sorts its bin index as uint16.

    A key type too narrow for the bin count would wrap and merge bins.
    q = 257 puts l = 1 and r_bar = 1: every bin tests once, at its 514th
    arrival, and the handoff comes when the last bin has tested.
    """
    T = 160_000
    instance = make_power_payoff(0.6, 1.0)
    pspec = PolicySpec("sacb", {"gamma": 0.05, "q": 257.0, "upsilon": 0.0,
                                "beta_lo": 0.5, "beta_hi": 0.5})
    fast_pol = pspec.build(instance, T)
    assert fast_pol.partition.n_bins == 257
    with mock.patch.object(fast.np, "argsort", wraps=np.argsort) as spy:
        X, Y, a_fast = engine_then_reference(instance, fast_pol, T, 3)
    # The engine's first sort is of its bin index.
    assert spy.call_args_list[0].args[0].dtype == np.uint16
    seq_pol = pspec.build(instance, T)
    assert np.array_equal(a_fast, sequential_actions(seq_pol, X, Y))
    assert fast_pol.t_sacb is not None and fast_pol.t_sacb == seq_pol.t_sacb
    assert [st.r_last for st in fast_pol.state.values()] == \
           [st.r_last for st in seq_pol.state.values()]


def test_sacb_starved_stream_never_hands_off():
    instance = make_power_payoff(0.6, 1.0)
    pspec = PolicySpec("sacb", {"gamma": 1e9, "q": 1.5, "upsilon": 2.5,
                                "beta_lo": 0.6, "beta_hi": 1.0})
    T = 2_000  # far too short to finish the round schedule
    fast_pol = pspec.build(instance, T)
    X, Y, a_fast = engine_then_reference(instance, fast_pol, T, 5)
    seq_pol = pspec.build(instance, T)
    a_seq = sequential_actions(seq_pol, X, Y)
    assert np.array_equal(a_fast, a_seq)
    assert fast_pol.t_sacb is None and seq_pol.t_sacb is None


# q = 2, upsilon = 1 at T = 20k: 2 bins, [0, 1/2) and [1/2, 1], whose 6
# rounds read their arrivals up to cum[r] = 4, 12, 28, 60, 124, 252.  The
# engine first bins 2 * 2 * cum[1] = 16 steps and doubles the prefix before
# round r until every bin still testing has cum[r] arrivals.  At
# gamma = 0.2 one bin's test fires (round 5 on the streams below) and the
# other runs all 6 rounds.
PREFIX_SACB = PolicySpec("sacb", {"gamma": 0.2, "q": 2.0, "upsilon": 1.0,
                                  "beta_lo": 0.6, "beta_hi": 1.0})


def sacb_engine_against_sequential(pspec, T, X, u):
    """Engine and sequential SACB on covariates X and noise uniforms u.

    Asserts equal actions, t_sacb, beta_hat and r_last of every bin.
    Returns the engine's policy, the sizes of the covariate blocks the
    engine binned before its handoff, and the length of the stream it
    handed to ABSE (None when it did not hand off).
    """
    instance = make_power_payoff(0.6, 1.0)
    fast_pol = pspec.build(instance, T)
    binned, handed = [], []
    cell_coords, abse_actions = fast.cell_coords, fast.abse_actions

    def spy_cell_coords(points, n):
        if not handed:
            binned.append(len(points))
        return cell_coords(points, n)

    def spy_abse_actions(cfg, X, rewards, start=0):
        handed.append(len(X) - start)
        return abse_actions(cfg, X, rewards, start)

    with mock.patch.object(fast, "cell_coords", spy_cell_coords), \
            mock.patch.object(fast, "abse_actions", spy_abse_actions):
        a_fast = fast.sacb_actions(fast_pol, X, sim.Rewards(X, u.copy(), instance))
    Y = dense_rewards(sim.Rewards(X, u.copy(), instance), len(X))
    seq_pol = pspec.build(instance, T)
    assert np.array_equal(a_fast, sequential_actions(seq_pol, X, Y))
    assert fast_pol.t_sacb == seq_pol.t_sacb
    assert fast_pol.beta_hat == seq_pol.beta_hat
    assert [st.r_last for st in fast_pol.state.values()] == \
           [st.r_last for st in seq_pol.state.values()]
    return fast_pol, binned, (handed or [None])[0]


def drawn_stream(T, seed):
    """Covariates and both arms' noise uniforms of replication (seed, 0)."""
    return (rng.covariate_block(seed, 0, T, 1),
            np.stack([rng.noise_uniform_block(seed, 0, T, arm) for arm in (1, 2)]))


def test_sacb_engine_bins_a_prefix():
    T = 20_000
    pol, binned, handed = sacb_engine_against_sequential(
        PREFIX_SACB, T, *drawn_stream(T, 7))
    assert binned == [16, 16, 32, 64, 128, 256]
    assert pol.t_sacb is not None and handed == T - pol.t_sacb


def test_sacb_engine_grows_its_prefix():
    # The first 1008 arrivals all fall in bin 0, so bin 1 has no arrival
    # until the prefix doubles past step 1008.
    T = 20_000
    g = np.random.default_rng(9)
    X = g.random((T, 1))
    X[:1008] *= 0.5
    pol, binned, handed = sacb_engine_against_sequential(
        PREFIX_SACB, T, X, g.random((2, T)))
    assert binned == [16, 16, 32, 64, 128, 256, 512, 1024]
    assert pol.t_sacb is not None and handed == T - pol.t_sacb


def test_sacb_engine_bins_only_the_rounds_it_tests():
    # At gamma = 0.05 the bins fire in rounds 2 and 1, which read their
    # first cum[2] = 12 arrivals: the engine bins 32 steps, not the
    # 2 * n_bins * cum[r_bar] = 1008 that all 6 rounds could read.
    T = 20_000
    pspec = PolicySpec("sacb", {**PREFIX_SACB.params, "gamma": 0.05})
    pol, binned, handed = sacb_engine_against_sequential(pspec, T, *drawn_stream(T, 7))
    assert [st.r_last for st in pol.state.values()] == [2, 1]
    assert binned == [16, 16]
    assert pol.t_sacb is not None and handed == T - pol.t_sacb


def test_sacb_engine_with_a_starved_bin():
    # 4 bins of width 1/4 and 8 rounds (cum[r_bar] = 1020).  Bin 3 gets
    # only 30 arrivals, so it stops testing after round 3 and blocks the
    # handoff; the other bins go on testing and fire in rounds 8 and 4, or
    # run all 8 rounds, as in the sequential policy.
    T = 20_000
    pspec = PolicySpec("sacb", {"gamma": 0.3, "q": 2.0, "upsilon": 1.0,
                                "beta_lo": 1.0, "beta_hi": 1.0})
    g = np.random.default_rng(5)
    X = 0.75 * g.random((T, 1))
    X[g.choice(T, 30, replace=False)] = 0.75 + 0.25 * g.random((30, 1))
    pol, binned, handed = sacb_engine_against_sequential(pspec, T, X, g.random((2, T)))
    assert pol.partition.n_bins == 4
    assert [st.r_last for st in pol.state.values()] == [8, None, 4, None]
    assert sum(binned) == T                 # the starved bin takes in the stream
    assert pol.t_sacb is None and handed is None


def test_sacb_engine_hands_off_on_the_last_step():
    # Cut the stream where the last bin closes its last round: the
    # estimation ends on the final step and ABSE gets an empty stream.
    T = 20_000
    X, u = drawn_stream(T, 7)
    t_sacb = sacb_engine_against_sequential(PREFIX_SACB, T, X, u)[0].t_sacb
    pol, binned, handed = sacb_engine_against_sequential(
        PREFIX_SACB, T, X[:t_sacb], u[:, :t_sacb])
    assert pol.t_sacb == t_sacb and handed == 0


def test_run_episode_paths_agree():
    # run_episode's regret accounting of the engine's actions equals the
    # same quantities computed from the sequential policy's actions.
    T, seed = 20_000, 23
    instance = make_instance({"kind": "setting1", "beta": 0.9,
                              "overrides": {"M": 8.0}}, T)
    pspec = PolicySpec("abse", {"beta": 0.8, "gamma_abse": 2.0})
    trace = sim.run_episode(instance, pspec, T, seed)
    X, _, rewards = sim.draw_streams(instance, T, seed)
    actions = sequential_actions(pspec.build(instance, T), X, dense_rewards(rewards, T))
    F = instance.payoffs(X)
    chosen = F[np.arange(T), actions - 1]
    best = F.max(axis=1)
    assert trace.final_regret == pytest.approx(np.sum(best - chosen), rel=1e-12)
    assert trace.inferior_count == np.count_nonzero(chosen < best)


LOWER_BOUND = {"kind": "lower_bound", "beta": 0.5, "gamma": 0.9, "alpha": 1.0,
               "delta": 0.25, "member": 1}
SETTING1_M8 = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
TABLE3_BETAS = [0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]


def group_then_reference(instance, policies, n, seed):
    """The group engine's actions of policies on a fresh n-step stream, then
    the dense Y, as engine_then_reference does for one policy."""
    X, _, rewards = sim.draw_streams(instance, n, seed)
    group = fast.abse_group_actions([p.config for p in policies], X, rewards)
    Y = dense_rewards(sim.draw_streams(instance, n, seed).rewards, n)
    assert np.array_equal(dense_rewards(rewards, n), Y)
    return X, Y, group


# Groups of abse specs replayed on one stream: the instance, each spec's
# params, the horizon the specs are built for, the stream's length (None:
# the horizon) and the seed.
GROUPS = [
    pytest.param(SETTING1_M8, [{"beta": b} for b in TABLE3_BETAS], 20_000, None, 3,
                 id="table3"),
    # c0 = 4 gives short lifetimes: many nodes of several configs share
    # each cell, at different starts.
    *[pytest.param(SETTING1_M8, [{"beta": b / 10, "c0": 4.0} for b in range(3, 11)],
                   20_000, None, seed, id=f"short-lifetimes-{seed}") for seed in (3, 17)],
    pytest.param(dict(LOWER_BOUND, d=2),
                 [{"beta": 0.5, "c0": 4.0, "gamma_abse": 0.25},
                  {"beta": 0.75, "c0": 2.0, "gamma_abse": 1.0},
                  {"beta": 0.6, "c0": 4.0, "gamma_abse": 2.0},
                  {"beta": 0.9, "c0": 2.0, "gamma_abse": 0.25}], 15_000, None, 3,
                 id="d2-mixed"),
    pytest.param(SETTING1_M8, [{"beta": 0.7, "gamma_abse": g} for g in (0.25, 0.5, 1.0, 2.0)],
                 20_000, None, 17, id="one-beta"),
    # Streams shorter than the horizon end inside lifetimes, as a handoff's do.
    *[pytest.param(SETTING1_M8, [{"beta": b} for b in (0.4, 0.7, 1.0)], 20_000, n, 3,
                   id=f"cut-{n}") for n in (17, 1000, 4099)],
    # The Bernoulli tie at a depth-k0 commit (see CASES), in a group.
    pytest.param(dict(LOWER_BOUND, d=2),
                 [{"beta": 0.75, "c0": 4.0, "gamma_abse": 1.0},
                  {"beta": 0.5, "c0": 4.0, "gamma_abse": 0.25}], 5_000, None, 17,
                 id="bernoulli-tie"),
]


@pytest.mark.parametrize("inst_spec,params,T,n,seed", GROUPS)
def test_group_matches_sequential(inst_spec, params, T, n, seed):
    """Each config of a group replays as its own AbsePolicy."""
    instance = make_instance(inst_spec, T)
    policies = [PolicySpec("abse", p).build(instance, T) for p in params]
    X, Y, group = group_then_reference(instance, policies, n or T, seed)
    for policy, actions in zip(policies, group, strict=True):
        assert np.array_equal(actions, sequential_actions(policy, X, Y))


@pytest.mark.parametrize("seed", [3, 17])
def test_group_on_skewed_covariates(seed):
    """Covariates x = u^4 crowd near 0, so the leaf runs of a cell fill
    unevenly.  A node that starts late on a cell then reads more of one
    run than the window from the cell's earliest start, as long as the
    largest need, holds; each run must give its arrivals up to the latest
    start as well."""
    T = 20_000
    instance = make_instance(SETTING1_M8, T)
    policies = [PolicySpec("abse", {"beta": b / 10, "c0": 4.0}).build(instance, T)
                for b in range(3, 11)]
    g = np.random.default_rng(seed)
    X = g.random((T, 1)) ** 4
    u = g.random((2, T))
    group = fast.abse_group_actions([p.config for p in policies], X,
                                    sim.Rewards(X, u.copy(), instance))
    Y = dense_rewards(sim.Rewards(X, u.copy(), instance), T)
    for policy, actions in zip(policies, group, strict=True):
        assert np.array_equal(actions, sequential_actions(policy, X, Y))


@st.composite
def engine_cases(draw):
    """An instance spec, 1 sacb or 1-4 abse specs, a horizon and a seed."""
    d = draw(st.sampled_from([1, 2]))
    kind = "lower_bound" if d == 2 else draw(
        st.sampled_from(["setting1", "power", "lower_bound"]))
    if kind == "setting1":      # Gaussian; the construction needs T >= 1000
        inst = {"kind": "setting1", "beta": 0.9,
                "overrides": {"M": draw(st.sampled_from([4.0, 8.0]))}}
        T = draw(st.integers(1000, 5000))
    elif kind == "power":
        inst = {"kind": "power", "beta": 0.6, "delta": 1.0,
                "noise": draw(st.sampled_from([["gaussian", 0.05],
                                               ["gaussian", 0.5], ["bernoulli"]]))}
        T = draw(st.integers(300, 5000))
    else:                       # Bernoulli
        inst = dict(LOWER_BOUND, d=d)
        T = draw(st.integers(300, 5000))
    if draw(st.booleans()):
        pspecs = [PolicySpec("abse", {
            "beta": draw(st.floats(0.2, 1.0)),
            "c0": draw(st.sampled_from([2.0, 4.0])),
            "gamma_abse": draw(st.sampled_from([0.25, 1.0, 2.0]))})
            for _ in range(draw(st.integers(1, 4)))]
    else:
        beta_lo = draw(st.floats(0.4, 1.0))
        params = {"beta_lo": beta_lo,
                  "beta_hi": draw(st.floats(beta_lo, 1.6)),
                  "q": draw(st.floats(1.4, 3.0)),
                  "gamma": draw(st.floats(0.05, 2.0)),
                  "upsilon": draw(st.floats(0.5, 3.0)),
                  "handoff_horizon": draw(st.sampled_from(["full", "remaining"]))}
        pspecs = [PolicySpec("sacb", params)]
        if d == 2:
            # The sequential policy fits every mesh point each round; in
            # d = 2 the mesh reaches 10^8 points, so keep it under 3 * 10^4.
            lv = sacb_levels(T, d, params["q"], beta_lo, params["beta_hi"],
                             params["upsilon"])
            assume(cells_per_axis(params["q"], lv.l_tilde) ** d <= 30_000)
    return inst, pspecs, T, draw(st.integers(0, 2 ** 16))


@settings(max_examples=100, deadline=None)
@given(engine_cases())
def test_engine_matches_sequential_fuzz(case):
    inst_spec, pspecs, T, seed = case
    instance = make_instance(inst_spec, T)
    fast_pols = [ps.build(instance, T) for ps in pspecs]
    if pspecs[0].kind == "abse":
        X, Y, group = group_then_reference(instance, fast_pols, T, seed)
        for ps, actions in zip(pspecs, group, strict=True):
            assert np.array_equal(actions, sequential_actions(ps.build(instance, T), X, Y))
        return
    fast_pol, = fast_pols
    with mock.patch.object(fast, "abse_actions", wraps=fast.abse_actions) as spy:
        X, Y, a_fast = engine_then_reference(instance, fast_pol, T, seed)
    seq_pol = pspecs[0].build(instance, T)
    assert np.array_equal(a_fast, sequential_actions(seq_pol, X, Y))
    assert fast_pol.t_sacb == seq_pol.t_sacb
    assert fast_pol.beta_hat_raw == seq_pol.beta_hat_raw
    handed = [call.args[0] for call in spy.call_args_list]
    assert handed == ([seq_pol.handoff.config] if seq_pol.handoff else [])
