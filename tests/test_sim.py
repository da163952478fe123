import concurrent.futures
import itertools
import weakref
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtri

from banditlab import fast, rng, sim
from banditlab.instances import ProblemInstance, make_instance, make_power_payoff
from banditlab.policies import PolicySpec
from banditlab.sim import (RegretTrace, Rewards, draw_streams, payoff_gap,
                           run_episode, run_experiment, summarize)


def flat_instance():
    f = lambda x: np.full_like(np.asarray(x, float), 0.5)
    return ProblemInstance("flat", 1, f, f, ("gaussian", 0.05))


def tie_instance():
    """Arms that tie on [0.3, 0.7]; arm 2 is better below, arm 1 above."""
    return ProblemInstance(
        "tie", 1,
        f1=lambda x: np.asarray(x, float),
        f2=lambda x: np.clip(np.asarray(x, float), 0.3, 0.7),
        noise=("gaussian", 0.05))


def naive_checkpoints(F, actions, stride):
    """The checkpoints of actions on the payoff table F, from one cumsum of
    best - chosen over the whole stream, and the inferior steps."""
    T = len(F)
    chosen = F[np.arange(T), actions - 1]
    best = np.maximum(F[:, 0], F[:, 1])
    inferior = chosen < best
    marks = list(range(stride - 1, T, stride))
    if marks[-1] != T - 1:
        marks.append(T - 1)
    want = tuple(zip([m + 1 for m in marks],
                     np.cumsum(best - chosen)[marks].tolist(),
                     np.cumsum(inferior)[marks].tolist()))
    return want, np.flatnonzero(inferior)


def assert_trace_is(tr, want):
    """Every checkpoint, the final regret and the inferior count equal
    want's to the bit (reprs tell -0.0 apart)."""
    assert repr(tr.checkpoints) == repr(want)
    assert repr(tr.final_regret) == repr(want[-1][1])
    assert tr.inferior_count == want[-1][2]


class TestEpisode:
    def test_zero_gap_zero_regret(self):
        tr = run_episode(flat_instance(), PolicySpec("fixed", {"arm": 1}),
                         5000, seed=1)
        assert tr.final_regret == 0.0
        assert tr.inferior_count == 0

    def test_oracle_zero_regret(self):
        inst = make_power_payoff(0.6, 1.0)
        tr = run_episode(inst, PolicySpec("oracle", {}), 5000, seed=2)
        assert tr.final_regret == 0.0
        assert tr.inferior_count == 0

    def test_oracle_episode_evaluates_payoffs_once(self):
        # The oracle takes its actions from the gap that the episode makes
        # for its accounting: both arms, every step, in one pass.  The draw
        # evaluates none.
        inst = make_power_payoff(0.6, 1.0)
        with mock.patch.object(ProblemInstance, "payoffs", autospec=True,
                               side_effect=ProblemInstance.payoffs) as calls:
            tr = run_episode(inst, PolicySpec("oracle", {}), 1000, seed=2)
        assert [(len(c.args[1]), c.args[2:]) for c in calls.call_args_list] == [
            (1000, ())]
        assert tr.final_regret == 0.0

    def test_fixed_arm_regret_closed_form(self):
        # f1 - f2 = x - 1/2 on uniform covariates; always playing arm 1
        # loses int_0^(1/2) (1/2 - x) dx = 1/8 per step in expectation
        inst = ProblemInstance(
            "linear", 1,
            f1=lambda x: np.asarray(x, float),
            f2=lambda x: np.full_like(np.asarray(x, float), 0.5),
            noise=("gaussian", 0.05))
        T = 1_000_000
        tr = run_episode(inst, PolicySpec("fixed", {"arm": 1}), T, seed=3)
        want = T / 8.0
        # per-step regret in [0, 1/2]: sd of the sum <= sqrt(T)/2
        sd_bound = 3.0 * np.sqrt(T) / 2.0
        assert abs(tr.final_regret - want) <= sd_bound

    def test_regret_is_best_minus_chosen_bit_for_bit(self):
        # The arms tie on [0.3, 0.7].  "arbitrary" plays random arms,
        # "none" never plays an inferior arm (random arms on ties), and
        # "ends" is inferior at t = 0 and t = T - 1 only.  Strides 7 and
        # 300 do not divide T.  Every checkpoint must equal the naive cumsum
        # of best - chosen to the bit, +0.0 included (reprs tell -0.0 apart),
        # whether the accounting takes T in one block or 5 steps at a time,
        # so that inferior steps straddle block edges.
        inst = tie_instance()
        T = 1_999
        F = inst.payoffs(rng.covariate_block(6, 0, T, 1))
        assert (F[:, 0] == F[:, 1]).any()
        arbitrary = np.random.default_rng(6).integers(1, 3, T).astype(np.int8)
        better = np.where(F[:, 1] > F[:, 0], 2, 1).astype(np.int8)
        ends = better.copy()
        ends[[0, -1]] = 3 - ends[[0, -1]]
        cases = [(arbitrary, lambda t: len(t) > 2),
                 (np.where(F[:, 0] == F[:, 1], arbitrary, better),
                  lambda t: len(t) == 0),
                 (ends, lambda t: t.tolist() == [0, T - 1])]
        for (actions, shape), stride, block in itertools.product(
                cases, [1, 7, 300], [rng.BLOCK, 5]):
            with (mock.patch.object(fast, "run_fast", return_value=actions),
                  mock.patch.object(rng, "BLOCK", block)):
                tr = run_episode(inst, PolicySpec("fixed", {"arm": 1}), T, seed=6,
                                 checkpoint_stride=stride)
            want, inferior = naive_checkpoints(F, actions, stride)
            assert shape(inferior)
            assert_trace_is(tr, want)

    def test_shared_replication_accounts_bit_for_bit(self, monkeypatch):
        # Three episodes share one replication of the tied arms: fixed arm
        # 1, random arms ("arbitrary", played here by fixed arm 2's engine)
        # and the oracle, which ties on [0.3, 0.7].  The gap is made once
        # and each episode carries its running sum through 400 blocks of 5
        # steps, across which inferior steps straddle block edges.  Every
        # checkpoint, final regret and inferior count must equal the naive
        # cumsum of best - chosen to the bit.
        inst = tie_instance()
        T = 1_999
        F = inst.payoffs(rng.covariate_block(6, 0, T, 1))
        assert (F[:, 0] == F[:, 1]).any()
        arbitrary = np.random.default_rng(6).integers(1, 3, T).astype(np.int8)
        _, inferior = naive_checkpoints(F, arbitrary, T)
        assert np.isin(inferior[inferior % 5 == 4] + 1, inferior).any()
        run_fast = fast.run_fast

        def engine(policy, X, rewards, gap=None):
            return (arbitrary if getattr(policy, "arm", 1) == 2
                    else run_fast(policy, X, rewards, gap))

        monkeypatch.setattr(fast, "run_fast", engine)
        monkeypatch.setattr(sim, "make_instance", lambda spec, T: inst)
        monkeypatch.setattr(rng, "BLOCK", 5)
        specs = [PolicySpec("fixed", {"arm": 1}), PolicySpec("fixed", {"arm": 2}),
                 PolicySpec("oracle", {})]
        played = [np.ones(T, dtype=np.int8), arbitrary,
                  np.where(F[:, 1] > F[:, 0], 2, 1).astype(np.int8)]
        for stride in (1, 7, 300):
            traces = sim._replication_cell(({}, T, specs, 0, 6, stride))
            for tr, actions in zip(traces, played, strict=True):
                assert_trace_is(tr, naive_checkpoints(F, actions, stride)[0])
            assert traces[2].final_regret == 0.0

    @pytest.mark.parametrize("T", [1_000, 8_000])
    def test_rejects_streams_of_another_horizon(self, T):
        inst = make_power_payoff(0.6, 1.0)
        policy = PolicySpec("abse", {"beta": 0.6}).build(inst, 4_000)
        (actions,), gap = sim._play(inst, [policy], 4_000, 7, 0)
        with pytest.raises(ValueError, match=f"streams hold 4000 steps, but "
                                             f"the horizon is {T}"):
            run_episode(inst, PolicySpec("abse", {"beta": 0.6}), T, 7,
                        played=(policy, actions, gap))

    def test_checkpoints_monotone(self):
        inst = make_power_payoff(0.6, 1.0)
        tr = run_episode(inst, PolicySpec("fixed", {"arm": 2}), 10_000, seed=4,
                         checkpoint_stride=500)
        ts = [c[0] for c in tr.checkpoints]
        regs = [c[1] for c in tr.checkpoints]
        infs = [c[2] for c in tr.checkpoints]
        assert ts == sorted(ts) and ts[-1] == 10_000
        assert regs == sorted(regs)
        assert infs == sorted(infs)
        assert all(i <= t for t, _, i in tr.checkpoints)
        assert tr.final_regret == regs[-1]

    def test_replay_bit_identical(self):
        inst = make_instance({"kind": "setting1", "beta": 0.9,
                              "overrides": {"M": 8.0}}, 20_000)
        spec = PolicySpec("abse", {"beta": 0.6, "gamma_abse": 2.0})
        a = run_episode(inst, spec, 20_000, seed=5)
        b = run_episode(inst, spec, 20_000, seed=5)
        assert a == b


def crossing_instance(noise):
    """Two arms in [0, 1] that cross, written on (n, 1) arrays of points."""
    return ProblemInstance("crossing", 1,
                           lambda pts: 0.5 + 0.4 * np.sin(7.0 * pts[:, 0]),
                           lambda pts: pts[:, 0] ** 2, noise)


class TestRewards:
    @pytest.mark.parametrize("noise", [("gaussian", 0.3), ("bernoulli",)])
    def test_reads_equal_eager_rewards(self, noise):
        # Every read, in any order, overlapping earlier reads, repeated
        # within one read, or read again, returns the reward the eager
        # formula gives from the stored payoff table F;
        # and each entry, with its payoff, is made once, but for the rows
        # a first read names twice.
        T = 2_000
        g = np.random.default_rng(5)
        inst = crossing_instance(noise)
        X = g.random((T, 1))
        F = inst.payoffs(X)
        u = rng.open_uniforms(g, 2 * T).reshape(2, T)
        if noise[0] == "gaussian":
            want = F + noise[1] * ndtri(u.T)
        else:
            want = (u.T < F).astype(np.float64)
        rewards = Rewards(X, u.copy(), inst)
        shuffled = g.permutation(T)
        twice = np.repeat(shuffled[700:800], 2)     # unmade, each named twice
        reads = [
            (rewards, 0, shuffled[:700]),
            (rewards, 1, shuffled[:700:3]),
            (rewards, 1, twice),
            (rewards, 0, shuffled[500:1500]),       # overlaps the first read
            (rewards, 0, np.repeat(shuffled[:700:7], 3)),  # made, read again
            (rewards, 1, twice),                     # a second read
            (rewards, 1, shuffled),
            (rewards, 0, np.arange(T)),
        ]
        with (mock.patch.object(rng, "gaussian_from_uniform",
                                wraps=rng.gaussian_from_uniform) as made,
              mock.patch.object(ProblemInstance, "payoffs", autospec=True,
                                side_effect=ProblemInstance.payoffs) as paid):
            for source, arm, rows in reads:
                assert np.array_equal(source.read(arm, rows), want[rows, arm])
        n_made = sum(len(call.args[0]) for call in made.call_args_list)
        assert n_made == (2 * T + 100 if noise[0] == "gaussian" else 0)
        n_paid = [sum(len(call.args[1]) for call in paid.call_args_list
                      if call.args[2] == arm) for arm in (0, 1)]
        assert n_paid == [T, T + 100]

    def test_rejects_bad_noise(self, monkeypatch):
        X, u = np.full((10, 1), 0.5), np.full((2, 10), 0.5)
        with pytest.raises(ValueError, match="unknown noise"):
            Rewards(X, u, crossing_instance(("cauchy", 1.0)))
        # The gap checks Bernoulli payoffs block by block, and the draw
        # checks none; here only the last of 5-step blocks holds one above 1.
        steep = ProblemInstance("steep", 1, lambda pts: pts[:, 0] + 0.1,
                                lambda pts: 0.5 + 0.0 * pts[:, 0], ("bernoulli",))
        X = rng.covariate_block(12, 0, 23, 1)
        assert (X[:20] < 0.9).all() and X.max() > 0.9
        monkeypatch.setattr(rng, "BLOCK", 5)
        draw_streams(steep, 23, 12)
        with pytest.raises(ValueError, match="Bernoulli"):
            payoff_gap(steep, X)
        payoff_gap(steep, X[:20])

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5], ids=["nan", "above", "below"])
    @pytest.mark.parametrize("entry", ["payoff_gap", "_play", "run_episode"])
    def test_rejects_bernoulli_means_in_any_block(self, monkeypatch, bad, entry):
        # f1 leaves [0, 1], or is NaN, only in the last of 5-step blocks.
        # Each entry refuses it before it returns a gap, actions or a trace.
        inst = ProblemInstance("bad", 1,
                               lambda pts: np.where(pts[:, 0] > 0.9, bad, 0.5),
                               lambda pts: 0.5 + 0.0 * pts[:, 0], ("bernoulli",))
        X = rng.covariate_block(12, 0, 23, 1)
        assert (X[:20] < 0.9).all() and X.max() > 0.9
        monkeypatch.setattr(rng, "BLOCK", 5)
        fixed = PolicySpec("fixed", {"arm": 1})
        call = {"payoff_gap": lambda: payoff_gap(inst, X),
                "_play": lambda: sim._play(inst, [fixed.build(inst, 23)], 23, 12, 0),
                "run_episode": lambda: run_episode(inst, fixed, 23, seed=12)}[entry]
        with pytest.raises(ValueError,
                           match=r"Bernoulli payoff means must lie in \[0,1\]"):
            call()

    def test_streams_hold_no_payoff_table(self, monkeypatch):
        # Under either noise model the draw evaluates no payoff.  The gap,
        # made later in 1000-step blocks, has the bits of F0 - F1.
        monkeypatch.setattr(rng, "BLOCK", 1_000)
        for noise in [("gaussian", 0.3), ("bernoulli",)]:
            inst = crossing_instance(noise)
            with mock.patch.object(ProblemInstance, "payoffs") as paid:
                X, rewards = draw_streams(inst, 5_000, 2, 1)
            assert paid.call_count == 0
            assert X.shape == (5_000, 1) and isinstance(rewards, Rewards)
            F = inst.payoffs(X)
            assert payoff_gap(inst, X).tobytes() == (F[:, 0] - F[:, 1]).tobytes()

    def test_bernoulli_replication_pays_reads_and_one_gap_pass(self):
        # A Bernoulli replication evaluates the payoff of each (arm, step)
        # that some engine reads, once, and then every step's payoffs in
        # the one T-point pass of the gap, which checks them.  The draw
        # adds no pass of its own.
        T = 5_000
        inst = make_instance({"kind": "power", "beta": 0.6, "delta": 1.0,
                              "noise": ["bernoulli"]}, T)
        policies = [PolicySpec(kind, params).build(inst, T) for kind, params in
                    [("abse", {"beta": 0.6}), ("oracle", {}), ("fixed", {"arm": 2})]]
        read, real_read = [set(), set()], Rewards.read

        def reading(rewards, arm, rows):
            read[arm].update(rows.tolist())
            return real_read(rewards, arm, rows)

        with (mock.patch.object(Rewards, "read", reading),
              mock.patch.object(ProblemInstance, "payoffs", autospec=True,
                                side_effect=ProblemInstance.payoffs) as paid):
            sim._play(inst, policies, T, 3, 1)
        n_paid = [sum(len(c.args[1]) for c in paid.call_args_list
                      if c.args[2:] == (arm,)) for arm in (0, 1)]
        assert n_paid == [len(rows) for rows in read] and min(n_paid) > 0
        assert [len(c.args[1]) for c in paid.call_args_list
                if len(c.args) == 2] == [T]

    def test_oracle_reads_the_gap(self):
        # On tied steps gap == 0 and the oracle plays arm 1, as the test
        # F1 > F0 on the payoff table does; its actions are int8.
        inst = tie_instance()
        X, rewards = draw_streams(inst, 3_000, 6)
        gap = payoff_gap(inst, X)
        F = inst.payoffs(X)
        assert (F[:, 0] == F[:, 1]).any() and (gap == 0).any()
        oracle = PolicySpec("oracle", {}).build(inst, 3_000)
        actions = fast.run_fast(oracle, X, rewards, gap)
        assert actions.dtype == np.int8
        assert np.array_equal(actions, np.where(F[:, 1] > F[:, 0], 2, 1))


@pytest.mark.parametrize("call,match", [
    (lambda: run_episode(flat_instance(), PolicySpec("fixed", {"arm": 1}), 0,
                         seed=1), "horizon must be >= 1, got 0"),
    (lambda: summarize([]), "summarize needs at least one trace"),
    (lambda: run_experiment({"kind": "power", "beta": 0.6},
                            [PolicySpec("fixed", {"arm": 1})], 100, 0, 1),
     "reps must be >= 1, got 0"),
    (lambda: PolicySpec("greedy").build(None, 100), "unknown policy kind 'greedy'"),
    *[(lambda stride=stride: run_episode(
        flat_instance(), PolicySpec("fixed", {"arm": 1}), 100, seed=1,
        checkpoint_stride=stride),
       f"checkpoint_stride must be an integer >= 1, got {stride}")
      for stride in (0, -5, 2.5)],
    *[(lambda workers=workers: run_experiment(
        {"kind": "power", "beta": 0.6}, [PolicySpec("fixed", {"arm": 1})], 100, 1, 1,
        parallelism=workers),
       f"parallelism must be an integer >= 1, got {workers}")
      for workers in (0, -3)],
], ids=["episode-horizon", "summarize-empty", "experiment-reps", "spec-kind",
        "episode-stride-0", "episode-stride-negative", "episode-stride-fraction",
        "experiment-parallelism-0", "experiment-parallelism-negative"])
def test_rejects_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestSummarize:
    def _mk(self, vals):
        return [RegretTrace(checkpoints=(), final_regret=v, inferior_count=0,
                            t_sacb=None, beta_hat=None, seed=0, rep=i)
                for i, v in enumerate(vals)]

    def test_single_trace(self):
        s = summarize(self._mk([5.0]))
        assert s.mean_regret == 5.0
        assert s.ci95 is None

    def test_mean_and_sd(self):
        s = summarize(self._mk([1.0, 2.0, 3.0]))
        assert s.mean_regret == pytest.approx(2.0)
        assert s.sd == pytest.approx(1.0)

    def test_ci_formula(self):
        vals = list(np.linspace(0, 1, 40))
        s = summarize(self._mk(vals))
        assert s.ci95 == pytest.approx(1.96 * s.sd / np.sqrt(40))


class TestExperiment:
    def test_paired_streams_identical_policies(self):
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        res = run_experiment(
            spec,
            [PolicySpec("abse", {"beta": 0.7}),
             PolicySpec("abse", {"beta": 0.7})],
            20_000, reps=3, base_seed=11)
        a, b = res
        assert a.mean_regret == b.mean_regret
        assert [t.final_regret for t in a.traces] == \
               [t.final_regret for t in b.traces]

    def test_policy_order_changes_no_trace(self):
        # The policies of a replication share its rewards, each made by
        # whichever policy reads it first; reversing them changes nothing.
        spec = {"kind": "power", "beta": 0.6, "delta": 1.0}
        policies = [PolicySpec("sacb", {"gamma": 0.5, "q": 1.5, "upsilon": 2.5,
                                        "beta_lo": 0.6, "beta_hi": 1.0}),
                    PolicySpec("abse", {"beta": 0.5}),
                    PolicySpec("abse", {"beta": 0.9, "gamma_abse": 0.5})]
        forward = run_experiment(spec, policies, 30_000, reps=2, base_seed=14)
        reverse = run_experiment(spec, policies[::-1], 30_000, reps=2,
                                 base_seed=14)
        for summary, again in zip(forward, reverse[::-1], strict=True):
            assert again.traces == summary.traces

    def test_parallel_equals_serial(self):
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {})]
        serial = run_experiment(spec, policies, 15_000, reps=4, base_seed=12,
                                parallelism=1)
        par = run_experiment(spec, policies, 15_000, reps=4, base_seed=12,
                             parallelism=4)
        for s, p in zip(serial, par, strict=True):
            assert s.mean_regret == p.mean_regret

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_rejects_an_empty_policy_list(self, parallelism):
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        with pytest.raises(ValueError, match="at least one policy"):
            run_experiment(spec, [], 15_000, reps=2, base_seed=12,
                           parallelism=parallelism)

    @pytest.mark.parametrize("reps,parallelism", [(1, 2), (2, 4), (3, 2)])
    def test_policy_groups_match_single_episodes(self, reps, parallelism):
        # Fewer replications than workers splits each replication's
        # policies into groups; every trace must still be the episode
        # run_episode gives on its own, in replication order.
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {}),
                    PolicySpec("abse", {"beta": 0.9})]
        res = run_experiment(spec, policies, 15_000, reps=reps, base_seed=12,
                             parallelism=parallelism)
        inst = make_instance(spec, 15_000)
        for ps, s in zip(policies, res, strict=True):
            alone = [run_episode(inst, ps, 15_000, 12, rep=r) for r in range(reps)]
            assert s.traces == tuple(alone)

    @pytest.mark.parametrize("n_policies,reps,parallelism,pools", [
        (1, 1, 8, []),     # a lone task runs in this process
        (3, 1, 8, [3]),    # three groups of one replication
        (1, 2, 8, [2]),
        (2, 4, 2, [2]),
    ], ids=["one-task", "three-groups", "two-reps", "more-tasks-than-workers"])
    def test_pool_gets_no_more_workers_than_tasks(self, monkeypatch,
                                                  n_policies, reps,
                                                  parallelism, pools):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {}),
                    PolicySpec("fixed", {"arm": 1})][:n_policies]
        res = run_experiment(spec, policies, 2_000, reps=reps, base_seed=12,
                             parallelism=parallelism)
        assert sizes == pools
        serial = run_experiment(spec, policies, 2_000, reps=reps, base_seed=12)
        assert [s.traces for s in res] == [s.traces for s in serial]

    def test_serial_run_draws_each_replication_once(self):
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {})]
        with mock.patch.object(rng, "covariate_block",
                               wraps=rng.covariate_block) as draws:
            run_experiment(spec, policies, 15_000, reps=3, base_seed=12)
        assert draws.call_count == 3

    def test_abse_policies_share_one_leaf_sort_per_task(self):
        # The table-sweep shape on two replications, one task each: every
        # task sorts its stream's leaf keys once for all its abse policies,
        # and SACB's handoff sorts only the steps it hands to ABSE, those
        # from the step its root starts at.
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        T = 20_000
        policies = [PolicySpec("sacb", {"gamma": 0.3, "q": 1.4, "upsilon": 1.5,
                                        "beta_lo": 0.5, "beta_hi": 1.0})]
        policies += [PolicySpec("abse", {"beta": b}) for b in (0.9, 0.4, 0.6, 1.0)]
        with mock.patch.object(fast, "_leaf_keys", wraps=fast._leaf_keys) as sorts:
            res = run_experiment(spec, policies, T, reps=2, base_seed=12)
        handed = [T - tr.t_sacb for tr in res[0].traces]
        keyed = [len(c.args[0]) - c.args[2] for c in sorts.call_args_list]
        assert sorted(keyed) == sorted([T, T] + handed)
        inst = make_instance(spec, T)
        for ps, s in zip(policies, res, strict=True):
            assert s.traces == tuple(run_episode(inst, ps, T, 12, rep=r) for r in range(2))

    def test_replication_makes_its_gap_after_the_engines(self, monkeypatch):
        # Two replications of a Setting I task of five policies, in this
        # process.  Until the last engine that reads rewards returns, only
        # reward reads evaluate payoffs.  Then its Rewards is unreachable,
        # and the gap evaluates the payoffs of each step once, in order,
        # though the oracle's engine and five episodes read it.
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        T = 20_000
        monkeypatch.setattr(rng, "BLOCK", 4_096)
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {}),
                    PolicySpec("sacb", {"gamma": 0.3, "q": 1.4, "upsilon": 1.5,
                                        "beta_lo": 0.5, "beta_hi": 1.0}),
                    PolicySpec("abse", {"beta": 0.9}), PolicySpec("fixed", {"arm": 2})]
        events, inside, drawn = [], [None], []

        def within(where, fn):
            def call(*args, **kwargs):
                outer, inside[0] = inside[0], where(*args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside[0] = outer
            return call

        def engine(fn):                     # SACB's handoff is inside its engine
            def call(*args, **kwargs):
                outer = inside[0]
                out = within(lambda *a: "engine", fn)(*args, **kwargs)
                if outer is None:
                    events.append(("engine done",))
                return out
            return call

        def paying(instance, x, arm=None):
            events.append(("payoffs", inside[0], arm, np.array(x), drawn[-1]() is None))
            return payoffs(instance, x, arm)

        def draw(*args):
            X, rewards = draw_streams(*args)
            drawn.append(weakref.ref(rewards))
            events.append(("draw",))
            return X, rewards

        def episode(*args, **kwargs):
            events.append(("episode",))
            return run_episode(*args, **kwargs)

        payoffs = ProblemInstance.payoffs
        monkeypatch.setattr(ProblemInstance, "payoffs", paying)
        monkeypatch.setattr(Rewards, "read", within(lambda *a: "read", Rewards.read))
        monkeypatch.setattr(fast, "abse_group_actions", engine(fast.abse_group_actions))
        monkeypatch.setattr(fast, "run_fast", engine(fast.run_fast))
        monkeypatch.setattr(sim, "draw_streams", draw)
        monkeypatch.setattr(sim, "run_episode", episode)
        run_experiment(spec, policies, T, reps=2, base_seed=12)

        starts = [i for i, e in enumerate(events) if e[0] == "draw"] + [len(events)]
        assert len(starts) == 3
        for rep, (a, b) in enumerate(zip(starts, starts[1:])):
            cell = events[a + 1:b]
            kinds = [e[0] for e in cell]
            assert kinds.count("engine done") == 4
            engines = [i for i, k in enumerate(kinds) if k == "engine done"][2]
            assert {e[1] for e in cell[:engines] if e[0] == "payoffs"} == {"read"}
            gap = [e for e in cell[engines:] if e[0] == "payoffs"]
            assert all(e[1] is None and e[2] is None and e[4] for e in gap)
            X = np.concatenate([e[3] for e in gap])
            assert X.tobytes() == rng.covariate_block(12, rep, T, 1).tobytes()
            assert kinds[engines + 1 + len(gap):] == (["engine done"]
                                                      + ["episode"] * len(policies))

    def test_sacb_audit_fields_aggregated(self):
        res = run_experiment(
            {"kind": "power", "beta": 0.6, "delta": 1.0},
            [PolicySpec("sacb", {"gamma": 0.5, "q": 1.5, "upsilon": 2.5,
                                 "beta_lo": 0.6, "beta_hi": 1.0})],
            60_000, reps=2, base_seed=13)
        s, = res
        assert s.mean_t_sacb is not None and s.mean_t_sacb > 0
        assert 0.6 <= s.mean_beta_hat <= 1.0

    def test_covariates_policy_independent(self):
        # the covariate stream depends only on (seed, rep), never on actions
        from banditlab import fast, rng
        a = rng.covariate_block(99, 3, 1000, 1)
        b = rng.covariate_block(99, 3, 1000, 1)
        assert np.array_equal(a, b)
