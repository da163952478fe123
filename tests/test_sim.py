import warnings

import numpy as np
import pytest

from banditlab.instances import ProblemInstance, make_instance, make_power_payoff
from banditlab.policies import FixedArmPolicy, PolicySpec
from banditlab.sim import RegretTrace, run_episode, run_experiment, summarize


def flat_instance():
    f = lambda x: np.full_like(np.asarray(x, float), 0.5)
    return ProblemInstance("flat", 1, f, f, ("gaussian", 0.05))


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

    def test_live_policy_object_accepted(self):
        inst = flat_instance()
        tr = run_episode(inst, FixedArmPolicy(2), 100, seed=6)
        assert tr.final_regret == 0.0


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
        a, b = list(res.values())
        assert a.mean_regret == b.mean_regret
        assert [t.final_regret for t in a.traces] == \
               [t.final_regret for t in b.traces]

    def test_parallel_equals_serial(self):
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        policies = [PolicySpec("abse", {"beta": 0.5}), PolicySpec("oracle", {})]
        serial = run_experiment(spec, policies, 15_000, reps=4, base_seed=12,
                                parallelism=1)
        par = run_experiment(spec, policies, 15_000, reps=4, base_seed=12,
                             parallelism=4)
        for k in serial:
            assert serial[k].mean_regret == par[k].mean_regret

    def test_instance_object_with_parallelism_warns_and_runs_serially(self):
        inst = make_instance({"kind": "setting1", "beta": 0.9,
                              "overrides": {"M": 8.0}}, 15_000)
        policies = [PolicySpec("abse", {"beta": 0.5})]
        with pytest.warns(RuntimeWarning, match="running serially"):
            par = run_experiment(inst, policies, 15_000, reps=2, base_seed=12,
                                 parallelism=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial = run_experiment(inst, policies, 15_000, reps=2,
                                    base_seed=12, parallelism=1)
        for k in serial:
            assert serial[k].mean_regret == par[k].mean_regret

    def test_sacb_audit_fields_aggregated(self):
        res = run_experiment(
            {"kind": "power", "beta": 0.6, "delta": 1.0},
            [PolicySpec("sacb", {"gamma": 0.5, "q": 1.5, "upsilon": 2.5,
                                 "beta_lo": 0.6, "beta_hi": 1.0})],
            60_000, reps=2, base_seed=13)
        s = next(iter(res.values()))
        assert s.mean_t_sacb is not None and s.mean_t_sacb > 0
        assert 0.6 <= s.mean_beta_hat <= 1.0

    def test_covariates_policy_independent(self):
        # the covariate stream depends only on (seed, rep), never on actions
        from banditlab import rng
        a = rng.covariate_block(99, 3, 1000, 1)
        b = rng.covariate_block(99, 3, 1000, 1)
        assert np.array_equal(a, b)
