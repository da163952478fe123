import math

import numpy as np
import pytest

from banditlab.errors import StateDesyncError
from banditlab.instances import make_power_payoff
from banditlab.partition import log_base, mesh_points
from banditlab.sacb import SacbConfig, SacbPolicy, round_samples
from banditlab.sacb import test_threshold as threshold_at


def small_policy(gamma=0.3, q=2.0, upsilon=1.0, beta_lo=0.5, beta_hi=1.0,
                 T=5000, d=1, **kw):
    cfg = SacbConfig(beta_lo=beta_lo, beta_hi=beta_hi, gamma=gamma, q=q,
                     upsilon=upsilon, **kw)
    return SacbPolicy(cfg, T=T, d=d)


def drive(pol, T, seed, f1=lambda x: 0.5, f2=lambda x: 0.5, sigma=0.0):
    gen = np.random.Generator(np.random.Philox(key=seed))
    actions = []
    for _ in range(T):
        x = gen.random(1)
        arm = pol.choose(x)
        f = f1 if arm == 1 else f2
        y = f(x[0]) + sigma * gen.standard_normal()
        pol.update(x, arm, y)
        actions.append(arm)
        if pol.handoff is not None:
            break
    return actions


class TestInit:
    def test_experiment_scale_initialization(self):
        pol = SacbPolicy(SacbConfig(), T=2_000_000, d=1)
        assert pol.levels.l == 7
        assert pol.partition.per_axis == 2  # round(1.1^7) = 2
        assert pol.levels.r_bar == 24
        for st in pol.state.values():
            assert st.counts == [0, 0]
            assert st.r_last is None
        assert pol.degree == 0  # floor_strict(1.0)

    # A bin's mesh is made when the bin is first tested, so building a
    # policy stays cheap.  Made eagerly, the meshes of the default tuning
    # at d = 2 and T = 2e6 (l_tilde = 106: 24,413 points per axis, 16 bins)
    # would hold about 6e8 points, some 9.5 GB.
    def test_mesh_made_when_its_bin_is_first_tested(self):
        pol = small_policy(q=1.1, beta_lo=0.4, T=2_000_000)
        x = [0.1]
        pol.update(x, pol.choose(x), 0.4)
        assert pol.mesh == {}
        pol.update(x, pol.choose(x), 0.6)          # round 1 of bin (0,) ends
        assert list(pol.mesh) == [(0,)]
        assert np.array_equal(pol.mesh[(0,)], mesh_points(
            (0,), pol.partition, 1.1, pol.levels.l_tilde))

    def test_rounds_per_bin_identical(self):
        pol = small_policy()
        rs = {st.r for st in pol.state.values()}
        assert rs == {1}


class TestChoose:
    def test_fresh_bin_starts_arm_one(self):
        pol = small_policy()
        assert pol.choose([0.1]) == 1

    def test_alternation(self):
        pol = small_policy()
        x = [0.1]
        pol.update(x, pol.choose(x), 0.5)
        assert pol.choose(x) == 2

    def test_desync_detected(self):
        pol = small_policy()
        with pytest.raises(StateDesyncError):
            pol.update([0.1], 2, 0.5)


class TestRounds:
    def test_first_round_completes_after_two_samples(self):
        # q = 1.1: round(1.1^1) = 1 sample per arm
        pol = small_policy(q=1.1, beta_lo=0.4, T=2_000_000)
        x = [0.1]
        st = pol.state[(0,)]
        pol.update(x, pol.choose(x), 0.4)
        assert st.r == 1
        pol.update(x, pol.choose(x), 0.6)
        assert st.r == 2
        assert st.counts == [0, 0]

    def test_round_sample_growth(self):
        assert [round_samples(1.1, r) for r in (1, 10, 24)] == [1, 3, 10]
        assert [round_samples(2.0, r) for r in (1, 3)] == [2, 8]


class TestThreshold:
    def test_experiment_scale_value(self):
        got = threshold_at(0.145, 2_000_000, 1, 0.4, 1.1, 24)
        want = 0.145 * math.log(2_000_000) ** 1.75 / 1.1 ** 12
        assert got == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing_in_round(self):
        vals = [threshold_at(0.145, 2_000_000, 1, 0.4, 1.1, r)
                for r in range(1, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestEstimate:
    def test_zero_rewards_never_fire(self):
        pol = small_policy(gamma=0.5, T=4000)
        drive(pol, 4000, seed=1, f1=lambda x: 0.0, f2=lambda x: 0.0)
        assert pol.handoff is not None
        assert all(st.r_last is None for st in pol.state.values())
        # all bins exhausted: estimate uses r_bar and clamps to beta_hi
        assert pol.beta_hat == pol.config.beta_hi

    def test_gamma_infinite_clamps_high(self):
        pol = small_policy(gamma=1e9, T=4000)
        drive(pol, 4000, seed=2, f1=lambda x: x ** 0.5, sigma=0.05)
        assert pol.beta_hat == pol.config.beta_hi
        raw = pol.estimate_smoothness()
        r_bar, l = pol.levels.r_bar, pol.levels.l
        want = (r_bar - pol.config.upsilon * log_base(2.0, math.log(pol.T))) / (2 * l)
        assert raw == pytest.approx(want)
        assert raw >= pol.config.beta_hi

    def test_gamma_zero_clamps_low(self):
        pol = small_policy(gamma=1e-9, T=4000)
        drive(pol, 4000, seed=3, f1=lambda x: x ** 0.5, sigma=0.05)
        assert all(st.r_last == 1 for st in pol.state.values())
        assert pol.beta_hat == pol.config.beta_lo

    def test_formula_inversion(self):
        # min r_last = 2 l beta exactly and upsilon = 0 inverts to beta
        pol = small_policy(upsilon=0.0, T=4000)
        l = pol.levels.l
        for st in pol.state.values():
            st.r_last = 2 * l  # pretend the test fired at 2 l * 1.0
        assert pol.estimate_smoothness() == pytest.approx(1.0)

    def test_handoff_horizon_modes(self):
        for mode, expect_T in (("full", 4000), ("remaining", None)):
            pol = small_policy(gamma=1e9, T=4000, handoff_horizon=mode)
            drive(pol, 4000, seed=4)
            if mode == "full":
                assert pol.handoff.config.T == expect_T
            else:
                assert pol.handoff.config.T == 4000 - pol.t_sacb


class TestInvariants:
    def test_alternation_balance_every_step(self):
        pol = small_policy(T=2000)
        gen = np.random.Generator(np.random.Philox(key=5))
        for _ in range(1500):
            x = gen.random(1)
            arm = pol.choose(x)
            pol.update(x, arm, float(gen.random()))
            if pol.handoff is not None:
                break
            for st in pol.state.values():
                assert abs(st.counts[0] - st.counts[1]) <= 1

    def test_phase_transitions_once(self):
        pol = small_policy(gamma=1e9, T=3000)
        drive(pol, 3000, seed=6)
        assert pol.handoff is not None
        first = (pol.t_sacb, pol.beta_hat)
        drive(pol, 200, seed=7)
        assert (pol.t_sacb, pol.beta_hat) == first

    def test_beta_hat_always_clamped(self):
        for gamma in (1e-9, 0.2, 1e9):
            pol = small_policy(gamma=gamma, T=3000)
            drive(pol, 3000, seed=8, f1=lambda x: x ** 0.6, sigma=0.05)
            if pol.beta_hat is not None:
                assert pol.config.beta_lo <= pol.beta_hat <= pol.config.beta_hi

    def test_replay_bit_identical(self):
        runs = []
        for _ in range(2):
            pol = small_policy(gamma=0.4, T=3000)
            actions = drive(pol, 3000, seed=9, f1=lambda x: x ** 0.6, sigma=0.05)
            runs.append((actions, pol.t_sacb, pol.beta_hat))
        assert runs[0] == runs[1]

    def test_estimation_regret_attributed_to_policy(self):
        # t_sacb counts every estimation step, from step 1
        pol = small_policy(gamma=1e9, T=3000)
        drive(pol, 3000, seed=10)
        spent = sum(2 * sum(round_samples(2.0, r)
                            for r in range(1, pol.levels.r_bar + 1))
                    for _ in pol.state)
        assert pol.t_sacb >= spent


class TestStatistical:
    def test_estimator_leaves_the_ceiling_on_rough_payoffs(self):
        # On the self-similar power payoff the comparison test must fire
        # before the round budget is exhausted (bias-driven), pulling the
        # estimate strictly below the never-fire ceiling beta_hi.  The full
        # concentration claim at the experiment horizon lives in the
        # acceptance suite.
        inst = make_power_payoff(0.6, 1.0)
        cfg = SacbConfig(beta_lo=0.6, beta_hi=1.0, gamma=0.55, q=1.5,
                         upsilon=2.7, noise_scale=0.05)
        ceiling = None
        fired_below = 0
        for seed in range(5):
            pol = SacbPolicy(cfg, T=60_000, d=1)
            if ceiling is None:
                r_bar, l = pol.levels.r_bar, pol.levels.l
                ceiling = (r_bar - cfg.upsilon
                           * log_base(cfg.q, math.log(60_000))) / (2 * l)
            gen = np.random.Generator(np.random.Philox(key=40 + seed))
            for _ in range(60_000):
                x = gen.random(1)
                arm = pol.choose(x)
                f = inst.f1 if arm == 1 else inst.f2
                y = float(f(x[0])) + 0.05 * gen.standard_normal()
                pol.update(x, arm, y)
                if pol.handoff is not None:
                    break
            assert pol.beta_hat is not None
            assert cfg.beta_lo <= pol.beta_hat <= cfg.beta_hi
            if pol.estimate_smoothness() < ceiling - 1e-9:
                fired_below += 1
        assert fired_below >= 4


@pytest.mark.parametrize("over,match", [
    ({"beta_lo": 0.0}, "need 0 < beta_lo <= beta_hi"),
    ({"beta_lo": 0.8, "beta_hi": 0.6}, "need 0 < beta_lo <= beta_hi"),
    ({"gamma": 0.0}, "gamma must be positive"),
    ({"q": 1.0}, "q: base must exceed 1"),
    ({"upsilon": -0.1}, "upsilon must be >= 0"),
    ({"handoff_horizon": "half"}, "bad handoff_horizon 'half'"),
    # A bool or a string is no number, and neither is inf or nan; each ran.
    ({"gamma": math.inf}, "gamma must be a finite number, got inf"),
    ({"upsilon": math.nan}, "upsilon must be a finite number, got nan"),
    ({"beta_hi": True}, "beta_hi must be a finite number, got True"),
    ({"q": "1.4"}, "q must be a finite number, got '1.4'"),
    ({"c0": math.inf}, "c0 must be a finite number, got inf"),
    ({"gamma_abse": True}, "gamma_abse must be a finite number, got True"),
], ids=["beta-lo-zero", "beta-range", "gamma", "q", "upsilon", "handoff-horizon",
        "gamma-inf", "upsilon-nan", "beta-hi-bool", "q-string", "c0-inf",
        "gamma-abse-bool"])
def test_config_rejects_bad_tuning(over, match):
    with pytest.raises(ValueError, match=match):
        SacbConfig(**over)
