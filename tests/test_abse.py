import math

import numpy as np
import pytest

from banditlab.abse import AbseConfig, AbsePolicy, lifetime, max_depth, radius
from banditlab.errors import StateDesyncError


def cfg(beta=0.5, c0=2.0, T=100_000, d=1, gamma_abse=1.0, noise_scale=0.5):
    return AbseConfig(beta=beta, c0=c0, T=T, d=d, gamma_abse=gamma_abse,
                      noise_scale=noise_scale)


@pytest.mark.parametrize("over,match", [
    ({"beta": 0.0}, r"beta must be in \(0, 1\]"),
    ({"beta": 1.5}, r"beta must be in \(0, 1\]"),
    ({"c0": 0.0}, "c0, gamma_abse and noise_scale must be positive"),
    ({"noise_scale": -0.5}, "c0, gamma_abse and noise_scale must be positive"),
    ({"T": 1}, "horizon must be >= 2"),
    # A bool or a string is no number, and neither is inf or nan; each ran.
    ({"beta": True}, "beta must be a finite number, got True"),
    ({"beta": "0.6"}, "beta must be a finite number, got '0.6'"),
    ({"c0": True}, "c0 must be a finite number, got True"),
    ({"c0": math.inf}, "c0 must be a finite number, got inf"),
    ({"gamma_abse": math.nan}, "gamma_abse must be a finite number, got nan"),
    ({"noise_scale": "0.5"}, "noise_scale must be a finite number, got '0.5'"),
], ids=["beta-zero", "beta-range", "c0", "noise-scale", "T", "beta-bool",
        "beta-string", "c0-bool", "c0-inf", "gamma-abse-nan", "noise-scale-string"])
def test_config_rejects_bad_tuning(over, match):
    with pytest.raises(ValueError, match=match):
        AbseConfig(**{"beta": 0.5, "T": 1000, **over})


class TestFormulas:
    def test_root_lifetime(self):
        c = cfg(T=100_000)
        assert lifetime(c, 0) == math.ceil(math.log(100_000) / 4.0)

    def test_lifetime_strictly_increasing_in_depth(self):
        c = cfg()
        vals = [lifetime(c, k) for k in range(8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_max_depth_scale(self):
        c = cfg(beta=0.5, T=100_000)
        want = math.ceil(math.log2(100_000 / math.log(100_000)) / 2.0)
        assert max_depth(c) == want

    def test_radius_calibration_at_lifetime(self):
        # eps(B, l_B) is within one ceil of 4 noise_scale gamma c0 |B|^beta
        c = cfg(beta=0.7, c0=1.5, T=50_000, gamma_abse=1.0, noise_scale=0.5)
        for depth in (0, 2, 4):
            eps = radius(c, depth, lifetime(c, depth))
            target = 4 * 0.5 * 1.0 * 1.5 * (2.0 ** -depth) ** 0.7
            assert eps <= target + 1e-12
            assert eps >= 0.8 * target

    def test_radius_matches_bounded_reward_formula(self):
        # at noise_scale 1/2 and gamma 1 the radius is 2 sqrt(ln(T |B|^-(2b+d))/s)
        c = cfg(beta=0.6, T=10_000)
        side_log = math.log(10_000 * 2.0 ** (3 * (2 * 0.6 + 1)))
        assert radius(c, 3, 7) == pytest.approx(2.0 * math.sqrt(side_log / 7))


class TestChoose:
    def test_fresh_state_single_root(self):
        pol = AbsePolicy(cfg())
        assert len(pol.bins) == 1
        assert pol.choose([0.3]) == 1

    def test_round_robin(self):
        pol = AbsePolicy(cfg())
        x = [0.3]
        assert pol.choose(x) == 1
        pol.update(x, 1, 0.5)
        assert pol.choose(x) == 2
        pol.update(x, 2, 0.5)
        assert pol.choose(x) == 1

    def test_committed_bin_sticks(self):
        pol = AbsePolicy(cfg(T=1000))
        x = [0.4]
        # drive a huge gap so arm 2 is eliminated quickly
        for _ in range(2000):
            arm = pol.choose(x)
            pol.update(x, arm, 1.0 if arm == 1 else 0.0)
            b = pol._find(x)
            if b.committed:
                break
        assert pol._find(x).committed == 1
        for _ in range(10):
            assert pol.choose(x) == 1
            pol.update(x, 1, 0.0)
        assert pol._find(x).committed == 1


class TestUpdate:
    def test_no_elimination_when_radius_exceeds_gap(self):
        pol = AbsePolicy(cfg(T=100_000))
        x = [0.2]
        pol.update(x, 1, 1.0)
        pol.update(x, 2, 0.0)
        assert not pol._find(x).committed  # eps(B,1) > 1 at the root

    def test_elimination_fires_on_large_gap(self):
        c = cfg(T=1000, noise_scale=0.05)
        pol = AbsePolicy(c)
        x = [0.2]
        s_needed = None
        for s in range(1, 500):
            pol.update(x, 1, 0.9)
            pol.update(x, 2, 0.0)
            if pol._find(x).committed:
                s_needed = s
                break
        assert s_needed is not None
        assert pol._find(x).committed == 1
        # fires at the first s with eps < 0.9
        want = next(s for s in range(1, 500) if radius(c, 0, s) < 0.9)
        assert s_needed == want

    def test_tie_never_eliminates(self):
        pol = AbsePolicy(cfg(T=50))
        x = [0.2]
        life = lifetime(pol.config, 0)
        for _ in range(life):
            pol.update(x, 1, 0.5)
            pol.update(x, 2, 0.5)
            if pol._find(x).depth > 0:
                break
        # equal means never eliminate; the root split instead
        assert all(not b.committed for b in pol.bins.values())

    def test_split_produces_children(self):
        pol = AbsePolicy(cfg(T=50, d=2))
        x = [0.2, 0.7]
        life = lifetime(pol.config, 0)
        for _ in range(life):
            pol.update(x, 1, 0.5)
            pol.update(x, 2, 0.5)
        assert len(pol.bins) == 4
        assert all(b.depth == 1 for b in pol.bins.values())
        assert pol.live_volume() == pytest.approx(1.0)

    def test_state_desync_detected(self):
        pol = AbsePolicy(cfg())
        with pytest.raises(StateDesyncError):
            pol.update([0.2], 2, 0.5)  # round robin expects arm 1 first

    @pytest.mark.parametrize("state,match", [
        ("no-bin", r"no live or committed bin contains \[0.2\]"),
        ("committed", "bin committed to arm 1 but arm 2 played"),
    ], ids=["no-bin", "committed"])
    def test_state_desync_rejected(self, state, match):
        pol = AbsePolicy(cfg(T=1000, noise_scale=0.05))
        x = [0.2]
        if state == "no-bin":
            pol.bins.clear()
        else:
            while not pol._find(x).committed:
                pol.update(x, 1, 0.9)
                pol.update(x, 2, 0.0)
        with pytest.raises(StateDesyncError, match=match):
            pol.update(x, 2, 0.0)


class TestInvariants:
    def _run(self, pol, T, seed):
        gen = np.random.Generator(np.random.Philox(key=seed))
        xs = gen.random((T, pol.config.d))
        for t in range(T):
            x = xs[t]
            arm = pol.choose(x)
            y = 0.6 if arm == 1 else 0.5
            y += 0.05 * gen.standard_normal()
            pol.update(x, arm, y)

    def test_live_bins_partition_space(self):
        pol = AbsePolicy(cfg(beta=0.4, T=3000, noise_scale=0.05))
        self._run(pol, 3000, seed=2)
        assert pol.live_volume() == pytest.approx(1.0, abs=1e-12)
        assert pol.n_splits > 0

    def test_counts_balanced_while_both_alive(self):
        pol = AbsePolicy(cfg(T=5000))
        gen = np.random.Generator(np.random.Philox(key=9))
        for _ in range(4000):
            x = gen.random(1)
            arm = pol.choose(x)
            pol.update(x, arm, float(gen.random()))
            for b in pol.bins.values():
                if not b.committed:
                    assert abs(b.counts[0] - b.counts[1]) <= 1

    def test_depth_never_exceeds_k0(self):
        pol = AbsePolicy(cfg(beta=0.4, T=2000, noise_scale=0.05))
        self._run(pol, 4000, seed=4)
        assert max(depth for depth, _ in pol.bins) <= pol.k0

    def test_deterministic_replay(self):
        stream = np.random.Generator(np.random.Philox(key=12))
        xs = stream.random((2000, 1))
        ys = stream.random((2000, 2))
        seqs = []
        for _ in range(2):
            pol = AbsePolicy(cfg(T=2000))
            actions = []
            for t in range(2000):
                arm = pol.choose(xs[t])
                pol.update(xs[t], arm, ys[t, arm - 1])
                actions.append(arm)
            seqs.append(actions)
        assert seqs[0] == seqs[1]

    def test_constant_gap_eliminated_quickly_with_high_probability(self):
        # gap 0.5 >> eps at the root for Gaussian noise scale 0.05
        c = cfg(beta=0.5, T=4000, noise_scale=0.05, gamma_abse=1.0)
        s_star = next(s for s in range(1, 4000) if radius(c, 0, s) < 0.5)
        hits = 0
        n_seeds = 100
        for seed in range(n_seeds):
            gen = np.random.Generator(np.random.Philox(key=1000 + seed))
            pol = AbsePolicy(c)
            committed_at = None
            for s in range(1, 3 * s_star):
                pol.update([0.5], 1, 1.0 + 0.05 * gen.standard_normal())
                pol.update([0.5], 2, 0.5 + 0.05 * gen.standard_normal())
                b = pol._find([0.5])
                if b.committed:
                    committed_at = s
                    break
            if committed_at is not None and committed_at <= s_star + 2 \
                    and b.committed == 1:
                hits += 1
        assert hits >= 0.95 * n_seeds
