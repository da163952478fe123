"""The vectorized engines must replay the sequential policies exactly."""

import numpy as np
import pytest

from banditlab import fast, rng
from banditlab.instances import make_instance, make_power_payoff
from banditlab.policies import PolicySpec
import banditlab.sim as sim


def streams(instance, T, seed):
    X = rng.covariate_block(seed, 0, T, instance.d)
    F = instance.payoffs(X[:, 0] if instance.d == 1 else X)
    Y = sim._draw_rewards(instance, F, seed, 0, T)
    return X, Y


def sequential_actions(policy, X, Y):
    out = np.zeros(len(X), dtype=np.int8)
    for t in range(len(X)):
        arm = policy.choose(X[t])
        policy.update(X[t], arm, Y[t, arm - 1])
        out[t] = arm
    return out


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
]


@pytest.mark.parametrize("inst_spec,pspec,T", CASES)
@pytest.mark.parametrize("seed", [3, 17])
def test_engine_matches_sequential(inst_spec, pspec, T, seed, monkeypatch):
    instance = make_instance(inst_spec, T)
    X, Y = streams(instance, T, seed)
    fast_pol = pspec.build(instance, T)
    abse_configs = []
    abse_actions = fast.abse_actions

    def recording_abse_actions(cfg, X, Y):
        abse_configs.append(cfg)
        return abse_actions(cfg, X, Y)

    monkeypatch.setattr(fast, "abse_actions", recording_abse_actions)
    a_fast = fast.run_fast(fast_pol, X, Y)
    assert a_fast is not None
    seq_pol = pspec.build(instance, T)
    a_seq = sequential_actions(seq_pol, X, Y)
    assert np.array_equal(a_fast, a_seq)
    if pspec.kind == "sacb":
        assert fast_pol.t_sacb is not None
        assert fast_pol.t_sacb == seq_pol.t_sacb
        assert fast_pol.beta_hat_raw == seq_pol.beta_hat_raw
        assert fast_pol.beta_hat == seq_pol.beta_hat
        assert abse_configs == [seq_pol.handoff.config]


def test_sacb_starved_stream_never_hands_off():
    instance = make_power_payoff(0.6, 1.0)
    pspec = PolicySpec("sacb", {"gamma": 1e9, "q": 1.5, "upsilon": 2.5,
                                "beta_lo": 0.6, "beta_hi": 1.0})
    T = 2_000  # far too short to finish the round schedule
    X, Y = streams(instance, T, 5)
    fast_pol = pspec.build(instance, T)
    a_fast = fast.run_fast(fast_pol, X, Y)
    seq_pol = pspec.build(instance, T)
    a_seq = sequential_actions(seq_pol, X, Y)
    assert np.array_equal(a_fast, a_seq)
    assert fast_pol.t_sacb is None and seq_pol.t_sacb is None


def test_run_episode_paths_agree():
    instance = make_instance({"kind": "setting1", "beta": 0.9,
                              "overrides": {"M": 8.0}}, 20_000)
    pspec = PolicySpec("abse", {"beta": 0.8, "gamma_abse": 2.0})
    a = sim.run_episode(instance, pspec, 20_000, seed=23)
    b = sim.run_episode(instance, pspec, 20_000, seed=23, force_sequential=True)
    assert a.final_regret == pytest.approx(b.final_regret, abs=1e-9)
    assert a.inferior_count == b.inferior_count
