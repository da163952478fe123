"""Acceptance gate: one test per criterion, each printing PASS/FAIL lines.

Criteria 1-2 reproduce the published experiment tables: they run the
shipped configs configs/table_setting{1,2}.json (T = 2e6, 40 replications)
through `cli.parse_config` and `cli.run`, and read the rows `cli.run`
returns; results.csv stays in pytest's tmp_path (marked slow, about 90 s
each on 2 cores).  Criterion 3 is the desk-scale smoke, the same two
configs at T = 2e5 with 20 replications.  Criterion 4 exercises the
smoothness estimator at the experiment horizon; criteria 5-9 are
numerical-oracle and invariant gates.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from banditlab import cli, fast
from banditlab.instances import (impossibility_exponent, make_instance,
                                 minimax_exponent)
from banditlab.locpoly import enumerate_multi_indices, fit_local_polynomial
from banditlab.partition import build_partition, locate_bin
from banditlab.policies import PolicySpec
from banditlab.projection import Box, brute_force_projection, project_to_polynomial
from banditlab.sim import run_episode, run_experiment
import banditlab.sim as sim

WORKERS = min(8, os.cpu_count() or 1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in clauses)
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    for label, passed in clauses:
        print(f"  [{'pass' if passed else 'FAIL'}] {label}")
    assert ok, f"criterion {criterion} failed: " + "; ".join(
        label for label, passed in clauses if not passed)


def run_table(name: str, out_dir, **over):
    """A shipped table config run through cli.run with WORKERS threads.

    Returns the tilde_beta grid, each policy's mean regret and each
    policy's relative loss, all from the rows cli.run returns.
    """
    cfg = cli.parse_config({**cli.load_config(CONFIGS / f"{name}.json"),
                            "threads": WORKERS, **over})
    rows = cli.run(cfg, out_dir / name)
    return (cfg["sweep"]["tilde_beta"],
            {r["policy"]: r["mean_regret"] for r in rows},
            {r["policy"]: r["relative_loss"] for r in rows
             if r["relative_loss"] is not None})


@pytest.mark.slow
def test_criterion_1_table2_reproduction(tmp_path):
    t0 = time.time()
    grid, means, _ = run_table("table_setting1", tmp_path)
    elapsed = time.time() - t0
    sweep = [means[f"abse({b})"] for b in grid]
    weak_decrease = all(b <= a for a, b in zip(sweep, sweep[1:]))
    between = means["abse(0.9)"] < means["sacb"] < means["abse(0.4)"]
    clauses = [
        (f"abse(0.9) mean {means['abse(0.9)']:.3g} within 25% of 1.88e4",
         abs(means["abse(0.9)"] - 1.88e4) <= 0.25 * 1.88e4),
        (f"sacb mean {means['sacb']:.3g} within 25% of 2.30e4",
         abs(means["sacb"] - 2.30e4) <= 0.25 * 2.30e4),
        (f"abse(0.4) mean {means['abse(0.4)']:.3g} within 25% of 2.72e4",
         abs(means["abse(0.4)"] - 2.72e4) <= 0.25 * 2.72e4),
        ("abse(tilde) regret weakly decreasing over the grid "
         + str([f"{v:.3g}" for v in sweep]), weak_decrease),
        ("sacb strictly between abse(0.9) and abse(0.4)", between),
        (f"runtime {elapsed:.0f}s within budget", elapsed <= 1800),
    ]
    report("1 (Table 2, Setting I)", clauses)


@pytest.mark.slow
def test_criterion_2_table3_relative_loss(tmp_path):
    t0 = time.time()
    _, _, rel = run_table("table_setting2", tmp_path)
    elapsed = time.time() - t0
    clauses = [
        (f"relative loss abse(0.75) = {100 * rel['abse(0.75)']:.0f}% >= 200%",
         rel["abse(0.75)"] >= 2.0),
        (f"relative loss sacb = {100 * rel['sacb']:.0f}% <= 100%",
         rel["sacb"] <= 1.0),
        (f"runtime {elapsed:.0f}s within budget", elapsed <= 1800),
    ]
    report("2 (Table 3, Setting II)", clauses)


def test_criterion_3_desk_scale_orderings(tmp_path):
    t0 = time.time()
    grid, m1, _ = run_table("table_setting1", tmp_path, T=200_000, reps=20)
    _, _, rel2 = run_table("table_setting2", tmp_path, T=200_000, reps=20)
    elapsed = time.time() - t0
    sweep = [m1[f"abse({b})"] for b in grid]
    weak_decrease = all(b <= a for a, b in zip(sweep, sweep[1:]))
    between = m1["abse(0.9)"] < m1["sacb"] < m1["abse(0.4)"]
    rl_075, rl_sacb = rel2["abse(0.75)"], rel2["sacb"]
    clauses = [
        ("setting I: abse(tilde) weakly decreasing "
         + str([f"{v:.3g}" for v in sweep]), weak_decrease),
        ("setting I: sacb strictly between abse(0.9) and abse(0.4)", between),
        (f"setting II: over-smoothing loss ({100 * rl_075:.0f}%) dominates "
         f"adaptation cost ({100 * rl_sacb:.0f}%)", rl_075 > rl_sacb),
        (f"runtime {elapsed:.0f}s <= 120s", elapsed <= 120),
    ]
    report("3 (desk-scale smoke)", clauses)


@pytest.mark.slow
def test_criterion_4_smoothness_estimator():
    # Tuned configuration for the power payoff at the experiment horizon;
    # the published tuning cannot fire its test (see decisions ledger), so
    # the criterion runs at a configuration whose test is bias-driven.
    spec = PolicySpec("sacb", {"gamma": 0.42, "q": 1.5, "upsilon": 2.5,
                               "beta_lo": 0.6, "beta_hi": 0.9,
                               "gamma_abse": 2.0})
    T = 2_000_000
    res = run_experiment({"kind": "power", "beta": 0.6, "delta": 1.0},
                         [spec], T, reps=50, base_seed=777,
                         parallelism=WORKERS)
    traces = res[0].traces
    beta_hats = np.array([tr.beta_hat for tr in traces], dtype=float)
    t_sacbs = np.array([tr.t_sacb for tr in traces], dtype=float)
    frac_below = float(np.mean(beta_hats <= 0.6 + 1e-12))
    frac_above = float(np.mean(beta_hats >= 0.6 - 0.25))
    med = float(np.median(t_sacbs))
    clauses = [
        (f"beta_hat <= beta in {100 * frac_below:.0f}% of seeds (>= 90%)",
         frac_below >= 0.90),
        (f"beta_hat >= beta - 0.25 in {100 * frac_above:.0f}% of seeds (>= 80%)",
         frac_above >= 0.80),
        (f"median T_SACB = {med:.0f} <= 0.1 T", med <= 0.1 * T),
    ]
    report("4 (smoothness estimator)", clauses)


def test_criterion_5_lpr_oracles():
    gen = np.random.Generator(np.random.Philox(key=2025))
    worst_exact = 0.0
    for _ in range(1000):
        d = int(gen.integers(1, 3))
        p = int(gen.integers(0, 2))
        X = gen.random((25 + 5 * d, d))
        powers = enumerate_multi_indices(d, p)
        coefs = gen.normal(size=len(powers))
        center = 0.25 + 0.5 * gen.random(d)
        dx = X - center
        y = sum(c * np.prod(dx ** np.asarray(s, float), axis=1)
                for c, s in zip(coefs, powers))
        est = fit_local_polynomial((X, y), center, 0.6, p)
        truth = coefs[0]
        worst_exact = max(worst_exact, abs(est.value - truth))
    pass_exact = worst_exact <= 1e-9

    worst_rel = 0.0
    for _ in range(1000):
        d = int(gen.integers(1, 3))
        p = int(gen.integers(0, 2))
        X = gen.random((40, d))
        y = gen.normal(size=40)
        center = 0.3 + 0.4 * gen.random(d)
        est = fit_local_polynomial((X, y), center, 0.5, p).value
        dx = X - center
        inside = np.max(np.abs(dx), axis=1) <= 0.5
        A = np.column_stack([
            np.prod(dx[inside] ** np.asarray(s, float), axis=1)
            for s in enumerate_multi_indices(d, p)])
        oracle = np.linalg.lstsq(A, y[inside], rcond=None)[0][0]
        denom = max(abs(oracle), 1e-6)
        worst_rel = max(worst_rel, abs(est - oracle) / denom)
    pass_rel = worst_rel <= 1e-10

    report("5 (local polynomial oracle equivalence)", [
        (f"1000 noiseless polynomial fits exact to {worst_exact:.2e} (<= 1e-9)",
         pass_exact),
        (f"1000 noisy fits match lstsq oracle to {worst_rel:.2e} rel (<= 1e-10)",
         pass_rel),
    ])


def test_criterion_6_projection_oracle():
    gen = np.random.Generator(np.random.Philox(key=333))
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(1, 3))
        p = int(gen.integers(0, 3 if d == 1 else 2))
        lo = gen.random(d) * 0.3
        side = 0.2 + 0.5 * gen.random()
        box = Box.make(lo, lo + side)
        h = side * (0.6 + 0.8 * gen.random())
        w = gen.normal(size=3)
        if d == 1:
            f = lambda x, w=w: w[0] + w[1] * x + w[2] * np.sqrt(np.abs(x))
        else:
            f = (lambda x, w=w: w[0] + w[1] * np.atleast_2d(x)[:, 0]
                 + w[2] * np.sqrt(np.atleast_2d(x)[:, 1] + 0.01))
        proj = project_to_polynomial(f, box, p, h,
                                     nodes_per_axis=1024 if d == 1 else 128)
        brute = brute_force_projection(f, box, p, h,
                                       grid_n=20_000 if d == 1 else 40_000)
        x = float(box.center[0]) if d == 1 else box.center
        worst = max(worst, abs(proj(x) - brute(x)))
    pass_agree = worst <= 1e-4

    beta = 0.6
    worst_bias = 0.0
    for q in (1.1, 2.0):
        for level in range(1, 7):
            h = q ** (-level)
            proj = project_to_polynomial(lambda x: x ** beta,
                                         Box.make([0.0], [h]), 0, h,
                                         nodes_per_axis=8192)
            want = h ** beta / (beta + 1.0)
            worst_bias = max(worst_bias, abs(proj(0.0) - want))
    pass_bias = worst_bias <= 1e-6

    report("6 (projection oracle)", [
        (f"200 randomized quadrature-vs-grid fits agree to {worst:.2e} (<= 1e-4)",
         pass_agree),
        (f"power-payoff closed-form bias matched to {worst_bias:.2e} (<= 1e-6) "
         "for q in {1.1, 2}, l in 1..6", pass_bias),
    ])


def test_criterion_7_exponent_calculators():
    zeta = minimax_exponent(1.0, 1.0, 1)
    imp = impossibility_exponent(0.075, 0.15, 1 / 0.15, 1, "at-most-lipschitz")
    report("7 (exponent calculators)", [
        (f"minimax_exponent(1,1,1) = {zeta:.6f} == 1/3",
         abs(zeta - 1.0 / 3.0) < 1e-12),
        (f"impossibility exponent = {imp:.4f} within 1e-4 of 0.6183",
         abs(imp - 0.6183) <= 1e-4),
    ])


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "instance": {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
        "policies": [{"kind": "sacb", "gamma": 0.3, "q": 1.4,
                      "upsilon": 1.5, "beta_lo": 0.5, "beta_hi": 1.0},
                     {"kind": "abse", "beta": 0.9}],
        "T": 30_000, "reps": 3, "base_seed": 5, "threads": 2,
        "output_dir": str(tmp_path / "out"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(p)]) == 0
    first = (tmp_path / "out" / "results.csv").read_bytes()
    assert cli.main(["run", "--config", str(p)]) == 0
    second = (tmp_path / "out" / "results.csv").read_bytes()

    inst = make_instance(cfg["instance"], 30_000)
    spec = PolicySpec("sacb", {"gamma": 0.3, "q": 1.4, "upsilon": 1.5,
                               "beta_lo": 0.5, "beta_hi": 1.0})
    X, gap, rewards = sim.draw_streams(inst, 30_000, 5, 0)
    a1 = fast.run_fast(spec.build(inst, 30_000), X, rewards, gap)
    a2 = fast.run_fast(spec.build(inst, 30_000), X, rewards, gap)
    report("8 (determinism)", [
        ("rerun of identical config produces byte-identical results.csv",
         first == second),
        ("episode replay produces identical action sequences",
         np.array_equal(a1, a2)),
    ])


def test_criterion_9_invariant_fuzz():
    gen = np.random.Generator(np.random.Philox(key=90210))
    steps_per_case = 10_000
    n_cases = 100
    trace_ok = clamp_ok = True
    for case in range(n_cases):
        kind = ["setting1", "setting2", "power"][case % 3]
        beta = float(gen.uniform(0.45, 0.95))
        inst_spec = {"kind": kind, "beta": round(beta, 2)}
        if kind == "setting1":
            inst_spec["overrides"] = {"M": float(gen.uniform(4, 16))}
        if kind == "power":
            inst_spec["delta"] = 1.0
        if case % 4 == 0:
            pol = PolicySpec("sacb", {"gamma": float(gen.uniform(0.2, 0.6)),
                                      "q": 1.5, "upsilon": 2.0,
                                      "beta_lo": 0.5, "beta_hi": 1.0})
        else:
            pol = PolicySpec("abse", {"beta": round(float(gen.uniform(0.4, 1.0)), 2),
                                      "gamma_abse": 2.0})
        inst = make_instance(inst_spec, steps_per_case)
        tr = run_episode(inst, pol, steps_per_case, seed=int(gen.integers(1 << 30)))
        regs = [c[1] for c in tr.checkpoints]
        infs = [c[2] for c in tr.checkpoints]
        if not (regs == sorted(regs) and min(regs) >= 0.0
                and infs == sorted(infs) and tr.final_regret >= 0.0):
            trace_ok = False
        if tr.beta_hat is not None and not (0.5 <= tr.beta_hat <= 1.0):
            clamp_ok = False

    # structural invariants on sequential replays
    from banditlab.abse import AbseConfig, AbsePolicy
    from banditlab.sacb import SacbConfig, SacbPolicy
    partition_ok = alternation_ok = True
    for s in range(6):
        pol = AbsePolicy(AbseConfig(beta=0.5 + 0.08 * s, c0=2.0, T=10_000,
                                    noise_scale=0.05))
        g = np.random.Generator(np.random.Philox(key=50 + s))
        for t in range(10_000):
            x = g.random(1)
            arm = pol.choose(x)
            pol.update(x, arm, float(g.random()))
            if t % 500 == 0 and abs(pol.live_volume() - 1.0) > 1e-9:
                partition_ok = False
        if abs(pol.live_volume() - 1.0) > 1e-9:
            partition_ok = False
    for s in range(4):
        pol = SacbPolicy(SacbConfig(gamma=0.35, q=1.5, upsilon=2.0,
                                    beta_lo=0.5, beta_hi=1.0), T=10_000, d=1)
        g = np.random.Generator(np.random.Philox(key=70 + s))
        for t in range(10_000):
            x = g.random(1)
            arm = pol.choose(x)
            pol.update(x, arm, float(g.random()))
            if pol.handoff is not None:
                break
            if t % 211 == 0:
                if any(abs(st.counts[0] - st.counts[1]) > 1
                       for st in pol.state.values()):
                    alternation_ok = False

    # partition tiling fuzz
    tiling_ok = True
    for s in range(20):
        d = int(gen.integers(1, 3))
        q = float(gen.uniform(1.05, 2.5))
        l = int(gen.integers(0, 6))
        part = build_partition(d, q, l)
        vol = sum(float(np.prod(part.box(b).side)) for b in part.bin_ids())
        if abs(vol - 1.0) > 1e-9:
            tiling_ok = False
        for _ in range(50):
            x = gen.random(d)
            if not part.box(locate_bin(part, x)).contains(x):
                tiling_ok = False

    report("9 (invariant fuzz)", [
        (f"{n_cases} fuzz episodes x {steps_per_case} steps: regret traces "
         "monotone and non-negative", trace_ok),
        ("beta_hat clamped to [beta_lo, beta_hi] in all fuzz cases", clamp_ok),
        ("ABSE live bins partition the cube throughout", partition_ok),
        ("SACB alternation balance |N1 - N2| <= 1 throughout", alternation_ok),
        ("random partitions tile with consistent lookup", tiling_ok),
    ])
