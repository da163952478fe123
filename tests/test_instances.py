import math

import numpy as np
import pytest

from banditlab.errors import InvalidGapError, InvalidRegimeError
from banditlab.instances import (
    bump,
    check_holder,
    check_margin,
    check_self_similarity,
    impossibility_exponent,
    make_example1_family,
    make_instance,
    make_lower_bound_family,
    make_power_payoff,
    make_setting_one,
    make_setting_two,
    minimax_exponent,
    projection_bias_constant,
    psi_hat,
    psi_tilde,
)

T_EXP = 2_000_000


class TestBump:
    def test_peak(self):
        for beta in (0.3, 0.9, 1.0):
            assert bump(0.0, beta) == 1.0

    def test_outside_support(self):
        assert bump(1.5, 0.7) == 0.0

    def test_linear_tent(self):
        assert bump(0.5, 1.0) == pytest.approx(0.5)


class TestSettingOne:
    def test_shared_value_at_half(self):
        for beta in (0.5, 0.85, 1.0):
            inst = make_setting_one(beta, T_EXP)
            assert inst.f1(0.5) == pytest.approx(0.5)
            assert inst.f2(0.5) == pytest.approx(0.5)

    def test_f2_flat_right_branch(self):
        inst = make_setting_one(0.9, T_EXP)
        xs = np.linspace(0.5 + 1e-9, 1.0, 100)
        assert np.allclose(inst.f2(xs), 0.5)

    def test_scale_arithmetic_oracle(self):
        # direct evaluation of the published scale formula at beta=0.9
        beta, tau, c0 = 0.9, 0.8, 2.0
        inner = math.floor((1 / (2 * c0))
                           * (2 * math.log(2) / T_EXP) ** (-tau / (tau + 1)))
        M = inner ** (1 / beta) / 16.0
        inst = make_setting_one(beta, T_EXP)
        assert inst.meta["M"] == pytest.approx(M)
        # bump width in x is 1/(2M): successive bump centers differ by 1/(2M)
        centers = inst.meta["bump_centers"]
        assert np.allclose(np.diff(centers), 1.0 / M)
        assert inst.meta["amplitude"] == pytest.approx(
            inst.meta["C"] * (2 * M) ** (-beta))

    def test_continuity_on_grid(self):
        inst = make_setting_one(0.9, T_EXP)
        xs = np.linspace(0.0, 1.0, 400_001)
        vals = inst.f1(xs)
        jumps = np.abs(np.diff(vals))
        # continuous function: increments vanish with the grid step
        assert jumps.max() < 2e-3
        x_half = np.array([0.5 - 1e-12, 0.5, 0.5 + 1e-12])
        v = inst.f1(x_half)
        assert abs(v[2] - v[1]) < 1e-9 and abs(v[1] - v[0]) < 1e-9

    def test_bumps_alternate_sign(self):
        inst = make_setting_one(0.9, T_EXP)
        centers_x = 1.0 - np.asarray(inst.meta["bump_centers"]) / 2.0
        gaps = inst.f1(centers_x) - inst.f2(centers_x)
        signs = np.sign(gaps)
        assert np.all(signs[:-1] * signs[1:] < 0)

    def test_payoffs_within_unit_interval(self):
        inst = make_setting_one(0.85, T_EXP)
        xs = np.linspace(0, 1, 20_000)
        for f in (inst.f1, inst.f2):
            vals = f(xs)
            assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestSettingTwo:
    def test_scale_value(self):
        inst = make_setting_two(0.5, T_EXP)
        # 2^ceil(log2(T / 2 ln 2) / 1.6) / 4 = 2^13 / 4 = 2048
        assert inst.meta["M"] == 2048.0

    def test_alpha_is_reciprocal_beta(self):
        inst = make_setting_two(0.5, T_EXP)
        assert inst.meta["alpha"] * 0.5 == pytest.approx(1.0)

    def test_left_branch_shared(self):
        inst = make_setting_two(0.5, T_EXP)
        xs = np.linspace(0.0, 0.5, 500)
        assert np.allclose(inst.f1(xs), inst.f2(xs))


class TestPowerPayoff:
    def test_zero_at_origin(self):
        assert make_power_payoff(0.6, 1.0).f1(0.0) == 0.0

    def test_delta_one_gives_l0_zero(self):
        assert make_power_payoff(0.6, 1.0).meta["l0"] == 0.0

    def test_capped_beyond_power_region(self):
        inst = make_power_payoff(0.5, 0.25)
        x_cap = 0.25 ** 2
        assert inst.f1(x_cap + 0.1) == pytest.approx(0.25)

    def test_projection_bias_meets_self_similar_floor(self):
        # degree-0 projection bias on [0, q^-l] equals q^(-l beta)/(beta+1)
        from banditlab.projection import Box, project_to_polynomial
        beta = 0.6
        inst = make_power_payoff(beta, 1.0)
        for q, level in ((1.1, 4), (2.0, 3)):
            h = q ** (-level)
            proj = project_to_polynomial(inst.f1, Box.make([0.0], [h]), 0, h,
                                         nodes_per_axis=4096)
            want = h ** beta / (beta + 1.0)
            assert abs(abs(proj(0.0) - inst.f1(0.0)) - want) < 1e-6


class TestLowerBoundFamily:
    def test_psi_tilde_endpoints(self):
        assert psi_tilde(np.array([0.0]), 0.7)[0] == 1.0
        assert psi_tilde(np.array([1.2]), 0.7)[0] == 0.0

    def test_psi_hat_far_field(self):
        assert psi_hat(np.array([2.5]), 0.7)[0] == -1.0
        assert psi_hat(np.array([0.0]), 0.7)[0] == 1.0
        assert psi_hat(np.array([1.5]), 1.0)[0] == pytest.approx(-0.5)

    def test_nominal_minimum(self):
        fam = make_lower_bound_family(0.5, 0.9, 1.0 / 0.9, 0.2,
                                      "at-most-lipschitz")
        nominal = fam[0]
        xs = np.linspace(0, 1, 20_001)
        assert nominal.f1(xs).min() == pytest.approx(0.5 - 0.2, abs=1e-6)

    def test_alternatives_differ_only_on_their_cell(self):
        fam = make_lower_bound_family(0.5, 0.9, 1.0 / 0.9, 0.2,
                                      "at-most-lipschitz")
        nominal, alt = fam[0], fam[1]
        xs = np.linspace(0, 1, 4001)
        diff = np.abs(alt.f1(xs) - nominal.f1(xs))
        changed = xs[diff > 1e-12]
        lo = alt.meta["bump_center"][0] - alt.meta["cell_side"] / 2
        hi = alt.meta["bump_center"][0] + alt.meta["cell_side"] / 2
        assert changed.size > 0
        assert changed.min() >= lo - 1e-9 and changed.max() <= hi + 1e-9

    def test_alternative_peak(self):
        fam = make_lower_bound_family(0.5, 0.9, 1.0 / 0.9, 0.2,
                                      "at-most-lipschitz")
        alt = fam[1]
        assert alt.f1(np.array(alt.meta["bump_center"]))[0] == pytest.approx(0.7)

    def test_at_least_lipschitz_geometry(self):
        fam = make_lower_bound_family(1.0, 1.5, 1.0, 0.2, "at-least-lipschitz")
        nominal, alt = fam
        assert nominal.f1(0.5) == pytest.approx(0.5)
        # bump peaks mid-interval at phi0 + 2 C Delta
        peak_x = 0.5 - 0.1
        assert alt.f1(peak_x) == pytest.approx(0.5 - 0.1 + 0.4)
        # arm 1 optimal with gap >= Delta/2 on the inner segment
        seg = np.linspace(0.5 - 0.7 * 0.2, 0.5 - 0.2 / 6, 200)
        assert np.all(alt.f1(seg) - 0.5 >= 0.2 / 2 - 1e-9)

    def test_gap_validation(self):
        with pytest.raises(InvalidGapError):
            make_lower_bound_family(0.5, 0.9, 1.1, 0.3, "at-most-lipschitz")
        with pytest.raises(InvalidRegimeError):
            make_lower_bound_family(0.9, 1.5, 1.0, 0.2, "at-least-lipschitz")

    def test_bernoulli_means_in_range(self):
        fam = make_lower_bound_family(0.5, 0.9, 1.0, 0.25, "at-most-lipschitz")
        xs = np.linspace(0, 1, 5000)
        for inst in fam[:3]:
            vals = inst.f1(xs)
            assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestExample1Family:
    def test_part1_positive_field(self):
        inst = make_example1_family(0.5, 0.8, 100_000, part=1)
        xs = np.linspace(0, 1, 5000)
        assert np.all(inst.f1(xs) >= 0.5 - 1e-12)

    def test_part2_alternating_field(self):
        inst = make_example1_family(0.5, 0.6, 100_000, part=2)
        xs = np.linspace(0, 1, 50_000)
        vals = inst.f1(xs) - 0.5
        assert vals.max() > 1e-4 and vals.min() < -1e-4


class TestVerifiers:
    def test_constant_is_holder(self):
        rep = check_holder(lambda x: np.full_like(np.asarray(x, float), 0.3),
                           0.5, 1.0, grid_n=50)
        assert rep.holds

    def test_sqrt_is_half_holder(self):
        rep = check_holder(lambda x: np.asarray(x, float) ** 0.5, 0.5, 1.0,
                           grid_n=200)
        assert rep.holds

    def test_sqrt_violates_higher_exponent(self):
        xs_probe = check_holder(lambda x: np.asarray(x, float) ** 0.5, 0.9, 1.0,
                                grid_n=400)
        assert not xs_probe.holds
        assert xs_probe.margin_of_violation < 0

    # The beta in (1, 2] Taylor term had the wrong sign: it added
    # grad f(x).(x - x') where the expansion has grad f(x).(x' - x), so a
    # linear payoff "violated" beta = 1.5 by twice slope x gap and x^1.5
    # failed at L = 1.
    @pytest.mark.parametrize("f,L,holds", [
        (lambda x: 0.7 * np.asarray(x, float), 1e-6, True),
        (lambda x: np.asarray(x, float) ** 1.5, 1.0, True),
        (lambda x: np.asarray(x, float) ** 1.5, 0.5, False),
    ], ids=["linear", "power-at-L", "power-below-L"])
    def test_holder_above_one_expands_to_first_order(self, f, L, holds):
        rep = check_holder(f, 1.5, L)
        assert rep.holds is holds, rep.witness

    def test_margin_trivial_when_gap_zero(self):
        inst = make_power_payoff(0.6, 1.0)
        zero_gap = type(inst)(
            name="flat", d=1, f1=inst.f2, f2=inst.f2, noise=("bernoulli",))
        rep = check_margin(zero_gap, 1.0, 1.0, grid_n=10_000)
        assert rep.holds
        assert rep.witness["probability"] == 0.0

    def test_margin_linear_gap_closed_form(self):
        # f1 - f2 = x on uniform [0,1]: P{0 < gap <= delta} = delta
        inst = make_power_payoff(0.6, 1.0)
        linear = type(inst)(
            name="lin", d=1,
            f1=lambda x: np.asarray(x, float),
            f2=lambda x: np.zeros_like(np.asarray(x, float)),
            noise=("bernoulli",))
        rep = check_margin(linear, 1.0, 1.0, grid_n=200_000,
                           delta_grid=[0.1, 0.3, 0.7, 1.0])
        assert rep.holds
        got = rep.witness["probability"]
        assert got == pytest.approx(rep.witness["delta"], abs=5e-3)

    # The d >= 2 tolerance was 8 / n_axis^(1/d), about 0.45 here, with
    # n_axis already a per-axis count; it hid this excess of 0.197 and
    # reported margin +0.253.
    def test_margin_tolerance_is_eight_spacings_in_2d(self):
        inst = make_instance({"kind": "lower_bound", "beta": 0.5, "gamma": 0.9,
                              "alpha": 1.0, "delta": 0.25, "member": 1, "d": 2},
                             T_EXP)
        rep = check_margin(inst, 1.0, 2.5)
        assert not rep.holds
        assert rep.witness["delta"] == pytest.approx(10 ** -0.5)
        assert rep.witness["probability"] == pytest.approx(0.987, abs=1e-3)
        assert rep.margin_of_violation == pytest.approx(
            0.7906 + 8 / 316 - 0.9874, abs=1e-3)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("args", [(0.5, 0.9, 1.0, 0.25, "at-most-lipschitz"),
                                      (1.0, 1.5, 1.0, 0.2, "at-least-lipschitz")],
                             ids=["at-most", "at-least"])
    def test_lower_bound_members_pass_declared_checks(self, args, d):
        for inst in make_lower_bound_family(*args, d=d):
            hol = check_holder(inst, inst.meta["beta"], inst.meta["L"])
            assert hol.holds, (inst.meta["member"], hol.witness)
            mar = check_margin(inst, inst.meta["alpha"], inst.meta["C0"])
            assert mar.holds, (inst.meta["member"], mar.witness)

    def test_margin_setting_two_declared_constants(self):
        inst = make_setting_two(0.5, T_EXP)
        rep = check_margin(inst, inst.meta["alpha"], inst.meta["C0"],
                           grid_n=400_000)
        assert rep.holds

    def test_self_similarity_power_payoff(self):
        inst = make_power_payoff(0.6, 1.0)
        for q in (1.1, 2.0):
            rep = check_self_similarity(inst, 0.6, inst.meta["b"], 0, 3, q, 0,
                                        probe_per_axis=33, nodes_per_axis=1024)
            assert rep.holds, rep.witness

    def test_self_similarity_fails_for_constants(self):
        inst = make_power_payoff(0.6, 1.0)
        flat = type(inst)(name="flat", d=1, f1=inst.f2, f2=inst.f2,
                          noise=("bernoulli",))
        rep = check_self_similarity(flat, 0.6, 0.05, 0, 2, 2.0, 0,
                                    probe_per_axis=17, nodes_per_axis=512)
        assert not rep.holds

    def test_self_similarity_fails_when_delta_small(self):
        # power region shrunk below the tested scale: bias floor unreachable
        inst = make_power_payoff(0.6, 0.05)
        rep = check_self_similarity(inst, 0.6, inst.meta["b"], 0, 1, 2.0, 0,
                                    probe_per_axis=33, nodes_per_axis=1024)
        assert not rep.holds

    def test_generated_instances_pass_declared_checks(self):
        for inst in (make_setting_one(0.9, T_EXP),
                     make_setting_two(0.5, T_EXP),
                     make_power_payoff(0.6, 1.0)):
            hol = check_holder(inst, inst.meta["beta"], inst.meta["L"],
                               grid_n=300)
            assert hol.holds, (inst.name, hol.witness)
            if "C0" in inst.meta:
                mar = check_margin(inst, inst.meta["alpha"], inst.meta["C0"],
                                   grid_n=200_000)
                assert mar.holds, (inst.name, mar.witness)

    def test_holder_projection_bound_constant(self):
        # sup |Gamma f - f| <= L0_hat h^beta across fresh levels, where
        # L0_hat is fitted on a calibration set of levels
        inst = make_power_payoff(0.6, 1.0)
        l0_hat = projection_bias_constant(inst.f1, 0.6, 0, 2.0, [1, 2],
                                          probe_per_axis=33,
                                          nodes_per_axis=1024)
        # With the cell corners probed, the sup is attained at x = 0 and
        # equals the self-similarity constant b = 1/(beta + 1).
        assert l0_hat == pytest.approx(inst.meta["b"], rel=1e-5)
        for level in (3, 4):
            worst = projection_bias_constant(inst.f1, 0.6, 0, 2.0, [level],
                                             probe_per_axis=33,
                                             nodes_per_axis=1024)
            assert worst <= l0_hat * 1.05

    def test_instances_deterministic(self):
        inst = make_setting_one(0.9, T_EXP)
        xs = np.linspace(0, 1, 1000)
        a = inst.f1(xs)
        b = inst.f1(xs)
        assert np.array_equal(a, b)


class TestExponents:
    def test_minimax_smooth_margin_one(self):
        assert minimax_exponent(1.0, 1.0, 1) == pytest.approx(1.0 / 3.0)

    def test_minimax_rough_case(self):
        assert minimax_exponent(0.075, 1 / 0.15, 1) == pytest.approx(0.5)

    def test_minimax_limit_in_beta(self):
        vals = [minimax_exponent(b, 0.0, 1) for b in (1, 10, 100, 1000)]
        assert all(v > 0.5 for v in vals)
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(0.5, abs=1e-3)

    def test_impossibility_rough_example(self):
        got = impossibility_exponent(0.075, 0.15, 1 / 0.15, 1,
                                     "at-most-lipschitz")
        assert got == pytest.approx(0.6183, abs=1e-4)

    def test_impossibility_smooth_example(self):
        for gamma in (1.5, 2.0, 4.0):
            got = impossibility_exponent(1.0, gamma, 1.0, 1,
                                         "at-least-lipschitz")
            assert got == pytest.approx(gamma / (2 * gamma + 1))

    def test_impossibility_approaches_minimax(self):
        gamma = 0.15
        alpha = 1 / gamma
        lim = impossibility_exponent(gamma - 1e-9, gamma, alpha, 1,
                                     "at-most-lipschitz")
        assert lim == pytest.approx(minimax_exponent(gamma, alpha, 1), abs=1e-6)

    def test_impossibility_gap_positive(self):
        beta, gamma, alpha = 0.075, 0.15, 1 / 0.15
        assert (impossibility_exponent(beta, gamma, alpha, 1, "at-most-lipschitz")
                > minimax_exponent(beta, alpha, 1))

    def test_invalid_regimes(self):
        with pytest.raises(InvalidRegimeError):
            impossibility_exponent(0.9, 1.5, 1.0, 1, "at-least-lipschitz")
        with pytest.raises(InvalidRegimeError):
            impossibility_exponent(0.5, 0.4, 1.0, 1, "at-most-lipschitz")


class TestMakeInstance:
    def test_roundtrip_kinds(self):
        specs = [
            {"kind": "setting1", "beta": 0.9},
            {"kind": "setting2", "beta": 0.5},
            {"kind": "power", "beta": 0.6, "delta": 1.0},
            {"kind": "lower_bound", "beta": 0.5, "gamma": 0.9,
             "alpha": 1.0, "delta": 0.2, "member": 1},
        ]
        for spec in specs:
            inst = make_instance(spec, 100_000)
            assert inst.d == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_instance({"kind": "nope", "beta": 0.5}, 1000)


LB = {"kind": "lower_bound", "alpha": 1.0, "delta": 0.2, "member": 1}


POWER = make_power_payoff(0.6, 1.0)


@pytest.mark.parametrize("call,error,match", [
    (lambda: bump(0.5, 0.0), ValueError, "beta must be positive"),
    (lambda: make_power_payoff(1.0, 0.5), ValueError, r"beta must be in \(0, 1\)"),
    (lambda: make_power_payoff(0.6, 0.0), ValueError, r"delta must be in \(0, 1\]"),
    (lambda: make_lower_bound_family(0.9, 0.5, 1.0, 0.2, "at-most-lipschitz"),
     InvalidRegimeError, "needs 0 < beta < gamma <= 1"),
    (lambda: make_lower_bound_family(0.5, 0.9, 3.0, 0.2, "at-most-lipschitz"),
     InvalidGapError, "alternative count M=0 < 1"),
    (lambda: make_lower_bound_family(1.0, 1.0, 1.0, 0.2, "at-least-lipschitz"),
     InvalidRegimeError, "need gamma > 1"),
    (lambda: make_lower_bound_family(0.5, 0.9, 1.0, 0.2, "sideways"),
     InvalidRegimeError, "unknown variant 'sideways'"),
    (lambda: make_example1_family(0.5, 0.8, 100_000, 3), ValueError,
     "part must be 1 or 2"),
    (lambda: make_instance(dict(LB, beta=1.0, gamma=1.5, member=2,
                                variant="at-least-lipschitz"), 100_000),
     ValueError, "member 2 outside family of 2"),
    # int() truncated these: d 2.5 built a d = 2 family.
    *[(lambda spec=spec: make_instance(spec, 100_000), ValueError, match)
      for spec, match in [
          (dict(LB, beta=0.5, gamma=0.9, d=2.5), r"^d must be an integer, got 2\.5$"),
          (dict(LB, beta=0.5, gamma=0.9, member=1.5),
           r"^member must be an integer, got 1\.5$"),
          (dict(LB, beta=0.5, gamma=0.9, d=True), r"^d must be an integer, got True$"),
          ({"kind": "example1", "beta": 0.5, "tilde_beta": 0.8, "part": 1.9},
           r"^part must be an integer, got 1\.9$"),
          ({"kind": "setting1", "beta": 0.9, "overrides": {"m": 2.5}},
           r"^overrides\.m must be an integer, got 2\.5$"),
          ({"kind": "setting1", "beta": 0.9, "overrides": {"m": True}},
           r"^overrides\.m must be an integer, got True$")]],
    (lambda: check_holder(POWER, 2.5, 1.0), NotImplementedError, "beta <= 2"),
    (lambda: check_margin(POWER, 1.0, 1.0, delta_grid=[0.0, 0.5]), ValueError,
     r"delta grid must lie in \(0, 1\]"),
    (lambda: check_self_similarity(POWER, 0.6, 0.5, 3, 2, 2.0, 0), ValueError,
     "l_max must be >= l0"),
    (lambda: check_self_similarity(POWER, 1.5, 0.5, 1, 2, 2.0, 0), ValueError,
     r"degree p=0 below floor_strict\(beta\)=1"),
    (lambda: minimax_exponent(0.0, 1.0, 1), ValueError, "need beta > 0"),
    (lambda: impossibility_exponent(0.5, 0.9, 2.0, 1, "at-most-lipschitz"),
     InvalidRegimeError, r"alpha=2.0 outside \(0, 1/gamma\]"),
    (lambda: impossibility_exponent(1.0, 1.5, 1.5, 1, "at-least-lipschitz"),
     InvalidRegimeError, r"alpha=1.5 outside \(0, 1\]"),
    (lambda: impossibility_exponent(0.5, 0.9, 1.0, 1, "sideways"),
     InvalidRegimeError, "unknown regime 'sideways'"),
], ids=["bump-beta", "power-beta", "power-delta", "lower-bound-regime",
        "lower-bound-no-alternative", "lower-bound-gamma", "lower-bound-variant",
        "example1-part", "member-range", "lower-bound-fractional-d",
        "lower-bound-fractional-member", "lower-bound-bool-d",
        "example1-fractional-part", "setting1-fractional-m", "setting1-bool-m",
        "holder-beta", "margin-delta-grid",
        "self-similarity-levels", "self-similarity-degree", "minimax-beta",
        "impossibility-alpha-at-most", "impossibility-alpha-at-least",
        "impossibility-regime"])
def test_rejects_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_integral_floats_are_integers():
    # As a config's T or reps: 2.0 is 2.
    assert make_instance(dict(LB, beta=0.5, gamma=0.9, d=2.0, member=1.0),
                         100_000).d == 2
    m = make_instance({"kind": "setting1", "beta": 0.9, "overrides": {"m": 2.0}},
                      200_000).meta["m"]
    assert m == 2 and type(m) is int
    spec = {"kind": "example1", "beta": 0.5, "tilde_beta": 0.8}
    assert (make_instance({**spec, "part": 2.0}, 100_000).meta
            == make_instance({**spec, "part": 2}, 100_000).meta)


class TestPointConvention:
    @pytest.mark.parametrize("spec", [
        {"kind": "setting1", "beta": 0.9},
        {"kind": "setting2", "beta": 0.5},
        {"kind": "power", "beta": 0.6, "delta": 0.5},
        {"kind": "example1", "beta": 0.5, "tilde_beta": 0.8, "part": 2},
        dict(LB, beta=0.5, gamma=0.9, d=1),
        dict(LB, beta=0.5, gamma=0.9, d=2),
        dict(LB, beta=1.0, gamma=1.5, variant="at-least-lipschitz", d=1),
        dict(LB, beta=1.0, gamma=1.5, variant="at-least-lipschitz", d=2),
    ], ids=["setting1", "setting2", "power", "example1", "lower_bound-d1",
            "lower_bound-d2", "lower_bound-least-d1", "lower_bound-least-d2"])
    def test_arms_and_payoffs_follow_the_point_convention(self, spec):
        inst = make_instance(spec, 200_000)
        d = inst.d
        assert d == spec.get("d", 1)
        pts = np.random.default_rng(0).random((50, d))
        for f in (inst.f1, inst.f2):
            vals = f(pts)
            assert vals.shape == (50,)
            if d == 1:
                assert isinstance(f(0.3), float)
                assert f(0.3) == f(np.array([0.3]))[0]
                assert np.array_equal(f(pts[:, 0]), vals)
            else:
                one = f(pts[3])
                assert one.shape == (1,) and one[0] == vals[3]
        assert np.array_equal(inst.payoffs(pts),
                              np.stack([inst.f1(pts), inst.f2(pts)], axis=1))
