import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banditlab.locpoly import (
    PolynomialEstimate,
    enumerate_multi_indices,
    fit_local_polynomial,
    floor_strict,
    window_fits,
)


def lstsq_oracle(X, y, center, h, degree):
    """Independent weighted-least-squares fit (kernel-masked lstsq)."""
    X = np.atleast_2d(np.asarray(X, float))
    if X.shape[0] == 1 and X.shape[1] > 1 and np.ndim(center) == 0:
        X = X.T
    center = np.atleast_1d(np.asarray(center, float))
    dx = X - center
    inside = np.max(np.abs(dx), axis=1) <= h
    dxw, yw = dx[inside], np.asarray(y, float)[inside]
    powers = enumerate_multi_indices(X.shape[1], degree)
    A = np.column_stack([np.prod(dxw ** np.asarray(s, float), axis=1) for s in powers])
    coef, _, _, _ = np.linalg.lstsq(A, yw, rcond=None)
    return coef[0]


class TestMultiIndices:
    def test_single_dim_degree_zero(self):
        assert enumerate_multi_indices(1, 0) == [(0,)]

    def test_single_dim_degree_two(self):
        assert enumerate_multi_indices(1, 2) == [(0,), (1,), (2,)]

    def test_two_dim_degree_one(self):
        assert enumerate_multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]

    @pytest.mark.parametrize("d,p", [(1, 5), (2, 3), (3, 2), (4, 1)])
    def test_count_and_order(self, d, p):
        out = enumerate_multi_indices(d, p)
        assert out == sorted(out)
        assert len(out) == len(set(out))
        assert all(sum(s) <= p for s in out)


class TestFloorStrict:
    def test_at_integers(self):
        assert floor_strict(1.0) == 0
        assert floor_strict(2.0) == 1

    def test_between(self):
        assert floor_strict(0.9) == 0
        assert floor_strict(1.5) == 1


class TestFit:
    def test_degree_zero_is_window_mean(self):
        est = fit_local_polynomial([((0.0,), 1.0), ((0.1,), 3.0)], 0.0, 1.0, 0)
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_exact_linear_recovery(self):
        xs = np.linspace(0, 1, 50)
        ys = 2.0 + 3.0 * xs
        est = fit_local_polynomial((xs, ys), 0.5, 0.5, 1)
        assert abs(est.value - 3.5) <= 1e-9

    def test_all_out_of_window_is_degenerate(self):
        est = fit_local_polynomial([((0.9,), 1.0)], 0.0, 0.5, 0)
        assert est.degenerate
        assert est.value == 0.0
        assert est(0.3) == 0.0

    def test_underdetermined_is_degenerate(self):
        # one in-window sample cannot pin down a line
        est = fit_local_polynomial([((0.1,), 1.0)], 0.0, 0.5, 1)
        assert est.degenerate

    def test_permutation_invariance_bit_exact(self):
        gen = np.random.Generator(np.random.Philox(key=5))
        xs = gen.random(40)
        ys = gen.random(40)
        a = fit_local_polynomial((xs, ys), 0.5, 0.3, 1)
        perm = gen.permutation(40)
        b = fit_local_polynomial((xs[perm], ys[perm]), 0.5, 0.3, 1)
        # same windowed set in a different order; Q/V assembled by matrix
        # products so the solve sees the same sums up to float assoc. order
        assert b.value == pytest.approx(a.value, rel=1e-12)

    def test_constant_shift_moves_value_by_constant(self):
        gen = np.random.Generator(np.random.Philox(key=6))
        xs = gen.random(60)
        ys = gen.random(60)
        a = fit_local_polynomial((xs, ys), 0.4, 0.25, 1).value
        b = fit_local_polynomial((xs, ys + 5.0), 0.4, 0.25, 1).value
        assert b - a == pytest.approx(5.0, abs=1e-9)

    def test_noiseless_polynomial_center_values(self):
        gen = np.random.Generator(np.random.Philox(key=7))
        for _ in range(50):
            d = int(gen.integers(1, 3))
            p = int(gen.integers(0, 2))
            n = 30
            X = gen.random((n, d))
            powers = enumerate_multi_indices(d, p)
            coefs = gen.normal(size=len(powers))
            center = 0.25 + 0.5 * gen.random(d)

            def poly(pts):
                dx = pts - center
                return sum(c * np.prod(dx ** np.asarray(s, float), axis=1)
                           for c, s in zip(coefs, powers))

            y = poly(X)
            est = fit_local_polynomial((X, y), center, 0.45, p)
            assert not est.degenerate
            assert est.value == pytest.approx(float(poly(center[None, :])[0]), abs=1e-9)

    def test_matches_lstsq_oracle_on_noisy_data(self):
        gen = np.random.Generator(np.random.Philox(key=8))
        for _ in range(50):
            d = int(gen.integers(1, 3))
            p = int(gen.integers(0, 2))
            X = gen.random((40, d))
            y = gen.normal(size=40)
            center = 0.3 + 0.4 * gen.random(d)
            est = fit_local_polynomial((X, y), center, 0.5, p)
            want = lstsq_oracle(X, y, center, 0.5, p)
            assert est.value == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_evaluate_away_from_center(self):
        xs = np.linspace(0, 1, 20)
        ys = 1.0 + 2.0 * xs
        est = fit_local_polynomial((xs, ys), 0.5, 1.0, 1)
        assert est(0.75) == pytest.approx(2.5, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fit_local_polynomial([((0.1,), 1.0)], 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            fit_local_polynomial([((0.1,), 1.0)], 0.0, 1.0, -1)


class TestEstimateObject:
    def test_degenerate_contract(self):
        est = PolynomialEstimate({}, (0.0,), 1.0, 1, True)
        assert est.value == 0.0
        assert est(0.9) == 0.0


# window_fits against a loop over fit_local_polynomial.  The window and the
# degenerate gate must agree exactly; values agree up to rounding.  The gate
# admits a Q with condition number up to 1 / SINGULARITY_TOL = 1e10, so a
# difference of one rounding error (~1e-16) in the moments, which the
# batched path sums in another order (and in d = 1 from prefix sums
# recentered binomially), can move a fit by up to about 1e-6 of its scale.
# Over many random inputs the largest deviation seen is below 1e-6 of
# max(|value|, max |y|), in windows holding just enough points for their
# degree.
WINDOW_RTOL = 1e-5


def assert_matches_oracle(X, y, centers, h, degree):
    got = window_fits(X, y, centers, h, degree)
    hs = np.broadcast_to(h, (len(centers),))
    ests = [fit_local_polynomial((X, y), c, hc, degree) for c, hc in zip(centers, hs)]
    degenerate = np.array([e.degenerate for e in ests], dtype=bool)
    want = np.array([e.value for e in ests])
    # y is bounded away from 0 so that only a degenerate window reads 0.
    assert not np.any(want[~degenerate] == 0.0)
    assert np.array_equal(got == 0.0, degenerate)
    scale = np.maximum(np.abs(want), np.max(np.abs(y), initial=1.0))
    assert np.all(np.abs(got - want) <= WINDOW_RTOL * scale), \
        np.max(np.abs(got - want) / scale)
    return degenerate


class TestWindowFits:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_matches_oracle_fixed_seed(self, d, degree):
        gen = np.random.Generator(np.random.Philox(key=31 + 3 * d + degree))
        seen_window_sizes = set()
        n_degenerate = 0
        for trial in range(60):
            n = int(gen.integers(0, 30))
            X = gen.random((n, d))
            if trial % 4 == 0 and n:
                X[:, 0] = X[0, 0]            # rank-deficient: one axis constant
            y = 1.0 + gen.random(n)
            centers = gen.random((40, d))
            widths = [0.01, 0.03, 0.1, 0.3, 1.0]
            # Every other trial gives each center its own bandwidth.
            h = float(gen.choice(widths)) if trial % 2 else gen.choice(widths, 40)
            deg = assert_matches_oracle(X, y, centers, h, degree)
            n_degenerate += int(deg.sum())
            inside = np.max(np.abs(X[None, :, :] - centers[:, None, :]), axis=2) \
                <= np.reshape(h, (-1, 1))
            seen_window_sizes.update(inside.sum(axis=1).tolist())
        assert {0, 1, 2} <= seen_window_sizes
        assert n_degenerate > 0

    def test_degree_zero_is_window_mean(self):
        X = np.array([0.1, 0.2, 0.25, 0.9])
        y = np.array([1.0, 2.0, 4.0, 8.0])
        got = window_fits(X, y, np.array([0.2, 0.6, 1.0]), 0.1, 0)
        assert got == pytest.approx([7.0 / 3.0, 0.0, 8.0], rel=1e-15)

    def test_window_edges_follow_rounded_difference(self):
        # 0.3 - 0.1 rounds to just below 0.2 while 0.1 + 0.2 rounds above 0.3:
        # the window is whatever |x - c| <= h selects after rounding.
        X = np.array([0.3, 0.30000000000000004, -0.1, 0.5])
        y = np.array([1.0, 2.0, 4.0, 8.0])
        for c in (0.1, 0.3, 0.5):
            assert_matches_oracle(X, y, np.array([[c]]), 0.2, 0)

    def test_empty_sample(self):
        out = window_fits(np.empty((0, 2)), np.empty(0), np.zeros((3, 2)), 0.5, 1)
        assert np.array_equal(out, np.zeros(3))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            window_fits(np.ones(2), np.ones(2), np.ones(1), 0.0, 0)
        with pytest.raises(ValueError):
            window_fits(np.ones(2), np.ones(2), np.ones(2), [1.0, -1.0], 0)
        with pytest.raises(ValueError):
            window_fits(np.ones(2), np.ones(2), np.ones(1), 1.0, -1)
        with pytest.raises(ValueError):
            window_fits(np.ones((2, 2)), np.ones(2), np.ones((1, 3)), 1.0, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2]),
        degree=st.sampled_from([0, 1, 2]),
        grid=st.sampled_from([4, 16, 64]),
        data=st.data(),
    )
    def test_matches_oracle_property(self, d, degree, grid, data):
        # Coordinates on a 1/grid lattice make repeated coordinates,
        # collinear and rank-deficient windows and points exactly on a
        # window edge common; centers are free floats or lattice points.
        n = data.draw(st.integers(0, 12), label="n")
        cells = data.draw(st.lists(st.integers(0, grid), min_size=n * d,
                                   max_size=n * d), label="cells")
        X = np.array(cells, dtype=float).reshape(n, d) / grid
        y = np.array(data.draw(st.lists(st.floats(1.0, 2.0), min_size=n,
                                        max_size=n), label="y"))
        unit = st.one_of(st.floats(0.0, 1.0),
                         st.integers(0, grid).map(lambda k: k / grid))
        centers = np.array(data.draw(st.lists(unit, min_size=d, max_size=4 * d)
                                     .filter(lambda v: len(v) % d == 0),
                                     label="centers")).reshape(-1, d)
        h = data.draw(st.sampled_from([0.5 / grid, 1.0 / grid, 2.0 / grid, 0.3]),
                      label="h")
        assert_matches_oracle(X, y, centers, h, degree)
