from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banditlab import locpoly
from banditlab.locpoly import (
    SINGULARITY_TOL,
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

    @pytest.mark.parametrize("d,p", [(0, 1), (1, -1)])
    def test_rejects_bad_arguments(self, d, p):
        with pytest.raises(ValueError, match="need d >= 1 and p >= 0"):
            enumerate_multi_indices(d, p)


class TestFloorStrict:
    def test_at_integers(self):
        assert floor_strict(1.0) == 0
        assert floor_strict(2.0) == 1

    def test_between(self):
        assert floor_strict(0.9) == 0
        assert floor_strict(1.5) == 1


class TestFit:
    def test_degree_zero_is_window_mean(self):
        est = fit_local_polynomial((np.array([0.0, 0.1]), np.array([1.0, 3.0])),
                                   0.0, 1.0, 0)
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_exact_linear_recovery(self):
        xs = np.linspace(0, 1, 50)
        ys = 2.0 + 3.0 * xs
        est = fit_local_polynomial((xs, ys), 0.5, 0.5, 1)
        assert abs(est.value - 3.5) <= 1e-9

    def test_all_out_of_window_is_degenerate(self):
        est = fit_local_polynomial((np.array([0.9]), np.array([1.0])), 0.0, 0.5, 0)
        assert est.degenerate
        assert est.value == 0.0

    def test_underdetermined_is_degenerate(self):
        # one in-window sample cannot pin down a line
        est = fit_local_polynomial((np.array([0.1]), np.array([1.0])), 0.0, 0.5, 1)
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

    def test_rejects_bad_arguments(self):
        data = (np.array([0.1]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_local_polynomial(data, 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            fit_local_polynomial(data, 0.0, 1.0, -1)


class TestEstimateObject:
    def test_degenerate_contract(self):
        est = fit_local_polynomial((np.array([0.9]), np.array([1.0])), 0.0, 0.5, 1)
        assert est == PolynomialEstimate(0.0, True)


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


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestStackedWindowFits:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_equals_one_call_per_dataset_bit_for_bit(self, d, degree):
        # Lattice coordinates, centers and bandwidths put points exactly on
        # window edges and make empty, one-point and rank-deficient windows.
        gen = np.random.Generator(np.random.Philox(key=71 + 3 * d + degree))
        grid = 16
        window_sizes = set()
        for trial in range(40):
            k = int(gen.integers(1, 6))
            n = int(gen.integers(0, 25))
            X = gen.integers(0, grid + 1, (k, n, d)) / grid
            if trial % 3 == 0:
                X = gen.random((k, n, d))
            y = gen.normal(size=(k, n))
            n_c = int(gen.integers(1, 60))
            centers = gen.integers(0, grid + 1, (n_c, d)) / grid
            centers[::2] = gen.random((len(centers[::2]), d))
            h = gen.choice([0.5 / grid, 1.0 / grid, 2.0 / grid, 0.3], n_c)
            owner = gen.integers(0, k, n_c)
            got = window_fits(X, y, centers, h, degree, owner=owner)
            for j in range(k):
                sel = owner == j
                alone = window_fits(X[j], y[j], centers[sel], h[sel], degree)
                assert np.array_equal(bits(got[sel]), bits(alone))
                inside = np.max(np.abs(X[j][None] - centers[sel][:, None]), axis=2) \
                    <= h[sel][:, None]
                window_sizes.update(inside.sum(axis=1).tolist())
        assert {0, 1, 2} <= window_sizes

    def test_one_dataset_is_the_stack_of_one(self):
        gen = np.random.Generator(np.random.Philox(key=80))
        X, y = gen.random(30), gen.normal(size=30)
        centers = gen.random(20)
        plain = window_fits(X, y, centers, 0.1, 1)
        stacked = window_fits(X[None, :, None], y[None], centers, 0.1, 1,
                              owner=np.zeros(20, dtype=int))
        assert np.array_equal(bits(plain), bits(stacked))

    def test_empty_datasets(self):
        out = window_fits(np.empty((3, 0, 1)), np.empty((3, 0)), np.zeros(4), 0.5, 1,
                          owner=[0, 1, 2, 2])
        assert np.array_equal(out, np.zeros(4))

    @pytest.mark.parametrize("X,y,centers,owner", [
        (np.ones((4, 1)), np.ones(4), np.ones(2), [0, 0]),           # not a stack
        (np.ones((2, 4, 1)), np.ones((2, 3)), np.ones(2), [0, 1]),   # y rows too short
        (np.ones((2, 4, 1)), np.ones((3, 4)), np.ones(2), [0, 1]),   # one y row too many
        (np.ones((2, 4, 2)), np.ones((2, 4)), np.ones(2), [0, 1]),   # d differs
        (np.ones((2, 4, 1)), np.ones((2, 4)), np.ones(2), [0]),      # owner too short
        (np.ones((2, 4, 1)), np.ones((2, 4)), np.ones(2), [0, 2]),   # owner >= k
        (np.ones((2, 4, 1)), np.ones((2, 4)), np.ones(2), [-1, 0]),  # owner < 0
        (np.ones((2, 4, 1)), np.ones((2, 4)), np.ones(2), [0.0, 1.0]),
        (np.ones(4), np.ones(3), np.ones(2), None),                  # one dataset
        (np.ones((2, 4, 1)), np.ones((2, 4)), np.ones(2), None),     # stack, no owner
    ])
    def test_rejects_mismatched_stacks(self, X, y, centers, owner):
        with pytest.raises(ValueError):
            window_fits(X, y, centers, 0.5, 1, owner=owner)


def eigvalsh_gate(Q):
    """The gate by eigvalsh alone, as fit_local_polynomial applies it."""
    scale = np.max(np.abs(Q), axis=(1, 2))
    ok = scale > 0.0
    ok[ok] = np.linalg.eigvalsh(Q[ok])[:, 0] > SINGULARITY_TOL * scale[ok]
    return ok


def two_point_q(u1, u2):
    """Q of a degree-1 fit to two points at u1 and u2 from the center."""
    return np.stack([np.stack([np.full_like(u1, 2.0), u1 + u2], axis=-1),
                     np.stack([u1 + u2, u1 * u1 + u2 * u2], axis=-1)], axis=-2)


def adversarial_stack():
    """2 x 2 gates around and inside the band the determinant cannot decide.

    Two-point windows whose spacing sweeps lambda_min ~ s^2 / 2 through
    SINGULARITY_TOL * scale, rank-1 windows (repeated points), windows of
    many points in a tiny spread, and matrices of trace <= 0.
    """
    gen = np.random.Generator(np.random.Philox(key=90))
    s = np.geomspace(1e-7, 1e-3, 4001)
    base = gen.uniform(-0.5, 0.5, len(s))
    sweep = two_point_q(base, base + s)
    n = gen.integers(1, 50, 2000).astype(float)
    u = gen.uniform(-1.0, 1.0, 2000)
    rank1 = np.stack([np.stack([n, n * u], axis=-1),
                      np.stack([n * u, n * u * u], axis=-1)], axis=-2)
    pts = gen.uniform(-1, 1, (2000, 1)) + gen.uniform(0, 1e-4, (2000, 6)) \
        * gen.choice([1e-2, 1.0, 1e2], (2000, 1))
    spread = np.stack([np.stack([np.full(2000, 6.0), pts.sum(1)], axis=-1),
                       np.stack([pts.sum(1), (pts * pts).sum(1)], axis=-1)], axis=-2)
    odd = np.array([[[0.0, 1.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, -2.0]],
                    [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    return np.concatenate([sweep, rank1, spread, odd])


class TestDeterminantGate:
    def test_decides_as_eigvalsh(self):
        Q = adversarial_stack()
        want = eigvalsh_gate(Q)
        assert np.array_equal(locpoly._nondegenerate(Q), want)
        # The stack spans both outcomes, and some rank-1 Q has a determinant
        # that rounds negative although the matrix is positive semidefinite.
        assert want.any() and not want.all()
        a, b, c = Q[:, 0, 0], Q[:, 0, 1], Q[:, 1, 1]
        assert np.any(a[4001:6001] * c[4001:6001] - b[4001:6001] ** 2 < 0)

    def test_eigvalsh_sees_only_the_undecided_band(self):
        Q = adversarial_stack()
        want = eigvalsh_gate(Q)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(A):
            seen.append(A.copy())
            return eigvalsh(A)

        with mock.patch.object(locpoly.np.linalg, "eigvalsh", spy):
            got = locpoly._nondegenerate(Q)
        assert np.array_equal(got, want)
        assert len(seen) == 1
        sent = seen[0]
        # What the bracket D/t <= lambda_min <= 2 D/t cannot decide.
        a, b, c = Q[:, 0, 0], Q[:, 1, 0], Q[:, 1, 1]
        t = a + c
        scale = np.max(np.abs(Q), axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (a * c - b * b) / t
        tol = SINGULARITY_TOL * scale
        band = (scale > 0) & (~(t > 0) | ((bound <= 2 * tol) & (2 * bound >= tol / 2)))
        assert np.array_equal(sent, Q[band])
        # The sweep puts matrices in the band, but they are a small share.
        assert 0 < len(sent) < 0.1 * len(Q)

    def test_other_sizes_keep_their_gate(self):
        gen = np.random.Generator(np.random.Philox(key=91))
        ones = np.abs(gen.normal(size=(50, 1, 1)))
        ones[::7] = 0.0
        with mock.patch.object(locpoly.np.linalg, "eigvalsh") as spy:
            assert np.array_equal(locpoly._nondegenerate(ones), ones[:, 0, 0] > 0)
        spy.assert_not_called()
        B = gen.normal(size=(200, 3, 2))
        threes = B @ B.transpose(0, 2, 1)       # rank 2: degenerate
        threes[::2] += np.eye(3)
        assert np.array_equal(locpoly._nondegenerate(threes), eigvalsh_gate(threes))
