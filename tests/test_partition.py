import math

import numpy as np
import pytest

from banditlab.errors import HorizonTooSmallError, InvalidBaseError, OutOfDomainError
from banditlab.partition import (
    build_partition,
    locate_bin,
    mesh_points,
    qadic_boxes,
    sacb_levels,
)


class TestBuild:
    def test_dyadic_levels(self):
        assert build_partition(1, 2.0, 3).per_axis == 8

    def test_unit_square(self):
        p = build_partition(2, 2.0, 1)
        assert p.per_axis == 2
        assert p.n_bins == 4

    def test_non_integer_base_rounding(self):
        # 1.1^29 = 15.863..., rounds to 16 bins per axis
        assert build_partition(1, 1.1, 29).per_axis == 16

    def test_invalid_base(self):
        with pytest.raises(InvalidBaseError):
            build_partition(1, 0.9, 3)

    def test_boxes_tile_unit_volume(self):
        p = build_partition(2, 1.7, 3)
        vol = sum(float(np.prod(p.box(b).side)) for b in p.bin_ids())
        assert vol == pytest.approx(1.0, abs=1e-12)


class TestLocate:
    def test_left_edge(self):
        p = build_partition(1, 2.0, 3)
        assert locate_bin(p, [0.0]) == (0,)

    def test_right_edge_goes_to_last_bin(self):
        p = build_partition(1, 2.0, 3)
        assert locate_bin(p, [1.0]) == (7,)

    def test_interior(self):
        p = build_partition(1, 2.0, 3)
        assert locate_bin(p, [0.375]) == (3,)

    def test_out_of_domain(self):
        p = build_partition(1, 2.0, 3)
        with pytest.raises(OutOfDomainError):
            locate_bin(p, [1.5])

    def test_point_inside_its_box(self):
        gen = np.random.Generator(np.random.Philox(key=3))
        p = build_partition(2, 1.3, 5)
        for _ in range(200):
            x = gen.random(2)
            assert p.box(locate_bin(p, x)).contains(x)


class TestSacbLevels:
    def test_experiment_scale_level(self):
        lv = sacb_levels(2_000_000, 1, 1.1, 0.4, 1.0, 0.325)
        assert lv.l == 7

    def test_experiment_scale_rounds(self):
        lv = sacb_levels(2_000_000, 1, 1.1, 0.4, 1.0, 0.325)
        assert lv.r_bar == 24

    def test_experiment_scale_bandwidth_gap(self):
        lv = sacb_levels(2_000_000, 1, 1.1, 0.4, 1.0, 0.325)
        assert lv.j1 == lv.l == 7
        assert lv.j2 - lv.j1 == 71

    def test_l_tilde_dominates_j2(self):
        for T in (10_000, 2_000_000):
            lv = sacb_levels(T, 1, 1.1, 0.4, 1.0, 0.325)
            assert lv.l_tilde >= lv.j2

    def test_monotone_in_horizon(self):
        ls, gaps = [], []
        for T in (10_000, 100_000, 1_000_000, 10_000_000):
            lv = sacb_levels(T, 1, 1.2, 0.5, 1.0, 1.0)
            ls.append(lv.l)
            gaps.append(lv.j2 - lv.j1)
        assert ls == sorted(ls)
        assert gaps == sorted(gaps)

    def test_monotone_in_dimension(self):
        ls = [sacb_levels(100_000, d, 1.5, 0.5, 1.0, 1.0).l for d in (1, 2, 3)]
        assert ls == sorted(ls)

    def test_horizon_too_small(self):
        with pytest.raises(HorizonTooSmallError):
            sacb_levels(2, 1, 1.1, 0.4, 1.0, 0.325)

    def test_formula_against_direct_evaluation(self):
        T, q, blo, bhi, ups = 500_000, 1.3, 0.45, 0.9, 1.7
        lv = sacb_levels(T, 1, q, blo, bhi, ups)
        logq = lambda v: math.log(v) / math.log(q)
        assert lv.l == math.ceil(blo * logq(T) / (2 * bhi + 1) ** 2)
        assert lv.r_bar == math.ceil(2 * lv.l * bhi + ups * logq(math.log(T)))
        assert lv.j2 == lv.l + math.ceil(logq(math.log(T)) / blo)


@pytest.mark.parametrize("call,error,match", [
    (lambda: build_partition(0, 2.0, 1), ValueError, "dimension must be >= 1"),
    (lambda: build_partition(1, 2.0, -1), ValueError, "level must be >= 0"),
    (lambda: locate_bin(build_partition(2, 2.0, 1), [0.5]), OutOfDomainError,
     r"point shape \(1,\) != \(d=2,\)"),
    (lambda: qadic_boxes(1, 1.0, 2), InvalidBaseError, "base q must exceed 1"),
    (lambda: sacb_levels(100_000, 1, 1.0, 0.4, 1.0, 0.3), InvalidBaseError,
     "base q must exceed 1"),
    (lambda: sacb_levels(100_000, 1, 1.1, 0.6, 0.5, 0.3), ValueError,
     "need 0 < beta_lo <= beta_hi"),
    (lambda: sacb_levels(100_000, 1, 1.1, 0.4, 1.0, -0.1), ValueError,
     "upsilon must be >= 0"),
], ids=["build-d", "build-level", "locate-shape", "qadic-base", "levels-base",
        "levels-beta-range", "levels-upsilon"])
def test_rejects_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestMesh:
    def test_left_half_bin(self):
        p = build_partition(1, 2.0, 1)
        pts = mesh_points((0,), p, 2.0, 2)  # spacing 1/4 on [0, 0.5]
        assert np.allclose(pts[:, 0], [0.25, 0.5])

    def test_right_half_bin(self):
        p = build_partition(1, 2.0, 1)
        pts = mesh_points((1,), p, 2.0, 2)
        assert np.allclose(pts[:, 0], [0.5, 0.75, 1.0])

    def test_fallback_to_center(self):
        p = build_partition(1, 2.0, 3)  # bins of width 1/8
        pts = mesh_points((2,), p, 2.0, 1)  # spacing 1/2, too coarse
        assert np.allclose(pts, [[0.3125]])

    def test_points_inside_closed_bin_and_uniform(self):
        p = build_partition(1, 1.1, 7)
        for b in p.bin_ids():
            pts = mesh_points(b, p, 1.1, 20)
            box = p.box(b)
            assert all(box.contains(x) for x in pts)
            if len(pts) > 2:
                gaps = np.diff(pts[:, 0])
                assert np.allclose(gaps, gaps[0])

    def test_counts_balanced_across_bins(self):
        p = build_partition(1, 1.3, 5)
        counts = [len(mesh_points(b, p, 1.3, 12)) for b in p.bin_ids()]
        assert max(counts) - min(counts) <= 1


class TestQadicBoxes:
    def test_exact_sides_with_clip(self):
        boxes = qadic_boxes(1, 1.5, 2)
        sides = [b.side[0] for b in boxes]
        assert sides[0] == pytest.approx(1.5 ** -2)
        assert sum(sides) == pytest.approx(1.0)

    def test_integer_base_exact(self):
        boxes = qadic_boxes(1, 2.0, 3)
        assert len(boxes) == 8
        assert all(b.side[0] == pytest.approx(0.125) for b in boxes)
