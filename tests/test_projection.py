import numpy as np
import pytest

from banditlab.errors import IllConditionedError, InsufficientGridError
from banditlab.projection import Box, brute_force_projection, project_to_polynomial


class TestBox:
    def test_center_and_side(self):
        b = Box.make([0.0, 0.5], [0.5, 1.0])
        assert np.allclose(b.center, [0.25, 0.75])
        assert np.allclose(b.side, [0.5, 0.5])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Box.make([0.0], [0.0])


class TestProjection:
    def test_constants_are_fixed_points(self):
        box = Box.make([0.2], [0.7])
        for degree in (0, 1, 2):
            proj = project_to_polynomial(lambda x: np.full_like(x, 3.25),
                                         box, degree, 0.4)
            for x in (0.2, 0.45, 0.7):
                assert proj(x) == pytest.approx(3.25, abs=1e-9)

    def test_linear_function_reproduced_at_degree_one(self):
        box = Box.make([0.0], [1.0])
        proj = project_to_polynomial(lambda x: x, box, 1, 1.0)
        for x in (0.0, 0.3, 0.9):
            assert proj(x) == pytest.approx(x, abs=1e-6)

    @pytest.mark.parametrize("q", [1.1, 2.0])
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_power_function_bias_closed_form(self, q, level):
        # degree-0 projection of x^beta on [0, q^-l] misses f(0) by
        # q^(-l beta) / (beta + 1) exactly
        beta = 0.6
        h = q ** (-level)
        box = Box.make([0.0], [h])
        proj = project_to_polynomial(lambda x: x ** beta, box, 0, h,
                                     nodes_per_axis=4096)
        want = h ** beta / (beta + 1.0)
        assert abs(proj(0.0) - want) <= 1e-6

    def test_scalar_valued_function_rejected(self):
        # f gets all quadrature nodes at once and must give one value each.
        box = Box.make([0.0], [1.0])
        with pytest.raises(ValueError, match="one value per point"):
            project_to_polynomial(lambda x: 0.5, box, 0, 1.0)

    def test_ill_conditioned_signalled(self):
        box = Box.make([0.0], [1.0])
        proj = project_to_polynomial(lambda x: x, box, 1, 1e-9)
        with pytest.raises(IllConditionedError):
            proj(0.5)

    def test_quadrature_resolution_recorded(self):
        box = Box.make([0.0], [1.0])
        proj = project_to_polynomial(lambda x: x, box, 0, 1.0, nodes_per_axis=128)
        assert proj.quadrature_nodes == 128


class TestBruteForce:
    def test_constant_recovered(self):
        box = Box.make([0.0], [1.0])
        bf = brute_force_projection(lambda x: np.ones_like(x), box, 0, 1.0)
        assert bf(0.5) == pytest.approx(1.0, abs=1e-9)

    def test_linear_exact(self):
        box = Box.make([0.0], [1.0])
        bf = brute_force_projection(lambda x: 2.0 - x, box, 1, 1.0, grid_n=2000)
        assert bf(0.25) == pytest.approx(1.75, abs=1e-6)

    def test_sqrt_agrees_with_quadrature(self):
        box = Box.make([0.0], [1.0])
        bf = brute_force_projection(lambda x: x ** 0.5, box, 0, 1.0, grid_n=10_000)
        pj = project_to_polynomial(lambda x: x ** 0.5, box, 0, 1.0,
                                   nodes_per_axis=4096)
        assert abs(bf(0.3) - pj(0.3)) <= 1e-4

    def test_insufficient_grid_signalled(self):
        box = Box.make([0.0], [1.0])
        bf = brute_force_projection(lambda x: x, box, 2, 0.01, grid_n=50)
        with pytest.raises(InsufficientGridError):
            bf(0.5)

    def test_randomized_agreement_with_quadrature(self):
        gen = np.random.Generator(np.random.Philox(key=11))
        for _ in range(40):
            d = int(gen.integers(1, 3))
            p = int(gen.integers(0, 3 - d + 1))
            lo = gen.random(d) * 0.3
            side = 0.2 + 0.5 * gen.random()
            box = Box.make(lo, lo + side)
            h = side * (0.6 + 0.8 * gen.random())
            w = gen.normal(size=3)

            if d == 1:
                def f(x, w=w):
                    return w[0] + w[1] * x + w[2] * np.sqrt(np.abs(x))
            else:
                def f(x, w=w):
                    x = np.atleast_2d(x)
                    return w[0] + w[1] * x[:, 0] + w[2] * np.sqrt(x[:, 1] + 0.01)

            nodes = 1024 if d == 1 else 128
            pj = project_to_polynomial(f, box, p, h, nodes_per_axis=nodes)
            bf = brute_force_projection(f, box, p, h,
                                        grid_n=20_000 if d == 1 else 40_000)
            x = box.center if d > 1 else float(box.center[0])
            assert abs(pj(x) - bf(x)) <= 1e-4


UNIT = Box.make([0.0], [1.0])


# The last case's window holds one row of a 10 x 10 grid of [0, 1] x [0, 10]:
# six points, enough in number for degree 1 in d = 2 but of rank 2.
@pytest.mark.parametrize("call,error,match", [
    (lambda: project_to_polynomial(lambda x: x, UNIT, 0, 0.0), ValueError,
     "bandwidth must be positive"),
    (lambda: brute_force_projection(lambda x: x, UNIT, 0, -1.0), ValueError,
     "bandwidth must be positive"),
    (lambda: brute_force_projection(lambda v: v[:, 0], Box.make([0, 0], [1, 10]),
                                    1, 0.3, grid_n=100)((0.5, 5.5)),
     InsufficientGridError, "grid design rank 2 < basis size 3"),
], ids=["projection-bandwidth", "brute-force-bandwidth", "brute-force-rank"])
def test_rejects_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()
