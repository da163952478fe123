"""Population L2 projection of a payoff function onto polynomials.

For a hypercube U, bandwidth h and degree p, the projection of f at a point
x in U is g(x) where g minimizes

    integral_U |f(v) - g(v)|^2 K((x - v)/h) dv

over polynomials of degree at most p, with the box kernel K and uniform
covariates on U.  The closed form is xi = B^{-1} W in the rescaled monomial
basis u = (v - x)/h, with the integrals over x + h u in U

    B[s1, s2] = integral u^(s1+s2) K(u) du
    W[s]      = integral u^s f(x + h u) K(u) du

Both integrals are evaluated by a tensor-product midpoint rule over U; the
node count per axis is part of the call signature so results are exactly
reproducible from the configuration.  The nodes carry equal weights, which
cancel from xi, so the rule's xi is the local polynomial fit
(`locpoly.fit_local_polynomial`) of the f values at the nodes, in u, at
u = 0 with bandwidth 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, InsufficientGridError
from .locpoly import enumerate_multi_indices, fit_local_polynomial

DEFAULT_NODES_PER_AXIS = 256


@dataclass(frozen=True)
class Box:
    """Axis-aligned hypercube [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: tuple
    hi: tuple

    @staticmethod
    def make(lo, hi) -> "Box":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi) or any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"degenerate box lo={lo} hi={hi}")
        return Box(lo, hi)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def side(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def midpoint_nodes(self, n_per_axis: int):
        """Tensor midpoint nodes, shape (n_per_axis^d, d)."""
        axes = [
            lo + (hi - lo) * (np.arange(n_per_axis) + 0.5) / n_per_axis
            for lo, hi in zip(self.lo, self.hi)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def eval_points(f, nodes: np.ndarray) -> np.ndarray:
    """f at (n, d) nodes as an (n,) array; f must be vectorized.

    A d = 1 function is given its n points as a 1-D array.
    """
    arg = nodes[:, 0] if nodes.shape[1] == 1 else nodes
    vals = np.asarray(f(arg), dtype=float)
    if vals.shape != (len(nodes),):
        raise ValueError(f"f must return one value per point, got {vals.shape}")
    return vals


def project_to_polynomial(f, bin_box: Box, degree: int, bandwidth: float,
                          nodes_per_axis: int = DEFAULT_NODES_PER_AXIS):
    """Pointwise evaluator for the degree-p projection of f over a hypercube.

    Parameters
    ----------
    f : vectorized payoff function on the bin (see `eval_points`)
    bin_box : the hypercube U
    degree : maximum polynomial degree p >= 0
    bandwidth : kernel half-width h > 0
    nodes_per_axis : midpoint-rule resolution, recorded on the returned
        callable as ``quadrature_nodes``

    Returns
    -------
    A function g with g(x) = projection value at x, valid for x in the bin.
    Raises IllConditionedError at call time if B degenerates.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    nodes = bin_box.midpoint_nodes(nodes_per_axis)
    fv = eval_points(f, nodes)

    def g(x):
        u = (nodes - np.atleast_1d(np.asarray(x, dtype=float))) / bandwidth
        fit = fit_local_polynomial((u, fv), np.zeros(bin_box.d), 1.0, degree)
        if fit.degenerate:
            raise IllConditionedError(
                f"projection normal matrix around {x} is singular; "
                "bandwidth/bin pairing is mis-sized")
        return fit.value

    g.quadrature_nodes = nodes_per_axis
    return g


def brute_force_projection(f, bin_box: Box, degree: int, bandwidth: float,
                           grid_n: int = 10_000):
    """Independent oracle: discrete least squares on a grid_n-point grid.

    Minimizes the same weighted integral as `project_to_polynomial` but as a
    plain least-squares problem over grid samples, with no shared code path
    (numpy lstsq on the raw design).  Used to cross-check the quadrature
    route in tests.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    d = bin_box.d
    n_axis = max(2, int(round(grid_n ** (1.0 / d))))
    powers = enumerate_multi_indices(d, degree)
    nodes = bin_box.midpoint_nodes(n_axis)
    fv = eval_points(f, nodes)

    def g(x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        u = (nodes - x_arr) / bandwidth
        inside = np.max(np.abs(u), axis=1) <= 1.0
        uu = u[inside]
        if len(uu) < len(powers):
            raise InsufficientGridError(
                f"only {len(uu)} grid points in window, need >= {len(powers)}"
            )
        design = np.empty((len(uu), len(powers)))
        for j, s in enumerate(powers):
            design[:, j] = np.prod(uu ** np.asarray(s, dtype=float), axis=1)
        coef, _, rank, _ = np.linalg.lstsq(design, fv[inside], rcond=None)
        if rank < len(powers):
            raise InsufficientGridError(
                f"grid design rank {rank} < basis size {len(powers)}"
            )
        # powers is lexicographically sorted, so coef[0] is the constant
        # term, which equals the projection value at x.
        return float(coef[0])

    return g
