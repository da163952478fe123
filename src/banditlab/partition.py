"""q-adic hypercube partitions of [0,1]^d and SACB level arithmetic.

The policy-facing partition snaps the bin count to an integer,
``per_axis = max(1, round(q^l))``, so non-integer bases like q = 1.1 still
tile the cube exactly while keeping the intended side length close to
q^{-l}.  The verifier-facing `qadic_boxes` keeps the exact q^{-l} side
(clipping the last cell at 1) for projection-bias checks whose closed forms
assume exact q-adic intervals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooSmallError, InvalidBaseError, OutOfDomainError
from .projection import Box

BinId = tuple


@dataclass(frozen=True)
class Partition:
    """A partition of [0,1]^d with per_axis cells per axis."""

    d: int
    per_axis: int

    @property
    def n_bins(self) -> int:
        return self.per_axis ** self.d

    def bin_ids(self):
        return itertools.product(range(self.per_axis), repeat=self.d)

    def box(self, bin_id: BinId) -> Box:
        lo = tuple(c / self.per_axis for c in bin_id)
        hi = tuple((c + 1) / self.per_axis for c in bin_id)
        return Box(lo, hi)


def cells_per_axis(q: float, l: float) -> int:
    """Cells per axis of a level-l base-q grid: q^l snapped to an integer >= 1."""
    return max(1, round(q ** l))


def cell_coords(X, n: int) -> np.ndarray:
    """Grid coordinates of points on an n-per-axis grid of [0,1]^d.

    Cell i of an axis is [i/n, (i+1)/n); x = 1 falls in the last cell.
    """
    return np.minimum(n - 1, np.floor(np.asarray(X) * n).astype(np.int64))


def build_partition(d: int, q: float, l: float) -> Partition:
    """Partition of [0,1]^d into cells_per_axis(q, l)^d congruent hypercubes."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if q <= 1:
        raise InvalidBaseError(f"base q must exceed 1, got {q}")
    if l < 0:
        raise ValueError(f"level must be >= 0, got {l}")
    return Partition(d=d, per_axis=cells_per_axis(q, l))


def locate_bin(partition: Partition, x) -> BinId:
    """Bin containing x; right-edge coordinates map to the last bin."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if x_arr.shape != (partition.d,):
        raise OutOfDomainError(f"point shape {x_arr.shape} != (d={partition.d},)")
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise OutOfDomainError(f"point {x_arr} outside [0,1]^d")
    return tuple(cell_coords(x_arr, partition.per_axis).tolist())


def qadic_boxes(d: int, q: float, l: int) -> list:
    """Exact q-adic cells of side q^{-l}; the last cell per axis clips at 1."""
    if q <= 1:
        raise InvalidBaseError(f"base q must exceed 1, got {q}")
    side = q ** (-l)
    n = max(1, math.ceil(round(q ** l, 12)))
    edges = [min(i * side, 1.0) for i in range(n + 1)]
    edges[-1] = 1.0
    intervals = [(edges[i], edges[i + 1]) for i in range(n) if edges[i + 1] > edges[i]]
    boxes = []
    for combo in itertools.product(intervals, repeat=d):
        boxes.append(Box(tuple(c[0] for c in combo), tuple(c[1] for c in combo)))
    return boxes


@dataclass(frozen=True)
class SacbLevels:
    """Partition level and round/bandwidth exponents used by SACB.

    l       partition level (bins have side ~ q^{-l})
    r_bar   last sampling round per bin
    j1, j2  coarse/fine bandwidth exponents (bandwidths q^{-j1}, q^{-j2})
    l_tilde mesh resolution exponent (mesh spacing ~ q^{-l_tilde})
    """

    l: int
    r_bar: int
    j1: int
    j2: int
    l_tilde: int


def log_base(q: float, x: float) -> float:
    """log_q(x) with the inner logarithm natural throughout the package."""
    return math.log(x) / math.log(q)


def sacb_levels(T: int, d: int, q: float, beta_lo: float, beta_hi: float,
                upsilon: float) -> SacbLevels:
    """Level arithmetic for the adaptive policy.

    l       = ceil((beta_lo + d - 1) log_q T / (2 beta_hi + d)^2)
    r_bar   = ceil(2 l beta_hi + upsilon log_q ln T)
    j1      = l
    j2      = l + ceil(log_q(ln T) / beta_lo)
    l_tilde = max(ceil(beta_hi l / beta_lo + log_q(ln T) / beta_lo),
                  ceil((1 + beta_hi) l + log_q(ln T)))

    All inner logarithms are natural; base changes fold into the tunables.
    """
    if q <= 1:
        raise InvalidBaseError(f"base q must exceed 1, got {q}")
    if not (0 < beta_lo <= beta_hi):
        raise ValueError(f"need 0 < beta_lo <= beta_hi, got [{beta_lo}, {beta_hi}]")
    if upsilon < 0:
        raise ValueError(f"upsilon must be >= 0, got {upsilon}")
    if T < 3 or math.log(T) <= 1.0:
        raise HorizonTooSmallError(f"log_q log T <= 0 for T={T}")
    loglogT = log_base(q, math.log(T))
    l = math.ceil((beta_lo + d - 1) * log_base(q, T) / (2 * beta_hi + d) ** 2)
    l = max(1, l)
    r_bar = math.ceil(2 * l * beta_hi + upsilon * loglogT)
    j1 = l
    j2 = l + math.ceil(loglogT / beta_lo)
    l_tilde = max(
        math.ceil(beta_hi * l / beta_lo + loglogT / beta_lo),
        math.ceil((1 + beta_hi) * l + loglogT),
    )
    return SacbLevels(l=l, r_bar=r_bar, j1=j1, j2=j2, l_tilde=l_tilde)


def mesh_points(bin_id: BinId, partition: Partition, q: float, l_tilde: int) -> np.ndarray:
    """Mesh points (m_1/g, ..., m_d/g), m_i >= 1, inside the closed bin.

    g = cells_per_axis(q, l_tilde).  Returns shape (n_points, d); when the
    grid is coarser than the bin the bin center is emitted so the mesh is
    never empty.
    """
    g = cells_per_axis(q, l_tilde)
    box = partition.box(bin_id)
    per_axis_values = []
    eps = 1e-9
    for lo, hi in zip(box.lo, box.hi):
        m_lo = max(1, math.ceil(lo * g - eps))
        m_hi = math.floor(hi * g + eps)
        per_axis_values.append([m / g for m in range(m_lo, m_hi + 1)])
    if any(len(v) == 0 for v in per_axis_values):
        return box.center[None, :]
    pts = np.array(list(itertools.product(*per_axis_values)), dtype=float)
    return pts
