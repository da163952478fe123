"""Multi-index arithmetic and local polynomial regression.

The estimator fits, around a center x and bandwidth h, the polynomial
sum_{|s| <= p} xi_s u^s minimizing sum_i (Y_i - theta(X_i - x))^2 K((X_i-x)/h)
with the box kernel K(u) = 1{||u||_inf <= 1}.  The normal equations are
Q xi = V with

    Q[s1, s2] = sum_i (X_i - x)^(s1+s2) K((X_i - x)/h)
    V[s]      = sum_i Y_i (X_i - x)^s  K((X_i - x)/h)

If Q is not numerically positive definite the fit is flagged degenerate and
evaluates to 0 everywhere; callers never see an exception from a bad window.

`fit_local_polynomial` fits one center by direct sums.  `window_fits`
evaluates the same estimator at many centers at once from window moments
and one stacked solve; SACB's smoothness test uses it, and the tests check
it against `fit_local_polynomial`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np

# Smallest eigenvalue below RIDGE_TOL times the largest |entry| means a
# non-unique minimizer; scale-free so huge or tiny bandwidths behave alike.
SINGULARITY_TOL = 1e-10


class Sample(NamedTuple):
    """One (covariate, reward) observation with x in [0,1]^d."""

    x: tuple
    y: float


def floor_strict(beta: float) -> int:
    """Largest integer strictly less than beta (so floor_strict(1.0) == 0)."""
    f = int(np.floor(beta))
    return f - 1 if f == beta else f


def enumerate_multi_indices(d: int, p: int) -> list[tuple[int, ...]]:
    """All s in N^d with |s| <= p, lexicographically sorted.

    The count is C(p+d, d); callers size their coefficient vectors off the
    position of each index in this list.
    """
    if d < 1 or p < 0:
        raise ValueError(f"need d >= 1 and p >= 0, got d={d}, p={p}")
    out = [s for s in itertools.product(range(p + 1), repeat=d) if sum(s) <= p]
    out.sort()
    assert len(out) == comb(p + d, d)
    return out


def _as_xy_arrays(data, d_hint=None):
    """Accept a list of Sample/(x, y) pairs or an (X, y) array pair."""
    if isinstance(data, tuple) and len(data) == 2 and hasattr(data[0], "ndim"):
        X = np.asarray(data[0], dtype=float)
        y = np.asarray(data[1], dtype=float)
    else:
        xs, ys = [], []
        for rec in data:
            x, yv = rec
            xs.append(np.atleast_1d(np.asarray(x, dtype=float)))
            ys.append(float(yv))
        if not xs:
            d = d_hint or 1
            return np.empty((0, d)), np.empty(0)
        X = np.stack(xs)
        y = np.asarray(ys)
    if X.ndim == 1:
        X = X[:, None]
    return X, y


@dataclass(frozen=True)
class PolynomialEstimate:
    """A fitted local polynomial: coefficients xi_s around a center.

    When ``degenerate`` is set the estimate is identically zero, matching
    the convention that a non-unique least-squares minimizer yields the
    zero estimator.
    """

    coefficients: dict
    center: tuple
    bandwidth: float
    degree: int
    degenerate: bool

    @property
    def value(self) -> float:
        """Estimate at the center, xi_(0,...,0)."""
        if self.degenerate:
            return 0.0
        d = len(self.center)
        return self.coefficients[(0,) * d]

    def __call__(self, x) -> float:
        if self.degenerate:
            return 0.0
        u = np.atleast_1d(np.asarray(x, dtype=float)) - np.asarray(self.center)
        total = 0.0
        for s, coef in self.coefficients.items():
            total += coef * float(np.prod(u ** np.asarray(s)))
        return total


def fit_local_polynomial(data, center, bandwidth: float, degree: int) -> PolynomialEstimate:
    """Box-kernel local polynomial fit of the given degree.

    Parameters
    ----------
    data : sequence of (x, y) pairs, or an (X, y) array pair
    center : point the polynomial is centered on
    bandwidth : kernel half-width h > 0 (sup-norm window)
    degree : polynomial degree p >= 0

    Returns
    -------
    PolynomialEstimate, possibly with degenerate=True when the in-window
    design does not pin down a unique minimizer.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))
    d = center_arr.shape[0]
    X, y = _as_xy_arrays(data, d_hint=d)
    indices = enumerate_multi_indices(d, degree)
    m = len(indices)

    dx = X - center_arr
    inside = np.max(np.abs(dx), axis=1) <= bandwidth if len(X) else np.zeros(0, bool)
    dxw = dx[inside]
    yw = y[inside]

    def _degenerate():
        return PolynomialEstimate(
            coefficients={},
            center=tuple(center_arr),
            bandwidth=float(bandwidth),
            degree=degree,
            degenerate=True,
        )

    if len(yw) == 0:
        return _degenerate()

    # Monomials (X_i - x)^s for every index, shape (n_window, m).
    mono = np.empty((len(yw), m))
    for j, s in enumerate(indices):
        mono[:, j] = np.prod(dxw ** np.asarray(s, dtype=float), axis=1)

    Q = mono.T @ mono
    V = mono.T @ yw

    scale = np.max(np.abs(Q))
    if scale == 0.0:
        return _degenerate()
    eigmin = np.linalg.eigvalsh(Q)[0]
    if eigmin <= SINGULARITY_TOL * scale:
        return _degenerate()

    # SPD solve via Cholesky; the eigenvalue gate above makes this safe and
    # keeps the zero-fallback semantics exact (no pseudo-inverse rescue).
    L = np.linalg.cholesky(Q)
    xi = np.linalg.solve(L.T, np.linalg.solve(L, V))

    coefs = {s: float(xi[j]) for j, s in enumerate(indices)}
    return PolynomialEstimate(
        coefficients=coefs,
        center=tuple(center_arr),
        bandwidth=float(bandwidth),
        degree=degree,
        degenerate=False,
    )


# Budget of (center, candidate point) pairs gathered at once by the d >= 2
# moments, so their memory does not grow with n_centers * n.
_PAIR_BLOCK = 1 << 16


def _boundary(xs: np.ndarray, c: np.ndarray, guess: np.ndarray, before) -> np.ndarray:
    """Per center, the number of leading sorted xs with before(xs - c).

    before must be monotone along the sorted xs.  Starting from a
    searchsorted guess, the index moves until it agrees with the rounded
    differences xs - c that fit_local_polynomial tests, so both select the
    same points even where c +- h rounds differently.
    """
    n = len(xs)
    idx = guess.copy()
    while True:
        up = (idx < n) & before(xs.take(idx, mode="clip") - c)
        if not up.any():
            break
        idx += up
    while True:
        down = (idx > 0) & ~before(xs.take(idx - 1, mode="clip") - c)
        if not down.any():
            break
        idx -= down
    return idx


def _moments_1d(xs, ys, c, lo, hi, p2, p):
    """Window sums of (X - c)^t, t <= p2, and Y (X - c)^s, s <= p.

    Prefix sums of powers of X - a, with a the middle of the data, are
    differenced over each window and recentered to c binomially:
    sum (X - c)^t = sum_k C(t, k) (a - c)^(t - k) sum (X - a)^k.
    """
    a = 0.5 * (xs[0] + xs[-1])
    u = xs - a
    pw = u[None, :] ** np.arange(p2 + 1)[:, None]
    pref = np.zeros((p2 + 1, len(xs) + 1))
    np.cumsum(pw, axis=1, out=pref[:, 1:])
    pref_y = np.zeros((p + 1, len(xs) + 1))
    np.cumsum(ys * pw[:p + 1], axis=1, out=pref_y[:, 1:])
    win = pref[:, hi] - pref[:, lo]
    win_y = pref_y[:, hi] - pref_y[:, lo]
    delta = a - c

    def recenter(w, top):
        out = np.empty((len(c), top + 1))
        for t in range(top + 1):
            out[:, t] = w[t]
            for k in range(t):
                out[:, t] += comb(t, k) * delta ** (t - k) * w[k]
        return out

    return recenter(win, p2), recenter(win_y, p)


def _moments_nd(Xs, ys, centers, h, lo, hi, m_idx, v_idx):
    """Window sums of (X - c)^t and Y (X - c)^s by exact gathered sums.

    Candidates come from the axis-0 window [lo, hi); the other axes are
    masked with the same |X_j - c_j| <= h test as fit_local_polynomial,
    h holding one bandwidth per center.
    Centers are processed in blocks of at most _PAIR_BLOCK candidates.
    """
    n_c, d = centers.shape
    top = max(max(t) for t in m_idx)
    cols = [np.ascontiguousarray(Xs[:, j]) for j in range(d)]
    M = np.zeros((n_c, len(m_idx)))
    N = np.zeros((n_c, len(v_idx)))
    cnt = hi - lo
    ends = np.cumsum(cnt)
    b0 = 0
    while b0 < n_c:
        base = ends[b0 - 1] if b0 else 0
        b1 = max(b0 + 1, int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")))
        c_blk, cen, h_blk = cnt[b0:b1], centers[b0:b1], h[b0:b1]
        owner = np.repeat(np.arange(b1 - b0), c_blk)
        first = lo[b0:b1] - (np.cumsum(c_blk) - c_blk)
        pt = np.arange(len(owner)) + np.repeat(first, c_blk)
        diffs = []
        for j in range(1, d):
            u = cols[j][pt] - cen[owner, j]
            keep = np.abs(u) <= h_blk[owner]
            owner, pt = owner[keep], pt[keep]
            diffs = [v[keep] for v in diffs] + [u[keep]]
        diffs.insert(0, cols[0][pt] - cen[owner, 0])
        pw = []
        for u in diffs:
            powers = [None, u]
            for _ in range(2, top + 1):
                powers.append(powers[-1] * u)
            pw.append(powers)
        yk = ys[pt]
        for out, idx, weight in ((M, m_idx, None), (N, v_idx, yk)):
            for col, s in enumerate(idx):
                w = weight
                for axis, e in enumerate(s):
                    if e:
                        w = pw[axis][e] if w is None else w * pw[axis][e]
                out[b0:b1, col] = np.bincount(owner, weights=w, minlength=b1 - b0)
        b0 = b1
    return M, N


def _gated_center_values(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """xi_0 of each stacked system Q xi = V, 0 where the window is degenerate.

    The gate is fit_local_polynomial's: degenerate when scale = max |Q| is 0
    or the smallest eigenvalue is at most SINGULARITY_TOL * scale.  The
    systems that pass are solved by Cholesky and forward and back
    substitution, each step vectorized over the stack (m is small).
    """
    out = np.zeros(len(V))
    m = V.shape[1]
    scale = np.max(np.abs(Q), axis=(1, 2))
    ok = scale > 0.0
    if m > 1:  # a 1 x 1 Q is its own eigenvalue: scale > 0 already passes it
        ok[ok] = np.linalg.eigvalsh(Q[ok])[:, 0] > SINGULARITY_TOL * scale[ok]
    A, b = Q[ok], V[ok]
    L = np.zeros_like(A)
    for j in range(m):
        L[:, j, j] = np.sqrt(A[:, j, j] - np.sum(L[:, j, :j] ** 2, axis=1))
        for i in range(j + 1, m):
            L[:, i, j] = (A[:, i, j] - np.sum(L[:, i, :j] * L[:, j, :j], axis=1)) \
                / L[:, j, j]
    z = np.empty_like(b)
    for i in range(m):
        z[:, i] = (b[:, i] - np.sum(L[:, i, :i] * z[:, :i], axis=1)) / L[:, i, i]
    xi = np.empty_like(b)
    for i in reversed(range(m)):
        xi[:, i] = (z[:, i] - np.sum(L[:, i + 1:, i] * xi[:, i + 1:], axis=1)) \
            / L[:, i, i]
    out[ok] = xi[:, 0]
    return out


@functools.lru_cache(maxsize=None)
def _normal_equation_layout(d: int, degree: int):
    """Multi-indices of V and of the moments, and Q's entries as moment columns."""
    v_idx = tuple(enumerate_multi_indices(d, degree))
    m_idx = tuple(enumerate_multi_indices(d, 2 * degree))
    pos = {t: j for j, t in enumerate(m_idx)}
    q_cols = tuple(tuple(pos[tuple(a + b for a, b in zip(s1, s2))] for s2 in v_idx)
                   for s1 in v_idx)
    return v_idx, m_idx, q_cols


def window_fits(X, y, centers, h, degree: int) -> np.ndarray:
    """Box-kernel local polynomial fits at many centers at once.

    Equal to ``[fit_local_polynomial((X, y), c, h, degree).value for c in
    centers]`` up to rounding: the same window, gate and zero value for a
    degenerate window, with one stacked eigenvalue gate and Cholesky solve
    for all centers.  X is (n, d) or (n,) for d = 1; centers is
    (n_centers, d) or (n_centers,) for d = 1; h is one bandwidth or one per
    center.  Returns shape (n_centers,).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    X = np.asarray(X, dtype=float)
    centers = np.asarray(centers, dtype=float)
    X = X[:, None] if X.ndim == 1 else X
    centers = centers[:, None] if centers.ndim == 1 else centers
    n_c, d = centers.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), (n_c,))
    if np.any(h <= 0):
        raise ValueError(f"bandwidth must be positive, got {h.min()}")
    if X.shape[1] != d:
        raise ValueError(f"covariates have d={X.shape[1]}, centers d={d}")
    if len(X) == 0:
        return np.zeros(n_c)
    order = np.argsort(X[:, 0], kind="stable")
    Xs = X[order]
    ys = np.asarray(y, dtype=float)[order]
    x0, c0 = Xs[:, 0], centers[:, 0]
    lo = _boundary(x0, c0, np.searchsorted(x0, c0 - h, side="left"),
                   lambda u: u < -h)
    hi = _boundary(x0, c0, np.searchsorted(x0, c0 + h, side="right"),
                   lambda u: u <= h)

    # Windows empty along axis 0 are degenerate; only the others are built.
    live = np.flatnonzero(hi > lo)
    lo, hi = lo[live], hi[live]
    v_idx, m_idx, q_cols = _normal_equation_layout(d, degree)
    if d == 1:
        M, V = _moments_1d(x0, ys, c0[live], lo, hi, 2 * degree, degree)
    else:
        M, V = _moments_nd(Xs, ys, centers[live], h[live], lo, hi, m_idx, v_idx)
    out = np.zeros(n_c)
    out[live] = _gated_center_values(M[:, np.array(q_cols)], V)
    return out
