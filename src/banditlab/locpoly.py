"""Multi-index arithmetic and local polynomial regression.

The estimator fits, around a center x and bandwidth h, the polynomial
sum_{|s| <= p} xi_s u^s minimizing sum_i (Y_i - theta(X_i - x))^2 K((X_i-x)/h)
with the box kernel K(u) = 1{||u||_inf <= 1}.  The normal equations are
Q xi = V with

    Q[s1, s2] = sum_i (X_i - x)^(s1+s2) K((X_i - x)/h)
    V[s]      = sum_i Y_i (X_i - x)^s  K((X_i - x)/h)

If Q is not numerically positive definite the fit is flagged degenerate and
its value is 0; callers never see an exception from a bad window.

`fit_local_polynomial` fits one center by direct sums.  `window_fits`
evaluates the same estimator at many centers at once from window moments
and one stacked solve; SACB's smoothness test uses it, and the tests check
it against `fit_local_polynomial`.

`window_fits` also takes a stack of k datasets of equal size, (k, n, d)
covariates and (k, n) responses, with the dataset of each center, so that
one call fits every bin and arm of a SACB round.  Every step runs per row
of the stack: a stable sort, the window search, and in d = 1 the anchor
and the cumulative sums the window moments are differenced from (numpy
accumulates each row in order).  A center's value is therefore bit for
bit the value of a one-dataset call on its own dataset, which is the
stack k = 1.

The gate of a 2 x 2 Q (degree 1 in d = 1) needs no eigenvalue solver
outside a thin band.  With trace t > 0 and determinant D, the eigenvalues
have sum t and product D; if D >= 0 the larger lies in [t/2, t], so
D/t <= lambda_min <= 2 D/t, and if D < 0 then lambda_min < 0.  So Q passes
for sure when D/t > 2 tau scale and fails for sure when 2 D/t <
tau scale / 2 (tau = SINGULARITY_TOL).  Rounding moves D/t and LAPACK's
eigenvalue by O(eps scale), far inside those factor-2 margins, so the
bracket decides as eigvalsh would; only the matrices between the margins,
or with t <= 0, go to eigvalsh.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

# Smallest eigenvalue below RIDGE_TOL times the largest |entry| means a
# non-unique minimizer; scale-free so huge or tiny bandwidths behave alike.
SINGULARITY_TOL = 1e-10


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


@dataclass(frozen=True)
class PolynomialEstimate:
    """A local polynomial fit's value at its center, xi_(0,...,0).

    When ``degenerate`` is set the value is zero, matching the convention
    that a non-unique least-squares minimizer yields the zero estimator.
    """

    value: float
    degenerate: bool


def fit_local_polynomial(data, center, bandwidth: float, degree: int) -> PolynomialEstimate:
    """Box-kernel local polynomial fit of the given degree.

    Parameters
    ----------
    data : (X, y) array pair; X is (n, d), or (n,) when d = 1
    center : point the polynomial is centered on
    bandwidth : kernel half-width h > 0 (sup-norm window)
    degree : polynomial degree p >= 0

    Returns
    -------
    PolynomialEstimate(value, degenerate), with degenerate=True and value
    0 when the in-window design does not pin down a unique minimizer.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))
    d = center_arr.shape[0]
    X = np.asarray(data[0], dtype=float).reshape(-1, d)
    y = np.asarray(data[1], dtype=float)
    indices = enumerate_multi_indices(d, degree)

    dx = X - center_arr
    inside = np.max(np.abs(dx), axis=1) <= bandwidth
    dxw = dx[inside]
    yw = y[inside]

    # Monomials (X_i - x)^s for every index, shape (n_window, m).
    mono = np.empty((len(yw), len(indices)))
    for j, s in enumerate(indices):
        mono[:, j] = np.prod(dxw ** np.asarray(s, dtype=float), axis=1)

    Q = mono.T @ mono
    V = mono.T @ yw

    # An empty window gives Q = 0, which the gate flags (0 <= 0).
    if np.linalg.eigvalsh(Q)[0] <= SINGULARITY_TOL * np.max(np.abs(Q)):
        return PolynomialEstimate(0.0, True)

    # SPD solve via Cholesky; the eigenvalue gate above makes this safe and
    # keeps the zero-fallback semantics exact (no pseudo-inverse rescue).
    # The indices are sorted, so xi[0] is the constant term.
    L = np.linalg.cholesky(Q)
    xi = np.linalg.solve(L.T, np.linalg.solve(L, V))
    return PolynomialEstimate(float(xi[0]), False)


# Budget of (center, candidate point) pairs gathered at once by the d >= 2
# moments, so their memory does not grow with n_centers * n.
_PAIR_BLOCK = 1 << 16


def _boundary(xs: np.ndarray, c: np.ndarray, start: np.ndarray, stop: np.ndarray,
              before) -> np.ndarray:
    """Per center, where the leading run of its row with before(xs - c) ends.

    Center i reads the sorted row xs[start[i]:stop[i]], along which before
    must be monotone (true, then false); the result is the index in xs of
    the row's first point where before fails, or stop[i].  The bisection
    tests the rounded differences xs - c that fit_local_polynomial tests,
    so both select the same points even where c +- h rounds differently.
    """
    pos = start.copy()
    step = 1 << int(np.max(stop - start, initial=0)).bit_length()
    while step > 1:
        step >>= 1
        # Every point of xs[start:pos] passes; try to take step more.
        last = pos + step - 1
        pos += step * ((last < stop) & before(xs.take(last, mode="clip") - c))
    return pos


def _moments_1d(xs, ys, c, row, lo, hi, p2, p):
    """Window sums of (X - c)^t, t <= p2, and Y (X - c)^s, s <= p.

    xs and ys hold k sorted datasets, one per row, and each center c reads
    the window [lo, hi) of its row, as offsets into the flattened rows.
    Prefix sums of powers of X - a, with a the middle of the row's data,
    are differenced over each window and recentered to c binomially:
    sum (X - c)^t = sum_k C(t, k) (a - c)^(t - k) sum (X - a)^k.
    """
    k, n = xs.shape
    a = 0.5 * (xs[:, 0] + xs[:, -1])
    u = xs - a[:, None]
    pw = u[None] ** np.arange(p2 + 1)[:, None, None]
    pref = np.zeros((p2 + 1, k, n + 1))
    np.cumsum(pw, axis=2, out=pref[:, :, 1:])
    pref_y = np.zeros((p + 1, k, n + 1))
    np.cumsum(ys * pw[:p + 1], axis=2, out=pref_y[:, :, 1:])
    # Row j's window [lo, hi) has its prefix sums at hi + j and lo + j.
    pref, pref_y = pref.reshape(p2 + 1, -1), pref_y.reshape(p + 1, -1)
    win = pref[:, hi + row] - pref[:, lo + row]
    win_y = pref_y[:, hi + row] - pref_y[:, lo + row]
    delta = a[row] - c

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

    Candidates come from the axis-0 window [lo, hi) of the flattened
    sorted rows; the other axes are masked with the same |X_j - c_j| <= h
    test as fit_local_polynomial, h holding one bandwidth per center.
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


def _nondegenerate(Q: np.ndarray) -> np.ndarray:
    """fit_local_polynomial's gate over a stack of symmetric (m, m) Q.

    True where scale = max |Q| > 0 and the smallest eigenvalue exceeds
    SINGULARITY_TOL * scale.  A 1 x 1 Q is its own eigenvalue, so scale > 0
    passes it.  For m = 2 the trace and determinant decide all but a thin
    band of matrices (see the module docstring); only that band, and every
    Q of m >= 3, goes to eigvalsh.
    """
    m = Q.shape[1]
    # max |Q| per system, reduced along a contiguous leading axis, which
    # numpy vectorizes (a reduction over each small trailing block it does not).
    scale = np.abs(Q).reshape(len(Q), m * m).T.copy().max(axis=0)
    ok = scale > 0.0
    tol = SINGULARITY_TOL * scale[ok]
    if m == 2:
        live = np.flatnonzero(ok)
        a, b, c = Q[live, 0, 0], Q[live, 1, 0], Q[live, 1, 1]
        t = a + c
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (a * c - b * b) / t         # lambda_min in [bound, 2 bound]
        passes = bound > 2 * tol
        undecided = ~(t > 0) | (~passes & (2 * bound >= 0.5 * tol))
        if undecided.any():
            passes[undecided] = \
                np.linalg.eigvalsh(Q[live[undecided]])[:, 0] > tol[undecided]
        ok[live] = passes
    elif m > 2:
        ok[ok] = np.linalg.eigvalsh(Q[ok])[:, 0] > tol
    return ok


def _gated_center_values(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """xi_0 of each stacked system Q xi = V, 0 where the window is degenerate.

    The systems that pass the gate (`_nondegenerate`) are solved by
    Cholesky and forward and back substitution, each step vectorized over
    the stack (m is small).
    """
    out = np.zeros(len(V))
    m = V.shape[1]
    ok = _nondegenerate(Q)
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


def window_fits(X, y, centers, h, degree: int, owner=None) -> np.ndarray:
    """Box-kernel local polynomial fits at many centers at once.

    Equal to ``[fit_local_polynomial((X, y), c, h, degree).value for c in
    centers]`` up to rounding: the same window, gate and zero value for a
    degenerate window, with one stacked gate and Cholesky solve for all
    centers.  X is (n, d) or (n,) for d = 1, and y is (n,); centers is
    (n_centers, d) or (n_centers,) for d = 1; h is one bandwidth or one per
    center.  Returns shape (n_centers,).

    Given owner, X is a stack of k datasets of equal size, shape (k, n, d),
    y is (k, n), and center i is fitted to dataset owner[i].  Each value is
    then bit for bit the value of a one-dataset call on its own dataset:
    every step runs per row, and a one-dataset call is the stack k = 1.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    centers = np.asarray(centers, dtype=float)
    centers = centers[:, None] if centers.ndim == 1 else centers
    n_c, d = centers.shape
    if owner is None:
        X, y = (X[:, None] if X.ndim == 1 else X)[None], y[None]
        owner = np.zeros(n_c, dtype=np.intp)
    owner = np.asarray(owner)
    if X.ndim != 3:
        raise ValueError(f"covariates must be (n, d), (n,) or a stack (k, n, d), "
                         f"got shape {X.shape}")
    if owner.shape != (n_c,) or owner.dtype.kind not in "iu":
        raise ValueError(f"owner needs one integer per center, got {owner.dtype} "
                         f"of shape {owner.shape}")
    if np.any(owner < 0) or np.any(owner >= len(X)):
        raise ValueError(f"owner outside the {len(X)} datasets")
    k, n = X.shape[:2]
    h = np.broadcast_to(np.asarray(h, dtype=float), (n_c,))
    if np.any(h <= 0):
        raise ValueError(f"bandwidth must be positive, got {h.min()}")
    if X.shape[2] != d:
        raise ValueError(f"covariates have d={X.shape[2]}, centers d={d}")
    if y.shape != (k, n):
        raise ValueError(f"responses have shape {y.shape}, covariates {X.shape}")
    if n == 0:
        return np.zeros(n_c)
    # Each row sorted by axis 0, then the rows laid end to end.
    order = np.argsort(X[:, :, 0], axis=1, kind="stable")
    Xs = np.take_along_axis(X, order[:, :, None], axis=1).reshape(k * n, d)
    ys = np.take_along_axis(y, order, axis=1)
    x0, c0 = Xs[:, 0], centers[:, 0]
    start = owner * n
    lo = _boundary(x0, c0, start, start + n, lambda u: u < -h)
    hi = _boundary(x0, c0, start, start + n, lambda u: u <= h)

    # Windows empty along axis 0 are degenerate; only the others are built.
    live = np.flatnonzero(hi > lo)
    lo, hi = lo[live], hi[live]
    v_idx, m_idx, q_cols = _normal_equation_layout(d, degree)
    if d == 1:
        M, V = _moments_1d(x0.reshape(k, n), ys, c0[live], owner[live], lo, hi,
                           2 * degree, degree)
    else:
        M, V = _moments_nd(Xs, ys.ravel(), centers[live], h[live], lo, hi,
                           m_idx, v_idx)
    out = np.zeros(n_c)
    out[live] = _gated_center_values(M[:, np.array(q_cols)], V)
    return out
