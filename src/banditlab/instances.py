"""Problem instances: payoff generators, property verifiers, exponents.

Generators return `ProblemInstance` values whose payoff callables are pure,
vectorized and follow one point convention (see `ProblemInstance`).
Verifiers grade declared smoothness / margin / self-similarity constants on
dense grids and return `PropertyReport`s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBumpsError, InvalidGapError, InvalidRegimeError
from .locpoly import floor_strict
from .partition import qadic_boxes
from .projection import eval_points, project_to_polynomial

GAUSSIAN_SIGMA_DEFAULT = 0.05


def check_noise(noise) -> tuple:
    """noise as a tuple, ("gaussian", sigma > 0 finite) or ("bernoulli",)."""
    model = tuple(noise) if isinstance(noise, (list, tuple)) else ()
    sigma = model[1] if len(model) == 2 and model[0] == "gaussian" else None
    real = isinstance(sigma, float) or type(sigma) is int     # not a bool
    # math.isfinite raises OverflowError for an int no float can hold.
    if model == ("bernoulli",) or (real and 0 < sigma and math.isfinite(sigma)):
        return model
    raise ValueError(f"unknown noise model {noise!r}: use ['gaussian', sigma] "
                     "with sigma > 0 finite, or ['bernoulli']")


def check_integer(value, name: str, low: int | None = None) -> int:
    """value as an int (at least low); else a ValueError that names it.

    An integral float such as 2.0 is its int; a bool or a string is not,
    though float() reads both (and a bool is an int to Python).
    """
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and float(value).is_integer() and (low is None or int(value) >= low)):
            return int(value)
    except OverflowError:
        pass
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def check_real(value, name: str) -> float:
    """value as a finite float; else a ValueError that names it.  A bool or
    a string is no number, though float() reads both (a string it cannot
    read keeps float()'s own error)."""
    number = float(value)
    if isinstance(value, (bool, str)) or not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class ProblemInstance:
    """Two-armed contextual bandit instance on [0,1]^d.

    f1 and f2 follow the point convention of the generators: a scalar is
    one point (d = 1) and gives a float; a 1-D array is n points when d = 1
    and one point when d > 1; an (n, d) array is n points; array inputs
    give an (n,) array.  noise is ("gaussian", sigma) or ("bernoulli",);
    covariates are uniform.  meta carries declared constants (beta, L,
    alpha, C0, self-similarity b / l0, ...) where known.
    """

    name: str
    d: int
    f1: object
    f2: object
    noise: tuple
    meta: dict = field(default_factory=dict)

    def payoffs(self, x, arm: int | None = None):
        """Stacked payoffs, shape (n, 2), at (n, d) points (or n points when
        d = 1); or the (n,) payoffs of arm 0 (f1) or 1 (f2) alone."""
        if arm is not None:
            return (self.f1, self.f2)[arm](x)
        return np.column_stack([self.f1(x), self.f2(x)])


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a grid-based property check.

    holds is margin_of_violation >= 0; witness records the worst grid
    configuration and the measured value there.
    """

    holds: bool
    witness: dict
    margin_of_violation: float


def _instance(name, d, g1, g2, noise, meta) -> ProblemInstance:
    """Instance whose arms g1, g2 are written on (n, d) arrays of points."""

    def arm(g):
        def f(x):
            x = np.asarray(x, dtype=float)
            out = g(x.reshape(-1, d))
            return float(out[0]) if x.ndim == 0 else out
        return f

    return ProblemInstance(name, d, arm(g1), arm(g2), noise, meta)


def _constant(value: float):
    """Arm paying value everywhere."""
    return lambda pts: np.full(len(pts), value)


# ---------------------------------------------------------------------------
# bump primitives


def bump(x, beta: float):
    """Tent-power bump (1 - |x|)^beta on |x| <= 1, zero outside."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    out = np.fmax(1.0 - np.abs(np.asarray(x, dtype=float)), 0.0) ** beta
    return float(out) if np.ndim(x) == 0 else out


def _bump_field(u, amp, scale, centers, signs, beta):
    """1/2 + amp * sum_j s_j bump(scale (u - a_j)), summed in the order of j.

    The centers a_j are ascending and equally spaced.  Each point adds only
    the terms of the centers within a support half-width 1/scale of it,
    widened by 0.1% so that rounding in finding them loses none, in the
    order of j: every other term is +-0.0, which leaves a sum unchanged but
    for the sign of a zero, and 0.5 + amp * total erases that.  Supports
    that overlap (by rounding, or by design) give a point several such
    centers; the k-th of each point's is added in pass k.
    """
    m, reach = len(centers), 1.001 / scale
    per = (m - 1) / (centers[-1] - centers[0]) if m > 1 else 1.0
    first = np.clip(np.ceil((u - reach - centers[0]) * per), 0, m)
    last = np.clip(np.floor((u + reach - centers[0]) * per), -1, m - 1)
    count = np.fmax(last - first + 1.0, 0.0)       # 0 at a NaN
    total = np.zeros_like(u)
    for k in range(int(count.max(initial=0))):
        at = np.flatnonzero(count > k)
        j = first[at].astype(np.intp) + k
        total[at] += signs[j] * bump(scale * (u[at] - centers[j]), beta)
    return 0.5 + amp * total


def _norms(points, d):
    """Sup-norms for a batch of points of dimension d."""
    p = np.asarray(points, dtype=float)
    return np.max(np.abs(p.reshape(-1, d)), axis=1)


def psi_tilde(x, kappa: float, d: int = 1):
    """Inner bump (1 - ||x||_inf)^kappa on ||x||_inf <= 1, zero outside."""
    return bump(_norms(x, d), kappa)


def psi_hat(x, kappa: float, d: int = 1):
    """Signed bump: positive core, negative collar, -1 far field."""
    n = _norms(x, d)
    out = np.full_like(n, -1.0)
    mid = (n > 1.0) & (n <= 2.0)
    core = n <= 1.0
    out[mid] = -np.abs(n[mid] - 1.0) ** kappa
    out[core] = bump(n[core], kappa)
    return out


# ---------------------------------------------------------------------------
# Setting I / II generators (one-dimensional experiment payoffs)


def _make_setting(name, beta, T, overrides, scale, tau, C, alpha, **extra):
    """Setting I/II: a shared left branch, and bumps on arm 1's right branch.

    tau, C and alpha are the setting's defaults (alpha None means 1/beta);
    overrides may replace them, and M = scale(tau) and the bump count m.
    extra is added to meta; its keys are the setting's own overrides.  An
    unknown override key, or a value that is no number, is a ValueError.
    """
    if not (0 < beta <= 1):
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if T < 1000:
        raise ValueError(f"horizon too short for the construction, T={T}")
    ov = dict(overrides or {})
    unknown = set(ov) - {"tau", "L1", "C", "alpha", "sigma", "M", "m", *extra}
    if unknown:
        raise ValueError(f"unknown {name} overrides {sorted(unknown)}")
    for key, value in ov.items():
        if key not in ("sigma", "m"):
            ov[key] = check_real(value, f"overrides.{key}")
    tau = ov.get("tau", tau)
    L1 = ov.get("L1", 1.0)
    C = ov.get("C", C)
    alpha = ov.get("alpha", 1.0 / beta if alpha is None else alpha)
    noise = check_noise(("gaussian", ov.get("sigma", GAUSSIAN_SIGMA_DEFAULT)))
    M = ov["M"] if "M" in ov else scale(tau)
    # Bumps j with (j + 1)/M <= 1 keep their support inside (1/2, 1), which
    # is what keeps f1 continuous at 1/2; the nominal count M^(1-alpha*beta)
    # can exceed that by one for alpha near 0.
    m = (check_integer(ov["m"], "overrides.m") if "m" in ov
         else min(math.floor(M ** (1.0 - alpha * beta)), math.floor(M - 1.0)))
    if m < 1:
        raise DegenerateBumpsError(f"bump count m={m} < 1 for M={M:.4g}")

    amp = C * (2.0 * M) ** (-beta)
    a = (np.arange(1, m + 1) + 0.5) / M
    signs = (-1.0) ** np.arange(1, m + 1)
    half = 0.5 * (1.0 + L1 * 0.5 ** beta)

    def arm(right):
        """The arm paying the shared branch on x <= 1/2, right(x) beyond."""
        def f(pts):
            x, out = pts[:, 0], np.empty(len(pts))
            lo = x <= 0.5
            at, far = np.flatnonzero(lo), np.flatnonzero(~lo)
            out[at] = half - 0.5 * L1 * x[at] ** beta
            out[far] = right(x[far])
            return out
        return f

    # Margin constant: within each bump the mass where 0 < gap <= delta is
    # (delta/amp)^(1/beta) of the bump width; maximized at delta = amp.
    bump_mass = m / (2.0 * M)
    C0 = bump_mass * amp ** (-alpha)
    # Holder constant: adjacent opposite-sign bumps can double the local
    # variation (2^(1+beta) C in x units) and gluing the two halves at 1/2
    # costs another 2^(1-beta).
    L_decl = 2.0 ** (1.0 - beta) * max(L1, 2.0 ** (1.0 + beta) * C)
    meta = {
        "beta": beta, "L": L_decl, "alpha": alpha,
        "C0": C0, "M": M, "m": m, "amplitude": amp, "bump_centers": a,
        "sigma": noise[1], "tau": tau, "C": C, "L1": L1, **extra,
    }
    bumps = arm(lambda x: _bump_field(2.0 - 2.0 * x, amp, 2.0 * M, a, signs, beta))
    return _instance(name, 1, bumps, arm(lambda x: 0.5), noise, meta)


def make_setting_one(beta: float, T: int, overrides: dict | None = None) -> ProblemInstance:
    """Rough-payoff experiment instance (misspecification from below).

    M = (1/16) floor((1/(2 c0)) (2 ln 2 / T)^(-tau/(tau+1)))^(1/beta) with
    tau = 0.8, then m = floor(M^(1 - alpha beta)) alternating bumps of
    half-width 1/(4M) on the right half, Gaussian rewards (sigma = 0.05).
    """
    c0 = dict(overrides or {}).get("c0", 2.0)

    def scale(tau):
        inner = math.floor((1.0 / (2.0 * c0))
                           * (2.0 * math.log(2.0) / T) ** (-tau / (tau + 1.0)))
        return inner ** (1.0 / beta) / 16.0

    return _make_setting("setting1", beta, T, overrides, scale,
                         tau=0.8, C=1.0, alpha=0.01, c0=c0)


def make_setting_two(beta: float, T: int, overrides: dict | None = None) -> ProblemInstance:
    """Smooth-payoff experiment instance (misspecification from above).

    M = 2^ceil(log2(T / (2 ln 2)) / (tau + 1)) / 4 with tau = 0.6, margin
    exponent alpha = 1/beta, amplitude factor C = 50.
    """
    def scale(tau):
        k = math.ceil(math.log2(T / (2.0 * math.log(2.0))) / (tau + 1.0))
        return 2.0 ** k / 4.0

    return _make_setting("setting2", beta, T, overrides, scale,
                         tau=0.6, C=50.0, alpha=None)


def make_power_payoff(beta: float, delta: float,
                      noise: tuple | None = None) -> ProblemInstance:
    """Self-similar power payoff: f1 = x^beta capped at delta, f2 = 1/2.

    Self-similar with b = 1/(beta+1) and l0 = -(1/beta) log2(delta): on the
    leftmost q-adic cell the degree-0 projection misses f1(0) = 0 by exactly
    q^(-l beta)/(beta+1) once the cell sits inside the power region.
    """
    if not (0 < beta < 1):
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if not (0 < delta <= 1):
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    x_cap = delta ** (1.0 / beta)

    def f1(pts):
        x = pts[:, 0]
        return np.where(x <= x_cap, x ** beta, delta)

    meta = {
        "beta": beta, "L": 1.0, "delta": delta,
        "b": 1.0 / (beta + 1.0),
        "l0": -math.log2(delta) / beta,
        "alpha": 1.0 / beta,
    }
    if noise is None:
        noise = ("gaussian", GAUSSIAN_SIGMA_DEFAULT)
    return _instance("power", 1, f1, _constant(0.5), check_noise(noise), meta)


# ---------------------------------------------------------------------------
# adversarial lower-bound families


# Payoff scale of the lower-bound families.  They need C_PHI * Delta <= 1/4,
# which the check Delta <= 1/4 gives at C_PHI = 1.
C_PHI = 1.0


def make_lower_bound_family(beta: float, gamma: float, alpha: float,
                            Delta: float, variant: str, d: int = 1) -> list:
    """Nominal instance plus alternatives differing on one region each.

    variant "at-most-lipschitz": nominal has a downward gamma-smooth bump
    near the origin; alternative m adds an upward beta-smooth bump on the
    m-th cell H_m of the nominal bump's support.  variant
    "at-least-lipschitz": linear crossing payoffs (beta must be 1) plus one
    triangular bump on [1/2 - Delta, 1/2].  Rewards are Bernoulli.
    """
    if Delta > 0.25 or Delta <= 0:
        raise InvalidGapError(f"need 0 < Delta <= 1/4, got {Delta}")

    def member(f1, meta):
        return _instance("lower_bound", d, f1, _constant(0.5),
                         ("bernoulli",), meta)

    if variant == "at-most-lipschitz":
        if not (0 < beta < gamma <= 1):
            raise InvalidRegimeError(
                f"at-most-lipschitz needs 0 < beta < gamma <= 1, got {beta}, {gamma}")
        M = math.floor(Delta ** (alpha - d / beta)) if d == 1 else \
            math.ceil(Delta ** (alpha - d / beta))
        if M < 1:
            raise InvalidGapError(f"alternative count M={M} < 1")
        side0 = 2.0 * Delta ** (alpha / d)
        a0 = np.full(d, Delta ** (alpha / d))

        def phi0(pts):
            arg = (pts - a0) / Delta ** (alpha / d)
            cap = np.minimum(Delta, Delta ** (alpha * gamma / d)
                             * psi_tilde(arg, gamma, d))
            return 0.5 - C_PHI * cap

        meta0 = {
            "beta": gamma, "L": C_PHI * 2.0 ** (2.0 + 2.0 * gamma),
            "alpha": alpha, "C0": 2.0 ** d * 3.0 * d * C_PHI ** (-alpha),
            "Delta": Delta, "M": M, "variant": variant, "member": 0,
        }
        out = [member(phi0, meta0)]
        per_axis = M if d == 1 else math.ceil(M ** (1.0 / d))
        cell_side = side0 / per_axis
        l_m = cell_side / 4.0
        cells = [np.array(idx) for idx in np.ndindex(*([per_axis] * d))][:M]
        for m, idx in enumerate(cells, start=1):
            a_m = (idx + 0.5) * cell_side

            def phi_m(pts, a_m=a_m):
                bump_val = 0.5 + C_PHI * Delta * psi_hat(
                    2.0 / l_m * (pts - a_m), beta, d)
                return np.maximum(phi0(pts), bump_val)

            meta_m = dict(meta0)
            meta_m.update({"beta": beta,
                           "L": C_PHI * 2.0 ** (2.0 + 2.0 * beta),
                           "member": m, "bump_center": tuple(a_m),
                           "cell_side": cell_side})
            out.append(member(phi_m, meta_m))
        return out

    if variant == "at-least-lipschitz":
        if beta != 1:
            raise InvalidRegimeError(
                f"at-least-lipschitz alternative is 1-smooth, got beta={beta}")
        if gamma <= 1:
            raise InvalidRegimeError(f"need gamma > 1, got {gamma}")

        def phi0(pts):
            return 0.5 - C_PHI * (0.5 - pts[:, 0])

        a0_1 = (1.0 - Delta) / 2.0

        def phi1(pts):
            arg = 2.0 / Delta * (pts[:, 0] - a0_1)
            tri = np.where(np.abs(arg) <= 1.0, 1.0 - np.abs(arg), 0.0)
            return 0.5 - C_PHI * (0.5 - pts[:, 0]) + 2.0 * C_PHI * Delta * tri

        meta0 = {"beta": gamma, "L": C_PHI * 2.0 ** (2.0 * gamma),
                 "alpha": alpha, "C0": 2.5 / C_PHI, "Delta": Delta,
                 "variant": variant, "member": 0}
        meta1 = dict(meta0)
        meta1.update({"beta": 1.0, "member": 1,
                      "bump_interval": (0.5 - Delta, 0.5)})
        return [member(phi0, meta0), member(phi1, meta1)]

    raise InvalidRegimeError(f"unknown variant {variant!r}")


def make_example1_family(beta: float, tilde_beta: float, T: int,
                         part: int) -> ProblemInstance:
    """Misspecified-ABSE analysis payoffs (bump fields around 1/2) in d = 1.

    part 1: all-positive bump field at the first m cell centers of an
    M-cell grid; part 2: alternating field.  The analysis constants are
    L = 1, c0 = 2 and mu = 1/2.  Bernoulli rewards.
    """
    C = min(2.0 ** (beta - 1.0), 0.25)
    alpha = 1.0 / beta
    if part == 1:
        M_raw = 0.25 * (2.0 * math.log(2.0) / T) ** (-tilde_beta / (2 * tilde_beta + 1))
        M = max(1, round(math.floor(M_raw) ** (1.0 / beta)))
        m = max(1, math.ceil(0.5 * M ** (1 - alpha * beta)))
        centers = (np.arange(m) + 0.5) / M
        signs = np.ones(m)
    elif part == 2:
        k = math.ceil(math.log2(T / (2.0 * math.log(2.0))) / (2 * tilde_beta + 1))
        M = 2 ** k
        m = min(M - 2, 2 * math.ceil(0.5 * M ** (1 - alpha * beta)))
        centers = (np.arange(1, m + 1) + 0.5) / M
        signs = (-1.0) ** np.arange(1, m + 1)
    else:
        raise ValueError(f"part must be 1 or 2, got {part}")
    amp = C * M ** (-beta)

    def f1(pts):
        return _bump_field(pts[:, 0], amp, M, centers, signs, beta)

    meta = {"beta": beta, "L": 1.0, "alpha": alpha, "M": M, "m": m, "C": C,
            "part": part, "tilde_beta": tilde_beta}
    return _instance("example1", 1, f1, _constant(0.5), ("bernoulli",), meta)


def make_instance(spec: dict, T: int) -> ProblemInstance:
    """Build an instance from a declarative spec (CLI / worker entry point).

    Recognized kinds: setting1, setting2, power, lower_bound, example1.  A
    spec key the kind does not read, or a bad number, is a ValueError.
    """
    spec = dict(spec)
    kind = spec.pop("kind")
    beta = check_real(spec.pop("beta"), "beta")
    if kind == "setting1":
        inst = make_setting_one(beta, T, overrides=spec.pop("overrides", None))
    elif kind == "setting2":
        inst = make_setting_two(beta, T, overrides=spec.pop("overrides", None))
    elif kind == "power":
        inst = make_power_payoff(beta, check_real(spec.pop("delta", 1.0), "delta"),
                                 noise=spec.pop("noise", None))
    elif kind == "lower_bound":
        family = make_lower_bound_family(
            beta, *(check_real(spec.pop(k), k) for k in ("gamma", "alpha", "delta")),
            spec.pop("variant", "at-most-lipschitz"),
            d=check_integer(spec.pop("d", 1), "d"))
        member = check_integer(spec.pop("member", 0), "member")
        if not (0 <= member < len(family)):
            raise ValueError(f"member {member} outside family of {len(family)}")
        inst = family[member]
    elif kind == "example1":
        inst = make_example1_family(
            beta, check_real(spec.pop("tilde_beta"), "tilde_beta"), T,
            check_integer(spec.pop("part", 1), "part"))
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    if spec:
        raise ValueError(f"unknown {kind} instance keys {sorted(spec)}")
    return inst


# ---------------------------------------------------------------------------
# property verifiers


def _instance_arms(obj):
    if isinstance(obj, ProblemInstance):
        return [("f1", obj.f1), ("f2", obj.f2)], obj.d
    return [("f", obj)], 1


def _grid(d: int, grid_n: int):
    """A regular grid of about grid_n points on [0,1]^d, and its points per axis."""
    n_axis = grid_n if d == 1 else max(2, int(round(grid_n ** (1 / d))))
    axis = np.linspace(0.0, 1.0, n_axis)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1), n_axis


def _report(candidates) -> PropertyReport:
    """Report on the (slack, witness) candidate of least slack, the first of equals."""
    margin, witness = math.inf, None
    for slack, found in candidates:
        if slack < margin:
            margin, witness = float(slack), found
    return PropertyReport(holds=margin >= 0.0, witness=witness,
                          margin_of_violation=margin)


def check_holder(instance, beta: float, L: float,
                 grid_n: int = 200) -> PropertyReport:
    """Grid check of |f(x') - f(x) - k grad f(x).(x' - x)| <= L ||x - x'||_inf^beta.

    k = floor_strict(beta), so for beta <= 1 the Taylor term is f(x) itself;
    for beta in (1, 2] the gradient is taken by central differences with
    step 1e-4 and the check tolerance widens to 1e-3 to absorb the
    discretization.
    """
    arms, d = _instance_arms(instance)
    k = floor_strict(beta)
    if k > 1:
        raise NotImplementedError("check_holder supports beta <= 2")
    pts, _ = _grid(d, grid_n)
    offsets = pts[None, :, :] - pts[:, None, :]        # [i, j] = x_j - x_i
    dist = np.max(np.abs(offsets), axis=2)

    def worst(arm_name, f):
        vals = eval_points(f, pts)
        grads = np.empty(pts.shape)
        for j, shift in enumerate(1e-4 * np.eye(d)):
            hi, lo = np.clip(pts + shift, 0.0, 1.0), np.clip(pts - shift, 0.0, 1.0)
            grads[:, j] = ((eval_points(f, hi) - eval_points(f, lo))
                           / (hi[:, j] - lo[:, j]))
        taylor = vals[:, None] + k * np.einsum("ik,ijk->ij", grads, offsets)
        diff = np.abs(vals[None, :] - taylor)
        with np.errstate(invalid="ignore"):
            slack = L * dist ** beta + 1e-3 * k - diff
        np.fill_diagonal(slack, math.inf)
        idx = np.unravel_index(np.argmin(slack), slack.shape)
        return slack[idx], {
            "arm": arm_name,
            "x": tuple(pts[idx[0]].tolist()),
            "x_prime": tuple(pts[idx[1]].tolist()),
            "deviation": float(diff[idx]),
            "bound": float(L * dist[idx] ** beta),
        }

    return _report(worst(*arm) for arm in arms)


def check_margin(instance: ProblemInstance, alpha: float, C0: float,
                 grid_n: int = 100_000, delta_grid=None) -> PropertyReport:
    """Grid estimate of P{0 < |f1 - f2| <= delta} against C0 delta^alpha,
    with a tolerance of 8 grid spacings."""
    deltas = np.asarray(delta_grid if delta_grid is not None
                        else np.geomspace(1e-3, 1.0, 13), dtype=float)
    if np.any((deltas <= 0) | (deltas > 1)):
        raise ValueError("delta grid must lie in (0, 1]")
    pts, n_axis = _grid(instance.d, grid_n)
    gaps = np.abs(eval_points(instance.f1, pts) - eval_points(instance.f2, pts))
    tol = 8.0 / n_axis + 1e-12

    def candidate(delta):
        prob = float(np.mean((gaps > 0) & (gaps <= delta)))
        return C0 * delta ** alpha + tol - prob, {
            "delta": float(delta), "probability": prob,
            "bound": float(C0 * delta ** alpha)}

    return _report(map(candidate, deltas))


def _level_sweep(obj, q: float, p: int, levels, probe_per_axis: int,
                 nodes_per_axis: int):
    """Per level l, the largest |Gamma_h^p f(x; B) - f(x)|, h = q^-l, over
    the exact q-adic cells B, the arms f of obj (an instance or a d = 1
    function) and x on an in-cell probe grid and B's corners: yields the
    level, arm, x and bias where it is reached."""
    arms, d = _instance_arms(obj)
    upper = _grid(d, 2)[0] > 0          # which coordinates of each corner are hi
    for level in levels:
        h = q ** (-level)
        where = {"level": level, "bias": -math.inf}
        for box in qadic_boxes(d, q, level):
            pts = np.vstack([box.midpoint_nodes(probe_per_axis),
                             np.where(upper, box.hi, box.lo)])
            for arm, f in arms:
                proj = project_to_polynomial(f, box, p, h,
                                             nodes_per_axis=nodes_per_axis)
                biases = np.abs(np.array([proj(x) for x in pts]) - eval_points(f, pts))
                i = int(np.argmax(biases))
                if biases[i] > where["bias"]:
                    where = {"level": level, "arm": arm,
                             "x": tuple(pts[i].tolist()), "bias": float(biases[i])}
        yield where


def check_self_similarity(instance: ProblemInstance, beta: float, b: float,
                          l0: int, l_max: int, q: float, p: int,
                          probe_per_axis: int = 65,
                          nodes_per_axis: int = 2048) -> PropertyReport:
    """Verify the projection-bias lower bound b q^{-l beta} at each level.

    For every level l in [l0, l_max] the maximum of
    |Gamma_{q^-l}^p f_k(x; B) - f_k(x)| over exact q-adic cells B, arms k,
    and x on an in-cell probe grid and B's corners must reach b q^{-l beta}.
    """
    if l_max < l0:
        raise ValueError("l_max must be >= l0")
    if p < floor_strict(beta):
        raise ValueError(f"degree p={p} below floor_strict(beta)={floor_strict(beta)}")
    levels = range(int(math.ceil(l0)), int(l_max) + 1)

    def candidate(where):
        required = b * q ** (-where["level"] * beta)
        return where["bias"] - required, {**where, "required": float(required)}

    return _report(map(candidate, _level_sweep(instance, q, p, levels,
                                               probe_per_axis, nodes_per_axis)))


def projection_bias_constant(f, beta: float, p: int, q: float, levels,
                             probe_per_axis: int = 65,
                             nodes_per_axis: int = 2048) -> float:
    """Empirical upper-bound constant of a d = 1 function f: the max over
    levels of sup |Gamma f - f| / h^beta."""
    sweep = _level_sweep(f, q, p, levels, probe_per_axis, nodes_per_axis)
    return max([0.0] + [w["bias"] / (q ** -w["level"]) ** beta for w in sweep])


# ---------------------------------------------------------------------------
# theory exponents


def minimax_exponent(beta: float, alpha: float, d: int) -> float:
    """Optimal worst-case regret exponent 1 - beta(1+alpha)/(2 beta + d)."""
    if beta <= 0 or alpha < 0 or d < 1:
        raise ValueError(f"need beta > 0, alpha >= 0, d >= 1; got {beta}, {alpha}, {d}")
    return 1.0 - beta * (1.0 + alpha) / (2.0 * beta + d)


def impossibility_exponent(beta: float, gamma: float, alpha: float, d: int,
                           regime: str) -> float:
    """Lower-bound exponent forced on a policy rate-optimal at smoothness gamma.

    "at-most-lipschitz" (0 < beta < gamma <= 1):
        1 - (beta+d)(2 gamma + d - alpha gamma) /
            ((2 gamma + d)(2 beta + d - alpha beta))
    "at-least-lipschitz" (beta = 1 < gamma):
        1 - (2 gamma + d - gamma alpha) / (2 gamma + d)
    """
    if regime == "at-most-lipschitz":
        if not (0 < beta < gamma <= 1):
            raise InvalidRegimeError(
                f"at-most-lipschitz needs 0 < beta < gamma <= 1, got {beta}, {gamma}")
        if not (0 < alpha <= 1.0 / gamma):
            raise InvalidRegimeError(f"alpha={alpha} outside (0, 1/gamma]")
        return 1.0 - (beta + d) * (2 * gamma + d - alpha * gamma) / (
            (2 * gamma + d) * (2 * beta + d - alpha * beta))
    if regime == "at-least-lipschitz":
        if beta != 1 or gamma <= 1:
            raise InvalidRegimeError(
                f"at-least-lipschitz needs beta = 1 < gamma, got {beta}, {gamma}")
        if not (0 < alpha <= 1):
            raise InvalidRegimeError(f"alpha={alpha} outside (0, 1]")
        return 1.0 - (2 * gamma + d - gamma * alpha) / (2 * gamma + d)
    raise InvalidRegimeError(f"unknown regime {regime!r}")
