"""Deterministic episode runner, replicated experiments, and metrics.

Episodes are pure functions of (instance, policy spec, T, seed, rep):
covariates and per-(t, arm) noise uniforms are pre-drawn from
counter-based streams (see rng.py), and each reward is made from its
uniform on first read (`Rewards`), so replaying a configuration is
bit-exact and two policies compared at the same (seed, rep) see identical
covariates and identical counterfactual rewards (paired comparisons /
common random numbers).  Every episode runs on the vectorized engine of
its policy (`fast.run_fast`); the sequential policies are the reference
those engines are tested against.
"""

from __future__ import annotations

import concurrent.futures
import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng
from .instances import ProblemInstance, check_noise, make_instance
from .policies import PolicySpec
from . import fast


@dataclass(frozen=True)
class RegretTrace:
    """Per-episode outcome: regret curve plus policy audit fields."""

    checkpoints: tuple          # ((t, cum_regret, inferior_count), ...)
    final_regret: float
    inferior_count: int
    t_sacb: int | None
    beta_hat: float | None
    seed: int
    rep: int


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate over replications of one policy on one instance."""

    mean_regret: float
    sd: float
    ci95: float | None
    mean_t_sacb: float | None
    mean_beta_hat: float | None
    traces: tuple = field(default_factory=tuple)


class Rewards:
    """Both arms' rewards at every step, each made on its first read.

    u holds the pre-drawn noise uniforms arm-major, shape (2, T), and is
    owned by this object.  The first read of entry (arm, t) overwrites
    u[arm, t] with the reward, F[t, arm] + sigma * ndtri(u) under Gaussian
    noise or 1{u < F[t, arm]} under Bernoulli noise, and marks it done;
    later reads, by any policy of the replication, return that value.  A
    reward thus depends only on its uniform and payoff, never on which
    policy read it first, and entries nobody reads are never made.
    """

    def __init__(self, F: np.ndarray, u: np.ndarray, noise: tuple):
        if check_noise(noise)[0] == "bernoulli":
            lo, hi = float(np.min(F)), float(np.max(F))
            if lo < -1e-12 or hi > 1.0 + 1e-12:
                raise ValueError(
                    f"Bernoulli payoff means must lie in [0,1], saw [{lo}, {hi}]")
        self.sigma = noise[1] if noise[0] == "gaussian" else None
        # Per arm: its uniforms (then rewards), done mask and payoffs.
        self._arms = tuple(zip(u, np.zeros(u.shape, dtype=bool), F.T))

    def read(self, arm: int, rows: np.ndarray) -> np.ndarray:
        """Rewards of arm (0 or 1) at the steps rows, an integer array."""
        u, done, f = self._arms[arm]
        seen = done[rows]
        if np.count_nonzero(seen) < len(rows):
            new = rows[~seen]
            if self.sigma is None:
                u[new] = (u[new] < f[new]).astype(np.float64)
            else:
                u[new] = f[new] + self.sigma * rng.gaussian_from_uniform(u[new])
            done[new] = True
        return u[rows]

    def tail(self, start: int) -> "Rewards":
        """The rewards of steps start, start + 1, ..., sharing these entries."""
        view = copy.copy(self)
        view._arms = tuple((u[start:], done[start:], f[start:])
                          for u, done, f in self._arms)
        return view


class Streams(NamedTuple):
    """One replication's draws, shared by every policy run on it."""

    X: np.ndarray           # covariates, (T, d)
    F: np.ndarray           # payoffs at X, (T, 2)
    rewards: Rewards


def draw_streams(instance: ProblemInstance, T: int, seed: int,
                 rep: int = 0) -> Streams:
    """Streams of replication (seed, rep).

    Every policy run on that replication reads these same arrays and
    rewards.
    """
    X = rng.covariate_block(seed, rep, T, instance.d)
    F = instance.payoffs(X)
    u = np.empty((2, T))
    for arm in (1, 2):
        rng.noise_uniform_block(seed, rep, T, arm, out=u[arm - 1])
    return Streams(X, F, Rewards(F, u, instance.noise))


def run_episode(instance: ProblemInstance, policy_spec: PolicySpec, T: int,
                seed: int, checkpoint_stride: int | None = None, rep: int = 0,
                streams=None) -> RegretTrace:
    """One seeded episode of policy_spec; returns the regret trace.

    The episode runs on the vectorized engine of the policy the spec
    builds.  streams, if given, is draw_streams(instance, T, seed, rep),
    drawn once and shared by the policies of a replication; the arrays are
    only read, and the rewards only made.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    stride = checkpoint_stride or max(1, T // 100)
    X, F, rewards = streams or draw_streams(instance, T, seed, rep)
    policy = policy_spec.build(instance, T)
    actions = fast.run_fast(policy, X, rewards, F)

    # A step is inferior iff the other arm pays strictly more.  Its regret,
    # best - chosen, is then |F0 - F1| bit for bit, and +0.0 otherwise.
    # The sums run over the inferior steps t alone: a skipped +0.0 term
    # leaves the non-negative running sum's bits unchanged (x + 0.0 == x),
    # and the inferior count at step m is the number of t <= m.  The steps
    # and their gaps are found rng.BLOCK steps at a time; one cumsum over
    # all the gaps then adds the same terms in the same order.
    steps, gaps = [], []
    for start in range(0, T, rng.BLOCK):
        block = slice(start, start + rng.BLOCK)
        diff = F[block, 0] - F[block, 1]
        inferior = (diff < 0) == (actions[block] == 1)
        inferior &= diff != 0
        t = np.flatnonzero(inferior)
        steps.append(t + start)
        gaps.append(np.abs(diff[t]))
    t = np.concatenate(steps)
    cum_regret = np.zeros(len(t) + 1)       # cum_regret[k]: first k inferior steps
    np.cumsum(np.concatenate(gaps), out=cum_regret[1:])

    marks = list(range(stride - 1, T, stride))
    if not marks or marks[-1] != T - 1:
        marks.append(T - 1)
    counts = np.searchsorted(t, marks, side="right")
    checkpoints = tuple(
        (m + 1, float(cum_regret[k]), int(k)) for m, k in zip(marks, counts)
    )
    return RegretTrace(
        checkpoints=checkpoints,
        final_regret=float(cum_regret[-1]),
        inferior_count=len(t),
        t_sacb=getattr(policy, "t_sacb", None),
        beta_hat=getattr(policy, "beta_hat", None),
        seed=seed,
        rep=rep,
    )


def summarize(traces) -> ExperimentSummary:
    """Mean / sd / normal 95% CI of final regret across traces."""
    traces = tuple(traces)
    if not traces:
        raise ValueError("summarize needs at least one trace")
    finals = np.array([tr.final_regret for tr in traces])
    reps = len(finals)
    sd = float(np.std(finals, ddof=1)) if reps >= 2 else 0.0
    ci = 1.96 * sd / math.sqrt(reps) if reps >= 2 else None
    t_sacbs = [tr.t_sacb for tr in traces if tr.t_sacb is not None]
    beta_hats = [tr.beta_hat for tr in traces if tr.beta_hat is not None]
    return ExperimentSummary(
        mean_regret=float(np.mean(finals)),
        sd=sd,
        ci95=ci,
        mean_t_sacb=float(np.mean(t_sacbs)) if t_sacbs else None,
        mean_beta_hat=float(np.mean(beta_hats)) if beta_hats else None,
        traces=traces,
    )


def _replication_cell(args):
    """A group of policies on one replication, sharing one draw of its streams."""
    instance_spec, T, policy_specs, rep, base_seed, stride = args
    instance = make_instance(instance_spec, T)
    streams = draw_streams(instance, T, base_seed, rep)
    return [run_episode(instance, ps, T, base_seed, checkpoint_stride=stride,
                        rep=rep, streams=streams) for ps in policy_specs]


def run_experiment(instance_spec: dict, policy_specs, T: int, reps: int,
                   base_seed: int, parallelism: int = 1,
                   checkpoint_stride: int | None = None) -> list:
    """Replicated, paired comparison of several policies on one instance.

    instance_spec is a dict understood by `instances.make_instance`; each
    task, in this process or a worker, builds the instance from it.
    Replication r of every policy consumes the same covariate and noise
    streams (keyed by (base_seed, r)), so cross-policy comparisons are
    paired.  Returns one ExperimentSummary per spec, in the order of
    policy_specs, deterministic in content regardless of parallelism, the
    most worker processes to use.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    specs = list(policy_specs)
    if not specs:
        raise ValueError("run_experiment needs at least one policy spec")

    # A task runs a group of policies on one replication and draws its
    # streams once.  Each replication is split into just enough groups to
    # give every worker a task.
    groups = min(len(specs), -(-parallelism // reps)) if parallelism > 1 else 1
    cuts = [len(specs) * g // groups for g in range(groups + 1)]
    cells = [(instance_spec, T, specs[a:b], rep, base_seed, checkpoint_stride)
             for rep in range(reps) for a, b in zip(cuts, cuts[1:])]
    # A fork pool starts all its workers at the first submit, so it gets
    # no more workers than tasks, and a lone task runs in this process.
    workers = min(parallelism, len(cells))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_replication_cell, cells, chunksize=1))
    else:
        results = [_replication_cell(c) for c in cells]

    per_rep = [sum(results[r * groups:(r + 1) * groups], [])
               for r in range(reps)]
    return [summarize(traces) for traces in zip(*per_rep)]
