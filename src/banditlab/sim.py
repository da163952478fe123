"""Deterministic episode runner, replicated experiments, and metrics.

Episodes are pure functions of (instance, policy spec, T, seed, rep):
covariates and per-(t, arm) noise uniforms are pre-drawn from
counter-based streams (see rng.py), with the payoff gap F0 - F1 that the
regret accounting reads, and each reward is made from its uniform and
its covariate's payoff on first read (`Rewards`), so replaying a
configuration is bit-exact and two policies compared at the same
(seed, rep) see identical covariates and identical counterfactual rewards
(paired comparisons / common random numbers).  Every episode runs on the
vectorized engine of its policy (`fast.run_fast`), and the abse policies
of one task are replayed together (`fast.abse_group_actions`); the
sequential policies are the reference those engines are tested against.
"""

from __future__ import annotations

import concurrent.futures
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

    X holds the covariates, shape (T, d), and u the pre-drawn noise
    uniforms arm-major, shape (2, T), which this object owns.  The first
    read of entry (arm, t) computes the payoff F[t, arm] at X[t], through
    `ProblemInstance.payoffs`, and overwrites u[arm, t] with the reward,
    F[t, arm] + sigma * ndtri(u) under Gaussian noise or 1{u < F[t, arm]}
    under Bernoulli noise, and marks it done; later reads, by any policy
    of the replication, return that value.  The payoff functions act on
    each point alone, so a payoff made on read has the bits of one made
    over the whole stream.  A reward thus depends only on its uniform and
    payoff, never on which policy read it first, and entries nobody reads
    are never made, nor are their payoffs.  `draw_streams` checks that
    Bernoulli payoffs lie in [0, 1].  Rows are the replication's steps for
    every reader, SACB's handoff to ABSE from t_sacb on included.
    """

    def __init__(self, X: np.ndarray, u: np.ndarray, instance: ProblemInstance):
        noise = check_noise(instance.noise)
        self.sigma = noise[1] if noise[0] == "gaussian" else None
        self._instance = instance
        self._X = X
        # Per arm: its uniforms (then rewards) and done mask.
        self._arms = tuple(zip(u, np.zeros(u.shape, dtype=bool)))

    def read(self, arm: int, rows: np.ndarray) -> np.ndarray:
        """Rewards of arm (0 or 1) at the steps rows, an integer array."""
        u, done = self._arms[arm]
        seen = done[rows]
        if np.count_nonzero(seen) < len(rows):
            new = rows[~seen]
            f = self._instance.payoffs(self._X.take(new, axis=0), arm)
            if self.sigma is None:
                u[new] = (u.take(new) < f).astype(np.float64)
            else:
                u[new] = f + self.sigma * rng.gaussian_from_uniform(u.take(new))
            done[new] = True
        return u.take(rows)


class Streams(NamedTuple):
    """One replication's draws, shared by every policy run on it.

    No payoff table is kept: the regret accounting and the oracle read the
    gap, and `Rewards` makes each payoff it needs from X.
    """

    X: np.ndarray           # covariates, (T, d)
    gap: np.ndarray         # F[:, 0] - F[:, 1], the payoffs at X, (T,)
    rewards: Rewards


def draw_streams(instance: ProblemInstance, T: int, seed: int,
                 rep: int = 0) -> Streams:
    """Streams of replication (seed, rep).

    Every policy run on that replication reads these same arrays and
    rewards.  The payoffs are evaluated rng.BLOCK points at a time, for
    the gap and, under Bernoulli noise, to check that they lie in [0, 1].
    """
    bernoulli = check_noise(instance.noise)[0] == "bernoulli"
    X = rng.covariate_block(seed, rep, T, instance.d)
    gap = np.empty(T)
    for start in range(0, T, rng.BLOCK):
        F = instance.payoffs(X[start:start + rng.BLOCK])
        if bernoulli:
            lo, hi = float(np.min(F)), float(np.max(F))
            if lo < -1e-12 or hi > 1.0 + 1e-12:
                raise ValueError(
                    f"Bernoulli payoff means must lie in [0,1], saw [{lo}, {hi}]")
        np.subtract(F[:, 0], F[:, 1], out=gap[start:start + len(F)])
    u = np.empty((2, T))
    for arm in (1, 2):
        rng.noise_uniform_block(seed, rep, T, arm, out=u[arm - 1])
    return Streams(X, gap, Rewards(X, u, instance))


def run_episode(instance: ProblemInstance, policy_spec: PolicySpec, T: int,
                seed: int, checkpoint_stride: int | None = None, rep: int = 0,
                streams=None, actions=None) -> RegretTrace:
    """One seeded episode of policy_spec; returns the regret trace.

    The episode runs on the vectorized engine of the policy the spec
    builds.  streams, if given, is draw_streams(instance, T, seed, rep),
    drawn once and shared by the policies of a replication; the arrays are
    only read, and the rewards only made; streams of another length are a
    ValueError.  actions, if given, are the actions of an abse spec already
    replayed on streams, with the other abse specs of its replication
    (`fast.abse_group_actions`); the episode then only accounts for them.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    stride = checkpoint_stride or max(1, T // 100)
    X, gap, rewards = streams or draw_streams(instance, T, seed, rep)
    if len(gap) != T:
        raise ValueError(f"streams hold {len(gap)} steps, but the horizon is {T}")
    policy = None
    if actions is None:
        policy = policy_spec.build(instance, T)
        actions = fast.run_fast(policy, X, rewards, gap)

    # A step is inferior iff the other arm pays strictly more.  Its regret,
    # best - chosen, is then |gap| = |F0 - F1| bit for bit, and +0.0
    # otherwise.  The sums run over the inferior steps t alone: a skipped
    # +0.0 term leaves the non-negative running sum's bits unchanged
    # (x + 0.0 == x), and the inferior count at step m is the number of
    # t <= m.  The steps and their gaps are found rng.BLOCK steps at a
    # time; one cumsum over all the gaps then adds the same terms in the
    # same order.
    steps, gaps = [], []
    for start in range(0, T, rng.BLOCK):
        block = slice(start, start + rng.BLOCK)
        diff = gap[block]
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
    """A group of policies on one replication, sharing one draw of its streams.

    Its abse policies are replayed together, from one sort of the
    covariates; each holds its int8 actions until its episode accounts
    for them.
    """
    instance_spec, T, policy_specs, rep, base_seed, stride = args
    instance = make_instance(instance_spec, T)
    streams = draw_streams(instance, T, base_seed, rep)
    abse = [ps.build(instance, T).config for ps in policy_specs if ps.kind == "abse"]
    replayed = iter(fast.abse_group_actions(abse, streams.X, streams.rewards)
                    if abse else [])
    return [run_episode(instance, ps, T, base_seed, checkpoint_stride=stride,
                        rep=rep, streams=streams,
                        actions=next(replayed) if ps.kind == "abse" else None)
            for ps in policy_specs]


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
