"""Deterministic episode runner, replicated experiments, and metrics.

Episodes are pure functions of (instance, policy spec, T, seed, rep):
covariates and per-(t, arm) noise uniforms are pre-drawn from
counter-based streams (see rng.py), and each reward is made from its
uniform and its covariate's payoff on first read (`Rewards`), so
replaying a configuration is bit-exact and two policies compared at the
same (seed, rep) see identical covariates and identical counterfactual
rewards (paired comparisons / common random numbers).  Every episode runs
on the vectorized engine of its policy (`fast.run_fast`), and the abse
policies of one task are replayed together (`fast.abse_group_actions`);
the sequential policies are the reference those engines are tested
against.  A replication runs the engines that read rewards first and
releases its rewards; only then is the payoff gap F0 - F1 made, once,
which the oracle and each episode's regret accounting read.  The draw
evaluates no payoff, and the gap's pass checks Bernoulli means.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .abse import AbsePolicy
from .instances import ProblemInstance, check_integer, check_noise, make_instance
from .policies import OraclePolicy, PolicySpec
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
    are never made, nor are their payoffs.  No read checks that Bernoulli
    payoffs lie in [0, 1]; `payoff_gap` does.  Rows are the replication's
    steps for every reader, SACB's handoff to ABSE from t_sacb on included.
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


def draw_streams(instance: ProblemInstance, T: int, seed: int,
                 rep: int = 0) -> tuple[np.ndarray, Rewards]:
    """Covariates X, shape (T, d), and rewards of replication (seed, rep).

    Every policy run on that replication reads these same covariates and
    rewards.  No payoff is evaluated here, under either noise model:
    `Rewards` makes each payoff a read needs, and the payoff gap that the
    regret accounting reads is made after the engines (`payoff_gap`).
    """
    X = rng.covariate_block(seed, rep, T, instance.d)
    u = np.empty((2, T))
    for arm in (1, 2):
        rng.noise_uniform_block(seed, rep, T, arm, out=u[arm - 1])
    return X, Rewards(X, u, instance)


def payoff_gap(instance: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """The payoff gaps F0 - F1 at the covariates X, shape (T,), made
    rng.BLOCK points at a time.  The one pass that evaluates every step's
    payoffs, it checks under Bernoulli noise that each block's means lie
    in [0, 1]: a mean outside, or NaN, is a ValueError."""
    bernoulli = check_noise(instance.noise)[0] == "bernoulli"
    gap = np.empty(len(X))
    for start in range(0, len(X), rng.BLOCK):
        F = instance.payoffs(X[start:start + rng.BLOCK])
        if bernoulli:
            lo, hi = float(np.min(F)), float(np.max(F))
            if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
                raise ValueError(
                    f"Bernoulli payoff means must lie in [0,1], saw [{lo}, {hi}]")
        np.subtract(F[:, 0], F[:, 1], out=gap[start:start + len(F)])
    return gap


def _play(instance: ProblemInstance, policies, T: int, seed: int,
          rep: int) -> tuple[list, np.ndarray]:
    """The actions of each policy on replication (seed, rep), and the gap.

    The engines that read rewards run first: the abse policies together
    (`fast.abse_group_actions`), from one sort of the covariates, then
    SACB and fixed arms through `fast.run_fast`.  The rewards are then
    released, the gap is made, so it never sits next to them, and the
    oracle takes its actions from the gap.
    """
    X, rewards = draw_streams(instance, T, seed, rep)
    abse = [p.config for p in policies if isinstance(p, AbsePolicy)]
    replayed = iter(fast.abse_group_actions(abse, X, rewards) if abse else [])
    actions = [next(replayed) if isinstance(p, AbsePolicy)
               else None if isinstance(p, OraclePolicy)
               else fast.run_fast(p, X, rewards) for p in policies]
    del rewards
    gap = payoff_gap(instance, X)
    return [fast.run_fast(p, X, None, gap) if a is None else a
            for p, a in zip(policies, actions)], gap


def run_episode(instance: ProblemInstance, policy_spec: PolicySpec, T: int,
                seed: int, checkpoint_stride: int | None = None, rep: int = 0,
                played=None) -> RegretTrace:
    """One seeded episode of policy_spec; returns the regret trace.

    The episode runs on the vectorized engine of the policy the spec
    builds, on the streams of replication (seed, rep), and then accounts
    for its actions against the payoff gap.  played, if given, is
    (policy, actions, gap): the policy the spec built, its actions already
    replayed on those streams with the other policies of its replication,
    and the replication's gap (`_play`); the episode then only accounts
    for them.  A gap of another length, or a checkpoint_stride (None:
    max(1, T // 100)) that is not an integer >= 1, is a ValueError.
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    stride = (max(1, T // 100) if checkpoint_stride is None
              else check_integer(checkpoint_stride, "checkpoint_stride", low=1))
    if played is None:
        policy = policy_spec.build(instance, T)
        (actions,), gap = _play(instance, [policy], T, seed, rep)
    else:
        policy, actions, gap = played
        if len(gap) != T:
            raise ValueError(f"streams hold {len(gap)} steps, but the horizon is {T}")

    # A step is inferior iff the other arm pays strictly more.  Its regret,
    # best - chosen, is then |gap| = |F0 - F1| bit for bit, and +0.0
    # otherwise.  The sums run over the inferior steps alone: a skipped
    # +0.0 term leaves the non-negative running sum's bits unchanged
    # (x + 0.0 == x), and the inferior count at step m is the number of
    # them up to m.  The steps are taken rng.BLOCK at a time, and the
    # running sum is carried into each block's cumsum through its first
    # term, so the terms are added in the order of one cumsum over the
    # whole stream, with no temporary longer than a block.
    marks = np.arange(stride - 1, T, stride)
    if not len(marks) or marks[-1] != T - 1:
        marks = np.append(marks, T - 1)
    checkpoints = []
    total, count = 0.0, 0
    for start in range(0, T, rng.BLOCK):
        diff = gap[start:start + rng.BLOCK]
        inferior = (diff < 0) == (actions[start:start + rng.BLOCK] == 1)
        inferior &= diff != 0
        t = np.flatnonzero(inferior)
        cum = np.abs(diff[t])               # cum[k]: through inferior step t[k]
        if len(cum):
            cum[0] += total
            np.cumsum(cum, out=cum)
        at = marks[np.searchsorted(marks, start):np.searchsorted(marks, start + len(diff))]
        for m, k in zip(at.tolist(), np.searchsorted(t, at - start, side="right").tolist()):
            checkpoints.append((m + 1, float(cum[k - 1]) if k else total, count + k))
        if len(cum):
            total = float(cum[-1])
        count += len(t)
    return RegretTrace(
        checkpoints=tuple(checkpoints),
        final_regret=total,
        inferior_count=count,
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

    Every engine runs first, then the gap is made, and each episode
    accounts for its policy's int8 actions (`_play`).
    """
    instance_spec, T, policy_specs, rep, base_seed, stride = args
    instance = make_instance(instance_spec, T)
    policies = [ps.build(instance, T) for ps in policy_specs]
    actions, gap = _play(instance, policies, T, base_seed, rep)
    return [run_episode(instance, ps, T, base_seed, checkpoint_stride=stride,
                        rep=rep, played=(policy, a, gap))
            for ps, policy, a in zip(policy_specs, policies, actions)]


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
    parallelism = check_integer(parallelism, "parallelism", low=1)
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
