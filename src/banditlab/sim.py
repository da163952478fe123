"""Deterministic episode runner, replicated experiments, and metrics.

Episodes are pure functions of (instance, policy spec, T, seed, rep):
covariates and per-(t, arm) reward noise are pre-drawn from counter-based
streams (see rng.py), so replaying a configuration is bit-exact and two
policies compared at the same (seed, rep) see identical covariates and
identical counterfactual rewards (paired comparisons / common random
numbers).
"""

from __future__ import annotations

import concurrent.futures
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .instances import ProblemInstance, make_instance
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

    policy: str
    reps: int
    mean_regret: float
    sd: float
    ci95: float | None
    mean_t_sacb: float | None
    mean_beta_hat: float | None
    traces: tuple = field(default_factory=tuple)


def _draw_rewards(instance: ProblemInstance, F: np.ndarray, seed: int,
                  rep: int, T: int) -> np.ndarray:
    Y = np.empty_like(F)
    if instance.noise[0] == "bernoulli":
        lo, hi = float(np.min(F)), float(np.max(F))
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(
                f"Bernoulli payoff means must lie in [0,1], saw [{lo}, {hi}]")
    for arm in (1, 2):
        u = rng.noise_uniform_block(seed, rep, T, arm)
        if instance.noise[0] == "gaussian":
            Y[:, arm - 1] = F[:, arm - 1] + instance.noise[1] * rng.gaussian_from_uniform(u)
        elif instance.noise[0] == "bernoulli":
            Y[:, arm - 1] = (u < F[:, arm - 1]).astype(np.float64)
        else:
            raise ValueError(f"unknown noise model {instance.noise!r}")
    return Y


def run_episode(instance: ProblemInstance, policy_spec, T: int, seed: int,
                checkpoint_stride: int | None = None, rep: int = 0,
                force_sequential: bool = False) -> RegretTrace:
    """One seeded episode; returns the regret trace.

    policy_spec may be a PolicySpec (vectorized engine when available) or a
    live policy object (always run step by step).
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    stride = checkpoint_stride or max(1, T // 100)
    X = rng.covariate_block(seed, rep, T, instance.d)
    F = instance.payoffs(X[:, 0] if instance.d == 1 else X)
    Y = _draw_rewards(instance, F, seed, rep, T)

    if isinstance(policy_spec, PolicySpec):
        policy = policy_spec.build(instance, T)
    else:
        policy = policy_spec

    actions = None
    if not force_sequential:
        actions = fast.run_fast(policy, X, Y)
    if actions is None:
        actions = np.zeros(T, dtype=np.int8)
        for t in range(T):
            x = X[t]
            arm = policy.choose(x)
            policy.update(x, arm, Y[t, arm - 1])
            actions[t] = arm

    chosen = F[np.arange(T), actions - 1]
    best = np.max(F, axis=1)
    step_regret = best - chosen
    cum_regret = np.cumsum(step_regret)
    cum_inferior = np.cumsum(chosen < best)

    marks = list(range(stride - 1, T, stride))
    if not marks or marks[-1] != T - 1:
        marks.append(T - 1)
    checkpoints = tuple(
        (m + 1, float(cum_regret[m]), int(cum_inferior[m])) for m in marks
    )
    return RegretTrace(
        checkpoints=checkpoints,
        final_regret=float(cum_regret[-1]),
        inferior_count=int(cum_inferior[-1]),
        t_sacb=getattr(policy, "t_sacb", None),
        beta_hat=getattr(policy, "beta_hat", None),
        seed=seed,
        rep=rep,
    )


def summarize(traces, policy_label: str = "") -> ExperimentSummary:
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
        policy=policy_label,
        reps=reps,
        mean_regret=float(np.mean(finals)),
        sd=sd,
        ci95=ci,
        mean_t_sacb=float(np.mean(t_sacbs)) if t_sacbs else None,
        mean_beta_hat=float(np.mean(beta_hats)) if beta_hats else None,
        traces=traces,
    )


def _episode_cell(args):
    instance_spec, T, policy_spec, rep, base_seed, stride = args
    instance = (instance_spec if isinstance(instance_spec, ProblemInstance)
                else make_instance(instance_spec, T))
    return run_episode(instance, policy_spec, T, base_seed,
                       checkpoint_stride=stride, rep=rep)


def dedup_labels(policy_specs) -> list:
    """Stable labels for a policy list; duplicates get #index suffixes."""
    labels = [ps.label() if isinstance(ps, PolicySpec) else str(ps)
              for ps in policy_specs]
    if len(set(labels)) != len(labels):
        labels = [f"{lab}#{i}" for i, lab in enumerate(labels)]
    return labels


def run_experiment(instance_spec, policy_specs, T: int, reps: int,
                   base_seed: int, parallelism: int = 1,
                   checkpoint_stride: int | None = None) -> dict:
    """Replicated, paired comparison of several policies on one instance.

    Replication r of every policy consumes the same covariate and noise
    streams (keyed by (base_seed, r)), so cross-policy comparisons are
    paired.  Results are keyed by policy label and deterministic in content
    regardless of parallelism.

    instance_spec is either a ProblemInstance or a dict understood by
    `instances.make_instance` (required for process-based parallelism; a
    ProblemInstance with parallelism > 1 runs serially with a RuntimeWarning).
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    specs = list(policy_specs)
    labels = dedup_labels(specs)

    cells = [
        (instance_spec, T, ps, rep, base_seed, checkpoint_stride)
        for ps in specs for rep in range(reps)
    ]
    if parallelism > 1 and isinstance(instance_spec, dict):
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallelism) as ex:
            results = list(ex.map(_episode_cell, cells, chunksize=1))
    else:
        if parallelism > 1:
            warnings.warn(
                f"run_experiment(parallelism={parallelism}) got a ProblemInstance, "
                "which worker processes cannot rebuild; running serially (pass "
                "an instance spec dict to run in parallel)",
                RuntimeWarning, stacklevel=2)
        results = [_episode_cell(c) for c in cells]

    out = {}
    for i, (label, ps) in enumerate(zip(labels, specs)):
        traces = results[i * reps:(i + 1) * reps]
        out[label] = summarize(traces, policy_label=label)
    return out
