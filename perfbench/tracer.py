"""Outside-in span tracer for the `banditlab run` episode path.

The program is not instrumented.  `instrument` replaces each traced public
function at the place where the caller looks it up (a module attribute or
a class attribute) with a wrapper that records a span: name, parent span,
start and end.  Functions imported by name into another module, such as
`fast.fit_local_polynomial` or `cli.run_experiment`, are wrapped in the
importing module, because replacing the defining module's attribute would
not reach those callers.  Spans stay in memory until the run ends.

Spans nest correctly only in one thread of one process, so traced runs use
`threads = 1`.
"""

from __future__ import annotations

import functools
import pathlib
import time
from collections import Counter


class Tracer:
    """In-memory span recorder with exact per-layer counters."""

    def __init__(self):
        self.spans = []               # (name, parent index or -1, start, end)
        self.counts = Counter()
        self.block_keys = set()       # distinct random-stream blocks drawn
        self.episode_keys = set()     # distinct episodes run
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        count, when given, is called as count(tracer, args, kwargs, result)
        after each call to update counters.
        """
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if count is not None:
                count(self, args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def totals(self):
        """Per span name: total duration, self duration and call count.

        Self time is a span's duration minus the durations of its direct
        children; in one thread children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls


def write_spans(path: pathlib.Path, tracers: list) -> None:
    """Write the spans of several traced calls as CSV, one row per span."""
    with open(path, "w") as fh:
        fh.write("call,index,parent,name,start,end\n")
        for call, tracer in enumerate(tracers, 1):
            for i, (name, parent, start, end) in enumerate(tracer.spans):
                fh.write(f"{call},{i},{parent},{name},{start:.9f},{end:.9f}\n")


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _block(tag: str):
    """Counter for rng block draws keyed by (tag, base_seed, rep, T, d|arm)."""
    def count(tr, args, kwargs, out):
        tr.counts["rng.blocks"] += 1
        tr.block_keys.add((tag,) + tuple(int(a) for a in args[:4]))
    return count


def _payoff_points(tr, args, kwargs, out):
    tr.counts["instances.payoff_points"] += len(out)


def _steps(key: str):
    def count(tr, args, kwargs, out):
        tr.counts[key] += len(out)
    return count


def _fit(tr, args, kwargs, out):
    tr.counts["locpoly.degenerate"] += bool(out.degenerate)


def _episode(tr, args, kwargs, out):
    instance, spec, T, seed = args[:4]
    tr.episode_keys.add((
        instance.name, repr(sorted(instance.meta.items())),
        spec.kind, repr(sorted(spec.params.items())),
        int(T), int(seed), int(_arg(args, kwargs, 5, "rep", 0)),
    ))


def _bytes(tr, args, kwargs, out):
    tr.counts["cli.bytes_written"] += len(
        _arg(args, kwargs, 1, "data").encode(_arg(args, kwargs, 2, "encoding") or "utf-8"))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every module on the `run` path."""
    from banditlab import cli, fast, instances, policies, rng, sim

    tracer.wrap(rng, "covariate_block", "rng.covariate", _block("covariate"))
    tracer.wrap(rng, "noise_uniform_block", "rng.noise", _block("noise"))
    tracer.wrap(rng, "gaussian_from_uniform", "rng.gaussian")
    tracer.wrap(instances.ProblemInstance, "payoffs", "instances.payoffs",
                _payoff_points)
    tracer.wrap(sim, "make_instance", "instances.make")
    tracer.wrap(policies.PolicySpec, "build", "policies.build")
    tracer.wrap(fast, "run_fast", "fast.dispatch")
    tracer.wrap(fast, "abse_actions", "fast.abse", _steps("fast.abse_steps"))
    tracer.wrap(fast, "sacb_actions", "fast.sacb", _steps("fast.sacb_steps"))
    tracer.wrap(fast, "fit_local_polynomial", "locpoly.fit", _fit)
    tracer.wrap(sim, "run_episode", "sim.episode", _episode)
    tracer.wrap(cli, "run_experiment", "sim.experiment")
    tracer.wrap(cli, "parse_config", "cli.parse")
    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(pathlib.Path, "write_text", "cli.write", _bytes)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer busy time, self time and counts of one traced run."""
    total, own, calls = tracer.totals()
    c = tracer.counts
    blocks = c["rng.blocks"]
    fits = calls["locpoly.fit"]
    tasks = calls["sim.episode"]
    return {
        "rng.covariate_s": total["rng.covariate"],
        "rng.noise_s": total["rng.noise"] + total["rng.gaussian"],
        "rng.blocks": blocks,
        "rng.unique_block_ratio": len(tracer.block_keys) / blocks if blocks else 0.0,
        "instances.payoffs_s": total["instances.payoffs"],
        "instances.payoff_points": c["instances.payoff_points"],
        "instances.make_s": total["instances.make"],
        "policies.build_s": total["policies.build"],
        "policies.builds": calls["policies.build"],
        "fast.abse_s": total["fast.abse"],
        "fast.abse_steps": c["fast.abse_steps"],
        "fast.sacb_s": own["fast.sacb"],
        "fast.sacb_steps": c["fast.sacb_steps"],
        "locpoly.fit_s": total["locpoly.fit"],
        "locpoly.fit_calls": fits,
        "locpoly.degenerate_ratio": c["locpoly.degenerate"] / fits if fits else 0.0,
        "sim.episode_s": total["sim.episode"],
        "sim.self_s": own["sim.episode"],
        "sim.tasks": tasks,
        "sim.distinct_episode_ratio": len(tracer.episode_keys) / tasks if tasks else 0.0,
        "cli.parse_s": total["cli.parse"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": c["cli.bytes_written"],
    }
