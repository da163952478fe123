"""banditlab benchmark: `banditlab run` on three generated workloads.

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 25 --trace 0

Each workload is a JSON config generated from the workload seed and run
in-process through the user-facing path, `banditlab.cli.main(["run", ...])`,
with `threads = min(2, nproc)` pool workers.

--trace 0  repeats the untraced call until --seconds have passed (at least
           one call) and reports the end-to-end metrics, each the median
           over calls: setup_s, wall_s, steps_per_s, cpu_s, peak_rss_mb.
           setup_s is the CPU time of import, parse_config and
           make_instance in a fresh interpreter, median of one before each
           call and at least five in all.
--trace 1  runs the same inputs once untraced with the workload's workers,
           then alternates untraced and traced serial (threads = 1) calls
           until --seconds have passed, and reports per-layer metrics (see
           tracer.py).  Spans are written to .perfbench_out/ at exit.

Every call's results.csv is checked (see `check_results`); a non-zero exit,
an exception or a failed check fails every episode of that call.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 1 when any call failed and 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# Workload seed s runs on base seed SEED_STRIDE * s.  rng.derive_key adds its
# tokens before mixing, so the streams of (base_seed, rep) are those of
# (base_seed + 1, rep - 1); spacing the base seeds wider than any workload's
# reps keeps the inputs of different workload seeds disjoint.
SEED_STRIDE = 1000

RESULTS_HEADER = ("config_hash,instance,beta,tilde_beta,policy,T,reps,"
                  "mean_regret,sd,ci95,mean_t_sacb,mean_beta_hat,relative_loss")
TILDE_SWEEP = [0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
POWER_SACB = {"kind": "sacb", "gamma": 0.42, "q": 1.5, "upsilon": 2.5,
              "beta_lo": 0.6, "beta_hi": 0.9}

# Why each workload exists, and which layer metric should move which
# end-to-end metric on it, is recorded in predictions.json.
WORKLOADS = {
    # configs/table_setting1.json at T = 2e5: 13 cells x 3 policies, each
    # cell its own run_experiment (pool start, 39 episodes per replication,
    # 14 of them distinct).
    "table-sweep": {
        "config": {
            "instance": {"kind": "setting1", "beta": 0.9},
            "policies": [{"kind": "sacb"}, {"kind": "abse", "beta": 0.9},
                         {"kind": "abse"}],
            "T": 200_000, "reps": 1,
            "sweep": {"tilde_beta": TILDE_SWEEP},
        },
        "rows": 39, "reference_rows": 12,
    },
    # configs/smoothness_estimation.json SACB alone at T = 2e6: few long
    # episodes, big arrays, degree-0 estimation then ABSE handoff.
    "power-estimate": {
        "config": {
            "instance": {"kind": "power", "beta": 0.6, "delta": 1.0},
            "policies": [POWER_SACB],
            "T": 2_000_000, "reps": 4,
        },
        "rows": 1, "reference_rows": 0,
    },
    # The same SACB with beta_hi = 1.5: degree-1 local-polynomial fits.
    # An episode makes 4k to 29k fits, depending on when the test fires, so
    # 24 replications keep the work per call steady across seeds.
    "sacb-degree1": {
        "config": {
            "instance": {"kind": "power", "beta": 0.6, "delta": 1.0},
            "policies": [{**POWER_SACB, "beta_hi": 1.5}],
            "T": 200_000, "reps": 24,
        },
        "rows": 1, "reference_rows": 0,
    },
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}

# Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = ("rng.blocks", "instances.payoff_points", "policies.builds",
                "fast.abse_steps", "fast.sacb_steps", "locpoly.fit_calls",
                "sim.tasks", "cli.bytes_written")

# Set-up is timed as CPU seconds of the fresh interpreter (all threads):
# on a shared host the wall time of this half-second import swings by a
# third with neighbouring load, its CPU time by a few percent.
SETUP_SNIPPET = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import banditlab.cli as cli
from banditlab.instances import make_instance
cfg = cli.parse_config(sys.argv[2])
make_instance(cfg["instance"], cfg["T"])
print(time.process_time() - t0)
"""


def workers() -> int:
    """Pool size: two workers, never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def workload_config(name: str, seed: int, threads: int) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name]["config"]))
    cfg.update(base_seed=SEED_STRIDE * seed, threads=threads, output_dir="out")
    return cfg


def episodes_per_call(name: str) -> int:
    w = WORKLOADS[name]
    return w["rows"] * w["config"]["reps"]


# ---------------------------------------------------------------------------
# output checks


def canonical(text: str) -> str:
    """results.csv without comment lines and without the config_hash column.

    The hash covers the thread count, so serial and parallel runs of the
    same inputs differ only there.
    """
    return "\n".join(ln.split(",", 1)[1] for ln in text.splitlines()
                     if ln and not ln.startswith("#"))


def digest(text: str) -> str:
    return hashlib.sha256(canonical(text).encode()).hexdigest()


def _num(s: str) -> float | None:
    return float(s) if s else None


def check_results(name: str, seed: int, text: str) -> list[str]:
    """Problems found in one results.csv; empty when it is correct.

    At the committed seed the canonical digest must match reference.json.
    At every seed: row count, header, T and reps columns, finite
    non-negative mean_regret, relative_loss = 0 on each abse(beta) reference
    row, SACB audit columns in range, and paired streams (the same policy
    has the same regret in every sweep cell).
    """
    w = WORKLOADS[name]
    cfg = w["config"]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != RESULTS_HEADER:
        return ["results.csv header differs"]
    cols = RESULTS_HEADER.split(",")
    rows = [dict(zip(cols, ln.split(","))) for ln in lines[1:]]
    problems = []
    if len(rows) != w["rows"]:
        problems.append(f"{len(rows)} rows, expected {w['rows']}")
    hashes = {r["config_hash"] for r in rows}
    if len(hashes) != 1 or not re.fullmatch(r"[0-9a-f]{12}", hashes.pop()):
        problems.append("config_hash not one 12-digit hex value")
    by_policy = {}
    n_ref = 0
    for r in rows:
        try:
            T, reps = int(r["T"]), int(r["reps"])
            regret = float(r["mean_regret"])
            t_sacb, beta_hat = _num(r["mean_t_sacb"]), _num(r["mean_beta_hat"])
            rel = _num(r["relative_loss"])
        except ValueError as e:
            problems.append(f"unparsable row {r}: {e}")
            continue
        if T != cfg["T"] or reps != cfg["reps"]:
            problems.append(f"row {r['policy']}: T/reps {T}/{reps}")
        if not (math.isfinite(regret) and regret >= 0):
            problems.append(f"row {r['policy']}: mean_regret {regret}")
        if r["policy"].startswith("sacb"):
            if t_sacb is None or not 0 < t_sacb <= T:
                problems.append(f"row {r['policy']}: mean_t_sacb {t_sacb}")
            if beta_hat is None or not 0 < beta_hat <= 2:
                problems.append(f"row {r['policy']}: mean_beta_hat {beta_hat}")
        m = re.fullmatch(r"abse\(([0-9.]+)\)", r["policy"])
        if m and float(m.group(1)) == float(r["beta"]):
            n_ref += 1
            if rel != 0:
                problems.append(f"reference row {r['policy']}: relative_loss {rel}")
        key = (r["policy"].split("#")[0], r["beta"])
        by_policy.setdefault(key, set()).add((r["mean_regret"], r["sd"]))
    if n_ref != w["reference_rows"]:
        problems.append(f"{n_ref} abse(beta) reference rows, expected {w['reference_rows']}")
    for key, vals in by_policy.items():
        if len(vals) > 1:
            problems.append(f"policy {key[0]} differs between sweep cells: {sorted(vals)}")
    ref = json.loads((HERE / "reference.json").read_text())
    if seed == ref["seed"] and digest(text) != ref["sha256"][name]:
        problems.append(f"results.csv digest differs from reference.json at seed {seed}")
    return problems


# ---------------------------------------------------------------------------
# measurement


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


class Run:
    """One workload at one seed: generated config, calls and their checks."""

    def __init__(self, name: str, seed: int, trace: int):
        self.name, self.seed = name, seed
        self.dir = WORK / f"{name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(
            workload_config(name, seed, workers()), indent=2))
        self.attempted = self.failed = 0
        self.problems = []
        self.first_text = None

    def call(self, threads: int | None = None):
        """One checked `banditlab run`; returns (wall seconds, CPU seconds)."""
        from banditlab import cli

        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", str(self.config_path), "--out", str(out)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        n = episodes_per_call(self.name)
        self.attempted += n
        stdout = io.StringIO()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except Exception as e:  # a crash in the program fails this call
            rc = f"{type(e).__name__}: {e}"
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if rc != 0:
            problems = [f"banditlab run returned {rc}"]
        else:
            text = (out / "results.csv").read_text()
            problems = check_results(self.name, self.seed, text)
            if self.first_text is None:
                self.first_text = text
            elif canonical(text) != canonical(self.first_text):
                problems.append("results.csv differs from this run's first call")
        if problems:
            self.failed += n
            self.problems.extend(problems)
        return wall, cpu

    def setup_seconds(self) -> float:
        """CPU seconds of import, parse_config and make_instance in a fresh
        interpreter."""
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(self.config_path)],
            capture_output=True, text=True, timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics (medians over calls) and the raw samples.

    One set-up is timed before each call, and more after the last call up
    to SETUP_REPEATS, so that the set-up samples span the run as the calls do.
    """
    cfg = WORKLOADS[run.name]["config"]
    steps = episodes_per_call(run.name) * cfg["T"]
    setup, walls, cpus = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        setup.append(run.setup_seconds())
        wall, cpu = run.call()
        walls.append(wall)
        cpus.append(cpu)
    while len(setup) < SETUP_REPEATS:
        setup.append(run.setup_seconds())
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "steps_per_s": statistics.median(steps / w for w in walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"setup_s": setup, "wall_s": walls, "cpu_s": cpus,
                     "steps_per_call": steps}


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced serial calls, and the raw samples."""
    from tracer import Tracer, instrument, layer_metrics, write_spans

    n_workers = workers()
    pools = Tracer()
    pools.wrap(concurrent.futures, "ProcessPoolExecutor", "sim.pool")
    try:
        parallel_wall, _ = run.call()
    finally:
        pools.restore()
    pool_starts = pools.totals()[2]["sim.pool"]

    serial, traced_walls, tracers = [], [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        wall, _ = run.call(threads=1)
        serial.append(wall)
        tracer = Tracer()
        instrument(tracer)
        try:
            wall, _ = run.call(threads=1)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        tracers.append(tracer)
    write_spans(run.dir / "spans.csv", tracers)
    layers = [layer_metrics(t) for t in tracers]

    for key in EXACT_COUNTS:
        if len({m[key] for m in layers}) > 1:
            run.problems.append(f"{key} differs between traced calls: "
                                f"{[m[key] for m in layers]}")
            run.failed = run.attempted
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    serial_wall = statistics.median(serial)
    metrics.update({
        "sim.pool_starts": pool_starts,
        "sim.pool_efficiency": metrics["sim.episode_s"] / (n_workers * parallel_wall),
        "trace_overhead_frac": statistics.median(traced_walls) / serial_wall - 1.0,
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
    })
    return metrics, {"serial_wall_s": serial, "traced_wall_s": traced_walls,
                     "layers": layers}


# ---------------------------------------------------------------------------
# reporting


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metadata(name: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "banditlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "workers": workers(), "cpu_model": _cpu_model(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "banditlab" / "cli.py").is_file():
        print(f"program source not found at {SRC / 'banditlab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import banditlab.cli  # noqa: F401  (compiles the sources before set-up is timed)

    meta = metadata(args.workload, args.seed, args.trace)
    run = Run(args.workload, args.seed, args.trace)
    if args.trace:
        values, samples = traced(run, args.seconds)
        units = per_layer_units()
    else:
        values, samples = untraced(run, args.seconds)
        units = END_TO_END_UNITS
    meta["loadavg_end"] = os.getloadavg()

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    (run.dir / "result.json").write_text(json.dumps(
        {"meta": meta, "result": result, "samples": samples,
         "problems": run.problems}, indent=1))

    print("meta " + json.dumps(meta))
    for p in run.problems:
        print(f"FAILED CHECK: {p}")
    print(f"{args.workload} seed {args.seed}: {run.attempted} episodes attempted")
    print(f"  {'failed_frac':<28} {run.failed / run.attempted:.6g} ratio")
    for k, m in result["metrics"].items():
        print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
