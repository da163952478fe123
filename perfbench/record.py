"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 1-10 [--workloads table-sweep,...]
                                [--trace 0|1] [--append LABEL]

Runs `perfbench/run.py` once per (workload, seed) as a separate process,
the way the benchmark is driven, and prints for every metric, with its
unit, the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json, and the share of episodes that failed (failed_frac).
All run results are saved under .perfbench_out/records/.  With --append,
the medians are added to perfbench/trajectory.json under LABEL, together
with the machine metadata of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns its final JSON line and metadata."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return json.loads(lines[-1]), meta


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", metavar="LABEL")
    args = ap.parse_args(argv)

    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    record_dir = ROOT / ".perfbench_out" / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    summary, first_meta, raw = {}, None, []
    for workload in args.workloads.split(","):
        per_metric, units, attempted, failed = {}, {}, 0, 0
        for seed in parse_seeds(args.seeds):
            result, meta = run_once(workload, seed, spec["run_seconds"], args.trace)
            first_meta = first_meta or meta
            raw.append({"workload": workload, "seed": seed, "result": result,
                        "meta": meta})
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
        print(f"  {workload:<15} {'failed_frac':<28} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} episodes)")
        for name, s in summary[workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None else (
                f" bound {bound:g} {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {workload:<15} {name:<28} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} {units[name]:<8} "
                  f"spread {s['spread']:.4f}{flag}")
    (record_dir / f"{stamp}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "runs": raw}, indent=1))

    if args.append:
        path = HERE / "trajectory.json"
        trajectory = json.loads(path.read_text()) if path.exists() else []
        entry = next((e for e in trajectory if e["label"] == args.append), None)
        if entry is None:
            entry = {"label": args.append, "machine": {
                k: first_meta[k] for k in ("nproc", "usable_cpus", "workers", "cpu_model",
                                           "machine", "python", "numpy", "scipy")},
                "git_commit": first_meta["git_commit"],
                "source_sha256": first_meta["source_sha256"],
                "run_seconds": spec["run_seconds"], "workloads": {}}
            trajectory.append(entry)
        for workload, metrics in summary.items():
            entry["workloads"].setdefault(workload, {})[section] = {
                "seeds": args.seeds,
                **{name: {k: s[k] for k in ("median", "q1", "q3", "n")}
                   for name, s in metrics.items()}}
        path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
