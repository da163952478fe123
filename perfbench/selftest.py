"""Self-test of the benchmark at tiny horizons (about 20 s on 2 cores).

    python3 perfbench/selftest.py

Checks, on shrunken copies of the three workloads:
* the exact counts (EXACT_COUNTS and sim.pool_starts) repeat exactly
  between two traced measurements of the same inputs;
* every end-to-end and per-layer metric in BENCHMARK.json is printed, by
  name and with its unit, and the last stdout line is the result object;
* the output check rejects a tampered results.csv;
* predictions.json names only workloads and metrics that exist;
* without the program source the benchmark exits non-zero and prints no
  result.
Exits 1 and lists the failures when any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Setting 1 needs its oscillation scale pinned below T = 5e4.
TINY = {"table-sweep": {"T": 4_000, "reps": 1, "instance": {
            "kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}},
        "power-estimate": {"T": 200_000, "reps": 2},
        "sacb-degree1": {"T": 20_000, "reps": 2}}
SEED = 7

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    check(SEED != reference["seed"], "self-test seed differs from the reference seed")
    run.WORK = run.ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(run.WORK, ignore_errors=True)
    for name, tiny in TINY.items():
        run.WORKLOADS[name]["config"].update(tiny)
    sys.path.insert(0, str(run.SRC))

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e_units == run.END_TO_END_UNITS, "end-to-end names and units match")

    for name in run.WORKLOADS:
        layers = []
        for attempt in range(2):
            r = run.Run(name, SEED, 1)
            values, _ = run.traced(r, 0)
            check(r.failed == 0, f"{name}: traced calls pass the output check {r.problems}")
            layers.append(values)
        for key in run.EXACT_COUNTS + ("sim.pool_starts",):
            check(layers[0][key] == layers[1][key],
                  f"{name}: {key} repeats exactly ({layers[0][key]}, {layers[1][key]})")
        check(set(layer_units) <= set(layers[0]), f"{name}: every per-layer metric measured")
        print(f"      {name}: unique_block_ratio {layers[0]['rng.unique_block_ratio']:.4g}, "
              f"distinct_episode_ratio {layers[0]['sim.distinct_episode_ratio']:.4g}, "
              f"fit_calls {layers[0]['locpoly.fit_calls']}, "
              f"pool_starts {layers[0]['sim.pool_starts']}")

        text = (r.dir / "out" / "results.csv").read_text()
        rows = text.splitlines()
        cols = rows[1].split(",")
        cols[7] = "-1"
        tampered = "\n".join([rows[0], ",".join(cols)] + rows[2:])
        check(bool(run.check_results(name, SEED, tampered)),
              f"{name}: output check rejects a negative mean_regret")

        for trace, units in ((0, e2e_units), (1, layer_units)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.main(["--workload", name, "--seed", str(SEED),
                               "--seconds", "0", "--trace", str(trace)])
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            check(rc == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{name} trace {trace}: run passes")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace {trace}: result has exactly the four keys")
            check({k: m["unit"] for k, m in result["metrics"].items()} == units,
                  f"{name} trace {trace}: every metric reported with its unit")
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines if ln.startswith("  ")}
            check(all(printed.get(k) == u for k, u in units.items())
                  and "failed_frac" in printed,
                  f"{name} trace {trace}: every metric printed with its unit")

    predictions = json.loads((HERE / "predictions.json").read_text())
    known = set(e2e_units) | set(layer_units) | {"failed_frac"}
    check(set(predictions["workloads"]) == set(run.WORKLOADS),
          "predictions.json describes every workload")
    for p in predictions["predictions"]:
        names = p["layer_metrics"] + p["moves"]
        check(set(names) <= known and set(p["on"] + p["not_on"]) <= set(run.WORKLOADS),
              f"predictions.json names exist: {names[0]}...")

    bare = run.WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "table-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the program source: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
