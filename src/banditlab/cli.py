"""Config-driven experiment runner.

Subcommands
-----------
run     execute the experiment grid, write results.csv (+ traces, plotdata)
verify  grade the configured instance's declared properties
levels  print the SACB level arithmetic for the configured policy
plot    regenerate plot/table CSVs and SVG charts from results.csv

The config file is JSON; `parse_config` fills defaults (Table-reproduction
values for setting1/setting2 policies) and normalizes it to a canonical
form whose SHA-256 prefix stamps every output file.  Exit codes: 0 ok,
2 config error, 3 runtime failure (with a manifest of completed cells).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import BanditLabError, ValidationError
from .instances import (check_holder, check_margin, check_self_similarity,
                        make_instance)
from .partition import sacb_levels
from .policies import PolicySpec
from .sim import dedup_labels, run_experiment

RESULTS_HEADER = ("config_hash,instance,beta,tilde_beta,policy,T,reps,"
                  "mean_regret,sd,ci95,mean_t_sacb,mean_beta_hat,relative_loss")
PLOT_HEADER = "x,mean,ci_lo,ci_hi"

# Experiment-reproduction defaults (the published parameter table).
SACB_DEFAULTS = {"gamma": 0.145, "q": 1.1, "upsilon": 0.325,
                 "beta_lo": 0.4, "beta_hi": 1.0, "gamma_abse": 2.0,
                 "c0": 2.0, "handoff_horizon": "full"}
ABSE_DEFAULTS = {"c0": 2.0, "gamma_abse": 2.0}
INSTANCE_KINDS = ("setting1", "setting2", "power", "lower_bound", "example1")
POLICY_KINDS = ("sacb", "abse", "oracle", "fixed")


def fmt(x) -> str:
    """Locale-independent fixed-point formatting, 6 significant digits."""
    if x is None:
        return ""
    if isinstance(x, float):
        if not math.isfinite(x):
            return repr(x)
        out = np.format_float_positional(x, precision=6, unique=False,
                                         fractional=False, trim="-")
        return out if out != "-0" else "0"
    return str(x)


def parse_config(path_or_dict) -> dict:
    """Load, default, validate and normalize an experiment config."""
    if isinstance(path_or_dict, dict):
        raw = dict(path_or_dict)
    else:
        p = Path(path_or_dict)
        try:
            raw = json.loads(p.read_text())
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {p}")
        except json.JSONDecodeError as e:
            raise ValidationError(f"config parse error at line {e.lineno}: {e.msg}")

    problems = []
    cfg = {}
    inst = dict(raw.get("instance") or {})
    kind = inst.get("kind")
    if kind not in INSTANCE_KINDS:
        problems.append(f"instance.kind must be one of {INSTANCE_KINDS}, got {kind!r}")
    if "beta" not in inst:
        problems.append("instance.beta is required")
    cfg["instance"] = inst

    policies = raw.get("policies") or []
    if not policies:
        problems.append("at least one policy is required")
    norm_policies = []
    for i, pol in enumerate(policies):
        pol = dict(pol)
        pkind = pol.get("kind")
        if pkind not in POLICY_KINDS:
            problems.append(f"policies[{i}].kind must be one of {POLICY_KINDS}")
            continue
        if pkind == "sacb":
            merged = {**SACB_DEFAULTS, **{k: v for k, v in pol.items() if k != "kind"}}
            if merged["q"] <= 1:
                problems.append(f"policies[{i}].q: base must exceed 1")
            if not (0 < merged["beta_lo"] <= merged["beta_hi"]):
                problems.append(f"policies[{i}]: need 0 < beta_lo <= beta_hi")
            if merged["gamma"] <= 0:
                problems.append(f"policies[{i}].gamma must be positive")
            if merged["handoff_horizon"] not in ("full", "remaining"):
                problems.append(f"policies[{i}].handoff_horizon must be full|remaining")
            pol = {"kind": "sacb", **merged}
        elif pkind == "abse":
            merged = {**ABSE_DEFAULTS, **{k: v for k, v in pol.items() if k != "kind"}}
            if "beta" in merged and not (0 < merged["beta"] <= 1):
                problems.append(f"policies[{i}].beta must be in (0, 1]")
            pol = {"kind": "abse", **merged}
        elif pkind == "fixed":
            if pol.get("arm", 1) not in (1, 2):
                problems.append(f"policies[{i}].arm must be 1 or 2")
        norm_policies.append(pol)
    cfg["policies"] = norm_policies

    cfg["T"] = int(raw.get("T", 0))
    if cfg["T"] < 1:
        problems.append("T must be a positive integer")
    cfg["reps"] = int(raw.get("reps", 1))
    if cfg["reps"] < 1:
        problems.append("reps must be >= 1")
    cfg["base_seed"] = int(raw.get("base_seed", 20240601))
    cfg["threads"] = int(raw.get("threads", 1))
    cfg["traces"] = bool(raw.get("traces", False))
    cfg["checkpoint_stride"] = raw.get("checkpoint_stride")
    cfg["output_dir"] = str(raw.get("output_dir", "out"))

    sweep = dict(raw.get("sweep") or {})
    for key in sweep:
        if key not in ("tilde_beta", "T", "beta"):
            problems.append(f"sweep key {key!r} not supported (tilde_beta, T, beta)")
    cfg["sweep"] = {k: list(v) for k, v in sweep.items()}

    needs_tilde = any(p["kind"] == "abse" and "beta" not in p for p in norm_policies)
    if needs_tilde and "tilde_beta" not in cfg["sweep"]:
        problems.append("abse policy without beta requires sweep.tilde_beta")

    if problems:
        raise ValidationError(problems)
    return _canonical(cfg)


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _cells(cfg: dict):
    """Cross product of sweep values; each cell fixes (T, tilde_beta, beta)."""
    sweep = cfg["sweep"]
    t_vals = sweep.get("T") or [cfg["T"]]
    tb_vals = sweep.get("tilde_beta") or [None]
    beta_vals = sweep.get("beta") or [cfg["instance"]["beta"]]
    for T, tb, beta in itertools.product(t_vals, tb_vals, beta_vals):
        yield {"T": int(T), "tilde_beta": tb, "beta": float(beta)}


def _cell_policies(cfg: dict, cell: dict):
    specs = []
    for pol in cfg["policies"]:
        pol = dict(pol)
        pkind = pol.pop("kind")
        if pkind == "abse" and "beta" not in pol:
            if cell["tilde_beta"] is None:
                continue
            pol["beta"] = float(cell["tilde_beta"])
        specs.append(PolicySpec(pkind, pol))
    return specs, dedup_labels(specs)


def _instance_spec(cfg: dict, cell: dict) -> dict:
    spec = dict(cfg["instance"])
    spec["beta"] = cell["beta"]
    return spec


def run(cfg: dict, out_dir: Path) -> list[dict]:
    """Execute all cells; returns result rows and writes results.csv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    rows, manifest = [], []
    try:
        for cell_idx, cell in enumerate(_cells(cfg)):
            specs, labels = _cell_policies(cfg, cell)
            inst_spec = _instance_spec(cfg, cell)
            summaries = run_experiment(
                inst_spec, specs, cell["T"], cfg["reps"], cfg["base_seed"],
                parallelism=cfg["threads"],
                checkpoint_stride=cfg["checkpoint_stride"],
            )
            ref_label = f"abse({cell['beta']})"
            ref = summaries.get(ref_label)
            for label in labels:
                s = summaries[label]
                rel = ((s.mean_regret - ref.mean_regret) / ref.mean_regret
                       if ref is not None and ref.mean_regret != 0 else None)
                rows.append({
                    "config_hash": chash,
                    "instance": cfg["instance"]["kind"],
                    "beta": cell["beta"],
                    "tilde_beta": cell["tilde_beta"],
                    "policy": label,
                    "T": cell["T"],
                    "reps": cfg["reps"],
                    "mean_regret": s.mean_regret,
                    "sd": s.sd,
                    "ci95": s.ci95,
                    "mean_t_sacb": s.mean_t_sacb,
                    "mean_beta_hat": s.mean_beta_hat,
                    "relative_loss": rel,
                })
                if cfg["traces"]:
                    _write_traces(out_dir, chash, cell_idx, label, s.traces)
            manifest.append({"cell": cell_idx, **cell, "status": "done"})
    except Exception:
        _write_results(out_dir, rows)
        (out_dir / "manifest.json").write_text(
            json.dumps({"completed": manifest, "hash": chash}, indent=2))
        raise
    _write_results(out_dir, rows)
    (out_dir / "manifest.json").write_text(
        json.dumps({"completed": manifest, "hash": chash}, indent=2))
    (out_dir / "run_meta.json").write_text(json.dumps(
        {"version": __version__, "config_hash": chash, "config": cfg},
        indent=2, sort_keys=True))
    return rows


def _write_results(out_dir: Path, rows: list[dict]) -> None:
    lines = [RESULTS_HEADER]
    for r in rows:
        lines.append(",".join(fmt(r[c]) for c in RESULTS_HEADER.split(",")))
    lines.append(f"# banditlab {__version__}")
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n")


def _write_traces(out_dir: Path, chash: str, cell_idx: int, label: str, traces):
    tdir = out_dir / "traces"
    tdir.mkdir(exist_ok=True)
    safe = label.replace("(", "_").replace(")", "").replace(".", "p")
    for tr in traces:
        lines = [f"# banditlab {__version__} config {chash}",
                 "t,cum_regret,inferior_count"]
        for t, cr, ic in tr.checkpoints:
            lines.append(f"{t},{fmt(cr)},{ic}")
        name = f"{chash}-c{cell_idx}-{safe}-rep{tr.rep}.csv"
        (tdir / name).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# plot / table emission


def _read_results(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = ln.split(",")
        rows.append(dict(zip(cols, vals)))
    return rows


def _svg_chart(curves: dict, path: Path, x_label: str) -> None:
    """Minimal multi-curve SVG line chart (no styling ambitions)."""
    W, H, PAD = 640, 420, 50
    pts_all = [(x, y) for pts in curves.values() for x, y, *_ in pts]
    if not pts_all:
        return
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 = x1 if x1 > x0 else x0 + 1
    y1 = y1 if y1 > y0 else y0 + 1

    def sx(x):
        return PAD + (x - x0) / (x1 - x0) * (W - 2 * PAD)

    def sy(y):
        return H - PAD - (y - y0) / (y1 - y0) * (H - 2 * PAD)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<line x1="{PAD}" y1="{H-PAD}" x2="{W-PAD}" y2="{H-PAD}" stroke="black"/>',
             f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H-PAD}" stroke="black"/>',
             f'<text x="{W//2}" y="{H-12}" font-size="12">{x_label}</text>',
             f'<text x="12" y="{PAD-10}" font-size="12">mean regret</text>']
    for i, (label, pts) in enumerate(sorted(curves.items())):
        color = colors[i % len(colors)]
        pts = sorted(pts)
        path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y, *_ in pts)
        parts.append(f'<polyline points="{path_d}" fill="none" stroke="{color}"/>')
        parts.append(f'<text x="{W-PAD-150}" y="{PAD+14*i}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))


def emit_plot_data(rows: list[dict], figure_kind: str, out_dir: Path,
                   version: str = __version__) -> list[Path]:
    """Write per-curve CSVs (x, mean, ci_lo, ci_hi) and an SVG chart.

    figure_kind "sweep": x = tilde_beta (falls back to T, then beta).
    figure_kind "table": regret matrix (rows = beta, cols = policies) in the
    published units (divided by 1e4 for setting1, 1e3 for setting2), plus
    the relative-loss matrix recomputed from the regret matrix.
    """
    pdir = out_dir / "plotdata"
    pdir.mkdir(parents=True, exist_ok=True)
    written = []
    if figure_kind == "sweep":
        for axis in ("tilde_beta", "T", "beta"):
            if len({r[axis] for r in rows if r[axis] != ""}) > 1:
                break
        else:
            axis = "tilde_beta"
        if all(r[axis] == "" for r in rows):
            raise ValidationError(f"missing sweep axis values for {axis}")
        curves = {}
        for r in rows:
            if r[axis] == "":
                continue
            x = float(r[axis])
            mean = float(r["mean_regret"])
            ci = float(r["ci95"]) if r["ci95"] else 0.0
            curves.setdefault(r["policy"], []).append((x, mean, mean - ci, mean + ci))
        for label, pts in curves.items():
            safe = label.replace("(", "_").replace(")", "").replace(".", "p")
            f = pdir / f"curve_{safe}.csv"
            lines = [f"# banditlab {version}", PLOT_HEADER]
            for x, m, lo, hi in sorted(pts):
                lines.append(f"{fmt(x)},{fmt(m)},{fmt(lo)},{fmt(hi)}")
            f.write_text("\n".join(lines) + "\n")
            written.append(f)
        svg = pdir / "sweep.svg"
        _svg_chart(curves, svg, axis)
        written.append(svg)
        return written
    if figure_kind == "table":
        inst = rows[0]["instance"] if rows else ""
        unit = 1e4 if inst == "setting1" else 1e3 if inst == "setting2" else 1.0
        betas = sorted({r["beta"] for r in rows}, key=float)
        by_key = {}
        for r in rows:
            key = (r["beta"], r["policy"], r["tilde_beta"])
            by_key[key] = r
        # one matrix column per (policy, tilde_beta) combination
        col_keys = list(dict.fromkeys((r["policy"], r["tilde_beta"]) for r in rows))

        def col_name(pk):
            pol, tb = pk
            return f"{pol}[{tb}]" if tb != "" and pol == "abse(None)" else pol

        matrix = [f"# banditlab {version} (regret / {fmt(unit)})",
                  "beta," + ",".join(col_name(k) for k in col_keys)]
        rl_rows = [f"# banditlab {version}",
                   "beta," + ",".join(col_name(k) for k in col_keys)]
        for b in betas:
            vals, rls = [], []
            ref = None
            for pol, tb in col_keys:
                r = by_key.get((b, pol, tb))
                if r and r["policy"] == f"abse({b})":
                    ref = float(r["mean_regret"])
            for pk in col_keys:
                r = by_key.get((b,) + pk)
                if r is None:
                    vals.append("")
                    rls.append("")
                    continue
                m = float(r["mean_regret"])
                vals.append(fmt(m / unit))
                rls.append(fmt((m - ref) / ref) if ref else "")
            matrix.append(f"{b}," + ",".join(vals))
            rl_rows.append(f"{b}," + ",".join(rls))
        f1 = pdir / "regret_matrix.csv"
        f1.write_text("\n".join(matrix) + "\n")
        f2 = pdir / "relative_loss.csv"
        f2.write_text("\n".join(rl_rows) + "\n")
        written.extend([f1, f2])
        return written
    raise ValidationError(f"unknown figure kind {figure_kind!r}")


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_run(cfg: dict, out_dir: Path, figures: list[str]) -> int:
    rows = run(cfg, out_dir)
    for fig in figures:
        emit_plot_data(
            _read_results(out_dir / "results.csv"), fig, out_dir)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows)")
    return 0


def _cmd_verify(cfg: dict) -> int:
    inst = make_instance(_instance_spec(cfg, next(_cells(cfg))), cfg["T"])
    meta = inst.meta
    print(f"instance {inst.name} d={inst.d} noise={inst.noise}")
    reports = {}
    if "beta" in meta and "L" in meta:
        reports["holder"] = check_holder(inst, meta["beta"], meta["L"], grid_n=400)
    if "alpha" in meta and "C0" in meta:
        reports["margin"] = check_margin(inst, meta["alpha"], meta["C0"])
    if inst.name == "power" and "b" in meta:
        reports["self_similarity"] = check_self_similarity(
            inst, meta["beta"], meta["b"], int(math.ceil(meta["l0"])),
            int(math.ceil(meta["l0"])) + 3, q=2.0, p=0)
    ok = True
    for name, rep in reports.items():
        status = "holds" if rep.holds else "VIOLATED"
        print(f"{name}: {status} margin={rep.margin_of_violation:.3e} "
              f"witness={rep.witness}")
        ok = ok and rep.holds
    return 0 if ok else 1


def _cmd_levels(cfg: dict) -> int:
    sacb = next((p for p in cfg["policies"] if p["kind"] == "sacb"), None)
    if sacb is None:
        sacb = {"kind": "sacb", **SACB_DEFAULTS}
    d = make_instance(cfg["instance"], cfg["T"]).d
    lv = sacb_levels(cfg["T"], d, sacb["q"], sacb["beta_lo"], sacb["beta_hi"],
                     sacb["upsilon"])
    print(f"T={cfg['T']} d={d} q={sacb['q']} "
          f"beta=[{sacb['beta_lo']},{sacb['beta_hi']}] upsilon={sacb['upsilon']}")
    print(f"l={lv.l} r_bar={lv.r_bar} j1={lv.j1} j2={lv.j2} l_tilde={lv.l_tilde}")
    print(f"bins_per_axis={max(1, round(sacb['q'] ** lv.l))}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="banditlab",
                                 description="contextual bandit experiment lab")
    ap.add_argument("command", choices=["run", "verify", "levels", "plot"])
    ap.add_argument("--config", required=True, help="path to JSON config")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", type=int, default=None, help="base seed override")
    ap.add_argument("--reps", type=int, default=None, help="replication override")
    ap.add_argument("--threads", type=int, default=None, help="worker override")
    ap.add_argument("--traces", action="store_true", help="write per-rep traces")
    ap.add_argument("--figure", action="append", default=[],
                    choices=["sweep", "table"], help="figures to emit")
    args = ap.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ValidationError as e:
        for p in e.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    if args.reps is not None:
        cfg["reps"] = args.reps
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.traces:
        cfg["traces"] = True
    out_dir = Path(args.out or cfg["output_dir"])

    try:
        if args.command == "run":
            return _cmd_run(cfg, out_dir, args.figure)
        if args.command == "verify":
            return _cmd_verify(cfg)
        if args.command == "levels":
            return _cmd_levels(cfg)
        if args.command == "plot":
            rows = _read_results(out_dir / "results.csv")
            for fig in (args.figure or ["sweep"]):
                emit_plot_data(rows, fig, out_dir)
            return 0
    except ValidationError as e:
        for p in e.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    except (BanditLabError, OSError, ValueError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
