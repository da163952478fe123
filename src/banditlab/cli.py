"""Config-driven experiment runner.

Subcommands
-----------
run     execute the run plan, write results.csv (+ traces, plotdata)
verify  grade the declared properties of every group's instance
levels  print the level arithmetic of every SACB policy of every group
plot    regenerate plot/table CSVs and SVG charts from results.csv

Every subcommand reads one run plan (`plan`): the sweep cells, grouped by
the instance they share, (T, beta), each group with its distinct policy
specs.  The config file is JSON; `parse_config` fills each sacb/abse
policy's tuning from the SacbConfig/AbseConfig defaults (the published
table), checks the config by building every group's instance and specs
as an episode does (`PolicySpec.build`), and normalizes the file; the
SHA-256 prefix of its sorted-key JSON stamps every output file.  Exit
codes: 0 ok, 2 config error, 3 runtime failure (with a manifest of
completed cells).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _numpy_openblas_threads
from .errors import BanditLabError, ValidationError
from .instances import (check_holder, check_integer, check_margin, check_real,
                        check_self_similarity, make_instance)
from .policies import PolicySpec, tuning_defaults
from .sim import run_experiment

RESULTS_HEADER = ("config_hash,instance,beta,tilde_beta,policy,T,reps,"
                  "mean_regret,sd,ci95,mean_t_sacb,mean_beta_hat,relative_loss")
PLOT_HEADER = "x,mean,ci_lo,ci_hi"

INSTANCE_KINDS = ("setting1", "setting2", "power", "lower_bound", "example1")
POLICY_KINDS = ("sacb", "abse", "oracle", "fixed")
CONFIG_KEYS = ("instance", "policies", "T", "reps", "base_seed", "threads",
               "traces", "checkpoint_stride", "sweep", "output_dir")


def _integer(value, name: str, problems: list, low: int | None = None):
    """value as an int (at least low), or None after recording a problem."""
    try:
        return check_integer(value, name, low)
    except ValueError as e:
        problems.append(str(e))
        return None


def _unreal_numbers(value, name: str):
    """The problems of the numbers in value, nested in objects and lists,
    that no finite float holds (a huge integer, inf or nan), each named."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _unreal_numbers(item, f"{name}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _unreal_numbers(item, f"{name}[{i}]")
    elif type(value) is float and not math.isfinite(value):
        yield f"{name} must be a finite number, got {value!r}"
    elif type(value) is int:
        try:
            float(value)
        except OverflowError:
            yield f"{name} is an integer too large for a float"


def _unit_beta(value) -> bool:
    """Whether value is a number in (0, 1], as a smoothness beta must be."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= 1)


def _object(value, name: str, problems: list) -> dict:
    """value as a dict, or {} after recording a problem."""
    if isinstance(value, dict):
        return dict(value)
    problems.append(f"{name} must be a JSON object, got {value!r}")
    return {}


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


def load_config(path) -> dict:
    """The JSON object of a config file, not yet checked; a file that
    cannot be read as UTF-8 JSON is a config error that names it."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as e:                    # missing, a directory, unreadable
        raise ValidationError(f"cannot read config file {p}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ValidationError(
            f"config file {p} is not UTF-8: {e.reason} at byte {e.start}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"config parse error at line {e.lineno}: {e.msg}")
    if not isinstance(raw, dict):
        raise ValidationError(
            f"config file must hold a JSON object, got {type(raw).__name__}")
    return raw


def parse_config(path_or_dict) -> dict:
    """Default, validate and normalize an experiment config (or its file)."""
    raw = (dict(path_or_dict) if isinstance(path_or_dict, dict)
           else load_config(path_or_dict))

    problems = []
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        problems.append(f"unknown config keys {unknown}")
    cfg = {}
    inst = _object(raw.get("instance") or {}, "instance", problems)
    kind = inst.get("kind")
    if kind not in INSTANCE_KINDS:
        problems.append(f"instance.kind must be one of {INSTANCE_KINDS}, got {kind!r}")
    if "beta" not in inst:
        problems.append("instance.beta is required")
    cfg["instance"] = inst

    cfg["sweep"] = {}
    for key, values in _object(raw.get("sweep") or {}, "sweep", problems).items():
        if key not in ("tilde_beta", "T", "beta"):
            problems.append(f"sweep key {key!r} not supported (tilde_beta, T, beta)")
        if not isinstance(values, (list, tuple)):
            problems.append(f"sweep.{key} must be a list of values, got {values!r}")
        elif not values:
            problems.append(f"sweep.{key} must not be empty")
        else:
            if key == "tilde_beta":
                problems.extend(f"sweep.tilde_beta: beta must be in (0, 1], got {v!r}"
                                for v in values if not _unit_beta(v))
                values = list(filter(_unit_beta, values))
            cfg["sweep"][key] = list(values)

    cfg["T"] = _integer(raw.get("T", 0), "T", problems, low=1)
    # The horizons and instance betas of the cells that are well formed.
    horizons = [_integer(t, "sweep.T", problems, low=1)
                for t in cfg["sweep"].get("T", [])]
    horizons = [t for t in horizons or [cfg["T"]] if t is not None]
    # A number no finite float holds is named; its instance is not built.
    unreal = list(itertools.chain(_unreal_numbers(inst, "instance"),
                                  _unreal_numbers(cfg["sweep"].get("beta", []),
                                                  "sweep.beta")))
    problems.extend(unreal)
    betas = []
    for beta in (cfg["sweep"].get("beta")
                 or ([inst["beta"]] if "beta" in inst else [])):
        try:
            betas.append(check_real(beta, "beta"))
        except (TypeError, ValueError, OverflowError) as e:
            if not any(_unreal_numbers(beta, "beta")):   # else named above
                problems.append(f"instance: {e}")

    policies = raw.get("policies") or []
    if not isinstance(policies, list):
        problems.append(f"policies must be a list, got {policies!r}")
        policies = []
    elif not policies:
        problems.append("at least one policy is required")
    planned = []                         # (index in policies, normalized policy)
    for i, pol in enumerate(policies):
        if not isinstance(pol, dict):
            problems.append(f"policies[{i}] must be a JSON object, got {pol!r}")
            continue
        pkind = pol.get("kind")
        if pkind not in POLICY_KINDS:
            problems.append(f"policies[{i}].kind must be one of {POLICY_KINDS}")
            continue
        if pkind in ("sacb", "abse"):
            # Their numbers are floats: "beta": 1 is the spec abse(1.0), as
            # an anonymous abse at tilde_beta 1 is.
            pol = {**tuning_defaults(pkind), **pol}
            try:
                for key, value in pol.items():
                    if type(value) is int:
                        pol[key] = float(value)
            except OverflowError:
                problems.append(f"policies[{i}]: {key} is an integer too large "
                                "for a float")
                continue
        planned.append((i, dict(pol)))
    cfg["policies"] = [pol for _, pol in planned]

    cfg["reps"] = _integer(raw.get("reps", 1), "reps", problems, low=1)
    cfg["base_seed"] = _integer(raw.get("base_seed", 20240601), "base_seed", problems)
    cfg["threads"] = _integer(raw.get("threads", 1), "threads", problems, low=1)
    cfg["traces"] = raw.get("traces", False)
    if not isinstance(cfg["traces"], bool):
        problems.append(f"traces must be true or false, got {cfg['traces']!r}")
    stride = raw.get("checkpoint_stride")
    cfg["checkpoint_stride"] = (None if stride is None else
                                _integer(stride, "checkpoint_stride", problems, low=1))
    cfg["output_dir"] = raw.get("output_dir", "out")
    if not isinstance(cfg["output_dir"], str):
        problems.append(f"output_dir must be a string, got {cfg['output_dir']!r}")

    needs_tilde = any(p["kind"] == "abse" and "beta" not in p for p in cfg["policies"])
    if needs_tilde and "tilde_beta" not in cfg["sweep"]:
        problems.append("abse policy without beta requires sweep.tilde_beta")

    # Build each group's instance and distinct specs as run_episode does.  A
    # group whose instance is a config error, or that has no well-formed
    # beta (planned at a stand-in 0), builds its specs with instance None.
    # An abse without beta is planned only with a well-formed tilde_beta.
    planned = [(i, p) for i, p in planned if p["kind"] != "abse" or "beta" in p
               or cfg["sweep"].get("tilde_beta")]
    cells, groups = plan({**cfg, "policies": [p for _, p in planned],
                          "sweep": {**cfg["sweep"], "T": horizons,
                                    "beta": betas or [0.0]}})
    index = {}                           # spec key -> its first policy's index
    for _, keys, _ in cells:
        for (i, _), key in zip(planned, keys):
            index.setdefault(key, i)
    for (T, beta), specs in groups.items():
        instance = None
        if kind in INSTANCE_KINDS and betas and not unreal:
            try:
                instance = make_instance({**inst, "beta": beta}, T)
            except KeyError as e:
                problems.append(f"instance: {kind} needs {e}")
            except (TypeError, ValueError, OverflowError, BanditLabError) as e:
                problems.append(f"instance: {e}")
        for key, spec in specs.items():
            try:
                spec.build(instance, T)
            except (TypeError, ValueError, OverflowError, BanditLabError) as e:
                problems.append(f"policies[{index[key]}]: {e}")

    if problems:                         # a problem of several groups once
        raise ValidationError(list(dict.fromkeys(problems)))
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def plan(cfg: dict):
    """The run plan: cells, a list of (cell, spec keys, labels) with one key
    and label per config policy, and groups, which maps each instance,
    (T, beta), to the distinct specs of its cells by key (kind and sorted
    params, not label).

    The cells are the cross product of the sweep values, each fixing
    (T, tilde_beta, beta); an abse without beta takes the cell's
    tilde_beta.  A cell labels its policies by spec, and where two labels
    are equal every label gets its #index suffix.
    """
    sweep = cfg["sweep"]
    cells, groups = [], {}
    for T, tb, beta in itertools.product(
            sweep.get("T", [cfg["T"]]), sweep.get("tilde_beta") or [None],
            sweep.get("beta") or [cfg["instance"]["beta"]]):
        cell = {"T": int(T), "tilde_beta": tb, "beta": float(beta)}
        specs = []
        for pol in cfg["policies"]:
            params = {k: v for k, v in pol.items() if k != "kind"}
            if pol["kind"] == "abse" and "beta" not in params:
                params["beta"] = float(tb)
            specs.append(PolicySpec(pol["kind"], params))
        keys = [(ps.kind, repr(sorted(ps.params.items()))) for ps in specs]
        labels = [ps.label() for ps in specs]
        if len(set(labels)) != len(labels):
            labels = [f"{label}#{i}" for i, label in enumerate(labels)]
        groups.setdefault((cell["T"], cell["beta"]), {}).update(zip(keys, specs))
        cells.append((cell, keys, labels))
    return cells, groups


def run(cfg: dict, out_dir: Path) -> list[dict]:
    """Execute the run plan; returns result rows and writes results.csv.

    Each group of the `plan` runs its distinct specs once, in one
    run_experiment.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    cells, groups = plan(cfg)
    finished = {}                # (T, beta) -> {spec key: summary}
    try:
        for (T, beta), distinct in groups.items():
            summaries = run_experiment(
                {**cfg["instance"], "beta": beta}, list(distinct.values()), T,
                cfg["reps"], cfg["base_seed"], parallelism=cfg["threads"],
                checkpoint_stride=cfg["checkpoint_stride"],
            )
            finished[T, beta] = dict(zip(distinct, summaries))
    finally:
        rows, manifest = [], []
        for cell_idx, (cell, keys, labels) in enumerate(cells):
            group = finished.get((cell["T"], cell["beta"]))
            if group is None:
                continue
            summaries = {label: group[key] for key, label in zip(keys, labels)}
            ref = summaries.get(PolicySpec("abse", {"beta": cell["beta"]}).label())
            for label, s in summaries.items():
                rel = ((s.mean_regret - ref.mean_regret) / ref.mean_regret
                       if ref is not None and ref.mean_regret != 0 else None)
                rows.append({
                    "config_hash": chash,
                    "instance": cfg["instance"]["kind"],
                    **cell,                      # T, tilde_beta, beta
                    "policy": label,
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
        _write_results(out_dir, rows)
        _write(out_dir / "manifest.json",
               json.dumps({"completed": manifest, "hash": chash}, indent=2))
    _write(out_dir / "run_meta.json", json.dumps(
        {"version": __version__, "config_hash": chash, "config": cfg,
         "platform": _run_platform()},
        indent=2, sort_keys=True))
    return rows


def _run_platform() -> dict:
    """Where a run ran: the versions its bytes depend on, the CPUs this
    process may use, and the BLAS thread setting numpy's OpenBLAS read
    (see `banditlab/__init__`)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpus": cpus,
            "openblas_num_threads": _numpy_openblas_threads}


def _write_results(out_dir: Path, rows: list[dict]) -> None:
    lines = [RESULTS_HEADER]
    for r in rows:
        lines.append(",".join(fmt(r[c]) for c in RESULTS_HEADER.split(",")))
    lines.append(f"# banditlab {__version__}")
    _write(out_dir / "results.csv", "\n".join(lines) + "\n")


def _write(path: Path, text: str) -> None:
    """Write text to path whole or not at all: to a sibling temporary file,
    then renamed over path.  A write that fails removes its temporary file
    and leaves path as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _file_label(label: str) -> str:
    """A policy label as it appears in file names: abse(0.9) -> abse_0p9."""
    return label.replace("(", "_").replace(")", "").replace(".", "p")


def _write_traces(out_dir: Path, chash: str, cell_idx: int, label: str, traces):
    tdir = out_dir / "traces"
    tdir.mkdir(exist_ok=True)
    safe = _file_label(label)
    for tr in traces:
        lines = [f"# banditlab {__version__} config {chash}",
                 "t,cum_regret,inferior_count"]
        for t, cr, ic in tr.checkpoints:
            lines.append(f"{t},{fmt(cr)},{ic}")
        name = f"{chash}-c{cell_idx}-{safe}-rep{tr.rep}.csv"
        _write(tdir / name, "\n".join(lines) + "\n")


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
    _write(path, "\n".join(parts))


def sweep_axis(cells) -> str:
    """The sweep figure's x axis over plan cells or results.csv rows.

    The first of tilde_beta, T and beta that takes two values, else
    tilde_beta if it is set; an unset tilde_beta is None in a plan cell
    and "" in a row.  Without an axis the sweep figure is a config error.
    """
    for axis in ("tilde_beta", "T", "beta"):
        if len({c[axis] for c in cells} - {None, ""}) > 1:
            return axis
    if any(c["tilde_beta"] not in (None, "") for c in cells):
        return "tilde_beta"
    raise ValidationError("--figure sweep needs a sweep over tilde_beta, "
                          "T or beta")


def table_horizon(cells) -> None:
    """The table figure's check over plan cells or results.csv rows.

    Its rows are keyed by beta, so the cells must share one T; a T sweep
    is a config error, as a missing sweep axis is for the sweep figure.
    """
    horizons = sorted({int(c["T"]) for c in cells})
    if len(horizons) > 1:
        raise ValidationError(f"--figure table needs one T, got {horizons}")


def emit_plot_data(rows: list[dict], figure_kind: str, out_dir: Path) -> list[Path]:
    """Write plot data for one figure from results.csv rows.

    "sweep": one CSV per curve (x, mean, ci_lo, ci_hi) and an SVG chart,
    with x on the `sweep_axis`.  "table": results.csv of one T
    (`table_horizon`) pivoted to one row per beta and one column per
    policy label.  regret_matrix.csv holds mean_regret in the published
    units (/1e4 for setting1, /1e3 for setting2); relative_loss.csv holds
    the rows' relative_loss strings.  A label names one spec in every cell
    of a beta; where only some of its cells hold the abse(beta) reference,
    a row with a relative_loss is used.
    """
    # Check the figure before creating plotdata/, so a refused figure
    # leaves nothing behind.
    if figure_kind == "sweep":
        axis = sweep_axis(rows)
    elif figure_kind == "table":
        table_horizon(rows)
    else:
        raise ValidationError(f"unknown figure kind {figure_kind!r}")
    pdir = out_dir / "plotdata"
    pdir.mkdir(parents=True, exist_ok=True)
    written = []
    if figure_kind == "sweep":
        curves = {}
        for r in rows:
            if r[axis] == "":
                continue
            x = float(r[axis])
            mean = float(r["mean_regret"])
            ci = float(r["ci95"]) if r["ci95"] else 0.0
            curves.setdefault(r["policy"], []).append((x, mean, mean - ci, mean + ci))
        for label, pts in curves.items():
            f = pdir / f"curve_{_file_label(label)}.csv"
            lines = [f"# banditlab {__version__}", PLOT_HEADER]
            for x, m, lo, hi in sorted(pts):
                lines.append(f"{fmt(x)},{fmt(m)},{fmt(lo)},{fmt(hi)}")
            _write(f, "\n".join(lines) + "\n")
            written.append(f)
        svg = pdir / "sweep.svg"
        _svg_chart(curves, svg, axis)
        written.append(svg)
        return written
    inst = rows[0]["instance"] if rows else ""
    unit = 1e4 if inst == "setting1" else 1e3 if inst == "setting2" else 1.0
    table = {}                   # (beta, label) -> row
    for r in rows:
        key = (r["beta"], r["policy"])
        if key not in table or r["relative_loss"]:
            table[key] = r
    betas = sorted({b for b, _ in table}, key=float)
    labels = list(dict.fromkeys(label for _, label in table))
    header = "beta," + ",".join(labels)
    matrix = [f"# banditlab {__version__} (regret / {fmt(unit)})", header]
    rl_rows = [f"# banditlab {__version__}", header]
    for b in betas:
        cells = [table.get((b, label)) for label in labels]
        matrix.append(f"{b}," + ",".join(
            "" if r is None else fmt(float(r["mean_regret"]) / unit) for r in cells))
        rl_rows.append(f"{b}," + ",".join(
            "" if r is None else r["relative_loss"] for r in cells))
    for name, lines in (("regret_matrix.csv", matrix), ("relative_loss.csv", rl_rows)):
        written.append(pdir / name)
        _write(written[-1], "\n".join(lines) + "\n")
    return written


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_run(cfg: dict, out_dir: Path, figures: list[str]) -> int:
    cells = [cell for cell, _, _ in plan(cfg)[0]]
    if "sweep" in figures:
        sweep_axis(cells)
    if "table" in figures:
        table_horizon(cells)
    rows = run(cfg, out_dir)
    for fig in figures:
        emit_plot_data(_read_results(out_dir / "results.csv"), fig, out_dir)
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} rows)")
    return 0


def _cmd_verify(cfg: dict) -> int:
    ok = True
    for T, beta in plan(cfg)[1]:
        inst = make_instance({**cfg["instance"], "beta": beta}, T)
        meta = inst.meta
        print(f"instance {inst.name} T={T} beta={beta} d={inst.d} noise={inst.noise}")
        reports = {}
        if "beta" in meta and "L" in meta:
            reports["holder"] = check_holder(inst, meta["beta"], meta["L"], grid_n=400)
        if "alpha" in meta and "C0" in meta:
            reports["margin"] = check_margin(inst, meta["alpha"], meta["C0"])
        if "b" in meta and "l0" in meta:
            l0 = int(math.ceil(meta["l0"]))
            reports["self_similarity"] = check_self_similarity(
                inst, meta["beta"], meta["b"], l0, l0 + 3, q=2.0, p=0)
        for name, rep in reports.items():
            status = "holds" if rep.holds else "VIOLATED"
            print(f"{name}: {status} margin={rep.margin_of_violation:.3e} "
                  f"witness={rep.witness}")
            ok = ok and rep.holds
    return 0 if ok else 1


def _cmd_levels(cfg: dict) -> int:
    sacb = [(T, beta, spec) for (T, beta), specs in plan(cfg)[1].items()
            for spec in specs.values() if spec.kind == "sacb"]
    for T, beta, spec in sacb:
        policy = spec.build(make_instance({**cfg["instance"], "beta": beta}, T), T)
        c, lv = policy.config, policy.levels
        print(f"T={T} beta={beta} d={policy.d}: sacb q={c.q} "
              f"beta_lo={c.beta_lo} beta_hi={c.beta_hi} upsilon={c.upsilon}")
        print(f"l={lv.l} r_bar={lv.r_bar} j1={lv.j1} j2={lv.j2} l_tilde={lv.l_tilde}")
        print(f"bins_per_axis={policy.partition.per_axis}")
    if not sacb:
        print("no sacb policy in the config")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="banditlab",
                                 description="contextual bandit experiment lab")
    ap.add_argument("command", choices=["run", "verify", "levels", "plot"])
    ap.add_argument("--config", required=True, help="path to JSON config")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", dest="base_seed", type=int, help="base seed override")
    ap.add_argument("--reps", type=int, help="replication override")
    ap.add_argument("--threads", type=int, help="worker override")
    ap.add_argument("--traces", action="store_true", default=None,
                    help="write per-rep traces")
    ap.add_argument("--figure", action="append", default=[],
                    choices=["sweep", "table"], help="figures to emit")
    args = ap.parse_args(argv)

    # Flags override the file's values and are checked with them.
    flags = {key: getattr(args, key)
             for key in ("base_seed", "reps", "threads", "traces")
             if getattr(args, key) is not None}
    try:
        cfg = parse_config({**load_config(args.config), **flags})
        out_dir = Path(args.out or cfg["output_dir"])
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
    except (BanditLabError, OSError, ValueError,
            concurrent.futures.BrokenExecutor) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
