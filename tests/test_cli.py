import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from banditlab import cli, sim
from banditlab.cli import (
    RESULTS_HEADER,
    config_hash,
    emit_plot_data,
    fmt,
    main,
    parse_config,
    plan,
    _read_results,
    run,
)
from banditlab.abse import AbseConfig
from banditlab.errors import ValidationError
from banditlab.instances import make_instance
from banditlab.partition import cells_per_axis, sacb_levels
from banditlab.policies import PolicySpec
from banditlab.sacb import SacbConfig


# An integer no float can hold: JSON writes and reads it as 401 digits.
HUGE = 10 ** 400
LOWER_BOUND_INSTANCE = {"kind": "lower_bound", "beta": 0.5, "gamma": 0.9,
                        "alpha": 1.0, "delta": 0.25, "member": 1}

MINIMAL = {
    "instance": {"kind": "setting1", "beta": 0.9},
    "policies": [{"kind": "sacb"}],
    "T": 2_000_000,
}


class TestParse:
    def test_minimal_defaults_match_parameter_table(self):
        cfg = parse_config(MINIMAL)
        sacb = cfg["policies"][0]
        assert sacb["gamma"] == 0.145
        assert sacb["q"] == 1.1
        assert sacb["upsilon"] == 0.325
        assert sacb["beta_lo"] == 0.4 and sacb["beta_hi"] == 1.0
        assert sacb["c0"] == 2.0 and sacb["gamma_abse"] == 2.0

    def test_invalid_base_rejected(self):
        bad = dict(MINIMAL, policies=[{"kind": "sacb", "q": 0.9}])
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert any("base must exceed 1" in p for p in err.value.problems)

    def test_all_violations_listed(self):
        bad = {"instance": {"kind": "nope"}, "policies": [], "T": -1}
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert len(err.value.problems) >= 3

    def test_round_trip_is_stable(self, tmp_path):
        cfg = parse_config(MINIMAL)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        again = parse_config(p)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_sweep_requires_axis_for_anonymous_abse(self):
        bad = dict(MINIMAL, policies=[{"kind": "abse"}])
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_library_and_cli_build_the_same_configs(self):
        T = 20_000
        spec = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        inst = make_instance(spec, T)
        cfg = parse_config(dict(MINIMAL, T=T, instance=spec, policies=[
            {"kind": "sacb"}, {"kind": "abse", "beta": 0.5}]))
        cells, groups = plan(cfg)
        cell, keys, _ = cells[0]
        cli_specs = [groups[cell["T"], cell["beta"]][key] for key in keys]
        lib_specs = [PolicySpec("sacb", {}), PolicySpec("abse", {"beta": 0.5})]
        for lib, cli in zip(lib_specs, cli_specs, strict=True):
            assert lib.build(inst, T).config == cli.build(inst, T).config

    # Each of these built in the library (arm 1, arm 2, an oracle, arm 1 and
    # arm 2); parse_config rejected the first three and passed the last two.
    @pytest.mark.parametrize("kind,params", [
        ("fixed", {"armm": 2}), ("fixed", {"arm": "2"}), ("oracle", {"arm": 2}),
        ("fixed", {"arm": True}), ("fixed", {"arm": 2.0}),
    ], ids=["fixed-key", "string-arm", "oracle-key", "bool-arm", "float-arm"])
    def test_library_and_cli_reject_the_same_reference_specs(self, kind, params):
        inst = make_instance(MINIMAL["instance"], MINIMAL["T"])
        with pytest.raises(ValueError) as lib:
            PolicySpec(kind, params).build(inst, MINIMAL["T"])
        with pytest.raises(ValidationError) as err:
            parse_config(dict(MINIMAL, policies=[{"kind": kind, **params}]))
        assert err.value.problems == [f"policies[0]: {lib.value}"]


    # A problem of several groups is listed once, and a policy is still
    # built, with instance None, where its group's instance is a config
    # error.
    def test_each_problem_is_listed_once(self):
        bad = dict(MINIMAL, sweep={"T": [20_000, 30_000]},
                   instance={"kind": "setting1", "beta": 1.5},
                   policies=[{"kind": "sacb", "gama": 9.0},
                             {"kind": "abse", "beta": 0.9, "c0": -1}])
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert sorted(err.value.problems) == [
            r"instance: beta must be in (0, 1], got 1.5",
            "policies[0]: SacbConfig.__init__() got an unexpected keyword "
            "argument 'gama'",
            "policies[1]: c0, gamma_abse and noise_scale must be positive"]

    # Without an instance a spec builds at d = 1 with the config classes'
    # own noise_scale, where an instance with Gaussian noise gives sigma.
    def test_spec_without_instance(self):
        T = 20_000
        abse = PolicySpec("abse", {"beta": 0.5})
        sacb = PolicySpec("sacb", {})
        assert abse.build(None, T).config == AbseConfig(beta=0.5, T=T)
        assert sacb.build(None, T).config == SacbConfig()
        assert sacb.build(None, T).d == 1
        inst = make_instance({"kind": "power", "beta": 0.6}, T)
        assert abse.build(inst, T).config.noise_scale == inst.noise[1] == 0.05


def small_config(tmp_path, **over):
    cfg = {
        "instance": {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
        "policies": [
            {"kind": "sacb", "gamma": 0.3, "q": 1.4, "upsilon": 1.5,
             "beta_lo": 0.5, "beta_hi": 1.0},
            {"kind": "abse", "beta": 0.9},
            {"kind": "abse", "beta": 0.4},
        ],
        "T": 20_000,
        "reps": 2,
        "base_seed": 99,
        "threads": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def _worker_dies(args):
    """A replication task whose worker process exits at once."""
    os._exit(1)


@pytest.mark.parametrize("x,out", [
    (None, ""), (0.0, "0"), (-0.0, "0"), (1234567.0, "1234570"),
    (0.000123456789, "0.000123457"), (-2.5e-7, "-0.00000025"), (5, "5"),
    (math.inf, "inf"), (math.nan, "nan"),
], ids=["none", "zero", "negative-zero", "large", "small", "negative-small",
        "int", "inf", "nan"])
def test_fmt_writes_six_significant_digits_in_fixed_point(x, out):
    assert fmt(x) == out


class TestRun:
    def test_end_to_end_and_header(self, tmp_path):
        p = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        text = (out / "results.csv").read_text()
        assert text.splitlines()[0] == RESULTS_HEADER
        rows = _read_results(out / "results.csv")
        assert len(rows) == 3
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["platform"] == {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0)),
            "openblas_num_threads": cli._numpy_openblas_threads}
        assert (out / "manifest.json").exists()

    def test_reference_relative_loss_zero(self, tmp_path):
        p = small_config(tmp_path)
        main(["run", "--config", str(p)])
        out = Path(json.loads(p.read_text())["output_dir"])
        rows = _read_results(out / "results.csv")
        ref = next(r for r in rows if r["policy"] == "abse(0.9)")
        assert float(ref["relative_loss"]) == 0.0

    def test_rerun_byte_identical(self, tmp_path):
        p = small_config(tmp_path)
        main(["run", "--config", str(p)])
        out = Path(json.loads(p.read_text())["output_dir"])
        first = (out / "results.csv").read_bytes()
        main(["run", "--config", str(p)])
        assert (out / "results.csv").read_bytes() == first

    def test_traces_written(self, tmp_path):
        p = small_config(tmp_path, T=5_000)
        main(["run", "--config", str(p), "--traces"])
        out = Path(json.loads(p.read_text())["output_dir"])
        files = list((out / "traces").glob("*.csv"))
        assert len(files) == 6  # 3 policies x 2 reps
        body = files[0].read_text().splitlines()
        assert body[0].startswith("# banditlab")
        assert body[1] == "t,cum_regret,inferior_count"

    # A dead worker escaped from main as a BrokenProcessPool traceback.
    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="the patched task reaches the workers by fork")
    def test_dead_worker_exits_3_after_writing(self, tmp_path, monkeypatch,
                                               capsys):
        p = small_config(tmp_path, T=5_000, threads=2, reps=2)
        monkeypatch.setattr(sim, "_replication_cell", _worker_dies)
        assert main(["run", "--config", str(p)]) == 3
        assert "runtime failure" in capsys.readouterr().err
        out = Path(json.loads(p.read_text())["output_dir"])
        assert (out / "results.csv").exists() and (out / "manifest.json").exists()

    # Output files were written in place, so a run that failed while
    # writing left them half written.
    def test_failed_rename_keeps_the_previous_results(self, tmp_path, monkeypatch):
        p = small_config(tmp_path, T=5_000)
        assert main(["run", "--config", str(p)]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        before = (out / "results.csv").read_bytes()
        replace = os.replace

        def results_rename_fails(src, dst):
            if Path(dst).name == "results.csv":
                raise OSError("rename failed")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", results_rename_fails)
        assert main(["run", "--config", str(p), "--seed", "7"]) == 3
        assert (out / "results.csv").read_bytes() == before
        assert sorted(f.name for f in out.iterdir()) == [
            "manifest.json", "results.csv", "run_meta.json"]

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"instance": {"kind": "nope"},
                                 "policies": [], "T": 0}))
        assert main(["run", "--config", str(p)]) == 2

    # A top-level list escaped as "TypeError: 'list' object is not a mapping".
    def test_non_object_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1]")
        assert main(["run", "--config", str(p)]) == 2
        assert "config file must hold a JSON object, got list" in capsys.readouterr().err

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["run", "--config", str(p)]) == 2
        assert "config parse error at line 1" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    # --reps 0 used to bypass the config checks: the run failed (exit 3) and
    # left a header-only results.csv and a manifest.json behind.
    def test_flag_error_exits_2_before_writing(self, tmp_path, capsys):
        p = small_config(tmp_path)
        assert main(["run", "--config", str(p), "--reps", "0"]) == 2
        assert "config error: reps must be an integer >= 1" in capsys.readouterr().err
        assert not Path(json.loads(p.read_text())["output_dir"]).exists()

    # The file used to be parsed alone before the flags were applied, so a
    # flag could not mend a bad file value: this exited 2.
    def test_flag_mends_file_value(self, tmp_path):
        p = small_config(tmp_path, T=5_000, reps=0)
        assert main(["run", "--config", str(p), "--reps", "1"]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        assert {r["reps"] for r in _read_results(out / "results.csv")} == {"1"}

    def test_flags_override_file_values(self, tmp_path):
        # Flags give the same run, config hash included, as the file values.
        results = []
        for name, flags, over in (
                ("flags", ["--seed", "7", "--reps", "1", "--threads", "2"], {}),
                ("file", [], {"base_seed": 7, "reps": 1, "threads": 2})):
            (tmp_path / name).mkdir()
            p = small_config(tmp_path / name, T=5_000,
                             output_dir=str(tmp_path / "unused"), **over)
            out = tmp_path / name / "out"
            assert main(["run", "--config", str(p), "--out", str(out), *flags]) == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]

    # Each of these used to pass parsing: the first then ran with gamma
    # 0.145, the next two failed mid-run (exit 3, partial results.csv).  A
    # misspelled fixed key ran arm 1, oracle took any key, a true arm ran
    # arm 1, and an empty tilde_beta sweep dropped the anonymous abse (exit
    # 0, one row).  An unknown policy kind, or an abse beta out of range,
    # stays a config error.
    @pytest.mark.parametrize("over,match", [
        ({"policies": [{"kind": "sacb", "gama": 9.0}]}, "gama"),
        ({"policies": [{"kind": "abse"}], "sweep": {"tilde_beta": [0.5, 1.2]}},
         r"beta must be in \(0, 1\]"),
        ({"policies": [{"kind": "abse", "beta": 0.9, "c0": -1}]}, "c0"),
        ({"policies": [{"kind": "fixed", "armm": 2}]},
         r"unknown fixed keys \['armm'\]"),
        ({"policies": [{"kind": "oracle", "arm": 2}]},
         r"unknown oracle keys \['arm'\]"),
        ({"policies": [{"kind": "fixed", "arm": True}]},
         "arm must be 1 or 2, got True"),
        ({"policies": [{"kind": "abse"}, {"kind": "abse", "beta": 0.9}],
          "sweep": {"tilde_beta": []}}, "sweep.tilde_beta must not be empty"),
        ({"policies": [{"kind": "greedy"}]}, r"policies\[0\].kind must be one of"),
        ({"policies": [{"kind": "abse", "beta": 1.5}]},
         r"policies\[0\]: beta must be in \(0, 1\], got 1.5"),
    ], ids=["unknown-key", "tilde-beta-range", "negative-c0", "fixed-key",
            "oracle-key", "bool-arm", "empty-sweep", "policy-kind",
            "abse-beta-range"])
    def test_policy_config_error_exits_2_before_writing(self, tmp_path, over,
                                                        match):
        p = small_config(tmp_path, **over)
        with pytest.raises(ValidationError, match=match):
            parse_config(p)
        assert main(["run", "--config", str(p)]) == 2
        out = Path(json.loads(p.read_text())["output_dir"])
        assert not out.exists()

    # Each of these used to get past parsing: the horizons too short for the
    # policy failed mid-run (exit 3, partial results.csv), "abc" escaped as
    # a ValueError traceback and 2500.5 ran silently at T = 2500.  A scalar
    # sweep value escaped as a TypeError; a checkpoint_stride of "x" or 2.5
    # failed mid-run (exit 1, partial results.csv) and -3 ran silently.  An
    # instance that cannot be built (no bump fits setting1 at T = 2000, or
    # beta out of range) failed mid-run (exit 3, header-only results.csv);
    # an unknown instance or override key ran silently with the default,
    # and a missing lower_bound key escaped as a KeyError traceback.  A
    # misspelled top-level key ran with its default, "no" turned traces on,
    # 0 or -3 threads ran serially, and true reps or threads ran as 1.  A
    # non-object instance, sweep or policy, or a non-list policies, escaped
    # as a TypeError traceback or a ValueError "runtime failure" (exit 3).
    # A null output_dir wrote the run into a directory named None, and a
    # tilde_beta of "a" ran when only named abse policies read it, then
    # failed the sweep figure (exit 3).  A power instance's noise of
    # ["gaussian"] escaped as an IndexError traceback, and ["cauchy", 1],
    # "gaussian" and a sigma of -0.1 or 0 failed mid-run (exit 3,
    # header-only results.csv); so did a setting's sigma override of 0.  A
    # beta that is not a number stays a config error, and so does an
    # unknown sweep key.  An integer too large for a float (10**400) as an
    # instance or sweep beta, a power delta, a setting override or an abse
    # number escaped as an OverflowError traceback (exit 1); as a sacb
    # gamma or a Gaussian sigma it passed parsing, then the run died (exit
    # 1) after writing a header-only results.csv and a manifest.json.  Nothing is written
    # anywhere: the run starts in tmp_path, which holds only the config.
    @pytest.mark.parametrize("over,match", [
        ({"T": 1, "policies": [{"kind": "abse", "beta": 0.9}]},
         "horizon must be >= 2"),
        ({"T": 2, "policies": [{"kind": "sacb"}]}, "T=2"),
        ({"sweep": {"T": [1]}}, "horizon must be >= 2"),
        ({"T": "abc"}, "T must be an integer"),
        ({"T": 2500.5}, "T must be an integer"),
        ({"reps": "two"}, "reps must be an integer"),
        ({"sweep": {"T": 5}}, "sweep.T must be a list"),
        ({"checkpoint_stride": "x"}, "checkpoint_stride must be an integer"),
        ({"checkpoint_stride": 2.5}, "checkpoint_stride must be an integer"),
        ({"checkpoint_stride": -3}, "checkpoint_stride must be an integer >= 1"),
        ({"T": 2_000, "instance": {"kind": "setting1", "beta": 0.9}},
         "instance: bump count"),
        ({"instance": {"kind": "setting1", "beta": 1.5}},
         r"instance: beta must be in \(0, 1\]"),
        ({"sweep": {"beta": [0.9, 1.5]}}, r"instance: beta must be in \(0, 1\]"),
        ({"instance": {"kind": "setting1", "beta": 0.9,
                       "overrides": {"MM": 8.0}}},
         r"instance: unknown setting1 overrides \['MM'\]"),
        ({"instance": {"kind": "power", "beta": 0.6, "delt": 0.5}},
         r"instance: unknown power instance keys \['delt'\]"),
        ({"instance": {"kind": "lower_bound", "beta": 0.5, "alpha": 1.0,
                       "delta": 0.2}}, "instance: lower_bound needs 'gamma'"),
        ({"threds": 8}, r"unknown config keys \['threds'\]"),
        ({"rep": 5}, r"unknown config keys \['rep'\]"),
        ({"traces": "no"}, "traces must be true or false, got 'no'"),
        ({"threads": 0}, "threads must be an integer >= 1"),
        ({"threads": -3}, "threads must be an integer >= 1"),
        ({"reps": True}, "reps must be an integer >= 1, got True"),
        ({"threads": True}, "threads must be an integer >= 1, got True"),
        ({"instance": [1, 2]}, r"instance must be a JSON object, got \[1, 2\]"),
        ({"instance": "setting1"},
         "instance must be a JSON object, got 'setting1'"),
        ({"sweep": [1]}, r"sweep must be a JSON object, got \[1\]"),
        ({"policies": [5]}, r"policies\[0\] must be a JSON object, got 5"),
        ({"policies": {"kind": "sacb"}},
         "policies must be a list, got {'kind': 'sacb'}"),
        ({"output_dir": None}, "output_dir must be a string, got None"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        ({"sweep": {"tilde_beta": ["a"]}},
         r"sweep.tilde_beta: beta must be in \(0, 1\], got 'a'"),
        ({"sweep": {"tilde_beta": [0.5, True]}},
         r"sweep.tilde_beta: beta must be in \(0, 1\], got True"),
        *[({"instance": {"kind": "power", "beta": 0.6, "noise": noise},
            "policies": [{"kind": "abse", "beta": 0.6}]},
           r"instance: unknown noise model .*: use \['gaussian', sigma\] "
           r"with sigma > 0 finite, or \['bernoulli'\]")
          for noise in (["gaussian"], ["cauchy", 1], "gaussian",
                        ["gaussian", -0.1], ["gaussian", 0.0])],
        ({"instance": {"kind": "setting1", "beta": 0.9,
                       "overrides": {"M": 8.0, "sigma": 0}}},
         r"instance: unknown noise model \('gaussian', 0\)"),
        ({"sweep": {"beta": ["a"]}},
         "instance: could not convert string to float: 'a'"),
        ({"instance": {"kind": "setting1", "beta": "a"}},
         "instance: could not convert string to float: 'a'"),
        ({"sweep": {"n": [1]}}, "sweep key 'n' not supported"),
        ({"instance": {"kind": "setting1", "beta": HUGE}},
         r"^instance\.beta is an integer too large for a float$"),
        ({"sweep": {"beta": [0.9, HUGE]}},
         r"^sweep\.beta\[1\] is an integer too large for a float$"),
        ({"instance": {"kind": "power", "beta": 0.6, "delta": HUGE},
          "policies": [{"kind": "abse", "beta": 0.6}]},
         r"^instance\.delta is an integer too large for a float$"),
        ({"instance": {"kind": "setting1", "beta": 0.9,
                       "overrides": {"M": HUGE}}},
         r"^instance\.overrides\.M is an integer too large for a float$"),
        ({"policies": [{"kind": "abse", "beta": 0.9, "c0": HUGE}]},
         r"policies\[0\]: c0 is an integer too large for a float"),
        ({"policies": [{"kind": "sacb", "gamma": HUGE}]},
         r"policies\[0\]: gamma is an integer too large for a float"),
        ({"instance": {"kind": "power", "beta": 0.6, "noise": ["gaussian", HUGE]},
          "policies": [{"kind": "abse", "beta": 0.6}]},
         r"^instance\.noise\[1\] is an integer too large for a float$"),
        *[({"instance": {**LOWER_BOUND_INSTANCE, key: HUGE},
            "policies": [{"kind": "abse", "beta": 0.5}]},
           rf"^instance\.{key} is an integer too large for a float$")
          for key in ("gamma", "d")],
        # Integer instance fields were truncated by int(): d 2.5 ran as d 2.
        *[({"instance": {**LOWER_BOUND_INSTANCE, key: value},
            "policies": [{"kind": "abse", "beta": 0.5}]},
           rf"^instance: {key} must be an integer, got {value!r}$")
          for key, value in (("d", 2.5), ("member", 1.5), ("d", True))],
        ({"instance": {"kind": "example1", "beta": 0.5, "tilde_beta": 0.8,
                       "part": 1.9},
          "policies": [{"kind": "abse", "beta": 0.5}]},
         r"^instance: part must be an integer, got 1\.9$"),
        *[({"instance": {"kind": "setting1", "beta": 0.9,
                         "overrides": {"M": 8.0, "m": value}}},
           rf"^instance: overrides\.m must be an integer, got {value!r}$")
          for value in (2.5, True)],
        # JSON 1e999 reads as inf and NaN as nan: a sacb gamma or an abse c0
        # of inf ran, and so did a setting's C of inf, writing a nan regret.
        ({"policies": [{"kind": "sacb", "gamma": math.inf}]},
         r"^policies\[0\]: gamma must be a finite number, got inf$"),
        ({"instance": {"kind": "power", "beta": 0.6},
          "policies": [{"kind": "abse", "beta": 0.6, "c0": math.inf}]},
         r"^policies\[0\]: c0 must be a finite number, got inf$"),
        ({"instance": {"kind": "setting1", "beta": 0.9,
                       "overrides": {"M": 8.0, "C": math.inf}}},
         r"^instance\.overrides\.C must be a finite number, got inf$"),
        ({"instance": {"kind": "setting1", "beta": math.nan}},
         r"^instance\.beta must be a finite number, got nan$"),
        ({"sweep": {"beta": [0.9, math.inf]}},
         r"^sweep\.beta\[1\] must be a finite number, got inf$"),
        ({"instance": {"kind": "power", "beta": 0.6, "delta": math.nan},
          "policies": [{"kind": "abse", "beta": 0.6}]},
         r"^instance\.delta must be a finite number, got nan$"),
        ({"instance": {"kind": "power", "beta": 0.6,
                       "noise": ["gaussian", math.inf]},
          "policies": [{"kind": "abse", "beta": 0.6}]},
         r"^instance\.noise\[1\] must be a finite number, got inf$"),
        # A bool or a numeric string ran as its number: an abse beta or c0
        # of true as 1, a setting beta of true, a T, reps or base_seed
        # string, an instance beta string (kept a string in the normalized
        # config) and a setting override string.
        ({"policies": [{"kind": "abse", "beta": True}]},
         r"^policies\[0\]: beta must be a finite number, got True$"),
        ({"policies": [{"kind": "abse", "beta": 0.9, "c0": True}]},
         r"^policies\[0\]: c0 must be a finite number, got True$"),
        ({"policies": [{"kind": "sacb", "q": "1.4"}]},
         r"^policies\[0\]: q must be a finite number, got '1\.4'$"),
        ({"instance": {"kind": "setting1", "beta": True,
                       "overrides": {"M": 8.0}}},
         r"^instance: beta must be a finite number, got True$"),
        ({"sweep": {"beta": [True]}},
         r"^instance: beta must be a finite number, got True$"),
        ({"T": "20000"}, r"^T must be an integer >= 1, got '20000'$"),
        ({"reps": " 2 "}, r"^reps must be an integer >= 1, got ' 2 '$"),
        ({"base_seed": "7"}, r"^base_seed must be an integer, got '7'$"),
        ({"instance": {"kind": "setting1", "beta": "0.6",
                       "overrides": {"M": 8.0}}},
         r"^instance: beta must be a finite number, got '0\.6'$"),
        ({"instance": {"kind": "setting1", "beta": 0.9,
                       "overrides": {"M": "8"}}},
         r"^instance: overrides\.M must be a finite number, got '8'$"),
        ({"instance": {"kind": "power", "beta": 0.6, "delta": "0.5"},
          "policies": [{"kind": "abse", "beta": 0.6}]},
         r"^instance: delta must be a finite number, got '0\.5'$"),
        ({"instance": {**LOWER_BOUND_INSTANCE, "d": "2"},
          "policies": [{"kind": "abse", "beta": 0.5}]},
         r"^instance: d must be an integer, got '2'$"),
    ], ids=["abse-T1", "sacb-T2", "sweep-T1", "T-not-a-number", "T-fractional",
            "reps-not-a-number", "sweep-scalar", "stride-not-a-number",
            "stride-fractional", "stride-negative", "setting1-no-bumps",
            "instance-beta-range", "sweep-beta-range", "unknown-override",
            "unknown-instance-key", "missing-instance-key", "threds", "rep",
            "traces-string", "threads-zero", "threads-negative", "reps-bool",
            "threads-bool", "instance-list", "instance-string", "sweep-list",
            "policy-number", "policies-object", "output-dir-null",
            "output-dir-number", "tilde-beta-string", "tilde-beta-bool",
            "noise-no-sigma", "noise-cauchy", "noise-string",
            "noise-negative-sigma", "noise-zero-sigma", "setting-zero-sigma",
            "sweep-beta-string", "instance-beta-string", "sweep-key",
            "huge-instance-beta", "huge-sweep-beta", "huge-power-delta",
            "huge-override", "huge-abse-c0", "huge-sacb-gamma",
            "huge-noise-sigma", "huge-lower-bound-gamma", "huge-lower-bound-d",
            "lower-bound-fractional-d", "lower-bound-fractional-member",
            "lower-bound-bool-d", "example1-fractional-part",
            "fractional-override-m", "bool-override-m", "inf-sacb-gamma",
            "inf-abse-c0", "inf-override", "nan-instance-beta", "inf-sweep-beta",
            "nan-power-delta", "inf-noise-sigma", "bool-abse-beta",
            "bool-abse-c0", "string-sacb-q", "bool-instance-beta",
            "bool-sweep-beta", "string-T", "string-reps", "string-base-seed",
            "string-instance-beta", "string-override", "string-power-delta",
            "string-lower-bound-d"])
    def test_horizon_and_integer_errors_exit_2_before_writing(
            self, tmp_path, monkeypatch, over, match):
        p = small_config(tmp_path, **over)
        with pytest.raises(ValidationError, match=match):
            parse_config(p)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(p)]) == 2
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


class TestPlan:
    def test_each_distinct_episode_runs_once(self, tmp_path, monkeypatch):
        # In the tilde_beta = beta cell the anonymous abse is the named
        # abse(beta): two cells of two policies at two reps are 4 distinct
        # episodes, where a run per cell makes 8.  The named abse is every
        # cell's reference.  An integer beta is its float: "beta": 1 split
        # abse(1.0) into a second spec, abse(1), that no cell took as its
        # reference.
        experiments, episodes = [], []
        run_experiment, run_episode = cli.run_experiment, sim.run_episode

        def count_experiment(*args, **kwargs):
            experiments.append(args)
            return run_experiment(*args, **kwargs)

        def count_episode(instance, spec, T, seed, **kwargs):
            episodes.append((spec.kind, repr(sorted(spec.params.items())),
                             kwargs["rep"]))
            return run_episode(instance, spec, T, seed, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", count_experiment)
        monkeypatch.setattr(sim, "run_episode", count_episode)
        for beta, named in ((0.9, 0.9), (1.0, 1)):
            experiments.clear()
            episodes.clear()
            out = tmp_path / f"beta{beta}"
            p = small_config(
                tmp_path, T=5_000, output_dir=str(out),
                instance={"kind": "setting1", "beta": beta,
                          "overrides": {"M": 8.0}},
                sweep={"tilde_beta": [0.5, named]},
                policies=[{"kind": "abse"}, {"kind": "abse", "beta": named}])
            assert main(["run", "--config", str(p)]) == 0
            assert len(experiments) == 1
            assert len(episodes) == 4 and len(set(episodes)) == 4
            rows = _read_results(out / "results.csv")
            assert [(r["policy"], r["relative_loss"] != "") for r in rows[:2]] == [
                ("abse(0.5)", True), (f"abse({beta})", True)]
            assert float(rows[1]["relative_loss"]) == 0.0

    def test_cells_match_their_own_experiments(self, tmp_path):
        inst = {"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}}
        cfg = parse_config(json.loads(small_config(
            tmp_path, sweep={"T": [5_000, 8_000], "beta": [0.5, 0.9],
                             "tilde_beta": [0.5, 0.9]},
            instance=inst,
            policies=[{"kind": "sacb", "gamma": 0.3, "q": 1.4, "upsilon": 1.5,
                       "beta_lo": 0.5, "beta_hi": 1.0},
                      {"kind": "abse", "beta": 0.9}, {"kind": "abse"}],
        ).read_text()))
        rows = run(cfg, tmp_path / "plan")
        expected = []
        cells, groups = plan(cfg)
        for cell, keys, labels in cells:
            specs = [groups[cell["T"], cell["beta"]][key] for key in keys]
            alone = sim.run_experiment(dict(inst, beta=cell["beta"]), specs,
                                       cell["T"], cfg["reps"], cfg["base_seed"])
            for label, s in zip(labels, alone, strict=True):
                expected.append((cell["T"], cell["beta"], cell["tilde_beta"],
                                 label, s.mean_regret, s.sd, s.ci95,
                                 s.mean_t_sacb, s.mean_beta_hat))
        assert len(expected) == 24
        assert [(r["T"], r["beta"], r["tilde_beta"], r["policy"],
                 r["mean_regret"], r["sd"], r["ci95"], r["mean_t_sacb"],
                 r["mean_beta_hat"]) for r in rows] == expected

    def test_failed_run_keeps_the_finished_groups(self, tmp_path, monkeypatch):
        # Cells alternate between beta 0.5 and 0.9, so the first group,
        # beta 0.5, is cells 0 and 2.
        over = dict(T=5_000, sweep={"beta": [0.5, 0.9], "tilde_beta": [0.5, 0.9]},
                    policies=[{"kind": "abse", "beta": 0.9}, {"kind": "abse"}])
        full = small_config(tmp_path, **over, output_dir=str(tmp_path / "full"))
        assert main(["run", "--config", str(full)]) == 0
        full_rows = _read_results(tmp_path / "full" / "results.csv")
        p = small_config(tmp_path, **over, output_dir=str(tmp_path / "failed"))
        run_experiment, calls = cli.run_experiment, []

        def second_group_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("second group fails")
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", second_group_fails)
        assert main(["run", "--config", str(p)]) == 3
        out = tmp_path / "failed"
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(c["cell"], c["beta"], c["tilde_beta"])
                for c in manifest["completed"]] == [(0, 0.5, 0.5), (2, 0.5, 0.9)]
        rows = _read_results(out / "results.csv")
        assert len(rows) == 4
        assert [{k: v for k, v in r.items() if k != "config_hash"} for r in rows] == [
            {k: v for k, v in r.items() if k != "config_hash"}
            for r in full_rows if r["beta"] == "0.5"]


class TestSweepAndPlot:
    def test_tilde_beta_sweep_and_curves(self, tmp_path):
        p = small_config(
            tmp_path, T=10_000,
            policies=[{"kind": "abse"}, {"kind": "abse", "beta": 0.9}],
            sweep={"tilde_beta": [0.5, 0.7, 0.9]})
        assert main(["run", "--config", str(p), "--figure", "sweep"]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        rows = _read_results(out / "results.csv")
        assert len(rows) == 6  # 3 cells x 2 policies
        curves = list((out / "plotdata").glob("curve_*.csv"))
        assert len(curves) >= 2
        svg = out / "plotdata" / "sweep.svg"
        assert svg.exists() and svg.read_text().startswith("<svg")
        header = curves[0].read_text().splitlines()[1]
        assert header == "x,mean,ci_lo,ci_hi"

    # With one tilde_beta value no axis takes two values, and tilde_beta,
    # being set, is the axis.
    def test_one_value_tilde_beta_sweep_is_the_axis(self, tmp_path):
        p = small_config(tmp_path, T=5_000, reps=1, policies=[{"kind": "abse"}],
                         sweep={"tilde_beta": [0.7]})
        assert main(["run", "--config", str(p), "--figure", "sweep"]) == 0
        pdir = Path(json.loads(p.read_text())["output_dir"]) / "plotdata"
        curve = (pdir / "curve_abse_0p7.csv").read_text().splitlines()
        assert curve[1] == "x,mean,ci_lo,ci_hi"
        assert [line.split(",")[0] for line in curve[2:]] == ["0.7"]
        assert "tilde_beta" in (pdir / "sweep.svg").read_text()

    def test_sweep_figure_without_sweep_exits_2_before_running(self, tmp_path):
        p = small_config(tmp_path, T=5_000)
        assert main(["run", "--config", str(p), "--figure", "sweep"]) == 2
        out = Path(json.loads(p.read_text())["output_dir"])
        assert not (out / "results.csv").exists()

    def test_plot_without_sweep_axis_exits_2_and_writes_nothing(self, tmp_path):
        p = small_config(tmp_path, T=5_000, reps=1,
                         policies=[{"kind": "abse", "beta": 0.9}])
        assert main(["run", "--config", str(p)]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        # The default figure is the sweep, and this results.csv has no axis.
        assert main(["plot", "--config", str(p)]) == 2
        assert not (out / "plotdata").exists()

    def test_table_emission(self, tmp_path):
        p = small_config(tmp_path, T=10_000)
        main(["run", "--config", str(p), "--figure", "table"])
        out = Path(json.loads(p.read_text())["output_dir"])
        matrix = (out / "plotdata" / "regret_matrix.csv").read_text()
        rl = (out / "plotdata" / "relative_loss.csv").read_text()
        assert "beta," in matrix
        # reference policy has relative loss exactly 0
        row = rl.splitlines()[2]
        cells = dict(zip(rl.splitlines()[1].split(","), row.split(",")))
        assert float(cells["abse(0.9)"]) == 0.0

    # The table's rows are keyed by beta, so over a T sweep it used to keep
    # the last T alone; run and plot now refuse it before writing.
    def test_table_over_a_T_sweep_exits_2_before_writing(self, tmp_path):
        p = small_config(tmp_path, reps=1, policies=[{"kind": "abse", "beta": 0.9}],
                         sweep={"T": [5_000, 8_000]})
        out = Path(json.loads(p.read_text())["output_dir"])
        assert main(["run", "--config", str(p), "--figure", "table"]) == 2
        assert not out.exists()
        assert main(["run", "--config", str(p)]) == 0
        assert main(["plot", "--config", str(p), "--figure", "table"]) == 2
        assert not (out / "plotdata").exists()

    def test_emit_plot_data_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown figure kind 'bars'"):
            emit_plot_data([], "bars", tmp_path)
        assert not (tmp_path / "plotdata").exists()

    # The table used to repeat each policy's column once per tilde_beta
    # cell and to recompute relative loss from the rounded regrets.  The
    # grid holds beta, so that cell's rows are in the table too.
    def test_table_pivots_results(self, tmp_path):
        p = small_config(tmp_path, T=5_000, reps=1,
                         policies=[{"kind": "sacb", "gamma": 0.3, "q": 1.4,
                                    "upsilon": 1.5, "beta_lo": 0.5,
                                    "beta_hi": 1.0},
                                   {"kind": "abse", "beta": 0.9},
                                   {"kind": "abse"}],
                         sweep={"tilde_beta": [0.5, 0.7, 0.9]})
        assert main(["run", "--config", str(p), "--figure", "table"]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        rows = _read_results(out / "results.csv")
        labels = list(dict.fromkeys(r["policy"] for r in rows))
        matrix = (out / "plotdata" / "regret_matrix.csv").read_text().splitlines()
        rl = (out / "plotdata" / "relative_loss.csv").read_text().splitlines()
        assert matrix[1] == rl[1] == "beta," + ",".join(labels)
        assert len(matrix) == len(rl) == 3
        table = dict(zip(labels, rl[2].split(",")[1:], strict=True))
        for r in rows:
            assert table[r["policy"]] == r["relative_loss"]

    def test_levels_subcommand(self, tmp_path, capsys):
        p = small_config(tmp_path, T=2_000_000,
                         policies=[{"kind": "sacb"}])
        assert main(["levels", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "l=7" in out and "r_bar=24" in out and "j2=78" in out

    def test_levels_subcommand_takes_d_from_instance(self, tmp_path, capsys):
        p = small_config(tmp_path, T=2_000_000, policies=[{"kind": "sacb"}],
                         instance={"kind": "lower_bound", "beta": 0.5,
                                   "gamma": 0.9, "alpha": 1.0, "delta": 0.25,
                                   "member": 1, "d": 2})
        assert main(["levels", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "d=2" in out
        assert "l=14" in out and "r_bar=38" in out and "j2=85" in out
        assert "l_tilde=106" in out and "bins_per_axis=4" in out

    # levels prints one block per group, (T, beta), and per distinct SACB
    # spec, from the policy each group's episodes build.
    def test_levels_prints_each_group_and_sacb_spec(self, tmp_path, capsys):
        tuned = {"gamma": 0.3, "q": 1.4, "upsilon": 1.5, "beta_lo": 0.5,
                 "beta_hi": 1.0}
        p = small_config(tmp_path, sweep={"T": [20_000, 200_000],
                                          "beta": [0.5, 0.9]},
                         policies=[{"kind": "sacb", **tuned}, {"kind": "sacb"},
                                   {"kind": "abse", "beta": 0.9}])
        assert main(["levels", "--config", str(p)]) == 0
        expected = []
        for T in (20_000, 200_000):
            for beta in (0.5, 0.9):
                for c in (SacbConfig(**tuned), SacbConfig()):
                    lv = sacb_levels(T, 1, c.q, c.beta_lo, c.beta_hi, c.upsilon)
                    expected += [
                        f"T={T} beta={beta} d=1: sacb q={c.q} beta_lo={c.beta_lo} "
                        f"beta_hi={c.beta_hi} upsilon={c.upsilon}",
                        f"l={lv.l} r_bar={lv.r_bar} j1={lv.j1} j2={lv.j2} "
                        f"l_tilde={lv.l_tilde}",
                        f"bins_per_axis={cells_per_axis(c.q, lv.l)}"]
        assert capsys.readouterr().out.splitlines() == expected

    # levels used to print a default SACB policy's levels for a config
    # that runs none.
    def test_levels_without_sacb(self, tmp_path, capsys):
        p = small_config(tmp_path, policies=[{"kind": "abse", "beta": 0.9}])
        assert main(["levels", "--config", str(p)]) == 0
        assert capsys.readouterr().out == "no sacb policy in the config\n"

    # verify and levels built the instance at the top-level T, which no
    # cell runs: this config exited 3 (no setting1 construction at T = 500).
    @pytest.mark.parametrize("command", ["verify", "levels"])
    def test_subcommands_use_the_swept_horizons(self, tmp_path, capsys, command):
        p = small_config(tmp_path, T=500, sweep={"T": [200_000]},
                         instance={"kind": "setting1", "beta": 0.9})
        assert main([command, "--config", str(p)]) == 0
        assert "T=200000" in capsys.readouterr().out

    # verify used to grade the first beta's instance alone.
    def test_verify_grades_every_beta(self, tmp_path, capsys):
        p = small_config(tmp_path, sweep={"beta": [0.5, 0.9]})
        assert main(["verify", "--config", str(p)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split(" d=")[0] for ln in out if ln.startswith("instance")] == [
            "instance setting1 T=20000 beta=0.5", "instance setting1 T=20000 beta=0.9"]
        assert [ln.split(":")[0] for ln in out if not ln.startswith("instance")] == [
            "holder", "margin"] * 2

    def test_verify_subcommand(self, tmp_path, capsys):
        p = small_config(tmp_path, T=100_000,
                         instance={"kind": "power", "beta": 0.6, "delta": 1.0})
        assert main(["verify", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        # Witness points print as plain floats, not numpy scalars.
        assert "self_similarity: holds" in out and "witness={" in out
        assert "np.float64" not in out

    # verify grades (beta, L) and (alpha, C0) where they are declared.  The
    # at-least-lipschitz nominal member declares beta = 1.5 for a linear
    # payoff, which a wrong-sign Taylor term reported as a holder violation
    # (deviation 0.0551, exit 1).
    @pytest.mark.parametrize("instance,graded", [
        ({"kind": "setting1", "beta": 0.9, "overrides": {"M": 8.0}},
         ["holder: holds", "margin: holds"]),
        ({"kind": "lower_bound", "beta": 1.0, "gamma": 1.5, "alpha": 1,
          "delta": 0.2, "variant": "at-least-lipschitz", "member": 0},
         ["holder: holds", "margin: holds"]),
    ], ids=["setting1", "lower-bound-smooth"])
    def test_verify_grades_each_declared_property(self, tmp_path, capsys,
                                                  instance, graded):
        p = small_config(tmp_path, instance=instance,
                         policies=[{"kind": "oracle"}])
        assert main(["verify", "--config", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [ln.split(" margin=")[0] for ln in lines] == graded


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_config_parses_and_prints_levels(path):
    parse_config(path)
    assert main(["levels", "--config", str(path)]) == 0


# pytest has imported numpy before banditlab, so only a fresh interpreter
# shows what importing banditlab does to the BLAS threads.  Its environment
# is built here: this process's own now carries banditlab's default.
BLAS_PROBE = """
import json, os
from banditlab import cli
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "recorded": cli._run_platform()["openblas_num_threads"]}))
"""


# run_meta.json records the value numpy's OpenBLAS read: the user's when
# preset, and none when numpy loaded first with the variable unset, though
# banditlab still sets it for scipy.  That last case recorded "1".
@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task")
@pytest.mark.parametrize("preset,numpy_first,env_value,recorded", [
    (None, False, "1", "1"), ("2", False, "2", "2"), (None, True, "1", None),
], ids=["unset", "preset", "numpy-first"])
def test_import_sets_one_blas_thread_unless_preset(preset, numpy_first,
                                                   env_value, recorded):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import numpy\n" if numpy_first else "") + BLAS_PROBE
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    probe = json.loads(out.stdout)
    assert (probe["env"], probe["recorded"]) == (env_value, recorded)
    if preset is None and not numpy_first:
        assert probe["threads"] == 1
