import json
from pathlib import Path

import pytest

from banditlab.cli import (
    RESULTS_HEADER,
    config_hash,
    emit_plot_data,
    main,
    parse_config,
    _read_results,
)
from banditlab.errors import ValidationError


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


class TestRun:
    def test_end_to_end_and_header(self, tmp_path):
        p = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        out = Path(json.loads(p.read_text())["output_dir"])
        text = (out / "results.csv").read_text()
        assert text.splitlines()[0] == RESULTS_HEADER
        rows = _read_results(out / "results.csv")
        assert len(rows) == 3
        assert (out / "run_meta.json").exists()
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

    def test_bad_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"instance": {"kind": "nope"},
                                 "policies": [], "T": 0}))
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_runtime_failure_exit_code_and_manifest(self, tmp_path):
        # valid config whose instance construction degenerates at runtime:
        # setting1 at a horizon where no bump fits
        p = small_config(tmp_path, T=2_000,
                         instance={"kind": "setting1", "beta": 0.9})
        assert main(["run", "--config", str(p)]) == 3
        out = Path(json.loads(p.read_text())["output_dir"])
        assert (out / "manifest.json").exists()
        assert (out / "results.csv").exists()


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

    def test_verify_subcommand(self, tmp_path):
        p = small_config(tmp_path, T=100_000,
                         instance={"kind": "power", "beta": 0.6, "delta": 1.0})
        assert main(["verify", "--config", str(p)]) == 0
