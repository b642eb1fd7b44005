import json

import pytest

from skybeam.cli import main
from skybeam.config import default_config


@pytest.fixture()
def small_config_path(tmp_path):
    cfg = default_config()
    cfg["layout"]["tiers"] = 1
    cfg["highway"]["polyline"] = [
        [-312.5, 144.3375673, 100.0],
        [312.5, 144.3375673, 100.0],
    ]
    cfg["optimizer"].update(
        {"n_pop": 16, "n_parents": 8, "n_elites": 3, "max_iters": 60, "stop_iters": 40}
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


RUN_OUTPUTS = [
    "manifest.json",
    "summary.json",
    "segment_metric.csv",
    "ega_trace.csv",
    "optimized_plan.json",
    "ssb_codebook.csv",
    "association_baseline.csv",
    "association_optimized.csv",
    "report_baseline.csv",
    "report_optimized.csv",
]


class TestRun:
    def test_valid_config_writes_everything(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "2"])
        assert code == 0
        for name in RUN_OUTPUTS:
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "baseline" in printed and "optimized" in printed and "5%-tile" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["designated_cells"]
        assert set(manifest["ega"]) == {"iterations", "evals", "stop_reason", "feasible", "violations"}
        assert manifest["ega"]["stop_reason"] in ("stagnation", "max_iters")

    def test_missing_radio_block_exits_1(self, tmp_path, capsys):
        cfg = default_config()
        del cfg["radio"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "radio" in capsys.readouterr().err

    def test_determinism_and_thread_independence(self, small_config_path, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(small_config_path), "--out", str(out1), "--snapshots", "2"]) == 0
        assert main(["run", "--config", str(small_config_path), "--out", str(out2), "--snapshots", "2"]) == 0
        for name in RUN_OUTPUTS:
            if name == "manifest.json":  # carries wall-clock timing
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_outputs(self, small_config_path, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", "--config", str(small_config_path), "--out", str(out1), "--snapshots", "2"])
        main(["run", "--config", str(small_config_path), "--out", str(out2), "--snapshots", "2",
              "--seed", "99"])
        assert (out1 / "report_baseline.csv").read_bytes() != (out2 / "report_baseline.csv").read_bytes()

    def test_env_override(self, small_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SKYBEAM_OPTIMIZER_MAX_ITERS", "5")
        out = tmp_path / "env"
        assert main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"]) == 0
        trace = (out / "ega_trace.csv").read_text().splitlines()
        assert len(trace) - 1 <= 5

    def test_env_override_not_json_exits_1(self, small_config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKYBEAM_SEEDS_MASTER", "abc")
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "SKYBEAM_SEEDS_MASTER" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value, key",
        [
            ("SKYBEAM_OPTIMIZER_P_MUT", "1.5", "optimizer.p_mut"),
            ("SKYBEAM_OPTIMIZER_N_ELITES", "0", "optimizer"),
            ("SKYBEAM_SEEDS_MASTER", '"abc"', "seeds.master"),
        ],
    )
    def test_env_override_out_of_range_exits_1(
        self, small_config_path, tmp_path, monkeypatch, capsys, variable, value, key
    ):
        monkeypatch.setenv(variable, value)
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected before any work starts

    def test_bad_geometry_value_exits_1(self, small_config_path, tmp_path, capsys):
        cfg = json.loads(small_config_path.read_text())
        cfg["highway"]["point_spacing_m"] = 0
        small_config_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "highway.point_spacing_m" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestInfeasibleSearch:
    """Seed 1 of the default scenario is first feasible at GA iteration 545,
    so a one-iteration search ends infeasible."""

    @pytest.fixture()
    def one_iteration_config(self, tmp_path):
        cfg = default_config()
        cfg["optimizer"]["max_iters"] = 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_flags_manifest_and_warns(self, one_iteration_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(one_iteration_config), "--out", str(out), "--snapshots", "1"])
        assert code == 0
        ega = json.loads((out / "manifest.json").read_text())["ega"]
        assert ega["feasible"] is False and ega["violations"] > 0
        assert ega["iterations"] == 1 and ega["evals"] == 100
        assert ega["stop_reason"] == "max_iters"
        assert "infeasible" in capsys.readouterr().err

    def test_sweep_warns(self, one_iteration_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(one_iteration_config), "--out", str(out), "--n-max", "1",
             "--snapshots", "1"]
        )
        assert code == 0
        assert "infeasible" in capsys.readouterr().err


class TestSweep:
    def test_rows_match_n_max(self, small_config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(small_config_path), "--out", str(out), "--n-max", "3",
             "--snapshots", "2"]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        series = (out / "sweep_baseline_series.csv").read_text().splitlines()
        assert series[0] == "n_uavs,p5_uav_rate_bps"
        assert len(series) == 1 + 3

    def test_single_row(self, small_config_path, tmp_path):
        out = tmp_path / "sweep1"
        assert (
            main(
                ["sweep", "--config", str(small_config_path), "--out", str(out), "--n-max", "1",
                 "--snapshots", "1"]
            )
            == 0
        )
        assert len((out / "sweep.csv").read_text().splitlines()) == 2

    def test_reproducible(self, small_config_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            main(
                ["sweep", "--config", str(small_config_path), "--out", str(out), "--n-max", "2",
                 "--snapshots", "2"]
            )
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


class TestInspect:
    def test_plan_json_table(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"])
        capsys.readouterr()
        assert main(["inspect", str(out / "optimized_plan.json")]) == 0
        printed = capsys.readouterr().out
        assert "sector" in printed and "codeword" in printed

    def test_trace_summary(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"])
        capsys.readouterr()
        assert main(["inspect", str(out / "ega_trace.csv")]) == 0
        printed = capsys.readouterr().out
        assert "max fitness" in printed and "last improvement" in printed

    def test_metric_summary(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"])
        capsys.readouterr()
        assert main(["inspect", str(out / "segment_metric.csv")]) == 0
        assert "metric table" in capsys.readouterr().out

    def test_empty_file_is_format_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["inspect", str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.csv")]) == 2
