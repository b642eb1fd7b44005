import csv
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
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

    def test_manifest_records_environment(self, small_config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"]) == 0
        env = json.loads((out / "manifest.json").read_text())["env"]
        assert set(env) == {"python", "numpy", "blas_name", "blas_version", "nproc",
                            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["nproc"], int) and env["nproc"] >= 1
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["OMP_NUM_THREADS"] is None

    def test_elapsed_time_survives_a_wall_clock_step_back(self, small_config_path, tmp_path, monkeypatch):
        """Every `time.time` reading is an hour before the one before it, as
        if the wall clock were set back; the manifest's duration stays >= 0."""
        readings = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(time, "time", lambda: float(next(readings)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"]) == 0
        assert json.loads((out / "manifest.json").read_text())["elapsed_s"] >= 0

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
            ("SKYBEAM_CHANNEL_SHADOW_CORR_DIST_GROUND_M", "-50", "channel.shadow_corr_dist_ground_m"),
            ("SKYBEAM_RADIO_N_PRB_TOTAL", "-5", "radio.n_prb_total"),
            # the config sets a polyline, whose z gives the corridor heights
            ("SKYBEAM_HIGHWAY_ALTITUDE_M", "50", "highway.altitude_m"),
            # variables that name no config key, as a misspelling does
            ("SKYBEAM_OPTIMIZER_MAX_ITER", "5", "SKYBEAM_OPTIMIZER_MAX_ITER"),
            ("SKYBEAM_NOISE_DB", "5", "SKYBEAM_NOISE_DB"),
            # keys that earlier versions had
            ("SKYBEAM_RADIO_BANDWIDTH_HZ", "30e6", "SKYBEAM_RADIO_BANDWIDTH_HZ"),
            ("SKYBEAM_RADIO_SSB_NOISE_POWER_DBM", "-96.4", "SKYBEAM_RADIO_SSB_NOISE_POWER_DBM"),
            ("SKYBEAM_RADIO_MAX_SSB_POWER_DBM", "43", "SKYBEAM_RADIO_MAX_SSB_POWER_DBM"),
            ("SKYBEAM_LAYOUT_ELEMENT_SPACING_H_WAVELENGTHS", "0.5", "SKYBEAM_LAYOUT_ELEMENT_SPACING_H_WAVELENGTHS"),
            ("SKYBEAM_LAYOUT_ELEMENT_SPACING_V_WAVELENGTHS", "0.5", "SKYBEAM_LAYOUT_ELEMENT_SPACING_V_WAVELENGTHS"),
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

    def test_altitude_beside_a_polyline_exits_1(self, small_config_path, tmp_path, capsys):
        """The polyline's z gives the corridor heights, so an altitude other
        than the default beside it would be dropped without a word."""
        cfg = json.loads(small_config_path.read_text())
        cfg["highway"]["altitude_m"] = 50.0
        small_config_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "highway.altitude_m" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("key", ["uav_spacing_m", "point_spacing_m"])
    def test_spacing_longer_than_corridor_exits_1(self, small_config_path, tmp_path, capsys, key):
        cfg = json.loads(small_config_path.read_text())
        cfg["highway"][key] = 5000.0  # the corridor is 625 m long
        small_config_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"highway.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--n-max", "2"]])
    @pytest.mark.parametrize(
        "block, key, value",
        [("layout", "isd_m", 17.3), ("layout", "isd_m", 17.9), ("users", "gues_per_cell", 0)],
    )
    def test_no_ground_users_to_drop_exits_1(
        self, small_config_path, tmp_path, capsys, command, block, key, value
    ):
        cfg = json.loads(small_config_path.read_text())
        cfg[block][key] = value
        small_config_path.write_text(json.dumps(cfg))
        argv = [*command, "--config", str(small_config_path), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{block}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [("radio", "bandwidth_hz", 30e6), ("radio", "ssb_noise_power_dbm", -96.4),
         ("layout", "element_spacing_h_wavelengths", 0.5), ("layout", "element_spacing_v_wavelengths", 0.5),
         ("radio", "max_ssb_power_dbm", 43.0)],
    )
    def test_removed_key_in_file_exits_1(self, small_config_path, tmp_path, capsys, block, key, value):
        """Keys that earlier versions had are unknown now: a config saved
        from an earlier `default_config()` must drop them."""
        assert key not in default_config()[block]
        cfg = json.loads(small_config_path.read_text())
        cfg[block][key] = value
        small_config_path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "o"), "--snapshots", "1"])
        assert code == 1
        assert f"unknown config key '{block}.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_replaced_beams_keep_the_per_beam_power(self, small_config_path, tmp_path):
        """Every SSB beam of a sector, a replaced one too, transmits the
        sector power split equally over the eight beams."""
        cfg = json.loads(small_config_path.read_text())
        cfg["radio"]["sector_tx_power_dbm"] = 40.0
        small_config_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"]) == 0
        beams = json.loads((out / "optimized_plan.json").read_text())["modified_beams"]
        assert beams
        assert [beam["power_dbm"] for beam in beams] == [40.0 - 10.0 * math.log10(8)] * len(beams)

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--n-max", "2"]])
    @pytest.mark.parametrize("source", ["file", "env", "flag"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_out_of_range_exits_1(
        self, small_config_path, tmp_path, monkeypatch, capsys, command, source, seed
    ):
        """A seed outside [0, 2**64) is rejected before any artifact is
        written, wherever it comes from."""
        argv = [*command, "--config", str(small_config_path), "--out", str(tmp_path / "o"), "--snapshots", "1"]
        if source == "file":
            cfg = json.loads(small_config_path.read_text())
            cfg["seeds"]["master"] = seed
            small_config_path.write_text(json.dumps(cfg))
        elif source == "env":
            monkeypatch.setenv("SKYBEAM_SEEDS_MASTER", str(seed))
        else:
            argv += ["--seed", str(seed)]
        assert main(argv) == 1
        assert "seeds.master" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_config_file_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"radio": {}, "seeds": {"master": 1}, "layout": "\xff"}')
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--n-max", "2"]])
    def test_zero_snapshots_exits_1(self, small_config_path, tmp_path, capsys, command):
        argv = [*command, "--config", str(small_config_path), "--out", str(tmp_path / "o"),
                "--snapshots", "0"]
        assert main(argv) == 1
        assert "--snapshots" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--n-max", "3"]])
def test_ground_users_drawn_once_per_snapshot(small_config_path, tmp_path, monkeypatch, command):
    """Snapshot 0's ground users serve the search and the evaluation; the
    sweep draws each snapshot's ground users once for all UAV counts. When
    snapshot 1's ground block is built, no reference keeps snapshot 0's
    alive."""
    from skybeam import evaluation, scenario

    snapshots = []
    original = scenario.place_ground_users

    def counting(*args, **kwargs):
        snapshots.append(kwargs["snapshot"])
        return original(*args, **kwargs)

    blocks, alive_at_build = [], []
    build = evaluation.build_channels

    def recording(*args):
        if args[3] == "ue":
            alive_at_build.append(sum(ref() is not None for ref in blocks))
        channels = build(*args)
        if args[3] == "ue":
            blocks.append(weakref.ref(channels))
        return channels

    monkeypatch.setattr(scenario, "place_ground_users", counting)
    monkeypatch.setattr(evaluation, "build_channels", recording)
    argv = [*command, "--config", str(small_config_path), "--out", str(tmp_path / "o"), "--snapshots", "2"]
    assert main(argv) == 0
    assert snapshots == [0, 1]
    assert alive_at_build == [0, 0]


class TestInfeasibleSearch:
    """Seed 1 of the default scenario is first feasible at GA iteration 438,
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
        # the trace records the best genome's violation count, and `inspect` reports it
        with open(out / "ega_trace.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert float(row["best_fitness_db"]) == -math.inf
        assert int(row["violations"]) == ega["violations"]
        assert main(["inspect", str(out / "ega_trace.csv")]) == 0
        assert capsys.readouterr().out == (
            f"trace: 1 iterations, no iteration was feasible; fewest violating points {ega['violations']}\n"
        )

    def test_sweep_warns(self, one_iteration_config, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--config", str(one_iteration_config), "--out", str(out), "--n-max", "1",
             "--snapshots", "1"]
        )
        assert code == 0
        assert "infeasible" in capsys.readouterr().err
        ega = json.loads((out / "manifest.json").read_text())["ega"]
        assert ega["feasible"] is False and ega["violations"] > 0


class TestSweep:
    def test_manifest_matches_sweep_csv(self, small_config_path, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(small_config_path), "--out", str(out), "--n-max", "4",
                "--snapshots", "2"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert (manifest["snapshots"], manifest["n_max"]) == (2, 4)
        assert manifest["designated_cells"]
        assert set(manifest["ega"]) == {"iterations", "evals", "stop_reason", "feasible", "violations"}
        assert "OPENBLAS_NUM_THREADS" in manifest["env"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for key, kind, pick in (("max_uav_rate_ratio", "uav", max), ("min_gue_rate_ratio", "gue", min)):
            ratios = {int(r["n_uavs"]): float(r[f"p5_{kind}_rate_optimized_bps"])
                      / float(r[f"p5_{kind}_rate_baseline_bps"]) for r in rows}
            n_best = pick(ratios, key=ratios.get)
            assert manifest["sweep"][key]["n_uavs"] == n_best, key
            assert manifest["sweep"][key]["ratio"] == pytest.approx(ratios[n_best], rel=1e-9), key


    def test_manifest_lists_only_this_commands_outputs(self, small_config_path, tmp_path):
        """`run`, then `sweep`, then `run` again into one directory: each
        manifest lists the files its own command wrote, not the files an
        earlier command left there, its manifest included."""
        out = tmp_path / "shared"
        common = ["--config", str(small_config_path), "--out", str(out), "--snapshots", "1"]
        run_outputs = sorted(name for name in RUN_OUTPUTS if name != "manifest.json")
        sweep_outputs = ["ega_trace.csv", "optimized_plan.json", "segment_metric.csv", "sweep.csv",
                         "sweep_baseline_series.csv", "sweep_optimized_series.csv"]
        for argv, want in ((["run", *common], run_outputs), (["sweep", *common, "--n-max", "2"], sweep_outputs),
                           (["run", *common], run_outputs)):
            assert main(argv) == 0
            assert json.loads((out / "manifest.json").read_text())["outputs"] == want, argv[0]

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

    def test_trace_never_feasible(self, tmp_path, capsys):
        trace = tmp_path / "ega_trace.csv"
        trace.write_text("iteration,best_fitness_db,violations,evals\n0,-inf,5,100\n1,-inf,3,180\n2,-inf,3,260\n")
        assert main(["inspect", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert printed == "trace: 3 iterations, no iteration was feasible; fewest violating points 3\n"

    def test_metric_summary(self, small_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(small_config_path), "--out", str(out), "--snapshots", "1"])
        capsys.readouterr()
        assert main(["inspect", str(out / "segment_metric.csv")]) == 0
        rows = (out / "segment_metric.csv").read_text().splitlines()[1:]
        n_sectors = 21  # one tier: 7 sites of 3 sectors, every one scored against every segment
        assert {int(row.split(",")[1]) for row in rows} == set(range(n_sectors))
        sectors = ", ".join(str(b) for b in range(n_sectors))  # 2 before 10, not "0, 1, 10, 11, ..."
        assert capsys.readouterr().out == f"metric table: {len(rows)} rows, sectors scored: {sectors}\n"

    def test_empty_file_is_format_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["inspect", str(empty)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize(
        "name, text",
        [
            ("optimized_plan.json", '{"modified_beams": 5}'),
            ("optimized_plan.json", '{"modified_beams": {"sector": 1}}'),
            ("optimized_plan.json", '{"modified_beams": [{"sector": 1, "codeword": 2, "power_dbm": 3.0}]}'),
            ("optimized_plan.json", '{"modified_beams": [{"sector": 1, "slot": 0, "codeword": 2, "power_dbm": "x"}]}'),
            ("optimized_plan.json", '{"modified_beams": '),
            ("ega_trace.csv", "iteration,best_fitness_db,violations,evals\n0,1.5,0,100\n1\n"),
            ("segment_metric.csv", "segment_id,sector_id,p_gain_db,inv_cond,cross_corr_db,chi\n0\n"),
            ("summary.json", "[1, 2]"),
            ("summary.json", '"x"'),
            ("ega_trace.csv", b"iteration,best_fitness_db,violations,evals\n0,\xff,0,100\n"),
        ],
        ids=["beams-not-a-list", "beams-a-dict", "entry-without-slot", "power-not-a-number", "truncated-json",
             "short-trace-row", "short-metric-row", "json-array", "json-string", "not-utf8"],
    )
    def test_malformed_artifact_is_format_error(self, tmp_path, capsys, name, text):
        """A malformed artifact exits 2 with a message naming the file, and
        prints nothing to stdout: a `.json` file must hold an object, and
        every artifact must be UTF-8 text."""
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["inspect", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_numpy_ma_is_never_imported(small_config_path, tmp_path, command):
    """No library call reaches `np.unique`, whose first call imports
    `numpy.ma` (about 13 ms per process); checked in a fresh interpreter."""
    argv = [command, "--config", str(small_config_path), "--out", str(tmp_path / "out"), "--snapshots", "2"]
    if command == "sweep":
        argv += ["--n-max", "3"]
    script = (
        "import sys\n"
        "from skybeam.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_benchmark_setup_stage_runs(tmp_path):
    """perfbench's setup stage (`child.py setup`) still runs against the
    library's API: import, config loading, scenario and codebooks."""
    root = Path(__file__).resolve().parent.parent
    config = tmp_path / "config.json"
    config.write_text(json.dumps(default_config()))
    result = tmp_path / "setup.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "setup", str(config), "1", str(result)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(result.read_text())


def _load_benchmark_harness(monkeypatch):
    """perfbench/run.py as a module, registered in `sys.modules` before it
    runs: its dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# layer names the tracer looks up that the library no longer defines
STALE_SPANS = {
    "channel.stack_highway_channels",
    "genetic.FitnessEvaluator.evaluate_detailed",
    "evaluation.data_phase",
}


@pytest.mark.parametrize("command, traced", [("run", False), ("sweep", True)])
def test_benchmark_operation_runs(small_cfg, tmp_path, monkeypatch, command, traced):
    """perfbench's operation (`child.py op`) runs `skybeam run` untraced and
    `skybeam sweep` traced, and the harness's own output check accepts what
    they write. On the small layout with a 5-iteration search; seed 2, so
    the default seed's quality gate does not apply. The tracer finds every
    layer it wraps but the stale ones."""
    harness = _load_benchmark_harness(monkeypatch)
    root = Path(__file__).resolve().parent.parent
    small_cfg["optimizer"].update({"max_iters": 5, "stop_iters": 5})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_cfg))
    workload = harness.Workload(command, ga_iters=5, snapshots=2, n_max=3 if command == "sweep" else 0)
    out, result = tmp_path / "out", tmp_path / "op.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "op", str(int(traced)), str(result),
         *workload.argv(config, out, 2)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    problems, _ = harness.check_outputs(workload, out, 2)
    assert problems == []
    trace = json.loads(result.read_text())["trace"]
    if traced:
        assert set(trace["missing"]) <= STALE_SPANS
        assert trace["spans"]["evaluation.evaluate_snapshot"]["calls"] == workload.snapshots
        assert trace["spans"]["evaluation.traffic_sweep"]["calls"] == 1
    else:
        assert trace is None


def test_import_leaves_numpy_random_unloaded():
    """Importing the CLI loads no `numpy.random`: the set-up stage (import,
    config, scenario, codebooks) pays for it only once a stream is derived."""
    script = "import sys\nimport skybeam.cli\nprint('numpy.random' in sys.modules)\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_report_rows_match_fstring_formatting(tmp_path):
    """Each CSV writer's file, written through the output directory, holds
    the bytes of the per-value f-strings the writers used to format: the
    report, the segment metric, the search trace, the sweep table and the
    sweep series, on zero, signed-zero, infinite, NaN, subnormal and huge
    values."""
    from skybeam.cli import (
        METRIC_CSV, REPORT_CSV, SERIES_CSV, SWEEP_CSV, TRACE_CSV, _metric_rows, _report_rows, _RunDir,
        _series_rows, _sweep_rows, _trace_rows,
    )
    from skybeam.evaluation import DataPhaseReport, SnapshotResult, SweepResult
    from skybeam.genetic import FitnessTrace
    from skybeam.segment_metric import SegmentAssignment

    def db(x):
        return 10.0 * math.log10(x) if x > 0 else -math.inf

    kinds = np.array(["ground", "aerial", "aerial"])
    values = np.array([[-0.0, np.inf, 5e-324], [np.nan, -np.inf, 1e300], [1.0 / 3.0, -12.5, 123456789012.0]])
    sector = np.array([3, 0, 56])
    data = DataPhaseReport(precoder=sector, n_codeword_sharers=sector, sinr_db=values[1], rate_bps=values[2])
    res = SnapshotResult(kinds=kinds, serving_sector=sector, serving_slot=sector, serving_rsrp_mw=values[0],
                         coverage_sinr_db=values[0], data=data)
    report = "".join(
        f"{7},{i},{kind},{sector[i]},{values[0][i]:.10g},{values[1][i]:.10g},{values[2][i]:.10g}\n"
        for i, kind in enumerate(kinds)
    )

    grid = np.array([[0.0, 5e-324, 1.0 / 3.0], [1e300, np.nan, 2.5e-13]])
    assignment = SegmentAssignment(designated_cells=(0, 2), required_cell=np.array([2, 0]),
                                   p_gain=grid, inv_cond=grid[::-1], cross_corr=grid[:, ::-1], chi=-grid)
    metric = "".join(
        f"{z},{b},{db(p):.10g},{assignment.inv_cond[z, b]:.10g},{db(assignment.cross_corr[z, b]):.10g},"
        f"{assignment.chi[z, b]:.10g}\n"
        for (z, b), p in np.ndenumerate(grid)
    )

    trace = FitnessTrace(iterations=[0, 1, 2], best_fitness=[-math.inf, 1.0 / 3.0, 1e300], violations=[4, 0, 0],
                         evaluations=[100, 180, 260])
    trace_text = "".join(
        f"{i},{f:.10g},{v},{e}\n"
        for i, f, v, e in zip(trace.iterations, trace.best_fitness, trace.violations, trace.evaluations)
    )

    sweep = SweepResult(n_uavs=np.arange(1, 4), d_iud_m=1250.0 / np.arange(1, 4),
                        p5_rate={"baseline": values[0], "optimized": values[1]},
                        p5_gue_rate={"baseline": values[2], "optimized": -values[2]})
    sweep_text = "".join(
        f"{n},{sweep.d_iud_m[i]:.10g},{sweep.p5_rate['baseline'][i]:.10g},{sweep.p5_rate['optimized'][i]:.10g},"
        f"{sweep.p5_gue_rate['baseline'][i]:.10g},{sweep.p5_gue_rate['optimized'][i]:.10g}\n"
        for i, n in enumerate(sweep.n_uavs)
    )
    series_text = "".join(f"{n},{sweep.p5_rate['optimized'][i]:.10g}\n" for i, n in enumerate(sweep.n_uavs))

    run_dir = _RunDir(str(tmp_path / "out"), 0.0)
    cases = [
        ("report.csv", REPORT_CSV, _report_rows(7, res),
         "snapshot,ue_id,kind,serving_sector,coverage_sinr_db,data_sinr_db,rate_bps\n" + report),
        ("metric.csv", METRIC_CSV, _metric_rows(assignment),
         "segment_id,sector_id,p_gain_db,inv_cond,cross_corr_db,chi\n" + metric),
        ("trace.csv", TRACE_CSV, _trace_rows(trace), "iteration,best_fitness_db,violations,evals\n" + trace_text),
        ("sweep.csv", SWEEP_CSV, _sweep_rows(sweep),
         "n_uavs,d_iud_m,p5_uav_rate_baseline_bps,p5_uav_rate_optimized_bps,"
         "p5_gue_rate_baseline_bps,p5_gue_rate_optimized_bps\n" + sweep_text),
        ("series.csv", SERIES_CSV, _series_rows(sweep, "optimized"), "n_uavs,p5_uav_rate_bps\n" + series_text),
    ]
    for name, spec, rows, want in cases:
        run_dir.write_csv(name, spec, rows)
        assert (run_dir.path / name).read_text() == want, name
    # appended rows carry no second header
    run_dir.write_csv("report.csv", REPORT_CSV, _report_rows(7, res), append=True)
    assert (run_dir.path / "report.csv").read_text() == cases[0][3] + report
    assert run_dir.names == {name for name, *_ in cases}
