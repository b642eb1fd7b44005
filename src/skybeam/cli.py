"""Command-line front end: run the full pipeline, sweep traffic, inspect files.

`skybeam run` loads a JSON config, builds the scenario, designates serving
cells for the corridor, optimizes the replacement beams, evaluates baseline
and optimized plans over snapshots and writes plot-ready CSV/JSON artifacts.
`skybeam sweep` repeats the evaluation across UAV counts. `skybeam inspect`
summarizes a produced artifact. Exit codes: 0 ok, 1 config error, 2 runtime.

Any config leaf can be overridden from the environment with the prefix
SKYBEAM_, e.g. SKYBEAM_OPTIMIZER_MAX_ITERS=2000.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .association import dump_association_csv, rsrp_table
from .codebook import build_dl_codebook, build_ssb_codebook, export_codebook_csv
from .config import (
    ConfigError,
    codebook_params_from_config,
    ega_params_from_config,
    load_config,
    validate_config,
)
from .evaluation import evaluate_snapshot, snapshot_stats, traffic_sweep
from .genetic import corridor_problem, export_plan_json, run as run_ega
from .scenario import scenario_from_config
from .segment_metric import dump_metric_csv


class FormatError(Exception):
    """Artifact file is empty or not of a recognized type."""


ENV_PREFIX = "SKYBEAM_"


def _apply_env_overrides(cfg: dict) -> dict:
    """Overlay SKYBEAM_<BLOCK>_<KEY> JSON values, then validate the result."""
    for block, entries in cfg.items():
        for key in entries:
            name = f"{ENV_PREFIX}{block.upper()}_{key.upper()}"
            env = os.environ.get(name)
            if env is not None:
                try:
                    entries[key] = json.loads(env)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{name} is not valid JSON: {exc}")
    return validate_config(cfg)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _prepare(cfg: dict, seed: int | None):
    if seed is not None:
        cfg["seeds"]["master"] = int(seed)
    scenario = scenario_from_config(cfg)
    cb_params = codebook_params_from_config(cfg)
    panel = scenario.sectors[0].panel
    ssb_cb = build_ssb_codebook(panel, cb_params.ssb_oversampling_h, cb_params.ssb_oversampling_v)
    dl_cb = build_dl_codebook(panel, cb_params.dl_oversampling_h, cb_params.dl_oversampling_v)
    return scenario, ssb_cb, dl_cb


def _optimize(cfg: dict, scenario, ssb_cb, out: Path):
    """Designate cells, freeze slots, run the beam search.

    Returns both plans, the segment assignment and the search's manifest
    record (iterations, evals, stop reason, feasibility, violations).
    """
    assignment, evaluator = corridor_problem(scenario, ssb_cb)
    dump_metric_csv(assignment, out / "segment_metric.csv")
    best, trace = run_ega(ega_params_from_config(cfg), evaluator, scenario.radio.max_ssb_power_dbm)
    if not best.feasible:
        print(
            f"warning: beam search ended infeasible after {len(trace.iterations)} iterations: "
            f"{best.violations} corridor point(s) associate outside their designated cell, "
            "so the optimized plan breaks the corridor designation",
            file=sys.stderr,
        )
    optimized = evaluator.plan_for(best.genome)
    trace.to_csv(out / "ega_trace.csv")
    export_plan_json(
        optimized, assignment.designated_cells, evaluator.frozen_slots, out / "optimized_plan.json"
    )
    ega = {
        "iterations": len(trace.iterations),
        "evals": evaluator.evals,
        "stop_reason": trace.stop_reason,
        "feasible": best.feasible,
        "violations": best.violations,
    }
    return evaluator.baseline, optimized, assignment, ega


def _summaries(outcomes, plans) -> dict:
    summary: dict = {}
    for name in plans:
        pooled: dict[str, dict[str, list]] = {
            "aerial": {"cov": [], "rate": []},
            "ground": {"cov": [], "rate": []},
        }
        for _, results in outcomes:
            res = results[name]
            for kind in ("aerial", "ground"):
                mask = np.array([k == kind for k in res.kinds])
                pooled[kind]["cov"].extend(res.coverage_sinr_db[mask].tolist())
                pooled[kind]["rate"].extend(res.data.rate_bps[mask].tolist())
        summary[name] = {}
        for kind, label in (("aerial", "uav"), ("ground", "gue")):
            cov = snapshot_stats(pooled[kind]["cov"])
            rate = snapshot_stats(pooled[kind]["rate"])
            summary[name][label] = {
                "coverage_sinr_db": {"p5": cov.percentile(5), "mean": cov.mean},
                "rate_bps": {"p5": rate.percentile(5), "mean": rate.mean},
            }
    return summary


def _write_reports(outcomes, plans, out: Path) -> None:
    for name in plans:
        lines = ["snapshot,ue_id,kind,serving_sector,coverage_sinr_db,data_sinr_db,rate_bps"]
        for snapshot, (channels, results) in enumerate(outcomes):
            res = results[name]
            for i in range(len(res.kinds)):
                lines.append(
                    f"{snapshot},{channels.entity_ids[i]},{res.kinds[i]},{res.serving_sector[i]},"
                    f"{_fmt(res.coverage_sinr_db[i])},{_fmt(res.data.sinr_db[i])},{_fmt(res.data.rate_bps[i])}"
                )
        (out / f"report_{name}.csv").write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = _apply_env_overrides(load_config(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    scenario, ssb_cb, dl_cb = _prepare(cfg, args.seed)
    export_codebook_csv(ssb_cb, out / "ssb_codebook.csv")
    base, optimized, assignment, ega = _optimize(cfg, scenario, ssb_cb, out)
    plans = {"baseline": base, "optimized": optimized}

    outcomes = [
        evaluate_snapshot(scenario, plans, ssb_cb, dl_cb, snapshot, args.snapshots)
        for snapshot in range(args.snapshots)
    ]
    _write_reports(outcomes, plans, out)

    # snapshot-0 association dump per plan
    channels, results = outcomes[0]
    for name, plan in plans.items():
        res = results[name]
        table = rsrp_table(channels, plan, ssb_cb)
        dump_association_csv(
            channels, res.serving_sector, res.serving_slot, table, res.coverage_sinr_db,
            out / f"association_{name}.csv",
        )

    summary = _summaries(outcomes, plans)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    manifest = {
        "version": __version__,
        "config": cfg,
        "seed": cfg["seeds"]["master"],
        "snapshots": args.snapshots,
        "designated_cells": list(assignment.designated_cells),
        "ega": ega,
        "elapsed_s": round(time.time() - t0, 3),
        "outputs": sorted(p.name for p in out.iterdir()),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    for name in plans:
        for label in ("uav", "gue"):
            s = summary[name][label]
            print(
                f"{name:9s} {label}: 5%-tile SINR {s['coverage_sinr_db']['p5']:.2f} dB, "
                f"mean SINR {s['coverage_sinr_db']['mean']:.2f} dB, "
                f"5%-tile rate {s['rate_bps']['p5'] / 1e6:.2f} Mbps, "
                f"mean rate {s['rate_bps']['mean'] / 1e6:.2f} Mbps"
            )
    return 0


def cmd_sweep(args) -> int:
    cfg = _apply_env_overrides(load_config(args.config))
    if args.n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario, ssb_cb, dl_cb = _prepare(cfg, args.seed)
    base, optimized, _, _ = _optimize(cfg, scenario, ssb_cb, out)
    plans = {"baseline": base, "optimized": optimized}

    result = traffic_sweep(scenario, plans, ssb_cb, dl_cb, args.n_max, n_snapshots=args.snapshots)
    lines = ["n_uavs,d_iud_m,p5_uav_rate_baseline_bps,p5_uav_rate_optimized_bps,"
             "p5_gue_rate_baseline_bps,p5_gue_rate_optimized_bps"]
    for i, n in enumerate(result.n_uavs):
        lines.append(
            f"{n},{_fmt(result.d_iud_m[i])},{_fmt(result.p5_rate['baseline'][i])},"
            f"{_fmt(result.p5_rate['optimized'][i])},{_fmt(result.p5_gue_rate['baseline'][i])},"
            f"{_fmt(result.p5_gue_rate['optimized'][i])}"
        )
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    for name in plans:
        series = ["n_uavs,p5_uav_rate_bps"]
        for i, n in enumerate(result.n_uavs):
            series.append(f"{n},{_fmt(result.p5_rate[name][i])}")
        (out / f"sweep_{name}_series.csv").write_text("\n".join(series) + "\n")
    print(f"sweep written to {out / 'sweep.csv'} ({len(result.n_uavs)} rows)")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.artifact)
    if not path.exists():
        raise FormatError(f"no such artifact: {path}")
    text = path.read_text()
    if not text.strip():
        raise FormatError(f"artifact is empty: {path}")
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if "modified_beams" in payload:
            print("optimized plan:")
            print("sector slot codeword power_dbm")
            for e in payload["modified_beams"]:
                print(f"{e['sector']:6d} {e['slot']:4d} {e['codeword']:8d} {e['power_dbm']:9.2f}")
            return 0
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    header = text.splitlines()[0].split(",")
    rows = text.splitlines()[1:]
    if header[:2] == ["iteration", "best_fitness_db"]:
        best = -math.inf
        best_iter = 0
        for row in rows:
            it, f, _ = row.split(",")
            if float(f) > best:
                best = float(f)
                best_iter = int(it)
        print(f"trace: {len(rows)} iterations, max fitness {best:.4g} dB, last improvement at iteration {best_iter}")
        return 0
    if header[0] == "segment_id":
        cells = sorted({row.split(",")[1] for row in rows})
        print(f"metric table: {len(rows)} rows, sectors scored: {', '.join(cells)}")
        return 0
    print(f"csv artifact with columns: {', '.join(header)} ({len(rows)} rows)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="skybeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline: optimize and evaluate")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--snapshots", type=int, default=20)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="traffic-density sweep over UAV counts")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--n-max", type=int, default=30, dest="n_max")
    p_sweep.add_argument("--snapshots", type=int, default=20)
    p_sweep.set_defaults(func=cmd_sweep)

    p_inspect = sub.add_parser("inspect", help="summarize a produced artifact")
    p_inspect.add_argument("artifact")
    p_inspect.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
