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
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .association import dump_association_csv
from .codebook import build_dl_codebook, build_ssb_codebook, export_codebook_csv
from .config import (
    ConfigError,
    block_params,
    codebook_params_from_config,
    load_config,
    validate_config,
)
from .evaluation import (
    SnapshotResult,
    evaluate_snapshot,
    ground_channels,
    snapshot_stats,
    traffic_sweep,
)
from .genetic import corridor_problem, export_plan_json, run as run_ega
from .scenario import scenario_from_config
from .segment_metric import dump_metric_csv


class FormatError(Exception):
    """Artifact file is missing, empty or malformed."""


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


def _optimize(cfg: dict, scenario, ssb_cb, ground, out: Path):
    """Designate cells, freeze slots on snapshot 0's ground block `ground`,
    run the beam search.

    Returns both plans, the segment assignment and the search's manifest
    record (iterations, evals, stop reason, feasibility, violations).
    """
    assignment, evaluator = corridor_problem(scenario, ssb_cb, ground)
    dump_metric_csv(assignment, out / "segment_metric.csv")
    best, trace = run_ega(block_params(cfg, "optimizer"), evaluator, scenario.radio.max_ssb_power_dbm)
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


def _environment() -> dict:
    """What the run's speed depends on besides the code: interpreter, NumPy
    and BLAS versions, usable CPUs and the BLAS thread settings (None when
    unset). None of it changes an output byte."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _write_manifest(out: Path, cfg: dict, t0: float, **fields) -> None:
    """manifest.json: version, config, seed, environment, wall time and the
    output list, plus the command's own `fields`."""
    manifest = {
        "version": __version__,
        "config": cfg,
        "seed": cfg["seeds"]["master"],
        **fields,
        "env": _environment(),
        "elapsed_s": round(time.time() - t0, 3),
        "outputs": sorted(p.name for p in out.iterdir()),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# summary label and entity kind of each pooled group
GROUPS = (("uav", "aerial"), ("gue", "ground"))


def _summaries(pooled: dict) -> dict:
    """5%-tile and mean of each (plan, group, metric) sample list, nested in that order."""
    summary: dict = {}
    for (name, label, metric), values in pooled.items():
        stats = snapshot_stats(values)
        summary.setdefault(name, {}).setdefault(label, {})[metric] = {
            "p5": stats.percentile(5), "mean": stats.mean,
        }
    return summary


def _report_rows(snapshot: int, res: SnapshotResult) -> str:
    """One report line per entity of a snapshot, one `%`-format each; `ue_id`
    is the row index, and "%.10g" writes a float as `_fmt` does."""
    columns = (
        res.kinds.tolist(), res.serving_sector.tolist(), res.coverage_sinr_db.tolist(),
        res.data.sinr_db.tolist(), res.data.rate_bps.tolist(),
    )
    return "".join(
        "%d,%d,%s,%d,%.10g,%.10g,%.10g\n" % (snapshot, i, *row) for i, row in enumerate(zip(*columns))
    )


def cmd_run(args) -> int:
    cfg = _apply_env_overrides(load_config(args.config))
    if args.snapshots < 1:
        raise ConfigError("--snapshots must be >= 1")
    t0 = time.time()
    scenario, ssb_cb, dl_cb = _prepare(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_codebook_csv(ssb_cb, out / "ssb_codebook.csv")
    ground = ground_channels(scenario, 0)  # shared by the search and snapshot 0
    base, optimized, assignment, ega = _optimize(cfg, scenario, ssb_cb, ground, out)
    plans = {"baseline": base, "optimized": optimized}

    # one pass: each snapshot's report rows, pooled samples and (at snapshot 0)
    # association dump are written before the next snapshot's channels are built
    pooled = {
        (name, label, metric): []
        for name in plans for label, _ in GROUPS for metric in ("coverage_sinr_db", "rate_bps")
    }
    for name in plans:
        (out / f"report_{name}.csv").write_text(
            "snapshot,ue_id,kind,serving_sector,coverage_sinr_db,data_sinr_db,rate_bps\n"
        )
    for snapshot in range(args.snapshots):
        (results,) = evaluate_snapshot(
            scenario, plans, ssb_cb, dl_cb, snapshot, args.snapshots,
            [scenario.highway_params.uav_spacing_m], ground,
        )
        ground = None  # later snapshots draw and build their own ground users
        for name, res in results.items():
            with open(out / f"report_{name}.csv", "a") as fh:
                fh.write(_report_rows(snapshot, res))
            for label, kind in GROUPS:
                mask = res.kinds == kind
                pooled[name, label, "coverage_sinr_db"].extend(res.coverage_sinr_db[mask].tolist())
                pooled[name, label, "rate_bps"].extend(res.data.rate_bps[mask].tolist())
            if snapshot == 0:
                dump_association_csv(
                    res.kinds, res.serving_sector, res.serving_slot, res.serving_rsrp_mw,
                    res.coverage_sinr_db, out / f"association_{name}.csv",
                )

    summary = _summaries(pooled)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    _write_manifest(
        out, cfg, t0, snapshots=args.snapshots,
        designated_cells=list(assignment.designated_cells), ega=ega,
    )

    for name in plans:
        for label, _ in GROUPS:
            s = summary[name][label]
            print(
                f"{name:9s} {label}: 5%-tile SINR {s['coverage_sinr_db']['p5']:.2f} dB, "
                f"mean SINR {s['coverage_sinr_db']['mean']:.2f} dB, "
                f"5%-tile rate {s['rate_bps']['p5'] / 1e6:.2f} Mbps, "
                f"mean rate {s['rate_bps']['mean'] / 1e6:.2f} Mbps"
            )
    return 0


def _extreme_ratio(numerator: np.ndarray, denominator: np.ndarray, n_uavs: np.ndarray, pick) -> dict:
    """The ratio numerator / denominator that `pick` (max or min) selects over
    the UAV counts whose denominator is not 0, and its UAV count; both None
    when every denominator is 0."""
    defined = denominator != 0
    if not np.any(defined):
        return {"ratio": None, "n_uavs": None}
    ratios = numerator[defined] / denominator[defined]
    k = int(pick(ratios))
    return {"ratio": float(ratios[k]), "n_uavs": int(n_uavs[defined][k])}


def cmd_sweep(args) -> int:
    cfg = _apply_env_overrides(load_config(args.config))
    if args.n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    if args.snapshots < 1:
        raise ConfigError("--snapshots must be >= 1")
    t0 = time.time()
    scenario, ssb_cb, dl_cb = _prepare(cfg, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # snapshot 0's ground block, shared by the search and the sweep; popped
    # into the sweep so that no reference here keeps it past snapshot 0
    grounds = [ground_channels(scenario, 0)]
    base, optimized, assignment, ega = _optimize(cfg, scenario, ssb_cb, grounds[0], out)
    plans = {"baseline": base, "optimized": optimized}

    result = traffic_sweep(
        scenario, plans, ssb_cb, dl_cb, args.n_max, n_snapshots=args.snapshots,
        first_ground=grounds.pop(),
    )
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

    # optimized over baseline 5%-tile rates: the best UAV gain, the worst gUE loss
    _write_manifest(
        out, cfg, t0, snapshots=args.snapshots, n_max=args.n_max,
        designated_cells=list(assignment.designated_cells), ega=ega,
        sweep={
            "max_uav_rate_ratio": _extreme_ratio(
                result.p5_rate["optimized"], result.p5_rate["baseline"], result.n_uavs, np.argmax
            ),
            "min_gue_rate_ratio": _extreme_ratio(
                result.p5_gue_rate["optimized"], result.p5_gue_rate["baseline"], result.n_uavs,
                np.argmin,
            ),
        },
    )
    print(f"sweep written to {out / 'sweep.csv'} ({len(result.n_uavs)} rows)")
    return 0


def _describe(text: str) -> list[str]:
    """The lines `skybeam inspect` prints for an artifact's text."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        if "modified_beams" in payload:
            lines = ["optimized plan:", "sector slot codeword power_dbm"]
            for e in payload["modified_beams"]:
                lines.append(f"{e['sector']:6d} {e['slot']:4d} {e['codeword']:8d} {e['power_dbm']:9.2f}")
            return lines
        return [json.dumps(payload, indent=2, sort_keys=True)]
    header = text.splitlines()[0].split(",")
    rows = text.splitlines()[1:]
    if header[:2] == ["iteration", "best_fitness_db"]:
        fitness = [float(row.split(",")[1]) for row in rows]
        best = max(fitness, default=-math.inf)
        if best == -math.inf:
            return [f"trace: {len(rows)} iterations, no iteration was feasible"]
        best_iter = rows[fitness.index(best)].split(",")[0]  # the first row at the maximum
        return [f"trace: {len(rows)} iterations, max fitness {best:.4g} dB, last improvement at iteration {best_iter}"]
    if header[0] == "segment_id":
        cells = sorted({row.split(",")[1] for row in rows})
        return [f"metric table: {len(rows)} rows, sectors scored: {', '.join(cells)}"]
    return [f"csv artifact with columns: {', '.join(header)} ({len(rows)} rows)"]


def cmd_inspect(args) -> int:
    path = Path(args.artifact)
    if not path.exists():
        raise FormatError(f"no such artifact: {path}")
    text = path.read_text()
    if not text.strip():
        raise FormatError(f"artifact is empty: {path}")
    try:
        lines = _describe(text)
    except (IndexError, KeyError, TypeError, ValueError) as exc:  # a missing column or key, a bad value
        raise FormatError(f"malformed artifact {path}: {exc!r}") from exc
    print("\n".join(lines))
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
