"""Command-line front end: run the full pipeline, sweep traffic, inspect files.

`skybeam run` loads a JSON config, builds the scenario, designates serving
cells for the corridor, optimizes the replacement beams, evaluates baseline
and optimized plans over snapshots and writes plot-ready CSV/JSON artifacts.
`skybeam sweep` repeats the evaluation across UAV counts. `skybeam inspect`
summarizes a produced artifact. Exit codes: 0 ok, 1 config error, 2 runtime.

This module is the one that knows how the artifacts look. Every file goes
through `_RunDir`'s CSV or JSON writer, each CSV has one `_Csv` header and
row format, and `inspect` recognizes a CSV by the header its writer wrote.

Any config leaf can be overridden from the environment with the prefix
SKYBEAM_, e.g. SKYBEAM_OPTIMIZER_MAX_ITERS=2000; a SKYBEAM_ variable that
names no leaf exits 1.
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
from typing import NamedTuple

import numpy as np

from . import __version__
from .association import BeamPlan
from .codebook import Codebook, build_dl_codebook, build_ssb_codebook
from .config import (
    ConfigError,
    block_params,
    codebook_params_from_config,
    load_config,
    validate_config,
)
from .evaluation import (
    SnapshotResult,
    SweepResult,
    evaluate_snapshot,
    ground_channels,
    p5,
    traffic_sweep,
)
from .genetic import FitnessTrace, corridor_problem, run as run_ega
from .scenario import scenario_from_config
from .segment_metric import SegmentAssignment


class FormatError(Exception):
    """Artifact file is missing, empty or malformed."""


ENV_PREFIX = "SKYBEAM_"


def _apply_env_overrides(cfg: dict, seed: int | None = None) -> dict:
    """Overlay SKYBEAM_<BLOCK>_<KEY> JSON values, then a `--seed` value, and
    validate the result. A SKYBEAM_ variable that names no config leaf is
    rejected, as an unknown key in the config file is."""
    leaves = {f"{ENV_PREFIX}{block}_{key}".upper(): (block, key) for block in cfg for key in cfg[block]}
    for name in sorted(name for name in os.environ if name.startswith(ENV_PREFIX)):
        if name not in leaves:
            raise ConfigError(f"{name} names no config key")
        block, key = leaves[name]
        try:
            cfg[block][key] = json.loads(os.environ[name])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name} is not valid JSON: {exc}")
    if seed is not None:
        cfg["seeds"]["master"] = seed
    return validate_config(cfg)


class _Csv(NamedTuple):
    """A CSV artifact's header line and row format. A row is one `%`-format
    of Python values, and "%.10g" writes a float, Python or NumPy, as
    f"{x:.10g}" does."""

    header: str
    row: str


CODEBOOK_CSV = _Csv("index,active_cols,ih,iv,weights_re_im", "%d,%d,%d,%d,%s")
METRIC_CSV = _Csv("segment_id,sector_id,p_gain_db,inv_cond,cross_corr_db,chi", "%d,%d,%.10g,%.10g,%.10g,%.10g")
TRACE_CSV = _Csv("iteration,best_fitness_db,violations,evals", "%d,%.10g,%d,%d")
ASSOCIATION_CSV = _Csv("ue_id,kind,serving_sector,serving_slot,rsrp_dbm,sinr_db", "%d,%s,%d,%d,%.10g,%.10g")
REPORT_CSV = _Csv(
    "snapshot,ue_id,kind,serving_sector,coverage_sinr_db,data_sinr_db,rate_bps", "%d,%d,%s,%d,%.10g,%.10g,%.10g"
)
SWEEP_CSV = _Csv(
    "n_uavs,d_iud_m,p5_uav_rate_baseline_bps,p5_uav_rate_optimized_bps,"
    "p5_gue_rate_baseline_bps,p5_gue_rate_optimized_bps",
    "%d,%.10g,%.10g,%.10g,%.10g,%.10g",
)
SERIES_CSV = _Csv("n_uavs,p5_uav_rate_bps", "%d,%.10g")


class _RunDir:
    """A command's output directory, made by its first write. Every artifact
    is written through it, and it keeps the command's start time (a
    `time.perf_counter` reading, which no wall-clock step moves) and the
    names of the files it wrote, which the manifest records."""

    def __init__(self, path: str, t0: float):
        self.path, self.t0, self.names = Path(path), t0, set()

    def _open(self, name: str, mode: str = "w"):
        self.path.mkdir(parents=True, exist_ok=True)
        self.names.add(name)
        return open(self.path / name, mode)

    def write_csv(self, name: str, spec: _Csv, rows=(), append: bool = False) -> None:
        """The header line and `rows`; with `append`, only `rows`, at the file's end."""
        line = spec.row + "\n"
        with self._open(name, "a" if append else "w") as fh:
            if not append:
                fh.write(spec.header + "\n")
            fh.write("".join(line % row for row in rows))

    def write_json(self, name: str, payload: dict) -> None:
        with self._open(name) as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def write_manifest(self, fields: dict) -> None:
        """manifest.json: the command's `fields`, the environment, the wall
        time and the files this command wrote before it."""
        elapsed_s, outputs = round(time.perf_counter() - self.t0, 3), sorted(self.names)
        self.write_json("manifest.json", {**fields, "env": _environment(), "elapsed_s": elapsed_s, "outputs": outputs})


def _db(power: float) -> float:
    """10 log10 of a power; 0 gives -inf."""
    return 10.0 * math.log10(power) if power > 0 else -math.inf


def _codebook_rows(book: Codebook):
    """One row per codeword: index, active columns, DFT indices, and the
    weights as re:im pairs joined by ";"."""
    n, m = book.weights.shape
    parts = np.empty((n, 2 * m))
    parts[:, 0::2] = book.weights.real
    parts[:, 1::2] = book.weights.imag
    pairs = ";".join(["%.10g:%.10g"] * m)
    columns = (book.active_columns.tolist(), book.beam_index_h.tolist(), book.beam_index_v.tolist(), parts.tolist())
    return ((i, a, h, v, pairs % tuple(w)) for i, (a, h, v, w) in enumerate(zip(*columns)))


def _metric_rows(assignment: SegmentAssignment):
    """One row per (segment, sector) pair, segment-major, P and F in dB."""
    for (z, b), p in np.ndenumerate(assignment.p_gain):
        yield z, b, _db(p), assignment.inv_cond[z, b], _db(assignment.cross_corr[z, b]), assignment.chi[z, b]


def _trace_rows(trace: FitnessTrace):
    return zip(trace.iterations, trace.best_fitness, trace.violations, trace.evaluations)


def _plan_json(plan: BeamPlan, designated_cells: tuple[int, ...], frozen_slots: dict[int, int]) -> dict:
    """The replaced beam of each designated cell: its frozen slot's codeword
    and power, listed also where the search kept the baseline's codeword."""
    beams = []
    for cell in designated_cells:
        slot = frozen_slots[cell]
        beams.append({"sector": int(cell), "slot": int(slot), "codeword": int(plan.codeword[cell, slot]),
                      "power_dbm": float(plan.power_dbm[cell, slot])})
    return {"modified_beams": beams, "n_sectors": int(plan.n_sectors)}


def _association_rows(res: SnapshotResult):
    """One row per entity: serving beam, its RSRP (mW in, dBm out) and
    coverage SINR; `ue_id` is the row index."""
    columns = (
        res.kinds.tolist(), res.serving_sector.tolist(), res.serving_slot.tolist(),
        res.serving_rsrp_mw.tolist(), res.coverage_sinr_db.tolist(),
    )
    return ((i, kind, b, s, _db(rsrp), sinr) for i, (kind, b, s, rsrp, sinr) in enumerate(zip(*columns)))


def _report_rows(snapshot: int, res: SnapshotResult):
    """One report row per entity of a snapshot; `ue_id` is the row index."""
    columns = (
        res.kinds.tolist(), res.serving_sector.tolist(), res.coverage_sinr_db.tolist(),
        res.data.sinr_db.tolist(), res.data.rate_bps.tolist(),
    )
    return ((snapshot, i, *row) for i, row in enumerate(zip(*columns)))


def _sweep_rows(result: SweepResult):
    """One row per UAV count: the spacing and both plans' 5%-tile UAV and gUE rates."""
    return zip(
        result.n_uavs.tolist(), result.d_iud_m.tolist(),
        result.p5_rate["baseline"].tolist(), result.p5_rate["optimized"].tolist(),
        result.p5_gue_rate["baseline"].tolist(), result.p5_gue_rate["optimized"].tolist(),
    )


def _series_rows(result: SweepResult, name: str):
    """One row per UAV count: plan `name`'s 5%-tile UAV rate."""
    return zip(result.n_uavs.tolist(), result.p5_rate[name].tolist())


def _plan(args):
    """The steps that `run` and `sweep` share, from the config to the plans.

    Loads the config with its env overrides and `--seed`, checks the other
    flags, builds the scenario and codebooks, designates the corridor's
    cells, runs the beam search on snapshot 0's ground block (warning when
    it ends infeasible) and writes the codebook (`run` only), metric, trace and plan artifacts.
    Returns the output directory, the manifest fields both commands record,
    the evaluation's leading arguments (scenario, plans, SSB and data
    codebooks) and a list holding snapshot 0's ground block alone. The
    caller pops the block into the evaluation, so no reference here keeps it
    past snapshot 0.
    """
    cfg = _apply_env_overrides(load_config(args.config), args.seed)
    if args.command == "sweep" and args.n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    if args.snapshots < 1:
        raise ConfigError("--snapshots must be >= 1")
    run_dir = _RunDir(args.out, time.perf_counter())
    scenario = scenario_from_config(cfg)
    cb_params = codebook_params_from_config(cfg)
    panel = scenario.sectors[0].panel
    ssb_cb = build_ssb_codebook(panel, cb_params.ssb_oversampling_h, cb_params.ssb_oversampling_v)
    dl_cb = build_dl_codebook(panel, cb_params.dl_oversampling_h, cb_params.dl_oversampling_v)
    # before any channel block is built: written after the search, the
    # codebook's ~1 MB of row strings raised `run`'s peak RSS by about 0.4 MB
    if args.command == "run":
        run_dir.write_csv("ssb_codebook.csv", CODEBOOK_CSV, _codebook_rows(ssb_cb))

    grounds = [ground_channels(scenario, 0)]  # shared by the search and snapshot 0
    assignment, evaluator = corridor_problem(scenario, ssb_cb, grounds[0])
    run_dir.write_csv("segment_metric.csv", METRIC_CSV, _metric_rows(assignment))
    best, trace = run_ega(block_params(cfg, "optimizer"), evaluator)
    if not best.feasible:
        print(
            f"warning: beam search ended infeasible after {len(trace.iterations)} iterations: "
            f"{best.violations} corridor point(s) associate outside their designated cell, "
            "so the optimized plan breaks the corridor designation",
            file=sys.stderr,
        )
    optimized = evaluator.plan_for(best.genome)
    run_dir.write_csv("ega_trace.csv", TRACE_CSV, _trace_rows(trace))
    run_dir.write_json("optimized_plan.json", _plan_json(optimized, evaluator.designated_cells, evaluator.frozen_slots))
    manifest = {
        "version": __version__,
        "config": cfg,
        "seed": cfg["seeds"]["master"],
        "snapshots": args.snapshots,
        "designated_cells": list(assignment.designated_cells),
        "ega": {
            "iterations": len(trace.iterations),
            "evals": evaluator.evals,
            "stop_reason": trace.stop_reason,
            "feasible": best.feasible,
            "violations": best.violations,
        },
    }
    plans = {"baseline": evaluator.baseline, "optimized": optimized}
    return run_dir, manifest, (scenario, plans, ssb_cb, dl_cb), grounds


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


# summary label and entity kind of each pooled group
GROUPS = (("uav", "aerial"), ("gue", "ground"))


def _summaries(pooled: dict) -> dict:
    """5%-tile and mean of each (plan, group, metric) sample list, nested in that order."""
    summary: dict = {}
    for (name, label, metric), values in pooled.items():
        # the mean sums the samples in ascending order, which fixes summary.json's bytes
        summary.setdefault(name, {}).setdefault(label, {})[metric] = {
            "p5": p5(values), "mean": float(np.mean(np.sort(values))),
        }
    return summary


def cmd_run(args) -> int:
    run_dir, manifest, (scenario, plans, ssb_cb, dl_cb), grounds = _plan(args)
    ground = grounds.pop()

    # one pass: each snapshot's report rows, pooled samples and (at snapshot 0)
    # association dump are written before the next snapshot's channels are built
    pooled = {
        (name, label, metric): []
        for name in plans for label, _ in GROUPS for metric in ("coverage_sinr_db", "rate_bps")
    }
    for name in plans:
        run_dir.write_csv(f"report_{name}.csv", REPORT_CSV)
    for snapshot in range(args.snapshots):
        (results,) = evaluate_snapshot(
            scenario, plans, ssb_cb, dl_cb, snapshot, args.snapshots, [scenario.highway_params.uav_spacing_m], ground
        )
        ground = None  # later snapshots draw and build their own ground users
        for name, res in results.items():
            run_dir.write_csv(f"report_{name}.csv", REPORT_CSV, _report_rows(snapshot, res), append=True)
            for label, kind in GROUPS:
                mask = res.kinds == kind
                pooled[name, label, "coverage_sinr_db"].extend(res.coverage_sinr_db[mask].tolist())
                pooled[name, label, "rate_bps"].extend(res.data.rate_bps[mask].tolist())
            if snapshot == 0:
                run_dir.write_csv(f"association_{name}.csv", ASSOCIATION_CSV, _association_rows(res))

    summary = _summaries(pooled)
    run_dir.write_json("summary.json", summary)
    run_dir.write_manifest(manifest)

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
    run_dir, manifest, (scenario, plans, ssb_cb, dl_cb), grounds = _plan(args)
    # no `*` call: its argument tuple would keep snapshot 0's ground block alive for the whole sweep
    result = traffic_sweep(
        scenario, plans, ssb_cb, dl_cb, args.n_max, n_snapshots=args.snapshots, first_ground=grounds.pop()
    )
    run_dir.write_csv("sweep.csv", SWEEP_CSV, _sweep_rows(result))
    for name in result.p5_rate:
        run_dir.write_csv(f"sweep_{name}_series.csv", SERIES_CSV, _series_rows(result, name))

    # optimized over baseline 5%-tile rates: the best UAV gain, the worst gUE loss
    run_dir.write_manifest({
        **manifest,
        "n_max": args.n_max,
        "sweep": {
            "max_uav_rate_ratio": _extreme_ratio(
                result.p5_rate["optimized"], result.p5_rate["baseline"], result.n_uavs, np.argmax
            ),
            "min_gue_rate_ratio": _extreme_ratio(
                result.p5_gue_rate["optimized"], result.p5_gue_rate["baseline"], result.n_uavs,
                np.argmin,
            ),
        },
    })
    print(f"sweep written to {run_dir.path / 'sweep.csv'} ({len(result.n_uavs)} rows)")
    return 0


def _describe(path: Path, text: str) -> list[str]:
    """The lines `skybeam inspect` prints for an artifact's text; a `.json`
    artifact must hold an object, any other is read as CSV."""
    if path.suffix == ".json":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"top level is a JSON {type(payload).__name__}, not an object")
        if "modified_beams" in payload:
            lines = ["optimized plan:", "sector slot codeword power_dbm"]
            for e in payload["modified_beams"]:
                lines.append(f"{e['sector']:6d} {e['slot']:4d} {e['codeword']:8d} {e['power_dbm']:9.2f}")
            return lines
        return [json.dumps(payload, indent=2, sort_keys=True)]
    header, *rows = text.splitlines()
    if header == TRACE_CSV.header:
        fitness = [float(row.split(",")[1]) for row in rows]
        best = max(fitness, default=-math.inf)
        if best == -math.inf:
            fewest = min(int(row.split(",")[2]) for row in rows)  # no rows: malformed
            return [f"trace: {len(rows)} iterations, no iteration was feasible; fewest violating points {fewest}"]
        best_iter = rows[fitness.index(best)].split(",")[0]  # the first row at the maximum
        return [f"trace: {len(rows)} iterations, max fitness {best:.4g} dB, last improvement at iteration {best_iter}"]
    if header == METRIC_CSV.header:
        sectors = sorted({int(row.split(",")[1]) for row in rows})
        return [f"metric table: {len(rows)} rows, sectors scored: {', '.join(map(str, sectors))}"]
    return [f"csv artifact with columns: {', '.join(header.split(','))} ({len(rows)} rows)"]


def cmd_inspect(args) -> int:
    path = Path(args.artifact)
    if not path.exists():
        raise FormatError(f"no such artifact: {path}")
    try:  # text that is not UTF-8 is a ValueError too
        text = path.read_text()
        if not text.strip():
            raise FormatError(f"artifact is empty: {path}")
        lines = _describe(path, text)
    except (IndexError, KeyError, TypeError, ValueError) as exc:  # a missing column or key, a bad value
        raise FormatError(f"malformed artifact {path}: {exc!r}") from exc
    print("\n".join(lines))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="skybeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, func, help_text in (
        ("run", cmd_run, "full pipeline: optimize and evaluate"),
        ("sweep", cmd_sweep, "traffic-density sweep over UAV counts"),
    ):
        p_command = sub.add_parser(command, help=help_text)
        p_command.add_argument("--config", required=True)
        p_command.add_argument("--out", required=True)
        p_command.add_argument("--seed", type=int, default=None)
        if command == "sweep":
            p_command.add_argument("--n-max", type=int, default=30, dest="n_max")
        p_command.add_argument("--snapshots", type=int, default=20)
        p_command.set_defaults(func=func)

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
