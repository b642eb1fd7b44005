"""skybeam benchmark: time `skybeam run` / `skybeam sweep` end to end and by layer.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 36 --trace 0

Each operation is one `skybeam.cli.main` call in a fresh Python process with
PYTHONPATH=src, as users run it. The run repeats the workload's operation on
the same seed-derived inputs until --seconds is spent and checks every
operation's outputs. The last stdout line is the result JSON; the line before
it holds the environment, output digest and plan-quality values.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1  # the seed of the default config and of the acceptance suite
SETUP_REPEATS = 11
DEADLINE_S = 170.0  # the whole run, so that it ends within three minutes
RATE_THRESHOLD_BPS = 5e6  # UAV capacity: 5%-tile rate of at least 5 Mbps
UAV_GAIN_MIN_DB = 2.0  # acceptance criterion 1
GUE_DELTA_MIN_DB = -0.5  # acceptance criterion 3


@dataclass(frozen=True)
class Workload:
    command: str
    ga_iters: int
    snapshots: int
    n_max: int = 0
    gated: bool = False  # acceptance criteria 1 and 3 on the default seed

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--snapshots", str(self.snapshots)]
        if self.command == "sweep":
            argv += ["--n-max", str(self.n_max)]
        return argv


# The GA runs a fixed number of iterations (stop_iters = max_iters), so every
# seed costs the same number of fitness evaluations.
WORKLOADS = {
    # acceptance-suite GA budget, 2 snapshots: GA and fitness dominate
    "plan": Workload("run", ga_iters=2000, snapshots=2, gated=True),
    # short GA, 10 snapshots of fresh gUE drops: channels and data phase dominate
    "evaluate": Workload("run", ga_iters=700, snapshots=10),
    # short GA, 12 UAV counts x 1 snapshot: the same gUE drop is rebuilt for every N
    "sweep": Workload("sweep", ga_iters=700, snapshots=1, n_max=12),
}

RUN_JSON = ("manifest.json", "summary.json", "optimized_plan.json")
RUN_CSV = ("ssb_codebook.csv", "segment_metric.csv", "ega_trace.csv", "association_baseline.csv",
           "association_optimized.csv", "report_baseline.csv", "report_optimized.csv")
SWEEP_JSON = ("optimized_plan.json",)
SWEEP_CSV = ("segment_metric.csv", "ega_trace.csv", "sweep.csv", "sweep_baseline_series.csv",
             "sweep_optimized_series.csv")


class SetupFailed(Exception):
    """The program could not be imported or set up; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], log: Path, deadline: float) -> tuple[int, float]:
    """Run child.py to completion or until the deadline; returns (exit code, wall s)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                                env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = -9
        finally:  # also on SIGTERM or Ctrl-C: never leave the child running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return rc, time.perf_counter() - start


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path.name}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: a row does not match the header")
    return [dict(zip(header, row)) for row in rows]


def finite(value: str | float) -> bool:
    return math.isfinite(float(value))


def check_outputs(wl: Workload, out: Path, seed: int) -> tuple[list[str], dict]:
    """Problems found in one operation's artifacts, and the facts read from them."""
    problems: list[str] = []
    facts: dict = {}
    sweep = wl.command == "sweep"
    json_names, csv_names = (SWEEP_JSON, SWEEP_CSV) if sweep else (RUN_JSON, RUN_CSV)
    docs, tables = {}, {}
    for name in json_names:
        try:
            docs[name] = json.loads((out / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    for name in csv_names:
        try:
            tables[name] = read_csv(out / name)
        except (OSError, ValueError, StopIteration) as exc:
            problems.append(f"{name}: {exc!r}")
    if problems:
        return problems, facts

    trace = tables["ega_trace.csv"]
    best = [float(r["best_fitness_db"]) for r in trace]
    facts["iterations"] = len(trace)
    facts["evals"] = int(trace[-1]["evals"])
    facts["first_feasible_iter"] = next((int(r["iteration"]) for r, f in zip(trace, best) if finite(f)), -1)
    facts["feasible"] = finite(best[-1])
    facts["plan_fitness_db"] = best[-1] if facts["feasible"] else None  # keep the line valid JSON
    facts["segment_pairs"] = len(tables["segment_metric.csv"])
    if len(trace) != wl.ga_iters:
        problems.append(f"ega_trace.csv: {len(trace)} iterations, expected {wl.ga_iters}")
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append("ega_trace.csv: best fitness decreases")
    if len(docs["optimized_plan.json"].get("modified_beams", [])) == 0:
        problems.append("optimized_plan.json: no modified beams")

    if sweep:
        rows = tables["sweep.csv"]
        if [int(r["n_uavs"]) for r in rows] != list(range(1, wl.n_max + 1)):
            problems.append("sweep.csv: n_uavs is not 1..n_max")
        if not all(finite(v) for r in rows for v in r.values()):
            problems.append("sweep.csv: non-finite value")
        for plan in ("baseline", "optimized"):
            ok = [int(r["n_uavs"]) for r in rows if float(r[f"p5_uav_rate_{plan}_bps"]) >= RATE_THRESHOLD_BPS]
            facts[f"uav_capacity_{plan}"] = max(ok, default=0)
    else:
        if docs["manifest.json"].get("seed") != seed:
            problems.append("manifest.json: wrong seed")
        for plan in ("baseline", "optimized"):
            rows = tables[f"report_{plan}.csv"]
            if {int(r["snapshot"]) for r in rows} != set(range(wl.snapshots)):
                problems.append(f"report_{plan}.csv: snapshots are not 0..{wl.snapshots - 1}")
            numeric = ("coverage_sinr_db", "data_sinr_db", "rate_bps")
            if not all(finite(r[k]) for r in rows for k in numeric):
                problems.append(f"report_{plan}.csv: non-finite value")
        summary = docs["summary.json"]
        try:
            p5 = {(plan, grp): summary[plan][grp]["coverage_sinr_db"]["p5"]
                  for plan in ("baseline", "optimized") for grp in ("uav", "gue")}
        except (KeyError, TypeError):
            problems.append("summary.json: missing coverage 5%-tile")
        else:
            facts["uav_cov_p5_gain_db"] = p5["optimized", "uav"] - p5["baseline", "uav"]
            facts["gue_cov_p5_delta_db"] = p5["optimized", "gue"] - p5["baseline", "gue"]

    # Quality gates hold on the default seed, the scenario the acceptance
    # suite fixes. Other seeds only report them: some seeds end infeasible
    # within the GA budget, and 2 snapshots give a noisy 5%-tile.
    facts["criteria_met"] = facts["feasible"] and (
        not wl.gated or (facts.get("uav_cov_p5_gain_db", -math.inf) >= UAV_GAIN_MIN_DB
                         and facts.get("gue_cov_p5_delta_db", -math.inf) >= GUE_DELTA_MIN_DB))
    if seed == DEFAULT_SEED and not facts["criteria_met"]:
        problems.append(f"default seed misses a quality gate: {facts}")
    return problems, facts


def outputs_digest(out: Path) -> str:
    """SHA-256 over every CSV artifact, by name."""
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def layer_metrics(report: dict, facts: dict, wl: Workload) -> dict[str, tuple[float, str]]:
    spans = report["spans"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def per(total: float, count: float, scale: float) -> float:
        return total / count * scale if count else 0.0

    iters, evals = facts["iterations"], facts["evals"]
    fitness_calls = span("genetic.FitnessEvaluator.evaluate_detailed", "calls")
    fitness_s = span("genetic.FitnessEvaluator.evaluate_detailed", "total_s")
    sweep_cells = wl.n_max * wl.snapshots if span("evaluation.traffic_sweep", "calls") else 0
    return {
        "genetic.us_per_eval": (per(fitness_s, evals, 1e6), "us"),
        "genetic.ms_per_population": (per(fitness_s, iters, 1e3), "ms"),
        "genetic.ms_per_iteration": (per(span("genetic.run", "total_s"), iters, 1e3), "ms"),
        "genetic.fitness_calls": (fitness_calls, "count"),
        "genetic.evals": (evals, "count"),
        "genetic.cache_hit_ratio": (1.0 - per(evals, fitness_calls, 1.0), "ratio"),
        "genetic.iterations": (iters, "count"),
        "genetic.stopped_early": (int(iters < wl.ga_iters), "count"),
        "genetic.first_feasible_iter": (facts["first_feasible_iter"], "count"),
        "association.select_serving_all.self_s": (span("association.select_serving_all", "self_s"), "s"),
        "association.rsrp_table.self_s": (span("association.rsrp_table", "self_s"), "s"),
        "association.coverage_sinr_all.self_s": (span("association.coverage_sinr_all", "self_s"), "s"),
        "channel.build_channels.calls": (span("channel.build_channels", "calls"), "count"),
        "channel.build_channels.self_s": (span("channel.build_channels", "self_s"), "s"),
        "channel.build_channels.links": (report["links"], "count"),
        "channel.build_channels.us_per_link": (
            per(span("channel.build_channels", "total_s"), report["links"], 1e6), "us"),
        "channel.repeat_row_ratio": (per(report["repeat_rows"], report["rows"], 1.0), "ratio"),
        "scenario.place_ground_users.calls": (span("scenario.place_ground_users", "calls"), "count"),
        "evaluation.evaluate_snapshot.ms_per_call": (
            per(span("evaluation.evaluate_snapshot", "total_s"), span("evaluation.evaluate_snapshot", "calls"), 1e3),
            "ms"),
        "evaluation.data_phase.self_s": (span("evaluation.data_phase", "self_s"), "s"),
        "evaluation.ms_per_sweep_cell": (per(span("evaluation.traffic_sweep", "total_s"), sweep_cells, 1e3), "ms"),
        "segment_metric.assign_segments.self_s": (span("segment_metric.assign_segments", "self_s"), "s"),
        "segment_metric.assign_segments.pairs": (facts["segment_pairs"], "count"),
        "cli.self_s": (span("cli.main", "self_s"), "s"),
    }


def environment(setup_env: dict) -> dict:
    env = dict(setup_env)
    env["nproc"] = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var)
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def write_config(path: Path, wl: Workload, seed: int) -> None:
    # blocks left empty take the program's defaults: the default scenario
    cfg = {"radio": {}, "layout": {}, "highway": {}, "users": {}, "seeds": {"master": seed},
           "optimizer": {"max_iters": wl.ga_iters, "stop_iters": wl.ga_iters}}
    path.write_text(json.dumps(cfg))


def measure_setup(work: Path, config: Path, seed: int, deadline: float) -> tuple[float, dict]:
    times, env = [], {}
    for i in range(SETUP_REPEATS):
        result = work / f"setup{i}.json"
        log = work / f"setup{i}.log"
        rc, _ = run_child(["setup", str(config), str(seed), str(result)], log, deadline)
        if rc != 0 or not result.exists():
            raise SetupFailed(f"set-up exited {rc}:\n{log.read_text()[-2000:]}")
        payload = json.loads(result.read_text())
        times.append(payload["setup_s"])
        env = payload["environment"]
    return statistics.median(times), env


def run_benchmark(name: str, seed: int, seconds: float, traced: bool, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[name]
    config = work / "config.json"
    write_config(config, wl, seed)
    setup_s, setup_env = measure_setup(work, config, seed, deadline)

    ops = []
    start = time.monotonic()
    rounds = 0
    while True:
        for trace_flag in ((False, True) if traced else (False,)):
            i = len(ops)
            out, result, log = work / f"op{i}", work / f"op{i}.json", work / f"op{i}.log"
            rc, wall = run_child(["op", str(int(trace_flag)), str(result), *wl.argv(config, out, seed)], log, deadline)
            op = {"traced": trace_flag, "rc": rc, "wall_s": wall, "problems": [], "facts": {}}
            if rc != 0 or not result.exists():
                op["problems"].append(f"exit code {rc}: {log.read_text()[-2000:]}")
            else:
                payload = json.loads(result.read_text())
                op["peak_rss_mb"] = payload["peak_rss_mb"]
                op["trace"] = payload["trace"]
                try:
                    op["problems"], op["facts"] = check_outputs(wl, out, seed)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    op["problems"].append(f"artifacts do not parse: {exc!r}")
                op["digest"] = outputs_digest(out)
            shutil.rmtree(out, ignore_errors=True)
            ops.append(op)
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > seconds or time.monotonic() + elapsed / rounds > deadline:
            break

    digests = {op["digest"] for op in ops if "digest" in op}
    if len(digests) > 1:  # repeats and traced runs must reproduce the same bytes
        for op in ops:
            op["problems"].append("outputs differ between repeated operations")
    failed = sum(1 for op in ops if op["problems"])
    good = [op for op in ops if not op["problems"]]
    plain = [op for op in ops if not op["traced"]]

    if traced:
        traced_ops = [op for op in good if op["traced"]]
        metrics = {}
        if traced_ops and plain:
            per_op = [layer_metrics(op["trace"], op["facts"], wl) for op in traced_ops]
            for key, (_, unit) in per_op[0].items():
                metrics[key] = {"value": statistics.median(m[key][0] for m in per_op), "unit": unit}
            overhead = statistics.median(op["wall_s"] for op in traced_ops) - statistics.median(
                op["wall_s"] for op in plain)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(op["wall_s"] for op in plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(op.get("peak_rss_mb", 0.0) for op in plain), "unit": "MB"},
        }

    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if DIGESTS.exists() else None
    digest = next(iter(digests)) if len(digests) == 1 else None
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(setup_env),
        "outputs_digest": digest,
        # an intentional output change shows here; it is not a failure
        "outputs_changed": None if recorded is None or digest is None else digest != recorded,
        "quality": good[0]["facts"] if good else None,
        "ops": [{k: op.get(k) for k in ("traced", "rc", "wall_s", "peak_rss_mb", "problems")} for op in ops],
    }
    if traced:
        missing = sorted({m for op in ops if op.get("trace") for m in op["trace"]["missing"]})
        info["missing_spans"] = missing
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(ops), "failed": failed, "metrics": metrics}
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "skybeam" / "__init__.py").exists():
        print(f"no skybeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        info, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupFailed as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    for op in info["ops"]:
        for problem in op["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
