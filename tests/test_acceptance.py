"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 run the full default scenario (19 sites, ISD 500 m, 8x4 panels
at 3.5 GHz, 1250 m corridor at 100 m, 12 UAVs, 4 ground users per cell) with
the beam search capped at 2000 iterations; run with `pytest -s` to see the
per-criterion lines.
"""

import json
import math

import numpy as np
import pytest

from skybeam.association import rsrp_table, select_serving_all
from skybeam.channel import link_geometry, los_component, rician_channel, shadow_field
from skybeam.cli import main as cli_main
from skybeam.codebook import build_dl_codebook, build_ssb_codebook
from skybeam.config import default_config, validate_config
from skybeam.evaluation import (
    data_phase,
    evaluate_snapshot,
    select_dl_precoder,
    snapshot_stats,
    traffic_sweep,
)
from skybeam.genetic import EgaParams, FitnessEvaluator, corridor_problem, run
from skybeam.scenario import scenario_from_config
from skybeam.segment_metric import avg_channel_gain, cross_corr_frobenius, inv_condition_number
from test_association import make_channels, make_codebook
from test_genetic import brute_force_fitness, random_instance

N_SNAPSHOTS = 12
REDUCED_MAX_ITERS = 2000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    """Default scenario optimized once, then evaluated over snapshots."""
    cfg = validate_config(default_config())
    scenario = scenario_from_config(cfg)
    panel = scenario.sectors[0].panel
    ssb = build_ssb_codebook(panel, 4, 1)
    dl = build_dl_codebook(panel, 1, 1)

    assignment, evaluator = corridor_problem(scenario, ssb)
    base = evaluator.baseline
    params = EgaParams(max_iters=REDUCED_MAX_ITERS, stop_iters=1000, seed=scenario.master_seed)
    best, trace = run(params, evaluator, scenario.radio.max_ssb_power_dbm)
    optimized = evaluator.plan_for(best.genome)
    plans = {"baseline": base, "optimized": optimized}

    per_snapshot = {
        name: {"uav_cov_p5": [], "uav_rate_p5": [], "gue_cov_p5": [], "gue_rate_p5": []}
        for name in plans
    }
    for snapshot in range(N_SNAPSHOTS):
        _, results = evaluate_snapshot(scenario, plans, ssb, dl, snapshot, N_SNAPSHOTS)
        for name, res in results.items():
            aerial = np.array([k == "aerial" for k in res.kinds])
            stats = per_snapshot[name]
            stats["uav_cov_p5"].append(snapshot_stats(res.coverage_sinr_db, aerial).percentile(5))
            stats["uav_rate_p5"].append(snapshot_stats(res.data.rate_bps, aerial).percentile(5))
            stats["gue_cov_p5"].append(snapshot_stats(res.coverage_sinr_db, ~aerial).percentile(5))
            stats["gue_rate_p5"].append(snapshot_stats(res.data.rate_bps, ~aerial).percentile(5))

    return {
        "scenario": scenario,
        "ssb": ssb,
        "dl": dl,
        "plans": plans,
        "assignment": assignment,
        "evaluator": evaluator,
        "best_genome": best.genome,
        "trace": trace,
        "frozen": evaluator.frozen_slots,
        "per_snapshot": per_snapshot,
    }


def test_criterion_1_uav_coverage_improvement(pipeline):
    stats = pipeline["per_snapshot"]
    delta = np.mean(stats["optimized"]["uav_cov_p5"]) - np.mean(stats["baseline"]["uav_cov_p5"])
    report(
        "criterion 1 (UAV 5%-tile coverage SINR gain >= 2 dB)",
        delta >= 2.0,
        f"{delta:+.2f} dB over {N_SNAPSHOTS} snapshots",
    )


def test_criterion_2_uav_rate_improvement(pipeline):
    stats = pipeline["per_snapshot"]
    base = np.mean(stats["baseline"]["uav_rate_p5"])
    opt = np.mean(stats["optimized"]["uav_rate_p5"])
    ratio = opt / base
    report(
        "criterion 2 (UAV 5%-tile rate gain >= 2x)",
        ratio >= 2.0,
        f"{ratio:.2f}x ({base / 1e6:.2f} -> {opt / 1e6:.2f} Mbps)",
    )


def test_criterion_3_gue_protection(pipeline):
    stats = pipeline["per_snapshot"]
    delta = np.mean(stats["optimized"]["gue_cov_p5"]) - np.mean(stats["baseline"]["gue_cov_p5"])
    report(
        "criterion 3 (gUE 5%-tile SINR degradation <= 0.5 dB)",
        delta >= -0.5,
        f"{delta:+.2f} dB",
    )


def test_criterion_4_traffic_capacity(pipeline):
    scenario = pipeline["scenario"]
    result = traffic_sweep(
        scenario, pipeline["plans"], pipeline["ssb"], pipeline["dl"], n_max=30, n_snapshots=6
    )
    idx4 = np.flatnonzero(result.n_uavs == 4)[0]
    assert result.d_iud_m[idx4] == 312.5  # exact axis pairing
    threshold = 5e6
    n_base = result.max_supported("baseline", threshold)
    n_opt = result.max_supported("optimized", threshold)
    report(
        "criterion 4 (sustainable UAV count >= 2x baseline at 5 Mbps)",
        n_opt >= 2 * max(n_base, 1),
        f"baseline {n_base}, optimized {n_opt}",
    )


class TestCriterion5OracleEquivalence:
    """Each operation matches an independent brute-force oracle on >= 100
    random small instances (1e-9 relative for linear algebra, exact argmax)."""

    def test_inv_condition_number(self):
        gen = np.random.default_rng(50)
        for _ in range(100):
            h = gen.standard_normal((gen.integers(1, 6), gen.integers(1, 8))) + 1j * gen.standard_normal(
                (1, 1)
            )
            gram = h @ np.conj(h).T if h.shape[0] <= h.shape[1] else np.conj(h).T @ h
            eig = np.clip(np.sort(np.linalg.eigvalsh(gram)), 0.0, None)
            oracle = math.sqrt(eig[0] / eig[-1]) if eig[-1] > 0 else 0.0
            assert inv_condition_number(h) == pytest.approx(oracle, rel=1e-7, abs=1e-9)
        print("PASS criterion 5a: inv_condition_number matches eigen oracle x100")

    def test_cross_corr_frobenius(self):
        gen = np.random.default_rng(51)
        for _ in range(100):
            cols = int(gen.integers(1, 6))
            a = gen.standard_normal((gen.integers(1, 5), cols)) + 1j * gen.standard_normal((1, 1))
            b = gen.standard_normal((gen.integers(1, 5), cols)) + 1j * gen.standard_normal((1, 1))
            oracle = sum(
                abs(sum(b[i, m] * np.conj(a[z, m]) for m in range(cols))) ** 2
                for i in range(b.shape[0])
                for z in range(a.shape[0])
            )
            assert cross_corr_frobenius(a, b) == pytest.approx(oracle, rel=1e-9)
        print("PASS criterion 5b: cross_corr_frobenius matches triple loop x100")

    def test_avg_channel_gain(self):
        gen = np.random.default_rng(52)
        for _ in range(100):
            h = gen.standard_normal((gen.integers(1, 6), gen.integers(1, 8))) * (1 + 1j)
            oracle = np.mean([abs(x) ** 2 for row in h for x in row])
            assert avg_channel_gain(h) == pytest.approx(oracle, rel=1e-9)
        print("PASS criterion 5c: avg_channel_gain matches double loop x100")

    def test_select_serving(self):
        from skybeam.association import BeamPlan, ssb_rsrp

        gen = np.random.default_rng(53)
        for _ in range(100):
            n, b, s, m = 2, int(gen.integers(2, 5)), int(gen.integers(1, 8)), 3
            h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
            channels = make_channels(h, gen.uniform(0.1, 2.0, (n, b)))
            weights = gen.standard_normal((4, m)) + 1j * gen.standard_normal((4, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            book = make_codebook(weights)
            plan = BeamPlan(
                x=(gen.random((b, s)) < 0.8).astype(np.int8),
                power_dbm=gen.uniform(0, 10, (b, s)),
                codeword=gen.integers(0, 4, (b, s)),
                sweep=np.tile(np.arange(s), (b, 1)),
            )
            plan.x[0, 0] = 1
            table = rsrp_table(channels, plan, book)
            got_b, got_s = select_serving_all(table)
            for u in range(n):
                best = (-1.0, None, None)
                for bb in range(b):
                    for ss in range(s):
                        val = ssb_rsrp(u, ss, bb, plan, channels, book)
                        if val > best[0]:
                            best = (val, bb, ss)
                assert (got_b[u], got_s[u]) == (best[1], best[2])
        print("PASS criterion 5d: select_serving matches exhaustive scan x100")

    def test_select_dl_precoder(self):
        gen = np.random.default_rng(54)
        for _ in range(100):
            m = int(gen.integers(2, 6))
            h = gen.standard_normal((1, 1, m)) + 1j * gen.standard_normal((1, 1, m))
            beta = gen.uniform(0.1, 2.0, (1, 1))
            weights = gen.standard_normal((gen.integers(2, 10), m)) + 1j * gen.standard_normal((1, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            channels = make_channels(h, beta)
            book = make_codebook(weights)
            got = select_dl_precoder(0, 0, book, channels)
            oracle = int(np.argmax([beta[0, 0] * abs(h[0, 0] @ w) ** 2 for w in weights]))
            assert got == oracle
        print("PASS criterion 5e: select_dl_precoder matches exhaustive scan x100")

    def test_fitness(self):
        gen = np.random.default_rng(55)
        for _ in range(100):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, 1e-9)
            n = len(designated)
            genome = np.concatenate([gen.integers(0, 10, n), gen.uniform(0.05, 4.0, n)])
            got = ev.evaluate(genome)
            oracle = brute_force_fitness(
                genome, channels, book, baseline, designated, frozen, required, 1e-9
            )
            if math.isinf(oracle):
                assert got == oracle
            else:
                assert got == pytest.approx(oracle, rel=1e-9)
        print("PASS criterion 5f: fitness matches brute-force oracle x100")


@pytest.fixture(scope="module")
def toy():
    """3 sectors, 10-codeword book, 5-point single-segment corridor."""
    raw = default_config()
    raw["layout"]["tiers"] = 0
    raw["layout"]["panel_columns"] = 1
    raw["layout"]["panel_rows"] = 10
    raw["highway"]["polyline"] = [[150.0, 20.0, 100.0], [350.0, 20.0, 100.0]]
    raw["highway"]["point_spacing_m"] = 50.0
    raw["highway"]["points_per_segment"] = 5
    cfg = validate_config(raw)
    scenario = scenario_from_config(cfg)
    ssb = build_ssb_codebook(scenario.sectors[0].panel, 1, 1)
    assert len(ssb) == 10
    assignment, evaluator = corridor_problem(scenario, ssb)
    assert len(assignment.designated_cells) == 1
    assert scenario.highway.n_points == 5
    p_max = scenario.radio.max_ssb_power_dbm
    p_max_mw = 10 ** (p_max / 10)
    exhaustive = max(
        evaluator.evaluate(np.array([cw, p_max_mw], dtype=float)) for cw in range(10)
    )
    return evaluator, p_max, exhaustive

def test_criterion6_toy_reaches_exhaustive_optimum(toy):
    evaluator, p_max, exhaustive = toy
    assert exhaustive > -math.inf
    params_base = dict(n_pop=20, n_parents=15, n_elites=4, p_cross=0.2, p_mut=0.75,
                       max_iters=500, stop_iters=500)
    hits = 0
    for seed in range(100):
        best, _ = run(EgaParams(seed=seed, **params_base), evaluator, p_max)
        if best.fitness >= exhaustive - 0.25:
            hits += 1
    report(
        "criterion 6a (toy instance reaches exhaustive optimum)",
        hits >= 95,
        f"{hits}/100 seeds within 0.25 dB of the 10-codeword optimum",
    )

def test_criterion6_monotone_trace_every_run(toy, pipeline):
    evaluator, p_max, _ = toy
    traces = [pipeline["trace"]]
    for seed in (0, 1, 2, 3, 4):
        params = EgaParams(
            n_pop=16, n_parents=8, n_elites=3, p_cross=0.2, p_mut=0.75, max_iters=80,
            stop_iters=200, seed=seed,
        )
        _, trace = run(params, evaluator, p_max)
        traces.append(trace)
    ok = all(
        all(b >= a for a, b in zip(t.best_fitness, t.best_fitness[1:])) for t in traces
    )
    report("criterion 6b (best-fitness monotone on every run)", ok, f"{len(traces)} traces checked")

def test_criterion6_emitted_plan_satisfies_constraints(pipeline):
    plan = pipeline["plans"]["optimized"]
    base = pipeline["plans"]["baseline"]
    scenario = pipeline["scenario"]
    designated = set(pipeline["assignment"].designated_cells)
    frozen = pipeline["frozen"]

    diff_cells = set(np.argwhere(plan.codeword != base.codeword)[:, 0].tolist())
    diff_cells |= set(np.argwhere(~np.isclose(plan.power_dbm, base.power_dbm))[:, 0].tolist())
    only_designated = diff_cells <= designated
    one_slot_each = all(
        sum(
            1
            for s in range(base.n_slots)
            if plan.codeword[cell, s] != base.codeword[cell, s]
            or not math.isclose(plan.power_dbm[cell, s], base.power_dbm[cell, s])
        )
        <= 1
        for cell in designated
    )
    power_ok = all(
        plan.power_dbm[cell, frozen[cell]] <= scenario.radio.max_ssb_power_dbm + 1e-9
        for cell in designated
    )
    association_ok = pipeline["evaluator"].evaluate(pipeline["best_genome"]) > -math.inf
    ok = only_designated and one_slot_each and power_ok and association_ok
    report(
        "criterion 6c (emitted plan satisfies all four planning constraints)",
        ok,
        f"designated-only={only_designated} one-slot={one_slot_each} "
        f"power<=max={power_ok} association={association_ok}",
    )


class TestCriterion7ChannelProperties:
    def test_rician_normalization(self):
        gen = np.random.default_rng(70)
        m = 8
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        for k in (0.0, 10 ** 0.9):
            total = sum(
                np.sum(np.abs(rician_channel(los, k, gen).h_dl) ** 2) for _ in range(10_000)
            )
            ratio = total / 10_000 / m
            assert ratio == pytest.approx(1.0, rel=0.05)
        print("PASS criterion 7a: Rician E||h||^2 = M within 5% (1e4 draws)")

    def test_shadow_autocorrelation(self):
        d_corr = 50.0
        pos = np.array([[0.0, 0.0], [d_corr, 0.0]])
        gains = shadow_field(pos, d_corr, 8.0, np.random.default_rng(71), n_draws=10_000)
        log_vals = 10 * np.log10(gains)
        corr = np.corrcoef(log_vals[:, 0], log_vals[:, 1])[0, 1]
        ok = abs(corr - math.exp(-1)) <= 0.1
        report(
            "criterion 7b (shadow autocorrelation at one decorrelation distance)",
            ok,
            f"corr {corr:.3f} vs 1/e = {math.exp(-1):.3f}",
        )

    def test_los_unit_modulus(self, pipeline):
        scenario = pipeline["scenario"]
        gen = np.random.default_rng(72)
        sector = scenario.sectors[5]
        coords = sector.panel.element_coords(scenario.radio.wavelength_m)
        worst = 0.0
        for _ in range(50):
            pos = gen.uniform(-900, 900, 3)
            pos[2] = gen.uniform(1.5, 150.0)
            geom = link_geometry(sector, pos)
            h = los_component(geom, coords, scenario.radio.wavelength_m)
            worst = max(worst, float(np.max(np.abs(np.abs(h) - 1.0))))
        report("criterion 7c (LoS entries unit modulus)", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_8_determinism(tmp_path):
    cfg = default_config()
    cfg["layout"]["tiers"] = 1
    cfg["highway"]["polyline"] = [[-312.5, 144.3375673, 100.0], [312.5, 144.3375673, 100.0]]
    cfg["optimizer"].update(
        {"n_pop": 16, "n_parents": 8, "n_elites": 3, "max_iters": 80, "stop_iters": 60}
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(["run", "--config", str(config_path), "--out", str(out), "--snapshots", "2"])
        assert code == 0
        outs.append(out)
    identical = True
    for f in sorted(outs[0].iterdir()):
        if f.suffix == ".csv":
            if f.read_bytes() != (outs[1] / f.name).read_bytes():
                identical = False
    report(
        "criterion 8 (byte-identical CSVs across runs)",
        identical,
        "all CSV artifacts compared",
    )
