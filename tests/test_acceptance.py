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

from oracles import (
    brute_force_fitness,
    data_phase,
    evaluate_genome,
    max_supported,
    rician_channel,
    sector_geometry,
    ssb_rsrp,
)
from conftest import beam_plan
from skybeam.association import rsrp_table, select_serving_all
from skybeam.channel import los_components, shadow_factor, shadow_gain
from skybeam.cli import main as cli_main
from skybeam.codebook import build_dl_codebook, build_ssb_codebook
from skybeam.config import RadioConfig, block_params, default_config, validate_config
from skybeam.evaluation import (
    evaluate_snapshot,
    ground_channels,
    p5,
    traffic_sweep,
)
from skybeam.genetic import EgaParams, FitnessEvaluator, corridor_problem, run
from skybeam.scenario import scenario_from_config
from skybeam.segment_metric import avg_channel_gain, cross_corr_frobenius, inv_condition_number
from test_association import make_channels, make_codebook
from test_genetic import random_instance

N_SNAPSHOTS = 12
REDUCED_MAX_ITERS = 2000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    """Default scenario optimized once, then evaluated over snapshots."""
    raw = default_config()
    raw["optimizer"].update(max_iters=REDUCED_MAX_ITERS, stop_iters=1000)
    cfg = validate_config(raw)
    scenario = scenario_from_config(cfg)
    panel = scenario.sectors[0].panel
    books = block_params(cfg, "codebook")
    ssb = build_ssb_codebook(panel, books.ssb_oversampling_h, books.ssb_oversampling_v)
    dl = build_dl_codebook(panel, books.dl_oversampling_h, books.dl_oversampling_v)

    assignment, evaluator = corridor_problem(scenario, ssb, ground_channels(scenario, 0))
    base = evaluator.baseline
    best, trace = run(block_params(cfg, "optimizer"), evaluator)
    optimized = evaluator.plan_for(best.genome)
    plans = {"baseline": base, "optimized": optimized}

    per_snapshot = {
        name: {"uav_cov_p5": [], "uav_rate_p5": [], "gue_cov_p5": [], "gue_rate_p5": []}
        for name in plans
    }
    for snapshot in range(N_SNAPSHOTS):
        (results,) = evaluate_snapshot(
            scenario, plans, ssb, dl, snapshot, N_SNAPSHOTS, [scenario.highway_params.uav_spacing_m]
        )
        for name, res in results.items():
            aerial = res.kinds == "aerial"
            stats = per_snapshot[name]
            stats["uav_cov_p5"].append(p5(res.coverage_sinr_db[aerial]))
            stats["uav_rate_p5"].append(p5(res.data.rate_bps[aerial]))
            stats["gue_cov_p5"].append(p5(res.coverage_sinr_db[~aerial]))
            stats["gue_rate_p5"].append(p5(res.data.rate_bps[~aerial]))

    return {
        "scenario": scenario,
        "ssb": ssb,
        "dl": dl,
        "plans": plans,
        "assignment": assignment,
        "evaluator": evaluator,
        "best_genome": best.genome,
        "trace": trace,
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
    n_base = max_supported(result, "baseline", threshold)
    n_opt = max_supported(result, "optimized", threshold)
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
        gen = np.random.default_rng(53)
        for _ in range(100):
            n, b, s, m = 2, int(gen.integers(2, 5)), int(gen.integers(1, 8)), 3
            h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
            channels = make_channels(h, gen.uniform(0.1, 2.0, (n, b)))
            weights = gen.standard_normal((4, m)) + 1j * gen.standard_normal((4, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            book = make_codebook(weights)
            plan = beam_plan(b, s, power_dbm=gen.uniform(0, 10, (b, s)), codeword=gen.integers(0, 4, (b, s)))
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
        print("PASS criterion 5d: select_serving_all matches exhaustive scan x100")

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
            got = data_phase([channels], np.zeros(1, dtype=int), book, RadioConfig()).precoder[0]
            oracle = int(np.argmax([beta[0, 0] * abs(h[0, 0] @ w) ** 2 for w in weights]))
            assert got == oracle
        print("PASS criterion 5e: data_phase precoder matches exhaustive scan x100")

    def test_fitness(self):
        gen = np.random.default_rng(55)
        for _ in range(100):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, 1e-9)
            genome = gen.integers(0, 10, len(designated))
            got = evaluate_genome(ev, genome)
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
    assignment, evaluator = corridor_problem(scenario, ssb, ground_channels(scenario, 0))
    assert len(assignment.designated_cells) == 1
    assert len(scenario.highway.points) == 5
    # every beam at the baseline's power, so the optimum is the best codeword
    exhaustive = max(evaluate_genome(evaluator, np.array([cw])) for cw in range(10))
    return evaluator, exhaustive

def test_criterion6_toy_reaches_exhaustive_optimum(toy):
    evaluator, exhaustive = toy
    assert exhaustive > -math.inf
    params_base = dict(n_pop=20, n_parents=15, n_elites=4, p_cross=0.2, p_mut=0.75,
                       max_iters=500, stop_iters=500)
    hits = 0
    for seed in range(100):
        best, _ = run(EgaParams(seed=seed, **params_base), evaluator)
        if best.fitness == exhaustive:
            hits += 1
    report(
        "criterion 6a (toy instance reaches exhaustive optimum)",
        hits >= 95,
        f"{hits}/100 seeds at the 10-codeword optimum exactly",
    )

def test_criterion6_monotone_trace_every_run(toy, pipeline):
    evaluator, _ = toy
    traces = [pipeline["trace"]]
    for seed in (0, 1, 2, 3, 4):
        params = EgaParams(
            n_pop=16, n_parents=8, n_elites=3, p_cross=0.2, p_mut=0.75, max_iters=80,
            stop_iters=200, seed=seed,
        )
        _, trace = run(params, evaluator)
        traces.append(trace)
    ok = all(
        all(b >= a for a, b in zip(t.best_fitness, t.best_fitness[1:])) for t in traces
    )
    report("criterion 6b (best-fitness monotone on every run)", ok, f"{len(traces)} traces checked")

def test_criterion6_emitted_plan_satisfies_constraints(pipeline):
    plan = pipeline["plans"]["optimized"]
    base = pipeline["plans"]["baseline"]
    designated = set(pipeline["assignment"].designated_cells)

    diff = plan.codeword != base.codeword
    only_designated = set(np.argwhere(diff)[:, 0].tolist()) <= designated
    one_slot_each = all(np.count_nonzero(diff[cell]) <= 1 for cell in designated)
    # every beam of a sector at its equal share of the sector power
    power_ok = plan.power_dbm.tobytes() == base.power_dbm.tobytes()
    association_ok = evaluate_genome(pipeline["evaluator"], pipeline["best_genome"]) > -math.inf
    ok = only_designated and one_slot_each and power_ok and association_ok
    report(
        "criterion 6c (emitted plan satisfies all four planning constraints)",
        ok,
        f"designated-only={only_designated} one-slot={one_slot_each} "
        f"power=baseline={power_ok} association={association_ok}",
    )


class TestCriterion7ChannelProperties:
    def test_rician_normalization(self):
        gen = np.random.default_rng(70)
        m = 8
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        for k in (0.0, 10 ** 0.9):
            total = np.sum(np.abs(rician_channel(np.tile(los, (10_000, 1)), k, gen)) ** 2)
            ratio = total / 10_000 / m
            assert ratio == pytest.approx(1.0, rel=0.05)
        print("PASS criterion 7a: Rician E||h||^2 = M within 5% (1e4 draws)")

    def test_shadow_autocorrelation(self):
        d_corr = 50.0
        pos = np.array([[0.0, 0.0], [d_corr, 0.0]])
        unit = shadow_factor(pos, d_corr) @ np.random.default_rng(71).standard_normal((2, 10_000))
        gains = shadow_gain(8.0, unit.T)
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
        positions = np.empty((50, 3))
        for pos in positions:
            pos[:] = gen.uniform(-900, 900, 3)
            pos[2] = gen.uniform(1.5, 150.0)
        _, d3d, _, _, unit = sector_geometry(sector, positions)
        h = los_components(unit, d3d, coords, scenario.radio.wavelength_m)
        worst = float(np.max(np.abs(np.abs(h) - 1.0)))
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
