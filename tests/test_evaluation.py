import math

import numpy as np
import pytest

from skybeam.association import baseline_plan
from skybeam.codebook import build_dl_codebook, build_ssb_codebook
from skybeam.config import RadioConfig
from skybeam.evaluation import (
    CdfSummary,
    EmptyGroup,
    achievable_rate,
    data_phase,
    data_sinr,
    evaluate_snapshot,
    select_dl_precoder,
    snapshot_stats,
    snapshot_users,
    traffic_sweep,
)
from test_association import make_channels, make_codebook

RADIO = RadioConfig()


class TestSelectDlPrecoder:
    def test_single_codeword(self):
        channels = make_channels(np.ones((1, 1, 2)), np.ones((1, 1)))
        book = make_codebook(np.array([[1.0, 0.0]]))
        assert select_dl_precoder(0, 0, book, channels) == 0

    def test_aligned_los_codeword_wins(self):
        m = 8
        gen = np.random.default_rng(0)
        steering = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        matched = np.conj(steering) / math.sqrt(m)
        others = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
        others /= np.linalg.norm(others, axis=1, keepdims=True)
        weights = np.vstack([others[:2], matched, others[2:]])
        channels = make_channels(steering.reshape(1, 1, m), np.ones((1, 1)))
        book = make_codebook(weights)
        assert select_dl_precoder(0, 0, book, channels) == 2

    def test_matches_bruteforce_scan(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            m = int(gen.integers(2, 6))
            n_cw = int(gen.integers(2, 12))
            h = gen.standard_normal((1, 1, m)) + 1j * gen.standard_normal((1, 1, m))
            beta = gen.uniform(0.1, 3.0, (1, 1))
            weights = gen.standard_normal((n_cw, m)) + 1j * gen.standard_normal((n_cw, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            channels = make_channels(h, beta)
            book = make_codebook(weights)
            got = select_dl_precoder(0, 0, book, channels)
            scores = [abs(h[0, 0] @ w) ** 2 * beta[0, 0] for w in weights]
            assert got == int(np.argmax(scores))


class TestDataSinr:
    def test_single_ue_network_is_snr(self):
        m = 4
        gen = np.random.default_rng(2)
        steering = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        matched = np.conj(steering) / math.sqrt(m)
        channels = make_channels(steering.reshape(1, 1, m), np.full((1, 1), 2.0))
        book = make_codebook(matched.reshape(1, m))
        serving = np.zeros(1, dtype=int)
        report = data_phase(channels, serving, book, RADIO)
        p_mw = 10 ** (RADIO.sector_tx_power_dbm / 10)
        noise = RADIO.n_prb_total * RADIO.prb_bandwidth_hz * RADIO.noise_psd_mw_per_hz
        expected = 10 * math.log10(2.0 * m * p_mw / noise)
        assert report.sinr_db[0] == pytest.approx(expected, rel=1e-9)
        assert report.n_codeword_sharers[0] == 1

    def test_codeword_sharers_do_not_interfere(self):
        # two identical co-cell UEs share the best codeword: N_w = 2, no
        # intra-cell interference between them
        m = 4
        h = np.tile(np.ones(m), (2, 1, 1))
        channels = make_channels(h.reshape(2, 1, m), np.ones((2, 1)))
        book = make_codebook(np.vstack([np.ones(m) / math.sqrt(m), np.eye(m)[:1]]))
        serving = np.zeros(2, dtype=int)
        report = data_phase(channels, serving, book, RADIO)
        assert np.all(report.n_codeword_sharers == 2)
        # SINR identical for both and unaffected by each other's stream
        assert report.sinr_db[0] == pytest.approx(report.sinr_db[1], rel=1e-12)

    def test_hand_construction_matches_reference(self):
        gen = np.random.default_rng(3)
        n, b, m = 3, 2, 4
        h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
        beta = gen.uniform(0.2, 1.5, (n, b))
        weights = gen.standard_normal((6, m)) + 1j * gen.standard_normal((6, m))
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        channels = make_channels(h, beta)
        book = make_codebook(weights)
        serving = np.array([0, 0, 1])
        report = data_phase(channels, serving, book, RADIO)
        for u in range(n):
            ref = data_sinr(u, channels, serving, report.precoder, RADIO, book)
            assert report.sinr_db[u] == pytest.approx(ref, rel=1e-9)

    def test_bulk_matches_reference_random(self):
        gen = np.random.default_rng(4)
        for _ in range(20):
            n, b, m = int(gen.integers(2, 7)), int(gen.integers(2, 4)), 4
            h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
            beta = gen.uniform(0.2, 1.5, (n, b))
            weights = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            channels = make_channels(h, beta)
            book = make_codebook(weights)
            serving = gen.integers(0, b, n)
            report = data_phase(channels, serving, book, RADIO)
            u = int(gen.integers(0, n))
            ref = data_sinr(u, channels, serving, report.precoder, RADIO, book)
            assert report.sinr_db[u] == pytest.approx(ref, rel=1e-9)


def test_inter_cell_interference_sanity_bound():
    # one serving cell, one interfering cell: the interference term never
    # exceeds the interferer's total power times its best beam gain
    gen = np.random.default_rng(9)
    n, b, m = 4, 2, 4
    h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
    beta = gen.uniform(0.2, 1.5, (n, b))
    weights = gen.standard_normal((6, m)) + 1j * gen.standard_normal((6, m))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    channels = make_channels(h, beta)
    book = make_codebook(weights)
    serving = np.array([0, 0, 0, 1])
    report = data_phase(channels, serving, book, RADIO)
    p_total = 10 ** (RADIO.sector_tx_power_dbm / 10)
    u = 0  # served by cell 0, interfered by cell 1
    sinr = 10 ** (report.sinr_db[u] / 10)
    signal = (
        beta[u, 0]
        * abs(h[u, 0] @ book.weights[report.precoder[u]]) ** 2
        * report.power_mw[u]
    )
    noise = RADIO.n_prb_total * RADIO.prb_bandwidth_hz / report.n_codeword_sharers[u] * RADIO.noise_psd_mw_per_hz
    total_interference = signal / sinr - noise
    best_gain = max(abs(h[u, 1] @ w) ** 2 for w in weights)
    bound = beta[u, 1] * best_gain * p_total
    # intra-cell terms are absent for u here only if co-cell UEs share its
    # codeword; subtract the known intra part instead of assuming
    intra = 0.0
    for other in range(n):
        if other == u or serving[other] != 0 or report.precoder[other] == report.precoder[u]:
            continue
        intra += beta[u, 0] * abs(h[u, 0] @ book.weights[report.precoder[other]]) ** 2 * report.power_mw[other]
    assert total_interference - intra <= bound + 1e-9


class TestAchievableRate:
    def test_arithmetic_36mbps(self):
        radio = RadioConfig(bandwidth_hz=40e6, n_prb_total=100, prb_bandwidth_hz=360e3)
        assert achievable_rate(0.0, 1, radio) == pytest.approx(36e6)

    def test_sharers_halve_rate(self):
        assert achievable_rate(7.0, 2, RADIO) == pytest.approx(achievable_rate(7.0, 1, RADIO) / 2)

    def test_zero_sinr_zero_rate(self):
        assert achievable_rate(-math.inf, 1, RADIO) == 0.0

    def test_strictly_increasing_in_sinr(self):
        rates = [achievable_rate(g, 1, RADIO) for g in (-10.0, -3.0, 0.0, 5.0, 12.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestSnapshotStats:
    def test_order_statistic_convention(self):
        stats = snapshot_stats(np.arange(1, 101))
        assert stats.percentile(5) == 5.0

    def test_single_sample(self):
        stats = snapshot_stats([42.0])
        assert stats.percentile(5) == 42.0
        assert stats.percentile(95) == 42.0
        assert stats.mean == 42.0

    def test_cdf_monotone(self):
        gen = np.random.default_rng(5)
        stats = snapshot_stats(gen.standard_normal(200))
        qs = [stats.percentile(q) for q in range(0, 101, 5)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroup):
            snapshot_stats(np.array([1.0, 2.0]), np.array([False, False]))

    def test_mask_selects_group(self):
        stats = snapshot_stats(np.array([1.0, 100.0, 2.0]), np.array([True, False, True]))
        assert stats.mean == pytest.approx(1.5)


class TestSnapshotEvaluation:
    def test_snapshot_users_layout(self, small_scenario):
        users = snapshot_users(small_scenario, 0, 4, 100.0)
        kinds = [u.kind for u in users]
        n_gue = kinds.count("ground")
        assert n_gue == small_scenario.n_sectors * small_scenario.gues_per_cell
        assert kinds.count("aerial") == 6  # floor(625 / 100)
        assert [u.id for u in users] == list(range(len(users)))

    def test_uav_offset_advances(self, small_scenario):
        a = snapshot_users(small_scenario, 0, 4, 100.0)
        b = snapshot_users(small_scenario, 1, 4, 100.0)
        ax = [u.position_3d_m[0] for u in a if u.kind == "aerial"]
        bx = [u.position_3d_m[0] for u in b if u.kind == "aerial"]
        assert np.allclose(np.array(bx) - np.array(ax), 25.0)  # d_iud / n_snapshots

    def test_explicit_zero_uav_spacing_raises(self, small_scenario):
        ssb = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        dl = build_dl_codebook(small_scenario.sectors[0].panel, 1, 1)
        base = baseline_plan(small_scenario, ssb)
        with pytest.raises(ValueError, match="d_iud"):
            evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 0, 4, d_iud=0.0)

    def test_plans_share_channels(self, small_scenario):
        ssb = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        dl = build_dl_codebook(small_scenario.sectors[0].panel, 1, 1)
        base = baseline_plan(small_scenario, ssb)
        louder = base.copy()
        louder.power_dbm += 3.0
        channels, results = evaluate_snapshot(
            small_scenario, {"a": base, "b": louder}, ssb, dl, 0, 4
        )
        # a uniform 3 dB power lift leaves association unchanged
        assert np.array_equal(results["a"].serving_sector, results["b"].serving_sector)
        assert len(results["a"].kinds) == channels.n_entities


class TestTrafficSweep:
    def test_rows_and_spacing_invariant(self, small_scenario):
        ssb = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        dl = build_dl_codebook(small_scenario.sectors[0].panel, 1, 1)
        base = baseline_plan(small_scenario, ssb)
        res = traffic_sweep(small_scenario, {"baseline": base}, ssb, dl, n_max=4, n_snapshots=2)
        assert list(res.n_uavs) == [1, 2, 3, 4]
        length = small_scenario.highway.total_length_m
        assert np.allclose(res.d_iud_m * res.n_uavs, length, atol=1e-6)

    def test_single_row(self, small_scenario):
        ssb = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        dl = build_dl_codebook(small_scenario.sectors[0].panel, 1, 1)
        base = baseline_plan(small_scenario, ssb)
        res = traffic_sweep(small_scenario, {"baseline": base}, ssb, dl, n_max=1, n_snapshots=2)
        assert res.n_uavs.shape == (1,)

    def test_max_supported(self):
        from skybeam.evaluation import SweepResult

        res = SweepResult(
            n_uavs=np.array([1, 2, 3, 4]),
            d_iud_m=np.array([100.0, 50.0, 33.3, 25.0]),
            p5_rate={"p": np.array([9e6, 6e6, 4e6, 5.5e6])},
            p5_gue_rate={"p": np.zeros(4)},
        )
        assert res.max_supported("p", 5e6) == 4
        assert res.max_supported("p", 10e6) == 0

    def test_spacing_at_four_uavs(self):
        # N = 4 on a 1250 m corridor pairs with d_IUD = 312.5 m
        assert 1250.0 / 4 == pytest.approx(312.5)
