import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from conftest import DARK_DBM
from oracles import (
    achievable_rate,
    data_phase,
    data_sinr,
    joined_data_phase,
    max_supported,
    reference_evaluate_snapshot,
    reference_sweep,
)
from skybeam import evaluation
from skybeam.association import baseline_plan, rsrp_table
from skybeam.channel import ChannelSet, build_channels, entity_block, expected_channels
from skybeam.cli import _summaries
from skybeam.codebook import build_dl_codebook, build_ssb_codebook
from skybeam.config import HighwayParams, RadioConfig, block_params
from skybeam.evaluation import (
    associate,
    data_phase_ground,
    data_phase_uavs,
    evaluate_snapshot,
    ground_channels,
    p5,
    snapshot_uavs,
    traffic_sweep,
)
from skybeam.genetic import corridor_problem
from skybeam.scenario import place_uavs, scenario_from_config
from skybeam.segment_metric import assign_segments
from test_association import make_channels, make_codebook

RADIO = RadioConfig()
UAV_SPACING = HighwayParams().uav_spacing_m  # the spacing `skybeam run` evaluates


def dl_precoder(channels, book):
    """data_phase's precoder for entity 0 served by sector 0."""
    return data_phase([channels], np.zeros(channels.h.shape[0], dtype=int), book, RADIO).precoder[0]


class TestSelectDlPrecoder:
    def test_single_codeword(self):
        channels = make_channels(np.ones((1, 1, 2)), np.ones((1, 1)))
        book = make_codebook(np.array([[1.0, 0.0]]))
        assert dl_precoder(channels, book) == 0

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
        assert dl_precoder(channels, book) == 2

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
            got = dl_precoder(channels, book)
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
        report = data_phase([channels], serving, book, RADIO)
        p_mw = 10 ** (RADIO.sector_tx_power_dbm / 10)
        noise = RADIO.noise_mw(RADIO.n_prb_total * RADIO.prb_bandwidth_hz)  # the whole band, noise figure included
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
        report = data_phase([channels], serving, book, RADIO)
        assert np.all(report.n_codeword_sharers == 2)
        # SINR identical for both and unaffected by each other's stream
        assert report.sinr_db[0] == pytest.approx(report.sinr_db[1], rel=1e-12)
        # the SNR over the noise of each UE's half of the band
        signal = m * RADIO.sector_tx_power_mw / 2
        expected = 10 * math.log10(signal / RADIO.noise_mw(RADIO.n_prb_total * RADIO.prb_bandwidth_hz / 2))
        assert report.sinr_db[0] == pytest.approx(expected, rel=1e-9)

    def test_zero_signal_is_minus_inf_db_and_zero_rate(self):
        """A UE whose channel toward its serving sector is all zeros gets
        -inf dB and no rate, without a divide-by-zero warning."""
        m = 4
        h = np.stack([np.ones((1, m)), np.zeros((1, m))])
        channels = make_channels(h, np.ones((2, 1)))
        book = make_codebook(np.ones((1, m)) / math.sqrt(m))
        serving = np.zeros(2, dtype=int)
        report = data_phase([channels], serving, book, RADIO)
        assert report.sinr_db[1] == -math.inf and report.rate_bps[1] == 0.0
        assert np.isfinite(report.sinr_db[0]) and report.rate_bps[0] > 0.0
        ref = joined_data_phase([channels], serving, book, RADIO)
        assert report.sinr_db.tobytes() == ref.sinr_db.tobytes()
        assert report.rate_bps.tobytes() == ref.rate_bps.tobytes()

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
        report = data_phase([channels], serving, book, RADIO)
        for u in range(n):
            ref = data_sinr(u, channels, serving, report.precoder, RADIO, book)
            assert report.sinr_db[u] == pytest.approx(ref, rel=1e-9)
            rate = achievable_rate(ref, int(report.n_codeword_sharers[u]), RADIO)
            assert report.rate_bps[u] == pytest.approx(rate, rel=1e-9)

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
            report = data_phase([channels], serving, book, RADIO)
            u = int(gen.integers(0, n))
            ref = data_sinr(u, channels, serving, report.precoder, RADIO, book)
            assert report.sinr_db[u] == pytest.approx(ref, rel=1e-9)
            rate = achievable_rate(ref, int(report.n_codeword_sharers[u]), RADIO)
            assert report.rate_bps[u] == pytest.approx(rate, rel=1e-9)


def test_corridor_problem_takes_the_receiver_noise(small_cfg, small_scenario):
    """The search scores coverage SINRs over the SSB noise, and the segment
    metric's N is the receiver noise over one PRB."""
    radio = small_scenario.radio
    ssb, _, _ = _books_and_plan(small_scenario, small_cfg)
    assignment, evaluator = corridor_problem(small_scenario, ssb, ground_channels(small_scenario, 0))
    assert evaluator.noise_mw == radio.noise_mw(7.2e6)
    h = expected_channels(small_scenario.sectors, small_scenario.highway.points, radio, small_scenario.channel_params)
    want = assign_segments(h, small_scenario.highway.segments, radio.noise_mw(radio.prb_bandwidth_hz))
    assert assignment.chi.tobytes() == want.chi.tobytes()


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
    report = data_phase([channels], serving, book, RADIO)
    p_total = 10 ** (RADIO.sector_tx_power_dbm / 10)
    p_ue = p_total / np.count_nonzero(serving == 0)  # cell 0's equal share per served UE
    u = 0  # served by cell 0, interfered by cell 1
    sinr = 10 ** (report.sinr_db[u] / 10)
    signal = beta[u, 0] * abs(h[u, 0] @ book.weights[report.precoder[u]]) ** 2 * p_ue
    noise = RADIO.noise_mw(RADIO.n_prb_total * RADIO.prb_bandwidth_hz / report.n_codeword_sharers[u])
    total_interference = signal / sinr - noise
    best_gain = max(abs(h[u, 1] @ w) ** 2 for w in weights)
    bound = beta[u, 1] * best_gain * p_total
    # intra-cell terms are absent for u here only if co-cell UEs share its
    # codeword; subtract the known intra part instead of assuming
    intra = 0.0
    for other in range(n):
        if other == u or serving[other] != 0 or report.precoder[other] == report.precoder[u]:
            continue
        intra += beta[u, 0] * abs(h[u, 0] @ book.weights[report.precoder[other]]) ** 2 * p_ue
    assert total_interference - intra <= bound + 1e-9


class TestAchievableRate:
    def test_arithmetic_36mbps(self):
        radio = RadioConfig(n_prb_total=100, prb_bandwidth_hz=360e3)
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
        assert p5(np.arange(1, 101)) == 5.0

    def test_single_sample(self):
        assert p5([42.0]) == 42.0
        summary = _summaries({("optimized", "uav", "rate_bps"): [42.0]})
        assert summary == {"optimized": {"uav": {"rate_bps": {"p5": 42.0, "mean": 42.0}}}}

    def test_lower_order_statistic_of_any_order(self):
        # the sample at index floor(0.05 (n - 1)) of the sorted values, whatever their order
        gen = np.random.default_rng(5)
        values = gen.standard_normal(200)
        assert p5(values) == np.sort(values)[9] == p5(gen.permutation(values))

    def test_empty_group_raises(self):
        with pytest.raises(ValueError, match="empty sample set"):
            p5(np.array([1.0, 2.0])[np.array([False, False])])

    def test_mask_selects_group(self):
        values = np.array([1.0, 100.0, 2.0])[np.array([True, False, True])]
        assert p5(values) == 1.0
        summary = _summaries({("baseline", "gue", "coverage_sinr_db"): values.tolist()})
        assert summary["baseline"]["gue"]["coverage_sinr_db"]["mean"] == pytest.approx(1.5)


def _books_and_plan(scenario, cfg):
    """The SSB and DL codebooks of `cfg`'s codebook block, as the CLI
    builds them, and the baseline plan of `scenario`, the scenario of `cfg`."""
    params = block_params(cfg, "codebook")
    panel = scenario.sectors[0].panel
    ssb = build_ssb_codebook(panel, params.ssb_oversampling_h, params.ssb_oversampling_v)
    dl = build_dl_codebook(panel, params.dl_oversampling_h, params.dl_oversampling_v)
    return ssb, dl, baseline_plan(scenario, ssb)


CHANNEL_ARRAYS = ("beta", "h")


class TestSnapshotEvaluation:
    def test_snapshot_users_layout(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        res = evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 0, 4, [100.0])[0]["b"]
        kinds = res.kinds.tolist()
        n_gue = kinds.count("ground")
        assert n_gue == small_scenario.n_sectors * small_scenario.users.gues_per_cell
        assert kinds.count("aerial") == 6  # floor(625 / 100)
        assert kinds == ["ground"] * n_gue + ["aerial"] * 6  # ue_id is the row index

    def test_uav_offset_advances(self, small_scenario):
        a = snapshot_uavs(small_scenario, 0, 4, 100.0)
        b = snapshot_uavs(small_scenario, 1, 4, 100.0)
        assert np.allclose(b[:, 0] - a[:, 0], 25.0)  # d_iud / n_snapshots

    def test_explicit_zero_uav_spacing_raises(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        with pytest.raises(ValueError, match="d_iud"):
            evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 0, 4, [0.0])

    def test_zero_snapshots_raises(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        with pytest.raises(ValueError, match="n_snapshots"):
            evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 0, 0, [UAV_SPACING])

    def test_plans_share_channels(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        louder = base.copy()
        louder.power_dbm += 3.0
        (results,) = evaluate_snapshot(small_scenario, {"a": base, "b": louder}, ssb, dl, 0, 4, [UAV_SPACING])
        # a uniform 3 dB power lift leaves association unchanged
        assert np.array_equal(results["a"].serving_sector, results["b"].serving_sector)
        n_entities = len(small_scenario.ground_users(0)) + len(place_uavs(small_scenario.highway, UAV_SPACING, 0.0))
        assert len(results["a"].kinds) == n_entities

    def test_ground_rows_do_not_depend_on_the_uav_count(self, small_cfg, small_scenario, monkeypatch):
        """The ground block that evaluate_snapshot builds, and every plan's
        ground-user association, are the same bytes with 1 UAV and with 12."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        louder = base.copy()
        louder.power_dbm[0] += 3.0
        plans = {"a": base, "b": louder}
        length = small_scenario.highway.total_length_m
        grounds = []
        original = evaluation.build_channels

        def recording(scenario, entities, snapshot, tag):
            channels = original(scenario, entities, snapshot, tag)
            if tag == "ue":
                grounds.append(channels)
            return channels

        monkeypatch.setattr(evaluation, "build_channels", recording)
        one, twelve = (
            evaluate_snapshot(small_scenario, plans, ssb, dl, 2, 3, [length / n])[0]
            for n in (1, 12)
        )
        assert len(grounds) == 2
        for name in CHANNEL_ARRAYS:
            assert getattr(grounds[0], name).tobytes() == getattr(grounds[1], name).tobytes(), name
        n_gue = grounds[0].h.shape[0]
        for name in plans:
            assert np.count_nonzero(one[name].kinds == "aerial") == 1
            assert np.count_nonzero(twelve[name].kinds == "aerial") == 12
            for field in ("serving_sector", "serving_slot", "serving_rsrp_mw", "coverage_sinr_db"):
                a, b = getattr(one[name], field), getattr(twelve[name], field)
                assert a[:n_gue].tobytes() == b[:n_gue].tobytes(), (name, field)

    def test_given_ground_block_is_used(self, small_cfg, small_scenario, monkeypatch):
        """A ground block passed in is not rebuilt, and gives the bytes of
        building it afresh."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        ground = ground_channels(small_scenario, 1)
        fresh = evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 1, 2, [UAV_SPACING])[0]["b"]
        built = []
        monkeypatch.setattr(
            evaluation, "build_channels",
            lambda scenario, entities, snapshot, tag: built.append(tag) or build_channels(
                scenario, entities, snapshot, tag),
        )
        reused = evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 1, 2, [UAV_SPACING], ground)[0]["b"]
        assert built == ["uav"]  # the UAV block alone
        for field in ("serving_sector", "serving_slot", "serving_rsrp_mw", "coverage_sinr_db"):
            assert getattr(reused, field).tobytes() == getattr(fresh, field).tobytes(), field
        for field in ("precoder", "sinr_db", "rate_bps"):
            assert getattr(reused.data, field).tobytes() == getattr(fresh.data, field).tobytes(), field

    def test_corridor_problem_uses_the_snapshot_0_ground_block(self, small_cfg, small_scenario, monkeypatch):
        """corridor_problem takes snapshot 0's ground block, the one
        `ground_channels(scenario, 0)` gives and snapshot 0 evaluates, and
        builds no ground channels of its own."""
        ssb, _, _ = _books_and_plan(small_scenario, small_cfg)
        seen = []
        original = evaluation.build_channels

        def recording(scenario, entities, snapshot, tag):
            seen.append((tag, snapshot))
            return original(scenario, entities, snapshot, tag)

        monkeypatch.setattr(evaluation, "build_channels", recording)
        ground = ground_channels(small_scenario, 0)
        assert seen == [("ue", 0)]
        corridor_problem(small_scenario, ssb, ground)
        assert seen == [("ue", 0)]


SNAPSHOT_FIELDS = ("kinds", "serving_sector", "serving_slot", "serving_rsrp_mw", "coverage_sinr_db")


def _assert_same_arrays(got, want, names, label):
    for field in names:
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (label, field)
        assert a.tobytes() == b.tobytes(), (label, field)


class TestSnapshotMatchesFullEvaluation:
    """evaluate_snapshot, which shares each block's channels across plans
    and each ground step across spacings, against the oracle that evaluates
    each plan at one spacing with the data phase in one call: every
    SnapshotResult array equal in bytes. The plan sets cover each way two
    plans can differ."""

    @staticmethod
    def assert_matches_full_evaluation(scenario, plans, ssb, dl, snapshot=1):
        (got,) = evaluate_snapshot(scenario, plans, ssb, dl, snapshot, 4, [scenario.highway_params.uav_spacing_m])
        want = reference_evaluate_snapshot(scenario, plans, ssb, dl, snapshot, 4)
        assert list(got) == list(want)
        for name in plans:
            _assert_same_arrays(got[name], want[name], SNAPSHOT_FIELDS, name)
            _assert_same_arrays(got[name].data, want[name].data, REPORT_FIELDS, name)
        return want

    @staticmethod
    def with_new_codewords(plan, sectors, n_codewords, seed=0):
        changed = plan.copy()
        gen = np.random.default_rng(seed)
        for b in sectors:
            changed.codeword[b, int(gen.integers(plan.n_slots))] = int(gen.integers(n_codewords))
        return changed

    def test_every_spacing_matches_full_evaluation(self, small_cfg, small_scenario):
        """One call at several UAV spacings, sharing the snapshot's ground
        block and ground steps, gives each spacing the bytes of evaluating
        it alone in full."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        plans = {"base": base, "other": self.with_new_codewords(base, range(3, 6), len(ssb))}
        length = small_scenario.highway.total_length_m
        spacings = [length / n for n in (1, 5, 12)]
        got = evaluate_snapshot(small_scenario, plans, ssb, dl, 1, 4, spacings)
        assert len(got) == len(spacings)
        for d_iud, cell in zip(spacings, got):
            want = reference_evaluate_snapshot(small_scenario, plans, ssb, dl, 1, 4, d_iud=d_iud)
            assert list(cell) == list(want)
            for name in plans:
                _assert_same_arrays(cell[name], want[name], SNAPSHOT_FIELDS, name)
                _assert_same_arrays(cell[name].data, want[name].data, REPORT_FIELDS, name)

    def test_identical_plans(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        self.assert_matches_full_evaluation(small_scenario, {"a": base, "b": base.copy()}, ssb, dl)

    @pytest.mark.parametrize("n_changed", [1, 6])
    def test_plans_differing_in_some_sectors(self, small_cfg, small_scenario, n_changed):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        other = self.with_new_codewords(base, range(3, 3 + n_changed), len(ssb))
        self.assert_matches_full_evaluation(small_scenario, {"base": base, "other": other}, ssb, dl)

    def test_ground_user_changes_serving_sector(self, small_cfg, small_scenario):
        """A 6 dB louder sector takes ground users from its neighbours."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        louder = base.copy()
        louder.power_dbm[12] += 6.0
        want = self.assert_matches_full_evaluation(small_scenario, {"base": base, "louder": louder}, ssb, dl)
        g = len(small_scenario.ground_users(1))
        moved = want["base"].serving_sector[:g] != want["louder"].serving_sector[:g]
        assert 0 < np.count_nonzero(moved) < g

    def test_sector_loses_its_last_ground_user(self, small_cfg, small_scenario):
        """A sector with every beam dark serves no one, so its ground users
        move away and its inter-cell terms and codeword counts go to 0."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        g = len(small_scenario.ground_users(1))
        b = int(evaluate_snapshot(small_scenario, {"b": base}, ssb, dl, 1, 4, [UAV_SPACING])[0]["b"].serving_sector[0])
        dark = base.copy()
        dark.power_dbm[b] = DARK_DBM
        want = self.assert_matches_full_evaluation(small_scenario, {"base": base, "dark": dark}, ssb, dl)
        assert np.any(want["base"].serving_sector[:g] == b)
        assert not np.any(want["dark"].serving_sector[:g] == b)

    def test_three_plans_in_a_row(self, cfg):
        """Three plans in one call, on the default layout and a DL book
        oversampled 4 x 4."""
        scenario = scenario_from_config(cfg)
        ssb, _, base = _books_and_plan(scenario, cfg)
        six = self.with_new_codewords(base, range(20, 26), len(ssb), seed=3)
        louder = base.copy()
        louder.power_dbm[[9, 21]] += 6.0
        louder.power_dbm[30] = DARK_DBM
        dl = build_dl_codebook(scenario.sectors[0].panel, 4, 4)
        self.assert_matches_full_evaluation(scenario, {"base": base, "six": six, "louder": louder}, ssb, dl)


def test_data_phase_joins_blocks_by_rows(small_cfg, small_scenario):
    """data_phase on a ground block and a UAV block equals data_phase on one
    set holding the same rows."""
    ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
    ground = ground_channels(small_scenario, 0)
    uavs = build_channels(small_scenario, entity_block(place_uavs(small_scenario.highway, UAV_SPACING, 0.0)), 0, "uav")
    joined = ChannelSet(
        **{name: np.concatenate([getattr(ground, name), getattr(uavs, name)]) for name in CHANNEL_ARRAYS}
    )
    serving = np.concatenate(
        [associate(rsrp_table(blk, base, ssb), 1e-12).serving_sector for blk in (ground, uavs)]
    )
    got = data_phase((ground, uavs), serving, dl, RADIO)
    want = data_phase([joined], serving, dl, RADIO)
    for field in ("precoder", "n_codeword_sharers", "sinr_db", "rate_bps"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


REPORT_FIELDS = ("precoder", "n_codeword_sharers", "sinr_db", "rate_bps")


class TestTwoStepDataPhase:
    """The ground step once, then the UAV step per UAV block, against the
    joined one-pass data phase: every report array equal in bytes."""

    @staticmethod
    def assert_matches_joined(ground, ground_serving, uavs, uav_serving, dl):
        want = joined_data_phase((ground, uavs), np.concatenate([ground_serving, uav_serving]), dl, RADIO)
        steps = data_phase_uavs(data_phase_ground(ground, ground_serving, dl, RADIO), uavs, uav_serving)
        joined = data_phase((ground, uavs), np.concatenate([ground_serving, uav_serving]), dl, RADIO)
        for got in (steps, joined):
            for field in REPORT_FIELDS:
                a, b = getattr(got, field), getattr(want, field)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field
                assert a.tobytes() == b.tobytes(), field
        return want

    @staticmethod
    def snapshot(scenario, cfg, snapshot=0):
        """The DL book, then (block, serving sectors) for the ground block and
        for the sweep's UAV blocks of 1 to 12 rows."""
        ssb, dl, base = _books_and_plan(scenario, cfg)
        length = scenario.highway.total_length_m
        blocks = [snapshot_uavs(scenario, snapshot, 2, length / n) for n in range(1, 13)]
        built = [ground_channels(scenario, snapshot)]
        built += [build_channels(scenario, entity_block(b), snapshot, "uav") for b in blocks]
        noise_mw = scenario.radio.ssb_noise_mw
        served = [(blk, associate(rsrp_table(blk, base, ssb), noise_mw).serving_sector) for blk in built]
        return dl, served[0], served[1:]

    @pytest.mark.parametrize("layout", ["small", "default"])
    def test_every_uav_count(self, layout, small_cfg, cfg):
        """UAV blocks of 1 row and of 2 to 12 rows, on their own association."""
        layout_cfg = small_cfg if layout == "small" else cfg
        dl, (ground, ground_serving), uav_blocks = self.snapshot(scenario_from_config(layout_cfg), layout_cfg, 1)
        assert uav_blocks[0][0].h.shape[0] == 1
        for uavs, uav_serving in uav_blocks:
            self.assert_matches_joined(ground, ground_serving, uavs, uav_serving, dl)

    def test_no_uavs(self, small_cfg, small_scenario):
        dl, (ground, ground_serving), _ = self.snapshot(small_scenario, small_cfg)
        want = joined_data_phase([ground], ground_serving, dl, RADIO)
        got = data_phase([ground], ground_serving, dl, RADIO)
        for field in REPORT_FIELDS:
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.parametrize("n_uavs", [1, 5])
    def test_sector_served_only_by_uavs(self, small_cfg, small_scenario, n_uavs):
        dl, (ground, ground_serving), uav_blocks = self.snapshot(small_scenario, small_cfg)
        uavs, uav_serving = uav_blocks[n_uavs - 1]
        # move the ground users of the first UAV's sector to the next sector
        b = int(uav_serving[0])
        ground_serving = np.where(ground_serving == b, (b + 1) % small_scenario.n_sectors, ground_serving)
        self.assert_matches_joined(ground, ground_serving, uavs, uav_serving, dl)
        assert not np.any(ground_serving == b)

    @pytest.mark.parametrize("n_uavs", [1, 4])
    def test_uav_shares_a_codeword_with_ground_users(self, small_cfg, small_scenario, n_uavs):
        """UAV 0 gets ground user 0's channel row toward that user's serving
        sector and is served there, so it takes the same codeword."""
        dl, (ground, ground_serving), uav_blocks = self.snapshot(small_scenario, small_cfg)
        uavs, uav_serving = uav_blocks[n_uavs - 1]
        b = int(ground_serving[0])
        h, beta, uav_serving = uavs.h.copy(), uavs.beta.copy(), uav_serving.copy()
        h[0, b], beta[0, b], uav_serving[0] = ground.h[0, b], ground.beta[0, b], b
        uavs = dataclasses.replace(uavs, h=h, beta=beta)
        want = self.assert_matches_joined(ground, ground_serving, uavs, uav_serving, dl)
        g = ground.h.shape[0]
        assert want.precoder[g] == want.precoder[0]
        assert want.n_codeword_sharers[g] == want.n_codeword_sharers[0] >= 2

    def test_block_count_checked(self, small_cfg, small_scenario):
        dl, (ground, _), uav_blocks = self.snapshot(small_scenario, small_cfg)
        blocks = (ground, uav_blocks[0][0], uav_blocks[1][0])
        with pytest.raises(ValueError, match="at most one UAV block"):
            data_phase(blocks, np.zeros(ground.h.shape[0] + 3, dtype=int), dl, RADIO)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_picked=st.integers(5, 8),
        n_shared=st.integers(0, 3),
        n_other=st.integers(1, 6),
        n_uavs=st.integers(2, 6),
    )
    def test_random_instances(self, seed, n_picked, n_shared, n_other, n_uavs):
        """Hand-built blocks on B = 5 sectors and a random unit-norm DL book
        of 8 codewords. Sector 0 serves ground rows that pick `n_picked`
        chosen codewords, `n_shared` of them twice: more in-use codewords
        than the default scenario's 4 gUEs per cell reach. Sector 1 serves
        UAVs only, sector 4 no one. Each ground block meets UAV blocks of
        0, 1 and `n_uavs` rows."""
        gen = np.random.default_rng(seed)
        n_sectors, m, n_codewords = 5, 4, 8

        def complex_normal(*shape):
            return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

        weights = complex_normal(n_codewords, m)
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        dl = make_codebook(weights)
        picked = gen.permutation(n_codewords)[:n_picked]
        picked = np.concatenate([picked, picked[:n_shared]])
        g = picked.size + n_other
        h, beta = complex_normal(g, n_sectors, m), gen.uniform(0.1, 2.0, (g, n_sectors))
        h[:picked.size, 0] = np.conj(weights[picked])  # |h^T w|^2 peaks at the picked codeword
        ground_serving = np.concatenate([np.zeros(picked.size, dtype=int), gen.choice([0, 2, 3], n_other)])
        ground = make_channels(h, beta)
        for u in (0, 1, n_uavs):
            uavs = make_channels(complex_normal(u, n_sectors, m), gen.uniform(0.1, 2.0, (u, n_sectors)))
            uav_serving = gen.choice([0, 1, 2, 3], u)
            uav_serving[:1] = 1
            want = self.assert_matches_joined(ground, ground_serving, uavs, uav_serving, dl)
            assert np.unique(want.precoder[:picked.size]).size == n_picked


def test_ground_step_memory(cfg):
    """The ground step on the default scenario's snapshot-0 ground block
    peaks below 1 MB of traced allocations: each sector's product runs on
    its own channel rows, with no gathered copy of a group's channels."""
    scenario = scenario_from_config(cfg)
    ssb, dl, base = _books_and_plan(scenario, cfg)
    ground = ground_channels(scenario, 0)
    serving = associate(rsrp_table(ground, base, ssb), scenario.radio.ssb_noise_mw).serving_sector
    tracemalloc.start()
    try:
        data_phase_ground(ground, serving, dl, scenario.radio)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestTrafficSweep:
    def test_rows_and_spacing_invariant(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        res = traffic_sweep(small_scenario, {"baseline": base}, ssb, dl, n_max=4, n_snapshots=2)
        assert list(res.n_uavs) == [1, 2, 3, 4]
        length = small_scenario.highway.total_length_m
        assert np.allclose(res.d_iud_m * res.n_uavs, length, atol=1e-6)

    def test_matches_reference_sweep(self, small_cfg, small_scenario):
        """Snapshots outside, N inside, each snapshot's ground block reused:
        the same bytes as rebuilding both blocks for every (N, snapshot)."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        louder = base.copy()
        louder.power_dbm[0] += 3.0
        plans = {"baseline": base, "louder": louder}
        got = traffic_sweep(small_scenario, plans, ssb, dl, n_max=4, n_snapshots=2)
        want = reference_sweep(small_scenario, plans, ssb, dl, n_max=4, n_snapshots=2)
        assert got.n_uavs.tobytes() == want.n_uavs.tobytes()
        assert got.d_iud_m.tobytes() == want.d_iud_m.tobytes()
        for name in plans:
            assert got.p5_rate[name].tobytes() == want.p5_rate[name].tobytes(), name
            assert got.p5_gue_rate[name].tobytes() == want.p5_gue_rate[name].tobytes(), name

    def test_first_ground_block_is_used_for_snapshot_0(self, small_cfg, small_scenario, monkeypatch):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        plans = {"baseline": base}
        want = traffic_sweep(small_scenario, plans, ssb, dl, n_max=2, n_snapshots=2)
        first = ground_channels(small_scenario, 0)
        built = []
        original = evaluation.build_channels
        monkeypatch.setattr(
            evaluation, "build_channels",
            lambda scenario, entities, snapshot, tag: built.append((tag, snapshot)) or original(
                scenario, entities, snapshot, tag),
        )
        got = traffic_sweep(small_scenario, plans, ssb, dl, n_max=2, n_snapshots=2, first_ground=first)
        # one UAV block per UAV count; snapshot 1's ground block built once
        assert built == [("uav", 0), ("uav", 0), ("ue", 1), ("uav", 1), ("uav", 1)]
        assert got.p5_rate["baseline"].tobytes() == want.p5_rate["baseline"].tobytes()
        assert got.p5_gue_rate["baseline"].tobytes() == want.p5_gue_rate["baseline"].tobytes()

    def test_one_block_of_each_kind_alive_at_a_time(self, small_cfg, small_scenario, monkeypatch):
        """When a ground block is built, no earlier ground block is alive,
        the one passed as `first_ground` included; the same holds for UAV
        blocks."""
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        louder = base.copy()
        louder.power_dbm[0] += 3.0
        blocks = {"ue": [], "uav": []}  # weak references to every block built, per stream tag
        alive_at_build = []
        original = evaluation.build_channels

        def recording(scenario, entities, snapshot, tag):
            alive = sum(ref() is not None for ref in blocks[tag])
            alive_at_build.append((tag, snapshot, alive))
            channels = original(scenario, entities, snapshot, tag)
            blocks[tag].append(weakref.ref(channels))
            return channels

        monkeypatch.setattr(evaluation, "build_channels", recording)
        traffic_sweep(
            small_scenario, {"baseline": base, "louder": louder}, ssb, dl, n_max=2, n_snapshots=3,
            first_ground=ground_channels(small_scenario, 0),
        )
        assert alive_at_build == [
            ("ue", 0, 0), ("uav", 0, 0), ("uav", 0, 0),
            ("ue", 1, 0), ("uav", 1, 0), ("uav", 1, 0),
            ("ue", 2, 0), ("uav", 2, 0), ("uav", 2, 0),
        ]

    def test_zero_snapshots_raises(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
        with pytest.raises(ValueError, match="n_snapshots"):
            traffic_sweep(small_scenario, {"baseline": base}, ssb, dl, n_max=2, n_snapshots=0)

    def test_single_row(self, small_cfg, small_scenario):
        ssb, dl, base = _books_and_plan(small_scenario, small_cfg)
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
        assert max_supported(res, "p", 5e6) == 4
        assert max_supported(res, "p", 10e6) == 0

    def test_spacing_at_four_uavs(self):
        # N = 4 on a 1250 m corridor pairs with d_IUD = 312.5 m
        assert 1250.0 / 4 == pytest.approx(312.5)
