import math

import numpy as np
import pytest

from skybeam.association import (
    BeamPlan,
    NoActiveBeam,
    baseline_plan,
    coverage_sinr,
    coverage_sinr_all,
    dump_association_csv,
    rsrp_table,
    select_serving,
    select_serving_all,
    ssb_rsrp,
)
from skybeam.channel import ChannelSet, build_channels
from skybeam.codebook import Codebook, build_ssb_codebook
from skybeam.config import RadioConfig
from skybeam.scenario import UpaGeometry

RADIO = RadioConfig()


def make_channels(h, beta):
    """ChannelSet stub from explicit arrays (N x B x M complex, N x B)."""
    h = np.asarray(h, dtype=complex)
    beta = np.asarray(beta, dtype=float)
    n, b, _ = h.shape
    ones = np.ones((n, b))
    return ChannelSet(
        entity_ids=tuple(range(n)),
        kinds=("aerial",) * n,
        positions=np.zeros((n, 3)),
        rho=beta.copy(),
        tau=ones.copy(),
        g=ones.copy(),
        beta=beta,
        p_los=ones.copy(),
        is_los=ones.astype(bool),
        k_linear=ones.copy(),
        h=h,
    )


def make_codebook(weights):
    weights = np.asarray(weights, dtype=complex)
    n, m = weights.shape
    return Codebook(
        panel_m_h=1,
        panel_m_v=m,
        oversampling_h=1,
        oversampling_v=1,
        spacing_h_wl=0.5,
        spacing_v_wl=0.5,
        weights=weights,
        active_columns=np.full(n, 1),
        beam_index_h=np.zeros(n, dtype=int),
        beam_index_v=np.arange(n),
    )


def simple_plan(n_sectors, n_slots=8, power_dbm=0.0, codeword=0):
    return BeamPlan(
        x=np.ones((n_sectors, n_slots), dtype=np.int8),
        power_dbm=np.full((n_sectors, n_slots), power_dbm),
        codeword=np.full((n_sectors, n_slots), codeword, dtype=int),
        sweep=np.tile(np.arange(n_slots), (n_sectors, 1)),
    )


class TestSsbRsrp:
    def test_inactive_beam_zero(self):
        channels = make_channels(np.ones((1, 1, 1)), np.ones((1, 1)))
        plan = simple_plan(1)
        plan.x[0, 3] = 0
        book = make_codebook([[1.0]])
        assert ssb_rsrp(0, 3, 0, plan, channels, book) == 0.0

    def test_unit_plugin_gives_1mw(self):
        channels = make_channels(np.ones((1, 1, 1)), np.ones((1, 1)))
        plan = simple_plan(1, power_dbm=0.0)  # 1 mW
        book = make_codebook([[1.0]])
        assert ssb_rsrp(0, 0, 0, plan, channels, book) == pytest.approx(1.0)

    def test_matched_beam_beta_m_p(self):
        m = 8
        gen = np.random.default_rng(0)
        h = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        w = np.conj(h) / math.sqrt(m)
        channels = make_channels(h.reshape(1, 1, m), np.full((1, 1), 0.5))
        book = make_codebook(w.reshape(1, m))
        plan = simple_plan(1, power_dbm=10.0)  # 10 mW
        got = ssb_rsrp(0, 0, 0, plan, channels, book)
        assert got == pytest.approx(0.5 * m * 10.0, rel=1e-12)


class TestSelectServing:
    def test_single_active_beam(self):
        channels = make_channels(np.ones((1, 2, 1)), np.ones((1, 2)))
        book = make_codebook([[1.0]])
        plan = simple_plan(2)
        plan.x[:] = 0
        plan.x[1, 5] = 1
        assert select_serving(0, plan, channels, book) == (1, 5)

    def test_tie_break_lowest_sector(self):
        channels = make_channels(np.ones((1, 3, 1)), np.ones((1, 3)))
        book = make_codebook([[1.0]])
        plan = simple_plan(3)
        assert select_serving(0, plan, channels, book) == (0, 0)

    def test_no_active_beam_raises(self):
        channels = make_channels(np.ones((1, 2, 1)), np.ones((1, 2)))
        book = make_codebook([[1.0]])
        plan = simple_plan(2)
        plan.x[:] = 0
        with pytest.raises(NoActiveBeam):
            select_serving(0, plan, channels, book)

    def test_matches_bruteforce_on_random_instances(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            n, b, s, m = 3, gen.integers(2, 5), gen.integers(1, 8), 4
            h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
            beta = gen.uniform(0.1, 2.0, (n, b))
            weights = gen.standard_normal((6, m)) + 1j * gen.standard_normal((6, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            book = make_codebook(weights)
            plan = BeamPlan(
                x=(gen.random((b, s)) < 0.7).astype(np.int8),
                power_dbm=gen.uniform(-3, 20, (b, s)),
                codeword=gen.integers(0, 6, (b, s)),
                sweep=np.tile(np.arange(s), (b, 1)),
            )
            if not np.any(plan.x == 1):
                plan.x[0, 0] = 1
            channels = make_channels(h, beta)
            table = rsrp_table(channels, plan, book)
            got_b, got_s = select_serving_all(table)
            for u in range(n):
                # oracle: exhaustive scan with explicit lexicographic tie-break
                best = (-1.0, None, None)
                for bb in range(b):
                    for ss in range(s):
                        val = ssb_rsrp(u, ss, bb, plan, channels, book)
                        if val > best[0]:
                            best = (val, bb, ss)
                assert (got_b[u], got_s[u]) == (best[1], best[2])


class TestCoverageSinr:
    def test_no_interferer_is_rsrp_over_noise(self):
        channels = make_channels(np.ones((1, 1, 1)), np.ones((1, 1)))
        book = make_codebook([[1.0]])
        plan = simple_plan(1, power_dbm=0.0)
        got = coverage_sinr(0, (0, 0), plan, channels, book, RADIO)
        expected = 10 * math.log10(1.0 / RADIO.ssb_noise_mw)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_equal_interferer_gives_zero_db(self):
        channels = make_channels(np.ones((2, 2, 1)), np.ones((2, 2)))
        book = make_codebook([[1.0]])
        plan = simple_plan(2, power_dbm=80.0)  # swamp the noise term
        got = coverage_sinr(0, (0, 0), plan, channels, book, RADIO)
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_three_cell_hand_oracle(self):
        gen = np.random.default_rng(2)
        n, b, s, m = 4, 3, 8, 4
        h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
        beta = gen.uniform(0.5, 1.5, (n, b))
        weights = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        book = make_codebook(weights)
        plan = BeamPlan(
            x=np.ones((b, s), dtype=np.int8),
            power_dbm=gen.uniform(0, 10, (b, s)),
            codeword=gen.integers(0, 5, (b, s)),
            sweep=np.tile(np.arange(s), (b, 1)),
        )
        channels = make_channels(h, beta)
        table = rsrp_table(channels, plan, book)
        sb, ss = select_serving_all(table)
        got = coverage_sinr_all(table, sb, ss, plan, RADIO.ssb_noise_mw)
        for u in range(n):
            num = ssb_rsrp(u, ss[u], sb[u], plan, channels, book)
            interf = 0.0
            for bb in range(b):
                if bb == sb[u]:
                    continue
                for s2 in range(s):
                    if plan.sweep[bb, s2] == plan.sweep[sb[u], ss[u]]:
                        interf += ssb_rsrp(u, s2, bb, plan, channels, book)
            expected = 10 * math.log10(num / (interf + RADIO.ssb_noise_mw))
            assert got[u] == pytest.approx(expected, rel=1e-9)

    def test_interference_never_includes_serving_cell(self):
        # other slots of the serving cell share no sweep index with the serving
        # beam here, but even under a degenerate sweep map the serving cell is
        # excluded: give every beam of cell 0 the same sweep index
        channels = make_channels(np.ones((1, 2, 1)), np.ones((1, 2)))
        book = make_codebook([[1.0]])
        plan = simple_plan(2, power_dbm=60.0)
        plan.sweep[0, :] = 0
        plan.sweep[1, :] = np.arange(8)
        table = rsrp_table(channels, plan, book)
        got = coverage_sinr_all(table, np.array([0]), np.array([0]), plan, RADIO.ssb_noise_mw)
        # single interferer: cell 1 slot 0 (sweep 0); cell 0's other beams excluded
        expected = 10 * math.log10(table[0, 0, 0] / (table[0, 1, 0] + RADIO.ssb_noise_mw))
        assert got[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_serving_rsrp_is_minus_inf_without_warning(self):
        channels = make_channels(np.array([[[1.0]], [[0.0]]]), np.ones((2, 1)))
        plan = simple_plan(1)
        table = rsrp_table(channels, plan, make_codebook([[1.0]]))
        sb, ss = select_serving_all(table)
        got = coverage_sinr_all(table, sb, ss, plan, RADIO.ssb_noise_mw)
        assert math.isfinite(got[0])
        assert got[1] == -math.inf

    def test_sinr_bounded_by_snr(self):
        gen = np.random.default_rng(3)
        h = gen.standard_normal((3, 4, 2)) + 1j * gen.standard_normal((3, 4, 2))
        channels = make_channels(h, gen.uniform(0.1, 1.0, (3, 4)))
        book = make_codebook(np.eye(2))
        plan = simple_plan(4, power_dbm=20.0, codeword=1)
        table = rsrp_table(channels, plan, book)
        sb, ss = select_serving_all(table)
        sinr = coverage_sinr_all(table, sb, ss, plan, RADIO.ssb_noise_mw)
        rows = np.arange(3)
        snr = 10 * np.log10(table[rows, sb, ss] / RADIO.ssb_noise_mw)
        assert np.all(sinr <= snr + 1e-9)

    def test_power_rescale_keeps_argmax(self):
        gen = np.random.default_rng(4)
        h = gen.standard_normal((5, 3, 2)) + 1j * gen.standard_normal((5, 3, 2))
        channels = make_channels(h, gen.uniform(0.1, 1.0, (5, 3)))
        book = make_codebook(np.eye(2))
        plan = simple_plan(3, power_dbm=10.0)
        scaled = plan.copy()
        scaled.power_dbm += 17.0
        t1 = rsrp_table(channels, plan, book)
        t2 = rsrp_table(channels, scaled, book)
        b1, s1 = select_serving_all(t1)
        b2, s2 = select_serving_all(t2)
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)


class TestBaselinePlan:
    def test_active_beam_count_and_sweep(self, small_scenario):
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book)
        assert plan.x.sum() == small_scenario.n_sectors * 8
        for b in range(plan.n_sectors):
            assert sorted(plan.sweep[b].tolist()) == list(range(8))

    def test_full_default_sector_count(self, cfg):
        from skybeam.scenario import scenario_from_config

        sc = scenario_from_config(cfg)
        book = build_ssb_codebook(sc.sectors[0].panel, 4, 1)
        plan = baseline_plan(sc, book)
        assert plan.x.sum() == 456  # 57 sectors x 8 beams

    def test_codewords_nearest_target_tilt(self, small_scenario):
        # oracle: scan the full-panel sub-book for the vertical index whose
        # boresight cosine is closest to cos(105 deg)
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book, tilt_deg=105.0)
        target = math.cos(math.radians(105.0))
        panel = small_scenario.sectors[0].panel
        full = np.flatnonzero(book.active_columns == panel.m_h)
        best = min(
            {book.beam_index_v[i] for i in full},
            key=lambda iv: abs(
                book.direction_cosines(int(full[book.beam_index_v[full] == iv][0]))[1] - target
            ),
        )
        for cw in plan.codeword[0]:
            assert book.active_columns[cw] == panel.m_h
            assert book.beam_index_v[cw] == best

    def test_equal_power_split(self, small_scenario):
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book)
        expected = small_scenario.radio.sector_tx_power_dbm - 10 * math.log10(8)
        assert np.allclose(plan.power_dbm, expected)

    def test_validate_passes(self, small_scenario):
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book)
        plan.validate(len(book))


def test_dump_association_csv(small_scenario, tmp_path):
    book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
    plan = baseline_plan(small_scenario, book)
    users = small_scenario.uavs()
    channels = build_channels(small_scenario, users, snapshot=0)
    table = rsrp_table(channels, plan, book)
    sb, ss = select_serving_all(table)
    sinr = coverage_sinr_all(table, sb, ss, plan, small_scenario.radio.ssb_noise_mw)
    path = tmp_path / "assoc.csv"
    dump_association_csv(channels, sb, ss, table, sinr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ue_id,kind,serving_sector,serving_slot,rsrp_dbm,sinr_db"
    assert len(lines) == 1 + channels.n_entities
