import math

import numpy as np
import pytest

from conftest import DARK_DBM, beam_plan
from oracles import per_sector_rsrp_table, ssb_rsrp, validate_plan
from skybeam.association import (
    baseline_plan,
    coverage_sinr_all,
    rsrp_table,
    select_serving_all,
    unique_ints,
)
from skybeam.channel import ChannelSet, build_channels, entity_block
from skybeam.cli import ASSOCIATION_CSV, _association_rows, _RunDir
from skybeam.codebook import Codebook, build_ssb_codebook
from skybeam.config import RadioConfig
from skybeam.evaluation import SnapshotResult
from test_channel import config_uavs

RADIO = RadioConfig()


def make_channels(h, beta):
    """ChannelSet stub from explicit arrays (N x B x M complex, N x B)."""
    return ChannelSet(beta=np.asarray(beta, dtype=float), h=np.asarray(h, dtype=complex))


def make_codebook(weights):
    weights = np.asarray(weights, dtype=complex)
    n = weights.shape[0]
    return Codebook(
        weights=weights,
        active_columns=np.full(n, 1),
        beam_index_h=np.zeros(n, dtype=int),
        beam_index_v=np.arange(n),
        directions=np.zeros((n, 2)),
    )


class TestSsbRsrp:
    def test_unit_plugin_gives_1mw(self):
        channels = make_channels(np.ones((1, 1, 1)), np.ones((1, 1)))
        plan = beam_plan(1, power_dbm=0.0)  # 1 mW
        book = make_codebook([[1.0]])
        assert rsrp_table(channels, plan, book)[0, 0, 0] == pytest.approx(1.0)

    def test_matched_beam_beta_m_p(self):
        m = 8
        gen = np.random.default_rng(0)
        h = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        w = np.conj(h) / math.sqrt(m)
        channels = make_channels(h.reshape(1, 1, m), np.full((1, 1), 0.5))
        book = make_codebook(w.reshape(1, m))
        plan = beam_plan(1, power_dbm=10.0)  # 10 mW
        got = rsrp_table(channels, plan, book)[0, 0, 0]
        assert got == pytest.approx(0.5 * m * 10.0, rel=1e-12)


class TestSelectServing:
    def test_single_active_beam(self):
        channels = make_channels(np.ones((1, 2, 1)), np.ones((1, 2)))
        book = make_codebook([[1.0]])
        plan = beam_plan(2, power_dbm=DARK_DBM)
        plan.power_dbm[1, 5] = 0.0
        serving_b, serving_s = select_serving_all(rsrp_table(channels, plan, book))
        assert (serving_b[0], serving_s[0]) == (1, 5)

    def test_tie_break_lowest_sector(self):
        channels = make_channels(np.ones((1, 3, 1)), np.ones((1, 3)))
        book = make_codebook([[1.0]])
        plan = beam_plan(3)
        serving_b, serving_s = select_serving_all(rsrp_table(channels, plan, book))
        assert (serving_b[0], serving_s[0]) == (0, 0)

    def test_matches_bruteforce_on_random_instances(self):
        gen = np.random.default_rng(1)
        for _ in range(100):
            n, b, s, m = 3, gen.integers(2, 5), gen.integers(1, 8), 4
            h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
            beta = gen.uniform(0.1, 2.0, (n, b))
            weights = gen.standard_normal((6, m)) + 1j * gen.standard_normal((6, m))
            weights /= np.linalg.norm(weights, axis=1, keepdims=True)
            book = make_codebook(weights)
            plan = beam_plan(b, s, power_dbm=gen.uniform(-3, 20, (b, s)), codeword=gen.integers(0, 6, (b, s)))
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
        plan = beam_plan(1, power_dbm=0.0)
        table = rsrp_table(channels, plan, book)
        got = coverage_sinr_all(table, np.array([0]), np.array([0]), RADIO.ssb_noise_mw)[0]
        # RSRP over the receiver noise across the SSB's 240 x 30 kHz
        expected = 10 * math.log10(1.0 / RADIO.noise_mw(7.2e6))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_equal_interferer_gives_zero_db(self):
        channels = make_channels(np.ones((2, 2, 1)), np.ones((2, 2)))
        book = make_codebook([[1.0]])
        plan = beam_plan(2, power_dbm=80.0)  # swamp the noise term
        table = rsrp_table(channels, plan, book)
        got = coverage_sinr_all(table, np.array([0, 0]), np.array([0, 0]), RADIO.ssb_noise_mw)[0]
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_three_cell_hand_oracle(self):
        gen = np.random.default_rng(2)
        n, b, s, m = 4, 3, 8, 4
        h = gen.standard_normal((n, b, m)) + 1j * gen.standard_normal((n, b, m))
        beta = gen.uniform(0.5, 1.5, (n, b))
        weights = gen.standard_normal((5, m)) + 1j * gen.standard_normal((5, m))
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        book = make_codebook(weights)
        plan = beam_plan(b, s, power_dbm=gen.uniform(0, 10, (b, s)), codeword=gen.integers(0, 5, (b, s)))
        channels = make_channels(h, beta)
        table = rsrp_table(channels, plan, book)
        sb, ss = select_serving_all(table)
        got = coverage_sinr_all(table, sb, ss, RADIO.ssb_noise_mw)
        for u in range(n):
            num = ssb_rsrp(u, ss[u], sb[u], plan, channels, book)
            interf = 0.0
            for bb in range(b):
                if bb == sb[u]:
                    continue
                interf += ssb_rsrp(u, ss[u], bb, plan, channels, book)  # the serving beam's slot
            expected = 10 * math.log10(num / (interf + RADIO.ssb_noise_mw))
            assert got[u] == pytest.approx(expected, rel=1e-9)

    def test_interference_never_includes_serving_cell(self):
        # the serving beam's slot holds it and cell 1's beam: the serving beam
        # does not interfere with itself
        channels = make_channels(np.ones((1, 2, 1)), np.ones((1, 2)))
        book = make_codebook([[1.0]])
        plan = beam_plan(2, power_dbm=60.0)
        table = rsrp_table(channels, plan, book)
        got = coverage_sinr_all(table, np.array([0]), np.array([0]), RADIO.ssb_noise_mw)
        # single interferer: cell 1 slot 0
        expected = 10 * math.log10(table[0, 0, 0] / (table[0, 1, 0] + RADIO.ssb_noise_mw))
        assert got[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_serving_rsrp_is_minus_inf_without_warning(self):
        channels = make_channels(np.array([[[1.0]], [[0.0]]]), np.ones((2, 1)))
        plan = beam_plan(1)
        table = rsrp_table(channels, plan, make_codebook([[1.0]]))
        sb, ss = select_serving_all(table)
        got = coverage_sinr_all(table, sb, ss, RADIO.ssb_noise_mw)
        assert math.isfinite(got[0])
        assert got[1] == -math.inf

    def test_sinr_bounded_by_snr(self):
        gen = np.random.default_rng(3)
        h = gen.standard_normal((3, 4, 2)) + 1j * gen.standard_normal((3, 4, 2))
        channels = make_channels(h, gen.uniform(0.1, 1.0, (3, 4)))
        book = make_codebook(np.eye(2))
        plan = beam_plan(4, power_dbm=20.0, codeword=1)
        table = rsrp_table(channels, plan, book)
        sb, ss = select_serving_all(table)
        sinr = coverage_sinr_all(table, sb, ss, RADIO.ssb_noise_mw)
        rows = np.arange(3)
        snr = 10 * np.log10(table[rows, sb, ss] / RADIO.ssb_noise_mw)
        assert np.all(sinr <= snr + 1e-9)

    def test_power_rescale_keeps_argmax(self):
        gen = np.random.default_rng(4)
        h = gen.standard_normal((5, 3, 2)) + 1j * gen.standard_normal((5, 3, 2))
        channels = make_channels(h, gen.uniform(0.1, 1.0, (5, 3)))
        book = make_codebook(np.eye(2))
        plan = beam_plan(3, power_dbm=10.0)
        scaled = plan.copy()
        scaled.power_dbm += 17.0
        t1 = rsrp_table(channels, plan, book)
        t2 = rsrp_table(channels, scaled, book)
        b1, s1 = select_serving_all(t1)
        b2, s2 = select_serving_all(t2)
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)


class TestBaselinePlan:
    def test_active_beam_count_and_sweep(self, small_scenario):
        """Eight beams per sector, one per SSB slot, the slots in azimuth order."""
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book)
        assert plan.codeword.shape == plan.power_dbm.shape == (small_scenario.n_sectors, 8)
        assert np.all(np.diff(book.directions[plan.codeword, 0], axis=1) > 0)

    def test_full_default_sector_count(self, cfg):
        from skybeam.scenario import scenario_from_config

        sc = scenario_from_config(cfg)
        book = build_ssb_codebook(sc.sectors[0].panel, 4, 1)
        plan = baseline_plan(sc, book)
        assert plan.codeword.shape == plan.power_dbm.shape == (57, 8)  # 57 sectors x 8 beams

    def test_codewords_nearest_target_tilt(self, small_scenario):
        # oracle: scan the full-panel sub-book for the vertical index whose
        # boresight cosine is closest to cos(105 deg)
        book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
        plan = baseline_plan(small_scenario, book)
        target = math.cos(math.radians(105.0))
        panel = small_scenario.sectors[0].panel
        full = np.flatnonzero(book.active_columns == panel.m_h)
        best = min(
            {book.beam_index_v[i] for i in full},
            key=lambda iv: abs(
                book.directions[full[book.beam_index_v[full] == iv][0], 1] - target
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
        validate_plan(plan, len(book))


@pytest.mark.parametrize("block", ["ue", "uav", "one-uav"])
def test_rsrp_table_matches_per_sector_products(small_scenario, block):
    """The table equals the per-sector formula byte for byte, on the
    baseline plan and on random plans."""
    book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
    base = baseline_plan(small_scenario, book)
    if block == "ue":
        channels = build_channels(small_scenario, entity_block(small_scenario.ground_users(0)), 0, "ue")
    else:
        uavs = config_uavs(small_scenario)[: 1 if block == "one-uav" else None]
        channels = build_channels(small_scenario, entity_block(uavs), 0, "uav")
    gen = np.random.default_rng(5)
    plans = [base]
    for _ in range(30):
        shape = base.codeword.shape
        plans.append(beam_plan(*shape, codeword=gen.integers(0, len(book), shape), power_dbm=gen.uniform(0.0, 40.0, shape)))
    for plan in plans:
        got = rsrp_table(channels, plan, book)
        assert got.tobytes() == per_sector_rsrp_table(channels, plan, book).tobytes()


def test_dump_association_csv(small_scenario, tmp_path):
    book = build_ssb_codebook(small_scenario.sectors[0].panel, 4, 1)
    plan = baseline_plan(small_scenario, book)
    channels = build_channels(small_scenario, entity_block(config_uavs(small_scenario)), 0, "uav")
    table = rsrp_table(channels, plan, book)
    sb, ss = select_serving_all(table)
    sinr = coverage_sinr_all(table, sb, ss, small_scenario.radio.ssb_noise_mw)
    rsrp = table[np.arange(channels.h.shape[0]), sb, ss]
    res = SnapshotResult(kinds=np.full(len(sb), "aerial"), serving_sector=sb, serving_slot=ss, serving_rsrp_mw=rsrp,
                         coverage_sinr_db=sinr, data=None)  # the association rows read no data phase
    _RunDir(str(tmp_path), 0.0).write_csv("assoc.csv", ASSOCIATION_CSV, _association_rows(res))
    lines = (tmp_path / "assoc.csv").read_text().splitlines()
    assert lines[0] == "ue_id,kind,serving_sector,serving_slot,rsrp_dbm,sinr_db"
    assert len(lines) == 1 + channels.h.shape[0]


@pytest.mark.parametrize("values", [
    np.array([], dtype=int),
    np.array([3]),
    np.array([5, 0, 5, 2, 2, 9, 0]),
    np.tile(np.arange(8), (57, 1)),
    np.random.default_rng(2).integers(0, 40, (13, 7)),
])
def test_unique_ints_matches_np_unique(values):
    distinct, inverse = unique_ints(values)
    want, want_inverse = np.unique(values, return_inverse=True)
    assert distinct.tobytes() == want.astype(distinct.dtype).tobytes()
    assert distinct.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()


def test_dump_association_csv_rows_match_fstring_formatting(tmp_path):
    """One %-format per row writes what per-value f-strings wrote, zero
    RSRP (-inf dBm), infinite and NaN SINR included."""
    kinds = np.array(["ground", "ground", "aerial", "aerial"])
    sector, slot = np.array([0, 3, 56, 12]), np.array([7, 0, 2, 5])
    rsrp = np.array([1.234567890123e-9, 0.0, 5e-324, 3.0])
    sinr = np.array([-0.0, -np.inf, np.nan, 12.345678901234])
    res = SnapshotResult(kinds=kinds, serving_sector=sector, serving_slot=slot, serving_rsrp_mw=rsrp,
                         coverage_sinr_db=sinr, data=None)
    path = tmp_path / "assoc.csv"
    _RunDir(str(tmp_path), 0.0).write_csv(path.name, ASSOCIATION_CSV, _association_rows(res))
    want = ["ue_id,kind,serving_sector,serving_slot,rsrp_dbm,sinr_db"]
    for i, kind in enumerate(kinds):
        rsrp_dbm = 10.0 * math.log10(rsrp[i]) if rsrp[i] > 0 else -math.inf
        want.append(f"{i},{kind},{sector[i]},{slot[i]},{rsrp_dbm:.10g},{sinr[i]:.10g}")
    assert path.read_text() == "\n".join(want) + "\n"
