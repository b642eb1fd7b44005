import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_pair_segment_metric
from skybeam.channel import expected_channels
from skybeam.cli import METRIC_CSV, _metric_rows, _RunDir
from skybeam.config import RadioConfig, default_config, validate_config
from skybeam.scenario import scenario_from_config
from skybeam.segment_metric import (
    assign_segments,
    avg_channel_gain,
    cross_corr_frobenius,
    inv_condition_number,
    segment_cell_metric,
)

RADIO = RadioConfig()
NOISE = RADIO.noise_mw(RADIO.prb_bandwidth_hz)  # the N that `corridor_problem` gives the metric


def cmat(gen, rows, cols, scale=1.0):
    return scale * (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols)))


class TestAvgChannelGain:
    def test_all_ones(self):
        assert avg_channel_gain(np.ones((2, 2))) == 1.0

    def test_zero_matrix(self):
        assert avg_channel_gain(np.zeros((3, 2))) == 0.0

    def test_matches_double_loop_oracle(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            rows, cols = gen.integers(1, 6), gen.integers(1, 8)
            h = cmat(gen, rows, cols)
            total = 0.0
            for i in range(rows):
                for j in range(cols):
                    total += abs(h[i, j]) ** 2
            oracle = total / rows / cols
            assert avg_channel_gain(h) == pytest.approx(oracle, rel=1e-9)


class TestInvConditionNumber:
    def test_identity(self):
        assert inv_condition_number(np.eye(2)) == pytest.approx(1.0)

    def test_identical_rows_rank_one(self):
        gen = np.random.default_rng(1)
        row = cmat(gen, 1, 6)
        h = np.vstack([row, row])
        assert inv_condition_number(h) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix_defined_as_zero(self):
        assert inv_condition_number(np.zeros((3, 4))) == 0.0

    def test_matches_eigenvalue_oracle(self):
        # oracle: singular values via the Gram matrix eigenvalues, an
        # independent path from the SVD used by the implementation
        gen = np.random.default_rng(2)
        for _ in range(100):
            rows, cols = gen.integers(1, 7), gen.integers(1, 9)
            h = cmat(gen, rows, cols)
            gram = h @ np.conj(h).T if rows <= cols else np.conj(h).T @ h
            eig = np.sort(np.linalg.eigvalsh(gram))
            eig = np.clip(eig, 0.0, None)
            oracle = math.sqrt(eig[0] / eig[-1]) if eig[-1] > 0 else 0.0
            assert inv_condition_number(h) == pytest.approx(oracle, rel=1e-7, abs=1e-9)


class TestCrossCorr:
    def test_orthogonal_rows_zero(self):
        h_seg = np.array([[1.0, 0.0, 0.0, 0.0]])
        h_comp = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        assert cross_corr_frobenius(h_seg, h_comp) == 0.0

    def test_empty_complement_zero(self):
        h_seg = np.ones((2, 4))
        assert cross_corr_frobenius(h_seg, np.empty((0, 4))) == 0.0

    def test_identical_unit_rows(self):
        h = np.array([[0.5, 0.5, 0.5, 0.5]])  # unit norm
        assert cross_corr_frobenius(h, h.copy()) == pytest.approx(1.0, rel=1e-12)

    def test_matches_triple_loop_oracle(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            cols = gen.integers(1, 6)
            n_seg, n_comp = gen.integers(1, 5), gen.integers(1, 5)
            h_seg = cmat(gen, n_seg, cols)
            h_comp = cmat(gen, n_comp, cols)
            oracle = 0.0
            for i in range(n_comp):
                for z in range(n_seg):
                    inner = 0.0
                    for m in range(cols):
                        inner += h_comp[i, m] * np.conj(h_seg[z, m])
                    oracle += abs(inner) ** 2
            assert cross_corr_frobenius(h_seg, h_comp) == pytest.approx(oracle, rel=1e-9)


class TestMetric:
    def test_log2_of_two(self):
        # c = 1 (single row), P equals the noise, no complement
        h = np.array([[math.sqrt(4 * NOISE), 0.0, 0.0, 0.0]])  # mean |h|^2 = NOISE
        assert segment_cell_metric(h, np.empty((0, 4)), NOISE)[3] == pytest.approx(1.0, rel=1e-9)

    def test_rank_deficient_is_zero(self):
        row = np.ones((1, 4))
        h = np.vstack([row, row])
        p, c, f, chi = segment_cell_metric(h, row, NOISE)
        assert chi == pytest.approx(0.0, abs=1e-7)
        # the breakdown keeps P and F even where chi is 0
        assert p == 1.0 and f == pytest.approx(32.0)
        assert (p, c, f) == (avg_channel_gain(h), inv_condition_number(h), cross_corr_frobenius(h, row))

    def test_composition_of_components(self):
        gen = np.random.default_rng(4)
        for _ in range(100):
            cols = gen.integers(2, 6)
            h_seg = cmat(gen, gen.integers(1, 5), cols, scale=math.sqrt(NOISE))
            h_comp = cmat(gen, gen.integers(0, 4), cols, scale=math.sqrt(NOISE))
            c = inv_condition_number(h_seg)
            p = avg_channel_gain(h_seg)
            f = cross_corr_frobenius(h_seg, h_comp)
            oracle = c * math.log2(1 + p / (f + NOISE))
            assert segment_cell_metric(h_seg, h_comp, NOISE) == pytest.approx((p, c, f, oracle), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_inv_condition_in_unit_interval(seed):
    gen = np.random.default_rng(seed)
    h = cmat(gen, gen.integers(1, 6), gen.integers(1, 8))
    c = inv_condition_number(h)
    assert 0.0 <= c <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(0.01, 100.0))
def test_scaling_property(seed, alpha):
    gen = np.random.default_rng(seed)
    h = cmat(gen, 3, 5)
    assert avg_channel_gain(alpha * h) == pytest.approx(alpha**2 * avg_channel_gain(h), rel=1e-9)
    assert inv_condition_number(alpha * h) == pytest.approx(inv_condition_number(h), rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cross_corr_right_unitary_invariance(seed):
    gen = np.random.default_rng(seed)
    cols = 5
    h_seg = cmat(gen, 3, cols)
    h_comp = cmat(gen, 4, cols)
    q, _ = np.linalg.qr(cmat(gen, cols, cols))
    before = cross_corr_frobenius(h_seg, h_comp)
    after = cross_corr_frobenius(h_seg @ q, h_comp @ q)
    assert after == pytest.approx(before, rel=1e-8)


def test_metric_monotone_in_p_and_f():
    h = np.array([[1.0, 0.2], [0.3, 0.9]]) * math.sqrt(NOISE)
    comp = np.array([[0.5, 0.5]]) * math.sqrt(NOISE)
    base = segment_cell_metric(h, comp, NOISE)[3]
    assert segment_cell_metric(1.5 * h, 1.5 * comp, NOISE)[3] != base  # sanity: metric reacts
    c = inv_condition_number(h)
    p = avg_channel_gain(h)
    f = cross_corr_frobenius(h, comp)
    up_p = c * math.log2(1 + (2 * p) / (f + NOISE))
    up_f = c * math.log2(1 + p / (2 * f + NOISE))
    assert up_p > base
    assert up_f < base


class TestStackedMatchesTwoD:
    """A stack (B, rows, M) gives, per matrix, the 2-D call's bytes."""

    @pytest.mark.parametrize("n_seg,n_comp", [(3, 4), (1, 4), (3, 0), (1, 0)])
    def test_every_function(self, n_seg, n_comp):
        gen = np.random.default_rng(9)
        seg = np.stack([cmat(gen, n_seg, 5, scale=math.sqrt(NOISE)) for _ in range(5)])
        comp = np.stack([cmat(gen, n_comp, 5, scale=math.sqrt(NOISE)) for _ in range(5)])
        seg[2] = 0.0  # a zero matrix inside the stack
        stacked = {
            "avg": avg_channel_gain(seg),
            "inv_cond": inv_condition_number(seg),
            "cross": cross_corr_frobenius(seg, comp),
            "metric": np.array(segment_cell_metric(seg, comp, NOISE)),
        }
        for b in range(5):
            one = {
                "avg": avg_channel_gain(seg[b]),
                "inv_cond": inv_condition_number(seg[b]),
                "cross": cross_corr_frobenius(seg[b], comp[b]),
                "metric": np.array(segment_cell_metric(seg[b], comp[b], NOISE)),
            }
            for name, value in one.items():
                got = stacked[name][..., b]
                assert np.asarray(value).tobytes() == np.asarray(got).tobytes(), name
        assert stacked["inv_cond"][2] == 0.0 and stacked["metric"][3, 2] == 0.0


def _expected(scenario):
    return expected_channels(
        scenario.sectors, scenario.highway.points, scenario.radio, scenario.channel_params
    )


def _serving(out, segments):
    """Each segment's serving cell: the required cell of its first point."""
    return tuple(out.required_cell[[a for a, _ in segments]].tolist())


class TestAssignSegments:
    def make_h(self, gen, n_sectors, n_points, cols):
        return np.stack([cmat(gen, n_points, cols, scale=math.sqrt(NOISE)) for _ in range(n_sectors)])

    def test_single_sector_wins_everything(self):
        gen = np.random.default_rng(5)
        out = assign_segments(self.make_h(gen, 1, 6, 4), ((0, 3), (3, 6)), NOISE)
        assert _serving(out, ((0, 3), (3, 6))) == (0, 0)
        assert out.designated_cells == (0,)

    def test_matches_exhaustive_scan(self):
        gen = np.random.default_rng(6)
        h = self.make_h(gen, 5, 8, 4)
        segments = ((0, 2), (2, 4), (4, 8))
        out = assign_segments(h, segments, NOISE)
        for z, (a, e) in enumerate(segments):
            chis = [segment_cell_metric(hb[a:e], np.vstack([hb[:a], hb[e:]]), NOISE)[3] for hb in h]
            assert _serving(out, segments)[z] == int(np.argmax(chis))

    def test_ties_go_to_the_lowest_sector(self):
        gen = np.random.default_rng(7)
        h = np.tile(self.make_h(gen, 1, 6, 3), (4, 1, 1))
        h[0] = 0.0  # chi 0; sectors 1-3 tie
        out = assign_segments(h, ((0, 3), (3, 6)), NOISE)
        assert _serving(out, ((0, 3), (3, 6))) == (1, 1)

    def test_on_real_scenario(self, small_scenario):
        highway = small_scenario.highway
        out = assign_segments(_expected(small_scenario), highway.segments, NOISE)
        assert out.designated_cells == tuple(sorted(set(_serving(out, highway.segments))))
        assert out.chi.shape == (len(highway.segments), len(small_scenario.sectors))
        assert out.required_cell.shape[0] == len(highway.points)

    def test_dump_csv(self, small_scenario, tmp_path):
        out = assign_segments(_expected(small_scenario), small_scenario.highway.segments, NOISE)
        path = tmp_path / "metric.csv"
        _RunDir(str(tmp_path), 0.0).write_csv(path.name, METRIC_CSV, _metric_rows(out))
        lines = path.read_text().splitlines()
        assert lines[0] == "segment_id,sector_id,p_gain_db,inv_cond,cross_corr_db,chi"
        assert len(lines) == 1 + out.chi.size
        assert lines[2].startswith("0,1,") and lines[-1].startswith(f"{out.chi.shape[0] - 1},{out.chi.shape[1] - 1},")


def _one_segment_scenario():
    raw = default_config()
    raw["highway"]["points_per_segment"] = 20
    return scenario_from_config(validate_config(raw))


@pytest.mark.parametrize("which", ["default", "small", "one segment"])
def test_assign_segments_matches_per_pair_oracle(which, cfg, small_scenario):
    """The (Z, B) tables, the serving cells and the required cells equal the
    per-pair loop's bytes."""
    scenario = {
        "default": lambda: scenario_from_config(cfg),
        "small": lambda: small_scenario,
        "one segment": _one_segment_scenario,
    }[which]()
    segments = scenario.highway.segments
    assert (len(segments) == 1) == (which == "one segment")
    h = _expected(scenario)
    noise = scenario.radio.noise_mw(scenario.radio.prb_bandwidth_hz)
    out = assign_segments(h, segments, noise)
    p, c, f, chi, serving, required = per_pair_segment_metric(h, segments, noise)
    for got, want in ((out.p_gain, p), (out.inv_cond, c), (out.cross_corr, f), (out.chi, chi)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _serving(out, segments) == serving
    assert out.required_cell.tobytes() == required.tobytes()
