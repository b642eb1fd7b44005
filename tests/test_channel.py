import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import per_sector_channels, rician_channel, sector_geometry
from skybeam import channel
from skybeam.channel import (
    OutOfValidityRange,
    aerial_los_shadow_sigma_db,
    build_channels,
    element_gain,
    entity_block,
    expected_channels,
    link_geometry,
    los_components,
    los_probability,
    path_loss,
    shadow_factor,
    shadow_field,
    shadow_gain,
)
from skybeam.config import ChannelParams, RadioConfig, default_config, validate_config
from skybeam.evaluation import snapshot_uavs
from skybeam.scenario import (
    Sector,
    UpaGeometry,
    build_hex_layout,
    discretize_highway,
    place_uavs,
    scenario_from_config,
)

RADIO = RadioConfig()
H_BS = 25.0  # the default layout's base-station height
C = 299_792_458.0


def uma_los_pl_oracle(d2d, h_bs, h_ut, f_ghz):
    """Hand-written dual-slope urban-macro LoS loss, independent of the
    implementation (effective environment height 1 m)."""
    d3d = math.sqrt(d2d**2 + (h_bs - h_ut) ** 2)
    d_bp = 4 * (h_bs - 1) * (h_ut - 1) * f_ghz * 1e9 / C
    if d2d <= d_bp:
        return 28.0 + 22 * math.log10(d3d) + 20 * math.log10(f_ghz)
    return (
        28.0
        + 40 * math.log10(d3d)
        + 20 * math.log10(f_ghz)
        - 9 * math.log10(d_bp**2 + (h_bs - h_ut) ** 2)
    )


class TestPathLoss:
    def test_ground_los_matches_hand_formula(self):
        d2d, h_bs, h_ut = 100.0, 25.0, 1.5
        d3d = math.sqrt(d2d**2 + (h_bs - h_ut) ** 2)
        expected_db = uma_los_pl_oracle(d2d, h_bs, h_ut, 3.5)
        gain = path_loss(d2d, d3d, h_ut, True, RADIO, h_bs_m=h_bs)
        assert 10 * math.log10(1 / gain) == pytest.approx(expected_db, abs=1e-9)

    def test_far_slope_beyond_breakpoint(self):
        # d_bp = 4*24*0.5*f/c = 560.3 m at 3.5 GHz
        d2d = 1000.0
        d3d = math.sqrt(d2d**2 + 23.5**2)
        expected_db = uma_los_pl_oracle(d2d, 25.0, 1.5, 3.5)
        gain = path_loss(d2d, d3d, 1.5, True, RADIO, H_BS)
        assert 10 * math.log10(1 / gain) == pytest.approx(expected_db, abs=1e-9)

    def test_monotone_decrease_with_distance(self):
        g1 = path_loss(1000.0, 1000.3, 1.5, True, RADIO, H_BS)
        g2 = path_loss(2000.0, 2000.2, 1.5, True, RADIO, H_BS)
        assert g2 < g1

    def test_nlos_never_beats_los(self):
        for d2d in (50.0, 200.0, 800.0, 3000.0):
            d3d = math.sqrt(d2d**2 + 23.5**2)
            assert path_loss(d2d, d3d, 1.5, False, RADIO, H_BS) <= path_loss(
                d2d, d3d, 1.5, True, RADIO, H_BS
            )

    def test_aerial_branch_selected_at_100m(self):
        # oracle: aerial LoS exponent 22 with no breakpoint term at h=100
        d2d, h = 500.0, 100.0
        d3d = math.sqrt(d2d**2 + (h - 25.0) ** 2)
        aerial_db = 28.0 + 22 * math.log10(d3d) + 20 * math.log10(3.5)
        gain = path_loss(d2d, d3d, h, True, RADIO, H_BS)
        assert 10 * math.log10(1 / gain) == pytest.approx(aerial_db, abs=1e-9)
        # NLoS is where the aerial and ground tables genuinely diverge
        aerial_nlos_db = (
            -17.5
            + (46 - 7 * math.log10(h)) * math.log10(d3d)
            + 20 * math.log10(40 * math.pi * 3.5 / 3)
        )
        ground_nlos_db = max(
            uma_los_pl_oracle(d2d, 25.0, h, 3.5),
            13.54 + 39.08 * math.log10(d3d) + 20 * math.log10(3.5) - 0.6 * (h - 1.5),
        )
        gain_nlos = path_loss(d2d, d3d, h, False, RADIO, H_BS)
        assert 10 * math.log10(1 / gain_nlos) == pytest.approx(aerial_nlos_db, abs=1e-9)
        assert abs(aerial_nlos_db - ground_nlos_db) > 1.0

    def test_out_of_validity_flagged_not_fatal(self):
        with pytest.warns(OutOfValidityRange):
            path_loss(6000.0, 6000.1, 1.5, True, RADIO, H_BS)


class TestModelByHeight:
    """The link's UE height alone picks the model: the ground formulas at
    22.5 m, the aerial ones just above it."""

    D2D = 300.0

    def d3d(self, h):
        return math.sqrt(self.D2D**2 + (H_BS - h) ** 2)

    def test_ground_formulas_at_the_boundary(self):
        h = 22.5
        base = 18 / self.D2D + math.exp(-self.D2D / 63) * (1 - 18 / self.D2D)
        c = ((h - 13) / 10) ** 1.5
        ground_p = base * (1 + c * 1.25 * (self.D2D / 100) ** 3 * math.exp(-self.D2D / 150))
        assert los_probability(self.D2D, h) == pytest.approx(ground_p, abs=1e-12)
        ground_nlos_db = max(
            uma_los_pl_oracle(self.D2D, H_BS, h, 3.5),
            13.54 + 39.08 * math.log10(self.d3d(h)) + 20 * math.log10(3.5) - 0.6 * (h - 1.5),
        )
        gain = path_loss(self.D2D, self.d3d(h), h, False, RADIO, H_BS)
        assert 10 * math.log10(1 / gain) == pytest.approx(ground_nlos_db, abs=1e-9)

    def test_aerial_formulas_just_above(self):
        h = 22.5 + 1e-6
        d1 = max(460 * math.log10(h) - 700, 18.0)
        p1 = 4300 * math.log10(h) - 3800
        aerial_p = d1 / self.D2D + math.exp(-self.D2D / p1) * (1 - d1 / self.D2D)
        assert los_probability(self.D2D, h) == pytest.approx(aerial_p, abs=1e-12)
        assert abs(aerial_p - los_probability(self.D2D, 22.5)) > 0.1
        aerial_nlos_db = (
            -17.5 + (46 - 7 * math.log10(h)) * math.log10(self.d3d(h)) + 20 * math.log10(40 * math.pi * 3.5 / 3)
        )
        gain = path_loss(self.D2D, self.d3d(h), h, False, RADIO, H_BS)
        assert 10 * math.log10(1 / gain) == pytest.approx(aerial_nlos_db, abs=1e-9)
        ground_db = -10 * math.log10(path_loss(self.D2D, self.d3d(22.5), 22.5, False, RADIO, H_BS))
        assert abs(aerial_nlos_db - ground_db) > 1.0

    def test_ground_distance_warning_only_on_low_links(self):
        # 5 m from the mast is outside the ground model's [10, 5000] m, not the aerial model's range
        with pytest.warns(OutOfValidityRange, match="2D distance"):
            path_loss(5.0, math.hypot(5.0, H_BS - 20.0), 20.0, True, RADIO, H_BS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OutOfValidityRange)
            path_loss(5.0, math.hypot(5.0, H_BS - 30.0), 30.0, True, RADIO, H_BS)


class TestLosProbability:
    def test_uav_at_100m_is_one(self):
        assert los_probability(2500.0, 100.0) == 1.0

    def test_ground_short_distance_is_one(self):
        assert los_probability(5.0, 1.5) == 1.0

    def test_ground_monotone_non_increasing(self):
        d = np.linspace(1.0, 3000.0, 400)
        p = los_probability(d, 1.5)
        assert np.all(np.diff(p) <= 1e-12)

    def test_aerial_mid_height_curve(self):
        # oracle: d1/p1 form at h = 60 m
        h = 60.0
        d1 = max(460 * math.log10(h) - 700, 18.0)
        p1 = 4300 * math.log10(h) - 3800
        d = 800.0
        expected = d1 / d + math.exp(-d / p1) * (1 - d1 / d)
        assert los_probability(d, h) == pytest.approx(expected, abs=1e-12)
        assert los_probability(d1 / 2, h) == 1.0


class TestShadowField:
    def test_zero_sigma_all_ones(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [35.0, 2.0]])
        gains = shadow_gain(0.0, shadow_field(shadow_factor(pos, 50.0), np.random.default_rng(0)))
        assert np.allclose(gains, 1.0)

    def test_coincident_points_identical(self):
        # identical up to the diagonal regularization of the field covariance
        pos = np.array([[5.0, 5.0], [5.0, 5.0]])
        gains = shadow_gain(6.0, shadow_field(shadow_factor(pos, 50.0), np.random.default_rng(1)))
        assert gains[0] == pytest.approx(gains[1], rel=1e-4)

    def test_lag_correlation_matches_exponential(self):
        # Monte-Carlo oracle: correlation at one decorrelation distance ~ 1/e
        d_corr = 50.0
        pos = np.array([[0.0, 0.0], [d_corr, 0.0]])
        unit = shadow_factor(pos, d_corr) @ np.random.default_rng(2).standard_normal((2, 10_000))
        gains = shadow_gain(6.0, unit.T)
        log_vals = 10.0 * np.log10(gains)
        corr = np.corrcoef(log_vals[:, 0], log_vals[:, 1])[0, 1]
        assert corr == pytest.approx(math.exp(-1.0), abs=0.1)

    def test_aerial_sigma_curve(self):
        assert aerial_los_shadow_sigma_db(100.0) == pytest.approx(4.64 * math.exp(-0.66))


    def test_empty_factor(self):
        factor = shadow_factor(np.zeros((0, 2)), 50.0)
        assert factor.shape == (0, 0)
        assert shadow_gain(6.0, shadow_field(factor, np.random.default_rng(3))).shape == (0,)


class TestElementGain:
    def test_boresight_8dbi(self):
        assert 10 * math.log10(element_gain(0.0, math.pi / 2)) == pytest.approx(8.0)

    def test_half_power_at_half_beamwidth(self):
        g = element_gain(math.radians(32.5), math.pi / 2)
        assert 10 * math.log10(g) == pytest.approx(8.0 - 3.0, abs=1e-9)
        g = element_gain(0.0, math.radians(90 + 32.5))
        assert 10 * math.log10(g) == pytest.approx(8.0 - 3.0, abs=1e-9)

    def test_front_to_back_floor(self):
        angles = np.linspace(-math.pi, math.pi, 73)
        zeniths = np.linspace(0.0, math.pi, 37)
        for az in angles:
            g = element_gain(az, zeniths)
            assert np.all(10 * np.log10(g) >= 8.0 - 30.0 - 1e-9)


class TestLosComponent:
    def test_single_element_phase(self):
        panel = UpaGeometry(m_h=1, m_v=1)
        sector = Sector(0, panel, (0.0, 0.0, 25.0), 0.0)
        _, d3d, _, _, unit = sector_geometry(sector, np.array([[120.0, 0.0, 25.0]]))
        h = los_components(unit, d3d, panel.element_coords(RADIO.wavelength_m), RADIO.wavelength_m)
        assert h.shape == (1, 1)
        expected = np.exp(-2j * np.pi * d3d[0] / RADIO.wavelength_m)
        assert h[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_unit_modulus_everywhere(self):
        panel = UpaGeometry(m_h=4, m_v=8, downtilt_deg=8.0)
        sector = Sector(0, panel, (10.0, -20.0, 25.0), 120.0)
        gen = np.random.default_rng(3)
        positions = np.empty((20, 3))
        for pos in positions:
            pos[:] = gen.uniform(-800, 800, 3)
            pos[2] = gen.uniform(1.5, 150.0)
        _, d3d, _, _, unit = sector_geometry(sector, positions)
        h = los_components(unit, d3d, panel.element_coords(RADIO.wavelength_m), RADIO.wavelength_m)
        assert h.shape == (20, panel.n_elements)
        assert np.allclose(np.abs(h), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[4], [0, 5, 19]])
    def test_rows_are_the_full_rows(self, rows):
        panel = UpaGeometry(m_h=4, m_v=8, downtilt_deg=6.0)
        sector = Sector(0, panel, (10.0, -20.0, 25.0), 240.0)
        gen = np.random.default_rng(11)
        positions = gen.uniform(-700, 700, (20, 3))
        positions[:, 2] = gen.uniform(1.5, 150.0, 20)
        _, d3d, _, _, unit = sector_geometry(sector, positions)
        coords = panel.element_coords(RADIO.wavelength_m)
        full = los_components(unit, d3d, coords, RADIO.wavelength_m)
        some = los_components(unit, d3d, coords, RADIO.wavelength_m, np.array(rows))
        assert some.tobytes() == full[rows].tobytes()

    def test_matched_weight_gain_is_m(self):
        panel = UpaGeometry(m_h=4, m_v=8)
        sector = Sector(0, panel, (0.0, 0.0, 25.0), 0.0)
        _, d3d, _, _, unit = sector_geometry(sector, np.array([[300.0, 80.0, 100.0]]))
        h = los_components(unit, d3d, panel.element_coords(RADIO.wavelength_m), RADIO.wavelength_m)[0]
        m = panel.n_elements
        w = np.conj(h) / math.sqrt(m)
        assert abs(h @ w) ** 2 == pytest.approx(m, rel=1e-12)


class TestRicianChannel:
    def test_huge_k_reduces_to_los(self):
        gen = np.random.default_rng(4)
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, (3, 16)))
        h = rician_channel(los, np.full(3, 1e9), gen)
        assert np.allclose(h, los, atol=1e-3)

    def test_per_row_k(self):
        # K = 0 on row 0 (pure Rayleigh), huge K on row 1 (pure LoS)
        gen = np.random.default_rng(9)
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, (2, 8)))
        h = rician_channel(los, np.array([0.0, 1e12]), gen)
        assert not np.allclose(h[0], los[0], atol=0.1)
        assert np.allclose(h[1], los[1], atol=1e-5)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="Rician K"):
            rician_channel(np.ones((2, 4), dtype=complex), np.array([1.0, -1.0]), np.random.default_rng(0))

    def test_rayleigh_power_normalization(self):
        gen = np.random.default_rng(5)
        m = 8
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        draws = 10_000
        total = np.sum(np.abs(rician_channel(np.tile(los, (draws, 1)), 0.0, gen)) ** 2)
        assert total / draws / m == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("k_db", [0.0, 9.0])
    def test_mean_power_is_m_for_any_k(self, k_db):
        gen = np.random.default_rng(6)
        m = 8
        los = np.exp(1j * gen.uniform(0, 2 * np.pi, m))
        k = 10 ** (k_db / 10)
        draws = 10_000
        total = np.sum(np.abs(rician_channel(np.tile(los, (draws, 1)), k, gen)) ** 2)
        assert total / draws == pytest.approx(m, rel=0.05)


class TestExpectedChannel:
    def setup_method(self):
        self.panel = UpaGeometry(m_h=4, m_v=8)
        self.sector = Sector(0, self.panel, (0.0, 0.0, 25.0), 0.0)
        self.params = ChannelParams()
        self.point = np.array([[350.0, 144.0, 100.0]])

    def test_composition_of_public_pieces(self):
        _, d3d, az, zen, unit = sector_geometry(self.sector, self.point)
        d2d = math.hypot(self.point[0, 0], self.point[0, 1])
        p = los_probability(d2d, 100.0)
        rho = path_loss(d2d, d3d[0], 100.0, True, RADIO, H_BS)
        g = element_gain(az[0], zen[0])
        k = self.params.rician_k_linear(True)
        h_los = los_components(unit, d3d, self.panel.element_coords(RADIO.wavelength_m), RADIO.wavelength_m)
        expected = p * math.sqrt(rho * g) * math.sqrt(k / (1 + k)) * h_los
        got = expected_channels([self.sector], self.point, RADIO, self.params)[0]
        assert np.allclose(got, expected, rtol=1e-12)

    def test_k_scaling_factor(self):
        # K = 1 scales entries by sqrt(1/2) versus the LoS-only limit
        params_k1 = ChannelParams(rician_k_los_db=0.0)
        params_huge = ChannelParams(rician_k_los_db=200.0)
        h1 = expected_channels([self.sector], self.point, RADIO, params_k1)[0]
        h_inf = expected_channels([self.sector], self.point, RADIO, params_huge)[0]
        assert np.allclose(h1, h_inf * math.sqrt(0.5), rtol=1e-9)

    def test_monte_carlo_mean_matches(self, small_scenario):
        # sample-mean oracle over fading draws (LoS aerial link: p_los = 1)
        sector = small_scenario.sectors[0]
        params = small_scenario.channel_params
        _, d3d, az, zen, unit = sector_geometry(sector, self.point)
        d2d = math.hypot(self.point[0, 0], self.point[0, 1])
        rho = path_loss(d2d, d3d[0], 100.0, True, small_scenario.radio, sector.position_3d_m[2])
        g = element_gain(az[0], zen[0])
        h_los = los_components(
            unit, d3d, sector.panel.element_coords(small_scenario.radio.wavelength_m),
            small_scenario.radio.wavelength_m,
        )
        k = params.rician_k_linear(True)
        gen = np.random.default_rng(8)
        amp = math.sqrt(rho * g)
        draws = 10_000
        mc_mean = amp * rician_channel(np.tile(h_los, (draws, 1)), k, gen).mean(axis=0)
        h_tilde = expected_channels([sector], self.point, small_scenario.radio, params)[0][0]
        assert np.allclose(mc_mean, h_tilde, rtol=0.02, atol=0.02 * np.abs(h_tilde).max())


class TestHighwayStack:
    def test_rows_match_per_point_calls(self, small_scenario):
        sector = small_scenario.sectors[2]
        highway = small_scenario.highway
        stack = expected_channels([sector], highway.points, small_scenario.radio, small_scenario.channel_params)[0]
        for r in (0, 3, len(highway.points) - 1):
            row = expected_channels(
                [sector], highway.points[r : r + 1], small_scenario.radio, small_scenario.channel_params,
            )[0, 0]
            assert np.allclose(stack[r], row, rtol=1e-12)

    @pytest.mark.parametrize("one_point", [False, True])
    def test_all_sectors_match_one_sector_calls(self, small_scenario, one_point):
        # row b of the stacked pass holds sector b's own call, byte for byte
        sectors = small_scenario.sectors
        points = small_scenario.highway.points[:1] if one_point else small_scenario.highway.points
        args = (points, small_scenario.radio, small_scenario.channel_params)
        h = expected_channels(sectors, *args)
        assert h.shape == (len(sectors), len(points), sectors[0].panel.n_elements)
        for b, sector in enumerate(sectors):
            assert h[b].tobytes() == expected_channels([sector], *args)[0].tobytes()


def test_corridor_point_height_changes_only_its_own_rows(cfg):
    """Lowering one corridor point to 15 m puts that point on the ground model
    and leaves every other point's mean channel row as it was, byte for byte."""
    scenario = scenario_from_config(cfg)
    args = (scenario.radio, scenario.channel_params)
    points = scenario.highway.points
    lowered = points.copy()
    lowered[4, 2] = 15.0
    before = expected_channels(scenario.sectors, points, *args)
    after = expected_channels(scenario.sectors, lowered, *args)
    others = np.arange(len(points)) != 4
    assert after[:, others].tobytes() == before[:, others].tobytes()
    assert not np.array_equal(after[:, 4], before[:, 4])


def config_uavs(scenario):
    """The config's UAVs of snapshot 0: the corridor at its UAV spacing from arc length 0."""
    return place_uavs(scenario.highway, scenario.highway_params.uav_spacing_m, 0.0)


class TestChannelSet:
    def test_reproducible_across_builds(self, small_scenario):
        users = small_scenario.ground_users(0)[:8]
        a = build_channels(small_scenario, entity_block(users), 3, "ue")
        b = build_channels(small_scenario, entity_block(users), 3, "ue")
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.beta, b.beta)

    def test_distinct_snapshots_differ(self, small_scenario):
        users = small_scenario.ground_users(0)[:8]
        a = build_channels(small_scenario, entity_block(users), 0, "ue")
        b = build_channels(small_scenario, entity_block(users), 1, "ue")
        assert not np.array_equal(a.h, b.h)

    def test_shadow_factor_built_once_per_side(self, small_scenario, monkeypatch):
        """One `shadow_factor` call per build and side of 22.5 m the block has
        rows on, with that side's rows and decorrelation distance: ground
        rows first, then aerial rows, whatever their order in the block."""
        ground, uavs = small_scenario.ground_users(0)[:10], config_uavs(small_scenario)[:3]
        calls = []

        def counting_factor(positions_xy, decorrelation_distance_m):
            calls.append((positions_xy.tolist(), decorrelation_distance_m))
            return shadow_factor(positions_xy, decorrelation_distance_m)

        monkeypatch.setattr(channel, "shadow_factor", counting_factor)
        build_channels(small_scenario, entity_block(ground), 2, "ue")
        build_channels(small_scenario, entity_block(uavs), 2, "uav")
        params = small_scenario.channel_params
        d_ground, d_aerial = params.shadow_corr_dist_ground_m, params.shadow_corr_dist_aerial_m
        assert calls == [(ground.tolist(), d_ground), (uavs.tolist(), d_aerial)]
        calls.clear()
        build_channels(small_scenario, entity_block(np.concatenate([uavs[:1], ground[:2], uavs[1:]])), 2, "uav")
        assert calls == [(ground[:2].tolist(), d_ground), (uavs.tolist(), d_aerial)]

    def test_aerial_links_at_100m_all_los(self, small_scenario):
        uavs = config_uavs(small_scenario)
        want, is_los = per_sector_channels(small_scenario, uavs, 0, "uav")
        assert np.all(is_los)
        TestMatchesPerSectorOracle.assert_same_bytes(build_channels(small_scenario, entity_block(uavs), 0, "uav"), want)


CLIMB = "climb"  # a corridor polyline climbing from 10 m to 60 m, across 22.5 m


def _one_tier_scenario(altitude_m, rician_k_nlos_db=None, ground_height_m=1.5):
    """The one-tier layout with its corridor at `altitude_m` (or climbing,
    for CLIMB) and its ground users at `ground_height_m`."""
    raw = default_config()
    raw["layout"]["tiers"] = 1
    if altitude_m == CLIMB:
        y = raw["layout"]["isd_m"] * math.sqrt(3.0) / 6.0
        raw["highway"]["polyline"] = [[-625.0, y, 10.0], [625.0, y, 60.0]]
    else:
        raw["highway"]["altitude_m"] = altitude_m
    raw["users"]["ground_height_m"] = ground_height_m
    raw["channel"]["rician_k_nlos_db"] = rician_k_nlos_db
    return scenario_from_config(validate_config(raw))


def _snapshot_blocks(scenario, snapshot):
    """A snapshot's two blocks, the ground users' and the UAVs', each with its
    own positions and stream tag."""
    return ((scenario.ground_users(snapshot), "ue"), (config_uavs(scenario), "uav"))


def _straddles(positions):
    low = positions[:, 2] <= channel.AERIAL_MIN_HEIGHT_M
    return bool(low.any() and not low.all())


class TestMatchesPerSectorOracle:
    """build_channels against the per-sector reference builder: both arrays
    equal in bytes and dtype."""

    @staticmethod
    def assert_same_bytes(got, want):
        for name in ("beta", "h"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    # 20 m is a UAV link on the ground model (at or below 22.5 m), 60 m the
    # mid-height LoS curve, 100 m always LoS, 350 m outside the validity
    # region of the aerial path loss, and CLIMB puts the UAVs on both sides
    # of 22.5 m. "mixed" is a whole snapshot built the way the evaluation
    # builds it: one block per entity class, on its own tag. "ground-30m"
    # lifts the ground users above 22.5 m, onto the aerial model.
    @pytest.mark.parametrize("altitude_m", [20.0, 60.0, 100.0, 350.0, CLIMB])
    @pytest.mark.parametrize("block", ["mixed", "ground", "uav", "ground-30m"])
    def test_bit_identical(self, altitude_m, block):
        scenario = _one_tier_scenario(altitude_m, ground_height_m=30.0 if block == "ground-30m" else 1.5)
        ground, uavs = _snapshot_blocks(scenario, 1)
        blocks = {"mixed": [ground, uavs], "uav": [(uavs[0], "ue")]}.get(block, [(ground[0], "ue")])
        if altitude_m == CLIMB and block in ("mixed", "uav"):
            assert _straddles(uavs[0])
        for positions, tag in blocks:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OutOfValidityRange)
                got = build_channels(scenario, entity_block(positions), 1, tag)
                want, _ = per_sector_channels(scenario, positions, 1, tag)
            self.assert_same_bytes(got, want)

    # The default 19-site layout, seed 1: on snapshot 0, sector 21 has a
    # single LoS ground link (entity 92), the case where a plane-wave
    # product over the K > 0 rows alone rounds differently. Its 228 rows
    # mix 4 sectors per chunk, and 57 = 14 * 4 + 1 leaves a one-sector
    # last chunk.
    @pytest.mark.parametrize("snapshot", [0, 1, 2])
    def test_default_layout_ground_blocks(self, cfg, snapshot):
        scenario = scenario_from_config(cfg)
        ground = scenario.ground_users(snapshot)
        assert (len(ground), channel._MIX_LINKS // len(ground), scenario.n_sectors % 4) == (228, 4, 1)
        want, is_los = per_sector_channels(scenario, ground, snapshot, "ue")
        if snapshot == 0:
            assert np.any(np.count_nonzero(is_los, axis=0) == 1)
        self.assert_same_bytes(build_channels(scenario, entity_block(ground), snapshot, "ue"), want)

    # A 3 dB K on NLoS links puts every link, LoS or not, through the
    # plane-wave branch of the mix; the default config never does.
    @pytest.mark.parametrize(
        "block, altitude_m",
        [("ground", 100.0), ("uav", 20.0), ("uav", 60.0), ("ground-30m", 100.0), ("uav", CLIMB)],
    )
    def test_bit_identical_with_nlos_k(self, block, altitude_m):
        scenario = _one_tier_scenario(
            altitude_m, rician_k_nlos_db=3.0, ground_height_m=30.0 if block == "ground-30m" else 1.5
        )
        ground, uavs = _snapshot_blocks(scenario, 1)
        positions, tag = uavs if block == "uav" else ground
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfValidityRange)
            got = build_channels(scenario, entity_block(positions), 1, tag)
            want, is_los = per_sector_channels(scenario, positions, 1, tag)
        assert not np.all(is_los)
        self.assert_same_bytes(got, want)

    def test_empty_block(self):
        scenario = _one_tier_scenario(100.0)
        empty = np.zeros((0, 3))
        got = build_channels(scenario, entity_block(empty), 1, "ue")
        b, m = scenario.n_sectors, scenario.sectors[0].panel.n_elements
        assert got.beta.shape == (0, b)
        assert got.h.shape == (0, b, m)
        self.assert_same_bytes(got, per_sector_channels(scenario, empty, 1, "ue")[0])

    def test_sectors_on_their_own_masts(self, small_scenario):
        """Sectors on 35 m masts, in a layout whose `bs_height_m` still reads
        25 m: every link's path loss takes its own sector's height."""
        layout = small_scenario.layout
        sectors = build_hex_layout(layout.tiers, layout.isd_m, small_scenario.sectors[0].panel, 35.0)
        scenario = dataclasses.replace(small_scenario, sectors=tuple(sectors))
        assert scenario.layout.bs_height_m == H_BS
        ground = scenario.ground_users(0)
        got = build_channels(scenario, entity_block(ground), 0, "ue")
        self.assert_same_bytes(got, per_sector_channels(scenario, ground, 0, "ue")[0])

    def test_highway_point_stream(self, cfg):
        scenario = scenario_from_config(cfg)
        points = scenario.highway.points
        got = build_channels(scenario, entity_block(points), "static", "highway-point")
        want, _ = per_sector_channels(scenario, points, "static", "highway-point")
        self.assert_same_bytes(got, want)

    def test_climbing_highway_point_stream(self):
        """Corridor points on both sides of 22.5 m, each on its own height's model."""
        scenario = _one_tier_scenario(CLIMB)
        points = scenario.highway.points
        assert _straddles(points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OutOfValidityRange)
            got = build_channels(scenario, entity_block(points), "static", "highway-point")
            want, _ = per_sector_channels(scenario, points, "static", "highway-point")
        self.assert_same_bytes(got, want)

    def test_straddling_block_draws_two_independent_fields(self):
        """The climbing corridor's points on each side of 22.5 m get their
        side's own shadow factor, and the covariance between the sides is
        exactly 0."""
        scenario = _one_tier_scenario(CLIMB)
        points = scenario.highway.points
        low = points[:, 2] <= channel.AERIAL_MIN_HEIGHT_M
        assert _straddles(points)
        factor = channel._block_shadow_factor(scenario.channel_params, points)
        assert np.all((factor @ factor.T)[np.ix_(low, ~low)] == 0.0)
        params = scenario.channel_params
        for rows, d_corr in ((low, params.shadow_corr_dist_ground_m), (~low, params.shadow_corr_dist_aerial_m)):
            assert factor[np.ix_(rows, rows)].tobytes() == shadow_factor(points[rows], d_corr).tobytes()


class TestChannelBlocks:
    """build_channels on every UAV block of a sweep snapshot, and on blocks
    at the edges of the chunked Rician mix, against the per-sector
    reference: both ChannelSet arrays equal in bytes, dtype and shape."""

    N_MAX = 12

    @staticmethod
    def sweep_blocks(scenario, snapshot, n_snapshots=2):
        length = scenario.highway.total_length_m
        return [
            snapshot_uavs(scenario, snapshot, n_snapshots, length / n)
            for n in range(1, TestChannelBlocks.N_MAX + 1)
        ]

    # 100 m: every UAV link LoS, K > 0 on all of them; 60 m with a 3 dB
    # NLoS K: LoS and NLoS links, every one through the plane-wave branch;
    # 20 m: the ground model, NLoS links pure Rayleigh; CLIMB: blocks on
    # both sides of 22.5 m
    @pytest.mark.parametrize(
        "altitude_m, rician_k_nlos_db", [(100.0, None), (60.0, 3.0), (20.0, None), (CLIMB, None)]
    )
    @pytest.mark.parametrize("snapshot", [0, 1])
    def test_each_block_matches_a_fresh_build(self, altitude_m, rician_k_nlos_db, snapshot):
        scenario = _one_tier_scenario(altitude_m, rician_k_nlos_db)
        blocks = self.sweep_blocks(scenario, snapshot)
        assert [len(entities) for entities in blocks] == list(range(1, self.N_MAX + 1))
        for entities in blocks:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OutOfValidityRange)
                got = build_channels(scenario, entity_block(entities), snapshot, "uav")
                want, _ = per_sector_channels(scenario, entities, snapshot, "uav")
            TestMatchesPerSectorOracle.assert_same_bytes(got, want)

    def test_default_layout(self, cfg):
        scenario = scenario_from_config(cfg)
        for entities in self.sweep_blocks(scenario, 1):
            TestMatchesPerSectorOracle.assert_same_bytes(
                build_channels(scenario, entity_block(entities), 1, "uav"),
                per_sector_channels(scenario, entities, 1, "uav")[0],
            )

    def test_one_sector_chunks(self):
        """50 users per cell of the one-tier layout are more rows than a
        chunk of the Rician mix holds links, so each chunk is one sector."""
        raw = default_config()
        raw["layout"]["tiers"] = 1
        raw["users"]["gues_per_cell"] = 50
        scenario = scenario_from_config(validate_config(raw))
        ground = scenario.ground_users(0)
        assert len(ground) == 1050 > channel._MIX_LINKS
        TestMatchesPerSectorOracle.assert_same_bytes(
            build_channels(scenario, entity_block(ground), 0, "ue"),
            per_sector_channels(scenario, ground, 0, "ue")[0],
        )

    def test_streams_derived_once_per_sector(self, small_scenario, monkeypatch):
        """Each build_channels call derives its block's three keyed streams
        per sector in one batch of 3 B keys."""
        batches = []
        derive_many = small_scenario.streams.derive_many
        monkeypatch.setattr(
            small_scenario.streams, "derive_many", lambda keys: derive_many(batches.append(list(keys)) or batches[-1])
        )
        blocks = self.sweep_blocks(small_scenario, 0)
        for i, entities in enumerate(blocks, 1):
            assert build_channels(small_scenario, entity_block(entities), 0, "uav").h.shape[0] == i
            assert len(batches) == i
        expected = sorted(
            (kind, "uav", 0, sector.id) for kind in ("los", "shadow", "fading") for sector in small_scenario.sectors
        )
        for keys in batches:
            assert len(keys) == 3 * small_scenario.n_sectors
            assert sorted(keys) == expected

    def test_working_set_stays_below_half_the_block(self, cfg):
        """A default ground build holds, beyond the arrays it returns, less
        than half its (N, B, M) channel: the chunked mix never gathers every
        sector's fading draws at once."""
        scenario = scenario_from_config(cfg)
        ground = scenario.ground_users(0)
        build_channels(scenario, entity_block(ground), 0, "ue")  # warm the per-layout caches
        tracemalloc.start()
        try:
            got = build_channels(scenario, entity_block(ground), 0, "ue")
            returned, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - returned < got.h.nbytes / 2


class TestOutOfValidityCount:
    def test_one_warning_per_class_per_build(self):
        # every UAV link of a 350 m corridor is outside the aerial model; the
        # ground links of the one-tier layout are inside the ground model
        scenario = _one_tier_scenario(350.0)

        def flagged(build, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build(scenario, *args)
            return [w for w in caught if issubclass(w.category, OutOfValidityRange)]

        (ground, ground_tag), (uavs, uav_tag) = _snapshot_blocks(scenario, 0)
        assert len(flagged(build_channels, entity_block(ground), 0, ground_tag)) == 0
        assert len(flagged(build_channels, entity_block(uavs), 0, uav_tag)) == 1
        assert len(flagged(per_sector_channels, ground, 0, ground_tag)) == 0
        assert len(flagged(per_sector_channels, uavs, 0, uav_tag)) == scenario.n_sectors == 21


@pytest.mark.parametrize("snapshot", [0, 1, 2])
def test_distances_match_linalg_norm(cfg, snapshot):
    """`shadow_factor` and `link_geometry` take their distances as
    sqrt(dx*dx + dy*dy [+ dz*dz]); on default ground blocks that is
    np.linalg.norm's bytes, which sums the squares of a 2- or 3-long axis
    left to right. Fails if the sum is taken in another order."""
    scenario = scenario_from_config(cfg)
    positions = scenario.ground_users(snapshot)
    d_corr = scenario.channel_params.shadow_corr_dist_ground_m
    xy = positions[:, :2]
    cov = np.exp(-np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2) / d_corr)
    cov[np.diag_indices(len(xy))] += 1e-12
    assert shadow_factor(positions, d_corr).tobytes() == np.linalg.cholesky(cov).tobytes()
    origins = np.array([sector.position_3d_m for sector in scenario.sectors])
    delta = positions[None, :, :] - origins[:, None, :]
    d2d, d3d, *_ = link_geometry(scenario.sectors, positions)
    assert d2d.tobytes() == np.linalg.norm(delta[..., :2], axis=2).tobytes()
    assert d3d.tobytes() == np.linalg.norm(delta, axis=2).tobytes()


class TestEntityAtPanel:
    """An entity at a panel's position has no direction: ValueError naming
    the entity row and the sector id, with no NumPy RuntimeWarning first."""

    def test_build_channels(self, small_scenario):
        panel_position = np.array(small_scenario.sectors[3].position_3d_m)
        positions = np.array([[100.0, 50.0, 1.5], [-80.0, 20.0, 1.5], panel_position])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entity row 2 .*sector 3\b"):
                build_channels(small_scenario, entity_block(positions), 0, "ue")

    def test_expected_channels(self):
        highway = discretize_highway(np.array([[-125.0, 0.0, 25.0], [125.0, 0.0, 25.0]]), 125.0, 3)
        sector = Sector(7, UpaGeometry(m_h=4, m_v=8), (0.0, 0.0, 25.0), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"entity row 1 .*sector 7\b"):
                expected_channels([sector], highway.points, RADIO, ChannelParams())
