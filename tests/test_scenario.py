import dataclasses
import math

import numpy as np
import pytest

from oracles import per_sector_ground_users, reference_derive
from skybeam.config import GUE_MIN_DROP_SHARE, gue_drop_share
from skybeam.rng import RngStream
from skybeam.scenario import (
    AerialHighway,
    DegenerateHighway,
    Sector,
    UpaGeometry,
    _in_dominance_area,
    build_hex_layout,
    default_highway_polyline,
    discretize_highway,
    hex_site_positions,
    place_ground_users,
    place_uavs,
    scenario_from_config,
)

PANEL = UpaGeometry(m_h=4, m_v=8)


def straight_line(length, y=0.0, z=100.0):
    return np.array([[-length / 2, y, z], [length / 2, y, z]])


class TestHexLayout:
    def test_two_tiers_gives_19_sites_57_sectors(self):
        sectors = build_hex_layout(2, 500.0, PANEL, 25.0)
        assert len({s.position_3d_m for s in sectors}) == 19
        assert len(sectors) == 57

    def test_zero_tiers_center_site_only(self):
        sectors = build_hex_layout(0, 500.0, PANEL, 25.0)
        assert len(sectors) == 3
        assert all(s.position_3d_m == (0.0, 0.0, 25.0) for s in sectors)

    def test_one_tier_min_site_distance_is_isd(self):
        # oracle: exhaustive pairwise distances over the 7 site positions
        sites = hex_site_positions(1, 500.0)
        assert sites.shape[0] == 7
        dists = [
            np.linalg.norm(sites[i] - sites[j])
            for i in range(len(sites))
            for j in range(i + 1, len(sites))
        ]
        assert min(dists) == pytest.approx(500.0, abs=1e-9)

    def test_sector_count_always_triple_site_count(self):
        for tiers in (0, 1, 2, 3):
            sectors = build_hex_layout(tiers, 500.0, PANEL, 25.0)
            assert len(sectors) == 3 * len({s.position_3d_m for s in sectors})

    def test_bearings_and_ids(self):
        sites = hex_site_positions(1, 500.0)
        sectors = build_hex_layout(1, 500.0, PANEL, 25.0)
        for s in sectors:
            assert s.bearing_deg in (0.0, 120.0, 240.0)
            site = s.id // 3
            assert s.id == 3 * site + [0.0, 120.0, 240.0].index(s.bearing_deg)
            assert s.position_3d_m == (sites[site][0], sites[site][1], 25.0)
            assert s.panel is PANEL


def test_one_panel_serves_every_sector(cfg):
    """The panel holds its shape and tilt alone; each sector adds its mast
    position and bearing, and every sector shares the one panel object."""
    assert [f.name for f in dataclasses.fields(UpaGeometry)] == ["m_h", "m_v", "downtilt_deg"]
    assert [f.name for f in dataclasses.fields(Sector)] == ["id", "panel", "position_3d_m", "bearing_deg"]
    sectors = scenario_from_config(cfg).sectors
    assert len(sectors) == 57 and all(s.panel is sectors[0].panel for s in sectors)


class TestGroundUsers:
    def test_four_per_cell_over_57_sectors(self):
        sectors = build_hex_layout(2, 500.0, PANEL, 25.0)
        users = place_ground_users(sectors, 4, 500.0, RngStream(1), 1.5, 0)
        assert len(users) == 228

    def test_zero_per_cell(self):
        sectors = build_hex_layout(1, 500.0, PANEL, 25.0)
        assert len(place_ground_users(sectors, 0, 500.0, RngStream(1), 1.5, 0)) == 0

    def test_same_seed_reproducible(self):
        sectors = build_hex_layout(1, 500.0, PANEL, 25.0)
        a = place_ground_users(sectors, 4, 500.0, RngStream(7), 1.5, 0)
        b = place_ground_users(sectors, 4, 500.0, RngStream(7), 1.5, 0)
        assert np.array_equal(a, b)

    def test_positions_inside_dominance_area(self):
        isd = 500.0
        sectors = build_hex_layout(1, isd, PANEL, 25.0)
        users = place_ground_users(sectors, 6, isd, RngStream(3), 1.5, 0)
        per_sector = len(users) // len(sectors)
        for k, sector in enumerate(sectors):
            for u in users[k * per_sector : (k + 1) * per_sector]:
                d = u[:2] - np.array(sector.position_3d_m[:2])
                # hexagonal lattice cell membership
                for ang in range(0, 360, 60):
                    n = np.array([math.cos(math.radians(ang)), math.sin(math.radians(ang))])
                    assert d @ n <= isd / 2 + 1e-6
                # wedge membership
                rel = (math.degrees(math.atan2(d[1], d[0])) - sector.bearing_deg + 180) % 360 - 180
                assert abs(rel) <= 60.0 + 1e-9
                assert u[2] == 1.5


def _sectors_short_after_one_batch(sectors, per_cell, isd_m, master_seed, snapshot):
    """The sectors whose first batch of candidates keeps fewer than `per_cell`."""
    radius = isd_m / math.sqrt(3.0)
    short = []
    for sector in sectors:
        rng = reference_derive(master_seed, "gue-pos", snapshot, sector.id)
        batch = rng.uniform(-radius, radius, size=(max(8 * per_cell, 32), 2))
        if np.count_nonzero(_in_dominance_area(batch, sector.bearing_deg, isd_m)) < per_cell:
            short.append(sector.id)
    return short


class TestDropMatchesPerSectorOracle:
    """The stacked first batch and the per-sector follow-up batches against
    drawing and testing every batch of every sector alone: positions equal
    in bytes. Fails if a short sector's further batches are drawn from a
    fresh stream, or if the stacked test broadcasts one sector's bearing."""

    @pytest.mark.parametrize("per_cell", [1, 4, 40])
    @pytest.mark.parametrize("snapshot", [0, 3])
    def test_default_isd(self, per_cell, snapshot):
        sectors = build_hex_layout(2, 500.0, PANEL, 25.0)
        got = place_ground_users(sectors, per_cell, 500.0, RngStream(1), 1.5, snapshot)
        want = per_sector_ground_users(sectors, per_cell, 500.0, 1, snapshot=snapshot)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("per_cell", [1, 4])
    def test_sectors_needing_a_second_batch(self, per_cell):
        isd_m = 20.0  # a small drop share: some sectors' first batches fall short
        sectors = build_hex_layout(1, isd_m, PANEL, 25.0)
        assert _sectors_short_after_one_batch(sectors, per_cell, isd_m, 2, 0)
        got = place_ground_users(sectors, per_cell, isd_m, RngStream(2), 2.0, 0)
        want = per_sector_ground_users(sectors, per_cell, isd_m, 2, height_m=2.0)
        assert got.tobytes() == want.tobytes()

    def test_no_sectors(self):
        assert len(place_ground_users([], 4, 500.0, RngStream(1), 1.5, 0)) == 0


class TestHighway:
    def test_25m_spacing_gives_51_points_6_segments(self):
        hw = discretize_highway(straight_line(1250.0), 25.0, 10)
        assert len(hw.points) == 51
        assert len(hw.segments) == 6
        assert hw.segments[-1] == (50, 51)  # last segment holds the single tail point

    def test_line_of_length_dr(self):
        hw = discretize_highway(straight_line(30.0), 30.0, 2)
        assert len(hw.points) == 2
        assert len(hw.segments) == 1

    def test_endpoints_only(self):
        hw = discretize_highway(straight_line(1250.0), 1250.0, 2)
        assert len(hw.points) == 2

    def test_points_equidistant(self):
        hw = discretize_highway(straight_line(1250.0), 25.0, 10)
        gaps = np.linalg.norm(np.diff(hw.points, axis=0), axis=1)
        assert np.allclose(gaps, 25.0, atol=1e-6 * 25.0)

    def test_degenerate_raises(self):
        line = np.array([[0.0, 0.0, 100.0], [0.0, 0.0, 100.0]])
        with pytest.raises(DegenerateHighway):
            discretize_highway(line, 25.0, 10)

    def test_points_at_altitude_inside_hull(self):
        hw = discretize_highway(straight_line(1000.0, y=144.0), 50.0, 4)
        assert np.all(hw.points[:, 2] == 100.0)
        assert hw.points[:, 0].min() >= -500.0 - 1e-9
        assert hw.points[:, 0].max() <= 500.0 + 1e-9

    def test_segments_partition_points(self):
        hw = discretize_highway(straight_line(1250.0), 25.0, 10)
        covered = sorted(i for a, b in hw.segments for i in range(a, b))
        assert covered == list(range(len(hw.points)))


class TestUavs:
    @pytest.fixture()
    def highway(self) -> AerialHighway:
        return discretize_highway(straight_line(1250.0), 25.0, 10)

    def test_hundred_meter_spacing_gives_12(self, highway):
        assert len(place_uavs(highway, 100.0, 0.0)) == 12

    def test_single_uav(self, highway):
        assert len(place_uavs(highway, 1250.0, 0.0)) == 1

    def test_offset_full_period_wraps(self, highway):
        # modular symmetry requires d_iud to divide the corridor length
        a = place_uavs(highway, 125.0, offset_m=0.0)
        b = place_uavs(highway, 125.0, offset_m=125.0)
        pa = sorted(tuple(np.round(u, 6)) for u in a)
        pb = sorted(tuple(np.round(u, 6)) for u in b)
        assert pa == pb

    def test_consecutive_spacing(self, highway):
        uavs = place_uavs(highway, 100.0, 0.0)
        xs = np.sort(uavs[:, 0])
        assert np.allclose(np.diff(xs), 100.0, atol=1e-6)


def test_explicit_zero_uav_spacing_is_not_the_default(small_scenario):
    with pytest.raises(ValueError, match="d_iud"):
        place_uavs(small_scenario.highway, 0.0, 0.0)


def test_scenario_rebuild_bit_identical(small_cfg):
    a = scenario_from_config(small_cfg)
    b = scenario_from_config(small_cfg)
    assert np.array_equal(a.highway.points, b.highway.points)
    assert np.array_equal(a.ground_users(0), b.ground_users(0))


def test_default_polyline_crosses_cell_edges():
    line = default_highway_polyline(500.0, 100.0)
    assert np.linalg.norm(line[1] - line[0]) == pytest.approx(1250.0)
    # corner row between site rows: equidistant-ish from three surrounding sites
    y = line[0][1]
    assert y == pytest.approx(500.0 * math.sqrt(3) / 6)


@pytest.mark.parametrize("isd_m", [18.5, 25.0])
def test_drop_share_matches_the_sampler(isd_m):
    # Monte-Carlo oracle: the share of the sampling square that the drop keeps
    # for one sector, on both sides of the disc crossing the hexagon's edges
    sector = build_hex_layout(0, isd_m, PANEL, 25.0)[0]
    radius = isd_m / math.sqrt(3.0)
    candidates = np.random.default_rng(5).uniform(-radius, radius, size=(400_000, 2))
    kept = np.mean(_in_dominance_area(candidates, sector.bearing_deg, isd_m))
    assert kept == pytest.approx(gue_drop_share(isd_m), rel=0.1)


def test_drop_share_of_a_huge_isd_is_a_third_of_the_hexagon():
    # the disc vanishes against the square; squaring such an ISD would overflow
    third_of_hexagon = math.sqrt(3.0) / 8.0  # 3 sqrt(3) / 2 R^2 / 3 over (2 R)^2
    for isd_m in (1e154, 1.7e308):
        assert gue_drop_share(isd_m) == pytest.approx(third_of_hexagon)


def test_smallest_accepted_isd_drops_ground_users():
    # 17.92 m is just above the floor that config validation rejects
    assert gue_drop_share(17.91) <= GUE_MIN_DROP_SHARE < gue_drop_share(17.92)
    sectors = build_hex_layout(0, 17.92, PANEL, 25.0)
    users = place_ground_users(sectors, 4, 17.92, RngStream(1), 1.5, 0)
    assert len(users) == 12
