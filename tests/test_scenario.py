import math

import numpy as np
import pytest

from skybeam.rng import RngStream
from skybeam.scenario import (
    AerialHighway,
    DegenerateHighway,
    UpaGeometry,
    build_hex_layout,
    default_highway_polyline,
    discretize_highway,
    hex_site_positions,
    place_ground_users,
    place_uavs,
    scenario_from_config,
)

TEMPLATE = UpaGeometry(m_h=4, m_v=8, panel_height_m=25.0)


def straight_line(length, y=0.0, z=100.0):
    return np.array([[-length / 2, y, z], [length / 2, y, z]])


class TestHexLayout:
    def test_two_tiers_gives_19_sites_57_sectors(self):
        sectors = build_hex_layout(2, 500.0, TEMPLATE)
        assert len({s.site_id for s in sectors}) == 19
        assert len(sectors) == 57

    def test_zero_tiers_center_site_only(self):
        sectors = build_hex_layout(0, 500.0, TEMPLATE)
        assert len(sectors) == 3
        assert all(s.site_id == 0 for s in sectors)

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
            sectors = build_hex_layout(tiers, 500.0, TEMPLATE)
            assert len(sectors) == 3 * len({s.site_id for s in sectors})

    def test_bearings_and_ids(self):
        sectors = build_hex_layout(1, 500.0, TEMPLATE)
        for s in sectors:
            assert s.panel.bearing_deg in (0.0, 120.0, 240.0)
            assert s.id == 3 * s.site_id + [0.0, 120.0, 240.0].index(s.panel.bearing_deg)


class TestGroundUsers:
    def test_four_per_cell_over_57_sectors(self):
        sectors = build_hex_layout(2, 500.0, TEMPLATE)
        users = place_ground_users(sectors, 4, 500.0, RngStream(1))
        assert len(users) == 228

    def test_zero_per_cell(self):
        sectors = build_hex_layout(1, 500.0, TEMPLATE)
        assert place_ground_users(sectors, 0, 500.0, RngStream(1)) == []

    def test_same_seed_reproducible(self):
        sectors = build_hex_layout(1, 500.0, TEMPLATE)
        a = place_ground_users(sectors, 4, 500.0, RngStream(7))
        b = place_ground_users(sectors, 4, 500.0, RngStream(7))
        assert all(u.position_3d_m == v.position_3d_m for u, v in zip(a, b))

    def test_positions_inside_dominance_area(self):
        isd = 500.0
        sectors = build_hex_layout(1, isd, TEMPLATE)
        users = place_ground_users(sectors, 6, isd, RngStream(3))
        per_sector = len(users) // len(sectors)
        for k, sector in enumerate(sectors):
            for u in users[k * per_sector : (k + 1) * per_sector]:
                d = u.position[:2] - sector.position[:2]
                # hexagonal lattice cell membership
                for ang in range(0, 360, 60):
                    n = np.array([math.cos(math.radians(ang)), math.sin(math.radians(ang))])
                    assert d @ n <= isd / 2 + 1e-6
                # wedge membership
                rel = (math.degrees(math.atan2(d[1], d[0])) - sector.panel.bearing_deg + 180) % 360 - 180
                assert abs(rel) <= 60.0 + 1e-9
                assert u.height_m == 1.5


class TestHighway:
    def test_25m_spacing_gives_51_points_6_segments(self):
        hw = discretize_highway(straight_line(1250.0), 25.0, 10)
        assert hw.n_points == 51
        assert hw.n_segments == 6
        assert hw.segments[-1] == (50, 51)  # last segment holds the single tail point

    def test_line_of_length_dr(self):
        hw = discretize_highway(straight_line(30.0), 30.0, 2)
        assert hw.n_points == 2
        assert hw.n_segments == 1

    def test_endpoints_only(self):
        hw = discretize_highway(straight_line(1250.0), 1250.0, 2)
        assert hw.n_points == 2

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
        assert covered == list(range(hw.n_points))


class TestUavs:
    @pytest.fixture()
    def highway(self) -> AerialHighway:
        return discretize_highway(straight_line(1250.0), 25.0, 10)

    def test_hundred_meter_spacing_gives_12(self, highway):
        assert len(place_uavs(highway, 100.0)) == 12

    def test_single_uav(self, highway):
        assert len(place_uavs(highway, 1250.0)) == 1

    def test_offset_full_period_wraps(self, highway):
        # modular symmetry requires d_iud to divide the corridor length
        a = place_uavs(highway, 125.0, offset_m=0.0)
        b = place_uavs(highway, 125.0, offset_m=125.0)
        pa = sorted(tuple(np.round(u.position, 6)) for u in a)
        pb = sorted(tuple(np.round(u.position, 6)) for u in b)
        assert pa == pb

    def test_consecutive_spacing(self, highway):
        uavs = place_uavs(highway, 100.0)
        xs = np.sort([u.position_3d_m[0] for u in uavs])
        assert np.allclose(np.diff(xs), 100.0, atol=1e-6)


def test_explicit_zero_uav_spacing_is_not_the_default(small_scenario):
    with pytest.raises(ValueError, match="d_iud"):
        small_scenario.uavs(d_iud=0.0)


def test_scenario_rebuild_bit_identical(small_cfg):
    a = scenario_from_config(small_cfg)
    b = scenario_from_config(small_cfg)
    assert np.array_equal(a.highway.points, b.highway.points)
    ua = np.array([u.position_3d_m for u in a.ground_users(0)])
    ub = np.array([u.position_3d_m for u in b.ground_users(0)])
    assert np.array_equal(ua, ub)


def test_default_polyline_crosses_cell_edges():
    line = default_highway_polyline(500.0, 100.0)
    assert np.linalg.norm(line[1] - line[0]) == pytest.approx(1250.0)
    # corner row between site rows: equidistant-ish from three surrounding sites
    y = line[0][1]
    assert y == pytest.approx(500.0 * math.sqrt(3) / 6)
