"""Deployment geometry: hexagonal site grid, sector panels, users, highway.

Coordinate conventions (global frame): x east, y north, z up, meters.
Azimuth angles are measured counter-clockwise from the +x axis; a panel's
``downtilt_deg`` is the angle of its boresight below the horizon, so a beam
steered broadside of an untilted panel leaves horizontally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ChannelParams, RadioConfig
from .rng import RngStream


class DegenerateHighway(Exception):
    """Raised when the highway polyline has zero length."""


@dataclass(frozen=True)
class UpaGeometry:
    """Uniform planar array: m_h columns (horizontal) x m_v rows (vertical).

    Element offsets live in the panel frame: x boresight, y along the panel
    horizontally, z up the panel; they are symmetric about the panel centre.
    """

    m_h: int
    m_v: int
    element_spacing_h_wavelengths: float = 0.5
    element_spacing_v_wavelengths: float = 0.5
    panel_height_m: float = 25.0
    bearing_deg: float = 0.0
    downtilt_deg: float = 0.0

    @property
    def n_elements(self) -> int:
        return self.m_h * self.m_v

    def element_coords(self, wavelength_m: float) -> np.ndarray:
        """3 x M element offsets in meters, column-major (column varies slowest)."""
        dy = self.element_spacing_h_wavelengths * wavelength_m
        dz = self.element_spacing_v_wavelengths * wavelength_m
        cols = (np.arange(self.m_h) - (self.m_h - 1) / 2.0) * dy
        rows = (np.arange(self.m_v) - (self.m_v - 1) / 2.0) * dz
        coords = np.zeros((3, self.n_elements))
        coords[1] = np.repeat(cols, self.m_v)
        coords[2] = np.tile(rows, self.m_h)
        return coords

    def with_bearing(self, bearing_deg: float) -> "UpaGeometry":
        return UpaGeometry(
            self.m_h,
            self.m_v,
            self.element_spacing_h_wavelengths,
            self.element_spacing_v_wavelengths,
            self.panel_height_m,
            bearing_deg,
            self.downtilt_deg,
        )


@dataclass(frozen=True)
class Sector:
    id: int
    site_id: int
    panel: UpaGeometry
    position_3d_m: tuple[float, float, float]

    @property
    def position(self) -> np.ndarray:
        return np.array(self.position_3d_m)


@dataclass(frozen=True)
class User:
    id: int
    kind: str  # "ground" | "aerial"
    position_3d_m: tuple[float, float, float]

    @property
    def position(self) -> np.ndarray:
        return np.array(self.position_3d_m)

    @property
    def height_m(self) -> float:
        return self.position_3d_m[2]


@dataclass(frozen=True)
class AerialHighway:
    """Corridor polyline discretized into equidistant points and segments."""

    polyline_3d: np.ndarray  # V x 3 vertices
    altitude_m: float
    total_length_m: float
    point_spacing_m: float
    points: np.ndarray  # N_r x 3
    segments: tuple[tuple[int, int], ...]  # half-open [start, stop) point ranges

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def point_at_arc_length(self, s: float | np.ndarray) -> np.ndarray:
        return _interp_polyline(self.polyline_3d, np.atleast_1d(np.asarray(s, dtype=float)))


def _polyline_cumlen(polyline: np.ndarray) -> np.ndarray:
    deltas = np.diff(polyline, axis=0)
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(deltas, axis=1))])


def _interp_polyline(polyline: np.ndarray, s: np.ndarray) -> np.ndarray:
    cum = _polyline_cumlen(polyline)
    out = np.empty((s.size, 3))
    for axis in range(3):
        out[:, axis] = np.interp(s, cum, polyline[:, axis])
    return out


def hex_site_positions(tiers: int, isd_m: float) -> np.ndarray:
    """Site centres of a hexagonal grid with `tiers` rings around the origin.

    Adjacent sites are exactly `isd_m` apart. Sites are ordered by ring and
    then by angle so ids are stable across runs.
    """
    if tiers < 0:
        raise ValueError("tiers must be >= 0")
    if isd_m <= 0:
        raise ValueError("isd_m must be positive")
    cells = []
    for q in range(-tiers, tiers + 1):
        for r in range(-tiers, tiers + 1):
            ring = max(abs(q), abs(r), abs(q + r))
            if ring <= tiers:
                x = isd_m * (q + r / 2.0)
                y = isd_m * (math.sqrt(3.0) / 2.0) * r
                ang = math.atan2(y, x) % (2.0 * math.pi)
                cells.append((ring, ang, x, y))
    cells.sort()
    return np.array([[x, y] for _, _, x, y in cells])


def build_hex_layout(tiers: int, isd_m: float, sector_template: UpaGeometry) -> list[Sector]:
    """Three-sector sites on a hex grid; bearings 0/120/240 degrees at each site."""
    sites = hex_site_positions(tiers, isd_m)
    sectors = []
    for site_id, (x, y) in enumerate(sites):
        for k in range(3):
            panel = sector_template.with_bearing(120.0 * k)
            sectors.append(
                Sector(
                    id=3 * site_id + k,
                    site_id=site_id,
                    panel=panel,
                    position_3d_m=(float(x), float(y), sector_template.panel_height_m),
                )
            )
    return sectors


# Hexagonal Voronoi cell of the triangular site lattice: six half-planes with
# outward normals every 60 degrees at distance isd/2.
_HEX_NORMALS = np.array(
    [[math.cos(math.radians(60 * k)), math.sin(math.radians(60 * k))] for k in range(6)]
)


def _in_dominance_area(offsets: np.ndarray, bearing_deg: float, isd_m: float) -> np.ndarray:
    inside_hex = np.all(offsets @ _HEX_NORMALS.T <= isd_m / 2.0 + 1e-9, axis=1)
    ang = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0]))
    rel = (ang - bearing_deg + 180.0) % 360.0 - 180.0
    inside_wedge = np.abs(rel) <= 60.0
    far_enough = np.linalg.norm(offsets, axis=1) >= 10.0  # path-loss validity floor
    return inside_hex & inside_wedge & far_enough


def place_ground_users(
    sectors: Sequence[Sector],
    per_cell: int,
    isd_m: float,
    streams: RngStream,
    height_m: float = 1.5,
    snapshot: int = 0,
) -> list[User]:
    """Drop `per_cell` users uniformly inside each sector's dominance area.

    The dominance area is the site's hexagonal lattice cell intersected with
    the 120-degree wedge around the sector bearing. Positions are reproducible
    from (master seed, snapshot, sector id).
    """
    if per_cell < 0:
        raise ValueError("per_cell must be >= 0")
    users: list[User] = []
    radius = isd_m / math.sqrt(3.0)  # hexagon circumradius
    uid = 0
    for sector in sectors:
        if per_cell == 0:
            continue
        rng = streams.derive("gue-pos", snapshot, sector.id)
        kept = np.empty((0, 2))
        while kept.shape[0] < per_cell:
            batch = rng.uniform(-radius, radius, size=(max(8 * per_cell, 32), 2))
            ok = batch[_in_dominance_area(batch, sector.panel.bearing_deg, isd_m)]
            kept = np.vstack([kept, ok])
        kept = kept[:per_cell]
        for x, y in kept:
            users.append(
                User(
                    id=uid,
                    kind="ground",
                    position_3d_m=(
                        float(sector.position_3d_m[0] + x),
                        float(sector.position_3d_m[1] + y),
                        float(height_m),
                    ),
                )
            )
            uid += 1
    return users


def discretize_highway(polyline: np.ndarray, d_r: float, n_s: int) -> AerialHighway:
    """Split the corridor into N_r equidistant points and segments of n_s points.

    N_r = floor(L / d_r) + 1 with points at arc lengths 0, d_r, 2 d_r, ...;
    the last segment may hold fewer than n_s points.
    """
    polyline = np.asarray(polyline, dtype=float)
    if polyline.ndim != 2 or polyline.shape[1] != 3 or polyline.shape[0] < 2:
        raise ValueError("polyline must be a V x 3 array with V >= 2")
    total = float(_polyline_cumlen(polyline)[-1])
    if total <= 0.0:
        raise DegenerateHighway("highway polyline has zero length")
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    if total < d_r:
        raise ValueError("polyline shorter than the point spacing d_r")
    n_points = int(math.floor(total / d_r + 1e-9)) + 1
    arcs = np.arange(n_points) * d_r
    points = _interp_polyline(polyline, arcs)
    segments = tuple(
        (start, min(start + n_s, n_points)) for start in range(0, n_points, n_s)
    )
    return AerialHighway(
        polyline_3d=polyline,
        altitude_m=float(np.mean(polyline[:, 2])),
        total_length_m=total,
        point_spacing_m=float(d_r),
        points=points,
        segments=segments,
    )


def place_uavs(highway: AerialHighway, d_iud: float, offset_m: float = 0.0) -> list[User]:
    """Evenly spaced UAVs along the corridor, arc positions (offset + k d_iud) mod L."""
    length = highway.total_length_m
    if not 0.0 < d_iud <= length:
        raise ValueError("d_iud must satisfy 0 < d_iud <= highway length")
    count = int(math.floor(length / d_iud + 1e-9))
    arcs = (offset_m + np.arange(count) * d_iud) % length
    positions = highway.point_at_arc_length(arcs)
    return [
        User(id=k, kind="aerial", position_3d_m=(float(p[0]), float(p[1]), float(p[2])))
        for k, p in enumerate(positions)
    ]


def default_highway_polyline(isd_m: float, altitude_m: float, length_m: float = 1250.0) -> np.ndarray:
    """Straight west-east chord through the central cluster's cell-corner row.

    Runs at y = isd * sqrt(3) / 6, the line of three-cell corner points
    between the central site row and the one above it, so it repeatedly
    crosses cell-edge regions without overflying any site.
    """
    half = length_m / 2.0
    y = isd_m * math.sqrt(3.0) / 6.0
    return np.array([[-half, y, altitude_m], [half, y, altitude_m]])


@dataclass(frozen=True)
class Scenario:
    """Immutable deployment shared by every stage of the pipeline."""

    radio: RadioConfig
    channel_params: ChannelParams
    sectors: tuple[Sector, ...]
    highway: AerialHighway
    isd_m: float
    gues_per_cell: int
    ground_height_m: float
    uav_spacing_m: float
    master_seed: int
    streams: RngStream = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "streams", RngStream(self.master_seed))

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    def ground_users(self, snapshot: int = 0) -> list[User]:
        return place_ground_users(
            self.sectors,
            self.gues_per_cell,
            self.isd_m,
            self.streams,
            height_m=self.ground_height_m,
            snapshot=snapshot,
        )

    def uavs(self, offset_m: float = 0.0, d_iud: float | None = None) -> list[User]:
        if d_iud is None:
            d_iud = self.uav_spacing_m
        return place_uavs(self.highway, d_iud, offset_m)


def scenario_from_config(cfg: dict) -> Scenario:
    """Assemble the immutable Scenario from a validated config dict."""
    from .config import channel_params_from_config, radio_from_config

    radio = radio_from_config(cfg)
    layout = cfg["layout"]
    highway_cfg = cfg["highway"]
    users_cfg = cfg["users"]

    template = UpaGeometry(
        m_h=int(layout["panel_columns"]),
        m_v=int(layout["panel_rows"]),
        element_spacing_h_wavelengths=float(layout["element_spacing_h_wavelengths"]),
        element_spacing_v_wavelengths=float(layout["element_spacing_v_wavelengths"]),
        panel_height_m=float(layout["bs_height_m"]),
        downtilt_deg=float(layout["downtilt_deg"]),
    )
    sectors = build_hex_layout(int(layout["tiers"]), float(layout["isd_m"]), template)

    polyline = highway_cfg["polyline"]
    if polyline is None:
        polyline = default_highway_polyline(float(layout["isd_m"]), float(highway_cfg["altitude_m"]))
    highway = discretize_highway(
        np.asarray(polyline, dtype=float),
        float(highway_cfg["point_spacing_m"]),
        int(highway_cfg["points_per_segment"]),
    )

    return Scenario(
        radio=radio,
        channel_params=channel_params_from_config(cfg),
        sectors=tuple(sectors),
        highway=highway,
        isd_m=float(layout["isd_m"]),
        gues_per_cell=int(users_cfg["gues_per_cell"]),
        ground_height_m=float(users_cfg["ground_height_m"]),
        uav_spacing_m=float(highway_cfg["uav_spacing_m"]),
        master_seed=int(cfg["seeds"]["master"]),
    )
