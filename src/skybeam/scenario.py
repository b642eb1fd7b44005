"""Deployment geometry: hexagonal site grid, sector panels, users, highway.

Coordinate conventions (global frame): x east, y north, z up, meters.
Azimuth angles are measured counter-clockwise from the +x axis; a panel's
``downtilt_deg`` is the angle of its boresight below the horizon, so a beam
steered broadside of an untilted panel leaves horizontally.

All sectors share one `UpaGeometry` panel; a `Sector` adds its id, mast
position and bearing. Users and UAVs are placed as plain (n, 3) position
arrays, one row per entity; `channel.entity_block` wraps one for
`channel.build_channels`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import (
    GUE_MIN_DISTANCE_M, ChannelParams, ConfigError, HighwayParams, LayoutParams, RadioConfig, UsersParams,
    block_params,
)
from .rng import RngStream


# Element spacing of every panel, in wavelengths: the spacing at which the
# codebooks' DFT beams have the direction cosines `codebook._stack` gives them.
ELEMENT_SPACING_WAVELENGTHS = 0.5


class DegenerateHighway(Exception):
    """Raised when the highway polyline has zero length."""


@dataclass(frozen=True)
class UpaGeometry:
    """Uniform planar array: m_h columns (horizontal) x m_v rows (vertical).

    Element offsets live in the panel frame: x boresight, y along the panel
    horizontally, z up the panel; they are symmetric about the panel centre
    and `ELEMENT_SPACING_WAVELENGTHS` apart along both axes.
    """

    m_h: int
    m_v: int
    downtilt_deg: float = 0.0

    @property
    def n_elements(self) -> int:
        return self.m_h * self.m_v

    def element_coords(self, wavelength_m: float) -> np.ndarray:
        """3 x M element offsets in meters, column-major (column varies slowest).

        The offsets do not depend on the panel's tilt, so they are built
        once per (shape, wavelength) and returned read-only.
        """
        return _element_offsets(self.m_h, self.m_v, ELEMENT_SPACING_WAVELENGTHS * wavelength_m)


@functools.lru_cache(maxsize=8)
def _element_offsets(m_h: int, m_v: int, spacing_m: float) -> np.ndarray:
    cols = (np.arange(m_h) - (m_h - 1) / 2.0) * spacing_m
    rows = (np.arange(m_v) - (m_v - 1) / 2.0) * spacing_m
    coords = np.zeros((3, m_h * m_v))
    coords[1] = np.repeat(cols, m_v)
    coords[2] = np.tile(rows, m_h)
    coords.flags.writeable = False
    return coords


@dataclass(frozen=True)
class Sector:
    """The layout's one panel on a mast, facing `bearing_deg` (from +x, counter-clockwise)."""

    id: int
    panel: UpaGeometry
    position_3d_m: tuple[float, float, float]
    bearing_deg: float


@dataclass(frozen=True)
class AerialHighway:
    """Corridor polyline discretized into equidistant points and segments."""

    polyline_3d: np.ndarray  # V x 3 vertices
    total_length_m: float
    points: np.ndarray  # N_r x 3
    segments: tuple[tuple[int, int], ...]  # half-open [start, stop) point ranges

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


def build_hex_layout(tiers: int, isd_m: float, panel: UpaGeometry, height_m: float) -> list[Sector]:
    """Three-sector sites on a hex grid, every sector holding `panel` on a
    `height_m` mast; sector 3 s + k of site s faces 120 k degrees."""
    return [
        Sector(id=3 * site + k, panel=panel, position_3d_m=(float(x), float(y), height_m), bearing_deg=120.0 * k)
        for site, (x, y) in enumerate(hex_site_positions(tiers, isd_m))
        for k in range(3)
    ]


# Hexagonal Voronoi cell of the triangular site lattice: six half-planes with
# outward normals every 60 degrees at distance isd/2.
_HEX_NORMALS = np.array(
    [[math.cos(math.radians(60 * k)), math.sin(math.radians(60 * k))] for k in range(6)]
)


def _in_dominance_area(offsets: np.ndarray, bearing_deg, isd_m: float) -> np.ndarray:
    """Which (..., 2) offsets from a site fall in the dominance area of its
    sector at `bearing_deg`, which broadcasts against offsets[..., 0]."""
    inside_hex = np.all(offsets @ _HEX_NORMALS.T <= isd_m / 2.0 + 1e-9, axis=-1)
    ang = np.degrees(np.arctan2(offsets[..., 1], offsets[..., 0]))
    rel = (ang - bearing_deg + 180.0) % 360.0 - 180.0
    inside_wedge = np.abs(rel) <= 60.0
    far_enough = np.linalg.norm(offsets, axis=-1) >= GUE_MIN_DISTANCE_M
    return inside_hex & inside_wedge & far_enough


def place_ground_users(
    sectors: Sequence[Sector],
    per_cell: int,
    isd_m: float,
    streams: RngStream,
    height_m: float,
    snapshot: int,
) -> np.ndarray:
    """Drop `per_cell` users uniformly inside each sector's dominance area.

    The dominance area is the site's hexagonal lattice cell intersected with
    the 120-degree wedge around the sector bearing. Positions are reproducible
    from (master seed, snapshot, sector id). Returns an (S * per_cell, 3)
    position array, `per_cell` rows per sector, in sector order.

    Each sector draws batches of uniform candidates from its own stream
    until `per_cell` of them fall in its area. The first batch of every
    sector is tested in one stacked pass, (S, batch, 2) offsets against the
    hexagon's edge normals; only the sectors still short of `per_cell` draw
    further batches, in the order one sector alone would draw them.
    """
    positions = np.full((len(sectors), per_cell, 3), float(height_m))
    if per_cell == 0 or not sectors:
        return positions.reshape(-1, 3)
    radius = isd_m / math.sqrt(3.0)  # hexagon circumradius
    size = (max(8 * per_cell, 32), 2)
    rngs = streams.derive_many(("gue-pos", snapshot, sector.id) for sector in sectors)
    bearings = np.array([sector.bearing_deg for sector in sectors])
    first = np.stack([rng.uniform(-radius, radius, size=size) for rng in rngs])
    ok = _in_dominance_area(first, bearings[:, None], isd_m)
    kept = [batch[mask] for batch, mask in zip(first, ok)]
    for k, rng in enumerate(rngs):
        while kept[k].shape[0] < per_cell:
            batch = rng.uniform(-radius, radius, size=size)
            kept[k] = np.vstack([kept[k], batch[_in_dominance_area(batch, bearings[k], isd_m)]])
    centres = np.array([sector.position_3d_m[:2] for sector in sectors])
    positions[:, :, :2] = centres[:, None, :] + np.stack([batch[:per_cell] for batch in kept])
    return positions.reshape(-1, 3)


def discretize_highway(polyline: np.ndarray, d_r: float, n_s: int) -> AerialHighway:
    """Split the corridor into N_r equidistant points and segments of n_s points.

    N_r = floor(L / d_r) + 1 with points at arc lengths 0, d_r, 2 d_r, ...;
    the last segment may hold fewer than n_s points, and a d_r longer than L
    leaves the single point at arc length 0.
    """
    polyline = np.asarray(polyline, dtype=float)
    if polyline.ndim != 2 or polyline.shape[1] != 3 or polyline.shape[0] < 2:
        raise ValueError("polyline must be a V x 3 array with V >= 2")
    total = float(_polyline_cumlen(polyline)[-1])
    if total <= 0.0:
        raise DegenerateHighway("highway polyline has zero length")
    n_points = int(math.floor(total / d_r + 1e-9)) + 1
    arcs = np.arange(n_points) * d_r
    points = _interp_polyline(polyline, arcs)
    segments = tuple(
        (start, min(start + n_s, n_points)) for start in range(0, n_points, n_s)
    )
    return AerialHighway(
        polyline_3d=polyline,
        total_length_m=total,
        points=points,
        segments=segments,
    )


def place_uavs(highway: AerialHighway, d_iud: float, offset_m: float) -> np.ndarray:
    """Evenly spaced UAVs along the corridor, arc positions (offset + k d_iud) mod L.

    Returns an (n, 3) position array, one row per UAV.
    """
    length = highway.total_length_m
    if not 0.0 < d_iud <= length:
        raise ValueError("d_iud must satisfy 0 < d_iud <= highway length")
    count = int(math.floor(length / d_iud + 1e-9))
    arcs = (offset_m + np.arange(count) * d_iud) % length
    return highway.point_at_arc_length(arcs)


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
    layout: LayoutParams
    users: UsersParams
    highway_params: HighwayParams
    sectors: tuple[Sector, ...]
    highway: AerialHighway
    master_seed: int
    streams: RngStream = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "streams", RngStream(self.master_seed))

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    def ground_users(self, snapshot: int) -> np.ndarray:
        return place_ground_users(
            self.sectors, self.users.gues_per_cell, self.layout.isd_m, self.streams,
            height_m=self.users.ground_height_m, snapshot=snapshot,
        )


def scenario_from_config(cfg: dict) -> Scenario:
    """Assemble the immutable Scenario from a validated config dict."""
    layout = block_params(cfg, "layout")
    corridor = block_params(cfg, "highway")

    panel = UpaGeometry(m_h=layout.panel_columns, m_v=layout.panel_rows, downtilt_deg=layout.downtilt_deg)
    sectors = build_hex_layout(layout.tiers, layout.isd_m, panel, layout.bs_height_m)

    polyline = corridor.polyline
    if polyline is None:
        polyline = default_highway_polyline(layout.isd_m, corridor.altitude_m)
    highway = discretize_highway(
        np.asarray(polyline, dtype=float),
        corridor.point_spacing_m,
        corridor.points_per_segment,
    )
    for key in ("point_spacing_m", "uav_spacing_m"):
        if getattr(corridor, key) > highway.total_length_m:
            raise ConfigError(
                f"highway.{key} must not exceed the corridor length {highway.total_length_m:.10g} m"
            )

    return Scenario(
        radio=block_params(cfg, "radio"),
        channel_params=block_params(cfg, "channel"),
        layout=layout,
        users=block_params(cfg, "users"),
        highway_params=corridor,
        sectors=tuple(sectors),
        highway=highway,
        master_seed=cfg["seeds"]["master"],
    )
