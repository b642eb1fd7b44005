"""Large- and small-scale channel generation between entities and sectors.

Large scale follows the urban-macro statistical models (dual-slope path loss
with breakpoint, distance-dependent LoS probability, spatially correlated
log-normal shadowing, 8 dBi / 65-degree element pattern); links to airborne
entities above 22.5 m switch to the aerial variants (height-dependent LoS
probability that saturates at 1, aerial path-loss exponents). Small scale is
a Rician mix of a plane-wave steering vector and an i.i.d. Rayleigh part.

Everything is generated from seeded streams keyed by (snapshot, sector), so a
ChannelSet is bit-reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ChannelParams, RadioConfig
from .scenario import AerialHighway, Scenario, Sector, User


class OutOfValidityRange(UserWarning):
    """Link geometry left the path-loss model's stated validity region."""


AERIAL_MIN_HEIGHT_M = 22.5  # below this, airborne links reuse the ground model
AERIAL_ALWAYS_LOS_HEIGHT_M = 100.0


# --------------------------------------------------------------------------
# Large-scale ingredients
# --------------------------------------------------------------------------

def los_probability(d2d_m, h_ut_m, kind: str):
    """LoS probability for ground or aerial links (urban macro).

    Ground: the standard distance curve, 1 inside 18 m. Aerial: the
    height-parameterized curve for 22.5 m < h < 100 m, exactly 1 at and above
    100 m. Heights at or below 22.5 m use the ground curve.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    h = np.broadcast_to(np.asarray(h_ut_m, dtype=float), d2d.shape).copy()
    if kind == "ground":
        return _ground_p_los(d2d, h)
    if kind != "aerial":
        raise ValueError(f"unknown link kind {kind!r}")
    p = np.ones_like(d2d)
    low = h <= AERIAL_MIN_HEIGHT_M
    mid = (h > AERIAL_MIN_HEIGHT_M) & (h < AERIAL_ALWAYS_LOS_HEIGHT_M)
    if np.any(low):
        p[low] = _ground_p_los(d2d[low], h[low])
    if np.any(mid):
        d1 = np.maximum(460.0 * np.log10(h[mid]) - 700.0, 18.0)
        p1 = 4300.0 * np.log10(h[mid]) - 3800.0
        d = d2d[mid]
        with np.errstate(divide="ignore", invalid="ignore"):
            curve = d1 / d + np.exp(-d / p1) * (1.0 - d1 / d)
        p[mid] = np.where(d <= d1, 1.0, curve)
    return p if p.shape else float(p)


def _ground_p_los(d2d: np.ndarray, h_ut: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        base = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
    c = np.where(h_ut <= 13.0, 0.0, ((np.clip(h_ut, 13.0, 23.0) - 13.0) / 10.0) ** 1.5)
    bonus = 1.0 + c * (5.0 / 4.0) * (d2d / 100.0) ** 3 * np.exp(-d2d / 150.0)
    return np.where(d2d <= 18.0, 1.0, base * bonus)


def path_loss(d2d_m, d3d_m, h_ut_m, kind: str, los, radio: RadioConfig, h_bs_m: float = 25.0):
    """Linear path gain rho for a link (vectorized over the leading shape).

    Ground links use the dual-slope urban-macro LoS curve and its NLoS
    counterpart (lower-bounded by the LoS loss). Aerial links above 22.5 m
    use the aerial exponents. Geometry outside the model's validity region is
    flagged with an OutOfValidityRange warning, not rejected.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    d3d = np.asarray(d3d_m, dtype=float)
    los_arr = np.broadcast_to(np.asarray(los, dtype=bool), d2d.shape)
    h = np.broadcast_to(np.asarray(h_ut_m, dtype=float), d2d.shape)
    if np.any(d3d <= 0.0):
        raise ValueError("3D distance must be positive")
    f_ghz = radio.carrier_freq_hz / 1e9

    if kind == "ground":
        pl_db = _ground_pl_db(d2d, d3d, h, los_arr, f_ghz, h_bs_m)
        if np.any((d2d < 10.0) | (d2d > 5000.0)):
            warnings.warn("2D distance outside [10, 5000] m", OutOfValidityRange, stacklevel=2)
    elif kind == "aerial":
        pl_db = np.empty_like(d2d)
        low = h <= AERIAL_MIN_HEIGHT_M
        if np.any(low):
            pl_db[low] = _ground_pl_db(d2d[low], d3d[low], h[low], los_arr[low], f_ghz, h_bs_m)
        hi = ~low
        if np.any(hi):
            pl_db[hi] = _aerial_pl_db(d3d[hi], h[hi], los_arr[hi], f_ghz)
        if np.any(hi & ((d2d > 4000.0) | (h > 300.0) | (~los_arr & (h > 100.0)))):
            warnings.warn("aerial link outside model validity", OutOfValidityRange, stacklevel=2)
    else:
        raise ValueError(f"unknown link kind {kind!r}")
    gain = 10.0 ** (-pl_db / 10.0)
    return gain if gain.shape else float(gain)


def _ground_los_pl_db(d2d, d3d, h_ut, f_ghz, h_bs):
    # breakpoint with effective environment height 1 m (valid for h_ut <= 13 m)
    d_bp = 4.0 * (h_bs - 1.0) * (h_ut - 1.0) * (f_ghz * 1e9) / 299_792_458.0
    pl1 = 28.0 + 22.0 * np.log10(d3d) + 20.0 * np.log10(f_ghz)
    pl2 = (
        28.0
        + 40.0 * np.log10(d3d)
        + 20.0 * np.log10(f_ghz)
        - 9.0 * np.log10(d_bp**2 + (h_bs - h_ut) ** 2)
    )
    return np.where(d2d <= d_bp, pl1, pl2)


def _ground_pl_db(d2d, d3d, h_ut, los, f_ghz, h_bs):
    pl_los = _ground_los_pl_db(d2d, d3d, h_ut, f_ghz, h_bs)
    pl_nlos_raw = (
        13.54 + 39.08 * np.log10(d3d) + 20.0 * np.log10(f_ghz) - 0.6 * (h_ut - 1.5)
    )
    return np.where(los, pl_los, np.maximum(pl_los, pl_nlos_raw))


def _aerial_pl_db(d3d, h_ut, los, f_ghz):
    pl_los = 28.0 + 22.0 * np.log10(d3d) + 20.0 * np.log10(f_ghz)
    h_safe = np.clip(h_ut, AERIAL_MIN_HEIGHT_M + 1e-9, None)
    pl_nlos = (
        -17.5
        + (46.0 - 7.0 * np.log10(h_safe)) * np.log10(d3d)
        + 20.0 * np.log10(40.0 * np.pi * f_ghz / 3.0)
    )
    return np.where(los, pl_los, pl_nlos)


def aerial_los_shadow_sigma_db(h_ut_m) -> np.ndarray:
    """Height-dependent LoS shadowing std dev for aerial links."""
    return 4.64 * np.exp(-0.0066 * np.asarray(h_ut_m, dtype=float))


def element_gain(azimuth_rad, zenith_rad):
    """Linear gain of one antenna element at panel-frame angles.

    8 dBi peak at boresight (zenith 90 deg, azimuth 0), 65-degree half-power
    beamwidth in both planes, 30 dB front-to-back floor.
    """
    az_deg = np.degrees(np.asarray(azimuth_rad, dtype=float))
    az_deg = (az_deg + 180.0) % 360.0 - 180.0
    zen_deg = np.degrees(np.asarray(zenith_rad, dtype=float))
    a_v = -np.minimum(12.0 * ((zen_deg - 90.0) / 65.0) ** 2, 30.0)
    a_h = -np.minimum(12.0 * (az_deg / 65.0) ** 2, 30.0)
    a_db = 8.0 - np.minimum(-(a_v + a_h), 30.0)
    gain = 10.0 ** (a_db / 10.0)
    return gain if gain.shape else float(gain)


def shadow_field(positions_xy, decorrelation_distance_m: float, sigma_db, rng, n_draws: int = 1):
    """Spatially correlated log-normal shadow gains at the given positions.

    Correlation between two points decays as exp(-distance / d_corr); the
    log-domain marginal is N(0, sigma_db^2). `sigma_db` may vary per position.
    Returns linear gains with shape (n_draws, n_positions), squeezed when
    n_draws == 1.
    """
    unit = _unit_shadow_field(positions_xy, decorrelation_distance_m, rng, n_draws)
    gains = 10.0 ** (np.asarray(sigma_db, dtype=float) * unit / 10.0)
    return gains[0] if n_draws == 1 else gains


def _unit_shadow_field(positions_xy, d_corr_m: float, rng, n_draws: int) -> np.ndarray:
    pos = np.asarray(positions_xy, dtype=float)
    if pos.ndim == 1:
        pos = pos[None, :]
    pos = pos[:, :2]
    n = pos.shape[0]
    if n == 0:
        return np.zeros((n_draws, 0))
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    cov = np.exp(-dist / max(d_corr_m, 1e-12))
    cov[np.diag_indices(n)] += 1e-12
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, n_draws))
    return (chol @ z).T


# --------------------------------------------------------------------------
# Geometry and small-scale fading
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SteeringInputs:
    """Plane-wave geometry of one link, expressed in the panel frame."""

    d3d_m: float
    azimuth_rad: float
    zenith_rad: float
    wave_vector: np.ndarray  # unit 3-vector toward the entity


def _panel_axes(panel) -> np.ndarray:
    """Rows: boresight, panel-horizontal, panel-up unit vectors (global frame)."""
    a = math.radians(panel.bearing_deg)
    t = math.radians(panel.downtilt_deg)
    boresight = np.array([math.cos(t) * math.cos(a), math.cos(t) * math.sin(a), -math.sin(t)])
    horiz = np.array([-math.sin(a), math.cos(a), 0.0])
    up = np.array([math.sin(t) * math.cos(a), math.sin(t) * math.sin(a), math.cos(t)])
    return np.vstack([boresight, horiz, up])


def _link_geometry_arrays(sector: Sector, positions: np.ndarray):
    """Per-entity (d2d, d3d, azimuth, zenith, unit wave vector) in panel frame."""
    delta = positions - sector.position[None, :]
    d3d = np.linalg.norm(delta, axis=1)
    d2d = np.linalg.norm(delta[:, :2], axis=1)
    axes = _panel_axes(sector.panel)
    local = delta @ axes.T
    unit = local / d3d[:, None]
    azimuth = np.arctan2(unit[:, 1], unit[:, 0])
    zenith = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))
    return d2d, d3d, azimuth, zenith, unit


def link_geometry(sector: Sector, position) -> SteeringInputs:
    """Steering geometry for a single entity position."""
    pos = np.asarray(position, dtype=float)[None, :]
    _, d3d, az, zen, unit = _link_geometry_arrays(sector, pos)
    return SteeringInputs(float(d3d[0]), float(az[0]), float(zen[0]), unit[0])


def los_component(steering: SteeringInputs, element_coords: np.ndarray, wavelength_m: float) -> np.ndarray:
    """Unit-modulus plane-wave vector over the panel's M elements."""
    phase = 2.0 * np.pi / wavelength_m * (steering.wave_vector @ element_coords)
    return np.exp(-1j * 2.0 * np.pi * steering.d3d_m / wavelength_m) * np.exp(1j * phase)


def _los_components(unit_wave: np.ndarray, d3d: np.ndarray, coords: np.ndarray, wavelength: float) -> np.ndarray:
    phases = 2.0 * np.pi / wavelength * (unit_wave @ coords)
    return np.exp(-1j * 2.0 * np.pi * d3d / wavelength)[:, None] * np.exp(1j * phases)


def rician_channel(los_vec: np.ndarray, k_linear: float, rng) -> "ChannelVector":
    """Mix the deterministic LoS vector with i.i.d. Rayleigh scattering."""
    if k_linear < 0:
        raise ValueError("Rician K must be >= 0")
    m = los_vec.shape[-1]
    nlos = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    h = math.sqrt(k_linear / (1.0 + k_linear)) * los_vec + math.sqrt(1.0 / (1.0 + k_linear)) * nlos
    return ChannelVector(h_dl=h, rician_k_linear=float(k_linear))


@dataclass(frozen=True)
class LargeScale:
    path_gain_linear: float
    shadow_gain_linear: float
    element_gain_linear: float
    beta_linear: float
    is_los: bool
    p_los: float


@dataclass(frozen=True)
class ChannelVector:
    h_dl: np.ndarray
    rician_k_linear: float


@dataclass(frozen=True)
class ChannelSet:
    """All per-(entity, sector) channel quantities for one snapshot.

    Arrays are indexed [entity, sector] (and [..., element] for h). `beta`
    is exactly rho * tau * g.
    """

    entity_ids: tuple[int, ...]
    kinds: tuple[str, ...]
    positions: np.ndarray  # N x 3
    rho: np.ndarray  # path gain, linear
    tau: np.ndarray  # shadow gain, linear
    g: np.ndarray  # element gain, linear
    beta: np.ndarray
    p_los: np.ndarray
    is_los: np.ndarray
    k_linear: np.ndarray
    h: np.ndarray  # N x B x M complex

    @property
    def n_entities(self) -> int:
        return self.h.shape[0]

    @property
    def n_sectors(self) -> int:
        return self.h.shape[1]

    def large_scale(self, entity: int, sector: int) -> LargeScale:
        return LargeScale(
            path_gain_linear=float(self.rho[entity, sector]),
            shadow_gain_linear=float(self.tau[entity, sector]),
            element_gain_linear=float(self.g[entity, sector]),
            beta_linear=float(self.beta[entity, sector]),
            is_los=bool(self.is_los[entity, sector]),
            p_los=float(self.p_los[entity, sector]),
        )


def build_channels(
    scenario: Scenario,
    entities: Sequence[User],
    snapshot: int | str = 0,
    stream_tag: str = "ue",
) -> ChannelSet:
    """Generate the full ChannelSet for `entities` against every sector.

    Seed keys combine (stream_tag, snapshot, sector id), which makes the
    result independent of sector evaluation order.
    """
    radio = scenario.radio
    params = scenario.channel_params
    sectors = scenario.sectors
    n = len(entities)
    b = len(sectors)
    m = sectors[0].panel.n_elements if b else 0
    positions = np.array([u.position_3d_m for u in entities], dtype=float).reshape(n, 3)
    kinds = tuple(u.kind for u in entities)
    heights = positions[:, 2]

    ground_idx = np.array([i for i, k in enumerate(kinds) if k == "ground"], dtype=int)
    aerial_idx = np.array([i for i, k in enumerate(kinds) if k == "aerial"], dtype=int)

    rho = np.zeros((n, b))
    tau = np.zeros((n, b))
    g = np.zeros((n, b))
    p_los = np.zeros((n, b))
    is_los = np.zeros((n, b), dtype=bool)
    k_lin = np.zeros((n, b))
    h = np.zeros((n, b, m), dtype=complex)

    for sector in sectors:
        j = sector.id
        coords = sector.panel.element_coords(radio.wavelength_m)
        d2d, d3d, az, zen, unit = _link_geometry_arrays(sector, positions)
        g[:, j] = element_gain(az, zen)

        # LoS state, sampled once per link and held for the snapshot
        rng_los = scenario.streams.derive("los", stream_tag, snapshot, j)
        draws = rng_los.uniform(size=n)
        for kind, idx in (("ground", ground_idx), ("aerial", aerial_idx)):
            if idx.size == 0:
                continue
            p = np.atleast_1d(los_probability(d2d[idx], heights[idx], kind))
            p_los[idx, j] = p
            is_los[idx, j] = draws[idx] < p
            rho[idx, j] = np.atleast_1d(
                path_loss(
                    d2d[idx], d3d[idx], heights[idx], kind, is_los[idx, j], radio,
                    h_bs_m=sector.panel.panel_height_m,
                )
            )

        # correlated shadowing: one unit-variance field per entity class,
        # scaled per link by the state-dependent sigma
        rng_shadow = scenario.streams.derive("shadow", stream_tag, snapshot, j)
        unit_field = np.zeros(n)
        if ground_idx.size:
            unit_field[ground_idx] = _unit_shadow_field(
                positions[ground_idx], params.shadow_corr_dist_ground_m, rng_shadow, 1
            )[0]
        if aerial_idx.size:
            unit_field[aerial_idx] = _unit_shadow_field(
                positions[aerial_idx], params.shadow_corr_dist_aerial_m, rng_shadow, 1
            )[0]
        sigma = np.zeros(n)
        if ground_idx.size:
            sigma[ground_idx] = np.where(
                is_los[ground_idx, j],
                params.shadow_sigma_los_ground_db,
                params.shadow_sigma_nlos_ground_db,
            )
        if aerial_idx.size:
            sigma[aerial_idx] = np.where(
                is_los[aerial_idx, j],
                aerial_los_shadow_sigma_db(heights[aerial_idx]),
                params.shadow_sigma_nlos_aerial_db,
            )
        tau[:, j] = 10.0 ** (sigma * unit_field / 10.0)

        # small-scale: Rician around the plane-wave component
        k_lin[:, j] = np.where(
            is_los[:, j], params.rician_k_linear(True), params.rician_k_linear(False)
        )
        h_los = _los_components(unit, d3d, coords, radio.wavelength_m)
        rng_fade = scenario.streams.derive("fading", stream_tag, snapshot, j)
        h_nlos = (rng_fade.standard_normal((n, m)) + 1j * rng_fade.standard_normal((n, m))) / math.sqrt(2.0)
        kk = k_lin[:, j][:, None]
        h[:, j, :] = np.sqrt(kk / (1.0 + kk)) * h_los + np.sqrt(1.0 / (1.0 + kk)) * h_nlos

    beta = rho * tau * g
    return ChannelSet(
        entity_ids=tuple(u.id for u in entities),
        kinds=kinds,
        positions=positions,
        rho=rho,
        tau=tau,
        g=g,
        beta=beta,
        p_los=p_los,
        is_los=is_los,
        k_linear=k_lin,
        h=h,
    )


# --------------------------------------------------------------------------
# Expected (deterministic) channels for the highway
# --------------------------------------------------------------------------

def expected_channel(sector: Sector, position, radio: RadioConfig, params: ChannelParams) -> np.ndarray:
    """Deterministic mean channel: sqrt(rho g) * sqrt(K/(1+K)) * LoS vector.

    Shadowing enters at its median (gain 1) and the Rayleigh part averages to
    zero; with a LoS probability below one the mean is scaled accordingly.
    """
    pos = np.asarray(position, dtype=float)[None, :]
    return _expected_rows(sector, pos, radio, params)[0]


def _expected_rows(sector: Sector, positions: np.ndarray, radio: RadioConfig, params: ChannelParams) -> np.ndarray:
    heights = positions[:, 2]
    kind = "aerial" if np.all(heights > AERIAL_MIN_HEIGHT_M) else "ground"
    d2d, d3d, az, zen, unit = _link_geometry_arrays(sector, positions)
    p = np.atleast_1d(los_probability(d2d, heights, kind))
    rho_los = np.atleast_1d(
        path_loss(d2d, d3d, heights, kind, True, radio, h_bs_m=sector.panel.panel_height_m)
    )
    gains = element_gain(az, zen)
    k = params.rician_k_linear(True)
    coords = sector.panel.element_coords(radio.wavelength_m)
    h_los = _los_components(unit, d3d, coords, radio.wavelength_m)
    amp = p * np.sqrt(rho_los * gains) * math.sqrt(k / (1.0 + k))
    return amp[:, None] * h_los


@dataclass(frozen=True)
class HighwayChannels:
    """Expected channel matrix of every highway point toward one sector."""

    sector_id: int
    matrix: np.ndarray  # N_r x M
    segments: tuple[tuple[int, int], ...]

    def segment_matrix(self, z: int) -> np.ndarray:
        a, b = self.segments[z]
        return self.matrix[a:b]

    def complement_matrix(self, z: int) -> np.ndarray:
        a, b = self.segments[z]
        return np.vstack([self.matrix[:a], self.matrix[b:]])


def stack_highway_channels(
    highway: AerialHighway, sector: Sector, radio: RadioConfig, params: ChannelParams
) -> HighwayChannels:
    """Expected channel rows for all highway points toward `sector`."""
    matrix = _expected_rows(sector, highway.points, radio, params)
    return HighwayChannels(sector_id=sector.id, matrix=matrix, segments=highway.segments)


def dump_channels_csv(channels: ChannelSet, path) -> None:
    """Regression dump: one row per link with beta and the complex entries."""
    m = channels.h.shape[2]
    header = ["ue_id", "sector_id", "beta_db"]
    for i in range(m):
        header += [f"h{i}_re", f"h{i}_im"]
    lines = [",".join(header)]
    for e in range(channels.n_entities):
        for b in range(channels.n_sectors):
            beta_db = 10.0 * math.log10(channels.beta[e, b])
            row = [str(channels.entity_ids[e]), str(b), f"{beta_db:.10g}"]
            for x in channels.h[e, b]:
                row += [f"{x.real:.10g}", f"{x.imag:.10g}"]
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
