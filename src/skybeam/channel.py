"""Large- and small-scale channel generation between entities and sectors.

Large scale follows the urban-macro statistical models (dual-slope path loss
with breakpoint, distance-dependent LoS probability, spatially correlated
log-normal shadowing, 8 dBi / 65-degree element pattern). A link's UE
height picks every large-scale quantity: links at or below 22.5 m use the
ground model (LoS curve, path loss, shadow sigmas, decorrelation distance),
links above it the aerial one (height-dependent LoS probability that
saturates at 1, aerial path-loss exponents, height-dependent LoS shadow
sigma, aerial decorrelation distance). Small scale is a Rician mix of a
plane-wave steering vector and an i.i.d. Rayleigh part.

Everything is generated from seeded streams keyed by (kind of draw, stream
tag, snapshot, sector): the LoS uniforms, the shadow draws and the fading
draws, all of a build's streams derived in one `RngStream.derive_many`
call. `build_channels(scenario, entities, snapshot, stream_tag)` builds
every block: an `entity_block` at the rows of an (n, 3) position array, on
its own stream tag: "ue" for the ground users of a snapshot, "uav" for its
UAVs and "highway-point" for the static corridor points. One block's
channels therefore never depend on another block, and a ChannelSet is
bit-reproducible regardless of evaluation order. A ChannelSet holds each
link's large-scale gain `beta` and small-scale channel `h`. A block is built
in `link_geometry`'s sector-major layout, and only `beta` is transposed at
the end. The keyed draws stay per sector, in two passes: the large-scale
draws first and the small-scale fading second. In between, the
deterministic large-scale functions (`element_gain`, `los_probability`,
`path_loss`, the shadow gain) run once over all links. The Rician mix runs over chunks of sectors of
about `_MIX_LINKS` links: a small UAV block or the corridor points mix
every sector at once, a ground block a few sectors at a time. A link whose
Rician K is 0 (every NLoS link under the default `rician_k_nlos_db = None`)
is pure Rayleigh, so the plane wave is computed only for links with K > 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import ChannelParams, RadioConfig
from .scenario import Scenario, Sector


class OutOfValidityRange(UserWarning):
    """Link geometry left the path-loss model's stated validity region."""


AERIAL_MIN_HEIGHT_M = 22.5  # links at or below it use the ground model, above it the aerial one
AERIAL_ALWAYS_LOS_HEIGHT_M = 100.0
_MIX_LINKS = 1024  # links per Rician mix: all sectors of a UAV block, 4 of a ground block


# --------------------------------------------------------------------------
# Large-scale ingredients
# --------------------------------------------------------------------------

def los_probability(d2d_m, h_ut_m):
    """LoS probability of urban-macro links, the model picked by UE height.

    At or below `AERIAL_MIN_HEIGHT_M` (22.5 m): the ground distance curve, 1
    inside 18 m. Above it: the height-parameterized aerial curve below
    100 m, exactly 1 at and above 100 m.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    h = np.broadcast_to(np.asarray(h_ut_m, dtype=float), d2d.shape)
    p = np.ones_like(d2d)
    low = h <= AERIAL_MIN_HEIGHT_M
    mid = ~low & (h < AERIAL_ALWAYS_LOS_HEIGHT_M)
    if np.any(low):
        p[low] = _ground_p_los(d2d[low], h[low])
    if np.any(mid):
        d1 = np.maximum(460.0 * np.log10(h[mid]) - 700.0, 18.0)
        p1 = 4300.0 * np.log10(h[mid]) - 3800.0
        d = d2d[mid]
        with np.errstate(divide="ignore", invalid="ignore"):
            curve = d1 / d + np.exp(-d / p1) * (1.0 - d1 / d)
        p[mid] = np.where(d <= d1, 1.0, curve)
    return p


def _ground_p_los(d2d: np.ndarray, h_ut: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        base = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
    c = np.where(h_ut <= 13.0, 0.0, ((np.clip(h_ut, 13.0, 23.0) - 13.0) / 10.0) ** 1.5)
    bonus = 1.0 + c * (5.0 / 4.0) * (d2d / 100.0) ** 3 * np.exp(-d2d / 150.0)
    return np.where(d2d <= 18.0, 1.0, base * bonus)


def path_loss(d2d_m, d3d_m, h_ut_m, los, radio: RadioConfig, h_bs_m):
    """Linear path gain rho for a link (vectorized over the shape of `d2d_m`).

    `d3d_m` has that shape; the UE heights, the LoS states and the
    base-station heights `h_bs_m` broadcast to it. Links at or below 22.5 m
    use the dual-slope urban-macro LoS curve and its NLoS counterpart
    (lower-bounded by the LoS loss), links above it the aerial exponents.
    Geometry outside a model's validity region is flagged, not rejected: at
    most one OutOfValidityRange warning per model and call.
    """
    d2d = np.asarray(d2d_m, dtype=float)
    d3d = np.asarray(d3d_m, dtype=float)
    los_arr = np.broadcast_to(np.asarray(los, dtype=bool), d2d.shape)
    h = np.broadcast_to(np.asarray(h_ut_m, dtype=float), d2d.shape)
    h_bs = np.broadcast_to(np.asarray(h_bs_m, dtype=float), d2d.shape)
    if np.any(d3d <= 0.0):
        raise ValueError("3D distance must be positive")
    f_ghz = radio.carrier_freq_hz / 1e9

    pl_db = np.empty_like(d2d)
    low = h <= AERIAL_MIN_HEIGHT_M
    if np.any(low):
        pl_db[low] = _ground_pl_db(d2d[low], d3d[low], h[low], los_arr[low], f_ghz, h_bs[low])
        if np.any(low & ((d2d < 10.0) | (d2d > 5000.0))):
            warnings.warn("2D distance outside [10, 5000] m", OutOfValidityRange, stacklevel=2)
    hi = ~low
    if np.any(hi):
        pl_db[hi] = _aerial_pl_db(d3d[hi], h[hi], los_arr[hi], f_ghz)
        if np.any(hi & ((d2d > 4000.0) | (h > 300.0) | (~los_arr & (h > 100.0)))):
            warnings.warn("aerial link outside model validity", OutOfValidityRange, stacklevel=2)
    return 10.0 ** (-pl_db / 10.0)


def _ground_los_pl_db(d2d, d3d, h_ut, f_ghz, h_bs):
    # Breakpoint with effective environment height h_E = 1 m on every link at
    # or below 22.5 m. TR 38.901 (Table 7.4.1-1, note 1) fixes h_E = 1 m only
    # up to 13 m; between 13 and 23 m it draws h_E per link, 1 m being the
    # likeliest value. Links between 13 and 22.5 m keep the deterministic
    # 1 m: a drawn h_E would need a keyed stream of its own, and the
    # corridor's mean channels (`expected_channels`), which score the
    # designation, would stop being a function of the geometry alone. 1 m
    # gives the furthest breakpoint any draw can give.
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
    pl_nlos = (
        -17.5
        + (46.0 - 7.0 * np.log10(h_ut)) * np.log10(d3d)
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
    return 10.0 ** (a_db / 10.0)


def shadow_factor(positions_xy, decorrelation_distance_m: float) -> np.ndarray:
    """Step 1 of shadowing: the Cholesky factor of the positions' field covariance.

    Correlation between two points decays as exp(-distance / d_corr). The
    factor depends only on the positions, so one factor serves every draw
    (every sector) for the same set of entities. Returns an (n, n) array.
    """
    pos = np.asarray(positions_xy, dtype=float)
    if pos.ndim == 1:
        pos = pos[None, :]
    pos = pos[:, :2]
    n = pos.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    dx = pos[:, None, 0] - pos[None, :, 0]
    dy = pos[:, None, 1] - pos[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)  # np.linalg.norm's bytes: it sums the squares left to right
    cov = np.exp(-dist / max(decorrelation_distance_m, 1e-12))
    cov[np.diag_indices(n)] += 1e-12
    return np.linalg.cholesky(cov)


def shadow_field(factor: np.ndarray, rng) -> np.ndarray:
    """Step 2 of shadowing: a correlated unit-variance field drawn through `factor`.

    `factor` comes from `shadow_factor`; the draw is one N(0, 1) value per
    position, correlated as the factor says. `shadow_gain` scales it to dB.
    Returns shape (n_positions,).
    """
    return (factor @ rng.standard_normal((factor.shape[0], 1)))[:, 0]


def shadow_gain(sigma_db, field) -> np.ndarray:
    """Step 3 of shadowing: linear gains 10 ** (sigma_db * field / 10).

    `field` comes from `shadow_field`, so the log-domain marginal is
    N(0, sigma_db^2); `sigma_db` may vary per link.
    """
    return 10.0 ** (np.asarray(sigma_db, dtype=float) * field / 10.0)


# --------------------------------------------------------------------------
# Geometry and small-scale fading
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _panel_axes(bearing_deg: float, downtilt_deg: float) -> np.ndarray:
    """Rows: boresight, panel-horizontal, panel-up unit vectors (global frame).

    A layout has a few distinct orientations and every build asks for each
    sector's, so the axes are built once per orientation and read-only.
    """
    a = math.radians(bearing_deg)
    t = math.radians(downtilt_deg)
    boresight = np.array([math.cos(t) * math.cos(a), math.cos(t) * math.sin(a), -math.sin(t)])
    horiz = np.array([-math.sin(a), math.cos(a), 0.0])
    up = np.array([math.sin(t) * math.cos(a), math.sin(t) * math.sin(a), math.cos(t)])
    axes = np.vstack([boresight, horiz, up])
    axes.flags.writeable = False
    return axes


def link_geometry(sectors: Sequence[Sector], positions: np.ndarray):
    """Every (sector, entity) link's (d2d, d3d, azimuth, zenith, unit wave vector).

    Angles and unit vectors are in each sector's panel frame. Arrays are
    indexed [sector, entity], and the unit vectors [sector, entity, axis]:
    one (B, N, 3) offset array and one stacked product with the panel axes.
    An entity at a panel's position (3D distance 0) has no direction; it
    raises ValueError naming the entity row and the sector id.
    """
    origins = np.array([sector.position_3d_m for sector in sectors]).reshape(-1, 3)
    axes = np.array(
        [_panel_axes(sector.bearing_deg, sector.panel.downtilt_deg) for sector in sectors]
    ).reshape(-1, 3, 3)
    delta = positions[None, :, :] - origins[:, None, :]
    # the squares summed left to right, as np.linalg.norm sums them
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    d2d_sq = dx * dx + dy * dy
    d3d = np.sqrt(d2d_sq + dz * dz)
    at_panel = np.argwhere(d3d == 0.0)
    if at_panel.size:
        j, i = at_panel[0]
        raise ValueError(
            f"entity row {i} is at the panel of sector {sectors[j].id} (3D distance 0)"
        )
    d2d = np.sqrt(d2d_sq)
    unit = delta @ axes.transpose(0, 2, 1)
    unit /= d3d[..., None]
    azimuth = np.arctan2(unit[..., 1], unit[..., 0])
    zenith = np.arccos(np.clip(unit[..., 2], -1.0, 1.0))
    return d2d, d3d, azimuth, zenith, unit


def los_components(
    unit_wave: np.ndarray, d3d: np.ndarray, coords: np.ndarray, wavelength: float, rows=slice(None)
) -> np.ndarray:
    """Unit-modulus plane-wave vectors, one row of the panel's M elements per link in `rows`.

    `unit_wave` is one sector's (N, 3) unit wave vectors with `d3d` (N,),
    or S sectors' (S, N, 3) with (S, N); `coords` is the panel's (3, M)
    element offsets; `rows` indexes the links in sector-major order. The
    phase product `unit_wave @ coords` runs over every entity, whatever `rows`
    selects: a product over a subset of rows can round differently, and a
    row's value must not depend on which other rows are asked for.
    """
    phases = (unit_wave @ coords).reshape(-1, coords.shape[-1])[rows]
    phases *= 2.0 * np.pi / wavelength
    wave = 1j * phases
    np.exp(wave, out=wave)
    # in place, with the operands in the order of the spelled-out product
    delay = np.exp(-1j * 2.0 * np.pi * d3d.reshape(-1)[rows] / wavelength)
    return np.multiply(delay[:, None], wave, out=wave)


@dataclass(frozen=True)
class ChannelSet:
    """A block's channels toward every sector: `beta` [entity, sector] is each
    link's large-scale gain (path gain x shadow gain x element gain, linear)
    and `h` [entity, sector, element] its small-scale channel."""

    beta: np.ndarray
    h: np.ndarray  # N x B x M complex


def entity_block(positions: np.ndarray) -> np.recarray:
    """The input of `build_channels`: one record per row of an (n, 3)
    position array, with its `position_3d_m`."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    block = np.recarray(positions.shape[0], dtype=[("position_3d_m", "f8", (3,))])
    block.position_3d_m = positions
    return block


def _block_shadow_factor(params: ChannelParams, positions: np.ndarray) -> np.ndarray:
    """A block's shadow factor, built once per side of `AERIAL_MIN_HEIGHT_M`.

    Each row's height picks its shadow field, as it picks its model: the
    rows at or below 22.5 m share the ground field and its decorrelation
    distance, the rows above it the aerial one. The factor is
    block-diagonal over the two: each side's rows get the `shadow_factor`
    of their own positions, and the covariance between the sides is exactly
    0. A block on one side gets that side's factor alone.
    """
    aerial = positions[:, 2] > AERIAL_MIN_HEIGHT_M
    factor = np.zeros((len(positions),) * 2)
    for rows, d_corr in ((~aerial, params.shadow_corr_dist_ground_m), (aerial, params.shadow_corr_dist_aerial_m)):
        if rows.any():
            factor[np.ix_(rows, rows)] = shadow_factor(positions[rows], d_corr)
    return factor


def _large_scale(scenario: Scenario, heights: np.ndarray, links, los_draws, shadow_unit):
    """The deterministic large-scale step over all (sector, entity) links.

    `links` is `link_geometry`'s (d2d, d3d, azimuth, zenith); it and the
    block's LoS uniforms `los_draws` and unit shadow draws `shadow_unit` are
    [sector, entity]. Each entity's height picks its shadow sigmas: the
    ground ones at or below `AERIAL_MIN_HEIGHT_M`, the aerial ones above it;
    each sector's own mast height enters its path loss. Returns every link's
    `beta` = rho * tau * g and Rician K, [sector, entity]; rho, tau, g and
    the LoS states stay local.
    """
    params = scenario.channel_params
    d2d, d3d, az, zen = links
    aerial = heights > AERIAL_MIN_HEIGHT_M
    sigma_los = np.where(aerial, aerial_los_shadow_sigma_db(heights), params.shadow_sigma_los_ground_db)
    sigma_nlos = np.where(aerial, params.shadow_sigma_nlos_aerial_db, params.shadow_sigma_nlos_ground_db)

    # LoS state (held for the snapshot), path gain, shadow gain, element gain
    is_los = los_draws < los_probability(d2d, heights)
    h_bs = np.array([sector.position_3d_m[2] for sector in scenario.sectors])[:, None]
    rho = path_loss(d2d, d3d, heights, is_los, scenario.radio, h_bs_m=h_bs)
    tau = shadow_gain(np.where(is_los, sigma_los, sigma_nlos), shadow_unit)
    g = element_gain(az, zen)
    k = np.where(is_los, params.rician_k_linear(True), params.rician_k_linear(False))
    return rho * tau * g, k


def _rician_mix(fading, k, unit, d3d, coords, wavelength) -> None:
    """Mix N(0, 1) draws into Rician small-scale fading, in place.

    `fading` is (2, L, M): the real parts of L links' Rayleigh draws, then
    the imaginary parts. The links are S sectors' N entities each,
    sector-major, with `unit` (S, N, 3), `d3d` (S, N) and the panel's
    `coords` (3, M); `k` is their (L,) Rician K. Every part is scaled by
    1/sqrt(2); on a link with K = 0 that is the whole channel. Only links
    with K > 0 are scaled by sqrt(1/(1+K)) and get sqrt(K/(1+K)) times
    their plane wave. Each sector's phase product has the block's own row
    count, whichever links need it (see `los_components`).
    """
    fading *= 1.0 / math.sqrt(2.0)  # unit-power complex Gaussian parts
    rows = np.flatnonzero(k > 0.0)
    if rows.size:
        wave = los_components(unit, d3d, coords, wavelength, rows)
        kr = k[rows, None]
        fading[:, rows] *= np.sqrt(1.0 / (1.0 + kr))
        los_amp = np.sqrt(kr / (1.0 + kr))
        fading[0, rows] += los_amp * wave.real
        fading[1, rows] += los_amp * wave.imag


def build_channels(scenario: Scenario, entities: np.recarray, snapshot: int | str, stream_tag: str) -> ChannelSet:
    """Generate the full ChannelSet of `entities` against every sector.

    `entities` comes from `entity_block`: row i is entity i, at its
    `position_3d_m`, whose height picks every large-scale model of its
    links. Seed keys combine (stream_tag, snapshot, sector id), which makes
    the result independent of sector evaluation order and of every other
    call.

    Every link quantity is held [sector, entity], the layout of one stacked
    `link_geometry` call; `h` is filled in its [entity, sector, element]
    layout, and one transposed copy of `beta` is the only other copy made.
    Three steps. Pass 1 fills one row per sector with its two large-scale
    draws: the LoS uniforms and one correlated unit shadow draw through the
    block's shadow factor (built once per call). `_large_scale` evaluates
    `element_gain`, `los_probability`, `path_loss` and the shadow gain once
    over all links. Pass 2 walks the sectors again for the small-scale
    fading: one (2, N, M) draw gives a sector's Rayleigh parts, real parts
    first. `_rician_mix` turns the draws of a chunk of `_MIX_LINKS // N`
    sectors (at least one) into their channels, copied into `h`: a 12-row
    UAV block mixes all 57 sectors at once, a 228-row ground block 4 at a
    time, so the working set stays near `_MIX_LINKS` links and never reaches
    an (N, B, M) temporary. The draws stay per sector because the keyed
    streams and their draw order are what fixes the output bits; each
    sector's phase product keeps the block's row count, so a chunk rounds as
    a lone sector does.

    `path_loss` runs once per call, so a build whose links leave the model's
    validity region raises at most one `OutOfValidityRange` warning. An
    entity at a panel's position raises ValueError from `link_geometry`.
    """
    positions = entities.position_3d_m
    sectors = scenario.sectors
    wavelength = scenario.radio.wavelength_m
    n = len(positions)
    b = len(sectors)
    factor = _block_shadow_factor(scenario.channel_params, positions)
    d2d, d3d, az, zen, unit = link_geometry(sectors, positions)
    # every sector's los, shadow and fading streams, derived in one batch
    rngs = scenario.streams.derive_many(
        (draw, stream_tag, snapshot, sector.id) for draw in ("los", "shadow", "fading") for sector in sectors
    )
    los_rngs, shadow_rngs, fading_rngs = rngs[:b], rngs[b : 2 * b], rngs[2 * b :]

    # pass 1: the LoS uniforms and the unit shadow draws, one row per sector
    los_draws, shadow_unit = np.empty((b, n)), np.empty((b, n))
    for j in range(b):
        los_draws[j] = los_rngs[j].uniform(size=n)
        shadow_unit[j] = shadow_field(factor, shadow_rngs[j])

    beta, k = _large_scale(scenario, positions[:, 2], (d2d, d3d, az, zen), los_draws, shadow_unit)

    # pass 2: Rician small-scale fading, drawn per sector, mixed per chunk
    m = sectors[0].panel.n_elements if b else 0
    h = np.empty((n, b, m), dtype=complex)
    per_chunk = max(1, _MIX_LINKS // max(n, 1))
    for lo in range(0, b, per_chunk):
        chunk = slice(lo, lo + per_chunk)
        chunk_rngs = fading_rngs[chunk]
        fading = np.empty((2, len(chunk_rngs), n, m))
        for i, rng in enumerate(chunk_rngs):
            fading[:, i] = rng.standard_normal((2, n, m))
        coords = sectors[0].panel.element_coords(wavelength)  # the panel every sector holds
        _rician_mix(fading.reshape(2, -1, m), k[chunk].reshape(-1), unit[chunk], d3d[chunk], coords, wavelength)
        h.real[:, chunk] = fading[0].transpose(1, 0, 2)
        h.imag[:, chunk] = fading[1].transpose(1, 0, 2)
    return ChannelSet(beta=np.ascontiguousarray(beta.T), h=h)


# --------------------------------------------------------------------------
# Expected (deterministic) channels for the highway
# --------------------------------------------------------------------------

def expected_channels(
    sectors: Sequence[Sector], positions: np.ndarray, radio: RadioConfig, params: ChannelParams
) -> np.ndarray:
    """Deterministic mean channel rows: p_los sqrt(rho g) sqrt(K/(1+K)) LoS vector.

    Returns a (B, N, M) array: row b holds every position's mean channel
    toward `sectors[b]`, all sectors in one stacked pass. Shadowing enters
    at its median (gain 1) and the Rayleigh part averages to zero; with a
    LoS probability below one the mean is scaled accordingly.
    """
    heights = positions[:, 2]
    d2d, d3d, az, zen, unit = link_geometry(sectors, positions)
    h_bs = np.array([sector.position_3d_m[2] for sector in sectors])[:, None]
    p = los_probability(d2d, heights)
    rho_los = path_loss(d2d, d3d, heights, True, radio, h_bs_m=h_bs)
    gains = element_gain(az, zen)
    k = params.rician_k_linear(True)
    coords = sectors[0].panel.element_coords(radio.wavelength_m)
    h_los = los_components(unit, d3d, coords, radio.wavelength_m).reshape(d3d.shape + (-1,))
    amp = p * np.sqrt(rho_los * gains) * math.sqrt(k / (1.0 + k))
    return amp[..., None] * h_los
