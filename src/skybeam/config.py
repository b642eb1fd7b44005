"""Run configuration: parameter classes plus the JSON config file schema.

The config file is plain JSON with five mandatory blocks (``radio``,
``layout``, ``highway``, ``users``, ``seeds``) and three optional ones
(``channel``, ``codebook``, ``optimizer``). Every key has a default; unknown
keys are rejected so typos fail fast. Units: meters, Hz, dBm throughout.

Every block but ``seeds`` is the fields of one frozen parameter class, with
the class defaults: `RadioConfig`, `LayoutParams`, `HighwayParams`,
`UsersParams`, `ChannelParams`, `CodebookParams` and `EgaParams`. The
optimizer block leaves out ``seed``, which is ``seeds.master``. Each class
checks its numeric fields by one rule (`_check_fields`) and its cross-field
conditions itself; `validate_config` builds all seven, so every check applies
to every config, and `block_params` builds one block's class. A rejected
value raises `ConfigError` naming ``block.key``.

``seeds.master`` is an integer in [0, 2**64), the seeds `rng.RngStream`
tells apart. The panel's half-wavelength element spacing is derived, not a
key. `RadioConfig.noise_mw` is the receiver noise of every SINR.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

SPEED_OF_LIGHT = 299_792_458.0
SSB_BANDWIDTH_HZ = 240 * 30e3  # 240 subcarriers of 30 kHz


class ConfigError(Exception):
    """Invalid or missing configuration entry; message names the key."""


@dataclass(frozen=True)
class RadioConfig:
    """Carrier, data band (`n_prb_total` PRBs) and power constants shared by all sectors."""

    carrier_freq_hz: float = 3.5e9
    n_prb_total: int = 75
    prb_bandwidth_hz: float = 360e3
    noise_psd_dbm_per_hz: float = -174.0
    ue_noise_figure_db: float = 9.0
    sector_tx_power_dbm: float = 46.0

    def __post_init__(self):
        _check_fields(self, "radio", positive=("carrier_freq_hz", "prb_bandwidth_hz"))
        noise = "the noise of radio.noise_psd_dbm_per_hz and radio.ue_noise_figure_db over"
        band = "the data band, radio.n_prb_total x radio.prb_bandwidth_hz"
        for name, to_mw, value in (
            ("radio.sector_tx_power_dbm", dbm_to_mw, self.sector_tx_power_dbm),
            (f"{noise} the SSB", self.noise_mw, SSB_BANDWIDTH_HZ),
            (f"{noise} one PRB, radio.prb_bandwidth_hz", self.noise_mw, self.prb_bandwidth_hz),
            (f"{noise} {band}", self.noise_mw, self.n_prb_total * self.prb_bandwidth_hz),
        ):
            try:
                linear = to_mw(value)
            except OverflowError:
                linear = math.inf
            if not 0.0 < linear < math.inf:
                raise ConfigError(f"{name} must give a positive, finite linear value")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    def noise_mw(self, bandwidth_hz: float) -> float:
        """A UE receiver's noise over `bandwidth_hz`: the thermal PSD times
        the bandwidth times the noise figure, summed in dBm. The coverage
        SINR takes it over the SSB, the segment metric over one PRB and the
        data phase over a UE's share of the band."""
        return dbm_to_mw(self.noise_psd_dbm_per_hz + 10.0 * math.log10(bandwidth_hz) + self.ue_noise_figure_db)

    @property
    def ssb_noise_mw(self) -> float:
        return self.noise_mw(SSB_BANDWIDTH_HZ)

    @property
    def sector_tx_power_mw(self) -> float:
        return dbm_to_mw(self.sector_tx_power_dbm)


def dbm_to_mw(power_dbm):
    """Powers in dBm as mW, 10^(P/10): a float or an array of them."""
    return 10.0 ** (power_dbm / 10.0)


@dataclass(frozen=True)
class LayoutParams:
    """Hexagonal site grid and the sector panel that every site carries."""

    tiers: int = 2
    isd_m: float = 500.0
    bs_height_m: float = 25.0
    panel_columns: int = 4
    panel_rows: int = 8
    downtilt_deg: float = 0.0

    def __post_init__(self):
        _check_fields(self, "layout", positive=("isd_m", "bs_height_m"), least={"tiers": 0})
        share = gue_drop_share(self.isd_m)
        if share <= GUE_MIN_DROP_SHARE:
            raise ConfigError(
                f"layout.isd_m leaves ground users {share:.2g} of their sampling square; "
                f"it must leave more than {GUE_MIN_DROP_SHARE:g} (an ISD above about 17.92 m)"
            )


@dataclass(frozen=True)
class HighwayParams:
    """The aerial corridor, its discretization and the UAV spacing along it."""

    polyline: list | None = None  # defaults to a straight west-east chord across cell edges
    altitude_m: float = 100.0  # the default polyline's height; a set polyline gives its own
    point_spacing_m: float = 125.0
    points_per_segment: int = 2
    uav_spacing_m: float = 100.0

    def __post_init__(self):
        _check_fields(self, "highway", positive=("altitude_m", "point_spacing_m", "uav_spacing_m"))
        _check_polyline(self.polyline)
        if self.polyline is not None and self.altitude_m != HighwayParams.altitude_m:
            raise ConfigError("highway.altitude_m must keep its default: highway.polyline's z sets the heights")


@dataclass(frozen=True)
class UsersParams:
    """Ground users dropped in every sector each snapshot."""

    gues_per_cell: int = 4  # the ground-user guard and the frozen slots need ground users
    ground_height_m: float = 1.5

    def __post_init__(self):
        _check_fields(self, "users", positive=("ground_height_m",))


@dataclass(frozen=True)
class ChannelParams:
    """Statistical channel model knobs (standard urban-macro defaults)."""

    rician_k_los_db: float = 9.0
    rician_k_nlos_db: float | None = None  # None: pure Rayleigh when not in line of sight
    shadow_sigma_los_ground_db: float = 4.0
    shadow_sigma_nlos_ground_db: float = 6.0
    shadow_corr_dist_ground_m: float = 50.0
    shadow_corr_dist_aerial_m: float = 30.0
    # Aerial LoS shadowing follows the height-dependent urban-macro rule;
    # NLoS aerial sigma is fixed.
    shadow_sigma_nlos_aerial_db: float = 6.0

    def __post_init__(self):
        _check_fields(
            self, "channel",
            positive=("shadow_corr_dist_ground_m", "shadow_corr_dist_aerial_m"),
            non_negative=(
                "shadow_sigma_los_ground_db", "shadow_sigma_nlos_ground_db", "shadow_sigma_nlos_aerial_db"
            ),
        )
        for los, name in ((True, "rician_k_los_db"), (False, "rician_k_nlos_db")):
            try:
                self.rician_k_linear(los)
            except OverflowError:
                raise ConfigError(f"channel.{name} is too large for a linear K")

    def rician_k_linear(self, los: bool) -> float:
        k_db = self.rician_k_los_db if los else self.rician_k_nlos_db
        if k_db is None:
            return 0.0
        return 10.0 ** (k_db / 10.0)


@dataclass(frozen=True)
class CodebookParams:
    """DFT grid oversampling for broadcast and data-phase codebooks."""

    ssb_oversampling_h: int = 4
    ssb_oversampling_v: int = 1
    dl_oversampling_h: int = 1
    dl_oversampling_v: int = 1

    def __post_init__(self):
        _check_fields(self, "codebook")


@dataclass(frozen=True)
class EgaParams:
    """Beam-search hyperparameters (population sizes follow common practice)."""

    n_pop: int = 100
    n_parents: int = 75
    n_elites: int = 20
    p_cross: float = 0.2
    p_mut: float = 0.75
    max_iters: int = 15000
    stop_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, "optimizer", least={"seed": None})
        if not self.n_elites <= self.n_parents <= self.n_pop:
            raise ConfigError("optimizer requires n_elites <= n_parents <= n_pop")
        for name in ("p_cross", "p_mut"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"optimizer.{name} must lie in [0, 1]")


_PARAMS = {
    "radio": RadioConfig,
    "layout": LayoutParams,
    "highway": HighwayParams,
    "users": UsersParams,
    "channel": ChannelParams,
    "codebook": CodebookParams,
    "optimizer": EgaParams,
}

# Every block holds its class's fields but the optimizer's seed, which is
# seeds.master, the one key no parameter class holds.
_DEFAULTS: dict[str, dict[str, Any]] = {
    **{name: {f.name: f.default for f in fields(cls) if f.name != "seed"} for name, cls in _PARAMS.items()},
    "seeds": {"master": 1},
}

# Ground users keep this distance from their site, the path-loss validity
# floor.
GUE_MIN_DISTANCE_M = 10.0
# The least share of the ground-user sampling square that an ISD must leave
# for the drop (see `gue_drop_share`), so that a drop costs about a thousand
# candidates per user at worst. The share is 1e-3 at an ISD of about 17.92 m.
# At 17.4 m it is 1.8e-5, and a one-site drop of four users per cell took
# 0.7 s on a 2-vCPU VM; at 17.33 m (2.6e-7) it did not end within 30 s.
GUE_MIN_DROP_SHARE = 1e-3

_REQUIRED_BLOCKS = ("radio", "layout", "highway", "users", "seeds")


def gue_drop_share(isd_m: float) -> float:
    """Share of the ground-user sampling square that a drop can keep.

    `scenario.place_ground_users` draws candidates uniformly from the square
    of half-side R = isd / sqrt(3) (the hexagon's circumradius) around the
    site, and keeps those in the sector's third of the hexagon at least
    GUE_MIN_DISTANCE_M = r from the site. The kept area is a third of the
    hexagon less the disc; where the disc crosses the hexagon's edges (its
    inradius isd / 2 is below r), the six circular segments beyond the edges
    are outside the hexagon already. The share is 0 once r reaches R.
    Lengths are in units of R, so that no ISD, however large, overflows.
    """
    r = GUE_MIN_DISTANCE_M * math.sqrt(3.0) / isd_m
    inradius = math.sqrt(3.0) / 2.0
    if r >= 1.0:
        return 0.0
    hexagon = 2.0 * math.sqrt(3.0) * inradius**2
    disc_inside = math.pi * r * r
    if r > inradius:
        segment = r * r * math.acos(inradius / r) - inradius * math.sqrt(r * r - inradius**2)
        disc_inside -= 6.0 * segment
    return (hexagon - disc_inside) / 3.0 / 4.0


def default_config() -> dict:
    """A complete config dict with all defaults filled in."""
    return json.loads(json.dumps(_DEFAULTS))


def _merge_block(name: str, block: dict | None) -> dict:
    merged = dict(_DEFAULTS[name])
    if block is None:
        return merged
    if not isinstance(block, dict):
        raise ConfigError(f"config block '{name}' must be an object")
    for key, value in block.items():
        if key not in merged:
            raise ConfigError(f"unknown config key '{name}.{key}'")
        merged[key] = value
    return merged


def _finite(value, key: str) -> float:
    """`value` as a float; it must be a finite int or float. A ConfigError names `key`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{key} must be a finite number")


def _check_fields(params, block: str, positive=(), non_negative=(), least=None) -> None:
    """Check the numeric fields of the parameter object `params` by their
    annotations and store each as its annotated type; a ConfigError names
    ``block.field``.

    A field annotated ``int`` or ``float`` must hold a finite number, or
    None where its default is None. An ``int`` field must be integer-valued
    and at least its entry in `least` (1 when it has none, no bound when the
    entry is None). The fields named in `positive` must be above 0, those in
    `non_negative` at least 0. A field of another type is its class's to check.
    """
    least = least or {}
    for f in fields(params):
        kind = f.type.split(" | ")[0]
        value = getattr(params, f.name)
        if kind not in ("int", "float") or (value is None and f.default is None):
            continue
        key = f"{block}.{f.name}"
        number = _finite(value, key)
        if kind == "int":
            bound = least.get(f.name, 1)
            if not number.is_integer() or (bound is not None and number < bound):
                raise ConfigError(f"{key} must be an integer" + ("" if bound is None else f" >= {bound}"))
            number = int(value)
        if f.name in positive and number <= 0:
            raise ConfigError(f"{key} must be positive")
        if f.name in non_negative and number < 0:
            raise ConfigError(f"{key} must be non-negative")
        object.__setattr__(params, f.name, number)


def _check_polyline(polyline) -> None:
    """Null, or at least two [x, y, z] vertices of finite numbers with z > 0 and a finite, positive length."""
    if polyline is None:
        return
    if not (
        isinstance(polyline, list)
        and len(polyline) >= 2
        and all(isinstance(v, list) and len(v) == 3 for v in polyline)
    ):
        raise ConfigError("highway.polyline must be null or a list of at least two [x, y, z] vertices")
    for vertex in polyline:
        for coord in vertex:
            _finite(coord, "highway.polyline")
        if vertex[2] <= 0:
            raise ConfigError("highway.polyline vertex heights (z) must be positive")
    # summed as the highway discretization sums it, so overflow and underflow agree
    deltas = [[q - p for p, q in zip(a, b)] for a, b in zip(polyline, polyline[1:])]
    length = sum(math.sqrt(sum(d * d for d in delta)) for delta in deltas)
    if not 0.0 < length < math.inf:
        raise ConfigError("highway.polyline must have a finite, positive length")


def block_params(cfg: dict, name: str):
    """The parameter object of block `name` of a config dict; the
    optimizer's seed is seeds.master."""
    values = cfg[name]
    if name == "optimizer":
        values = {**values, "seed": cfg["seeds"]["master"]}
    return _PARAMS[name](**values)


def codebook_params_from_config(cfg: dict) -> CodebookParams:
    return block_params(cfg, "codebook")


def validate_config(raw: dict) -> dict:
    """Merge a raw config dict with defaults, rejecting unknown keys, a
    master seed outside the integers of [0, 2**64) and every value a
    parameter class refuses. The master seed is stored as an int."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ConfigError(f"missing config block '{block}'")
    for block in raw:
        if block not in _DEFAULTS:
            raise ConfigError(f"unknown config block '{block}'")
    cfg = {name: _merge_block(name, raw.get(name)) for name in _DEFAULTS}
    master = cfg["seeds"]["master"]
    # compared as an int: 2**64 - 1 rounds up to 2**64 as a float
    if not (_finite(master, "seeds.master").is_integer() and 0 <= int(master) < 2**64):
        raise ConfigError("seeds.master must be an integer in [0, 2**64)")
    cfg["seeds"]["master"] = int(master)
    for name in _PARAMS:
        block_params(cfg, name)
    return cfg


def load_config(path: str | Path) -> dict:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read as UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return validate_config(raw)
