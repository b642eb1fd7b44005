"""Run configuration: parameter classes plus the JSON config file schema.

The config file is plain JSON with five mandatory blocks (``radio``,
``layout``, ``highway``, ``users``, ``seeds``) and three optional ones
(``channel``, ``codebook``, ``optimizer``). Every key has a default; unknown
keys are rejected so typos fail fast. Units: meters, Hz, dBm throughout.

The ``radio``, ``channel``, ``codebook`` and ``optimizer`` blocks are the
fields of `RadioConfig`, `ChannelParams`, `CodebookParams` and `EgaParams`,
with the dataclass defaults; the optimizer block leaves out ``seed``, which
is ``seeds.master``. `validate_config` builds the radio and optimizer
classes, so their checks apply to every config, and checks the numeric
``layout``, ``highway``, ``users`` and ``codebook`` values itself. A
rejected value raises `ConfigError` naming ``block.key``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

SPEED_OF_LIGHT = 299_792_458.0


class ConfigError(Exception):
    """Invalid or missing configuration entry; message names the key."""


@dataclass(frozen=True)
class RadioConfig:
    """Carrier, bandwidth and power constants shared by all sectors."""

    carrier_freq_hz: float = 3.5e9
    bandwidth_hz: float = 30e6
    n_prb_total: int = 75
    prb_bandwidth_hz: float = 360e3
    noise_psd_dbm_per_hz: float = -174.0
    ue_noise_figure_db: float = 9.0
    # SSB measurement noise: thermal over 240 subcarriers x 30 kHz + NF.
    ssb_noise_power_dbm: float | None = None
    max_ssb_power_dbm: float = 43.0
    sector_tx_power_dbm: float = 46.0

    def __post_init__(self):
        if self.ssb_noise_power_dbm is None:
            ssb_bw_hz = 240 * 30e3
            object.__setattr__(
                self,
                "ssb_noise_power_dbm",
                self.noise_psd_dbm_per_hz + 10.0 * math.log10(ssb_bw_hz) + self.ue_noise_figure_db,
            )
        if self.carrier_freq_hz <= 0:
            raise ConfigError("radio.carrier_freq_hz must be positive")
        if self.n_prb_total * self.prb_bandwidth_hz > self.bandwidth_hz + 1e-6:
            raise ConfigError("radio.n_prb_total x radio.prb_bandwidth_hz exceeds radio.bandwidth_hz")
        for name in ("max_ssb_power_dbm", "sector_tx_power_dbm", "ssb_noise_power_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"radio.{name} must be finite")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def ssb_noise_mw(self) -> float:
        return 10.0 ** (self.ssb_noise_power_dbm / 10.0)

    @property
    def noise_psd_mw_per_hz(self) -> float:
        return 10.0 ** (self.noise_psd_dbm_per_hz / 10.0)


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
        if not (0 < self.n_elites <= self.n_parents <= self.n_pop):
            raise ConfigError("optimizer requires 0 < n_elites <= n_parents <= n_pop")
        if self.max_iters < 1:
            raise ConfigError("optimizer.max_iters must be at least 1")
        for name in ("p_cross", "p_mut"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"optimizer.{name} must lie in [0, 1]")


def _field_defaults(cls, skip: tuple[str, ...] = ()) -> dict[str, Any]:
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


_DEFAULTS: dict[str, dict[str, Any]] = {
    "radio": _field_defaults(RadioConfig),
    "layout": {
        "tiers": 2,
        "isd_m": 500.0,
        "bs_height_m": 25.0,
        "panel_columns": 4,
        "panel_rows": 8,
        "element_spacing_h_wavelengths": 0.5,
        "element_spacing_v_wavelengths": 0.5,
        "downtilt_deg": 0.0,
    },
    "highway": {
        "polyline": None,  # defaults to a straight west-east chord across cell edges
        "altitude_m": 100.0,
        "point_spacing_m": 125.0,
        "points_per_segment": 2,
        "uav_spacing_m": 100.0,
    },
    "users": {
        "gues_per_cell": 4,
        "ground_height_m": 1.5,
    },
    "seeds": {
        "master": 1,
    },
    "channel": _field_defaults(ChannelParams),
    "codebook": _field_defaults(CodebookParams),
    "optimizer": _field_defaults(EgaParams, skip=("seed",)),  # the seed is seeds.master
}

# Numeric keys of the geometry blocks: integers with their least value, then
# reals that must be positive, then reals that only need to be finite.
_MIN_INT = {
    "layout.tiers": 0,
    "layout.panel_columns": 1,
    "layout.panel_rows": 1,
    "highway.points_per_segment": 1,
    "users.gues_per_cell": 0,
    **{f"codebook.{name}": 1 for name in _DEFAULTS["codebook"]},
}
_POSITIVE = (
    "layout.isd_m",
    "layout.element_spacing_h_wavelengths",
    "layout.element_spacing_v_wavelengths",
    "highway.point_spacing_m",
    "highway.uav_spacing_m",
)
_FINITE = ("layout.bs_height_m", "layout.downtilt_deg", "highway.altitude_m", "users.ground_height_m")

_REQUIRED_BLOCKS = ("radio", "layout", "highway", "users", "seeds")


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


def _number(cfg: dict, key: str) -> int | float:
    """The value at 'block.key', which must be a finite int or float."""
    block, name = key.split(".")
    value = cfg[block][name]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number")
    return value


def validate_config(raw: dict) -> dict:
    """Merge a raw config dict with defaults, rejecting unknown keys, bad
    numeric geometry values and the values the radio and optimizer parameter
    classes refuse."""
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
    if not isinstance(master, int) or isinstance(master, bool):
        raise ConfigError("seeds.master must be an integer")
    for key, least in _MIN_INT.items():
        value = _number(cfg, key)
        if value != int(value) or value < least:
            raise ConfigError(f"{key} must be an integer >= {least}")
    for key in _POSITIVE:
        if _number(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    for key in _FINITE:
        _number(cfg, key)
    radio_from_config(cfg)
    ega_params_from_config(cfg)
    return cfg


def load_config(path: str | Path) -> dict:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return validate_config(raw)


def _build_dataclass(cls, block: dict, prefix: str):
    try:
        return cls(**block)
    except TypeError as exc:
        raise ConfigError(f"bad value in '{prefix}': {exc}")


def radio_from_config(cfg: dict) -> RadioConfig:
    return _build_dataclass(RadioConfig, cfg["radio"], "radio")


def channel_params_from_config(cfg: dict) -> ChannelParams:
    return _build_dataclass(ChannelParams, cfg["channel"], "channel")


def codebook_params_from_config(cfg: dict) -> CodebookParams:
    return _build_dataclass(CodebookParams, cfg["codebook"], "codebook")


def ega_params_from_config(cfg: dict) -> EgaParams:
    """The optimizer block, each value cast to its field's int or float, with
    seeds.master as the seed."""
    values = {
        f.name: (int if f.type == "int" else float)(_number(cfg, f"optimizer.{f.name}"))
        for f in fields(EgaParams)
        if f.name != "seed"
    }
    return EgaParams(**values, seed=int(cfg["seeds"]["master"]))
