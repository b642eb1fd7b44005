"""Fuzz the config schema and the SKYBEAM_* overrides with Hypothesis.

Each draw gives one key of one block an awkward value: NaN, an infinity, a
negative number, zero, a large number, a string, a bool, null or a list.
Validation and scenario assembly must then either succeed with plain finite
numbers, parameter objects whose fields hold their annotated int or float
type, and radio powers whose linear values are positive and finite, or
raise ConfigError naming the block or the variable; no other exception may
escape. Keys that size a grid draw only small integers as their large value,
so that no draw builds a large layout.
"""

import json
import math
import os
from dataclasses import fields
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from skybeam.cli import ENV_PREFIX, _apply_env_overrides
from skybeam.config import ConfigError, block_params, default_config, validate_config
from skybeam.scenario import scenario_from_config

KEYS = [(block, key) for block, entries in default_config().items() for key in entries]
GRID_KEYS = {
    ("layout", "tiers"), ("layout", "panel_columns"), ("layout", "panel_rows"),
    ("users", "gues_per_cell"),
}
COORD = st.floats(-1e3, 1e3)


def awkward_values(grid_key: bool):
    large = st.integers(1, 3) if grid_key else st.integers(10**6, 10**18) | st.floats(1e6, 1e300)
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, None]),
        st.integers(-10**6, -1) | st.floats(-1e300, -1e-300),
        large,
        st.text(max_size=4),
        st.booleans(),
        st.lists(COORD, max_size=3),
        st.lists(st.lists(COORD, min_size=3, max_size=3), min_size=2, max_size=3),  # polylines
    )


def _not_json(text: str) -> bool:
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return True
    return False


NOT_JSON = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6
).filter(_not_json)


@st.composite
def key_and_value(draw):
    block, key = draw(st.sampled_from(KEYS))
    return block, key, draw(awkward_values((block, key) in GRID_KEYS))


@st.composite
def key_and_env_text(draw):
    block, key = draw(st.sampled_from(KEYS))
    text = draw(NOT_JSON | awkward_values((block, key) in GRID_KEYS).map(json.dumps))
    return block, key, text


def assert_plain_values(cfg: dict) -> None:
    """Every accepted leaf is null, a list (the polyline) or a finite number, not a bool."""

    def check(value, where):
        if isinstance(value, list):
            for item in value:
                check(item, where)
        elif value is not None:
            assert isinstance(value, (int, float)) and not isinstance(value, bool), where
            assert math.isfinite(value), where

    for block, entries in cfg.items():
        for key, value in entries.items():
            check(value, f"{block}.{key}")


def assert_typed_params(cfg: dict) -> None:
    """Every numeric field of every block's parameter object holds its
    annotated type: an `int` field an int (not a bool or an integer-valued
    float), a `float` field a float or, where the default is None, None."""
    for block in cfg:
        if block == "seeds":
            continue
        params = block_params(cfg, block)
        for f in fields(params):
            value = getattr(params, f.name)
            if f.type == "int":
                assert type(value) is int, f"{block}.{f.name}"
            elif f.type.startswith("float"):
                assert type(value) is float or (value is None and f.default is None), f"{block}.{f.name}"


def assert_finite_radio_powers(cfg: dict) -> None:
    """Every accepted radio power converts to a positive, finite linear value."""
    radio = block_params(cfg, "radio")
    band = radio.n_prb_total * radio.prb_bandwidth_hz
    linear = [radio.ssb_noise_mw, radio.noise_mw(radio.prb_bandwidth_hz), radio.noise_mw(band)]
    linear.append(radio.sector_tx_power_mw)
    assert all(0.0 < x < math.inf for x in linear), linear


@settings(max_examples=300, deadline=None)
@given(key_and_value())
def test_config_value_is_accepted_or_rejected_by_name(draw):
    block, key, value = draw
    raw = default_config()
    raw[block][key] = value
    try:
        cfg = validate_config(raw)
        scenario_from_config(cfg)
    except ConfigError as exc:
        assert block in str(exc)
        return
    assert_plain_values(cfg)
    assert_typed_params(cfg)
    assert_finite_radio_powers(cfg)


@settings(max_examples=200, deadline=None)
@given(key_and_env_text())
def test_env_override_is_accepted_or_rejected_by_name(draw):
    block, key, text = draw
    name = f"{ENV_PREFIX}{block.upper()}_{key.upper()}"
    with mock.patch.dict(os.environ, {name: text}):
        try:
            cfg = _apply_env_overrides(default_config())
            scenario_from_config(cfg)
        except ConfigError as exc:
            assert block in str(exc) or name in str(exc)
            return
    assert_plain_values(cfg)
    assert_typed_params(cfg)
    assert_finite_radio_powers(cfg)
