import json
import math

import pytest

from skybeam.config import (
    ChannelParams,
    CodebookParams,
    ConfigError,
    EgaParams,
    RadioConfig,
    channel_params_from_config,
    codebook_params_from_config,
    default_config,
    ega_params_from_config,
    load_config,
    radio_from_config,
    validate_config,
)


def test_default_config_is_valid():
    cfg = validate_config(default_config())
    assert set(cfg) == {
        "radio", "layout", "highway", "users", "seeds", "channel", "codebook", "optimizer",
    }


def test_missing_radio_block_names_the_block(tmp_path):
    raw = default_config()
    del raw["radio"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="radio"):
        load_config(path)


def test_unknown_key_rejected():
    raw = default_config()
    raw["radio"]["warp_factor"] = 9
    with pytest.raises(ConfigError, match="warp_factor"):
        validate_config(raw)


def test_unknown_block_rejected():
    raw = default_config()
    raw["beverages"] = {}
    with pytest.raises(ConfigError, match="beverages"):
        validate_config(raw)


@pytest.mark.parametrize(
    "block, key, value",
    [("seeds", "master", "1"), ("seeds", "master", True), ("optimizer", "p_cross", -0.1),
     ("optimizer", "max_iters", 0), ("radio", "carrier_freq_hz", 0.0),
     ("highway", "point_spacing_m", 0), ("highway", "uav_spacing_m", 0),
     ("layout", "isd_m", -500), ("layout", "tiers", -1), ("highway", "point_spacing_m", -5),
     ("codebook", "ssb_oversampling_h", 0)],
)
def test_out_of_range_value_rejected(block, key, value):
    raw = default_config()
    raw[block][key] = value
    with pytest.raises(ConfigError, match=f"{block}.{key}"):
        validate_config(raw)


def test_defaults_are_the_parameter_class_defaults():
    cfg = validate_config(default_config())
    assert radio_from_config(cfg) == RadioConfig()
    assert channel_params_from_config(cfg) == ChannelParams()
    assert codebook_params_from_config(cfg) == CodebookParams()
    assert ega_params_from_config(cfg) == EgaParams(seed=1)


def test_default_config_is_strict_json():
    json.dumps(default_config(), allow_nan=False)  # no -Infinity for a config file or manifest


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/skybeam.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


class TestRadioConfig:
    def test_wavelength(self):
        radio = RadioConfig()
        assert radio.wavelength_m == pytest.approx(299_792_458.0 / 3.5e9)

    def test_prb_budget_invariant(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            RadioConfig(bandwidth_hz=10e6, n_prb_total=100, prb_bandwidth_hz=360e3)

    def test_default_ssb_noise(self):
        radio = RadioConfig()
        expected = -174.0 + 10 * math.log10(240 * 30e3) + 9.0
        assert radio.ssb_noise_power_dbm == pytest.approx(expected)

    def test_explicit_ssb_noise_kept(self):
        radio = RadioConfig(ssb_noise_power_dbm=-90.0)
        assert radio.ssb_noise_power_dbm == -90.0

    def test_from_config_roundtrip(self):
        cfg = validate_config(default_config())
        radio = radio_from_config(cfg)
        assert radio.n_prb_total * radio.prb_bandwidth_hz <= radio.bandwidth_hz


class TestChannelParams:
    def test_nlos_k_is_rayleigh(self):
        params = ChannelParams()
        assert params.rician_k_linear(False) == 0.0
        assert params.rician_k_linear(True) == pytest.approx(10 ** 0.9)
