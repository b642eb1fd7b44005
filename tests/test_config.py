import json
import math

import pytest

from skybeam.config import (
    ChannelParams,
    CodebookParams,
    ConfigError,
    EgaParams,
    HighwayParams,
    LayoutParams,
    RadioConfig,
    UsersParams,
    block_params,
    codebook_params_from_config,
    default_config,
    load_config,
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
     ("codebook", "ssb_oversampling_h", 0), ("channel", "rician_k_los_db", "x"),
     ("channel", "rician_k_nlos_db", 4000.0),
     ("channel", "shadow_sigma_los_ground_db", float("nan")),
     ("channel", "shadow_corr_dist_ground_m", -50), ("channel", "shadow_sigma_nlos_aerial_db", -1.0),
     ("radio", "carrier_freq_hz", float("nan")), ("radio", "carrier_freq_hz", float("inf")),
     # radio.bandwidth_hz, radio.ssb_noise_power_dbm and radio.max_ssb_power_dbm
     # are unknown keys now
     ("radio", "bandwidth_hz", float("nan")), ("radio", "n_prb_total", -5),
     ("radio", "n_prb_total", 2.5), ("radio", "n_prb_total", True),
     ("radio", "prb_bandwidth_hz", 0), ("radio", "prb_bandwidth_hz", -1),
     ("radio", "noise_psd_dbm_per_hz", float("inf")), ("radio", "ssb_noise_power_dbm", "x"),
     ("highway", "polyline", float("nan")), ("highway", "polyline", [[0.0, 0.0, 100.0]]),
     ("highway", "polyline", [[0.0, 0.0, 100.0], [1.0, float("nan"), 100.0]]),
     ("highway", "polyline", [[0.0, 0.0, 100.0], [0.0, 0.0, 100.0]]),
     ("highway", "polyline", [[-1e200, 0.0, 100.0], [1e200, 0.0, 100.0]]),
     ("radio", "sector_tx_power_dbm", 1e6), ("radio", "max_ssb_power_dbm", 1e6),
     ("radio", "ue_noise_figure_db", 1e6), ("radio", "noise_psd_dbm_per_hz", 1e6),
     ("radio", "sector_tx_power_dbm", -1e6), ("radio", "max_ssb_power_dbm", -1e6),
     ("layout", "isd_m", 17.3), ("layout", "isd_m", 17.33), ("layout", "isd_m", 17.4),
     ("users", "gues_per_cell", 0),
     ("optimizer", "n_pop", 100.5), ("optimizer", "max_iters", 2.7), ("optimizer", "n_elites", 1.9),
     ("optimizer", "stop_iters", 0), ("optimizer", "stop_iters", -5),
     # heights at or below the ground, which the channel models do not cover
     ("users", "ground_height_m", 0), ("users", "ground_height_m", -10.0),
     ("highway", "altitude_m", 0.0), ("highway", "altitude_m", -100.0),
     ("layout", "bs_height_m", 0), ("layout", "bs_height_m", -5.0),
     ("highway", "polyline", [[0.0, 0.0, 100.0], [500.0, 0.0, 0.0]]),
     pytest.param("layout", "bs_height_m", 10**400, id="layout-bs_height_m-int_beyond_float"),
     # the master seed keys 64-bit streams: below 0 or from 2**64 on it would
     # alias another seed's channels, or fail in the search's generator
     ("seeds", "master", -1), ("seeds", "master", -3), ("seeds", "master", 2**64),
     ("seeds", "master", 1.5), ("seeds", "master", -1.0), ("seeds", "master", float(2**64)),
     ("seeds", "master", float("nan")), pytest.param("seeds", "master", 10**400, id="seeds-master-int_beyond_float"),
     ("radio", "prb_bandwidth_hz", 1e307)],  # an infinite data band
)
def test_out_of_range_value_rejected(block, key, value):
    raw = default_config()
    raw[block][key] = value
    with pytest.raises(ConfigError, match=f"{block}.{key}"):
        validate_config(raw)


@pytest.mark.parametrize("value, seed", [(2.0, 2), (0, 0), (2**64 - 1, 2**64 - 1), (100.0, 100)])
def test_master_seed_is_stored_as_an_int(value, seed):
    raw = default_config()
    raw["seeds"]["master"] = value
    cfg = validate_config(raw)
    assert type(cfg["seeds"]["master"]) is int and cfg["seeds"]["master"] == seed
    assert block_params(cfg, "optimizer").seed == seed


def test_defaults_are_the_parameter_class_defaults():
    cfg = validate_config(default_config())
    assert block_params(cfg, "radio") == RadioConfig()
    assert block_params(cfg, "layout") == LayoutParams()
    assert block_params(cfg, "highway") == HighwayParams()
    assert block_params(cfg, "users") == UsersParams()
    assert block_params(cfg, "channel") == ChannelParams()
    assert codebook_params_from_config(cfg) == block_params(cfg, "codebook") == CodebookParams()
    assert block_params(cfg, "optimizer") == EgaParams(seed=1)


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

    def test_default_ssb_noise(self):
        """Thermal noise over the SSB's 240 x 30 kHz plus the noise figure,
        summed in dBm, bit for bit."""
        expected = 10.0 ** ((-174.0 + 10.0 * math.log10(240 * 30e3) + 9.0) / 10.0)
        assert RadioConfig().ssb_noise_mw == expected == RadioConfig().noise_mw(7.2e6)

    def test_ssb_noise_follows_its_two_keys(self):
        radio = RadioConfig(noise_psd_dbm_per_hz=-170.0, ue_noise_figure_db=5.0)
        assert radio.ssb_noise_mw == 10.0 ** ((-170.0 + 10.0 * math.log10(7.2e6) + 5.0) / 10.0)

    def test_noise_is_psd_times_bandwidth_times_noise_figure(self):
        radio = RadioConfig(noise_psd_dbm_per_hz=-170.0, ue_noise_figure_db=5.0)
        for bandwidth in (360e3, 7.2e6, 27e6, 27e6 / 3):
            assert radio.noise_mw(bandwidth) == pytest.approx(10**-17.0 * bandwidth * 10**0.5, rel=1e-12)

    def test_ssb_noise_overflow_names_both_keys(self):
        """The noise is checked over every bandwidth a run asks for."""
        for psd, nf, where in (
            (3000.0, 3000.0, "the SSB"),  # each key alone gives a finite linear value, their sum does not
            (3020.0, -10.0, "the data band"),  # finite over the SSB and one PRB
            (-3200.0, -100.0, "one PRB"),  # 0 mW over one PRB, a subnormal over the SSB
        ):
            with pytest.raises(ConfigError, match=f"noise_psd_dbm_per_hz and radio.ue_noise_figure_db over {where}"):
                RadioConfig(noise_psd_dbm_per_hz=psd, ue_noise_figure_db=nf)

    def test_from_config_roundtrip(self):
        cfg = validate_config(default_config())
        radio = block_params(cfg, "radio")
        assert radio == RadioConfig()
        assert radio.n_prb_total * radio.prb_bandwidth_hz == pytest.approx(27e6)  # the data band


class TestChannelParams:
    def test_nlos_k_is_rayleigh(self):
        params = ChannelParams()
        assert params.rician_k_linear(False) == 0.0
        assert params.rician_k_linear(True) == pytest.approx(10 ** 0.9)
