import math

import numpy as np
import pytest

from skybeam.association import BeamPlan
from skybeam.config import default_config, validate_config
from skybeam.scenario import Scenario, UpaGeometry, scenario_from_config


@pytest.fixture()
def cfg():
    return validate_config(default_config())


@pytest.fixture()
def small_cfg():
    """One-tier layout with a short corridor: fast but non-trivial."""
    raw = default_config()
    raw["layout"]["tiers"] = 1
    raw["highway"]["polyline"] = [
        [-312.5, 144.3375673, 100.0],
        [312.5, 144.3375673, 100.0],
    ]
    raw["highway"]["point_spacing_m"] = 125.0
    raw["highway"]["points_per_segment"] = 2
    return validate_config(raw)


@pytest.fixture()
def small_scenario(small_cfg) -> Scenario:
    return scenario_from_config(small_cfg)


@pytest.fixture()
def panel() -> UpaGeometry:
    return UpaGeometry(m_h=4, m_v=8)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex_matrix(generator, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    return scale * (
        generator.standard_normal((rows, cols)) + 1j * generator.standard_normal((rows, cols))
    )


DARK_DBM = -200.0  # a beam power far below every other beam's RSRP: the beam serves no one


def beam_plan(n_sectors: int, n_slots: int = 8, power_dbm=0.0, codeword=0) -> BeamPlan:
    """An `n_sectors` x `n_slots` plan; `power_dbm` and `codeword` are one
    value for every beam or a (B, S) array of them."""
    shape = (n_sectors, n_slots)
    return BeamPlan(
        codeword=np.array(np.broadcast_to(codeword, shape), dtype=int),
        power_dbm=np.array(np.broadcast_to(power_dbm, shape), dtype=float),
    )
