import pytest

from oracles import reference_derive
from skybeam.rng import RngStream

KEYS = (("los", "ue", 0, 0), ("fading", "uav", 3, 56), ("shadow", "highway-point", "static", 7),
        ("gue-pos", 11, 2))


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1])
def test_derive_matches_reference_draw_for_draw(master_seed):
    streams = RngStream(master_seed)
    for key in KEYS:
        got, want = streams.derive(*key), reference_derive(master_seed, *key)
        assert got.random(64).tobytes() == want.random(64).tobytes(), key
        assert got.standard_normal(64).tobytes() == want.standard_normal(64).tobytes(), key
        assert got.integers(0, 2**63, 16).tobytes() == want.integers(0, 2**63, 16).tobytes(), key
