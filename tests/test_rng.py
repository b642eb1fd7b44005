import pytest

from oracles import reference_derive
from skybeam.rng import RngStream

KEYS = (("los", "ue", 0, 0), ("fading", "uav", 3, 56), ("shadow", "highway-point", "static", 7),
        ("gue-pos", 11, 2))
MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1]


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_derive_matches_reference_draw_for_draw(master_seed):
    streams = RngStream(master_seed)
    for key in KEYS:
        got, want = streams.derive_many([key])[0], reference_derive(master_seed, *key)
        assert got.random(64).tobytes() == want.random(64).tobytes(), key
        assert got.standard_normal(64).tobytes() == want.standard_normal(64).tobytes(), key
        assert got.integers(0, 2**63, 16).tobytes() == want.integers(0, 2**63, 16).tobytes(), key


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
def test_derive_many_matches_per_key_seed_sequences(master_seed):
    """One batch of a build's keys, string and int parts mixed, against one
    SeedSequence per key: the same PCG64 state and the same first draws.

    Fails if the batch skips the mixing of the entropy words past the pool
    (the digest's last words), or if the state words are read as uint64 in
    the wrong word order."""
    keys = [(draw, tag, snapshot, sector)
            for draw in ("los", "shadow", "fading")
            for tag, snapshot in (("ue", 0), ("uav", 7), ("highway-point", "static"))
            for sector in range(19)]
    keys += [("gue-pos", 3, 56), ("x",), ()]
    got = RngStream(master_seed).derive_many(keys)
    assert len(got) == len(keys)
    for key, gen in zip(keys, got):
        want = reference_derive(master_seed, *key)
        assert gen.bit_generator.state == want.bit_generator.state, key
        assert gen.standard_normal(8).tobytes() == want.standard_normal(8).tobytes(), key


def test_derive_many_takes_any_iterable_and_no_keys():
    streams = RngStream(5)
    assert streams.derive_many([]) == []
    lazy = streams.derive_many(("los", "ue", 0, j) for j in range(3))
    listed = streams.derive_many([("los", "ue", 0, j) for j in range(3)])
    assert [g.random() for g in lazy] == [g.random() for g in listed]
