"""Deterministic, order-independent random streams.

Every stochastic quantity in the simulator (user drops, LoS states, shadowing
fields, fast fading, optimizer moves) is drawn from a stream derived from the
master seed plus a structured key. The same (seed, key) always yields the same
generator, no matter in which order streams are opened.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The running hash constant of SeedSequence's `count` hash steps and
    the one after them: step i xors with entry i and multiplies by entry i + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in consts]


def _hash(values: np.ndarray, consts: list[np.uint32], step: int) -> np.ndarray:
    """SeedSequence's `hashmix` (and `generate_state`'s step) on uint32 words."""
    out = values ^ consts[step]
    out *= consts[step + 1]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    out ^= out >> _XSHIFT
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row of a
    (K, L) uint32 entropy array with L >= 4, as one vectorised pass of
    SeedSequence's pool mixing: uint32 arithmetic wraps as its does."""
    n_words = entropy.shape[1]
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * n_words)
    step = 0
    pool = []
    for i in range(_POOL_SIZE):  # the first words enter the pool
        pool.append(_hash(entropy[:, i], a, step))
        step += 1
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a, step))
                step += 1
    for src in range(_POOL_SIZE, n_words):  # the remaining words into every pool word
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(entropy[:, src], a, step))
            step += 1
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = np.stack([_hash(pool[i % _POOL_SIZE], b, i) for i in range(2 * _POOL_SIZE)], axis=1)
    # uint32 pairs, low word first, read as little-endian uint64
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """A seed sequence type whose state words are already computed. It is
    defined on first use, so that importing skybeam leaves `numpy.random`
    unimported until the first stream is derived, as `SeedSequence` did."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
                raise ValueError(f"precomputed state holds {self.words.size} {self.words.dtype} words")
            return self.words

    return SeedState


class RngStream:
    """Factory of independent `numpy` generators keyed by (master_seed, key)."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        # the master seed masked to 64 bits as 32-bit words, low word first,
        # which is how SeedSequence coerces the integer itself
        seed = self.master_seed & 0xFFFFFFFFFFFFFFFF
        words = [seed & 0xFFFFFFFF]
        if seed >> 32:
            words.append(seed >> 32)
        self._seed_words = np.array(words, dtype=np.uint32)

    def derive_many(self, keys: Iterable[Sequence]) -> list[np.random.Generator]:
        """One fresh generator per key, each a tuple of key parts (str or int).

        A key's entropy is the master seed's words, then the first four
        little-endian words of the SHA-256 digest of its parts joined by
        "/": 128 hash bits are plenty, and the master seed keeps streams
        disjoint per run. Every key's PCG64 state is the one
        `SeedSequence(entropy)` gives, computed for all keys at once.
        """
        digests = b"".join(
            hashlib.sha256("/".join(str(part) for part in key).encode("utf-8")).digest()[:16]
            for key in keys
        )
        hashed = np.frombuffer(digests, dtype="<u4").reshape(-1, 4)
        entropy = np.empty((hashed.shape[0], self._seed_words.size + 4), dtype=np.uint32)
        entropy[:, : self._seed_words.size] = self._seed_words
        entropy[:, self._seed_words.size :] = hashed
        seed_state = _seed_state_type()
        return [np.random.Generator(np.random.PCG64(seed_state(words))) for words in _seed_states(entropy)]
