"""Deterministic, order-independent random streams.

Every stochastic quantity in the simulator (user drops, LoS states, shadowing
fields, fast fading, optimizer moves) is drawn from a stream derived from the
master seed plus a structured key. The same (seed, key) always yields the same
generator, no matter in which order streams are opened.
"""

from __future__ import annotations

import hashlib

import numpy as np


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

    def derive(self, *key) -> np.random.Generator:
        """Return a fresh generator for the given key parts (str or int)."""
        tag = "/".join(str(part) for part in key)
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        # 128 hash bits are plenty; master seed keeps streams disjoint per run.
        # One uint32 entropy array skips SeedSequence's per-int coercion and
        # gives the same words: the seed's, then four little-endian digest words.
        entropy = np.concatenate([self._seed_words, np.frombuffer(digest, dtype="<u4", count=4)])
        return np.random.default_rng(np.random.SeedSequence(entropy))
