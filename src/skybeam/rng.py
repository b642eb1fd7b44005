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

    def derive(self, *key) -> np.random.Generator:
        """Return a fresh generator for the given key parts (str or int)."""
        tag = "/".join(str(part) for part in key)
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        # 128 hash bits are plenty; master seed keeps streams disjoint per run.
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        seq = np.random.SeedSequence(entropy=[self.master_seed & 0xFFFFFFFFFFFFFFFF, *words])
        return np.random.default_rng(seq)
