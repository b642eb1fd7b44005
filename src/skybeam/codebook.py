"""DFT beam codebooks for broadcast (SSB) and data-phase precoding.

The broadcast codebook concatenates 2D-DFT grids for a sequence of panel
configurations that deactivate antenna columns one at a time from the right:
fewer active columns trade beamforming gain for beamwidth. The data codebook
is a single oversampled 2D-DFT grid over the full panel.

Codeword layout matches `UpaGeometry.element_coords`: element m = col * m_v
+ row. Horizontal DFT index ih steers the beam to the direction cosine
u = wrap(-ih / (O_h N d)) and vertical index iv to w = wrap(-iv / (O_v M_v
d)), both wrapped into [-1, 1); at the panel's half-wavelength spacing d the
wrap keeps each (u, w) on its beam peak. A `Codebook` holds every
codeword's (u, w) in `directions`, computed once when the codebook is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ELEMENT_SPACING_WAVELENGTHS, UpaGeometry


@dataclass(frozen=True)
class Codebook:
    """Stack of codewords, each with its sub-book, DFT indices and beam direction."""

    weights: np.ndarray  # N_CB x M
    active_columns: np.ndarray
    beam_index_h: np.ndarray
    beam_index_v: np.ndarray
    directions: np.ndarray  # N_CB x 2: boresight direction cosines (u, w)

    def __len__(self) -> int:
        return self.weights.shape[0]


def dft_subbook(
    active_cols: int, m_h: int, m_v: int, o_h: int, o_v: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2D-DFT grid over `active_cols` leftmost columns, rightmost columns zeroed.

    Returns (weights, beam_index_h, beam_index_v) for the K = n_v * n_h
    codewords, n_h = O_h*active_cols and n_v = O_v*m_v, ordered
    vertical-major: row k has iv = k // n_h and ih = k % n_h. Row k of the
    (K, m_h*m_v) weights is the unit-norm Kronecker product of the
    horizontal and vertical DFT vectors.
    """
    if not 1 <= active_cols <= m_h:
        raise ValueError("active_cols must lie in [1, m_h]")
    n_h = o_h * active_cols
    n_v = o_v * m_v
    iv, ih = np.divmod(np.arange(n_v * n_h), n_h)
    a_v = np.exp(2j * np.pi * np.arange(m_v) * iv[:, None] / n_v) / math.sqrt(m_v)
    a_h = np.exp(2j * np.pi * np.arange(active_cols) * ih[:, None] / n_h) / math.sqrt(active_cols)
    weights = np.zeros((n_v * n_h, m_h * m_v), dtype=complex)
    # element m = col * m_v + row
    weights[:, : active_cols * m_v] = (a_h[:, :, None] * a_v[:, None, :]).reshape(n_v * n_h, -1)
    return weights, ih, iv


def _stack(panel: UpaGeometry, o_h: int, o_v: int, actives: list[int]) -> Codebook:
    """Concatenate the sub-books for each active-column count, in order."""
    books = [dft_subbook(a, panel.m_h, panel.m_v, o_h, o_v) for a in actives]
    weights, beam_h, beam_v = (np.concatenate(parts) for parts in zip(*books))
    active = np.repeat(actives, [w.shape[0] for w, _, _ in books])
    u = -beam_h / (o_h * active * ELEMENT_SPACING_WAVELENGTHS)
    w = -beam_v / (o_v * panel.m_v * ELEMENT_SPACING_WAVELENGTHS)
    directions = (np.stack([u, w], axis=1) + 1.0) % 2.0 - 1.0
    return Codebook(
        weights=weights,
        active_columns=active,
        beam_index_h=beam_h,
        beam_index_v=beam_v,
        directions=directions,
    )


def build_ssb_codebook(panel: UpaGeometry, o_h: int, o_v: int) -> Codebook:
    """Concatenate sub-books for active_cols = m_h, m_h - 1, ..., 1."""
    return _stack(panel, o_h, o_v, list(range(panel.m_h, 0, -1)))


def build_dl_codebook(panel: UpaGeometry, o_h: int, o_v: int) -> Codebook:
    """Full-panel oversampled DFT grid used for data-phase precoding."""
    return _stack(panel, o_h, o_v, [panel.m_h])
