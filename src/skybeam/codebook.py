"""DFT beam codebooks for broadcast (SSB) and data-phase precoding.

The broadcast codebook concatenates 2D-DFT grids for a sequence of panel
configurations that deactivate antenna columns one at a time from the right:
fewer active columns trade beamforming gain for beamwidth. The data codebook
is a single oversampled 2D-DFT grid over the full panel.

Codeword layout matches `UpaGeometry.element_coords`: element m = col * m_v
+ row. Horizontal DFT index ih steers the beam to the direction cosine
u = wrap(-ih / (O_h N d_h)) and vertical index iv to w = wrap(-iv / (O_v M_v
d_v)), both wrapped into [-1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import UpaGeometry


@dataclass(frozen=True)
class Codeword:
    weights: np.ndarray  # complex M-vector, unit norm
    active_columns: int
    beam_index_h: int
    beam_index_v: int


@dataclass(frozen=True)
class Codebook:
    """Stack of codewords plus the panel metadata needed to interpret them."""

    panel_m_h: int
    panel_m_v: int
    oversampling_h: int
    oversampling_v: int
    spacing_h_wl: float
    spacing_v_wl: float
    weights: np.ndarray  # N_CB x M
    active_columns: np.ndarray
    beam_index_h: np.ndarray
    beam_index_v: np.ndarray

    def __len__(self) -> int:
        return self.weights.shape[0]

    def direction_cosines(self, index: int) -> tuple[float, float]:
        """(u, w) boresight direction cosines of the indexed beam."""
        n_act = int(self.active_columns[index])
        u = _wrap_cosine(
            -self.beam_index_h[index] / (self.oversampling_h * n_act * self.spacing_h_wl)
        )
        w = _wrap_cosine(
            -self.beam_index_v[index] / (self.oversampling_v * self.panel_m_v * self.spacing_v_wl)
        )
        return float(u), float(w)

    def find(self, active_columns: int, beam_index_h: int, beam_index_v: int) -> int:
        match = np.flatnonzero(
            (self.active_columns == active_columns)
            & (self.beam_index_h == beam_index_h)
            & (self.beam_index_v == beam_index_v)
        )
        if match.size == 0:
            raise KeyError(f"no codeword ({active_columns}, {beam_index_h}, {beam_index_v})")
        return int(match[0])


def _wrap_cosine(x: float) -> float:
    period = 2.0  # direction cosines live in [-1, 1) for half-wavelength spacing
    return (x + 1.0) % period - 1.0


def dft_subbook(active_cols: int, m_h: int, m_v: int, o_h: int, o_v: int) -> list[Codeword]:
    """2D-DFT grid over `active_cols` leftmost columns, rightmost columns zeroed.

    Returns O_h*active_cols x O_v*m_v codewords ordered vertical-major, each a
    Kronecker product of the horizontal and vertical DFT vectors, unit norm.
    """
    if not 1 <= active_cols <= m_h:
        raise ValueError("active_cols must lie in [1, m_h]")
    n_h = o_h * active_cols
    n_v = o_v * m_v
    cols = np.arange(active_cols)
    rows = np.arange(m_v)
    out = []
    for iv in range(n_v):
        a_v = np.exp(2j * np.pi * rows * iv / n_v) / math.sqrt(m_v)
        for ih in range(n_h):
            a_h = np.exp(2j * np.pi * cols * ih / n_h) / math.sqrt(active_cols)
            w = np.zeros(m_h * m_v, dtype=complex)
            block = np.kron(a_h, a_v)  # element m = col * m_v + row
            w[: active_cols * m_v] = block
            out.append(
                Codeword(weights=w, active_columns=active_cols, beam_index_h=ih, beam_index_v=iv)
            )
    return out


def _stack(codewords: list[Codeword], panel: UpaGeometry, o_h: int, o_v: int) -> Codebook:
    return Codebook(
        panel_m_h=panel.m_h,
        panel_m_v=panel.m_v,
        oversampling_h=o_h,
        oversampling_v=o_v,
        spacing_h_wl=panel.element_spacing_h_wavelengths,
        spacing_v_wl=panel.element_spacing_v_wavelengths,
        weights=np.array([c.weights for c in codewords]),
        active_columns=np.array([c.active_columns for c in codewords], dtype=int),
        beam_index_h=np.array([c.beam_index_h for c in codewords], dtype=int),
        beam_index_v=np.array([c.beam_index_v for c in codewords], dtype=int),
    )


def build_ssb_codebook(panel: UpaGeometry, o_h: int = 4, o_v: int = 1) -> Codebook:
    """Concatenate sub-books for active_cols = m_h, m_h - 1, ..., 1."""
    codewords: list[Codeword] = []
    for active in range(panel.m_h, 0, -1):
        codewords.extend(dft_subbook(active, panel.m_h, panel.m_v, o_h, o_v))
    return _stack(codewords, panel, o_h, o_v)


def build_dl_codebook(panel: UpaGeometry, o_h: int = 4, o_v: int = 4) -> Codebook:
    """Full-panel oversampled DFT grid used for data-phase precoding."""
    codewords = dft_subbook(panel.m_h, panel.m_h, panel.m_v, o_h, o_v)
    return _stack(codewords, panel, o_h, o_v)


def export_codebook_csv(codebook: Codebook, path) -> None:
    """Debug/regression dump: one row per codeword, weights as re:im pairs."""
    lines = ["index,active_cols,ih,iv,weights_re_im"]
    for i in range(len(codebook)):
        w = ";".join(f"{x.real:.10g}:{x.imag:.10g}" for x in codebook.weights[i])
        lines.append(
            f"{i},{codebook.active_columns[i]},{codebook.beam_index_h[i]},{codebook.beam_index_v[i]},{w}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
