"""Segment-to-cell association metric for the aerial corridor.

Scores every (segment, sector) pair with chi = c * log2(1 + P / (F + N)),
where P is the average expected channel power over the segment, c the inverse
condition number of the segment's expected channel matrix (spatial
multiplexing headroom), and F the squared cross-correlation between the
segment and the rest of the corridor (self-interference the cell would leak
onto other segments). The winning cell per segment is the chi argmax.

Channel matrices are expected in linear amplitude including the sqrt(beta)
large-scale scaling, so P is a power, comparable to the noise term N (the
receiver noise over one PRB, noise figure included). F = sum |<h_i, h_z>|^2
is not: it scales with the square of channel power. On the default corridor
F / N is at most 1.84e-4 over all 342 (segment, sector) pairs, so there chi
is close to c * log2(1 + P / N). So chi changes when every channel is scaled
by a and the noise by a^2 (P / N stays, F / N grows by a^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _entries(x: np.ndarray) -> np.ndarray:
    """Each matrix's entries on one flat last axis: a reduction over it runs
    in the pairwise order of the same reduction over one 2-D matrix."""
    return x.reshape(x.shape[:-2] + (-1,))


def avg_channel_gain(h_segment: np.ndarray) -> float | np.ndarray:
    """Mean squared entry magnitude: (1/N_z) sum_z (1/M) sum_m |h|^2.

    Takes one (rows, M) matrix or a stack (..., rows, M), one value per matrix.
    """
    if h_segment.size == 0:
        raise ValueError("segment matrix must be non-empty")
    return np.mean(_entries(np.abs(h_segment) ** 2), axis=-1)


def inv_condition_number(h_segment: np.ndarray) -> float | np.ndarray:
    """sigma_min / sigma_max of the segment matrix, in [0, 1]; 0 if degenerate.

    Uses the compact SVD, so segments with fewer points than antennas stay
    well defined. Takes one matrix or a stack (..., rows, M).
    """
    s = np.linalg.svd(h_segment, compute_uv=False)
    top = s[..., 0]
    return np.divide(s[..., -1], top, out=np.zeros_like(top), where=top > 0)[()]


def cross_corr_frobenius(h_segment: np.ndarray, h_complement: np.ndarray) -> float | np.ndarray:
    """Squared Frobenius norm of the complement x segment correlation matrix.

    Sums |<h_i, h_z>|^2 over all (complement row i, segment row z) pairs;
    zero when the complement is empty. Takes one pair of matrices or two
    stacks with the same leading axes.
    """
    inner = h_complement @ h_segment.conj().swapaxes(-1, -2)
    return np.sum(_entries(np.abs(inner) ** 2), axis=-1)


def segment_cell_metric(
    h_segment: np.ndarray, h_complement: np.ndarray, noise_mw: float
) -> tuple[float | np.ndarray, ...]:
    """(P, c, F, chi) of one (segment, sector) pair, chi = c * log2(1 + P / (F + noise)).

    chi is 0 when c is 0; P and F are computed either way. Stacked inputs
    (..., rows, M) score many pairs at once, one value per pair in each
    output.
    """
    p = avg_channel_gain(h_segment)
    c = inv_condition_number(h_segment)
    f = cross_corr_frobenius(h_segment, h_complement)
    ratio = np.asarray(1.0 + p / (f + noise_mw))
    # math.log2 per value: np.log2 can differ in the last bit
    log2 = np.array([math.log2(x) for x in ratio.flat]).reshape(ratio.shape)
    chi = np.where(c == 0.0, 0.0, c * log2)[()]
    return p, c, f, chi


@dataclass(frozen=True)
class SegmentAssignment:
    """The designated-cell set, each corridor point's required cell and every pair's terms.

    `p_gain`, `inv_cond`, `cross_corr` and `chi` are (Z, B) arrays, row z
    segment z, column b sector b.
    """

    designated_cells: tuple[int, ...]  # sorted unique serving cells
    required_cell: np.ndarray  # per corridor point, its segment's serving cell
    p_gain: np.ndarray
    inv_cond: np.ndarray
    cross_corr: np.ndarray
    chi: np.ndarray


def assign_segments(
    h: np.ndarray, segments: Sequence[tuple[int, int]], noise_mw: float
) -> SegmentAssignment:
    """Score every (segment, sector) pair and pick the best cell per segment.

    `h` is the (B, N, M) expected channel array of `channel.expected_channels`,
    row b toward sector b; `segments` are the (start, stop) point ranges.
    Each segment takes one `segment_cell_metric` call over all B sectors.
    Ties go to the lowest sector id.
    """
    scores = [
        segment_cell_metric(h[:, a:b], np.concatenate([h[:, :a], h[:, b:]], axis=1), noise_mw)
        for a, b in segments
    ]
    p_gain, inv_cond, cross_corr, chi = (np.array(x) for x in zip(*scores))
    serving = np.argmax(chi, axis=1)  # first occurrence: the lowest sector id
    return SegmentAssignment(
        designated_cells=tuple(sorted(set(serving.tolist()))),
        required_cell=np.repeat(serving, [b - a for a, b in segments]),
        p_gain=p_gain,
        inv_cond=inv_cond,
        cross_corr=cross_corr,
        chi=chi,
    )
