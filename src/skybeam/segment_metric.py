"""Segment-to-cell association metric for the aerial corridor.

Scores every (segment, sector) pair with chi = c * log2(1 + P / (F + N)),
where P is the average expected channel power over the segment, c the inverse
condition number of the segment's expected channel matrix (spatial
multiplexing headroom), and F the squared cross-correlation between the
segment and the rest of the corridor (self-interference the cell would leak
onto other segments). The winning cell per segment is the chi argmax.

Channel matrices are expected in linear amplitude including the sqrt(beta)
large-scale scaling, so P and F are power-like and comparable to the noise
term (thermal noise over one PRB by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import HighwayChannels
from .config import RadioConfig


def avg_channel_gain(h_segment: np.ndarray) -> float:
    """Mean squared entry magnitude: (1/N_z) sum_z (1/M) sum_m |h|^2."""
    if h_segment.size == 0:
        raise ValueError("segment matrix must be non-empty")
    return float(np.mean(np.abs(h_segment) ** 2))


def inv_condition_number(h_segment: np.ndarray) -> float:
    """sigma_min / sigma_max of the segment matrix, in [0, 1]; 0 if degenerate.

    Uses the compact SVD, so segments with fewer points than antennas stay
    well defined.
    """
    s = np.linalg.svd(np.atleast_2d(h_segment), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0.0
    return float(s[-1] / s[0])


def cross_corr_frobenius(h_segment: np.ndarray, h_complement: np.ndarray) -> float:
    """Squared Frobenius norm of the complement x segment correlation matrix.

    Sums |<h_i, h_z>|^2 over all (complement row i, segment row z) pairs;
    zero when the complement is empty.
    """
    if h_complement.size == 0 or h_segment.size == 0:
        return 0.0
    inner = h_complement @ h_segment.conj().T
    return float(np.sum(np.abs(inner) ** 2))


def segment_cell_metric(
    h_segment: np.ndarray, h_complement: np.ndarray, noise_mw: float
) -> tuple[float, float, float, float]:
    """(P, c, F, chi) of one (segment, sector) pair, chi = c * log2(1 + P / (F + noise)).

    chi is 0 when c is 0; P and F are computed either way.
    """
    p = avg_channel_gain(h_segment)
    c = inv_condition_number(h_segment)
    f = cross_corr_frobenius(h_segment, h_complement)
    chi = 0.0 if c == 0.0 else c * math.log2(1.0 + p / (f + noise_mw))
    return p, c, f, chi


def metric_noise_mw(radio: RadioConfig) -> float:
    """Noise term of the metric: thermal PSD integrated over one PRB."""
    return radio.noise_psd_mw_per_hz * radio.prb_bandwidth_hz


@dataclass(frozen=True)
class MetricBreakdown:
    segment_id: int
    sector_id: int
    p_gain: float
    inv_cond: float
    cross_corr: float
    chi: float


@dataclass(frozen=True)
class SegmentAssignment:
    """Chi argmax per segment plus the deduplicated designated-cell set."""

    serving_cell: tuple[int, ...]  # per segment
    designated_cells: tuple[int, ...]  # sorted unique serving cells
    breakdown: tuple[MetricBreakdown, ...]

    def required_cell_per_point(self, segments: Sequence[tuple[int, int]], n_points: int) -> np.ndarray:
        req = np.empty(n_points, dtype=int)
        for z, (a, b) in enumerate(segments):
            req[a:b] = self.serving_cell[z]
        return req


def assign_segments(
    highway_channels: Sequence[HighwayChannels], noise_mw: float
) -> SegmentAssignment:
    """Score every (segment, sector) pair and pick the best cell per segment.

    Ties go to the lowest sector id. `highway_channels` must be ordered by
    sector id.
    """
    if not highway_channels:
        raise ValueError("need at least one sector's highway channels")
    n_seg = len(highway_channels[0].segments)
    breakdown: list[MetricBreakdown] = []
    serving: list[int] = []
    for z in range(n_seg):
        best_chi = -math.inf
        best_sector = None
        for hw in highway_channels:
            p, c, f, chi = segment_cell_metric(
                hw.segment_matrix(z), hw.complement_matrix(z), noise_mw
            )
            breakdown.append(
                MetricBreakdown(
                    segment_id=z, sector_id=hw.sector_id, p_gain=p, inv_cond=c,
                    cross_corr=f, chi=chi,
                )
            )
            # argmax with lowest-sector-id tie-break, independent of input order
            if chi > best_chi or (chi == best_chi and hw.sector_id < best_sector):
                best_chi = chi
                best_sector = hw.sector_id
        serving.append(int(best_sector))
    return SegmentAssignment(
        serving_cell=tuple(serving),
        designated_cells=tuple(sorted(set(serving))),
        breakdown=tuple(breakdown),
    )


def dump_metric_csv(assignment: SegmentAssignment, path) -> None:
    lines = ["segment_id,sector_id,p_gain_db,inv_cond,cross_corr_db,chi"]
    for row in assignment.breakdown:
        p_db = 10.0 * math.log10(row.p_gain) if row.p_gain > 0 else -math.inf
        f_db = 10.0 * math.log10(row.cross_corr) if row.cross_corr > 0 else -math.inf
        lines.append(
            f"{row.segment_id},{row.sector_id},{p_db:.10g},{row.inv_cond:.10g},"
            f"{f_db:.10g},{row.chi:.10g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
