"""Data-phase performance: precoder choice, multi-user SINR, rates, sweeps.

Every associated UE is scheduled each snapshot (fully loaded cells) with an
equal share of its sector's power. UEs of one cell sharing a precoding
codeword split that codeword's bandwidth (and do not interfere with each
other); co-cell UEs on different codewords and every other cell's in-use
codewords interfere. Statistics are empirical CDFs with a lower-order-
statistic 5 percent tile, pooled over snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import (
    BeamPlan,
    coverage_sinr_all,
    rsrp_table,
    select_serving_all,
)
from .channel import ChannelSet, build_channels
from .codebook import Codebook
from .config import RadioConfig
from .scenario import Scenario


class EmptyGroup(Exception):
    """Statistics requested over an empty sample set."""


@dataclass(frozen=True)
class DataPhaseReport:
    """Per-UE data-phase outcome for one snapshot and plan."""

    serving_sector: np.ndarray
    precoder: np.ndarray
    power_mw: np.ndarray  # per-UE transmit power share
    n_codeword_sharers: np.ndarray
    sinr_db: np.ndarray
    rate_bps: np.ndarray


def data_phase(
    channels: ChannelSet,
    serving_sector: np.ndarray,
    dl_codebook: Codebook,
    radio: RadioConfig,
) -> DataPhaseReport:
    """Precoder selection, SINR and achievable rate for every entity.

    Each UE takes the data codeword maximizing beta |h^T w|^2 toward its
    serving sector, ties to the lowest index.
    """
    n = channels.n_entities
    n_sectors = channels.n_sectors
    sector_power_mw = 10.0 ** (radio.sector_tx_power_dbm / 10.0)

    precoder = np.empty(n, dtype=int)
    members: dict[int, np.ndarray] = {}
    for b in range(n_sectors):
        idx = np.flatnonzero(serving_sector == b)
        if idx.size == 0:
            continue
        members[b] = idx
        metric = channels.beta[idx, b, None] * np.abs(channels.h[idx, b, :] @ dl_codebook.weights.T) ** 2
        precoder[idx] = np.argmax(metric, axis=1)

    p_dl = np.empty(n)
    n_sharers = np.empty(n, dtype=int)
    signal = np.empty(n)
    intra = np.zeros(n)
    inter = np.zeros(n)
    for b, idx in members.items():
        # in-use codewords, each UE's position among them, and their sharers
        used, own, counts = np.unique(precoder[idx], return_inverse=True, return_counts=True)
        p_dl[idx] = sector_power_mw / idx.size
        n_sharers[idx] = counts[own]
        # projections of every entity onto this cell's in-use codewords
        proj_all = np.abs(channels.h[:, b, :] @ dl_codebook.weights[used].T) ** 2  # (N, U)

        own_proj = proj_all[idx, own]
        signal[idx] = channels.beta[idx, b] * own_proj * p_dl[idx]

        # intra-cell: co-cell UEs on *other* codewords
        weighted = proj_all[idx] * counts[None, :] * p_dl[idx][:, None]
        total = weighted.sum(axis=1)
        own_term = own_proj * counts[own] * p_dl[idx]
        intra[idx] = channels.beta[idx, b] * (total - own_term)

        # inter-cell: each in-use codeword weighted by 1/N_w at this cell's
        # per-UE power, felt by every entity served elsewhere
        others = np.ones(n, dtype=bool)
        others[idx] = False
        contrib = (proj_all[others] / counts[None, :]).sum(axis=1)
        inter[others] += channels.beta[others, b] * contrib * (sector_power_mw / idx.size)

    noise = radio.n_prb_total * radio.prb_bandwidth_hz / n_sharers * radio.noise_psd_mw_per_hz
    sinr = signal / (intra + inter + noise)
    sinr_db = 10.0 * np.log10(sinr)
    rate = radio.n_prb_total * radio.prb_bandwidth_hz / n_sharers * np.log2(1.0 + sinr)
    return DataPhaseReport(
        serving_sector=serving_sector.copy(),
        precoder=precoder,
        power_mw=p_dl,
        n_codeword_sharers=n_sharers,
        sinr_db=sinr_db,
        rate_bps=rate,
    )


@dataclass(frozen=True)
class CdfSummary:
    samples: np.ndarray  # sorted ascending

    @classmethod
    def of(cls, values) -> "CdfSummary":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise EmptyGroup("no samples")
        return cls(samples=np.sort(arr))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples, q, method="lower"))

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))


def snapshot_stats(values, group_mask=None) -> CdfSummary:
    """Empirical CDF of a metric, optionally restricted to a boolean mask."""
    arr = np.asarray(values, dtype=float)
    if group_mask is not None:
        arr = arr[np.asarray(group_mask, dtype=bool)]
    return CdfSummary.of(arr)


@dataclass(frozen=True)
class SnapshotResult:
    """Coverage and data-phase outcome of one snapshot under one plan."""

    kinds: np.ndarray  # per-entity "ground" or "aerial"; the UE id is the row index
    serving_sector: np.ndarray
    serving_slot: np.ndarray
    serving_rsrp_mw: np.ndarray
    coverage_sinr_db: np.ndarray
    data: DataPhaseReport


def snapshot_users(
    scenario: Scenario, snapshot: int, n_snapshots: int, d_iud: float
) -> np.recarray:
    """Ground users redrawn per snapshot, then UAVs advanced by d_iud/n_snapshots.

    Returns one record array with the ground block's rows first, then the
    UAV block's (see `scenario.entity_block`).
    """
    gues = scenario.ground_users(snapshot=snapshot)
    offset = (snapshot * d_iud / n_snapshots) % scenario.highway.total_length_m
    return np.concatenate([gues, scenario.uavs(offset_m=offset, d_iud=d_iud)]).view(np.recarray)


def evaluate_snapshot(
    scenario: Scenario,
    plans: dict[str, BeamPlan],
    ssb_codebook: Codebook,
    dl_codebook: Codebook,
    snapshot: int,
    n_snapshots: int,
    d_iud: float | None = None,
) -> dict[str, SnapshotResult]:
    """Evaluate every plan on one snapshot's shared channel realization.

    Returns one result per plan name. The channels are built once, shared by
    the plans and dropped on return; row i of every result is entity i of
    `snapshot_users`, ground users first, then UAVs.
    """
    if d_iud is None:
        d_iud = scenario.uav_spacing_m
    users = snapshot_users(scenario, snapshot, n_snapshots, d_iud)
    channels = build_channels(scenario, users, snapshot=snapshot)
    results = {}
    for name, plan in plans.items():
        table = rsrp_table(channels, plan, ssb_codebook)
        serving_b, serving_s = select_serving_all(table)
        cov = coverage_sinr_all(table, serving_b, serving_s, plan, scenario.radio.ssb_noise_mw)
        data = data_phase(channels, serving_b, dl_codebook, scenario.radio)
        results[name] = SnapshotResult(
            kinds=channels.kinds,
            serving_sector=serving_b,
            serving_slot=serving_s,
            serving_rsrp_mw=table[np.arange(channels.n_entities), serving_b, serving_s],
            coverage_sinr_db=cov,
            data=data,
        )
    return results


@dataclass(frozen=True)
class SweepResult:
    """5 percent tile rates per UAV count, averaged over snapshots."""

    n_uavs: np.ndarray
    d_iud_m: np.ndarray
    p5_rate: dict[str, np.ndarray]  # plan name -> per-N average 5%-tile UAV rate
    p5_gue_rate: dict[str, np.ndarray]


def traffic_sweep(
    scenario: Scenario,
    plans: dict[str, BeamPlan],
    ssb_codebook: Codebook,
    dl_codebook: Codebook,
    n_max: int,
    n_snapshots: int = 20,
) -> SweepResult:
    """Evaluate both plans for N = 1..n_max UAVs at d_IUD = L / N.

    Each (N, snapshot) pair redraws ground users and advances the UAV offset;
    both plans see bit-identical channels. The per-N statistic is the mean
    over snapshots of the per-snapshot 5 percent tile UAV rate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    length = scenario.highway.total_length_m
    n_values = np.arange(1, n_max + 1)
    p5_rate = {name: np.empty(n_max) for name in plans}
    p5_gue_rate = {name: np.empty(n_max) for name in plans}
    for i, n_uav in enumerate(n_values.tolist()):
        uav_p5 = {name: [] for name in plans}
        gue_p5 = {name: [] for name in plans}
        for snapshot in range(n_snapshots):
            results = evaluate_snapshot(
                scenario, plans, ssb_codebook, dl_codebook, snapshot, n_snapshots,
                d_iud=length / n_uav,
            )
            for name, res in results.items():
                aerial = res.kinds == "aerial"
                uav_p5[name].append(snapshot_stats(res.data.rate_bps, aerial).percentile(5))
                gue_p5[name].append(snapshot_stats(res.data.rate_bps, ~aerial).percentile(5))
        for name in plans:
            p5_rate[name][i] = np.mean(uav_p5[name])
            p5_gue_rate[name][i] = np.mean(gue_p5[name])
    return SweepResult(
        n_uavs=n_values, d_iud_m=length / n_values, p5_rate=p5_rate, p5_gue_rate=p5_gue_rate
    )
