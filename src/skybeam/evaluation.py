"""Data-phase performance: precoder choice, multi-user SINR, rates, sweeps.

Every associated UE is scheduled each snapshot (fully loaded cells) with an
equal share of its sector's power. UEs of one cell sharing a precoding
codeword split that codeword's bandwidth (and do not interfere with each
other); co-cell UEs on different codewords and every other cell's in-use
codewords interfere. Statistics are empirical CDFs with a lower-order-
statistic 5 percent tile, pooled over snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .scenario import Scenario, User


class EmptyGroup(Exception):
    """Statistics requested over an empty sample set."""


def select_dl_precoder(entity: int, serving_sector: int, dl_codebook: Codebook, channels: ChannelSet) -> int:
    """Index of the codeword maximizing beta |h^T w|^2; ties go to the lowest index."""
    h = channels.h[entity, serving_sector]
    metric = channels.beta[entity, serving_sector] * np.abs(h @ dl_codebook.weights.T) ** 2
    return int(np.argmax(metric))


def achievable_rate(sinr_db: float, n_codeword_sharers: int, radio: RadioConfig) -> float:
    """Shannon rate over the UE's bandwidth share, in bit/s."""
    if n_codeword_sharers < 1:
        raise ValueError("codeword sharer count must be >= 1")
    gamma = 10.0 ** (sinr_db / 10.0)
    return radio.n_prb_total * radio.prb_bandwidth_hz / n_codeword_sharers * math.log2(1.0 + gamma)


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
    """Precoder selection, SINR and achievable rate for every entity."""
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
    for b, idx in members.items():
        p_dl[idx] = sector_power_mw / idx.size
        cw, counts = np.unique(precoder[idx], return_counts=True)
        lookup = dict(zip(cw.tolist(), counts.tolist()))
        n_sharers[idx] = [lookup[c] for c in precoder[idx]]

    signal = np.empty(n)
    intra = np.zeros(n)
    inter = np.zeros(n)
    for b, idx in members.items():
        used = np.unique(precoder[idx])
        w_used = dl_codebook.weights[used]  # (U, M)
        # projections of every entity onto this cell's in-use codewords
        proj_all = np.abs(channels.h[:, b, :] @ w_used.T) ** 2  # (N, U)
        counts = np.array([np.sum(precoder[idx] == c) for c in used], dtype=float)
        own_pos = {c: k for k, c in enumerate(used.tolist())}

        own_proj = proj_all[idx, [own_pos[c] for c in precoder[idx]]]
        signal[idx] = channels.beta[idx, b] * own_proj * p_dl[idx]

        # intra-cell: co-cell UEs on *other* codewords
        weighted = proj_all[idx] * counts[None, :] * p_dl[idx][:, None]
        total = weighted.sum(axis=1)
        own_term = own_proj * counts[[own_pos[c] for c in precoder[idx]]] * p_dl[idx]
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


def data_sinr(
    entity: int,
    channels: ChannelSet,
    serving_sector: np.ndarray,
    precoder: np.ndarray,
    radio: RadioConfig,
    dl_codebook: Codebook,
) -> float:
    """Data-phase SINR in dB of one entity given everyone's serving cell and
    precoder. Term-by-term reference path; `data_phase` is the bulk version.
    """
    n = channels.n_entities
    b_hat = int(serving_sector[entity])
    beta = channels.beta
    h_u = channels.h[entity]
    p_cell = {
        int(b): 10.0 ** (radio.sector_tx_power_dbm / 10.0) / int(np.sum(serving_sector == b))
        for b in np.unique(serving_sector)
    }
    w_u = dl_codebook.weights[precoder[entity]]
    signal = beta[entity, b_hat] * abs(h_u[b_hat] @ w_u) ** 2 * p_cell[b_hat]
    intra = 0.0
    for other in range(n):
        if other == entity or serving_sector[other] != b_hat:
            continue
        if precoder[other] == precoder[entity]:
            continue
        w_p = dl_codebook.weights[precoder[other]]
        intra += beta[entity, b_hat] * abs(h_u[b_hat] @ w_p) ** 2 * p_cell[b_hat]
    inter = 0.0
    for b in np.unique(serving_sector):
        if b == b_hat:
            continue
        cw, counts = np.unique(precoder[serving_sector == b], return_counts=True)
        for c, cnt in zip(cw, counts):
            w_i = dl_codebook.weights[c]
            inter += beta[entity, b] * abs(h_u[b] @ w_i) ** 2 * p_cell[int(b)] / cnt
    n_w = int(np.sum((serving_sector == b_hat) & (precoder == precoder[entity])))
    noise = radio.n_prb_total * radio.prb_bandwidth_hz / n_w * radio.noise_psd_mw_per_hz
    return 10.0 * math.log10(signal / (intra + inter + noise))


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

    kinds: tuple[str, ...]
    serving_sector: np.ndarray
    serving_slot: np.ndarray
    coverage_sinr_db: np.ndarray
    data: DataPhaseReport


def snapshot_users(scenario: Scenario, snapshot: int, n_snapshots: int, d_iud: float) -> list[User]:
    """Ground users redrawn per snapshot; UAVs advanced by d_iud/n_snapshots."""
    gues = scenario.ground_users(snapshot=snapshot)
    offset = (snapshot * d_iud / n_snapshots) % scenario.highway.total_length_m
    uavs = scenario.uavs(offset_m=offset, d_iud=d_iud)
    users = []
    for u in gues + uavs:
        users.append(replace(u, id=len(users)))
    return users


def evaluate_snapshot(
    scenario: Scenario,
    plans: dict[str, BeamPlan],
    ssb_codebook: Codebook,
    dl_codebook: Codebook,
    snapshot: int,
    n_snapshots: int,
    d_iud: float | None = None,
) -> tuple[ChannelSet, dict[str, SnapshotResult]]:
    """Evaluate every plan on one snapshot's shared channel realization."""
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
            coverage_sinr_db=cov,
            data=data,
        )
    return channels, results


@dataclass(frozen=True)
class SweepResult:
    """5 percent tile rates per UAV count, averaged over snapshots."""

    n_uavs: np.ndarray
    d_iud_m: np.ndarray
    p5_rate: dict[str, np.ndarray]  # plan name -> per-N average 5%-tile UAV rate
    p5_gue_rate: dict[str, np.ndarray]

    def max_supported(self, plan: str, threshold_bps: float) -> int:
        ok = self.p5_rate[plan] >= threshold_bps
        return int(self.n_uavs[ok].max()) if np.any(ok) else 0


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
            # index the result so the snapshot's channels are freed before the next one
            results = evaluate_snapshot(
                scenario, plans, ssb_codebook, dl_codebook, snapshot, n_snapshots,
                d_iud=length / n_uav,
            )[1]
            for name, res in results.items():
                aerial = np.array([k == "aerial" for k in res.kinds])
                uav_p5[name].append(snapshot_stats(res.data.rate_bps, aerial).percentile(5))
                gue_p5[name].append(snapshot_stats(res.data.rate_bps, ~aerial).percentile(5))
        for name in plans:
            p5_rate[name][i] = np.mean(uav_p5[name])
            p5_gue_rate[name][i] = np.mean(gue_p5[name])
    return SweepResult(
        n_uavs=n_values, d_iud_m=length / n_values, p5_rate=p5_rate, p5_gue_rate=p5_gue_rate
    )
