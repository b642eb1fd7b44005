"""Data-phase performance: precoder choice, multi-user SINR, rates, sweeps.

Every associated UE is scheduled each snapshot (fully loaded cells) with an
equal share of its sector's power. UEs of one cell sharing a precoding
codeword split that codeword's bandwidth (and do not interfere with each
other); co-cell UEs on different codewords and every other cell's in-use
codewords interfere. Statistics are empirical CDFs with a lower-order-
statistic 5 percent tile, pooled over snapshots.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    blocks: Sequence[ChannelSet],
    serving_sector: np.ndarray,
    dl_codebook: Codebook,
    radio: RadioConfig,
) -> DataPhaseReport:
    """Precoder selection, SINR and achievable rate for every entity.

    `blocks` are channel sets against the same sectors, such as a snapshot's
    ground block and its UAV block; their rows, in order, are the entities
    that `serving_sector` indexes. Only the (N, B) beta, each UE's (N, M)
    rows toward its serving sector and one sector's (N, M) rows at a time
    are joined, never an (N, B, M) array.

    Each UE takes the data codeword maximizing beta |h^T w|^2 toward its
    serving sector, ties to the lowest index.
    """
    beta = np.concatenate([blk.beta for blk in blocks])
    n, n_sectors = beta.shape
    n_codewords = dl_codebook.weights.shape[0]
    sector_power_mw = 10.0 ** (radio.sector_tx_power_dbm / 10.0)
    beta_serving = beta[np.arange(n), serving_sector]

    # every UE's channel toward its serving sector, (N, M), and its precoder
    per_block = np.split(serving_sector, np.cumsum([blk.n_entities for blk in blocks])[:-1])
    h_serving = np.concatenate(
        [blk.h[np.arange(blk.n_entities), s] for blk, s in zip(blocks, per_block)]
    )
    metric = beta_serving[:, None] * np.abs(h_serving @ dl_codebook.weights.T) ** 2
    precoder = np.argmax(metric, axis=1)

    # equal power share per served UE of a sector
    served = np.bincount(serving_sector, minlength=n_sectors)
    p_dl = sector_power_mw / served[serving_sector]
    n_sharers = np.empty(n, dtype=int)
    own_proj = np.empty(n)
    total = np.empty(n)
    inter = np.zeros(n)
    order = np.argsort(serving_sector, kind="stable")
    starts = np.cumsum(served) - served
    for b in np.flatnonzero(served).tolist():
        idx = order[starts[b]:starts[b] + served[b]]
        p = sector_power_mw / idx.size
        # in-use codewords (ascending), their sharer counts and each UE's
        # position among them
        per_codeword = np.bincount(precoder[idx], minlength=n_codewords)
        used = np.flatnonzero(per_codeword)
        counts = per_codeword[used]
        own = (np.cumsum(per_codeword != 0) - 1)[precoder[idx]]
        n_sharers[idx] = counts[own]
        # projections of every entity onto this cell's in-use codewords
        h_b = np.concatenate([blk.h[:, b, :] for blk in blocks])  # (N, M)
        proj_all = np.abs(h_b @ dl_codebook.weights[used].T) ** 2  # (N, U)
        own_proj[idx] = proj_all[idx, own]
        # co-cell power over all in-use codewords, own codeword included
        total[idx] = (proj_all[idx] * counts * p).sum(axis=1)
        # inter-cell: each in-use codeword weighted by 1/N_w at this cell's
        # per-UE power, felt by every entity served elsewhere
        contrib = (proj_all / counts).sum(axis=1)
        contrib[idx] = 0.0
        inter += beta[:, b] * contrib * p

    signal = beta_serving * own_proj * p_dl
    # intra-cell: co-cell UEs on *other* codewords
    intra = beta_serving * (total - own_proj * n_sharers * p_dl)
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
class Association:
    """Serving beam, its RSRP and the coverage SINR of each row of one
    channel block under one plan."""

    serving_sector: np.ndarray
    serving_slot: np.ndarray
    serving_rsrp_mw: np.ndarray
    coverage_sinr_db: np.ndarray


def associate(channels: ChannelSet, plan: BeamPlan, ssb_codebook: Codebook, noise_mw: float) -> Association:
    """Associate every row of `channels` under `plan`.

    `rsrp_table`, `select_serving_all` and `coverage_sinr_all` treat each
    row on its own, so the rows of two blocks associate the same whether the
    blocks are associated apart or together; the (N, B, S) table is dropped
    on return and only the per-row vectors are kept.
    """
    table = rsrp_table(channels, plan, ssb_codebook)
    serving_b, serving_s = select_serving_all(table)
    return Association(
        serving_sector=serving_b,
        serving_slot=serving_s,
        serving_rsrp_mw=table[np.arange(channels.n_entities), serving_b, serving_s],
        coverage_sinr_db=coverage_sinr_all(table, serving_b, serving_s, plan, noise_mw),
    )


@dataclass(frozen=True)
class SnapshotResult:
    """Coverage and data-phase outcome of one snapshot under one plan."""

    kinds: np.ndarray  # per-entity "ground" or "aerial"; the UE id is the row index
    serving_sector: np.ndarray
    serving_slot: np.ndarray
    serving_rsrp_mw: np.ndarray
    coverage_sinr_db: np.ndarray
    data: DataPhaseReport


def _check_snapshots(n_snapshots: int) -> None:
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be >= 1, got {n_snapshots}")


def ground_channels(scenario: Scenario, snapshot: int) -> ChannelSet:
    """The snapshot's ground-user drop and its channels, on the "ue" streams."""
    return build_channels(scenario, scenario.ground_users(snapshot=snapshot), snapshot, "ue")


def snapshot_uavs(scenario: Scenario, snapshot: int, n_snapshots: int, d_iud: float) -> np.recarray:
    """UAVs at spacing d_iud, advanced by d_iud / n_snapshots per snapshot."""
    _check_snapshots(n_snapshots)
    offset = (snapshot * d_iud / n_snapshots) % scenario.highway.total_length_m
    return scenario.uavs(offset_m=offset, d_iud=d_iud)


def evaluate_snapshot(
    scenario: Scenario,
    plans: dict[str, BeamPlan],
    ssb_codebook: Codebook,
    dl_codebook: Codebook,
    snapshot: int,
    n_snapshots: int,
    d_iud: float | None = None,
    ground: ChannelSet | None = None,
    ground_association: dict[str, Association] | None = None,
) -> dict[str, SnapshotResult]:
    """Evaluate every plan on one snapshot's channel realization.

    Returns one result per plan name; row i of every result is entity i, the
    ground users first, then the UAVs. The snapshot's ground block
    (`ground_channels`) and UAV block (`snapshot_uavs` on the "uav" streams)
    are built apart and shared by the plans. A caller that already holds
    the ground block passes it as `ground`, and may pass its per-plan
    `associate` results as `ground_association`; then only the UAV block is
    built and associated.
    """
    if ground_association is not None and ground is None:
        raise ValueError("ground_association needs the ground block it was computed on")
    if d_iud is None:
        d_iud = scenario.uav_spacing_m
    uavs = build_channels(scenario, snapshot_uavs(scenario, snapshot, n_snapshots, d_iud), snapshot, "uav")
    if ground is None:
        ground = ground_channels(scenario, snapshot)
    noise_mw = scenario.radio.ssb_noise_mw
    kinds = np.concatenate([ground.kinds, uavs.kinds])
    results = {}
    for name, plan in plans.items():
        if ground_association is None:
            gue = associate(ground, plan, ssb_codebook, noise_mw)
        else:
            gue = ground_association[name]
        uav = associate(uavs, plan, ssb_codebook, noise_mw)
        serving_b = np.concatenate([gue.serving_sector, uav.serving_sector])
        results[name] = SnapshotResult(
            kinds=kinds,
            serving_sector=serving_b,
            serving_slot=np.concatenate([gue.serving_slot, uav.serving_slot]),
            serving_rsrp_mw=np.concatenate([gue.serving_rsrp_mw, uav.serving_rsrp_mw]),
            coverage_sinr_db=np.concatenate([gue.coverage_sinr_db, uav.coverage_sinr_db]),
            data=data_phase((ground, uavs), serving_b, dl_codebook, scenario.radio),
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
    first_ground: ChannelSet | None = None,
) -> SweepResult:
    """Evaluate both plans for N = 1..n_max UAVs at d_IUD = L / N.

    Snapshots are the outer loop and N the inner one. Each snapshot's ground
    users are drawn, built and associated once per plan, then shared by all
    N; each (N, snapshot) cell builds and associates only its UAV block, at
    the snapshot's UAV offset. `first_ground`, if given, is snapshot 0's
    ground block; a caller that keeps no reference to it lets it be freed
    after snapshot 0. Both plans see bit-identical channels. The per-N
    statistic is the mean over snapshots, in snapshot order, of the
    per-snapshot 5 percent tile UAV rate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_snapshots(n_snapshots)
    length = scenario.highway.total_length_m
    n_values = np.arange(1, n_max + 1)
    uav_p5 = {name: [[] for _ in range(n_max)] for name in plans}
    gue_p5 = {name: [[] for _ in range(n_max)] for name in plans}
    for snapshot in range(n_snapshots):
        ground = None  # frees the previous snapshot's block before the next is built
        if first_ground is not None:  # snapshot 0's, freed once snapshot 0 is done
            ground, first_ground = first_ground, None
        else:
            ground = ground_channels(scenario, snapshot)
        ground_association = {
            name: associate(ground, plan, ssb_codebook, scenario.radio.ssb_noise_mw)
            for name, plan in plans.items()
        }
        for i, n_uav in enumerate(n_values.tolist()):
            results = evaluate_snapshot(
                scenario, plans, ssb_codebook, dl_codebook, snapshot, n_snapshots,
                d_iud=length / n_uav, ground=ground, ground_association=ground_association,
            )
            for name, res in results.items():
                aerial = res.kinds == "aerial"
                uav_p5[name][i].append(snapshot_stats(res.data.rate_bps, aerial).percentile(5))
                gue_p5[name][i].append(snapshot_stats(res.data.rate_bps, ~aerial).percentile(5))
    return SweepResult(
        n_uavs=n_values,
        d_iud_m=length / n_values,
        p5_rate={name: np.array([np.mean(v) for v in uav_p5[name]]) for name in plans},
        p5_gue_rate={name: np.array([np.mean(v) for v in gue_p5[name]]) for name in plans},
    )
