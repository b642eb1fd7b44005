"""Data-phase performance: precoder choice, multi-user SINR, rates, sweeps.

Every associated UE is scheduled each snapshot (fully loaded cells) with an
equal share of its sector's power. UEs of one cell sharing a precoding
codeword split that codeword's bandwidth (and do not interfere with each
other); co-cell UEs on different codewords and every other cell's in-use
codewords interfere. Statistics are lower-order-statistic 5 percent tiles
(`p5`), pooled over snapshots.

The data phase runs in two steps: a ground step per snapshot and plan
(`data_phase_ground`) and a UAV step per UAV block (`data_phase_uavs`), so a
traffic sweep pays per UAV count only for what the UAVs change. Every block,
ground or UAV, comes from its own `channel.build_channels` call. Plans
share each block's channels, and each plan is evaluated on them in full.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .association import (
    BeamPlan,
    coverage_sinr_all,
    rsrp_table,
    select_serving_all,
    sinr_db,
    unique_ints,
)
from .channel import ChannelSet, build_channels, entity_block
from .codebook import Codebook
from .config import RadioConfig
from .scenario import Scenario, place_uavs


@dataclass(frozen=True)
class DataPhaseReport:
    """Per-UE data-phase outcome for one snapshot and plan."""

    serving_sector: np.ndarray
    precoder: np.ndarray
    n_codeword_sharers: np.ndarray
    sinr_db: np.ndarray
    rate_bps: np.ndarray


@dataclass(frozen=True)
class GroundDataPhase:
    """The ground step of the data phase: one ground block under one plan's
    association, with every term that a cell's UAVs leave alone.

    Computed once per (snapshot, plan) by `data_phase_ground`; each cell's
    `data_phase_uavs` reads it. Rows are the ground block's.
    """

    channels: ChannelSet
    serving_sector: np.ndarray
    precoder: np.ndarray
    served: np.ndarray  # (B,) ground UEs per sector
    # the serving sectors grouped by their count U of in-use codewords:
    # (sectors, their (U, M) in-use codeword weights, their (U,) sharer counts)
    codeword_groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    n_codeword_sharers: np.ndarray
    own_proj: np.ndarray  # |h^T w|^2 toward the serving sector, own codeword
    total: np.ndarray  # per-UE-power-weighted projections on the serving sector's in-use codewords
    inter_terms: np.ndarray  # (G, B) each sector's inter-cell term, 0 where it serves no one
    dl_weights: np.ndarray
    radio: RadioConfig


def _precoders(h_serving: np.ndarray, beta_serving: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The data codeword maximizing beta |h^T w|^2 per row, ties to the lowest index."""
    metric = beta_serving[:, None] * np.abs(h_serving @ weights.T) ** 2
    return np.argmax(metric, axis=1)


def _sector_terms(h_b, beta_b, idx, precoder, weights, sector_power_mw):
    """One serving sector's terms on the rows of `h_b`, its (N, M) channel
    rows, of which it serves the rows `idx`.

    Returns its per-codeword sharer counts, then, for the rows in `idx`,
    their sharer counts, own projections and co-cell totals, and for every
    row its inter-cell term (0 on the rows in `idx`).
    """
    p = sector_power_mw / idx.size
    # in-use codewords (ascending), their sharer counts and each UE's
    # position among them
    per_codeword = np.bincount(precoder[idx], minlength=weights.shape[0])
    used = np.flatnonzero(per_codeword)
    counts = per_codeword[used]
    own = np.searchsorted(used, precoder[idx])
    # projections of every row onto this cell's in-use codewords
    proj_all = np.abs(h_b @ weights[used].T)  # (N, U)
    np.square(proj_all, out=proj_all)
    own_proj = proj_all[idx, own]
    # co-cell power over all in-use codewords, own codeword included
    total = (proj_all[idx] * counts * p).sum(axis=1)
    # inter-cell: each in-use codeword weighted by 1/N_w at this cell's
    # per-UE power, felt by every row served elsewhere
    contrib = (proj_all / counts).sum(axis=1)
    contrib[idx] = 0.0
    return per_codeword, counts[own], own_proj, total, beta_b * contrib * p


def data_phase_ground(
    ground: ChannelSet, serving_sector: np.ndarray, dl_codebook: Codebook, radio: RadioConfig
) -> GroundDataPhase:
    """The ground step: the ground rows' precoders, and every serving
    sector's in-use codewords and terms on the ground rows alone.
    """
    g, n_sectors = ground.beta.shape
    weights = dl_codebook.weights
    per_codeword = np.zeros((n_sectors, weights.shape[0]), dtype=int)  # (B, C) ground UEs
    n_sharers = np.empty(g, dtype=int)
    own_proj = np.empty(g)
    total = np.empty(g)
    inter_terms = np.zeros((g, n_sectors))
    rows = np.arange(g)
    precoder = _precoders(ground.h[rows, serving_sector], ground.beta[rows, serving_sector], weights)
    for b in unique_ints(serving_sector)[0].tolist():
        idx = np.flatnonzero(serving_sector == b)
        per_codeword[b], n_sharers[idx], own_proj[idx], total[idx], inter_terms[:, b] = _sector_terms(
            ground.h[:, b, :], ground.beta[:, b], idx, precoder, weights, radio.sector_tx_power_mw
        )
    n_used = np.count_nonzero(per_codeword, axis=1)
    groups = []
    for u in unique_ints(n_used[n_used > 0])[0].tolist():
        sectors = np.flatnonzero(n_used == u)
        used = np.nonzero(per_codeword[sectors])[1].reshape(-1, u)  # ascending per sector
        groups.append((sectors, weights[used], per_codeword[sectors[:, None], used]))
    return GroundDataPhase(
        channels=ground,
        serving_sector=serving_sector,
        precoder=precoder,
        served=per_codeword.sum(axis=1),
        codeword_groups=tuple(groups),
        n_codeword_sharers=n_sharers,
        own_proj=own_proj,
        total=total,
        inter_terms=inter_terms,
        dl_weights=weights,
        radio=radio,
    )


def data_phase_uavs(
    ground: GroundDataPhase, uavs: ChannelSet, serving_sector: np.ndarray
) -> DataPhaseReport:
    """The UAV step: the data phase of the ground rows joined with the rows
    of `uavs`, served by `serving_sector`.

    Rows are the ground users first, then the UAVs. A sector that serves a
    UAV is recomputed in full on the joined rows. Every other sector keeps
    its ground terms and only projects the UAV rows onto its in-use
    codewords, in one stacked product per group of sectors with the same
    count of in-use codewords. Inter-cell interference sums the sectors'
    terms left to right, the order of a loop over sectors. The result is
    the data phase of the joined rows, bit for bit.

    A product over exactly one row takes BLAS's matrix-vector kernel and
    rounds differently from the same row inside a product of two or more,
    so the UAV rows' products carry one ground row in front (dropped from
    the result) whenever the ground block is not empty. A one-row ground
    block joined with UAVs would still round apart from the joined product;
    a scenario's ground block has at least one user in each of three
    sectors.
    """
    gb = ground.channels
    radio = ground.radio
    weights = ground.dl_weights
    g, n_sectors = gb.beta.shape
    sector_power_mw = radio.sector_tx_power_mw
    uav_beta, uav_h = uavs.beta, uavs.h
    u = uav_beta.shape[0]
    n = g + u
    serving = np.concatenate([ground.serving_sector, serving_sector])
    beta = np.concatenate([gb.beta, uav_beta])
    beta_serving = beta[np.arange(n), serving]
    # equal power share per served UE of a sector
    p_dl = sector_power_mw / np.bincount(serving, minlength=n_sectors)[serving]
    precoder = ground.precoder
    n_sharers = np.concatenate([ground.n_codeword_sharers, np.empty(u, dtype=int)])
    own_proj = np.concatenate([ground.own_proj, np.empty(u)])
    total = np.concatenate([ground.total, np.empty(u)])
    terms = np.zeros((n, n_sectors))
    terms[:g] = ground.inter_terms

    if u:
        pad = min(g, 1)  # ground rows in front of the UAV rows' products
        padded = np.concatenate([gb.h[:pad], uav_h])  # (pad + U, B, M)
        padded_serving = np.concatenate([ground.serving_sector[:pad], serving_sector])
        padded_beta = np.concatenate([gb.beta[np.arange(pad), padded_serving[:pad]], beta_serving[g:]])
        uav_precoder = _precoders(padded[np.arange(pad + u), padded_serving], padded_beta, weights)
        precoder = np.concatenate([precoder, uav_precoder[pad:]])

        serves_uav = np.zeros(n_sectors, dtype=bool)
        serves_uav[serving_sector] = True
        for b in np.flatnonzero(serves_uav).tolist():
            idx = np.flatnonzero(serving == b)
            h_b = np.concatenate([gb.h[:, b, :], uav_h[:, b, :]])
            _, n_sharers[idx], own_proj[idx], total[idx], terms[:, b] = _sector_terms(
                h_b, beta[:, b], idx, precoder, weights, sector_power_mw
            )
        by_sector = padded.transpose(1, 0, 2)  # (B, pad + U, M) view
        for sectors, w, counts in ground.codeword_groups:
            keep = ~serves_uav[sectors]
            sectors = sectors[keep]
            proj = np.abs(np.matmul(by_sector[sectors], w[keep].transpose(0, 2, 1))) ** 2
            contrib = (proj[:, pad:] / counts[keep][:, None, :]).sum(axis=2)  # (sectors, U)
            terms[g:, sectors] = uav_beta[:, sectors] * contrib.T * (sector_power_mw / ground.served[sectors])
    inter = np.cumsum(terms, axis=1)[:, -1]

    signal = beta_serving * own_proj * p_dl
    # intra-cell: co-cell UEs on *other* codewords
    intra = beta_serving * (total - own_proj * n_sharers * p_dl)
    share_hz = radio.n_prb_total * radio.prb_bandwidth_hz / n_sharers  # a codeword's sharers split the band
    noise = np.array([radio.noise_mw(bandwidth) for bandwidth in share_hz.tolist()])
    impairment = intra + inter + noise
    rate = share_hz * np.log2(1.0 + signal / impairment)
    return DataPhaseReport(
        serving_sector=serving,
        precoder=precoder,
        n_codeword_sharers=n_sharers,
        sinr_db=sinr_db(signal, impairment),
        rate_bps=rate,
    )


def p5(values) -> float:
    """The lower-order-statistic 5 percent tile of `values`; no samples raise ValueError."""
    samples = np.asarray(values, dtype=float)
    if samples.size == 0:
        raise ValueError("5%-tile of an empty sample set")
    return float(np.percentile(samples, 5, method="lower"))


@dataclass(frozen=True)
class Association:
    """Serving beam, its RSRP and the coverage SINR of each row of one
    channel block under one plan."""

    serving_sector: np.ndarray
    serving_slot: np.ndarray
    serving_rsrp_mw: np.ndarray
    coverage_sinr_db: np.ndarray


def associate(table: np.ndarray, noise_mw: float) -> Association:
    """Associate every row of `table`, the (N, B, S) `rsrp_table` of a
    channel block under a plan.

    `rsrp_table`, `select_serving_all` and `coverage_sinr_all` treat each
    row on its own, so the rows of two blocks associate the same whether the
    blocks are associated apart or together. Only per-row vectors, copies
    out of `table`, are kept.
    """
    serving_b, serving_s = select_serving_all(table)
    return Association(
        serving_sector=serving_b,
        serving_slot=serving_s,
        serving_rsrp_mw=table[np.arange(table.shape[0]), serving_b, serving_s],
        coverage_sinr_db=coverage_sinr_all(table, serving_b, serving_s, noise_mw),
    )


@dataclass(frozen=True)
class SnapshotResult:
    """Coverage and data-phase outcome of one snapshot under one plan."""

    kinds: np.ndarray  # per-entity block label, "ground" or "aerial"; the UE id is the row index
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
    return build_channels(scenario, entity_block(scenario.ground_users(snapshot)), snapshot, "ue")


def snapshot_uavs(scenario: Scenario, snapshot: int, n_snapshots: int, d_iud: float) -> np.ndarray:
    """UAVs at spacing d_iud, advanced by d_iud / n_snapshots per snapshot."""
    _check_snapshots(n_snapshots)
    offset = (snapshot * d_iud / n_snapshots) % scenario.highway.total_length_m
    return place_uavs(scenario.highway, d_iud, offset)


def evaluate_snapshot(
    scenario: Scenario,
    plans: dict[str, BeamPlan],
    ssb_codebook: Codebook,
    dl_codebook: Codebook,
    snapshot: int,
    n_snapshots: int,
    spacings: Iterable[float],
    ground: ChannelSet | None = None,
) -> list[dict[str, SnapshotResult]]:
    """Evaluate every plan on one snapshot's channel realization at each
    UAV spacing in `spacings`.

    Returns one `{plan name: result}` per spacing, in order; row i of every
    result is entity i, the ground users first, then the UAVs. The ground
    block (`ground_channels`, or `ground` if the caller holds it) is
    associated and put through `data_phase_ground` once per plan. Each
    spacing builds its UAV block (`snapshot_uavs` on the "uav" streams),
    associates it, runs `data_phase_uavs` and frees it before the next is
    built. Every plan is evaluated in full on each block.
    """
    if ground is None:
        ground = ground_channels(scenario, snapshot)
    noise_mw = scenario.radio.ssb_noise_mw
    gues, steps = {}, {}
    for name, plan in plans.items():
        gues[name] = associate(rsrp_table(ground, plan, ssb_codebook), noise_mw)
        steps[name] = data_phase_ground(ground, gues[name].serving_sector, dl_codebook, scenario.radio)
    results = []
    for d_iud in spacings:
        positions = snapshot_uavs(scenario, snapshot, n_snapshots, d_iud)
        uavs = build_channels(scenario, entity_block(positions), snapshot, "uav")
        kinds = np.repeat(["ground", "aerial"], [len(ground.h), len(uavs.h)])
        cell = {}
        for name, plan in plans.items():
            gue, uav = gues[name], associate(rsrp_table(uavs, plan, ssb_codebook), noise_mw)
            cell[name] = SnapshotResult(
                kinds=kinds,
                serving_sector=np.concatenate([gue.serving_sector, uav.serving_sector]),
                serving_slot=np.concatenate([gue.serving_slot, uav.serving_slot]),
                serving_rsrp_mw=np.concatenate([gue.serving_rsrp_mw, uav.serving_rsrp_mw]),
                coverage_sinr_db=np.concatenate([gue.coverage_sinr_db, uav.coverage_sinr_db]),
                data=data_phase_uavs(steps[name], uavs, uav.serving_sector),
            )
        results.append(cell)
        del uavs  # freed before the next block is built
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
    n_snapshots: int,
    first_ground: ChannelSet | None = None,
) -> SweepResult:
    """Evaluate both plans for N = 1..n_max UAVs at d_IUD = L / N.

    Snapshots are the outer loop: each is one `evaluate_snapshot` call at
    the spacings L / N, so each snapshot's ground block is built, associated
    and put through the ground step once, and each (N, snapshot) cell
    computes only what depends on N. `first_ground`, if given, is snapshot
    0's ground block; a caller that keeps no reference to it lets it be
    freed before snapshot 1's is built. Both plans see bit-identical
    channels. The per-N statistic is the mean over snapshots, in snapshot
    order, of the per-snapshot 5 percent tile UAV (and gUE) rate.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_snapshots(n_snapshots)
    n_values = np.arange(1, n_max + 1)
    spacings = scenario.highway.total_length_m / n_values
    uav_p5 = {name: [[] for _ in range(n_max)] for name in plans}
    gue_p5 = {name: [[] for _ in range(n_max)] for name in plans}
    for snapshot in range(n_snapshots):
        cells = evaluate_snapshot(
            scenario, plans, ssb_codebook, dl_codebook, snapshot, n_snapshots, spacings.tolist(), first_ground
        )
        first_ground = None  # snapshot 0's, freed before snapshot 1's is built
        for i, cell in enumerate(cells):
            for name, res in cell.items():
                aerial = res.kinds == "aerial"
                uav_p5[name][i].append(p5(res.data.rate_bps[aerial]))
                gue_p5[name][i].append(p5(res.data.rate_bps[~aerial]))
    return SweepResult(
        n_uavs=n_values,
        d_iud_m=spacings,
        p5_rate={name: np.array([np.mean(v) for v in uav_p5[name]]) for name in plans},
        p5_gue_rate={name: np.array([np.mean(v) for v in gue_p5[name]]) for name in plans},
    )
