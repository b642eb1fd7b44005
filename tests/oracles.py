"""Term-by-term reference implementations that tests compare the library against.

Each oracle loops over single entities, beams or UEs and evaluates the
paper's formula directly, independent of the batched code path that
`skybeam run` executes: `ssb_rsrp` for `association.rsrp_table`, `data_sinr`
and `achievable_rate` for `evaluation.data_phase`, and `brute_force_fitness`
for `genetic.FitnessEvaluator`; `per_sector_channels` builds a ChannelSet
and its LoS states one sector at a time, every large-scale call per sector
and every link's model picked by its own height, as the reference for
`channel.build_channels`.

More are bit-level references for batched library paths:
`per_sector_rsrp_table` is `association.rsrp_table` one sector at a time;
`joined_data_phase` is the data phase in one pass over the joined ground
and UAV rows, which `data_phase` (the ground step, then the UAV step, in
one call) and the traffic sweep's two steps must match byte for byte;
`reference_evaluate_snapshot` evaluates each plan of a snapshot at one
spacing, with the data phase in one call, which
`evaluation.evaluate_snapshot`, sharing each block across plans and
spacings, must match; `per_sector_ground_users` draws and tests each
sector's candidates alone, the reference for `scenario.place_ground_users`; `per_pair_segment_metric` scores one
(segment, sector) pair per 2-D `segment_cell_metric` call and picks each
segment's cell by a scan, the reference for `segment_metric.assign_segments`.

`ReferenceEvaluator` and `reference_run` are the bit-level references of
the search: the population scorer with one (P, n + 1, N_r) candidate table,
a masked reduction over its middle axis and one coverage-SINR call per
feasible genome, and the GA loop with one
`Generator.random` call per draw and separate crossover and mutation
arrays. `genetic.FitnessEvaluator` and `genetic.run` must give the same
bytes: scores, violation counts, traces and best genomes.

`reference_derive` is one key's stream derivation through its own
SeedSequence, with the entropy passed as a list of Python ints;
`rng.RngStream.derive_many`, which mixes every key's seed words at once,
must match it state for state and draw for draw.
`reference_sweep` is the traffic sweep without reuse: N outside, snapshots
inside, both entity blocks of every (N, snapshot) cell built and associated
afresh, and the joined data phase; `evaluation.traffic_sweep` must give the
same bytes.

The helpers at the end read library objects for tests only: `validate_plan`
checks a plan's constraints, `find_codeword` looks a beam up by its indices,
`max_supported` reads a traffic sweep against a rate threshold and
`evaluate_genome` scores one genome.
"""

import hashlib
import math
from dataclasses import fields

import numpy as np

from skybeam.association import (
    N_SSB_SLOTS,
    BeamPlan,
    beam_gain,
    coverage_sinr_all,
    rsrp_table,
    select_serving_all,
)
from skybeam.channel import (
    AERIAL_MIN_HEIGHT_M,
    ChannelSet,
    aerial_los_shadow_sigma_db,
    build_channels,
    element_gain,
    entity_block,
    link_geometry,
    los_components,
    los_probability,
    path_loss,
    shadow_factor,
    shadow_field,
    shadow_gain,
)
from skybeam.codebook import Codebook
from skybeam.config import RadioConfig
from skybeam.evaluation import (
    DataPhaseReport,
    SnapshotResult,
    SweepResult,
    associate,
    data_phase_ground,
    data_phase_uavs,
    ground_channels,
    p5,
    snapshot_uavs,
)
from skybeam.genetic import FitnessEvaluator, FitnessTrace, Individual, apply_individual
from skybeam.scenario import _in_dominance_area, place_uavs
from skybeam.segment_metric import segment_cell_metric


def ssb_rsrp(
    entity: int, slot: int, sector: int, plan: BeamPlan, channels: ChannelSet, codebook: Codebook
) -> float:
    """RSRP of one (entity, beam) pair in mW."""
    w = codebook.weights[plan.codeword[sector, slot]]
    proj = abs(channels.h[entity, sector] @ w) ** 2
    return float(
        channels.beta[entity, sector] * proj * 10.0 ** (plan.power_dbm[sector, slot] / 10.0)
    )


def per_sector_rsrp_table(channels: ChannelSet, plan: BeamPlan, codebook: Codebook) -> np.ndarray:
    """`rsrp_table` with each sector's whole formula in one expression: the
    bit-level reference for `association.rsrp_table`, which takes each
    sector's `beam_gain` and then its powers."""
    n, b, _ = channels.h.shape
    table = np.zeros((n, b, plan.n_slots))
    p_mw = 10.0 ** (plan.power_dbm / 10.0)
    for sector in range(b):
        w = codebook.weights[plan.codeword[sector]]  # (S, M)
        proj = np.abs(channels.h[:, sector, :] @ w.T) ** 2  # (N, S)
        table[:, sector] = channels.beta[:, sector, None] * proj * p_mw[sector]
    return table


def achievable_rate(sinr_db: float, n_codeword_sharers: int, radio: RadioConfig) -> float:
    """Shannon rate over the UE's bandwidth share, in bit/s."""
    if n_codeword_sharers < 1:
        raise ValueError("codeword sharer count must be >= 1")
    gamma = 10.0 ** (sinr_db / 10.0)
    return radio.n_prb_total * radio.prb_bandwidth_hz / n_codeword_sharers * math.log2(1.0 + gamma)


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
    n = channels.h.shape[0]
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
    noise = radio.noise_mw(radio.n_prb_total * radio.prb_bandwidth_hz / n_w)
    return 10.0 * math.log10(signal / (intra + inter + noise))


def sector_geometry(sector, positions):
    """One sector's (d2d, d3d, azimuth, zenith, unit wave vector), indexed by entity."""
    return tuple(x[0] for x in link_geometry([sector], positions))


def rician_channel(h_los: np.ndarray, k_linear, rng) -> np.ndarray:
    """Mix each (N, M) LoS row with i.i.d. Rayleigh scattering at its Rician K.

    `k_linear` is one K per row or a scalar. The Rayleigh part is drawn as
    all real parts, then all imaginary parts, row-major.
    """
    kk = np.asarray(k_linear, dtype=float)[..., None]
    if np.any(kk < 0):
        raise ValueError("Rician K must be >= 0")
    n, m = h_los.shape
    h_nlos = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    return np.sqrt(kk / (1.0 + kk)) * h_los + np.sqrt(1.0 / (1.0 + kk)) * h_nlos


def per_sector_channels(scenario, positions, snapshot, stream_tag):
    """Reference ChannelSet at the rows of `positions`, and the (N, B) LoS
    states of its draws: one sector at a time, with the large-scale calls
    on 1-D link arrays and a scalar base-station height, from the same keyed
    streams in the same draw order. Each row's height picks its shadowing:
    rows at or below 22.5 m take the ground sigmas and a ground field, rows
    above it the aerial sigmas and an aerial field, the two fields
    independent."""
    radio = scenario.radio
    params = scenario.channel_params
    sectors = scenario.sectors
    n = len(positions)
    b = len(sectors)
    m = sectors[0].panel.n_elements if b else 0
    heights = positions[:, 2]

    beta = np.zeros((n, b))
    is_los = np.zeros((n, b), dtype=bool)
    h = np.zeros((n, b, m), dtype=complex)
    low = heights <= AERIAL_MIN_HEIGHT_M
    factor = np.zeros((n, n))
    for rows, d_corr in ((low, params.shadow_corr_dist_ground_m), (~low, params.shadow_corr_dist_aerial_m)):
        if rows.any():
            factor[np.ix_(rows, rows)] = shadow_factor(positions[rows], d_corr)
    sigma_los, sigma_nlos = np.empty(n), np.empty(n)
    for i, (h_ut, aerial_sigma) in enumerate(zip(heights, aerial_los_shadow_sigma_db(heights))):
        if h_ut <= AERIAL_MIN_HEIGHT_M:
            sigma_los[i], sigma_nlos[i] = params.shadow_sigma_los_ground_db, params.shadow_sigma_nlos_ground_db
        else:
            sigma_los[i], sigma_nlos[i] = aerial_sigma, params.shadow_sigma_nlos_aerial_db
    for sector in sectors:
        j = sector.id
        coords = sector.panel.element_coords(radio.wavelength_m)
        d2d, d3d, az, zen, unit = sector_geometry(sector, positions)
        draws = reference_derive(scenario.master_seed, "los", stream_tag, snapshot, j).uniform(size=n)
        rng_shadow = reference_derive(scenario.master_seed, "shadow", stream_tag, snapshot, j)
        is_los[:, j] = draws < los_probability(d2d, heights)
        rho = path_loss(d2d, d3d, heights, is_los[:, j], radio, h_bs_m=sector.position_3d_m[2])
        sigma = np.where(is_los[:, j], sigma_los, sigma_nlos)
        tau = shadow_gain(sigma, shadow_field(factor, rng_shadow))
        beta[:, j] = rho * tau * element_gain(az, zen)
        k_lin = np.where(
            is_los[:, j], params.rician_k_linear(True), params.rician_k_linear(False)
        )
        h_los = los_components(unit, d3d, coords, radio.wavelength_m)
        rng_fade = reference_derive(scenario.master_seed, "fading", stream_tag, snapshot, j)
        h[:, j, :] = rician_channel(h_los, k_lin, rng_fade)
    return ChannelSet(beta=beta, h=h), is_los


def reference_derive(master_seed: int, *key) -> np.random.Generator:
    """The keyed generator of `RngStream(master_seed).derive_many([key])[0]`,
    with the master seed and the four digest words handed to SeedSequence as
    Python ints."""
    tag = "/".join(str(part) for part in key)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    seq = np.random.SeedSequence(entropy=[int(master_seed) & 0xFFFFFFFFFFFFFFFF, *words])
    return np.random.default_rng(seq)


def per_sector_ground_users(sectors, per_cell, isd_m, master_seed, height_m=1.5, snapshot=0):
    """`scenario.place_ground_users` one sector at a time: each sector's
    stream derived on its own, and every batch drawn and tested alone."""
    positions = np.full((len(sectors), per_cell, 3), float(height_m))
    radius = isd_m / math.sqrt(3.0)
    for k, sector in enumerate(sectors):
        rng = reference_derive(master_seed, "gue-pos", snapshot, sector.id)
        kept = np.empty((0, 2))
        while kept.shape[0] < per_cell:
            batch = rng.uniform(-radius, radius, size=(max(8 * per_cell, 32), 2))
            ok = batch[_in_dominance_area(batch, sector.bearing_deg, isd_m)]
            kept = np.vstack([kept, ok])
        positions[k, :, :2] = np.array(sector.position_3d_m[:2]) + kept[:per_cell]
    return positions.reshape(-1, 3)


def reference_sweep(scenario, plans, ssb_codebook, dl_codebook, n_max, n_snapshots):
    """`traffic_sweep` without reuse: for every N, then every snapshot, the
    ground users ("ue" streams) and the UAVs ("uav" streams) are drawn, built
    and associated afresh, and the data phase runs on the two blocks."""
    length = scenario.highway.total_length_m
    n_values = np.arange(1, n_max + 1)
    p5_rate = {name: np.empty(n_max) for name in plans}
    p5_gue_rate = {name: np.empty(n_max) for name in plans}
    for i, n_uav in enumerate(n_values.tolist()):
        d_iud = length / n_uav
        uav_p5 = {name: [] for name in plans}
        gue_p5 = {name: [] for name in plans}
        for snapshot in range(n_snapshots):
            ground = build_channels(scenario, entity_block(scenario.ground_users(snapshot)), snapshot, "ue")
            offset = (snapshot * d_iud / n_snapshots) % length
            uavs = build_channels(scenario, entity_block(place_uavs(scenario.highway, d_iud, offset)), snapshot, "uav")
            aerial = np.arange(len(ground.h) + len(uavs.h)) >= len(ground.h)
            for name, plan in plans.items():
                serving = []
                for block in (ground, uavs):
                    table = rsrp_table(block, plan, ssb_codebook)
                    serving.append(select_serving_all(table)[0])
                report = joined_data_phase(
                    (ground, uavs), np.concatenate(serving), dl_codebook, scenario.radio
                )
                uav_p5[name].append(p5(report.rate_bps[aerial]))
                gue_p5[name].append(p5(report.rate_bps[~aerial]))
        for name in plans:
            p5_rate[name][i] = np.mean(uav_p5[name])
            p5_gue_rate[name][i] = np.mean(gue_p5[name])
    return SweepResult(
        n_uavs=n_values, d_iud_m=length / n_values, p5_rate=p5_rate, p5_gue_rate=p5_gue_rate
    )


def data_phase(blocks, serving_sector, dl_codebook, radio) -> DataPhaseReport:
    """The data phase of a snapshot's ground block, optionally followed by
    its UAV block, whose rows in order `serving_sector` indexes: the ground
    step, then the UAV step, as one call."""
    if len(blocks) not in (1, 2):
        raise ValueError(f"data_phase takes a ground block and at most one UAV block, got {len(blocks)}")
    g = blocks[0].h.shape[0]
    ground = data_phase_ground(blocks[0], serving_sector[:g], dl_codebook, radio)
    if len(blocks) == 2:
        uavs = blocks[1]
    else:  # no UAVs: a 0-row block
        uavs = ChannelSet(*(getattr(blocks[0], f.name)[:0] for f in fields(ChannelSet)))
    return data_phase_uavs(ground, uavs, serving_sector[g:])


def per_pair_segment_metric(h, segments, noise_mw):
    """(P, c, F, chi) as (Z, B) arrays, each (segment, sector) pair scored by
    one 2-D `segment_cell_metric` call on sector b's rows `h[b]`, plus each
    segment's cell (the chi maximum, ties to the lowest sector id) and each
    point's required cell, filled segment by segment."""
    terms = np.empty((4, len(segments), h.shape[0]))
    serving = []
    for z, (a, e) in enumerate(segments):
        best_chi, best_sector = -math.inf, None
        for b in range(h.shape[0]):
            terms[:, z, b] = segment_cell_metric(h[b, a:e], np.vstack([h[b, :a], h[b, e:]]), noise_mw)
            if terms[3, z, b] > best_chi:
                best_chi, best_sector = terms[3, z, b], b
        serving.append(best_sector)
    required = np.empty(h.shape[1], dtype=int)
    for z, (a, e) in enumerate(segments):
        required[a:e] = serving[z]
    return (*terms, tuple(serving), required)


def reference_evaluate_snapshot(scenario, plans, ssb_codebook, dl_codebook, snapshot, n_snapshots, d_iud=None):
    """`evaluation.evaluate_snapshot` at the one UAV spacing `d_iud` (the
    config's by default), with every plan evaluated in full: both blocks
    built by `build_channels`, each plan's RSRP tables computed afresh and
    its data phase run on both blocks."""
    if d_iud is None:
        d_iud = scenario.highway_params.uav_spacing_m
    uav_positions = snapshot_uavs(scenario, snapshot, n_snapshots, d_iud)
    uavs = build_channels(scenario, entity_block(uav_positions), snapshot, "uav")
    ground = ground_channels(scenario, snapshot)
    noise_mw = scenario.radio.ssb_noise_mw
    kinds = np.array(["ground"] * len(ground.h) + ["aerial"] * len(uavs.h))
    results = {}
    for name, plan in plans.items():
        gue = associate(rsrp_table(ground, plan, ssb_codebook), noise_mw)
        uav = associate(rsrp_table(uavs, plan, ssb_codebook), noise_mw)
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


def joined_data_phase(blocks, serving_sector, dl_codebook, radio) -> DataPhaseReport:
    """The data phase in one pass over the joined rows of `blocks`: the
    reference that `evaluation.data_phase` and the traffic sweep's two steps
    must match bit for bit.

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
    per_block = np.split(serving_sector, np.cumsum([blk.h.shape[0] for blk in blocks])[:-1])
    h_serving = np.concatenate(
        [blk.h[np.arange(blk.h.shape[0]), s] for blk, s in zip(blocks, per_block)]
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
    # the receiver noise over each UE's share of the band
    noise = np.array([radio.noise_mw(radio.n_prb_total * radio.prb_bandwidth_hz / k) for k in n_sharers.tolist()])
    sinr = signal / (intra + inter + noise)
    with np.errstate(divide="ignore"):  # zero signal: -inf dB
        sinr_db = 10.0 * np.log10(sinr)
    rate = radio.n_prb_total * radio.prb_bandwidth_hz / n_sharers * np.log2(1.0 + sinr)
    return DataPhaseReport(
        precoder=precoder,
        n_codeword_sharers=n_sharers,
        sinr_db=sinr_db,
        rate_bps=rate,
    )


def brute_force_fitness(genome, channels, book, baseline, designated, frozen, required, noise_mw):
    """Loop-based reference: apply, associate, penalize, min coverage SINR."""
    plan = apply_individual(genome, baseline, designated, frozen, len(book))
    n_points = channels.h.shape[0]
    n_sectors, n_slots = plan.codeword.shape
    worst = math.inf
    for z in range(n_points):
        best_val, best_b, best_s = -1.0, None, None
        for b in range(n_sectors):
            for s in range(n_slots):
                val = ssb_rsrp(z, s, b, plan, channels, book)
                if val > best_val:
                    best_val, best_b, best_s = val, b, s
        if best_b != required[z]:
            return -math.inf
        interf = 0.0
        for b in range(n_sectors):
            if b != best_b:  # every other sector's beam in the serving beam's slot
                interf += ssb_rsrp(z, best_s, b, plan, channels, book)
        worst = min(worst, 10 * math.log10(best_val / (interf + noise_mw)))
    return worst


class ReferenceEvaluator:
    """The population scorer before the candidate block: per genome, a row of
    n + 1 serving candidates per point, and the tie rule as a masked minimum
    over that middle axis. Each RSRP row is one `beam_gain` call per
    (cell, codeword) times the slot's baseline power, each feasible genome's
    SINR one `coverage_sinr_all` call on its own table. Takes
    `FitnessEvaluator`'s arguments and keeps its `evals` count."""

    def __init__(self, point_channels, ssb_codebook, baseline, designated_cells, frozen_slots,
                 required_cell, noise_mw):
        self.designated_cells = tuple(designated_cells)
        self.required_cell = np.asarray(required_cell, dtype=int)
        self.noise_mw = float(noise_mw)
        self.n_codewords = len(ssb_codebook)
        self.evals = 0

        cells = np.array(self.designated_cells, dtype=int)
        slots = np.array([frozen_slots[c] for c in self.designated_cells], dtype=int)
        n = cells.size
        self._plan = apply_individual(
            np.zeros(n, dtype=int), baseline, self.designated_cells, frozen_slots, self.n_codewords
        )
        self._table = rsrp_table(point_channels, self._plan, ssb_codebook)
        n_points, n_sectors, n_slots = self._table.shape
        self._n_slots = n_slots
        self._rsrp = np.empty((n, n_points, self.n_codewords))
        for j, (cell, slot) in enumerate(zip(cells, slots)):
            power = 10.0 ** (self._plan.power_dbm[cell, slot] / 10.0)
            for c in range(self.n_codewords):
                weights = ssb_codebook.weights[self._plan.codeword[cell]]
                weights[slot] = ssb_codebook.weights[c]
                self._rsrp[j, :, c] = beam_gain(point_channels, cell, weights)[:, slot] * power

        replaced_flat = cells * n_slots + slots
        others = self._table.reshape(n_points, n_sectors * n_slots).copy()
        others[:, replaced_flat] = -np.inf
        base_flat = np.argmax(others, axis=1)
        self._base_best = others[np.arange(n_points), base_flat]
        self._candidate_flat = np.concatenate(
            [base_flat[None, :], np.broadcast_to(replaced_flat[:, None], (n, n_points))]
        )
        self._no_candidate = n_sectors * n_slots
        self._cells, self._slots = cells, slots
        self._cell_index = np.arange(n)

    def evaluate_population(self, pop):
        codeword = np.asarray(pop, dtype=int)
        n = self._cells.size
        self.evals += codeword.shape[0]
        candidates = np.empty((codeword.shape[0], n + 1, self._base_best.size))
        candidates[:, 0] = self._base_best
        replaced = candidates[:, 1:]
        replaced[:] = self._rsrp[self._cell_index, :, codeword]

        best = candidates.max(axis=1)
        serving = np.where(
            candidates == best[:, None, :], self._candidate_flat, self._no_candidate
        ).min(axis=1)
        sector = serving // self._n_slots
        violations = np.count_nonzero(sector != self.required_cell, axis=1)
        scores = np.full(codeword.shape[0], -math.inf)
        for g in np.flatnonzero(violations == 0):
            table = self._table.copy()
            table[:, self._cells, self._slots] = replaced[g].T
            sinr = coverage_sinr_all(table, sector[g], serving[g] % self._n_slots, self.noise_mw)
            scores[g] = sinr.min()
        return scores, violations


def reference_run(params, evaluator):
    """The elite GA loop with one generator call per draw, in the draw order
    of `genetic.run`: initial codewords, then per iteration parent pairs,
    swap mask, mutation mask, new codewords."""
    n_cells = len(evaluator.designated_cells)
    n_cb = evaluator.n_codewords
    rng = np.random.default_rng(params.seed)
    pop = rng.integers(0, n_cb, size=(params.n_pop, n_cells))

    trace = FitnessTrace()
    best_genome = pop[0].copy()
    best_fitness = -math.inf
    best_violations = math.inf
    last_improvement = 0
    n_offspring = params.n_pop - params.n_elites
    scores = np.empty(params.n_pop)
    violations = np.empty(params.n_pop, dtype=int)
    n_unscored = params.n_pop

    for iteration in range(params.max_iters):
        scores[:n_unscored], violations[:n_unscored] = evaluator.evaluate_population(
            pop[:n_unscored]
        )
        order = np.lexsort((violations, np.negative(scores)))
        pop = pop[order]
        scores = scores[order]
        violations = violations[order]
        improved = scores[0] > best_fitness or (
            scores[0] == best_fitness and violations[0] < best_violations
        )
        if improved:
            best_fitness = float(scores[0])
            best_violations = int(violations[0])
            best_genome = pop[0].copy()
            last_improvement = iteration
        trace.record(iteration, best_fitness, best_violations, evaluator.evals)

        if iteration - last_improvement >= params.stop_iters:
            trace.stop_reason = "stagnation"
            break

        elites = pop[: params.n_elites].copy()
        elite_scores = scores[: params.n_elites].copy()
        elite_violations = violations[: params.n_elites].copy()
        parents = pop[: params.n_parents]

        n_pairs = (params.n_pop + 1) // 2
        pair_idx = rng.integers(0, params.n_parents, size=(n_pairs, 2))
        a = parents[pair_idx[:, 0]].copy()
        b = parents[pair_idx[:, 1]].copy()
        swap = rng.random(size=a.shape) <= params.p_cross
        a_swapped = np.where(swap, b, a)
        b_swapped = np.where(swap, a, b)
        offspring = np.empty((2 * n_pairs, n_cells), dtype=pop.dtype)
        offspring[0::2] = a_swapped
        offspring[1::2] = b_swapped
        pop = offspring[: params.n_pop]

        mut_idx = rng.random(size=(params.n_pop, n_cells)) <= params.p_mut
        new_idx = rng.integers(0, n_cb, size=(params.n_pop, n_cells))
        pop = np.where(mut_idx, new_idx, pop)

        pop[n_offspring:] = elites
        scores[n_offspring:] = elite_scores
        violations[n_offspring:] = elite_violations
        n_unscored = n_offspring

    return Individual(best_genome, best_fitness, best_violations), trace


def validate_plan(plan: BeamPlan, n_codewords: int) -> None:
    """Raise ValueError unless `plan` meets the beam-plan constraints."""
    if plan.power_dbm.shape != plan.codeword.shape:
        raise ValueError("one power per codeword")
    if plan.n_slots > N_SSB_SLOTS:
        raise ValueError(f"at most {N_SSB_SLOTS} beams per sector")
    if np.any(plan.codeword < 0) or np.any(plan.codeword >= n_codewords):
        raise ValueError("every beam must reference a valid codeword")


def find_codeword(book: Codebook, active_columns: int, beam_index_h: int, beam_index_v: int) -> int:
    """Row of the first codeword with these active columns and DFT indices."""
    match = np.flatnonzero(
        (book.active_columns == active_columns)
        & (book.beam_index_h == beam_index_h)
        & (book.beam_index_v == beam_index_v)
    )
    if match.size == 0:
        raise KeyError(f"no codeword ({active_columns}, {beam_index_h}, {beam_index_v})")
    return int(match[0])


def max_supported(result: SweepResult, plan: str, threshold_bps: float) -> int:
    """Largest UAV count whose 5%-tile UAV rate meets the threshold, 0 if none."""
    ok = result.p5_rate[plan] >= threshold_bps
    return int(result.n_uavs[ok].max()) if np.any(ok) else 0


def evaluate_genome(evaluator: FitnessEvaluator, genome) -> float:
    """Fitness of one genome: min coverage SINR in dB, -inf if any point
    associates outside its designated cell."""
    scores, _ = evaluator.evaluate_population(np.asarray(genome)[None, :])
    return float(scores[0])
