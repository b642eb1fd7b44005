"""Network beam plan, per-beam RSRP, serving-beam selection, coverage SINR.

A BeamPlan holds, per sector, up to eight broadcast beams: a deployment
indicator, a codeword index into the SSB codebook, a transmit power and the
sweep (time-slot) index. Beams transmitted in the same sweep slot interfere
during measurement; the serving beam is the network-wide RSRP argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .codebook import Codebook
from .config import RadioConfig
from .scenario import Scenario

N_SSB_SLOTS = 8


class NoActiveBeam(Exception):
    """Serving selection requested while no beam is deployed anywhere."""


@dataclass
class BeamPlan:
    """Deployed-beam indicator, powers (dBm), codeword and sweep indices."""

    x: np.ndarray  # (B, S) 0/1
    power_dbm: np.ndarray  # (B, S), meaningful where x == 1
    codeword: np.ndarray  # (B, S) index into the SSB codebook, -1 if unused
    sweep: np.ndarray  # (B, S) sweep slot index of each beam

    @property
    def n_sectors(self) -> int:
        return self.x.shape[0]

    @property
    def n_slots(self) -> int:
        return self.x.shape[1]

    def power_mw(self) -> np.ndarray:
        return np.where(self.x == 1, 10.0 ** (self.power_dbm / 10.0), 0.0)

    def copy(self) -> "BeamPlan":
        return BeamPlan(self.x.copy(), self.power_dbm.copy(), self.codeword.copy(), self.sweep.copy())

    def validate(self, n_codewords: int, max_power_dbm: float | None = None) -> None:
        if not np.all((self.x == 0) | (self.x == 1)):
            raise ValueError("x must be binary")
        if np.any(np.sum(self.x, axis=1) > N_SSB_SLOTS):
            raise ValueError(f"at most {N_SSB_SLOTS} active beams per sector")
        active = self.x == 1
        if np.any(self.codeword[active] < 0) or np.any(self.codeword[active] >= n_codewords):
            raise ValueError("active beams must reference a valid codeword")
        if max_power_dbm is not None and np.any(self.power_dbm[active] > max_power_dbm + 1e-9):
            raise ValueError("active beam power above the allowed maximum")


def rsrp_table(channels: ChannelSet, plan: BeamPlan, codebook: Codebook) -> np.ndarray:
    """Per-beam RSRP in mW for every entity: shape (N, B, S).

    rsrp = beta * |h^T w|^2 * p * x, zero where the beam is not deployed.
    """
    n, b, _ = channels.h.shape
    table = np.zeros((n, b, plan.n_slots))
    p_mw = plan.power_mw()
    for sector in range(b):
        slots = np.flatnonzero(plan.x[sector] == 1)
        if slots.size == 0:
            continue
        w = codebook.weights[plan.codeword[sector, slots]]  # (n_active, M)
        proj = np.abs(channels.h[:, sector, :] @ w.T) ** 2  # (N, n_active)
        table[:, sector, slots] = channels.beta[:, sector, None] * proj * p_mw[sector, slots]
    return table


def ssb_rsrp(
    entity: int, slot: int, sector: int, plan: BeamPlan, channels: ChannelSet, codebook: Codebook
) -> float:
    """RSRP of one (entity, beam) pair in mW."""
    if plan.x[sector, slot] == 0:
        return 0.0
    w = codebook.weights[plan.codeword[sector, slot]]
    proj = abs(channels.h[entity, sector] @ w) ** 2
    return float(
        channels.beta[entity, sector] * proj * 10.0 ** (plan.power_dbm[sector, slot] / 10.0)
    )


def select_serving_all(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax beam per entity with (sector, slot) lexicographic tie-break."""
    n, b, s = table.shape
    flat = table.reshape(n, b * s)
    idx = np.argmax(flat, axis=1)  # first occurrence wins ties
    return idx // s, idx % s


def select_serving(entity: int, plan: BeamPlan, channels: ChannelSet, codebook: Codebook) -> tuple[int, int]:
    """Serving (sector, slot) for one entity; raises NoActiveBeam if plan is empty."""
    if not np.any(plan.x == 1):
        raise NoActiveBeam("no beam deployed in the network")
    table = rsrp_table(
        _single_entity_view(channels, entity), plan, codebook
    )
    b, s = select_serving_all(table)
    return int(b[0]), int(s[0])


def _single_entity_view(channels: ChannelSet, entity: int) -> ChannelSet:
    sl = slice(entity, entity + 1)
    return ChannelSet(
        entity_ids=channels.entity_ids[sl],
        kinds=channels.kinds[sl],
        positions=channels.positions[sl],
        rho=channels.rho[sl],
        tau=channels.tau[sl],
        g=channels.g[sl],
        beta=channels.beta[sl],
        p_los=channels.p_los[sl],
        is_los=channels.is_los[sl],
        k_linear=channels.k_linear[sl],
        h=channels.h[sl],
    )


def coverage_sinr_all(
    table: np.ndarray,
    serving_sector: np.ndarray,
    serving_slot: np.ndarray,
    plan: BeamPlan,
    noise_mw: float,
) -> np.ndarray:
    """Coverage SINR in dB for every entity.

    Interference sums the RSRP of every other sector's beams that share the
    serving beam's sweep index; the serving sector never interferes with
    itself. Zero serving RSRP gives -inf dB.
    """
    n = table.shape[0]
    rows = np.arange(n)
    numerator = table[rows, serving_sector, serving_slot]
    serving_sweep = plan.sweep[serving_sector, serving_slot]  # (N,)
    match = plan.sweep[None, :, :] == serving_sweep[:, None, None]  # (N, B, S)
    interference = np.sum(table * match, axis=(1, 2))
    own = np.sum(table[rows, serving_sector, :] * match[rows, serving_sector, :], axis=1)
    interference -= own
    return sinr_db(numerator, interference + noise_mw)


def sinr_db(signal_mw: np.ndarray, interference_plus_noise_mw: np.ndarray) -> np.ndarray:
    """10 log10(signal / (interference + noise)); zero signal gives -inf dB."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(signal_mw / interference_plus_noise_mw)


def coverage_sinr(
    entity: int,
    serving: tuple[int, int],
    plan: BeamPlan,
    channels: ChannelSet,
    codebook: Codebook,
    radio: RadioConfig,
) -> float:
    """Per-entity coverage SINR in dB (convenience wrapper)."""
    table = rsrp_table(_single_entity_view(channels, entity), plan, codebook)
    sinr = coverage_sinr_all(
        table, np.array([serving[0]]), np.array([serving[1]]), plan, radio.ssb_noise_mw
    )
    return float(sinr[0])


def baseline_plan(scenario: Scenario, ssb_codebook: Codebook, tilt_deg: float = 105.0) -> BeamPlan:
    """Ground-optimized default: 8 full-panel beams per sector.

    Beams point at the codebook entries nearest to the given zenith and to
    eight azimuths evenly spanning the 120-degree sector; the sector power is
    split equally and sweep indices run 0..7 in azimuth order.
    """
    panel = scenario.sectors[0].panel
    full = np.flatnonzero(ssb_codebook.active_columns == panel.m_h)
    cos_all = np.array([ssb_codebook.direction_cosines(i) for i in full])
    w_target = math.cos(math.radians(tilt_deg))

    # vertical index nearest the target zenith within the full-panel sub-book
    v_indices = np.unique(ssb_codebook.beam_index_v[full])
    v_cos = []
    for iv in v_indices:
        i = full[ssb_codebook.beam_index_v[full] == iv][0]
        v_cos.append(ssb_codebook.direction_cosines(int(i))[1])
    best_iv = int(v_indices[np.argmin(np.abs(np.array(v_cos) - w_target))])

    az_targets_deg = np.arange(-52.5, 60.0, 15.0)  # eight beams across 120 degrees
    sin_t = math.sin(math.radians(tilt_deg))
    slots_cw = []
    for az in az_targets_deg:
        u_t = sin_t * math.sin(math.radians(az))
        cand = full[ssb_codebook.beam_index_v[full] == best_iv]
        u_cand = cos_all[ssb_codebook.beam_index_v[full] == best_iv, 0]
        slots_cw.append(int(cand[np.argmin(np.abs(u_cand - u_t))]))

    b = scenario.n_sectors
    x = np.ones((b, N_SSB_SLOTS), dtype=np.int8)
    power = np.full((b, N_SSB_SLOTS), scenario.radio.sector_tx_power_dbm - 10.0 * math.log10(N_SSB_SLOTS))
    codeword = np.tile(np.array(slots_cw, dtype=int), (b, 1))
    sweep = np.tile(np.arange(N_SSB_SLOTS, dtype=int), (b, 1))
    return BeamPlan(x=x, power_dbm=power, codeword=codeword, sweep=sweep)


def dump_association_csv(
    channels: ChannelSet,
    serving_sector: np.ndarray,
    serving_slot: np.ndarray,
    table: np.ndarray,
    sinr_db: np.ndarray,
    path,
) -> None:
    rows = np.arange(channels.n_entities)
    rsrp = table[rows, serving_sector, serving_slot]
    lines = ["ue_id,kind,serving_sector,serving_slot,rsrp_dbm,sinr_db"]
    for i in rows:
        rsrp_dbm = 10.0 * math.log10(rsrp[i]) if rsrp[i] > 0 else -math.inf
        lines.append(
            f"{channels.entity_ids[i]},{channels.kinds[i]},{serving_sector[i]},"
            f"{serving_slot[i]},{rsrp_dbm:.10g},{sinr_db[i]:.10g}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
