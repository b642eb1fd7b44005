"""Network beam plan, per-beam RSRP, serving-beam selection, coverage SINR.

A BeamPlan holds, per sector, eight broadcast beams, one per SSB slot: a
codeword index into the SSB codebook and a transmit power. The slot index is
the SSB index, and SSB index i of every sector takes the same time position
of the burst, so the slot is also the beam's sweep group: beams in the same
slot interfere during measurement. The serving beam is the network-wide
RSRP argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .codebook import Codebook
from .config import dbm_to_mw
from .scenario import Scenario

N_SSB_SLOTS = 8
BASELINE_TILT_DEG = 105.0  # zenith of the ground-optimized baseline beams


@dataclass
class BeamPlan:
    """One codeword and one power (dBm) per (sector, SSB slot); the slot
    index is the SSB index and the sweep group."""

    codeword: np.ndarray  # (B, S) index into the SSB codebook
    power_dbm: np.ndarray  # (B, S)

    @property
    def n_sectors(self) -> int:
        return self.codeword.shape[0]

    @property
    def n_slots(self) -> int:
        return self.codeword.shape[1]

    def copy(self) -> "BeamPlan":
        return BeamPlan(self.codeword.copy(), self.power_dbm.copy())


def unique_ints(values) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(values, return_inverse=True)` for non-negative ints: the
    sorted distinct values, and each value's index among them (flattened).

    Counting and searching give the same arrays without `np.unique`, whose
    first call imports `numpy.ma`, about 13 ms of every process.
    """
    flat = np.asarray(values).reshape(-1)
    distinct = np.flatnonzero(np.bincount(flat))
    return distinct, np.searchsorted(distinct, flat)


def beam_gain(channels: ChannelSet, sector: int, weights: np.ndarray) -> np.ndarray:
    """beta * |h^T w|^2 of every entity in `sector` with each codeword row of
    `weights` (..., K, M), as (..., N, K): the one beam-gain definition, which
    `rsrp_table` and the search's gain rows both call. An entry's bits can
    depend on the codewords its product covers, so both pass a sector's
    whole row of slots."""
    gain = np.abs(channels.h[:, sector, :] @ np.swapaxes(weights, -1, -2))
    np.square(gain, out=gain)
    gain *= channels.beta[:, sector, None]
    return gain


def rsrp_table(channels: ChannelSet, plan: BeamPlan, codebook: Codebook) -> np.ndarray:
    """Per-beam RSRP in mW for every entity: shape (N, B, S).

    rsrp = beta * |h^T w|^2 * p: each sector's `beam_gain` over its
    codewords, times their powers.
    """
    n, b, _ = channels.h.shape
    table = np.empty((n, b, plan.n_slots))  # every slab written below
    weights = codebook.weights[plan.codeword]  # (B, S, M)
    power = dbm_to_mw(plan.power_dbm)
    for sector in range(b):
        table[:, sector] = beam_gain(channels, sector, weights[sector]) * power[sector]
    return table


def select_serving_all(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax beam per entity with (sector, slot) lexicographic tie-break."""
    n, b, s = table.shape
    flat = table.reshape(n, b * s)
    idx = np.argmax(flat, axis=1)  # first occurrence wins ties
    return idx // s, idx % s


def coverage_sinr_all(
    table: np.ndarray,
    serving_sector: np.ndarray,
    serving_slot: np.ndarray,
    noise_mw: float,
) -> np.ndarray:
    """Coverage SINR in dB for every entity of an (N, B, S) RSRP table.

    The slot index is the SSB index and so the sweep group: interference
    sums the RSRP of every other sector's beam in the serving beam's slot;
    the serving sector never interferes with itself. Zero serving RSRP gives
    -inf dB.
    """
    rows = np.arange(table.shape[0])
    numerator = table[rows, serving_sector, serving_slot]
    # (N, B, S): each row's RSRP in its serving beam's slot, else 0; a
    # masked product, not a slot slice, whose sums round differently
    in_group = table * (np.arange(table.shape[2]) == serving_slot[:, None, None])
    interference = in_group.sum(axis=(1, 2)) - in_group[rows, serving_sector].sum(axis=1)
    return sinr_db(numerator, interference + noise_mw)


def sinr_db(signal_mw: np.ndarray, interference_plus_noise_mw: np.ndarray) -> np.ndarray:
    """10 log10(signal / (interference + noise)); zero signal gives -inf dB."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(signal_mw / interference_plus_noise_mw)


def baseline_plan(scenario: Scenario, ssb_codebook: Codebook) -> BeamPlan:
    """Ground-optimized default: 8 full-panel beams per sector.

    Beams point at the codebook entries nearest to `BASELINE_TILT_DEG` and to
    eight azimuths evenly spanning the 120-degree sector; the sector power is
    split equally and the SSB slots run 0..7 in azimuth order.
    """
    panel = scenario.sectors[0].panel
    full = np.flatnonzero(ssb_codebook.active_columns == panel.m_h)
    u, w = ssb_codebook.directions[full].T
    iv = ssb_codebook.beam_index_v[full]

    # the vertical row nearest the target zenith within the full-panel sub-book
    best = np.argmin(np.abs(w - math.cos(math.radians(BASELINE_TILT_DEG))))
    row = iv == iv[best]

    az_targets = np.radians(np.arange(-52.5, 60.0, 15.0))  # eight beams across 120 degrees
    u_targets = math.sin(math.radians(BASELINE_TILT_DEG)) * np.sin(az_targets)
    slots_cw = full[row][np.argmin(np.abs(u[row] - u_targets[:, None]), axis=1)]

    b = scenario.n_sectors
    power = np.full((b, N_SSB_SLOTS), scenario.radio.sector_tx_power_dbm - 10.0 * math.log10(N_SSB_SLOTS))
    return BeamPlan(codeword=np.tile(slots_cw, (b, 1)), power_dbm=power)
