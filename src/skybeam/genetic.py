"""Elite genetic search over one replacement beam per designated cell.

`corridor_problem` builds the search's inputs from a scenario: the segment
designation, one frozen slot per designated cell and the evaluator.

A genome is an integer array of one codeword index per designated cell,
[idx_0 .. idx_{n-1}], each in [0, N_CB). Applying a genome to the baseline
plan swaps the codeword of exactly one pre-selected slot per designated cell
and leaves every other entry untouched. Power is not searched: every SSB
beam of a sector, a replaced one too, keeps the baseline's equal share of
the sector power. A codeword gene that is not an integer in [0, N_CB) is
rejected with ValueError by both the scorer and `apply_individual`.

Fitness is the minimum coverage SINR over all highway points, with a hard
-inf penalty whenever any point would associate to a cell other than the one
designated for its segment. `FitnessEvaluator.evaluate_population` scores a
whole population in one batched call. It is the only fitness code path, and
it scores the plan that `apply_individual` writes bit for bit, through the
definitions `skybeam run` evaluates that plan with.

The arrays are small (about 80 genomes x 7 serving candidates x 11 points),
so a GA iteration costs what its NumPy calls cost, not what their
arithmetic costs. Both halves are laid out for few calls:

- the scorer puts the candidates of all genomes in one
  (n + 1, P, N_r) block and reduces over its leading axis, and only the
  feasible genomes, a few in a thousand, reach the coverage SINR;
- the loop draws the swap and mutation masks of an iteration in one
  `Generator.random` call, crosses the parent pairs with one gather and one
  `np.where`, mutates with one masked `np.copyto` and writes the elites
  into the offspring buffer.

The search loop is a plain elite GA: rank, crossover of uniformly drawn
parent pairs, per-gene mutation, elites overwrite the worst. Each iteration
scores only the offspring, because the elites carry their scores forward, so
nothing is cached and memory stays flat over any number of iterations.
`tests/oracles.py` keeps the one-call-per-draw loop and the
per-genome-candidate scorer as references that both must match byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .association import BeamPlan, baseline_plan, beam_gain, coverage_sinr_all, rsrp_table, select_serving_all
from .channel import ChannelSet, build_channels, entity_block, expected_channels
from .codebook import Codebook
from .config import EgaParams, dbm_to_mw
from .scenario import Scenario
from .segment_metric import SegmentAssignment, assign_segments


@dataclass
class Individual:
    genome: np.ndarray  # one codeword index per designated cell
    fitness: float = -math.inf
    violations: int = 0  # corridor points associated outside their designated cell

    @property
    def feasible(self) -> bool:
        return self.violations == 0


@dataclass
class FitnessTrace:
    iterations: list[int] = field(default_factory=list)
    best_fitness: list[float] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)  # the best genome's, per iteration
    evaluations: list[int] = field(default_factory=list)
    stop_reason: str = "max_iters"  # or "stagnation": no improvement for stop_iters

    def record(self, iteration: int, best: float, violations: int, evals: int) -> None:
        self.iterations.append(iteration)
        self.best_fitness.append(best)
        self.violations.append(violations)
        self.evaluations.append(evals)


def select_frozen_slots(
    baseline: BeamPlan,
    designated_cells: tuple[int, ...],
    gue_serving_sector: np.ndarray,
    gue_serving_slot: np.ndarray,
) -> dict[int, int]:
    """For each designated cell, the slot whose beam the search may replace.

    Picks the slot serving the fewest ground users under the baseline.
    The slot index is the SSB index and the sweep group, so designated cells
    avoid reusing a slot already frozen by another designated cell while
    slots remain: replacement beams all target the same corridor, so co-slot
    picks would make them interfere with each other during measurement.
    Ties break toward the lowest slot id.
    """
    frozen: dict[int, int] = {}
    taken: set[int] = set()
    for cell in designated_cells:
        counts = np.bincount(gue_serving_slot[gue_serving_sector == cell], minlength=baseline.n_slots)
        order = np.argsort(counts, kind="stable")  # fewest gUEs first, then slot id
        free = [int(s) for s in order if int(s) not in taken]
        slot = free[0] if free else int(order[0])
        frozen[cell] = slot
        taken.add(slot)
    return frozen


_GAIN_BATCH = 16  # codewords per batched gain product: a 64 KB stack of 8 x 32 weights


def _codewords(genes, n_codewords: int) -> np.ndarray:
    """Codeword genes as indices. Raises ValueError unless every gene is an
    integer in [0, n_codewords); every comparison with NaN is false, so a
    NaN gene fails the test."""
    genes = np.asarray(genes)
    ok = (genes >= 0) & (genes < n_codewords) & (np.trunc(genes) == genes)
    if not ok.all():
        bad = genes[~ok].flat[0]
        raise ValueError(f"codeword gene {bad}; it must be an integer index in [0, {n_codewords})")
    return genes.astype(np.intp, copy=False)


def apply_individual(
    genome: np.ndarray,
    baseline: BeamPlan,
    designated_cells: tuple[int, ...],
    frozen_slots: dict[int, int],
    n_codewords: int,
) -> BeamPlan:
    """Baseline plan with the codeword of one slot per designated cell
    replaced by the genome; every power stays the baseline's.

    Raises ValueError for a genome of the wrong length or a codeword gene
    that is not an integer in [0, n_codewords).
    """
    genome = np.asarray(genome)
    if genome.shape != (len(designated_cells),):
        raise ValueError("a genome holds one codeword per designated cell")
    codeword = _codewords(genome, n_codewords)
    cells = np.array(designated_cells, dtype=int)
    slots = np.array([frozen_slots[cell] for cell in designated_cells], dtype=int)
    plan = baseline.copy()
    plan.codeword[cells, slots] = codeword
    return plan


class FitnessEvaluator:
    """Minimum corridor coverage SINR of genomes, with association constraint.

    A genome changes one (cell, frozen slot) entry of the corridor points'
    RSRP table per designated cell and nothing else. Construction therefore
    splits the table, once, into what no genome can change and what each
    genome sets:

    - `_table`, the `rsrp_table` of any written plan, with the replaced
      entries still to be written;
    - per corridor point, the best RSRP over every other entry, with its
      flat (sector, slot) index;
    - one row table of replaced-beam RSRPs, row j * N_CB + c holding
      designated cell j's `beam_gain` with codeword c in its frozen slot and
      the cell's other codewords beside it, times the baseline power of that
      slot, (n * N_CB, N_r).

    A slot index is the SSB index and the sweep group, so a replaced beam
    interferes with the other sectors' beams in its frozen slot.

    `evaluate_population` scores a (P, n) population through one
    (n + 1, P, N_r) candidate block: row 0 is the baseline best at every
    point, and rows 1..n are one `np.take` of the genome's rows. A maximum
    over the leading axis gives each point's serving RSRP, and a second
    maximum over the same axis, of a key that falls with the flat
    (sector, slot) index and is zeroed below the maximum RSRP, gives the
    serving beam with `select_serving_all`'s tie rule (lowest flat index).
    Only the F feasible genomes go on: `coverage_sinr_all` scores F copies
    of `_table` with their replaced entries written in. Nothing is cached;
    `evals` counts every genome scored.
    """

    def __init__(
        self,
        point_channels: ChannelSet,
        ssb_codebook: Codebook,
        baseline: BeamPlan,
        designated_cells: tuple[int, ...],
        frozen_slots: dict[int, int],
        required_cell: np.ndarray,
        noise_mw: float,
    ):
        self.baseline = baseline
        self.designated_cells = tuple(designated_cells)
        self.frozen_slots = dict(frozen_slots)
        self.required_cell = np.asarray(required_cell, dtype=int)
        self.noise_mw = float(noise_mw)
        self.n_codewords = len(ssb_codebook)
        self.evals = 0
        if len(set(self.designated_cells)) != len(self.designated_cells):
            raise ValueError("designated cells must be distinct")

        self._cells = cells = np.array(self.designated_cells, dtype=int)
        self._slots = slots = np.array([self.frozen_slots[c] for c in self.designated_cells], dtype=int)
        n = cells.size
        self._plan = self.plan_for(np.zeros(n, dtype=int))
        self._table = rsrp_table(point_channels, self._plan, ssb_codebook)
        n_points, n_sectors, n_slots = self._table.shape
        if self.required_cell.shape[0] != n_points:
            raise ValueError("required_cell must give one sector per highway point")
        self._n_slots = n_slots

        # RSRP rows (n * N_CB, N_r), row j * N_CB + c: cell j's codewords
        # with c in the frozen slot, in stacks of _GAIN_BATCH, times the
        # slot's power as `rsrp_table` multiplies it; a freed larger stack
        # would raise glibc's mmap threshold, and peak RSS with it, for the
        # rest of the process
        rows = []
        for cell, slot in zip(cells, slots):
            stack = np.repeat(ssb_codebook.weights[None, self._plan.codeword[cell]], _GAIN_BATCH, 0)
            power = dbm_to_mw(self._plan.power_dbm[cell, slot])
            for start in range(0, self.n_codewords, _GAIN_BATCH):
                batch = ssb_codebook.weights[start : start + _GAIN_BATCH]
                stack[: len(batch), slot] = batch
                rows.append(beam_gain(point_channels, cell, stack[: len(batch)])[:, :, slot] * power)
        self._rsrp_rows = np.concatenate(rows) if rows else np.empty((0, n_points))
        self._row_offset = (np.arange(n) * self.n_codewords)[:, None]

        # serving candidates per point: the best entry no genome touches, then
        # the n replaced entries. Each candidate's key is n_flat minus its flat
        # (sector, slot) index, (n + 1, 1, N_r), so the largest key among tied
        # candidates is the lowest flat index; every key is at least 1.
        replaced_flat = cells * n_slots + slots
        others = self._table.reshape(n_points, n_sectors * n_slots).copy()
        others[:, replaced_flat] = -np.inf
        base_flat = np.argmax(others, axis=1)  # first occurrence, as select_serving_all
        self._base_best = others[np.arange(n_points), base_flat]
        candidate_flat = np.concatenate(
            [base_flat[None, :], np.broadcast_to(replaced_flat[:, None], (n, n_points))]
        )
        self._n_flat = n_sectors * n_slots
        self._candidate_key = (self._n_flat - candidate_flat)[:, None, :]

    def evaluate_population(self, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fitness in dB, association violation count) of every row of a
        (P, n) population. Fitness is the min coverage SINR over the corridor
        points, -inf for a genome with any violation; the count only orders
        equally infeasible genomes during the search. Raises ValueError for a
        codeword gene that is not an integer in [0, N_CB)."""
        pop = np.asarray(pop)
        n = self._cells.size
        if pop.ndim != 2 or pop.shape[1] != n:
            raise ValueError("population rows must be genomes of one codeword per designated cell")
        codeword = _codewords(pop.T, self.n_codewords)  # (n, P)
        self.evals += pop.shape[0]

        # candidate block (n + 1, P, N_r): the baseline best, then the RSRP of
        # each genome's n replaced entries
        block = np.empty((n + 1, pop.shape[0], self._base_best.size))
        block[0] = self._base_best
        replaced = block[1:]
        rows = codeword + self._row_offset  # in range: checked above
        self._rsrp_rows.take(rows, axis=0, out=replaced, mode="clip")

        # serving beam: the maximum over the candidates, ties to the lowest
        # flat index, which is the first-occurrence rule of select_serving_all;
        # zeroing the keys of the candidates below the maximum is cheaper than
        # a masked minimum of the flat indices
        best = block.max(axis=0)  # (P, N_r)
        serving = self._n_flat - ((block == best) * self._candidate_key).max(axis=0)
        sector = serving // self._n_slots
        violations = (sector != self.required_cell).sum(axis=1)
        scores = np.full(pop.shape[0], -math.inf)
        ok = (violations == 0).nonzero()[0]
        if ok.size == 0:
            return scores, violations

        # the F feasible genomes' own tables, stacked (F * N_r, B, S)
        tables = np.tile(self._table, (ok.size, 1, 1))
        tables[:, self._cells, self._slots] = replaced[:, ok].reshape(n, -1).T
        flat = serving[ok].reshape(-1)
        sinr = coverage_sinr_all(tables, flat // self._n_slots, flat % self._n_slots, self.noise_mw)
        scores[ok] = sinr.reshape(ok.size, -1).min(axis=1)
        return scores, violations

    def plan_for(self, genome: np.ndarray) -> BeamPlan:
        return apply_individual(
            genome, self.baseline, self.designated_cells, self.frozen_slots, self.n_codewords
        )


def corridor_problem(
    scenario: Scenario, ssb_codebook: Codebook, ground: ChannelSet
) -> tuple[SegmentAssignment, FitnessEvaluator]:
    """The beam-search problem of a scenario's corridor.

    Scores every (segment, sector) pair and designates a serving cell per
    segment, freezes in each designated cell the baseline slot that serves the
    fewest snapshot-0 ground users, and builds the evaluator on the static
    corridor-point channels against the baseline plan. `ground` is snapshot
    0's ground block (`evaluation.ground_channels`); a caller that evaluates
    snapshot 0 afterwards passes the same block to both.
    """
    radio, highway = scenario.radio, scenario.highway
    h = expected_channels(scenario.sectors, highway.points, radio, scenario.channel_params)
    assignment = assign_segments(h, highway.segments, radio.noise_mw(radio.prb_bandwidth_hz))
    base = baseline_plan(scenario, ssb_codebook)

    gue_sector, gue_slot = select_serving_all(rsrp_table(ground, base, ssb_codebook))
    frozen = select_frozen_slots(base, assignment.designated_cells, gue_sector, gue_slot)

    point_channels = build_channels(scenario, entity_block(highway.points), "static", "highway-point")
    evaluator = FitnessEvaluator(
        point_channels, ssb_codebook, base, assignment.designated_cells, frozen,
        assignment.required_cell, radio.ssb_noise_mw,
    )
    return assignment, evaluator


def run(params: EgaParams, evaluator: FitnessEvaluator) -> tuple[Individual, FitnessTrace]:
    """Elite GA search; returns the best-ever genome and the fitness trace.

    Per iteration: score the offspring in one batched call, rank everyone,
    breed n_pop offspring from uniformly drawn parent pairs (gene-wise swap
    with p_cross), mutate every gene with p_mut (the index resampled
    uniformly), then write the top n_elites, which keep their scores, over
    the last n_elites offspring. Stops early when the best has not improved
    for stop_iters iterations (trace.stop_reason "stagnation", else
    "max_iters"). Fully deterministic given params.seed.

    Ranking is by fitness; genomes tied at -inf are ordered by how many
    points violate the designated association, which lets recombination
    assemble per-cell captures before any fully feasible genome exists.

    The draws: the initial codewords (`integers`), then per iteration the
    parent pairs (`integers`), the swap mask and the mutation mask (one
    `random` call) and the new codewords (`integers`). `Generator.random`
    takes one 64-bit word per double, so one call of the summed size gives
    the same doubles as two calls in a row; `tests/oracles.py::reference_run`
    draws them separately and the tests compare the two byte for byte.
    """
    n_cells = len(evaluator.designated_cells)
    if n_cells == 0:
        raise ValueError("no designated cells to optimize")
    n_cb = evaluator.n_codewords
    rng = np.random.default_rng(params.seed)
    pop = rng.integers(0, n_cb, size=(params.n_pop, n_cells))

    trace = FitnessTrace()
    best_genome = pop[0].copy()
    best_fitness = -math.inf
    best_violations = math.inf
    last_improvement = 0
    n_pop, n_elites = params.n_pop, params.n_elites
    n_offspring = n_pop - n_elites
    n_pairs = (n_pop + 1) // 2
    n_swap = n_pairs * n_cells  # one swap draw per gene of each pair
    scores = np.empty(n_pop)
    violations = np.empty(n_pop, dtype=int)
    n_unscored = n_pop  # leading rows of pop; the elites behind them keep their scores

    for iteration in range(params.max_iters):
        scores[:n_unscored], violations[:n_unscored] = evaluator.evaluate_population(
            pop[:n_unscored]
        )
        # primary: fitness descending; tie-break among -inf: fewer violations
        order = np.lexsort((violations, np.negative(scores)))
        ranked = pop[order]
        ranked_scores = scores[order]
        ranked_violations = violations[order]
        improved = ranked_scores[0] > best_fitness or (
            ranked_scores[0] == best_fitness and ranked_violations[0] < best_violations
        )
        if improved:
            best_fitness = float(ranked_scores[0])
            best_violations = int(ranked_violations[0])
            best_genome = ranked[0].copy()
            last_improvement = iteration
        trace.record(iteration, best_fitness, best_violations, evaluator.evals)

        if iteration - last_improvement >= params.stop_iters:
            trace.stop_reason = "stagnation"
            break

        # crossover: each drawn pair (a, b) of the top n_parents yields the
        # offspring rows where(swap, b, a) and where(swap, a, b)
        pairs = ranked[rng.integers(0, params.n_parents, size=(n_pairs, 2))]
        draws = rng.random(n_swap + n_pop * n_cells)
        swap = draws[:n_swap].reshape(n_pairs, 1, n_cells) <= params.p_cross
        pop = np.where(swap, pairs[:, ::-1], pairs).reshape(2 * n_pairs, n_cells)[:n_pop]

        # mutation of the offspring rows; the elite rows are overwritten below
        mutate = draws[n_swap:].reshape(n_pop, n_cells)[:n_offspring] <= params.p_mut
        new_codeword = rng.integers(0, n_cb, size=(n_pop, n_cells))
        np.copyto(pop[:n_offspring], new_codeword[:n_offspring], where=mutate)

        pop[n_offspring:] = ranked[:n_elites]
        scores[n_offspring:] = ranked_scores[:n_elites]
        violations[n_offspring:] = ranked_violations[:n_elites]
        n_unscored = n_offspring

    return Individual(best_genome, best_fitness, best_violations), trace
