"""Elite genetic search over one replacement beam per designated cell.

`corridor_problem` builds the search's inputs from a scenario: the segment
designation, one frozen slot per designated cell and the evaluator.

A genome concatenates one codeword index and one transmit power per
designated cell: [idx_0 .. idx_{n-1} | p_0 .. p_{n-1}], indices in
[0, N_CB), powers in (0, p_max] mW on a linear scale. Applying a genome to
the baseline plan swaps exactly one pre-selected slot per designated cell and
leaves every other cell untouched.

Fitness is the minimum coverage SINR over all highway points, with a hard
-inf penalty whenever any point would associate to a cell other than the one
designated for its segment. `FitnessEvaluator.evaluate_population` scores a
whole population in one batched call; it is the only fitness code path. The
search loop is a plain elite GA: rank, crossover of uniformly drawn parent
pairs, per-gene mutation, elites overwrite the worst. Each iteration scores
only the offspring, because the elites carry their scores forward, so
nothing is cached and memory stays flat over any number of iterations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .association import BeamPlan, baseline_plan, rsrp_table, select_serving_all, sinr_db
from .channel import ChannelSet, build_channels, stack_highway_channels
from .codebook import Codebook
from .config import EgaParams
from .scenario import Scenario, entity_block
from .segment_metric import SegmentAssignment, assign_segments, metric_noise_mw


@dataclass
class Individual:
    genome: np.ndarray  # 2n floats; first half integer-valued codeword indices
    fitness: float = -math.inf
    violations: int = 0  # corridor points associated outside their designated cell

    @property
    def feasible(self) -> bool:
        return self.violations == 0


@dataclass
class FitnessTrace:
    iterations: list[int] = field(default_factory=list)
    best_fitness: list[float] = field(default_factory=list)
    evaluations: list[int] = field(default_factory=list)
    stop_reason: str = "max_iters"  # or "stagnation": no improvement for stop_iters

    def record(self, iteration: int, best: float, evals: int) -> None:
        self.iterations.append(iteration)
        self.best_fitness.append(best)
        self.evaluations.append(evals)

    def to_csv(self, path) -> None:
        lines = ["iteration,best_fitness_db,evals"]
        for i, f, e in zip(self.iterations, self.best_fitness, self.evaluations):
            lines.append(f"{i},{f:.10g},{e}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def select_frozen_slots(
    baseline: BeamPlan,
    designated_cells: tuple[int, ...],
    gue_serving_sector: np.ndarray,
    gue_serving_slot: np.ndarray,
) -> dict[int, int]:
    """For each designated cell, the slot whose beam the search may replace.

    Picks the slot serving the fewest ground users under the baseline.
    Designated cells avoid reusing a sweep slot already frozen by another
    designated cell while slots remain: replacement beams all target the same
    corridor, so co-slot picks would make them interfere with each other
    during measurement. Ties break toward the lowest slot id.
    """
    frozen: dict[int, int] = {}
    taken: set[int] = set()
    for cell in designated_cells:
        counts = np.zeros(baseline.n_slots, dtype=int)
        mine = gue_serving_sector == cell
        for slot in gue_serving_slot[mine]:
            counts[slot] += 1
        order = np.argsort(counts, kind="stable")  # fewest gUEs first, then slot id
        free = [int(s) for s in order if int(s) not in taken]
        slot = free[0] if free else int(order[0])
        frozen[cell] = slot
        taken.add(slot)
    return frozen


def apply_individual(
    genome: np.ndarray,
    baseline: BeamPlan,
    designated_cells: tuple[int, ...],
    frozen_slots: dict[int, int],
) -> BeamPlan:
    """Baseline plan with one slot per designated cell replaced by the genome."""
    n = len(designated_cells)
    if genome.shape[0] != 2 * n:
        raise ValueError("genome length must be twice the designated-cell count")
    plan = baseline.copy()
    for j, cell in enumerate(designated_cells):
        slot = frozen_slots[cell]
        plan.codeword[cell, slot] = int(round(genome[j]))
        p_mw = float(genome[n + j])
        if p_mw <= 0.0:
            raise ValueError("power genes must be positive (linear mW)")
        plan.power_dbm[cell, slot] = 10.0 * math.log10(p_mw)
        plan.x[cell, slot] = 1  # sweep index inherited from the replaced slot
    return plan


class FitnessEvaluator:
    """Minimum corridor coverage SINR of genomes, with association constraint.

    A genome changes one (cell, frozen slot) entry of the baseline RSRP table
    per designated cell and nothing else. Construction therefore splits the
    table, once, into what no genome can change and what each genome sets:

    - per corridor point, the best RSRP over every entry except the
      designated ones, with its flat (sector, slot) index;
    - per point, sweep group and sector, that sector's summed RSRP in the
      group, with the designated entries zeroed;
    - per designated cell, the beam gain of every codeword at every point.

    `evaluate_population` then scores a whole population from each genome's
    n replaced entries alone, without building any genome's table. Nothing is
    cached; `evals` counts every genome scored.
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
        self.codebook = ssb_codebook
        self.baseline = baseline
        self.designated_cells = tuple(designated_cells)
        self.frozen_slots = dict(frozen_slots)
        self.required_cell = np.asarray(required_cell, dtype=int)
        self.noise_mw = float(noise_mw)
        self.n_codewords = len(ssb_codebook)
        self.evals = 0
        if len(set(self.designated_cells)) != len(self.designated_cells):
            raise ValueError("designated cells must be distinct")

        table = rsrp_table(point_channels, baseline, ssb_codebook)
        n_points, n_sectors, n_slots = table.shape
        if self.required_cell.shape[0] != n_points:
            raise ValueError("required_cell must give one sector per highway point")
        cells = np.array(self.designated_cells, dtype=int)
        slots = np.array([self.frozen_slots[c] for c in self.designated_cells], dtype=int)
        n = cells.size
        self._n_slots = n_slots
        # per designated cell: beta * |h^T w|^2 for every codeword -> (n, N_r, N_CB)
        self._gain = np.array(
            [
                point_channels.beta[:, cell, None]
                * np.abs(point_channels.h[:, cell, :] @ ssb_codebook.weights.T) ** 2
                for cell in self.designated_cells
            ]
        ).reshape(n, n_points, self.n_codewords)

        # serving candidates per point: the best entry no genome touches, then
        # the n replaced entries; (n + 1, N_r) flat (sector, slot) indices
        replaced_flat = cells * n_slots + slots
        others = table.reshape(n_points, n_sectors * n_slots).copy()
        others[:, replaced_flat] = -np.inf
        base_flat = np.argmax(others, axis=1)  # first occurrence, as select_serving_all
        self._base_best = others[np.arange(n_points), base_flat]
        self._candidate_flat = np.concatenate(
            [base_flat[None, :], np.broadcast_to(replaced_flat[:, None], (n, n_points))]
        )
        self._no_candidate = n_sectors * n_slots

        # beams interfere within a sweep group; per (point, group, sector) sums
        _, group = np.unique(baseline.sweep, return_inverse=True)
        group = group.reshape(n_sectors, n_slots)
        kept = table.copy()
        kept[:, cells, slots] = 0.0
        self._group_of_flat = group.reshape(-1)
        self._replaced_group = group[cells, slots]
        self._group_sums = np.stack(
            [np.sum(kept * (group == g), axis=2) for g in range(int(group.max()) + 1)], axis=1
        )  # (N_r, n_groups, B)
        self._cells = cells
        self._cell_index = np.arange(n)
        self._point_index = np.arange(n_points)

    def evaluate_population(self, pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(fitness in dB, association violation count) of every row of a
        (P, 2n) population. Fitness is the min coverage SINR over the corridor
        points, -inf for a genome with any violation; the count only orders
        equally infeasible genomes during the search."""
        pop = np.asarray(pop, dtype=float)
        n = self._cells.size
        if pop.ndim != 2 or pop.shape[1] != 2 * n:
            raise ValueError("population rows must be genomes of twice the designated-cell count")
        self.evals += pop.shape[0]
        codeword = np.rint(pop[:, :n]).astype(int)
        # serving candidates of each genome at each point: the baseline best,
        # then the RSRP of the genome's n replaced entries -> (P, n + 1, N_r)
        candidates = np.empty((pop.shape[0], n + 1, self._point_index.size))
        candidates[:, 0] = self._base_best
        replaced = candidates[:, 1:]
        np.multiply(self._gain[self._cell_index, :, codeword], pop[:, n:, None], out=replaced)

        # serving beam: argmax over the candidates, ties to the lowest flat
        # index, which is the first-occurrence rule of select_serving_all
        best = candidates.max(axis=1)  # (P, N_r)
        serving = np.where(
            candidates == best[:, None, :], self._candidate_flat, self._no_candidate
        ).min(axis=1)
        sector = serving // self._n_slots
        violations = np.count_nonzero(sector != self.required_cell, axis=1)
        scores = np.full(pop.shape[0], -math.inf)
        ok = violations == 0

        # interference: the serving sweep group's per-sector row, with the
        # genome's replaced entries added in, minus the serving sector itself
        group = self._group_of_flat[serving[ok]]  # (F, N_r)
        rows = self._group_sums[self._point_index, group]  # (F, N_r, B)
        rows[:, :, self._cells] += np.where(
            self._replaced_group[:, None] == group[:, None, :], replaced[ok], 0.0
        ).transpose(0, 2, 1)
        own = rows[np.arange(group.shape[0])[:, None], self._point_index, sector[ok]]
        interference = rows.sum(axis=2) - own
        scores[ok] = sinr_db(best[ok], interference + self.noise_mw).min(axis=1)
        return scores, violations

    def plan_for(self, genome: np.ndarray) -> BeamPlan:
        return apply_individual(genome, self.baseline, self.designated_cells, self.frozen_slots)


def corridor_problem(
    scenario: Scenario, ssb_codebook: Codebook
) -> tuple[SegmentAssignment, FitnessEvaluator]:
    """The beam-search problem of a scenario's corridor.

    Scores every (segment, sector) pair and designates a serving cell per
    segment, freezes in each designated cell the baseline slot that serves the
    fewest snapshot-0 ground users, and builds the evaluator on the static
    corridor-point channels against the baseline plan.
    """
    radio = scenario.radio
    stacks = [
        stack_highway_channels(scenario.highway, s, radio, scenario.channel_params)
        for s in scenario.sectors
    ]
    assignment = assign_segments(stacks, metric_noise_mw(radio))
    base = baseline_plan(scenario, ssb_codebook)

    gue_channels = build_channels(scenario, scenario.ground_users(snapshot=0), snapshot=0)
    gue_sector, gue_slot = select_serving_all(rsrp_table(gue_channels, base, ssb_codebook))
    frozen = select_frozen_slots(base, assignment.designated_cells, gue_sector, gue_slot)

    points = entity_block("aerial", scenario.highway.points)
    point_channels = build_channels(scenario, points, snapshot="static", stream_tag="highway-point")
    required = assignment.required_cell_per_point(
        scenario.highway.segments, scenario.highway.n_points
    )
    evaluator = FitnessEvaluator(
        point_channels, ssb_codebook, base, assignment.designated_cells, frozen, required,
        radio.ssb_noise_mw,
    )
    return assignment, evaluator


def _init_population(rng, n_pop: int, n_cells: int, n_cb: int, p_max_mw: float) -> np.ndarray:
    pop = np.empty((n_pop, 2 * n_cells))
    pop[:, :n_cells] = rng.integers(0, n_cb, size=(n_pop, n_cells))
    pop[:, n_cells:] = p_max_mw * (1.0 - rng.random(size=(n_pop, n_cells)))  # (0, p_max]
    return pop


def run(
    params: EgaParams,
    evaluator: FitnessEvaluator,
    p_max_dbm: float,
) -> tuple[Individual, FitnessTrace]:
    """Elite GA search; returns the best-ever genome and the fitness trace.

    Per iteration: score the offspring in one batched call, rank everyone,
    keep the top n_elites aside, breed n_pop offspring from uniformly drawn
    parent pairs (gene-wise swap with p_cross), mutate every gene with p_mut
    (indices resampled uniformly, powers redrawn on (0, p_max]), then
    overwrite the worst n_elites with the elites, which keep their scores.
    Stops early when the best has not improved for stop_iters iterations
    (trace.stop_reason "stagnation", else "max_iters"). Fully deterministic
    given params.seed.

    Ranking is by fitness; genomes tied at -inf are ordered by how many
    points violate the designated association, which lets recombination
    assemble per-cell captures before any fully feasible genome exists.
    """
    n_cells = len(evaluator.designated_cells)
    if n_cells == 0:
        raise ValueError("no designated cells to optimize")
    n_cb = evaluator.n_codewords
    p_max_mw = 10.0 ** (p_max_dbm / 10.0)
    rng = np.random.default_rng(params.seed)
    pop = _init_population(rng, params.n_pop, n_cells, n_cb, p_max_mw)

    trace = FitnessTrace()
    best_genome = pop[0].copy()
    best_fitness = -math.inf
    best_violations = math.inf
    last_improvement = 0
    n_offspring = params.n_pop - params.n_elites
    scores = np.empty(params.n_pop)
    violations = np.empty(params.n_pop, dtype=int)
    n_unscored = params.n_pop  # leading rows of pop; the elites behind them keep their scores

    for iteration in range(params.max_iters):
        scores[:n_unscored], violations[:n_unscored] = evaluator.evaluate_population(
            pop[:n_unscored]
        )
        # primary: fitness descending; tie-break among -inf: fewer violations
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
        trace.record(iteration, best_fitness, evaluator.evals)

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
        offspring = np.empty((2 * n_pairs, 2 * n_cells))
        offspring[0::2] = a_swapped
        offspring[1::2] = b_swapped
        pop = offspring[: params.n_pop]

        mut_idx = rng.random(size=(params.n_pop, n_cells)) <= params.p_mut
        new_idx = rng.integers(0, n_cb, size=(params.n_pop, n_cells))
        pop[:, :n_cells] = np.where(mut_idx, new_idx, pop[:, :n_cells])
        mut_pw = rng.random(size=(params.n_pop, n_cells)) <= params.p_mut
        new_pw = p_max_mw * (1.0 - rng.random(size=(params.n_pop, n_cells)))
        pop[:, n_cells:] = np.where(mut_pw, new_pw, pop[:, n_cells:])

        pop[n_offspring:] = elites
        scores[n_offspring:] = elite_scores
        violations[n_offspring:] = elite_violations
        n_unscored = n_offspring

    return Individual(best_genome, best_fitness, best_violations), trace


def export_plan_json(
    plan: BeamPlan,
    designated_cells: tuple[int, ...],
    frozen_slots: dict[int, int],
    path,
) -> None:
    """Persist the optimized beams (only the entries that differ from baseline)."""
    entries = []
    for cell in designated_cells:
        slot = frozen_slots[cell]
        entries.append(
            {
                "sector": int(cell),
                "slot": int(slot),
                "codeword": int(plan.codeword[cell, slot]),
                "power_dbm": float(plan.power_dbm[cell, slot]),
            }
        )
    payload = {"modified_beams": entries, "n_sectors": int(plan.n_sectors)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
