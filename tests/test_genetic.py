import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    ReferenceEvaluator,
    brute_force_fitness,
    evaluate_genome,
    reference_run,
    validate_plan,
)
from conftest import beam_plan
from skybeam.association import rsrp_table, select_serving_all
from skybeam.channel import build_channels, entity_block
from skybeam.cli import TRACE_CSV, _plan_json, _RunDir, _trace_rows
from skybeam.codebook import build_ssb_codebook
from skybeam.config import codebook_params_from_config, default_config, validate_config
from skybeam.evaluation import associate, ground_channels
from skybeam.genetic import (
    EgaParams,
    FitnessEvaluator,
    apply_individual,
    run,
    corridor_problem,
    select_frozen_slots,
)
from skybeam.scenario import scenario_from_config
from test_association import make_channels, make_codebook

NOISE_MW = 1e-9


def random_instance(gen, n_points=5, n_sectors=3, n_slots=4, m=4, n_codewords=10):
    """Small synthetic problem: channels, codebook, baseline, designation."""
    h = gen.standard_normal((n_points, n_sectors, m)) + 1j * gen.standard_normal(
        (n_points, n_sectors, m)
    )
    beta = gen.uniform(0.5, 2.0, (n_points, n_sectors))
    channels = make_channels(h, beta)
    weights = gen.standard_normal((n_codewords, m)) + 1j * gen.standard_normal((n_codewords, m))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    book = make_codebook(weights)
    baseline = beam_plan(
        n_sectors, n_slots,
        power_dbm=gen.uniform(0, 6, (n_sectors, n_slots)),
        codeword=gen.integers(0, n_codewords, (n_sectors, n_slots)),
    )
    designated = tuple(sorted(gen.choice(n_sectors, size=gen.integers(1, n_sectors), replace=False).tolist()))
    frozen = {cell: int(gen.integers(0, n_slots)) for cell in designated}
    table = rsrp_table(channels, baseline, book)
    required_b, _ = select_serving_all(table)
    return channels, book, baseline, designated, frozen, required_b


class TestApplyIndividual:
    def test_empty_designated_set_is_identity(self):
        gen = np.random.default_rng(0)
        _, _, baseline, _, _, _ = random_instance(gen)
        plan = apply_individual(np.empty(0), baseline, (), {}, 10)
        assert np.array_equal(plan.power_dbm, baseline.power_dbm)
        assert np.array_equal(plan.codeword, baseline.codeword)

    def test_single_cell_differs_in_one_entry(self):
        gen = np.random.default_rng(1)
        _, _, baseline, _, _, _ = random_instance(gen)
        plan = apply_individual(np.array([7]), baseline, (1,), {1: 3}, 10)
        diff = np.argwhere(plan.codeword != baseline.codeword)
        assert {tuple(d) for d in diff} <= {(1, 3)}
        assert plan.codeword[1, 3] == 7
        assert plan.power_dbm.tobytes() == baseline.power_dbm.tobytes()

    def test_structural_diff_matches_designated_set(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            _, _, baseline, designated, frozen, _ = random_instance(gen)
            genome = gen.integers(0, 10, len(designated))
            plan = apply_individual(genome, baseline, designated, frozen, 10)
            assert plan.power_dbm.tobytes() == baseline.power_dbm.tobytes()
            diff = plan.codeword != baseline.codeword
            assert set(np.argwhere(diff)[:, 0].tolist()) <= set(designated)
            assert all(np.count_nonzero(diff[cell]) <= 1 for cell in designated)


class TestFitness:
    def test_baseline_reproducing_genome(self):
        # required set equals the baseline association, so reproducing the
        # baseline beams is feasible and scores the baseline's min SINR
        gen = np.random.default_rng(3)
        channels, book, baseline, designated, frozen, required = random_instance(gen)
        ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
        genome = np.array([baseline.codeword[cell, frozen[cell]] for cell in designated])
        got = evaluate_genome(ev, genome)
        oracle = brute_force_fitness(
            genome, channels, book, baseline, designated, frozen, required, NOISE_MW
        )
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got > -math.inf

    def test_violation_returns_minus_inf(self):
        gen = np.random.default_rng(4)
        channels, book, baseline, designated, frozen, required = random_instance(gen)
        required = required.copy()
        required[0] = (required[0] + 1) % channels.h.shape[1]  # unsatisfiable demand
        ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
        genome = np.zeros(len(designated), dtype=int)
        if evaluate_genome(ev, genome) != -math.inf:
            pytest.skip("random instance happened to satisfy the altered demand")
        assert evaluate_genome(ev, genome) == -math.inf

    def test_matches_bruteforce_on_100_instances(self):
        gen = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            genome = gen.integers(0, 10, len(designated))
            got = evaluate_genome(ev, genome)
            oracle = brute_force_fitness(
                genome, channels, book, baseline, designated, frozen, required, NOISE_MW
            )
            if got == -math.inf or oracle == -math.inf:
                assert got == oracle
            else:
                assert got == pytest.approx(oracle, rel=1e-9)
            checked += 1


def serving_oracle(genome, ev, channels, book):
    """Serving (sectors, slots) of a genome from its full RSRP table: the
    replaced entries, at the baseline's power, written into the baseline
    table, then select_serving_all."""
    table = rsrp_table(channels, ev.baseline, book)
    for j, cell in enumerate(ev.designated_cells):
        slot = ev.frozen_slots[cell]
        gain = channels.beta[:, cell] * np.abs(channels.h[:, cell, :] @ book.weights[genome[j]]) ** 2
        table[:, cell, slot] = gain * 10 ** (ev.baseline.power_dbm[cell, slot] / 10)
    return select_serving_all(table)


class TestEvaluatePopulation:
    def test_matches_bruteforce_on_random_populations(self):
        gen = np.random.default_rng(12)
        feasible = 0
        for _ in range(30):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            pop = gen.integers(0, 10, (8, len(designated)))
            scores, violations = ev.evaluate_population(pop)
            assert scores.shape == violations.shape == (8,)
            for genome, got, count in zip(pop, scores, violations):
                oracle = brute_force_fitness(
                    genome, channels, book, baseline, designated, frozen, required, NOISE_MW
                )
                serving_b, _ = serving_oracle(genome, ev, channels, book)
                assert count == np.count_nonzero(serving_b != required)
                if oracle == -math.inf:
                    assert got == oracle and count > 0
                else:
                    assert got == pytest.approx(oracle, rel=1e-9)
                    feasible += 1
        assert feasible > 0

    @pytest.mark.parametrize(
        "cell, slot, winner",
        [
            (2, 1, (1, 0)),  # replaced entry after the baseline best: baseline wins
            (0, 0, (0, 0)),  # replaced entry before it: the replaced beam wins
        ],
    )
    def test_exact_tie_goes_to_lower_sector_slot(self, cell, slot, winner):
        # codeword 0 has unit gain, so RSRP equals transmit power in mW and a
        # replaced slot at the baseline best's power ties it exactly
        channels = make_channels(np.tile([1.0, 0.0], (1, 3, 1)), np.ones((1, 3)))
        book = make_codebook([[1.0, 0.0], [0.0, 1.0]])
        baseline = beam_plan(3, 2)
        baseline.power_dbm = np.array([[0.0, 1.0], [3.0, 2.0], [1.0, 0.0]])
        baseline.power_dbm[cell, slot] = baseline.power_dbm[1, 0]
        genome = np.array([0])
        for required in range(3):
            ev = FitnessEvaluator(
                channels, book, baseline, (cell,), {cell: slot}, np.array([required]), NOISE_MW
            )
            serving_b, serving_s = serving_oracle(genome, ev, channels, book)
            assert (serving_b[0], serving_s[0]) == winner  # select_serving_all's choice
            _, violations = ev.evaluate_population(genome[None, :])
            assert violations[0] == int(required != winner[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_serving_rsrp_is_minus_inf_without_warning(self):
        channels = make_channels(np.zeros((2, 3, 2)), np.ones((2, 3)))
        book = make_codebook([[1.0, 0.0], [0.0, 1.0]])
        ev = FitnessEvaluator(
            channels, book, beam_plan(3, 4), (1,), {1: 2}, np.zeros(2, dtype=int), NOISE_MW
        )
        scores, violations = ev.evaluate_population(np.array([[1], [0]]))
        assert np.all(scores == -math.inf)
        assert np.all(violations == 0)

    def test_empty_population(self):
        ev = feasible_toy()
        scores, violations = ev.evaluate_population(np.empty((0, 1), dtype=int))
        assert scores.shape == violations.shape == (0,)
        assert ev.evals == 0

    def test_rejects_wrong_genome_length(self):
        with pytest.raises(ValueError, match="one codeword per designated cell"):
            feasible_toy().evaluate_population(np.ones((3, 2), dtype=int))


class TestGeneRange:
    """A codeword gene must be an integer in [0, N_CB), in the scorer and in
    the plan alike."""

    @staticmethod
    def instance():
        channels, book, baseline, _, _, required = random_instance(
            np.random.default_rng(13), n_codewords=320
        )
        ev = FitnessEvaluator(channels, book, baseline, (1,), {1: 2}, required, NOISE_MW)
        return ev

    @pytest.mark.parametrize("codeword", [-1.0, 320.0, 319.6, math.nan, math.inf])
    def test_codeword_out_of_range_is_rejected(self, codeword):
        ev = self.instance()
        genome = np.array([codeword])
        with pytest.raises(ValueError, match=r"\[0, 320\)"):
            ev.evaluate_population(np.array([[3.0], genome]))
        with pytest.raises(ValueError, match=r"\[0, 320\)"):
            ev.plan_for(genome)
        assert ev.evals == 0

    @pytest.mark.parametrize("codeword", [319.4, -0.5, 2.5])
    def test_non_integer_codeword_is_rejected(self, codeword):
        ev = self.instance()
        with pytest.raises(ValueError, match=f"codeword gene {codeword}; it must be an integer"):
            ev.evaluate_population(np.array([[3.0], [codeword]]))
        with pytest.raises(ValueError, match="it must be an integer"):
            ev.plan_for(np.array([codeword]))
        assert ev.evals == 0


def feasible_toy(seed=0, required=None):
    """Instance where sector 0 dominates and is the only designated cell;
    `required` defaults to sector 0 at every point."""
    gen = np.random.default_rng(seed)
    n_points, n_sectors, n_slots, m = 5, 3, 4, 4
    h = gen.standard_normal((n_points, n_sectors, m)) + 1j * gen.standard_normal(
        (n_points, n_sectors, m)
    )
    beta = gen.uniform(0.5, 1.0, (n_points, n_sectors))
    beta[:, 0] *= 20.0  # sector 0 is the natural owner
    channels = make_channels(h, beta)
    weights = gen.standard_normal((10, m)) + 1j * gen.standard_normal((10, m))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    book = make_codebook(weights)
    baseline = beam_plan(n_sectors, n_slots, power_dbm=0.0, codeword=0)
    designated = (0,)
    frozen = {0: 1}
    if required is None:
        required = np.zeros(n_points, dtype=int)
    return FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)


class TestRun:
    def test_frozen_population_constant_best(self):
        ev = feasible_toy()
        params = EgaParams(
            n_pop=1, n_parents=1, n_elites=1, p_cross=0.0, p_mut=0.0, max_iters=20,
            stop_iters=50, seed=3,
        )
        _, trace = run(params, ev)
        finite = [f for f in trace.best_fitness if f > -math.inf]
        assert len(set(np.round(trace.best_fitness, 12))) <= 2  # -inf then one value at most
        if finite:
            assert len(set(np.round(finite, 12))) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trace_monotone_nondecreasing(self, seed):
        ev = feasible_toy(seed)
        params = EgaParams(
            n_pop=12, n_parents=6, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=60,
            stop_iters=100, seed=seed,
        )
        _, trace = run(params, ev)
        assert all(b >= a for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))

    def test_deterministic_given_seed(self):
        params = EgaParams(
            n_pop=10, n_parents=5, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=40,
            stop_iters=100, seed=11,
        )
        b1, t1 = run(params, feasible_toy())
        b2, t2 = run(params, feasible_toy())
        assert np.array_equal(b1.genome, b2.genome)
        assert t1.best_fitness == t2.best_fitness

    def test_reaches_exhaustive_optimum_on_toy(self):
        # single designated cell: the optimum is the best of its codewords
        ev = feasible_toy(7)
        best = max(evaluate_genome(ev, np.array([cw])) for cw in range(ev.n_codewords))
        params = EgaParams(
            n_pop=16, n_parents=8, n_elites=3, p_cross=0.2, p_mut=0.75, max_iters=300,
            stop_iters=300, seed=5,
        )
        winner, trace = run(params, ev)
        assert winner.fitness == best

    def test_emitted_plan_respects_constraints(self):
        ev = feasible_toy(9)
        params = EgaParams(
            n_pop=12, n_parents=6, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=80,
            stop_iters=200, seed=2,
        )
        winner, _ = run(params, ev)
        plan = ev.plan_for(winner.genome)
        validate_plan(plan, ev.n_codewords)
        assert plan.power_dbm.tobytes() == ev.baseline.power_dbm.tobytes()
        diff_cells = set(np.argwhere(plan.codeword != ev.baseline.codeword)[:, 0].tolist())
        assert diff_cells <= set(ev.designated_cells)

    def test_population_size_constant(self):
        # indirectly: the eval counter grows by at most n_pop per iteration
        ev = feasible_toy(4)
        params = EgaParams(
            n_pop=9, n_parents=5, n_elites=2, p_cross=0.3, p_mut=0.5, max_iters=25,
            stop_iters=100, seed=8,
        )
        _, trace = run(params, ev)
        increments = np.diff([0] + trace.evaluations)
        assert np.all(increments <= params.n_pop)

    def test_elites_are_not_rescored(self):
        ev = feasible_toy(4)
        params = EgaParams(
            n_pop=9, n_parents=5, n_elites=2, p_cross=0.3, p_mut=0.5, max_iters=25,
            stop_iters=100, seed=8,
        )
        _, trace = run(params, ev)
        assert trace.evaluations[0] == params.n_pop
        assert np.all(np.diff(trace.evaluations) == params.n_pop - params.n_elites)
        assert ev.evals == trace.evaluations[-1]

    def test_population_of_elites_only(self):
        # n_pop == n_elites: every iteration breeds zero offspring to score
        ev = feasible_toy(5)
        params = EgaParams(
            n_pop=4, n_parents=4, n_elites=4, p_cross=0.2, p_mut=0.75, max_iters=10,
            stop_iters=100, seed=1,
        )
        best, trace = run(params, ev)
        assert trace.evaluations == [4] * 10
        assert len(set(trace.best_fitness)) == 1
        assert best.fitness == trace.best_fitness[-1]

    def test_stop_reason_and_violations(self):
        ev = feasible_toy(6)
        stalled = EgaParams(
            n_pop=1, n_parents=1, n_elites=1, p_cross=0.0, p_mut=0.0, max_iters=20,
            stop_iters=3, seed=0,
        )
        best, trace = run(stalled, ev)
        assert trace.stop_reason == "stagnation"
        assert len(trace.iterations) == 4
        assert best.feasible == (best.fitness > -math.inf)
        _, trace = run(replace(stalled, stop_iters=50), ev)
        assert trace.stop_reason == "max_iters"
        assert len(trace.iterations) == 20

    def test_infeasible_run_traces_violations(self):
        """Sector 0 serves every point whatever its codeword, so requiring
        sector 1 at two points leaves every genome infeasible: the trace
        stays at -inf and records the best genome's violation count."""
        ev = feasible_toy(3, required=np.array([1, 1, 0, 0, 0]))
        params = EgaParams(
            n_pop=12, n_parents=6, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=30,
            stop_iters=100, seed=3,
        )
        best, trace = run(params, ev)
        assert not best.feasible and best.fitness == -math.inf
        assert trace.best_fitness == [-math.inf] * 30
        assert trace.violations == [2] * 30
        assert best.violations == 2


def twin(cls, ev: FitnessEvaluator, channels, book):
    """A `cls` scorer (`FitnessEvaluator` or `ReferenceEvaluator`) of `ev`'s
    problem, with its own `evals` count."""
    return cls(
        channels, book, ev.baseline, ev.designated_cells, ev.frozen_slots, ev.required_cell,
        ev.noise_mw,
    )


def assert_same_scores(ev, ref, pop):
    scores, violations = ev.evaluate_population(pop)
    ref_scores, ref_violations = ref.evaluate_population(pop)
    assert scores.dtype == ref_scores.dtype and violations.dtype == ref_violations.dtype
    assert scores.tobytes() == ref_scores.tobytes()
    assert violations.tobytes() == ref_violations.tobytes()
    assert ev.evals == ref.evals
    return scores


def assert_same_search(params, ev, ref):
    best, trace = run(params, ev)
    ref_best, ref_trace = reference_run(params, ref)
    assert best.genome.tobytes() == ref_best.genome.tobytes()
    assert np.float64(best.fitness).tobytes() == np.float64(ref_best.fitness).tobytes()
    assert best.violations == ref_best.violations
    assert trace.iterations == ref_trace.iterations
    assert np.array(trace.best_fitness).tobytes() == np.array(ref_trace.best_fitness).tobytes()
    assert trace.violations == ref_trace.violations
    assert trace.evaluations == ref_trace.evaluations
    assert trace.stop_reason == ref_trace.stop_reason
    assert ev.evals == ref.evals
    return best, trace


@pytest.fixture(scope="module")
def default_problems():
    """Per master seed: the default scenario's evaluator, its reference twin,
    the corridor points' channels and the SSB codebook."""
    problems = {}

    def get(seed):
        if seed not in problems:
            cfg = validate_config(default_config())
            cfg["seeds"]["master"] = seed
            scenario = scenario_from_config(cfg)
            cb = codebook_params_from_config(cfg)
            book = build_ssb_codebook(
                scenario.sectors[0].panel, cb.ssb_oversampling_h, cb.ssb_oversampling_v
            )
            _, ev = corridor_problem(scenario, book, ground_channels(scenario, 0))
            points = entity_block(scenario.highway.points)
            channels = build_channels(scenario, points, "static", "highway-point")
            problems[seed] = (ev, twin(ReferenceEvaluator, ev, channels, book), channels, book)
        return problems[seed]

    return get


class TestReferenceIdentity:
    """`FitnessEvaluator` and `run` against the references in tests/oracles.py,
    byte for byte. `run` merges adjacent `Generator.random` calls, which is
    exact only because each double takes one 64-bit word of the stream."""

    def test_random_populations(self):
        gen = np.random.default_rng(21)
        feasible = 0
        for _ in range(40):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            ref = twin(ReferenceEvaluator, ev, channels, book)
            pop = gen.integers(0, 10, (64, len(designated)))
            scores = assert_same_scores(ev, ref, pop)
            feasible += np.count_nonzero(scores > -math.inf)
        assert feasible > 0

    @pytest.mark.parametrize("cell, slot", [(2, 1), (0, 0), (1, 0), (1, 1)])
    def test_exact_ties(self, cell, slot):
        channels = make_channels(np.tile([1.0, 0.0], (1, 3, 1)), np.ones((1, 3)))
        book = make_codebook([[1.0, 0.0], [0.0, 1.0]])
        baseline = beam_plan(3, 2)
        powers = np.array([[0.0, 1.0], [3.0, 2.0], [1.0, 0.0]])
        pop = np.array([[0], [1]])  # unit gain, and no gain
        # the replaced slot at every power that ties some other baseline entry
        for power in np.unique(powers):
            baseline.power_dbm = powers.copy()
            baseline.power_dbm[cell, slot] = power
            for required in range(3):
                ev = FitnessEvaluator(
                    channels, book, baseline, (cell,), {cell: slot}, np.array([required]), NOISE_MW
                )
                assert_same_scores(ev, twin(ReferenceEvaluator, ev, channels, book), pop)

    @pytest.mark.parametrize("seed", [1, 6, 22])
    def test_default_scenario_search(self, default_problems, seed):
        ev, ref, _, _ = default_problems(seed)
        # long enough to end feasible: seed 6 is first feasible at iteration 914
        params = EgaParams(max_iters=1000, stop_iters=1000, seed=seed)
        best, trace = assert_same_search(params, ev, ref)
        assert len(trace.iterations) == 1000 and best.feasible

        # one-gene changes of the search's best genome: feasible and
        # infeasible genomes, and every violation count from 0 up
        gen = np.random.default_rng(seed)
        n = len(ev.designated_cells)
        pop = np.tile(best.genome, (3000, 1))
        pop[np.arange(3000), gen.integers(0, n, 3000)] = gen.integers(0, ev.n_codewords, 3000)
        scores = assert_same_scores(ev, ref, pop)
        assert np.any(scores > -math.inf) and np.any(scores == -math.inf)

    @pytest.mark.parametrize(
        "params",
        [
            EgaParams(n_pop=31, n_parents=17, n_elites=5, max_iters=120, stop_iters=120, seed=4),
            EgaParams(n_pop=20, n_parents=20, n_elites=20, max_iters=30, stop_iters=30, seed=5),
            EgaParams(n_pop=30, n_parents=10, n_elites=10, max_iters=120, stop_iters=120, seed=6),
            EgaParams(p_cross=0.0, max_iters=80, stop_iters=80, seed=7),
            EgaParams(p_cross=1.0, max_iters=80, stop_iters=80, seed=8),
            EgaParams(p_mut=0.0, max_iters=80, stop_iters=20, seed=9),
            EgaParams(p_mut=1.0, max_iters=80, stop_iters=80, seed=10),
            EgaParams(n_pop=9, n_parents=5, n_elites=2, p_cross=1.0, p_mut=0.0, max_iters=60,
                      stop_iters=15, seed=11),
        ],
        ids=["odd-n_pop", "n_pop-eq-n_elites", "n_parents-eq-n_elites", "p_cross-0",
             "p_cross-1", "p_mut-0", "p_mut-1", "odd-p_cross-1-p_mut-0"],
    )
    def test_edge_parameters(self, default_problems, params):
        ev, ref, _, _ = default_problems(1)
        assert_same_search(params, ev, ref)


def written_plan_scores(ev, channels, book, pop):
    """(fitness, violation count) of each genome, read from the plan that
    `plan_for` writes as `skybeam run` evaluates a plan: `rsrp_table`, then
    `associate`. Fitness is the minimum coverage SINR, -inf when a point is
    served outside its required sector."""
    scores, violations = [], []
    for genome in pop:
        assoc = associate(rsrp_table(channels, ev.plan_for(genome), book), ev.noise_mw)
        count = np.count_nonzero(assoc.serving_sector != ev.required_cell)
        violations.append(count)
        scores.append(assoc.coverage_sinr_db.min() if count == 0 else -math.inf)
    return np.array(scores), np.array(violations)


def assert_scores_written_plan(ev, channels, book, pop):
    scores, violations = ev.evaluate_population(pop)
    want_scores, want_violations = written_plan_scores(ev, channels, book, pop)
    assert scores.tobytes() == want_scores.tobytes()
    assert violations.tolist() == want_violations.tolist()
    return scores


class TestScoresWrittenPlan:
    """The search scores the plan it writes, bit for bit: every genome's
    fitness and violation count equal those of `plan_for(genome)` under
    `rsrp_table` and `associate`."""

    def test_random_instances(self):
        gen = np.random.default_rng(31)
        feasible = 0
        for _ in range(40):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            pop = gen.integers(0, 10, (32, len(designated)))
            scores = assert_scores_written_plan(ev, channels, book, pop)
            feasible += np.count_nonzero(scores > -math.inf)
        assert feasible >= 100

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_default_scenario(self, default_problems, seed):
        problem, _, channels, book = default_problems(seed)
        ev = twin(FitnessEvaluator, problem, channels, book)
        best, _ = run(EgaParams(max_iters=700, stop_iters=700, seed=seed), ev)
        assert best.feasible

        # the best genome; its one-gene changes; random genomes
        gen = np.random.default_rng(seed)
        n = len(ev.designated_cells)
        one_gene = np.tile(best.genome, (600, 1))
        one_gene[np.arange(600), gen.integers(0, n, 600)] = gen.integers(0, ev.n_codewords, 600)
        drawn = gen.integers(0, ev.n_codewords, (100, n))
        pop = np.concatenate([best.genome[None], one_gene, drawn])
        scores = assert_scores_written_plan(ev, channels, book, pop)
        assert np.count_nonzero(scores > -math.inf) >= 100
        assert scores[0] == best.fitness


class TestFrozenSlots:
    def test_prefers_fewest_gues(self):
        baseline = beam_plan(3, 4)
        sectors = np.array([0, 0, 0, 1, 1])
        slots = np.array([0, 0, 1, 2, 2])
        frozen = select_frozen_slots(baseline, (0, 1), sectors, slots)
        # cell 0: counts [2,1,0,0] -> slot 2; cell 1: counts [0,0,2,0] -> slot 0
        assert frozen[0] == 2
        assert frozen[1] == 0

    def test_designated_cells_avoid_slot_collisions(self):
        baseline = beam_plan(4, 4)
        sectors = np.array([], dtype=int)
        slots = np.array([], dtype=int)
        frozen = select_frozen_slots(baseline, (0, 1, 2, 3), sectors, slots)
        assert len(set(frozen.values())) == 4

    def test_collision_allowed_when_slots_exhausted(self):
        baseline = beam_plan(5, 4)
        frozen = select_frozen_slots(
            baseline, (0, 1, 2, 3, 4), np.array([], dtype=int), np.array([], dtype=int)
        )
        assert len(frozen) == 5  # fifth cell reuses a slot


def test_trace_and_plan_export(tmp_path):
    ev = feasible_toy(1)
    params = EgaParams(
        n_pop=8, n_parents=4, n_elites=2, p_cross=0.2, p_mut=0.6, max_iters=15,
        stop_iters=50, seed=1,
    )
    winner, trace = run(params, ev)
    run_dir = _RunDir(str(tmp_path), 0.0)
    run_dir.write_csv("trace.csv", TRACE_CSV, _trace_rows(trace))
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,best_fitness_db,violations,evals"
    assert len(lines) == 1 + len(trace.iterations)

    plan = ev.plan_for(winner.genome)
    run_dir.write_json("plan.json", _plan_json(plan, ev.designated_cells, ev.frozen_slots))
    import json

    payload = json.loads((tmp_path / "plan.json").read_text())
    assert len(payload["modified_beams"]) == len(ev.designated_cells)
