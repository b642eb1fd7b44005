import math
from dataclasses import replace

import numpy as np
import pytest

from skybeam.association import BeamPlan, rsrp_table, select_serving_all, ssb_rsrp
from skybeam.genetic import (
    EgaParams,
    FitnessEvaluator,
    apply_individual,
    export_plan_json,
    fitness,
    run,
    select_frozen_slots,
)
from test_association import make_channels, make_codebook, simple_plan

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
    baseline = BeamPlan(
        x=np.ones((n_sectors, n_slots), dtype=np.int8),
        power_dbm=gen.uniform(0, 6, (n_sectors, n_slots)),
        codeword=gen.integers(0, n_codewords, (n_sectors, n_slots)),
        sweep=np.tile(np.arange(n_slots), (n_sectors, 1)),
    )
    designated = tuple(sorted(gen.choice(n_sectors, size=gen.integers(1, n_sectors), replace=False).tolist()))
    frozen = {cell: int(gen.integers(0, n_slots)) for cell in designated}
    table = rsrp_table(channels, baseline, book)
    required_b, _ = select_serving_all(table)
    return channels, book, baseline, designated, frozen, required_b


def brute_force_fitness(genome, channels, book, baseline, designated, frozen, required, noise_mw):
    """Loop-based reference: apply, associate, penalize, min coverage SINR."""
    plan = apply_individual(np.asarray(genome, dtype=float), baseline, designated, frozen)
    n_points = channels.n_entities
    n_sectors, n_slots = plan.x.shape
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
            if b == best_b:
                continue
            for s in range(n_slots):
                if plan.sweep[b, s] == plan.sweep[best_b, best_s]:
                    interf += ssb_rsrp(z, s, b, plan, channels, book)
        worst = min(worst, 10 * math.log10(best_val / (interf + noise_mw)))
    return worst


class TestApplyIndividual:
    def test_empty_designated_set_is_identity(self):
        gen = np.random.default_rng(0)
        _, _, baseline, _, _, _ = random_instance(gen)
        plan = apply_individual(np.empty(0), baseline, (), {})
        assert np.array_equal(plan.x, baseline.x)
        assert np.array_equal(plan.power_dbm, baseline.power_dbm)
        assert np.array_equal(plan.codeword, baseline.codeword)

    def test_single_cell_differs_in_one_entry(self):
        gen = np.random.default_rng(1)
        _, _, baseline, _, _, _ = random_instance(gen)
        genome = np.array([7.0, 2.5])
        plan = apply_individual(genome, baseline, (1,), {1: 3})
        diff = np.argwhere(plan.codeword != baseline.codeword)
        power_diff = np.argwhere(~np.isclose(plan.power_dbm, baseline.power_dbm))
        changed = {tuple(d) for d in diff} | {tuple(d) for d in power_diff}
        assert changed <= {(1, 3)}
        assert plan.codeword[1, 3] == 7
        assert plan.power_dbm[1, 3] == pytest.approx(10 * math.log10(2.5))
        assert np.array_equal(plan.sweep, baseline.sweep)

    def test_structural_diff_matches_designated_set(self):
        gen = np.random.default_rng(2)
        for _ in range(20):
            _, _, baseline, designated, frozen, _ = random_instance(gen)
            n = len(designated)
            genome = np.concatenate([gen.integers(0, 10, n), gen.uniform(0.1, 5.0, n)])
            plan = apply_individual(genome, baseline, designated, frozen)
            diff_cells = set(np.argwhere(plan.codeword != baseline.codeword)[:, 0].tolist())
            diff_cells |= set(
                np.argwhere(~np.isclose(plan.power_dbm, baseline.power_dbm))[:, 0].tolist()
            )
            assert diff_cells <= set(designated)
            for cell in designated:
                slots = [
                    s
                    for s in range(baseline.n_slots)
                    if plan.codeword[cell, s] != baseline.codeword[cell, s]
                    or not math.isclose(plan.power_dbm[cell, s], baseline.power_dbm[cell, s])
                ]
                assert len(slots) <= 1


class TestFitness:
    def test_baseline_reproducing_genome(self):
        # required set equals the baseline association, so reproducing the
        # baseline beams is feasible and scores the baseline's min SINR
        gen = np.random.default_rng(3)
        channels, book, baseline, designated, frozen, required = random_instance(gen)
        ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
        n = len(designated)
        genome = np.concatenate(
            [
                [baseline.codeword[cell, frozen[cell]] for cell in designated],
                [10 ** (baseline.power_dbm[cell, frozen[cell]] / 10) for cell in designated],
            ]
        )
        got = fitness(genome, ev)
        oracle = brute_force_fitness(
            genome, channels, book, baseline, designated, frozen, required, NOISE_MW
        )
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got > -math.inf

    def test_violation_returns_minus_inf(self):
        gen = np.random.default_rng(4)
        channels, book, baseline, designated, frozen, required = random_instance(gen)
        required = required.copy()
        required[0] = (required[0] + 1) % channels.n_sectors  # unsatisfiable demand
        ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
        genome = np.concatenate([np.zeros(len(designated)), np.ones(len(designated))])
        if ev.evaluate(genome) != -math.inf:
            pytest.skip("random instance happened to satisfy the altered demand")
        assert ev.evaluate(genome) == -math.inf

    def test_matches_bruteforce_on_100_instances(self):
        gen = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            n = len(designated)
            genome = np.concatenate([gen.integers(0, 10, n), gen.uniform(0.05, 4.0, n)])
            got = ev.evaluate(genome)
            oracle = brute_force_fitness(
                genome, channels, book, baseline, designated, frozen, required, NOISE_MW
            )
            if got == -math.inf or oracle == -math.inf:
                assert got == oracle
            else:
                assert got == pytest.approx(oracle, rel=1e-9)
            checked += 1

    def test_general_sweep_map_path(self):
        # a plan whose sweep indices differ from slot ids puts several slots
        # of a sector in one interfering sweep group
        gen = np.random.default_rng(6)
        channels, book, baseline, designated, frozen, required = random_instance(gen)
        baseline.sweep = np.tile(np.array([0, 0, 1, 1]), (channels.n_sectors, 1))
        ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
        n = len(designated)
        genome = np.concatenate([gen.integers(0, 10, n), gen.uniform(0.05, 4.0, n)])
        got = ev.evaluate(genome)
        oracle = brute_force_fitness(
            genome, channels, book, baseline, designated, frozen, required, NOISE_MW
        )
        if got == -math.inf or oracle == -math.inf:
            assert got == oracle
        else:
            assert got == pytest.approx(oracle, rel=1e-9)


def serving_oracle(genome, ev, channels, book):
    """Serving (sectors, slots) of a genome from its full RSRP table: the
    replaced entries written into the baseline table, then select_serving_all."""
    n = len(ev.designated_cells)
    table = rsrp_table(channels, ev.baseline, book)
    for j, cell in enumerate(ev.designated_cells):
        gain = channels.beta[:, cell] * np.abs(
            channels.h[:, cell, :] @ book.weights[int(round(genome[j]))]
        ) ** 2
        table[:, cell, ev.frozen_slots[cell]] = gain * genome[n + j]
    return select_serving_all(table)


class TestEvaluatePopulation:
    @pytest.mark.parametrize("sweep_map", [None, [0, 0, 1, 1]])
    def test_matches_bruteforce_on_random_populations(self, sweep_map):
        gen = np.random.default_rng(12)
        feasible = 0
        for _ in range(30):
            channels, book, baseline, designated, frozen, required = random_instance(gen)
            if sweep_map is not None:
                baseline.sweep = np.tile(np.array(sweep_map), (channels.n_sectors, 1))
            ev = FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)
            n = len(designated)
            pop = np.concatenate(
                [gen.integers(0, 10, (8, n)), gen.uniform(0.05, 4.0, (8, n))], axis=1
            )
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
        # every beam has unit gain, so RSRP equals transmit power in mW and a
        # power gene equal to the baseline best ties it exactly
        channels = make_channels(np.tile([1.0, 0.0], (1, 3, 1)), np.ones((1, 3)))
        book = make_codebook([[1.0, 0.0], [0.0, 1.0]])
        baseline = simple_plan(3, 2)
        baseline.power_dbm = np.array([[0.0, 1.0], [3.0, 2.0], [1.0, 0.0]])
        best = rsrp_table(channels, baseline, book)[0, 1, 0]
        genome = np.array([0.0, best])
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
            channels, book, simple_plan(3, 4), (1,), {1: 2}, np.zeros(2, dtype=int), NOISE_MW
        )
        scores, violations = ev.evaluate_population(np.array([[1.0, 2.0], [0.0, 0.5]]))
        assert np.all(scores == -math.inf)
        assert np.all(violations == 0)

    def test_empty_population(self):
        ev = feasible_toy()
        scores, violations = ev.evaluate_population(np.empty((0, 2)))
        assert scores.shape == violations.shape == (0,)
        assert ev.evals == 0

    def test_rejects_wrong_genome_length(self):
        with pytest.raises(ValueError, match="twice"):
            feasible_toy().evaluate_population(np.ones((3, 4)))


def feasible_toy(seed=0):
    """Instance where sector 0 dominates and is the only designated cell."""
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
    baseline = simple_plan(n_sectors, n_slots, power_dbm=0.0, codeword=0)
    designated = (0,)
    frozen = {0: 1}
    required = np.zeros(n_points, dtype=int)
    return FitnessEvaluator(channels, book, baseline, designated, frozen, required, NOISE_MW)


class TestRun:
    def test_frozen_population_constant_best(self):
        ev = feasible_toy()
        params = EgaParams(
            n_pop=1, n_parents=1, n_elites=1, p_cross=0.0, p_mut=0.0, max_iters=20,
            stop_iters=50, seed=3,
        )
        _, trace = run(params, ev, p_max_dbm=10.0)
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
        _, trace = run(params, ev, p_max_dbm=10.0)
        assert all(b >= a for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))

    def test_deterministic_given_seed(self):
        params = EgaParams(
            n_pop=10, n_parents=5, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=40,
            stop_iters=100, seed=11,
        )
        b1, t1 = run(params, feasible_toy(), p_max_dbm=10.0)
        b2, t2 = run(params, feasible_toy(), p_max_dbm=10.0)
        assert np.array_equal(b1.genome, b2.genome)
        assert t1.best_fitness == t2.best_fitness

    def test_reaches_exhaustive_optimum_on_toy(self):
        # single designated cell: power is monotone, optimum on the codeword
        # grid at max power
        ev = feasible_toy(7)
        p_max_dbm = 10.0
        p_max_mw = 10 ** (p_max_dbm / 10)
        best = max(
            ev.evaluate(np.array([cw, p_max_mw], dtype=float)) for cw in range(ev.n_codewords)
        )
        params = EgaParams(
            n_pop=16, n_parents=8, n_elites=3, p_cross=0.2, p_mut=0.75, max_iters=300,
            stop_iters=300, seed=5,
        )
        winner, trace = run(params, ev, p_max_dbm=p_max_dbm)
        assert winner.fitness >= best - 0.25

    def test_emitted_plan_respects_constraints(self):
        ev = feasible_toy(9)
        params = EgaParams(
            n_pop=12, n_parents=6, n_elites=2, p_cross=0.2, p_mut=0.75, max_iters=80,
            stop_iters=200, seed=2,
        )
        p_max_dbm = 10.0
        winner, _ = run(params, ev, p_max_dbm=p_max_dbm)
        plan = ev.plan_for(winner.genome)
        plan.validate(ev.n_codewords, max_power_dbm=p_max_dbm)
        baseline = ev.baseline
        diff_cells = set(np.argwhere(plan.codeword != baseline.codeword)[:, 0].tolist())
        diff_cells |= set(
            np.argwhere(~np.isclose(plan.power_dbm, baseline.power_dbm))[:, 0].tolist()
        )
        assert diff_cells <= set(ev.designated_cells)

    def test_population_size_constant(self):
        # indirectly: the eval counter grows by at most n_pop per iteration
        ev = feasible_toy(4)
        params = EgaParams(
            n_pop=9, n_parents=5, n_elites=2, p_cross=0.3, p_mut=0.5, max_iters=25,
            stop_iters=100, seed=8,
        )
        _, trace = run(params, ev, p_max_dbm=10.0)
        increments = np.diff([0] + trace.evaluations)
        assert np.all(increments <= params.n_pop)

    def test_elites_are_not_rescored(self):
        ev = feasible_toy(4)
        params = EgaParams(
            n_pop=9, n_parents=5, n_elites=2, p_cross=0.3, p_mut=0.5, max_iters=25,
            stop_iters=100, seed=8,
        )
        _, trace = run(params, ev, p_max_dbm=10.0)
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
        best, trace = run(params, ev, p_max_dbm=10.0)
        assert trace.evaluations == [4] * 10
        assert len(set(trace.best_fitness)) == 1
        assert best.fitness == trace.best_fitness[-1]

    def test_stop_reason_and_violations(self):
        ev = feasible_toy(6)
        stalled = EgaParams(
            n_pop=1, n_parents=1, n_elites=1, p_cross=0.0, p_mut=0.0, max_iters=20,
            stop_iters=3, seed=0,
        )
        best, trace = run(stalled, ev, p_max_dbm=10.0)
        assert trace.stop_reason == "stagnation"
        assert len(trace.iterations) == 4
        assert best.feasible == (best.fitness > -math.inf)
        _, trace = run(replace(stalled, stop_iters=50), ev, p_max_dbm=10.0)
        assert trace.stop_reason == "max_iters"
        assert len(trace.iterations) == 20


class TestFrozenSlots:
    def test_prefers_fewest_gues(self):
        baseline = simple_plan(3, 4)
        sectors = np.array([0, 0, 0, 1, 1])
        slots = np.array([0, 0, 1, 2, 2])
        frozen = select_frozen_slots(baseline, (0, 1), sectors, slots)
        # cell 0: counts [2,1,0,0] -> slot 2; cell 1: counts [0,0,2,0] -> slot 0
        assert frozen[0] == 2
        assert frozen[1] == 0

    def test_designated_cells_avoid_slot_collisions(self):
        baseline = simple_plan(4, 4)
        sectors = np.array([], dtype=int)
        slots = np.array([], dtype=int)
        frozen = select_frozen_slots(baseline, (0, 1, 2, 3), sectors, slots)
        assert len(set(frozen.values())) == 4

    def test_collision_allowed_when_slots_exhausted(self):
        baseline = simple_plan(5, 4)
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
    winner, trace = run(params, ev, p_max_dbm=10.0)
    trace_path = tmp_path / "trace.csv"
    trace.to_csv(trace_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness_db,evals"
    assert len(lines) == 1 + len(trace.iterations)

    plan = ev.plan_for(winner.genome)
    plan_path = tmp_path / "plan.json"
    export_plan_json(plan, ev.designated_cells, ev.frozen_slots, plan_path)
    import json

    payload = json.loads(plan_path.read_text())
    assert len(payload["modified_beams"]) == len(ev.designated_cells)
