"""Metaheuristic mappers: simulated annealing and a genetic algorithm.

These cover the "advanced heuristics" half of the exact+heuristic combination
the paper envisions for the NP-hard scheduling/mapping problem.  Both optimise
the system-level WCET bound directly and are fully deterministic given a seed.
"""

from __future__ import annotations

import math

from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.registry import register_scheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.utils.rng import make_rng
from repro.wcet.system_level import SystemDesign


def simulated_annealing_schedule(
    design: SystemDesign,
    max_cores: int | None = None,
    iterations: int = 200,
    initial_temperature: float = 0.2,
    seed: int | None = None,
) -> Schedule:
    """Simulated annealing over task-to-core mappings.

    Starts from the WCET-aware list schedule and explores single-task moves;
    the acceptance temperature is expressed as a fraction of the current
    bound so the schedule scale does not need tuning.  All candidate
    evaluations share ``design``: each task's isolated WCET on a core, each
    edge's price between two cores and the cost models are looked up once
    per search, the first time a candidate needs them, and only the
    mapping-dependent part of the analysis runs per candidate.
    """
    rng = make_rng(seed)
    core_ids = design.core_ids[:max_cores]
    current = WcetAwareListScheduler(max_cores=max_cores).schedule(design)
    best = current
    task_ids = design.leaf_ids
    if len(core_ids) == 1 or len(task_ids) <= 1:
        current.scheduler = "simulated_annealing"
        return current

    current_mapping = dict(current.mapping)
    current_bound = current.wcet_bound
    best_bound = current_bound
    for step in range(iterations):
        temperature = initial_temperature * (1.0 - step / max(1, iterations))
        tid = task_ids[int(rng.integers(0, len(task_ids)))]
        new_core = core_ids[int(rng.integers(0, len(core_ids)))]
        if current_mapping[tid] == new_core:
            continue
        candidate_mapping = dict(current_mapping)
        candidate_mapping[tid] = new_core
        candidate = evaluate_mapping(design, candidate_mapping, scheduler="simulated_annealing")
        delta = candidate.wcet_bound - current_bound
        accept = delta <= 0
        if not accept and temperature > 0:
            prob = math.exp(-delta / max(1e-9, temperature * current_bound))
            accept = rng.random() < prob
        if accept:
            current_mapping = candidate_mapping
            current_bound = candidate.wcet_bound
            if current_bound < best_bound:
                best_bound = current_bound
                best = candidate
    best.scheduler = "simulated_annealing"
    best.metadata["iterations"] = float(iterations)
    return best


def genetic_schedule(
    design: SystemDesign,
    max_cores: int | None = None,
    population_size: int = 12,
    generations: int = 15,
    mutation_rate: float = 0.15,
    seed: int | None = None,
) -> Schedule:
    """A small genetic algorithm over mappings (tournament selection,
    single-point crossover, per-gene mutation).

    Like the annealer, every fitness evaluation shares ``design``."""
    rng = make_rng(seed)
    core_ids = design.core_ids[:max_cores]
    task_ids = design.leaf_ids
    seeded = WcetAwareListScheduler(max_cores=max_cores).schedule(design)
    if len(core_ids) == 1 or len(task_ids) <= 1:
        seeded.scheduler = "genetic"
        return seeded

    def random_genome() -> list[int]:
        return [int(rng.integers(0, len(core_ids))) for _ in task_ids]

    def genome_of(mapping: dict[str, int]) -> list[int]:
        return [core_ids.index(mapping[tid]) for tid in task_ids]

    def mapping_of(genome: list[int]) -> dict[str, int]:
        return {tid: core_ids[g] for tid, g in zip(task_ids, genome)}

    def fitness(genome: list[int]) -> tuple[float, Schedule]:
        schedule = evaluate_mapping(design, mapping_of(genome), scheduler="genetic")
        return schedule.wcet_bound, schedule

    population = [genome_of(seeded.mapping)] + [random_genome() for _ in range(population_size - 1)]
    evaluated = [fitness(g) for g in population]
    best_bound, best_schedule = min(evaluated, key=lambda e: e[0])

    for _ in range(generations):
        new_population: list[list[int]] = []
        while len(new_population) < population_size:
            # tournament selection of two parents
            def pick() -> list[int]:
                i, j = rng.integers(0, len(population), size=2)
                return population[i] if evaluated[i][0] <= evaluated[j][0] else population[j]

            mother, father = pick(), pick()
            cut = int(rng.integers(1, len(task_ids))) if len(task_ids) > 1 else 1
            child = mother[:cut] + father[cut:]
            for g in range(len(child)):
                if rng.random() < mutation_rate:
                    child[g] = int(rng.integers(0, len(core_ids)))
            new_population.append(child)
        population = new_population
        evaluated = [fitness(g) for g in population]
        generation_best_bound, generation_best = min(evaluated, key=lambda e: e[0])
        if generation_best_bound < best_bound:
            best_bound, best_schedule = generation_best_bound, generation_best

    best_schedule.scheduler = "genetic"
    best_schedule.metadata["generations"] = float(generations)
    return best_schedule


# ---------------------------------------------------------------------- #
# registry adapters (see repro.scheduling.registry)
# ---------------------------------------------------------------------- #
@register_scheduler(
    "simulated_annealing", description="simulated annealing over task-to-core mappings"
)
def _simulated_annealing_plugin(design: SystemDesign, config) -> Schedule:
    return simulated_annealing_schedule(design, max_cores=config.max_cores, seed=config.seed)


@register_scheduler("genetic", description="genetic algorithm over task-to-core mappings")
def _genetic_plugin(design: SystemDesign, config) -> Schedule:
    return genetic_schedule(design, max_cores=config.max_cores, seed=config.seed)
