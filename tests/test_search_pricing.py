"""The metaheuristics price candidates with the bare fixed point, bit for bit.

:func:`reference_simulated_annealing` and :func:`reference_genetic` are the
former annealer and genetic-algorithm loops, kept verbatim as the oracle:
they price every candidate with ``evaluate_mapping`` (result key, result
tier, full ``SystemWcetResult``).  The product prices candidates with
:meth:`~repro.wcet.system_level.SystemDesign.bound` over index vectors and
analyses only the winner, so it must draw the same random numbers, accept
the same moves and return the same schedule: equal
:func:`schedule_fingerprint`, scheduler name and metadata, on the three
use cases, two platform families, two granularities, three seeds, pruned
and unpruned.  Also here:

* ``design.bound(v)`` equals ``evaluate_mapping(design, mapping_of(v))
  .wcet_bound`` exactly on random vectors, and a malformed vector raises
  :class:`~repro.wcet.system_level.SystemWcetError`;
* a warm identical search, through a cache loaded from the cold run's
  directory, returns the same schedule with no fixed point and no
  code-level analysis;
* every input of a search moves its search key, and search records share
  the result tier's store without ever being read as results; malformed
  ones are dropped on load, and a replayed winner that does not map the
  design's tasks to the cores the search may use is searched again.
"""

import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling import genetic_schedule, simulated_annealing_schedule
from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.usecases import ALL_USECASES
from repro.utils.rng import make_rng
from repro.wcet import CACHE_SCHEMA_VERSION, WcetAnalysisCache
from repro.wcet.system_level import SystemDesign, SystemWcetError

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "xentium": recore_xentium_like,
}
GRANULARITIES = {"block": ("block", 1), "loop3": ("loop", 3)}
SEEDS = (1, 3, 7)


# ---------------------------------------------------------------------- #
# oracles: the per-candidate loops the vector searches replaced
# ---------------------------------------------------------------------- #
def reference_simulated_annealing(
    design: SystemDesign,
    max_cores: int | None = None,
    iterations: int = 200,
    initial_temperature: float = 0.2,
    seed: int | None = None,
) -> Schedule:
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


def reference_genetic(
    design: SystemDesign,
    max_cores: int | None = None,
    population_size: int = 12,
    generations: int = 15,
    mutation_rate: float = 0.15,
    seed: int | None = None,
) -> Schedule:
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


SEARCHES = {
    # (product, oracle, keyword arguments): shorter searches than the
    # defaults, so the 144 oracle runs stay cheap
    "annealer": (simulated_annealing_schedule, reference_simulated_annealing, {"iterations": 100}),
    "genetic": (genetic_schedule, reference_genetic, {"population_size": 8, "generations": 4}),
}


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def compiled(usecase, granularity):
    model = compile_diagram(ALL_USECASES[usecase][0]())
    kind, chunks = GRANULARITIES[granularity]
    htg = extract_htg(model, ExtractionOptions(granularity=kind, loop_chunks=chunks))
    return model, htg


def fresh_design(usecase, granularity, platform_name, pruning, cache=None):
    model, htg = compiled(usecase, granularity)
    return SystemDesign(
        htg, model.entry, PLATFORMS[platform_name](),
        cache if cache is not None else WcetAnalysisCache(), pruning,
    )


def schedule_fingerprint(schedule):
    result = schedule.result
    return (
        schedule.mapping,
        schedule.order,
        schedule.wcet_bound,
        result.task_intervals,
        result.task_effective_wcet,
        result.task_contenders,
        result.communication_cycles,
        result.interference_cycles,
        schedule.scheduler,
        schedule.metadata,
    )


# ---------------------------------------------------------------------- #
# the vector searches equal the per-candidate loops
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("granularity", sorted(GRANULARITIES))
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_search_equals_per_candidate_reference(
    search, usecase, platform_name, granularity, pruning
):
    product, reference, kwargs = SEARCHES[search]
    point = (usecase, granularity, platform_name, pruning)
    for seed in SEEDS:
        want = reference(fresh_design(*point), seed=seed, **kwargs)
        got = product(fresh_design(*point), seed=seed, **kwargs)
        assert schedule_fingerprint(got) == schedule_fingerprint(want), seed
        assert (got.result.mhp_allowed is not None) == pruning


# ---------------------------------------------------------------------- #
# design.bound == the analysed bound of the same mapping
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_bound_equals_evaluated_bound(platform_name, pruning):
    design = fresh_design("polka", "loop3", platform_name, pruning)
    n = len(design.leaf_ids)

    @given(st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n))
    @settings(max_examples=30, deadline=None)
    def check(cores):
        mapping = dict(zip(design.leaf_ids, cores))
        assert design.bound(cores) == evaluate_mapping(design, mapping).wcet_bound

    check()


@pytest.mark.parametrize(
    "vector, message",
    [
        (lambda n: [0] * (n - 1), "entries for"),
        (lambda n: [0] * (n + 1), "entries for"),
        (lambda n: [0] * (n - 1) + [4], r"core\(s\) \[4\]"),
        (lambda n: [-1] + [0] * (n - 1), r"core\(s\) \[-1\]"),
    ],
    ids=["short", "long", "missing-core", "negative-core"],
)
def test_malformed_vector_raises(vector, message):
    design = fresh_design("egpws", "block", "generic4", False)
    with pytest.raises(SystemWcetError, match=message):
        design.bound(vector(len(design.leaf_ids)))


# ---------------------------------------------------------------------- #
# one search record per search: a warm search solves nothing
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_warm_search_replays_without_solving(tmp_path, search):
    product, _, kwargs = SEARCHES[search]
    # a point where both searches beat their start schedule
    point = ("egpws", "loop3", "generic4", False)
    cold_cache = WcetAnalysisCache.open(tmp_path / "cache")
    cold = product(fresh_design(*point, cold_cache), seed=7, **kwargs)
    cold_cache.flush()
    # the cold run kept its start schedule, its search record and its
    # winner, not one result per candidate
    assert len(cold_cache.system_results) == 3

    warm_cache = WcetAnalysisCache.open(tmp_path / "cache")
    with obs.observed():
        before = obs.metrics_snapshot()
        warm = product(fresh_design(*point, warm_cache), seed=7, **kwargs)
        counters = obs.snapshot_delta(before, obs.metrics_snapshot())["counters"]
    assert schedule_fingerprint(warm) == schedule_fingerprint(cold)
    assert counters.get("fixed_point.runs", 0) == 0
    assert warm_cache.stats.misses == 0
    assert warm_cache.system_results.stats.misses == 0
    assert warm_cache.system_results.stats.disk_hits >= 2


def test_search_key_moves_with_every_search_input():
    design = fresh_design("egpws", "loop3", "generic4", False)
    tier = design.cache.system_results
    start = WcetAwareListScheduler().schedule(design)
    params = {"max_cores": None, "iterations": 200, "initial_temperature": 0.2, "seed": 1}

    def key(mapping=start.mapping, order=start.order, search="simulated_annealing", **changed):
        return tier.search_key(design, mapping, order, search, {**params, **changed})

    other = WcetAwareListScheduler(max_cores=2).schedule(design)
    keys = [
        key(),
        key(mapping=other.mapping, order=other.order),
        key(search="genetic"),
        key(max_cores=2),
        key(iterations=100),
        key(initial_temperature=0.3),
        key(seed=2),
        tier.search_key(
            fresh_design("egpws", "loop3", "generic4", True), start.mapping, start.order,
            "simulated_annealing", params,
        ),
    ]
    assert len(set(keys)) == len(keys)
    # the same inputs through a fresh design give the same key
    again = fresh_design("egpws", "loop3", "generic4", False)
    assert again.cache.system_results.search_key(
        again, start.mapping, start.order, "simulated_annealing", dict(params)
    ) == keys[0]


def test_search_records_are_never_results():
    cache = WcetAnalysisCache()
    tier = cache.system_results
    assert tier.memoized_search("k", lambda: {"t": 1}, ["t"], [1]) == {"t": 1}
    assert tier.get("k") is None
    # a result record is not read as a search record: the search runs
    design = fresh_design("egpws", "block", "generic4", False, cache)
    start = WcetAwareListScheduler().schedule(design)
    key = tier.result_key(design, start.mapping, start.order)
    ran = []
    assert tier.memoized_search(key, lambda: ran.append(key) or {"t": 2}, ["t"], [2]) == {"t": 2}
    assert ran == [key]


def test_malformed_search_records_are_dropped_on_load(tmp_path):
    vdir = tmp_path / f"v{CACHE_SCHEMA_VERSION}"
    vdir.mkdir()
    lines = [
        {"key": "won", "search": True, "winner": {"t_a": 1, "t_b": 0}},
        {"key": "start", "search": True, "winner": None},
        {"key": "list", "search": True, "winner": [1, 0]},
        {"key": "no-winner", "search": True},
        {"key": "bad-core", "search": True, "winner": {"t_a": "x"}},
    ]
    (vdir / "sys-entries-1-test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines))
    tier = WcetAnalysisCache.open(tmp_path).system_results
    assert set(tier.store.entries) == {"won", "start"}
    tasks, cores = ["t_a", "t_b"], [0, 1]
    assert tier.memoized_search("won", lambda: None, tasks, cores) == {"t_a": 1, "t_b": 0}
    assert tier.memoized_search("start", lambda: {"t_a": 0}, tasks, cores) is None
    assert tier.stats.disk_hits == 2 and tier.stats.misses == 0
    # a well-formed winner that is no mapping of these tasks to these
    # cores is searched again and overwritten
    for winner_tasks, winner_cores in [(["t_a"], cores), (["t_a", "t_b", "t_c"], cores), (tasks, [0])]:
        searched = {"t_a": 0, "t_b": 0}
        assert tier.memoized_search("won", lambda: searched, winner_tasks, winner_cores) == searched
        assert tier.store.entries["won"] == {"search": True, "winner": searched}
        tier.store.put("won", {"search": True, "winner": {"t_a": 1, "t_b": 0}})


@pytest.mark.parametrize("tamper", ["missing-task", "unknown-task", "capped-core"])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_foreign_search_winner_is_searched_again(tmp_path, search, tamper):
    """A search record read from disk whose winner leaves out a task, names
    a task the design lacks or uses a core beyond the search's cap is not
    replayed: the search runs again, returns its own winner and overwrites
    the record."""
    product, _, kwargs = SEARCHES[search]
    # a point where both searches beat their start schedule on two cores
    point = ("weaa", "loop3", "generic4", False)
    cold_cache = WcetAnalysisCache.open(tmp_path / "cache")
    cold = product(fresh_design(*point, cold_cache), max_cores=2, seed=7, **kwargs)
    cold_cache.flush()
    shard = next((tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}").glob("sys-entries*.jsonl"))
    records = [json.loads(line) for line in shard.read_text().splitlines()]
    (record,) = [r for r in records if "search" in r]
    won = dict(record["winner"])
    tid = next(iter(won))
    if tamper == "missing-task":
        del record["winner"][tid]
    elif tamper == "unknown-task":
        record["winner"]["no-such-task"] = 0
    else:
        # a core of the platform, but not one of the two the search may use
        record["winner"][tid] = 3
    shard.write_text("".join(json.dumps(r) + "\n" for r in records))

    warm_cache = WcetAnalysisCache.open(tmp_path / "cache")
    with obs.observed():
        before = obs.metrics_snapshot()
        warm = product(fresh_design(*point, warm_cache), max_cores=2, seed=7, **kwargs)
        counters = obs.snapshot_delta(before, obs.metrics_snapshot())["counters"]
    assert schedule_fingerprint(warm) == schedule_fingerprint(cold)
    assert set(warm.mapping.values()) <= {0, 1}
    assert counters.get("fixed_point.runs", 0) > 1
    assert warm_cache.system_results.store.entries[record["key"]] == {"search": True, "winner": won}
