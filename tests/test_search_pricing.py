"""The searches price candidates with the bare fixed point, bit for bit.

:func:`reference_simulated_annealing` and
:func:`reference_branch_and_bound` are the former annealer and
branch-and-bound loops, kept verbatim as the oracles: they price every
candidate with ``evaluate_mapping`` (result key, result tier, full
``SystemWcetResult``).  The product prices candidates with
:meth:`~repro.wcet.system_level.SystemDesign.bound` over index vectors and
analyses only the winner.  So the annealer must draw the same random
numbers, accept the same moves and return the same schedule: equal
:func:`schedule_fingerprint`, scheduler name and metadata, on the three
use cases, two platform families, two granularities, three seeds, pruned
and unpruned.  Branch and bound must return the same schedule and
:class:`~repro.scheduling.bnb.BnBStats`, pruned and unpruned, wherever
every core is of one class (there its symmetry rule and lower bound are
the former ones).  Also here:

* ``design.bound(v)`` equals ``evaluate_mapping(design, mapping_of(v))
  .wcet_bound`` exactly on random vectors of the three use cases, and a
  malformed vector raises
  :class:`~repro.wcet.system_level.SystemWcetError`;
* a warm identical search, through a cache loaded from the cold run's
  directory, returns the same schedule with no fixed point and no
  code-level analysis;
* every input of a search moves its search key, and search records share
  the result tier's store without ever being read as results; malformed
  ones are dropped on load, and a replayed winner that does not map the
  design's tasks to the cores the search may use is searched again;
* a branch-and-bound search with more leaves than the result tier holds
  leaves one result in it, its winner's;
* branch and bound finds the optimum that an exhaustive pass of
  ``design.bound`` over every core vector finds, on heterogeneous bus
  platforms, a homogeneous one and a two-tile NoC.
"""

import itertools
import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling import branch_and_bound_schedule, simulated_annealing_schedule
from repro.scheduling.bnb import BnBStats
from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.rng import make_rng
from repro.wcet import CACHE_SCHEMA_VERSION, WcetAnalysisCache
from repro.wcet.cache import MAX_SYSTEM_RESULTS
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


def reference_branch_and_bound(
    design: SystemDesign,
    max_cores: int | None = None,
    max_tasks: int = 14,
) -> tuple[Schedule, BnBStats]:
    topological = design.topological
    if len(topological) > max_tasks:
        raise ValueError(
            f"branch and bound limited to {max_tasks} tasks, HTG has {len(topological)}"
        )
    core_ids = design.core_ids[:max_cores]

    order = [design.leaf_ids[i] for i in topological]
    wcets = {tid: design.cost(i, core_ids[0])[0] for tid, i in zip(order, topological)}
    total_work = sum(wcets.values())

    stats = BnBStats()
    best_schedule: Schedule | None = None
    best_bound = float("inf")

    def lower_bound(mapping: dict[str, int], next_index: int) -> float:
        per_core: dict[int, float] = {c: 0.0 for c in core_ids}
        for tid, core in mapping.items():
            per_core[core] += wcets[tid]
        assigned = sum(per_core.values())
        remaining = total_work - assigned
        return max(max(per_core.values(), default=0.0), (assigned + remaining) / len(core_ids))

    def recurse(index: int, mapping: dict[str, int]) -> None:
        nonlocal best_schedule, best_bound
        stats.nodes_explored += 1
        if index == len(order):
            stats.leaves_evaluated += 1
            schedule = evaluate_mapping(design, mapping, scheduler="bnb")
            if schedule.wcet_bound < best_bound:
                best_bound = schedule.wcet_bound
                best_schedule = schedule
            return
        if lower_bound(mapping, index) >= best_bound:
            stats.pruned += 1
            return
        tid = order[index]
        used = sorted(set(mapping.values()))
        candidates: list[int] = list(used)
        for core in core_ids:
            if core not in used:
                candidates.append(core)
                break
        for core in candidates:
            mapping[tid] = core
            recurse(index + 1, mapping)
            del mapping[tid]

    recurse(0, {})
    assert best_schedule is not None
    best_schedule.metadata["nodes_explored"] = float(stats.nodes_explored)
    best_schedule.metadata["pruned"] = float(stats.pruned)
    return best_schedule, stats


SEARCHES = {
    # (product, oracle, keyword arguments): a shorter search than the
    # default, so the 72 oracle runs stay cheap
    "annealer": (simulated_annealing_schedule, reference_simulated_annealing, {"iterations": 100}),
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
    for usecase in ("egpws", "polka", "weaa"):
        design = fresh_design(usecase, "loop3", platform_name, pruning)
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
    # a point where the search beats its start schedule
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
        key(search="tabu_search"),
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
    # a point where the search beats its start schedule on two cores
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


# ---------------------------------------------------------------------- #
# branch and bound: one pricing path, and the exhaustive optimum
# ---------------------------------------------------------------------- #
BNB_PLATFORMS = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic3": lambda: generic_predictable_multicore(cores=3),
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "kit_leon3_inoc": kit_leon3_inoc,
    "leon3_2tiles": lambda: kit_leon3_inoc(mesh_width=2, mesh_height=1, cores_per_tile=1),
    "xentium_2dsp_1ctl": lambda: recore_xentium_like(dsp_cores=2, control_cores=1),
    "xentium_1dsp_2ctl": lambda: recore_xentium_like(dsp_cores=1, control_cores=2),
}


@lru_cache(maxsize=None)
def synthetic(kernels, seed):
    model = synthetic_compiled_model(num_kernels=kernels, vector_size=32, seed=seed)
    return model, extract_htg(model, ExtractionOptions(granularity="block"))


def bnb_design(model_name, platform_name, pruning=False):
    """``e8-k<k>`` is E8's synthetic model of k kernels, any other name a use
    case; both at block granularity."""
    if model_name.startswith("e8-k"):
        kernels = int(model_name[len("e8-k"):])
        model, htg = synthetic(kernels, kernels)
    else:
        model, htg = compiled(model_name, "block")
    return SystemDesign(
        htg, model.entry, BNB_PLATFORMS[platform_name](), WcetAnalysisCache(), pruning
    )


#: designs whose cores are all of one class: E8's three models on two
#: generic platforms, two use cases, and a 2x2 mesh of two-core tiles
ONE_CLASS_POINTS = [
    *((f"e8-k{k}", platform) for platform in ("generic2", "generic4") for k in (4, 6, 8)),
    ("polka", "generic2"),
    ("weaa", "generic2"),
    ("e8-k4", "kit_leon3_inoc"),
    ("e8-k6", "kit_leon3_inoc"),
]


@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("model_name, platform_name", ONE_CLASS_POINTS)
def test_bnb_equals_per_leaf_reference(model_name, platform_name, pruning):
    want, want_stats = reference_branch_and_bound(bnb_design(model_name, platform_name, pruning))
    got, got_stats = branch_and_bound_schedule(bnb_design(model_name, platform_name, pruning))
    assert schedule_fingerprint(got) == schedule_fingerprint(want)
    assert got_stats == want_stats
    assert (got.result.mhp_allowed is not None) == pruning


def test_bnb_search_keeps_one_result():
    """The leaves are priced outside the result tier and the winner is
    analysed once, so a search with more leaves than the tier holds leaves
    one result in it instead of evicting every other one."""
    design = bnb_design("e8-k8", "generic4")
    with obs.observed():
        before = obs.metrics_snapshot()
        _, stats = branch_and_bound_schedule(design)
        counters = obs.snapshot_delta(before, obs.metrics_snapshot())["counters"]
    assert stats.leaves_evaluated > MAX_SYSTEM_RESULTS
    assert len(design.cache.system_results) == 1
    assert counters["system_cache.misses"] == 1
    assert counters.get("system_cache.hits", 0) == 0
    assert counters["fixed_point.runs"] == stats.leaves_evaluated + 1
    assert counters["bnb.leaves"] == stats.leaves_evaluated


@pytest.mark.parametrize("kernels", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "platform_name", ["xentium_2dsp_1ctl", "xentium_1dsp_2ctl", "generic3", "leon3_2tiles"]
)
def test_bnb_finds_the_exhaustive_optimum(platform_name, kernels):
    """Branch and bound returns the least ``design.bound`` of every core
    vector.  The xentium platforms have two core classes with different
    cost tables, so a search that treats every core as interchangeable, or
    prices every task on the first core, misses the optimum there."""
    missed = []
    for seed in (kernels, kernels + 10, kernels + 20):
        model, htg = synthetic(kernels, seed)
        design = SystemDesign(htg, model.entry, BNB_PLATFORMS[platform_name](), WcetAnalysisCache())
        optimum = min(
            design.bound(list(cores))
            for cores in itertools.product(design.core_ids, repeat=len(design.leaf_ids))
        )
        schedule, _ = branch_and_bound_schedule(design)
        if schedule.wcet_bound != optimum:
            missed.append((seed, schedule.wcet_bound, optimum))
    assert not missed
