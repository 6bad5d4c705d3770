"""The design context of the system-level analysis and its scalar MHP pass.

A :class:`~repro.wcet.system_level.SystemDesign` holds what the analysis of
one design point derives independently of the candidate mapping; scheduler
searches build one and share it across their candidates.  Sharing must be
invisible:

* result-cache keys stay byte-identical to the derivation before the
  design existed (copied below as :func:`reference_result_key`), so old
  disk entries remain addressable;
* the bisect-based unpruned MHP kernel equals the pairwise double loop it
  replaced (copied below as :func:`double_loop_contenders`), and so does
  the pruned kernel given a skeleton that keeps every cross-core pair;
* the annealer, the genetic algorithm and branch and bound return the same
  schedules whether their candidates share one design or each build a
  fresh one, and so do certified result-tier replays.

The memoized HTG topological order that ``default_core_order`` reads per
candidate is covered here too.
"""

import hashlib
import json
import random

import pytest

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.analysis.certify import CertificationError
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir.program import Storage
from repro.ir.statements import Block
from repro.scheduling import (
    branch_and_bound_schedule,
    genetic_schedule,
    simulated_annealing_schedule,
)
from repro.scheduling import bnb, list_scheduler, metaheuristics
from repro.scheduling.schedule import default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.graphs import topological_order
from repro.utils.intervals import Interval
from repro.wcet import CACHE_SCHEMA_VERSION, HardwareCostModel, WcetAnalysisCache
from repro.wcet.cache import SystemResultCache
from repro.wcet.system_level import (
    SystemDesign,
    SystemWcetError,
    mhp_contenders,
    mhp_contenders_pruned,
    mhp_options,
    system_level_wcet,
)

PLATFORMS = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "recore_xentium": recore_xentium_like,
    "kit_leon3_inoc": kit_leon3_inoc,
}


# ---------------------------------------------------------------------- #
# oracles: the derivations the design context replaced
# ---------------------------------------------------------------------- #
def reference_result_key(
    htg,
    function,
    platform,
    mapping,
    order,
    storage_override=None,
    max_iterations=25,
    static_pruning=False,
):
    """The result key as derived before the design context: fresh cost
    models and a per-mapping edge-pricing table on every call."""
    storage_override = dict(storage_override or {})
    fp = WcetAnalysisCache()
    leaf_ids = [t.task_id for t in htg.leaf_tasks()]
    used_cores = sorted({mapping[tid] for tid in leaf_ids if tid in mapping})
    models = {c: HardwareCostModel(platform, c, storage_override) for c in used_cores}
    num_cores = platform.num_cores
    contenders = max(0, num_cores - 1)

    def comm_delay(src, dst):
        edge = htg.edge(src, dst)
        payload = edge.payload_bytes if edge is not None else 0
        if payload == 0:
            return 0.0
        return platform.communication_latency(
            payload, mapping[src], mapping[dst], contenders
        )

    tasks = [
        (tid, fp.region_fingerprint(htg.task(tid).statements), mapping.get(tid, -1))
        for tid in sorted(leaf_ids)
    ]
    edges = sorted(
        (e.src, e.dst, 0.0 if mapping[e.src] == mapping[e.dst] else comm_delay(e.src, e.dst))
        for e in htg.edges
        if e.src in mapping and e.dst in mapping
    )
    payload = {
        "function": fp.function_fingerprint(function),
        "tasks": tasks,
        "order": sorted((core, list(tids)) for core, tids in order.items()),
        "models": [
            (
                core,
                fp.model_signature_digest(models[core]),
                [models[core].shared_access_penalty(k) for k in range(num_cores)],
            )
            for core in used_cores
        ],
        "edges": edges,
        "num_cores": num_cores,
        "max_iterations": max_iterations,
    }
    if static_pruning:
        payload["static_pruning"] = True
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def double_loop_contenders(leaf_ids, sharers, mapping, intervals):
    """Distinct other cores with an overlapping sharer, pair by pair."""
    contenders = {}
    for tid in leaf_ids:
        other_cores = set()
        for other in sharers:
            if other == tid or mapping[other] == mapping[tid]:
                continue
            if intervals[tid].overlaps(intervals[other]):
                other_cores.add(mapping[other])
        contenders[tid] = len(other_cores)
    return contenders


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
def usecase_htg(name, chunks=2):
    model = compile_diagram(ALL_USECASES[name][0]())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    return model, htg


def random_mappings(htg, platform, count, seed):
    rng = random.Random(seed)
    leaf_ids = [t.task_id for t in htg.leaf_tasks()]
    core_ids = [c.core_id for c in platform.cores]
    for _ in range(count):
        # a random subset of the cores, so keys also see unused cores
        cores = rng.sample(core_ids, rng.randint(1, len(core_ids)))
        yield {tid: rng.choice(cores) for tid in leaf_ids}


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
    )


# ---------------------------------------------------------------------- #
# (a) result keys are byte-identical to the pre-design derivation
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
def test_result_key_matches_reference(usecase, platform_name):
    model, htg = usecase_htg(usecase)
    platform = PLATFORMS[platform_name]()
    tier = WcetAnalysisCache().system_results
    design = SystemDesign(htg, model.entry, platform)
    for mapping in random_mappings(htg, platform, count=6, seed=len(usecase)):
        order = default_core_order(htg, mapping)
        want = reference_result_key(htg, model.entry, platform, mapping, order)
        assert tier.result_key(htg, model.entry, platform, mapping, order, design=design) == want
        assert tier.result_key(htg, model.entry, platform, mapping, order) == want


@pytest.mark.parametrize(
    "variant",
    [
        {"static_pruning": True},
        {"max_iterations": 3},
        {"storage_override": "scratchpad"},
        {"storage_override": "scratchpad", "static_pruning": True, "max_iterations": 3},
    ],
    ids=["pruned", "max_iterations", "storage_override", "all"],
)
def test_result_key_variants_match_reference(variant):
    model, htg = usecase_htg("polka")
    platform = recore_xentium_like()
    kwargs = dict(variant)
    if kwargs.get("storage_override"):
        shared = sorted(
            d.name for d in model.entry.decls if d.storage is Storage.SHARED
        )
        assert shared
        kwargs["storage_override"] = {shared[0]: Storage.SCRATCHPAD}
    tier = WcetAnalysisCache().system_results
    design = SystemDesign(htg, model.entry, platform, kwargs.get("storage_override"))
    keys = set()
    for mapping in random_mappings(htg, platform, count=6, seed=5):
        order = default_core_order(htg, mapping)
        want = reference_result_key(htg, model.entry, platform, mapping, order, **kwargs)
        got = tier.result_key(htg, model.entry, platform, mapping, order, design=design, **kwargs)
        assert got == want
        keys.add(got)
    # every variant lands on keys the default derivation never produces
    mapping = next(random_mappings(htg, platform, count=1, seed=5))
    order = default_core_order(htg, mapping)
    assert reference_result_key(htg, model.entry, platform, mapping, order) not in keys


def test_annealer_keys_match_reference(monkeypatch):
    """Every key an annealer derives through its shared design."""
    model, htg = usecase_htg("egpws", chunks=3)
    platform = recore_xentium_like()
    seen = []
    original = SystemResultCache.result_key

    def recording(self, htg_, function, platform_, mapping, order, **kwargs):
        key = original(self, htg_, function, platform_, mapping, order, **kwargs)
        kwargs.pop("design")
        seen.append((key, dict(mapping), {c: list(t) for c, t in order.items()}, kwargs))
        return key

    monkeypatch.setattr(SystemResultCache, "result_key", recording)
    simulated_annealing_schedule(
        htg, model.entry, platform, iterations=60, seed=3, cache=WcetAnalysisCache()
    )
    assert len(seen) > 30
    for key, mapping, order, kwargs in seen:
        assert key == reference_result_key(htg, model.entry, platform, mapping, order, **kwargs)


# ---------------------------------------------------------------------- #
# (b) the MHP kernels equal the double loop
# ---------------------------------------------------------------------- #
def _windows(spec):
    """``{tid: (core, start, end, sharer)}`` -> the pass arguments."""
    leaf_ids = list(spec)
    mapping = {tid: core for tid, (core, _, _, _) in spec.items()}
    intervals = {tid: Interval(float(s), float(e)) for tid, (_, s, e, _) in spec.items()}
    sharers = [tid for tid, (_, _, _, shares) in spec.items() if shares]
    return leaf_ids, sharers, mapping, intervals


BOUNDARY_CASES = {
    "zero_length_windows": {
        "a": (0, 5, 5, True), "b": (1, 0, 10, True), "c": (1, 5, 5, True),
        "d": (2, 4, 6, True), "e": (2, 10, 10, True), "f": (0, 0, 0, False),
    },
    "shared_endpoints": {
        "a": (0, 0, 5, True), "b": (1, 5, 10, True), "c": (2, 10, 15, True),
        "d": (3, 4, 6, True), "e": (3, 15, 20, False),
    },
    "one_core": {"a": (0, 0, 5, True), "b": (0, 2, 8, True), "c": (0, 1, 3, False)},
    "no_sharers": {"a": (0, 0, 5, False), "b": (1, 0, 5, False)},
    "own_core_only_sharer": {
        "a": (0, 0, 10, True), "b": (1, 0, 10, False), "c": (1, 2, 4, False),
    },
    "nested_and_disjoint": {
        "a": (0, 0, 100, True), "b": (1, 10, 20, True), "c": (1, 30, 40, True),
        "d": (2, 20, 30, True), "e": (0, 21, 29, False), "f": (3, 40, 41, True),
    },
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CASES))
def test_scalar_pass_boundaries(name):
    args = _windows(BOUNDARY_CASES[name])
    assert mhp_contenders(*args) == double_loop_contenders(*args)


def test_scalar_pass_boundary_expectations():
    """Spot values the strict half-open comparisons imply."""
    touching = mhp_contenders(*_windows(BOUNDARY_CASES["shared_endpoints"]))
    # windows that only share an endpoint never contend
    assert touching == {"a": 1, "b": 1, "c": 0, "d": 2, "e": 0}
    own = mhp_contenders(*_windows(BOUNDARY_CASES["own_core_only_sharer"]))
    assert own == {"a": 0, "b": 1, "c": 1}
    assert mhp_contenders(*_windows(BOUNDARY_CASES["no_sharers"])) == {"a": 0, "b": 0}
    assert set(mhp_contenders(*_windows(BOUNDARY_CASES["one_core"])).values()) == {0}


@pytest.mark.parametrize("block", range(4))
def test_scalar_pass_random_windows(block):
    for seed in range(block * 250, (block + 1) * 250):
        rng = random.Random(seed)
        cores = rng.randint(1, 6)
        spec = {}
        for i in range(rng.randint(1, 40)):
            start = rng.randint(0, 30)
            # small integer grid: many shared endpoints; some empty windows
            end = start + rng.choice([0, 0, 1, 2, 3, 5, 8, 13])
            spec[f"t{i}"] = (rng.randrange(cores), start, end, rng.random() < 0.6)
        args = _windows(spec)
        want = double_loop_contenders(*args)
        assert mhp_contenders(*args) == want, seed
        # the pruned kernel over a skeleton that prunes nothing: every
        # cross-core sharer of every task
        leaf_ids, sharers, mapping, intervals = args
        skeleton = {
            tid: tuple(sid for sid in sharers if mapping[sid] != mapping[tid])
            for tid in leaf_ids
        }
        assert mhp_contenders_pruned(leaf_ids, skeleton, mapping, intervals) == want, seed


# ---------------------------------------------------------------------- #
# (c) searches: one shared design == a fresh design per candidate
# ---------------------------------------------------------------------- #
SEARCH_PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "recore_xentium": recore_xentium_like,
}


def _run_search(scheduler, htg, model, platform):
    cache = WcetAnalysisCache()
    if scheduler == "annealer":
        return simulated_annealing_schedule(
            htg, model.entry, platform, iterations=40, seed=9, cache=cache
        )
    if scheduler == "genetic":
        return genetic_schedule(
            htg, model.entry, platform, population_size=6, generations=3, seed=4,
            cache=cache,
        )
    schedule, _ = branch_and_bound_schedule(
        htg, model.entry, platform, max_cores=2, cache=cache
    )
    return schedule


def _patch_evaluate_mapping(monkeypatch, drop_design, designs):
    for module in (metaheuristics, list_scheduler, bnb):
        original = module.evaluate_mapping

        def wrapper(*args, _original=original, **kwargs):
            design = kwargs.pop("design", None) if drop_design else kwargs.get("design")
            designs.append(design)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "evaluate_mapping", wrapper)


@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("platform_name", sorted(SEARCH_PLATFORMS))
@pytest.mark.parametrize("scheduler", ["annealer", "genetic", "bnb"])
def test_shared_design_equals_fresh_designs(monkeypatch, scheduler, platform_name, pruning):
    chunks = 1 if scheduler == "bnb" else 2
    model = synthetic_compiled_model(num_kernels=6, vector_size=16, seed=2)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = SEARCH_PLATFORMS[platform_name]()
    with mhp_options(static_pruning=pruning):
        with monkeypatch.context() as patch:
            shared_designs: list = []
            _patch_evaluate_mapping(patch, drop_design=False, designs=shared_designs)
            shared = _run_search(scheduler, htg, model, platform)
        with monkeypatch.context() as patch:
            fresh_designs: list = []
            _patch_evaluate_mapping(patch, drop_design=True, designs=fresh_designs)
            fresh = _run_search(scheduler, htg, model, platform)
    # every candidate of the shared run went through one and the same design
    assert len(shared_designs) > 3
    assert len({id(d) for d in shared_designs}) == 1 and shared_designs[0] is not None
    assert len(fresh_designs) == len(shared_designs)
    assert schedule_fingerprint(shared) == schedule_fingerprint(fresh)
    assert (shared.result.mhp_allowed is not None) == pruning


# ---------------------------------------------------------------------- #
# (d) certified replays through a shared design
# ---------------------------------------------------------------------- #
def _mapped(usecase="polka", cores=4):
    model, htg = usecase_htg(usecase)
    platform = generic_predictable_multicore(cores=cores)
    leaf_ids = sorted(t.task_id for t in htg.leaf_tasks())
    mapping = {tid: i % cores for i, tid in enumerate(leaf_ids)}
    return model, htg, platform, mapping, default_core_order(htg, mapping)


def test_certified_replay_through_shared_design(tmp_path):
    model, htg, platform, mapping, order = _mapped("weaa")
    primer = WcetAnalysisCache.open(tmp_path / "cache")
    honest = system_level_wcet(htg, model.entry, platform, mapping, order, cache=primer)
    primer.flush()

    cache = WcetAnalysisCache.open(tmp_path / "cache")
    design = SystemDesign(htg, model.entry, platform, cache=cache)
    replay = system_level_wcet(
        htg, model.entry, platform, mapping, order, cache=cache, design=design, certify=True
    )
    assert cache.system_results.stats.disk_hits == 1
    assert replay.task_intervals == honest.task_intervals
    assert replay.makespan == honest.makespan

    # a tampered entry is refuted on replay just the same
    vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
    shard = next(vdir.glob("sys-entries*.jsonl"))
    records = [json.loads(line) for line in shard.read_text().splitlines()]
    records[0]["makespan"] *= 0.5
    shard.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    cache = WcetAnalysisCache.open(tmp_path / "cache")
    design = SystemDesign(htg, model.entry, platform, cache=cache)
    with pytest.raises(CertificationError):
        system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, design=design, certify=True,
        )


def test_design_for_other_inputs_is_rejected():
    model, htg, platform, mapping, order = _mapped("egpws")
    cache = WcetAnalysisCache()
    design = SystemDesign(htg, model.entry, platform, cache=cache)
    mismatches = [
        dict(platform=generic_predictable_multicore(cores=4)),
        dict(cache=WcetAnalysisCache()),
        dict(storage_override={"x": Storage.SCRATCHPAD}),
    ]
    for change in mismatches:
        kwargs = {"platform": platform, "cache": cache, **change}
        with pytest.raises(SystemWcetError, match="design context"):
            system_level_wcet(
                htg, model.entry, mapping=mapping, order=order, design=design, **kwargs
            )


# ---------------------------------------------------------------------- #
# the memoized HTG topological order
# ---------------------------------------------------------------------- #
def _graph(edges, nodes="abcd"):
    htg = HierarchicalTaskGraph("g")
    for tid in nodes:
        htg.add_task(Task(tid, TaskKind.BLOCK, Block()))
    for src, dst in edges:
        htg.add_edge(src, dst)
    return htg


def test_topological_order_memo_invalidated_by_growth():
    htg = _graph([("a", "b")])
    first = [t.task_id for t in htg.topological_tasks()]
    assert first == ["a", "b", "c", "d"]
    assert [t.task_id for t in htg.topological_tasks()] == first
    htg.add_edge("d", "a")
    assert [t.task_id for t in htg.topological_tasks()] == ["c", "d", "a", "b"]
    htg.add_task(Task("0", TaskKind.BLOCK, Block()))
    assert [t.task_id for t in htg.topological_tasks()] == ["0", "c", "d", "a", "b"]
    assert [t.task_id for t in htg.topological_tasks()] == [
        str(n) for n in topological_order(htg.tasks.keys(), htg.edge_pairs())
    ]


def test_validate_reports_cycles_with_the_same_message():
    htg = _graph([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(ValueError, match=r"HTG 'g' contains a dependence cycle"):
        htg.validate()
    with pytest.raises(ValueError):
        htg.topological_tasks()


def test_one_topological_sort_per_extraction(monkeypatch):
    from repro.htg import graph

    calls = []
    original = graph.topological_order

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(graph, "topological_order", counting)
    model, htg = usecase_htg("egpws")
    leaf = [t.task_id for t in htg.leaf_tasks()]
    for cores in (2, 3):
        default_core_order(htg, {tid: i % cores for i, tid in enumerate(leaf)})
    assert len(calls) == 1
