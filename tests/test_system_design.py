"""The design context of the system-level analysis and its MHP kernels.

A :class:`~repro.wcet.system_level.SystemDesign` is the pricing table of
one design point: it numbers the leaf tasks, edges and cores once, and
scheduler searches share it across their candidates.  Sharing must be
invisible:

* result-cache keys equal a v5 derivation written without the design
  (:func:`reference_result_key` below), every key an annealer derives
  through its shared design equals the key of a fresh design of the same
  inputs, and each input the fixed point can observe changes the key while
  dict insertion order does not;
* the bisect-based unpruned MHP kernel equals the pairwise double loop
  (:func:`double_loop_contenders` below, on the kernels' index
  signature), and so does the pruned kernel given a skeleton that keeps
  every cross-core pair;
* the annealer, the genetic algorithm and branch and bound return the same
  schedules whether their candidates share one design or each build a
  fresh one, every candidate of a pipeline run is analysed through the one
  design the ``schedule`` stage built, and every registered scheduler
  honours that design's MHP mode;
* a result replayed from a tampered cache directory is refuted by the
  pipeline's certify stage;
* a mapping or core order the analysis cannot honour raises
  :class:`~repro.wcet.system_level.SystemWcetError` instead of a number.

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
from repro.core import pipeline as pipeline_module
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir.statements import Block
from repro.scheduling import (
    available_schedulers,
    branch_and_bound_schedule,
    genetic_schedule,
    get_scheduler,
    simulated_annealing_schedule,
)
from repro.scheduling import bnb, list_scheduler, metaheuristics
from repro.scheduling.schedule import Schedule, ScheduleError, default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import edit_block_param, synthetic_compiled_model
from repro.utils.graphs import topological_order
from repro.utils.intervals import Interval
from repro.wcet import CACHE_SCHEMA_VERSION, HardwareCostModel, WcetAnalysisCache
from repro.wcet import system_level
from repro.wcet.cache import SystemResultCache
from repro.wcet.system_level import (
    SystemDesign,
    SystemWcetError,
    mhp_contenders,
    mhp_contenders_pruned,
    system_level_wcet,
)

PLATFORMS = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "recore_xentium": recore_xentium_like,
    "kit_leon3_inoc": kit_leon3_inoc,
}


# ---------------------------------------------------------------------- #
# oracles: derivations written without the design context
# ---------------------------------------------------------------------- #
def _sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def reference_result_key(
    htg, function, platform, mapping, order, max_iterations=25, static_pruning=False
):
    """The v5 result key from first principles: fresh cost models, every
    (payload, core pair) priced by the platform, tasks sorted by id."""
    fp = WcetAnalysisCache()
    tids = sorted(t.task_id for t in htg.leaf_tasks())
    edges = sorted(
        (e.src, e.dst, e.payload_bytes) for e in htg.edges if e.src in tids and e.dst in tids
    )
    cores = sorted(c.core_id for c in platform.cores)
    models = {c: HardwareCostModel(platform, c) for c in cores}
    prefix = {
        "function": fp.function_fingerprint(function),
        "tasks": [(tid, fp.region_fingerprint(htg.task(tid).statements)) for tid in tids],
        "edges": edges,
        "delays": [
            (payload, src, dst, platform.communication_latency(payload, src, dst, len(cores) - 1))
            for payload in sorted({p for _, _, p in edges if p})
            for src in cores
            for dst in cores
            if src != dst
        ],
        "cores": [
            (
                core,
                fp.model_signature_digest(models[core]),
                [models[core].shared_access_penalty(k) for k in range(len(cores))],
            )
            for core in cores
        ],
        "num_cores": len(cores),
    }
    body = [
        [mapping[tid] for tid in tids],
        sorted((core, list(ts)) for core, ts in order.items() if ts),
        max_iterations,
        static_pruning,
    ]
    return _sha1(
        _sha1(json.dumps(prefix, separators=(",", ":"), sort_keys=True))
        + json.dumps(body, separators=(",", ":"))
    )


def double_loop_contenders(cores, sharers, starts, finishes):
    """Distinct other cores with an overlapping sharer, pair by pair."""
    contenders = []
    for tid, core in enumerate(cores):
        window = Interval(starts[tid], finishes[tid])
        other_cores = set()
        for other in sharers:
            if other == tid or cores[other] == core:
                continue
            if window.overlaps(Interval(starts[other], finishes[other])):
                other_cores.add(cores[other])
        contenders.append(len(other_cores))
    return contenders


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
def usecase_htg(name, chunks=2, diagram=None):
    model = compile_diagram(diagram if diagram is not None else ALL_USECASES[name][0]())
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
# (a) result keys: the v5 reference, shared == one-shot, sensitivity
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
        assert tier.result_key(design, mapping, order) == want
        one_shot = SystemDesign(htg, model.entry, platform)
        assert tier.result_key(one_shot, mapping, order) == want


@pytest.mark.parametrize(
    "variant",
    [
        {"static_pruning": True},
        {"max_iterations": 3},
        {"static_pruning": True, "max_iterations": 3},
    ],
    ids=["pruned", "max_iterations", "all"],
)
def test_result_key_variants_match_reference(variant, monkeypatch):
    """The MHP mode comes from the design, the cap from the module constant."""
    model, htg = usecase_htg("polka")
    platform = recore_xentium_like()
    if "max_iterations" in variant:
        monkeypatch.setattr(system_level, "MAX_ITERATIONS", variant["max_iterations"])
    tier = WcetAnalysisCache().system_results
    design = SystemDesign(
        htg, model.entry, platform, static_pruning=variant.get("static_pruning", False)
    )
    keys = set()
    for mapping in random_mappings(htg, platform, count=6, seed=5):
        order = default_core_order(htg, mapping)
        want = reference_result_key(htg, model.entry, platform, mapping, order, **variant)
        got = tier.result_key(design, mapping, order)
        assert got == want
        keys.add(got)
    # every variant lands on keys the default derivation never produces
    mapping = next(random_mappings(htg, platform, count=1, seed=5))
    order = default_core_order(htg, mapping)
    assert reference_result_key(htg, model.entry, platform, mapping, order) not in keys


def test_annealer_keys_match_reference(monkeypatch):
    """Every key an annealer derives through its shared design equals the
    key of a fresh design of the same inputs and the reference."""
    model, htg = usecase_htg("egpws", chunks=3)
    platform = recore_xentium_like()
    seen = []
    original = SystemResultCache.result_key

    def recording(self, design, mapping, order):
        key = original(self, design, mapping, order)
        seen.append((key, design, dict(mapping), {c: list(t) for c, t in order.items()}))
        return key

    monkeypatch.setattr(SystemResultCache, "result_key", recording)
    shared = SystemDesign(htg, model.entry, platform, WcetAnalysisCache())
    simulated_annealing_schedule(shared, iterations=60, seed=3)
    assert len(seen) > 30
    tier = WcetAnalysisCache().system_results
    for key, design, mapping, order in seen:
        assert design is shared
        assert key == original(tier, SystemDesign(htg, model.entry, platform), mapping, order)
        assert key == reference_result_key(htg, model.entry, platform, mapping, order)


def _with_payload(htg, payload):
    """A copy of ``htg`` whose first payload-carrying leaf edge carries ``payload``."""
    leaf = {t.task_id for t in htg.leaf_tasks()}
    target = next(e for e in htg.edges if e.payload_bytes and e.src in leaf and e.dst in leaf)
    copy = HierarchicalTaskGraph(htg.name)
    for task in htg.tasks.values():
        copy.add_task(task)
    for e in htg.edges:
        copy.add_edge(e.src, e.dst, payload if e is target else e.payload_bytes, e.variables)
    return copy


def test_result_key_one_input_sensitivity(monkeypatch):
    """Each input the fixed point observes moves the key; nothing else does."""
    model, htg = usecase_htg("polka")
    platform = generic_predictable_multicore(cores=4)
    tier = WcetAnalysisCache().system_results
    tids = sorted(t.task_id for t in htg.leaf_tasks())
    mapping = {tid: i % 4 for i, tid in enumerate(tids)}
    order = default_core_order(htg, mapping)

    def key(htg_=htg, function=model.entry, platform_=platform, mapping_=mapping,
            order_=order, static_pruning=False):
        design = SystemDesign(htg_, function, platform_, static_pruning=static_pruning)
        return tier.result_key(design, mapping_, order_)

    base = key()
    moved = {**mapping, tids[0]: (mapping[tids[0]] + 1) % 4}
    core, tasks = next((c, ts) for c, ts in order.items() if len(ts) > 1)
    swapped = {**order, core: [tasks[1], tasks[0], *tasks[2:]]}
    diagram = ALL_USECASES["polka"][0]()
    edit_block_param(diagram, seed=1)
    edited, edited_htg = usecase_htg("polka", diagram=diagram)
    assert sorted(t.task_id for t in edited_htg.leaf_tasks()) == tids
    payload = next(e.payload_bytes for e in htg.edges if e.payload_bytes)
    changed = {
        "one task's core": key(mapping_=moved, order_=default_core_order(htg, moved)),
        "two tasks swapped in a core order": key(order_=swapped),
        "one region edited": key(htg_=edited_htg, function=edited.entry),
        "one edge payload": key(htg_=_with_payload(htg, payload + 8)),
        "one platform latency": key(
            platform_=generic_predictable_multicore(cores=4, shared_latency=9)
        ),
        "pruning": key(static_pruning=True),
    }
    with monkeypatch.context() as patch:
        patch.setattr(system_level, "MAX_ITERATIONS", 24)
        changed["the iteration cap"] = key()
    for what, other in changed.items():
        assert other != base, what
    assert len(set(changed.values())) == len(changed)
    # insertion order of the mapping and of the order dicts is not an input
    assert key(mapping_=dict(reversed(mapping.items())), order_=dict(reversed(order.items()))) == base


def test_v4_cache_directory_is_ignored(tmp_path):
    """A cache directory written under schema v4 holds nothing v5 reads,
    even under the very key v5 derives."""
    model, htg, platform, mapping, order = _mapped("weaa")
    fresh = system_level_wcet(
        SystemDesign(htg, model.entry, platform, WcetAnalysisCache()), mapping, order
    )
    assert CACHE_SCHEMA_VERSION == 5
    writer = WcetAnalysisCache.open(tmp_path / "cache")
    system_level_wcet(SystemDesign(htg, model.entry, platform, writer), mapping, order)
    writer.flush()
    v5 = tmp_path / "cache" / "v5"
    v4 = tmp_path / "cache" / "v4"
    v4.mkdir()
    for shard in v5.glob("*entries*.jsonl"):
        records = [json.loads(line) for line in shard.read_text().splitlines()]
        for record in records:
            if "makespan" in record:
                record["makespan"] *= 0.5
        (v4 / shard.name).write_text("".join(json.dumps(r) + "\n" for r in records))
        shard.unlink()
    cache = WcetAnalysisCache.open(tmp_path / "cache")
    assert len(cache) == 0 and len(cache.system_results) == 0
    replay = system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)
    assert cache.system_results.stats.disk_hits == 0
    assert cache.system_results.stats.misses == 1
    assert replay.makespan == fresh.makespan
    assert replay.task_intervals == fresh.task_intervals


# ---------------------------------------------------------------------- #
# (b) the MHP kernels equal the double loop
# ---------------------------------------------------------------------- #
def _windows(spec):
    """``{tid: (core, start, end, sharer)}`` -> the kernels' index arguments."""
    cores = [core for core, _, _, _ in spec.values()]
    sharers = [i for i, (_, _, _, shares) in enumerate(spec.values()) if shares]
    starts = [float(s) for _, s, _, _ in spec.values()]
    finishes = [float(e) for _, _, e, _ in spec.values()]
    return cores, sharers, starts, finishes


def _named(spec, counts):
    return dict(zip(spec, counts))


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
    def counts(name):
        spec = BOUNDARY_CASES[name]
        return _named(spec, mhp_contenders(*_windows(spec)))

    # windows that only share an endpoint never contend
    assert counts("shared_endpoints") == {"a": 1, "b": 1, "c": 0, "d": 2, "e": 0}
    assert counts("own_core_only_sharer") == {"a": 0, "b": 1, "c": 1}
    assert counts("no_sharers") == {"a": 0, "b": 0}
    assert set(counts("one_core").values()) == {0}


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
        core_of, sharers, starts, finishes = args
        skeleton = [
            tuple(s for s in sharers if core_of[s] != core) for core in core_of
        ]
        assert mhp_contenders_pruned(core_of, skeleton, starts, finishes) == want, seed


# ---------------------------------------------------------------------- #
# (c) searches: one shared design == a fresh design per candidate
# ---------------------------------------------------------------------- #
SEARCH_PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "recore_xentium": recore_xentium_like,
}


def _run_search(scheduler, design):
    if scheduler == "annealer":
        return simulated_annealing_schedule(design, iterations=40, seed=9)
    if scheduler == "genetic":
        return genetic_schedule(design, population_size=6, generations=3, seed=4)
    schedule, _ = branch_and_bound_schedule(design, max_cores=2)
    return schedule


def _patch_evaluate_mapping(monkeypatch, fresh_design, designs):
    """Record the design of every candidate; with ``fresh_design`` each
    candidate is analysed through a fresh design of the same inputs."""
    for module in (metaheuristics, list_scheduler, bnb):
        original = module.evaluate_mapping

        def wrapper(design, *args, _original=original, **kwargs):
            if fresh_design:
                design = SystemDesign(
                    design.htg, design.function, design.platform, design.cache,
                    static_pruning=design.static_pruning,
                )
            designs.append(design)
            return _original(design, *args, **kwargs)

        monkeypatch.setattr(module, "evaluate_mapping", wrapper)


def _search_case(scheduler, platform_name):
    chunks = 1 if scheduler == "bnb" else 2
    model = synthetic_compiled_model(num_kernels=6, vector_size=16, seed=2)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    return model, htg, SEARCH_PLATFORMS[platform_name]()


@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("platform_name", sorted(SEARCH_PLATFORMS))
@pytest.mark.parametrize("scheduler", ["annealer", "genetic", "bnb"])
def test_shared_design_equals_fresh_designs(monkeypatch, scheduler, platform_name, pruning):
    model, htg, platform = _search_case(scheduler, platform_name)

    def design():
        return SystemDesign(htg, model.entry, platform, WcetAnalysisCache(), pruning)

    with monkeypatch.context() as patch:
        shared_designs: list = []
        _patch_evaluate_mapping(patch, fresh_design=False, designs=shared_designs)
        searched = design()
        shared = _run_search(scheduler, searched)
    with monkeypatch.context() as patch:
        fresh_designs: list = []
        _patch_evaluate_mapping(patch, fresh_design=True, designs=fresh_designs)
        fresh = _run_search(scheduler, design())
    # every candidate of the shared run went through the one design searched
    assert len(shared_designs) > 3
    assert all(d is searched for d in shared_designs)
    assert len({id(d) for d in fresh_designs}) == len(fresh_designs) == len(shared_designs)
    assert schedule_fingerprint(shared) == schedule_fingerprint(fresh)
    assert (shared.result.mhp_allowed is not None) == pruning


@pytest.mark.parametrize("scheduler", ["simulated_annealing", "genetic", "bnb"])
def test_every_candidate_gets_the_stage_design(monkeypatch, scheduler):
    """The ``schedule`` stage builds one design per run and every candidate
    mapping the search evaluates is analysed through it."""
    built: list = []

    def recording_design(*args, **kwargs):
        design = SystemDesign(*args, **kwargs)
        built.append(design)
        return design

    monkeypatch.setattr(pipeline_module, "SystemDesign", recording_design)
    seen: list = []
    _patch_evaluate_mapping(monkeypatch, fresh_design=False, designs=seen)
    cache = WcetAnalysisCache()
    config = ToolchainConfig(
        granularity="block", scheduler=scheduler, max_cores=2, static_pruning=True
    )
    result = Pipeline(generic_predictable_multicore(cores=4), config, cache).run(
        ALL_USECASES["egpws"][0]()
    )
    assert len(built) == 1
    (design,) = built
    assert design.htg is result.htg and design.cache is cache and design.static_pruning
    assert len(seen) > 3
    assert all(d is design for d in seen)


@pytest.mark.parametrize("pruning", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_registered_schedulers_follow_the_design_mhp_mode(name, pruning):
    """The MHP mode reaches every scheduler through the design alone: a
    pruned design yields pruned results, an unpruned one unpruned."""
    model, htg, platform = _search_case("bnb", "generic4")
    design = SystemDesign(htg, model.entry, platform, WcetAnalysisCache(), pruning)
    config = ToolchainConfig(scheduler=name, max_cores=2)
    schedule = get_scheduler(name).build(design, config)
    assert (schedule.result.mhp_allowed is not None) == pruning


# ---------------------------------------------------------------------- #
# (d) replays of a tampered cache directory are refuted by certify
# ---------------------------------------------------------------------- #
def _mapped(usecase="polka", cores=4):
    model, htg = usecase_htg(usecase)
    platform = generic_predictable_multicore(cores=cores)
    leaf_ids = sorted(t.task_id for t in htg.leaf_tasks())
    mapping = {tid: i % cores for i, tid in enumerate(leaf_ids)}
    return model, htg, platform, mapping, default_core_order(htg, mapping)


def test_certified_replay_through_shared_design(tmp_path):
    """An annealer's candidates replayed from disk through the stage's one
    design certify clean; halved makespans on disk are refuted."""
    platform = generic_predictable_multicore(cores=4)
    config = ToolchainConfig(scheduler="simulated_annealing", certify=True)

    def run():
        pipeline = Pipeline(platform, config, WcetAnalysisCache.open(tmp_path / "cache"))
        return pipeline, pipeline.run(ALL_USECASES["weaa"][0]())

    primer, honest = run()
    primer.wcet_cache.flush()
    replayer, replay = run()
    stats = replayer.wcet_cache.system_results.stats
    assert stats.misses == 0 and stats.disk_hits > 1
    assert replay.certificates.ok
    assert replay.schedule.result.task_intervals == honest.schedule.result.task_intervals
    assert replay.system_wcet == honest.system_wcet

    # tamper every result on disk alike, so the search still picks the same
    # mapping and the certify stage sees the forged bound
    vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
    shard = next(vdir.glob("sys-entries*.jsonl"))
    records = [json.loads(line) for line in shard.read_text().splitlines()]
    for record in records:
        record["makespan"] *= 0.5
    shard.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(CertificationError) as excinfo:
        run()
    found = {f.code for f in excinfo.value.report.findings}
    assert "certify.schedule.bound-mismatch" in found


def test_zero_contender_shard_refuted_on_certified_replay(tmp_path):
    """A result shard rewritten so every task claims no contender keeps
    every window and effective WCET consistent; only the claimed counts
    lie, and the certified replay must refute them."""
    platform = generic_predictable_multicore(cores=4)

    def run(config):
        pipeline = Pipeline(platform, config, WcetAnalysisCache.open(tmp_path / "cache"))
        return pipeline, pipeline.run(ALL_USECASES["polka"][0]())

    primer, honest = run(ToolchainConfig())
    primer.wcet_cache.flush()
    assert sum(honest.schedule.result.task_contenders.values()) > 0
    vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
    shard = next(vdir.glob("sys-entries*.jsonl"))
    records = [json.loads(line) for line in shard.read_text().splitlines()]
    for record in records:
        for row in record["tasks"].values():
            row[3] = 0  # start, end, effective, contenders, base, shared
    shard.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(CertificationError) as excinfo:
        run(ToolchainConfig(certify=True))
    errors = {f.code for f in excinfo.value.report.findings if f.severity == "error"}
    assert errors == {"certify.fixed-point.contenders-mismatch"}


# ---------------------------------------------------------------------- #
# (e) a schedule the analysis cannot honour raises instead of a number
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "usecase, tid, core", [("polka", "t_reject", 0), ("egpws", "t_caution", 1)]
)
def test_order_on_another_core_than_the_mapping_raises(usecase, tid, core):
    """Such an order used to be analysed anyway: 21,303 cycles for polka
    (the consistent schedule reads 21,304) and 11,600 for egpws (11,183)."""
    platform = generic_predictable_multicore(cores=4)
    result = Pipeline(platform, ToolchainConfig()).run(ALL_USECASES[usecase][0]())
    mapping = dict(result.schedule.mapping)
    assert mapping[tid] != core
    order = {c: [t for t in ts if t != tid] for c, ts in result.schedule.order.items()}
    order[core].append(tid)
    with pytest.raises(SystemWcetError, match=f"{tid}' is ordered on core {core}"):
        system_level_wcet(SystemDesign(result.htg, result.model.entry, platform), mapping, order)
    with pytest.raises(ScheduleError, match=f"{tid}' is ordered on core {core}"):
        Schedule(result.htg.name, mapping, order).validate(result.htg, platform)


def test_order_listing_a_non_leaf_task_raises():
    model, htg, platform, mapping, order = _mapped("egpws")
    htg.add_task(Task("t_source", TaskKind.SOURCE, Block()))
    for stray in ("t_source", "t_nowhere"):
        bad = {**order, 0: [*order[0], stray]}
        with pytest.raises(SystemWcetError, match="not a leaf task"):
            system_level_wcet(SystemDesign(htg, model.entry, platform), mapping, bad)


def test_mapping_to_a_missing_core_raises():
    model, htg, platform, mapping, order = _mapped("egpws")
    tid = order[0][-1]
    bad_order = {**order, 0: order[0][:-1], 7: [tid]}
    with pytest.raises(SystemWcetError, match=r"core\(s\) \[7\]"):
        system_level_wcet(SystemDesign(htg, model.entry, platform), {**mapping, tid: 7}, bad_order)


def test_task_listed_twice_raises():
    model, htg, platform, mapping, order = _mapped("egpws")
    bad = {**order, 0: [*order[0], order[0][0]]}
    with pytest.raises(SystemWcetError, match="listed twice"):
        system_level_wcet(SystemDesign(htg, model.entry, platform), mapping, bad)


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
