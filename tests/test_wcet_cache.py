"""Regression tests for the memoized WCET analysis layer.

The cache must be *observationally invisible*: cached and uncached analyses
have to produce byte-identical schedules and WCET bounds on every use case,
and repeated scheduling runs must be deterministic.
"""

import dataclasses
import gc
import json
import weakref
from typing import Callable, NamedTuple

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.adl.processor import ProcessorModel
from repro.core import Pipeline, ToolchainConfig
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.task import Task, TaskKind
from repro.ir.builder import FunctionBuilder
from repro.ir.expressions import ArrayRef, Const, Var
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import Assign, Block
from repro.ir.types import FLOAT, ArrayType
from repro.scheduling import WcetAwareListScheduler
from repro.scheduling.schedule import default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.wcet import (
    HardwareCostModel,
    SystemDesign,
    WcetAnalysisCache,
    analyze_task_wcet,
    system_level_wcet,
)
from repro.wcet.cache import CACHE_SCHEMA_VERSION, _RegionMemo
from repro.wcet.code_level import WcetBreakdown, statement_wcet

USECASES = ["egpws", "polka", "weaa", "workloads"]


def build_case(usecase, cores=4, chunks=2):
    if usecase == "workloads":
        model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=1)
    else:
        builder, _ = ALL_USECASES[usecase]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    return model, htg, platform


def schedule_fingerprint(schedule):
    return (
        schedule.mapping,
        schedule.order,
        schedule.wcet_bound,
        schedule.result.task_effective_wcet,
        {tid: (iv.start, iv.end) for tid, iv in schedule.result.task_intervals.items()},
    )


@pytest.mark.parametrize("usecase", USECASES)
class TestCachedEqualsUncached:
    def test_task_analyses_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        cache = WcetAnalysisCache()
        for core_id in (0, 1):
            model_cost = HardwareCostModel(platform, core_id)
            for task in htg.leaf_tasks():
                for average in (False, True):
                    plain = analyze_task_wcet(task, model.entry, model_cost, average=average)
                    cached = analyze_task_wcet(
                        task, model.entry, model_cost, average=average, cache=cache
                    )
                    again = analyze_task_wcet(
                        task, model.entry, model_cost, average=average, cache=cache
                    )
                    for b in (cached, again):
                        assert b.total == plain.total
                        assert b.compute == plain.compute
                        assert b.memory == plain.memory
                        assert b.control == plain.control
                        assert b.shared_accesses == plain.shared_accesses
        assert cache.stats.hits > 0

    def test_system_level_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        mapping = {
            t.task_id: i % platform.num_cores
            for i, t in enumerate(htg.topological_tasks())
            if not t.is_synthetic
        }
        order = default_core_order(htg, mapping)
        # every code-level entry analysed afresh
        cache = WcetAnalysisCache()
        plain = system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)
        misses = cache.stats.misses
        # every code-level entry served by the cache: a second design
        # re-prices the point and the fixed point runs again
        cache.system_results.store.clear()
        cached = system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)
        assert cache.stats.misses == misses and cache.stats.hits > 0
        assert cache.system_results.stats.misses == 2
        assert cached.makespan == plain.makespan
        assert cached.task_effective_wcet == plain.task_effective_wcet
        assert cached.task_intervals == plain.task_intervals
        assert cached.task_contenders == plain.task_contenders
        assert cached.interference_cycles == plain.interference_cycles
        assert cached.communication_cycles == plain.communication_cycles

    def test_schedules_identical_across_caches(self, usecase):
        model, htg, platform = build_case(usecase)
        private = WcetAwareListScheduler().schedule(
            SystemDesign(htg, model.entry, platform, WcetAnalysisCache())
        )
        shared_cache = WcetAnalysisCache()
        shared = WcetAwareListScheduler().schedule(
            SystemDesign(htg, model.entry, platform, shared_cache)
        )
        # a third run reusing the now-warm shared cache
        warm = WcetAwareListScheduler().schedule(
            SystemDesign(htg, model.entry, platform, shared_cache)
        )
        assert schedule_fingerprint(shared) == schedule_fingerprint(private)
        assert schedule_fingerprint(warm) == schedule_fingerprint(private)
        assert shared_cache.stats.hits > 0

    def test_annotation_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        cost_model = HardwareCostModel(platform, 0)
        plain = {
            t.task_id: analyze_task_wcet(t, model.entry, cost_model).total
            for t in htg.leaf_tasks()
        }
        WcetAnalysisCache().annotate_htg(htg, model.entry, cost_model)
        cached = {t.task_id: t.wcet for t in htg.leaf_tasks()}
        assert cached == plain


class TestDeterminism:
    @pytest.mark.parametrize("usecase", USECASES)
    def test_two_schedule_runs_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        first = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        second = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        assert schedule_fingerprint(first) == schedule_fingerprint(second)


class TestCacheBehaviour:
    def _small_function(self):
        fb = FunctionBuilder("f")
        x = fb.local("x")
        fb.assign(x, 1)
        with fb.loop("i", 0, 8) as i:
            fb.assign(x, fb.binop("+", x, i))
        return fb.build()

    def test_homogeneous_cores_share_entries(self):
        model, htg, platform = build_case("workloads")
        cache = WcetAnalysisCache()
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 0), cache=cache)
        misses = cache.stats.misses
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 1), cache=cache)
        # identical cores on a homogeneous platform share cost signatures
        assert cache.stats.misses == misses

    @staticmethod
    def _two_array_function(storage_of_a=Storage.SHARED, extra=()):
        """A function whose two regions each read one of two arrays."""
        region_a = Block([Assign(Var("x"), ArrayRef("a", (Const(0),)))])
        region_b = Block([Assign(Var("x"), ArrayRef("b", (Const(1),)))])
        func = Function(
            "two",
            decls=[
                VarDecl("a", ArrayType(FLOAT, (4,)), storage_of_a),
                VarDecl("b", ArrayType(FLOAT, (4,)), Storage.SHARED),
                VarDecl("x", FLOAT),
                *extra,
            ],
            body=Block([region_a, region_b]),
        )
        return func, (region_a, region_b)

    def test_storage_change_in_fresh_function_rekeys_only_referencing_regions(self):
        model_cost = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
        cache = WcetAnalysisCache()
        func, regions = self._two_array_function()
        # a declaration no region references (an inserted block's signal,
        # say) must not re-key anything
        moved, moved_regions = self._two_array_function(
            Storage.SCRATCHPAD, extra=[VarDecl("unused", ArrayType(FLOAT, (8,)), Storage.SHARED)]
        )
        assert cache.entry_key(regions[0], func, model_cost) != cache.entry_key(
            moved_regions[0], moved, model_cost
        )
        assert cache.entry_key(regions[1], func, model_cost) == cache.entry_key(
            moved_regions[1], moved, model_cost
        )
        for f, rs in ((func, regions), (moved, moved_regions)):
            for region in rs:
                assert cache.region_wcet(region, f, model_cost) == statement_wcet(
                    region, f, model_cost
                )

    def test_undeclared_and_local_names_key_differently(self):
        model_cost = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
        region = Block([Assign(Var("x"), Const(1.0))])
        declared = Function("f", decls=[VarDecl("x", FLOAT, Storage.LOCAL)], body=Block([region]))
        undeclared = Function("f", body=Block([region]))
        cache = WcetAnalysisCache()
        assert cache.region_context(region, declared) != cache.region_context(region, undeclared)
        assert cache.entry_key(region, declared, model_cost) != cache.entry_key(
            region, undeclared, model_cost
        )

    def test_cached_breakdowns_are_isolated_copies(self):
        func = self._small_function()
        platform = generic_predictable_multicore(cores=2)
        model_cost = HardwareCostModel(platform, 0)
        cache = WcetAnalysisCache()
        first = cache.function_wcet(func, model_cost)
        first.total += 1e9  # corrupting the returned object must not leak
        second = cache.function_wcet(func, model_cost)
        assert second.total == first.total - 1e9

    def test_empty_cache_is_truthy(self):
        # an empty cache defines __len__ == 0; it must still be truthy so
        # `cache or default` style code cannot silently drop a shared cache
        cache = WcetAnalysisCache()
        assert len(cache) == 0
        assert bool(cache)

    def test_feedback_shares_cache_across_iterations(self):
        from repro.core import Pipeline, ToolchainConfig
        from repro.usecases import build_egpws_diagram

        platform = generic_predictable_multicore(cores=2)
        pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=2, feedback_iterations=2))
        pipeline.run(build_egpws_diagram())
        assert pipeline.wcet_cache.stats.hits > 0

    def test_clear_resets_entries(self):
        func = self._small_function()
        platform = generic_predictable_multicore(cores=2)
        cache = WcetAnalysisCache()
        cache.function_wcet(func, HardwareCostModel(platform, 0))
        # one entry per top-level region of the body
        assert len(cache) == len(func.body.stmts) > 1
        cache.clear()
        assert len(cache) == 0


def _heterogeneous_platform():
    """Two identical Xentium-type cores with *distinct* processor objects,
    plus one Leon3 core: the identical cores must share cache entries, the
    different type must not."""
    from repro.adl.architecture import Core, Platform
    from repro.adl.interconnect import RoundRobinBus
    from repro.adl.memory import scratchpad, shared_sram
    from repro.adl.processor import leon3_processor, xentium_processor

    cores = [
        Core(core_id=0, processor=xentium_processor(), scratchpad=scratchpad("spm0", 32)),
        Core(core_id=1, processor=xentium_processor(), scratchpad=scratchpad("spm1", 32)),
        Core(core_id=2, processor=leon3_processor(), scratchpad=scratchpad("spm2", 32)),
    ]
    return Platform(
        name="hetero2plus1",
        cores=cores,
        shared_memory=shared_sram(size_kib=512, latency=8),
        interconnect=RoundRobinBus(),
    )


class TestIdentityMemoLifetime:
    """Each identity-memo entry is watched by one weak reference its cache
    owns: memoizing registers no ``weakref.finalize``, and a dropped cache
    frees its memos even while the IR it saw lives on."""

    @staticmethod
    def _memoize_everything(cache, model, htg, platform):
        """Fill every identity memo; returns the cost models, which the
        memos outlive only while the caller holds them."""
        models = [HardwareCostModel(platform, core.core_id) for core in platform.cores]
        for hw in models:
            for task in htg.leaf_tasks():
                analyze_task_wcet(task, model.entry, hw, cache=cache)
        cache.function_fingerprint(model.entry)
        cache.platform_digest(platform)
        return models

    @staticmethod
    def _region_memos():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is _RegionMemo)

    @staticmethod
    def _entries(cache):
        memos = (
            cache._function_fps, cache._region_fps, cache._declarations,
            cache._model_sigs, cache._platform_digests,
        )
        return sum(map(len, memos))

    def test_memoizing_registers_no_finalizer(self):
        model, htg, platform = build_case("polka")
        cache = WcetAnalysisCache()
        registered = len(weakref.finalize._registry)
        models = self._memoize_everything(cache, model, htg, platform)
        assert cache._region_fps and cache._function_fps and cache._declarations
        assert len(cache._model_sigs) == len(models) and cache._platform_digests
        assert len(weakref.finalize._registry) == registered
        # one reference per entry, and no object pinned
        assert len(cache._refs) == self._entries(cache)
        assert cache._pins == []

    def test_a_dropped_cache_keeps_no_memo_alive(self):
        model, htg, platform = build_case("weaa")
        baseline = self._region_memos()
        cache = WcetAnalysisCache()
        self._memoize_everything(cache, model, htg, platform)
        assert self._region_memos() > baseline
        del cache
        # the IR lives on, and none of the dropped cache's memos with it
        assert self._region_memos() == baseline
        assert model.entry.body.stmts

    def test_dropping_the_ir_drops_its_entries_and_references(self):
        model, htg, platform = build_case("egpws")
        cache = WcetAnalysisCache()
        models = self._memoize_everything(cache, model, htg, platform)
        del model, htg
        gc.collect()
        assert not cache._region_fps and not cache._function_fps and not cache._declarations
        assert len(cache._model_sigs) == len(models)
        assert len(cache._refs) == self._entries(cache)
        del models
        gc.collect()
        # the platform lives on
        assert not cache._model_sigs and len(cache._platform_digests) == 1
        assert len(cache._refs) == self._entries(cache) == 1
        # the entries stay
        assert len(cache) > 0
        cache.clear()
        assert cache._refs == {}


class SlowProcessor(ProcessorModel):
    """The base processor's cost table, ten times slower per operation
    through ``cycles_for_op`` (a subclass the cost table cannot show)."""

    def cycles_for_op(self, op: str) -> int:
        return 10 * super().cycles_for_op(op)


def _slow(platform):
    """A copy of ``platform`` whose every core runs a :class:`SlowProcessor`."""
    cores = [
        dataclasses.replace(core, processor=SlowProcessor(**{
            f.name: getattr(core.processor, f.name) for f in dataclasses.fields(core.processor)
        }))
        for core in platform.cores
    ]
    return dataclasses.replace(platform, cores=cores)


def test_processor_subclass_does_not_share_base_entries():
    """Code-level keys name the processor's class: a subclass whose
    ``cycles_for_op`` prices more never replays the base processor's
    entries (egpws, default config, generic2)."""
    build, _ = ALL_USECASES["egpws"]
    cache = WcetAnalysisCache()
    stock = Pipeline(generic_predictable_multicore(cores=2), ToolchainConfig(), cache).run(build())
    assert (stock.system_wcet, stock.sequential_bound) == (11087.0, 14866.0)
    slow = Pipeline(_slow(generic_predictable_multicore(cores=2)), ToolchainConfig(), cache).run(
        build()
    )
    assert (slow.system_wcet, slow.sequential_bound) == (28708.0, 41092.0)


class TestHeterogeneousSharing:
    def test_identical_core_types_share_entries(self):
        model, htg, _ = build_case("workloads")
        platform = _heterogeneous_platform()
        cache = WcetAnalysisCache()
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 0), cache=cache)
        misses = cache.stats.misses
        # core 1 has the same cost signature through a distinct processor
        # object: every lookup must hit
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 1), cache=cache)
        assert cache.stats.misses == misses
        # core 2 is a genuinely different processor type: all lookups miss
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 2), cache=cache)
        assert cache.stats.misses == 2 * misses

    def test_entries_shared_across_platform_rebuilds(self):
        model, htg, _ = build_case("workloads")
        cache = WcetAnalysisCache()
        for task in htg.leaf_tasks():
            analyze_task_wcet(
                task, model.entry, HardwareCostModel(_heterogeneous_platform(), 0), cache=cache
            )
        misses = cache.stats.misses
        # a freshly built platform has all-new object identities but the same
        # cost content, so the keys are identical
        for task in htg.leaf_tasks():
            analyze_task_wcet(
                task, model.entry, HardwareCostModel(_heterogeneous_platform(), 0), cache=cache
            )
        assert cache.stats.misses == misses

    def test_hetero_results_match_uncached(self):
        model, htg, _ = build_case("workloads")
        platform = _heterogeneous_platform()
        cache = WcetAnalysisCache()
        for core_id in (0, 1, 2):
            cost_model = HardwareCostModel(platform, core_id)
            for task in htg.leaf_tasks():
                plain = analyze_task_wcet(task, model.entry, cost_model)
                cached = analyze_task_wcet(task, model.entry, cost_model, cache=cache)
                assert (plain.total, plain.shared_accesses) == (cached.total, cached.shared_accesses)


def _analyze_tasks(cache, platform=None):
    """Code-level analyses of every leaf task of one model (one entry each)."""
    model, htg, own_platform = build_case("workloads")
    cost_model = HardwareCostModel(platform or own_platform, 0)
    totals = {}
    for task in htg.leaf_tasks():
        breakdown = analyze_task_wcet(task, model.entry, cost_model, cache=cache)
        totals[task.task_id] = (
            breakdown.total,
            breakdown.compute,
            breakdown.memory,
            breakdown.control,
            breakdown.shared_accesses,
        )
    return totals


def _analyze_systems(cache, platform=None):
    """System-level analyses of three mappings of one model (one result each
    on four cores)."""
    model, htg, own_platform = build_case("workloads")
    platform = platform or own_platform
    leaves = [t.task_id for t in htg.topological_tasks() if not t.is_synthetic]
    makespans = {}
    for shift in range(3):
        mapping = {tid: (i + shift) % platform.num_cores for i, tid in enumerate(leaves)}
        order = default_core_order(htg, mapping)
        result = system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)
        makespans[tuple(sorted(mapping.items()))] = result.makespan
    return makespans


class Tier(NamedTuple):
    """How the shared persistence contract reaches one persisted tier."""

    prefix: str  # shard-file prefix
    store: Callable  # cache -> the tier's MemoStore
    populate: Callable  # (cache, platform=None) -> one outcome per entry


CODE_TIER = Tier("", lambda cache: cache.store, _analyze_tasks)
SYSTEM_TIER = Tier("sys-", lambda cache: cache.system_results.store, _analyze_systems)


class _PersistenceContract:
    """Disk behaviour every persisted tier shares (``tier`` picks one)."""

    tier: Tier

    def test_repeat_lookups_of_loaded_entries_count_as_hits(self, tmp_path):
        """Pinned semantics: ``disk_hits`` counts the *first* use of each
        loaded entry only; every repeat lookup is an in-process ``hit``, so
        hot entries cannot inflate the disk-hit rate."""
        first = WcetAnalysisCache.open(tmp_path / "cache")
        count = len(self.tier.populate(first))
        first.flush()
        second = WcetAnalysisCache.open(tmp_path / "cache")
        self.tier.populate(second)
        stats = self.tier.store(second).stats
        assert stats.disk_hits == count
        assert stats.hits == 0
        # the same lookups again: served from memory, not "from disk"
        self.tier.populate(second)
        assert stats.disk_hits == count
        assert stats.hits == count
        assert stats.misses == 0

    def test_foreign_versions_and_torn_lines_are_ignored(self, tmp_path):
        source = WcetAnalysisCache.open(tmp_path / "source")
        self.tier.populate(source)
        source.flush()
        (shard,) = (tmp_path / "source" / f"v{CACHE_SCHEMA_VERSION}").glob(
            f"{self.tier.prefix}entries-*.jsonl"
        )
        cache_dir = tmp_path / "cache"
        # well-formed entries under another schema version: must not be read
        (cache_dir / "v0").mkdir(parents=True)
        (cache_dir / "v0" / f"{self.tier.prefix}entries.jsonl").write_text(shard.read_text())
        cache = WcetAnalysisCache.open(cache_dir)
        assert len(self.tier.store(cache)) == 0
        self.tier.populate(cache)
        cache.flush()
        # a torn line in any shard must not break loading (the legacy
        # append-only entries file is still read as a shard)
        legacy = cache_dir / f"v{CACHE_SCHEMA_VERSION}" / f"{self.tier.prefix}entries.jsonl"
        with legacy.open("a") as fh:
            fh.write('{"key": "torn", "tot')
        reloaded = WcetAnalysisCache.open(cache_dir)
        assert len(self.tier.store(reloaded)) == len(self.tier.store(cache))

    def test_two_instances_flush_to_disjoint_shards(self, tmp_path):
        """Concurrent flushers own private shard files; load merges them."""
        cache_dir = tmp_path / "cache"
        first = WcetAnalysisCache.open(cache_dir)
        second = WcetAnalysisCache.open(cache_dir)
        self.tier.populate(first)
        # second analyses a different platform -> different keys
        self.tier.populate(second, generic_predictable_multicore(cores=2, shared_latency=16))
        first.flush()
        second.flush()
        vdir = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        pattern = f"{self.tier.prefix}entries-*.jsonl"
        assert len(list(vdir.glob(pattern))) == 2  # one private shard per instance
        # repeated flushes rewrite in place instead of growing new files
        self.tier.populate(second)
        second.flush()
        assert len(list(vdir.glob(pattern))) == 2
        assert not list(vdir.glob("*.tmp"))  # tempfiles are always replaced
        merged = WcetAnalysisCache.open(cache_dir)
        keys = set(self.tier.store(first).entries) | set(self.tier.store(second).entries)
        assert set(self.tier.store(merged).entries) == keys

    def test_reattach_flushes_everything_to_new_dir(self, tmp_path):
        cache = WcetAnalysisCache.open(tmp_path / "a")
        self.tier.populate(cache)
        cache.flush()
        store = self.tier.store(cache)
        entry_count = len(store)
        # switching directories must make every in-memory entry flushable
        # again, so the new directory gets a complete copy
        cache.load(tmp_path / "b")
        assert store.flush() == entry_count
        assert len(self.tier.store(WcetAnalysisCache.open(tmp_path / "b"))) == entry_count

    def test_noop_flush_does_not_touch_disk(self, tmp_path):
        import shutil

        cache = WcetAnalysisCache.open(tmp_path / "cache")
        self.tier.populate(cache)
        cache.flush()
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        before = {path.name: path.stat().st_mtime_ns for path in vdir.iterdir()}
        assert self.tier.store(cache).flush() == 0  # nothing new, no counts
        assert {path.name: path.stat().st_mtime_ns for path in vdir.iterdir()} == before
        idle = WcetAnalysisCache()
        idle.load(tmp_path / "idle")
        shutil.rmtree(tmp_path / "idle")
        assert self.tier.store(idle).flush() == 0  # directory not recreated
        assert not (tmp_path / "idle").exists()


class TestResultTierPersistence(_PersistenceContract):
    tier = SYSTEM_TIER


#: shard lines exactly as today's writers produce them (the line format is
#: schema v5's; v6 changed the meaning of a count, not the format)
GOLDEN_LINES = {
    "code": [
        '{"key":"ctx0|fp0|sig0|wc","total":120.0,"compute":80.0,"memory":30.0,'
        '"control":10.0,"shared_accesses":4}',
        '{"key":"ctx1|fp1|sig0|avg","total":96.5,"compute":64.0,"memory":24.5,'
        '"control":8.0,"shared_accesses":0}',
    ],
    "system": [
        '{"key":"sys0","makespan":130.0,"iterations":2,"converged":true,'
        '"final_delta":0.0,"interference":8.0,"communication":4.0,'
        '"tasks":{"t_a":[0.0,60.0,60.0,1,56.0,3],"t_b":[64.0,130.0,66.0,1,62.0,2]},'
        '"cores":{"t_a":0,"t_b":1},"allowed":{"t_a":["t_b"],"t_b":["t_a"]}}',
        '{"key":"sys1","makespan":75.0,"iterations":1,"converged":true,'
        '"final_delta":0.0,"interference":0.0,"communication":0.0,'
        '"tasks":{"t_a":[0.0,75.0,75.0,0,75.0,0]},"cores":{"t_a":0}}',
    ],
}


@pytest.mark.parametrize("name", ["code", "system"])
def test_golden_shard_lines_round_trip(tmp_path, name):
    """Today's on-disk lines load, and flushing the loaded entries into a
    fresh directory writes the very same bytes."""
    tier, lines = {"code": CODE_TIER, "system": SYSTEM_TIER}[name], GOLDEN_LINES[name]
    text = "\n".join(lines) + "\n"
    vdir = tmp_path / "a" / f"v{CACHE_SCHEMA_VERSION}"
    vdir.mkdir(parents=True)
    (vdir / f"{tier.prefix}entries-1-golden.jsonl").write_text(text)
    cache = WcetAnalysisCache.open(tmp_path / "a")
    assert list(tier.store(cache).entries) == [json.loads(line)["key"] for line in lines]
    cache.load(tmp_path / "b")
    cache.flush()
    (shard,) = (tmp_path / "b" / f"v{CACHE_SCHEMA_VERSION}").glob(f"{tier.prefix}entries-*.jsonl")
    assert shard.read_text() == text
    if name == "code":
        assert cache.store.entries["ctx1|fp1|sig0|avg"] == WcetBreakdown(96.5, 64.0, 24.5, 8.0, 0)
    else:
        result = cache.system_results.get("sys0")
        assert (result.makespan, result.task_cores, result.mhp_allowed["t_a"]) == (
            130.0, {"t_a": 0, "t_b": 1}, ("t_b",)
        )


class TestDiskPersistence(_PersistenceContract):
    tier = CODE_TIER

    def test_roundtrip_across_cache_instances(self, tmp_path):
        first = WcetAnalysisCache.open(tmp_path / "cache")
        cold = _analyze_tasks(first)
        assert first.stats.misses > 0
        assert first.flush() == first.stats.misses
        assert first.flush() == 0  # nothing new: idempotent

        # a fresh instance (fresh platform/IR objects too) must hit disk only
        second = WcetAnalysisCache.open(tmp_path / "cache")
        warm = _analyze_tasks(second)
        assert warm == cold
        assert second.stats.misses == 0
        assert second.stats.disk_hits == len(cold)

    def test_entries_live_under_version_dir(self, tmp_path):
        cache = WcetAnalysisCache.open(tmp_path / "cache")
        _analyze_tasks(cache)
        cache.flush()
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        assert list(vdir.glob("entries*.jsonl"))
        assert list(vdir.glob("stats*.jsonl"))

    def test_read_cache_dir_stats_aggregates(self, tmp_path):
        from repro.wcet.cache import read_cache_dir_stats

        cache_dir = tmp_path / "cache"
        assert read_cache_dir_stats(cache_dir)["entries"] == 0
        first = WcetAnalysisCache.open(cache_dir)
        _analyze_tasks(first)
        first.flush()
        second = WcetAnalysisCache.open(cache_dir)
        _analyze_tasks(second)
        second.flush()
        totals = read_cache_dir_stats(cache_dir)
        assert totals["entries"] == len(first)
        assert totals["misses"] == first.stats.misses
        assert totals["disk_hits"] == second.stats.disk_hits
        assert totals["flushed"] == len(first)

    def test_memos_do_not_pin_analysed_objects(self):
        import gc
        import weakref

        from repro.ir.builder import FunctionBuilder

        fb = FunctionBuilder("ephemeral")
        x = fb.local("x")
        fb.assign(x, 1)
        func = fb.build()
        platform = generic_predictable_multicore(cores=2)
        cache = WcetAnalysisCache()
        cache.function_wcet(func, HardwareCostModel(platform, 0))
        task = Task("t", TaskKind.BLOCK, func.body, writes={"x"})
        cache.footprints.footprint(func, task)
        cache.function_fingerprint(func)
        assert cache.platform_digest(platform) is not None
        ref = weakref.ref(func)
        platform_ref = weakref.ref(platform)
        del func, fb, x, task, platform
        gc.collect()
        # the analysed function must be collectable; its identity memos must
        # go with it so a process-lifetime shared cache cannot leak IR trees
        # (nor platforms)
        assert ref() is None and platform_ref() is None
        assert not cache._function_fps
        assert not cache._region_fps
        assert not cache._declarations
        assert not cache._platform_digests
        assert len(cache) == 1  # the content-addressed entry itself stays
        assert cache.footprints.stats.misses == 1

    def test_shared_cache_honours_env_var(self, tmp_path, monkeypatch):
        from repro.wcet.cache import (
            CACHE_DIR_ENV_VAR,
            CACHE_SCHEMA_VERSION,
            reset_shared_cache,
            shared_cache,
        )

        cache_dir = tmp_path / "shared"
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(cache_dir))
        reset_shared_cache()
        try:
            cache = shared_cache()
            assert cache.cache_dir == cache_dir
            assert shared_cache() is cache
            _analyze_tasks(cache)
        finally:
            reset_shared_cache()  # flushes, then detaches from the env var
        versioned = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        assert list(versioned.glob("entries*.jsonl"))
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        reset_shared_cache()
        assert shared_cache().cache_dir is None


# ---------------------------------------------------------------------- #
# platform digests: golden values, and the former describe-then-dump oracle
# ---------------------------------------------------------------------- #
#: preset -> its platform_signature, computed by the former whole-payload
#: ``json.dumps(description, sort_keys=True)`` implementation
GOLDEN_PLATFORM_DIGESTS = {
    "generic_predictable_multicore()": "cc40ee8ad29859172e71aeaba3be17c5abc16f6a",
    "generic_predictable_multicore(cores=1)": "0bdabe4fcb7cd92335d08f756dc272c26e5cda4b",
    "generic_predictable_multicore(cores=2)": "5e628fbf15b637c7e30d0c74369dd579a4df9276",
    "generic_predictable_multicore(cores=8)": "17b8ec147ded87752905b276d7b5731e732543b5",
    "generic_predictable_multicore(cores=2, spm_kib=1)": "bcac3b9cf2e6d74d95309ab25c6a938988504725",
    "generic_predictable_multicore(cores=4, shared_kib=8)": "118b408d7a95b41a77497a25c30a0b0bc7c174fe",
    "recore_xentium_like()": "7d890a43ac1589ade1efed2de2ab37ddcad584f7",
    "recore_xentium_like(use_tdm_bus=True)": "3f2fbe0be16ad48b266bfe9b9eba13b6d9cee686",
    "recore_xentium_like(dsp_cores=64)": "f34e89419829bf79b8e2b7630fc8b6f302092ae8",
    "recore_xentium_like(dsp_cores=128)": "fdea4fbf866c88ffbb11601d3383d74a9428a87c",
    "kit_leon3_inoc()": "e4f72d06f3fc6dc05b3a2dcdeaa0b8626463b074",
    "kit_leon3_inoc(mesh_width=3, mesh_height=3, cores_per_tile=1)": (
        "c759d306bd47ffef385df27841bdbac632e73128"
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_PLATFORM_DIGESTS))
def test_platform_digests_are_golden(preset):
    from repro.adl import platforms
    from repro.wcet.cache import platform_signature

    platform = eval(preset, vars(platforms))
    assert platform_signature(platform) == GOLDEN_PLATFORM_DIGESTS[preset]


def _reference_description(obj):
    """The former ``_describe_component``: the whole payload, re-described
    at every reference, for ``json.dumps(..., sort_keys=True)``."""
    import enum

    from repro.wcet.cache import _qualified_name

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        described = {"__type__": _qualified_name(type(obj))}
        for field_ in dataclasses.fields(obj):
            described[field_.name] = _reference_description(getattr(obj, field_.name))
        return described
    if isinstance(obj, dict):
        return {str(key): _reference_description(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_description(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{_qualified_name(type(obj))}.{obj.name}"
    raise TypeError(type(obj).__name__)


def test_platform_digest_equals_whole_payload_dump():
    """Components with every scalar spelling the JSON encoder knows
    (non-finite floats, bools, ``None``, non-ASCII text, int and plain
    enums), int dict keys, nested tuples and one object referenced twice
    digest as the former whole-payload dump did."""
    import enum
    import hashlib

    from repro.adl.interconnect import RoundRobinBus
    from repro.wcet.cache import platform_signature

    class Level(enum.IntEnum):
        HIGH = 3

    class Mode(enum.Enum):
        FAST = "fast"

    @dataclasses.dataclass
    class Knobs:
        ratio: float = float("inf")
        floor: float = float("-inf")
        unknown: float = float("nan")
        tiny: float = 1e-300
        flag: bool = True
        off: bool = False
        nothing: None = None
        label: str = "bus é→\"x\"\n"
        level: Level = Level.HIGH
        mode: Mode = Mode.FAST
        table: dict = dataclasses.field(default_factory=lambda: {2: 1.5, 10: (1, [2.0])})

    @dataclasses.dataclass
    class KnobbedBus(RoundRobinBus):
        knobs: Knobs = dataclasses.field(default_factory=Knobs)
        again: Knobs | None = None

    platform = generic_predictable_multicore(cores=3)
    knobs = Knobs()
    platform = dataclasses.replace(platform, interconnect=KnobbedBus(knobs=knobs, again=knobs))
    text = json.dumps(_reference_description(platform), sort_keys=True)
    assert platform_signature(platform) == hashlib.sha1(text.encode()).hexdigest()
