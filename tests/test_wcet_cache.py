"""Regression tests for the memoized WCET analysis layer.

The cache must be *observationally invisible*: cached and uncached analyses
have to produce byte-identical schedules and WCET bounds on every use case,
and repeated scheduling runs must be deterministic.
"""

import pytest

from repro.adl.platforms import generic_predictable_multicore
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
    WcetAnalysisCache,
    analyze_function_wcet,
    analyze_task_wcet,
    annotate_htg_wcets,
    system_level_wcet,
)
from repro.wcet.code_level import statement_wcet

USECASES = ["egpws", "polka", "weaa", "workloads"]


def build_case(usecase, cores=4, chunks=2):
    if usecase == "workloads":
        model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=1)
    else:
        builder, _ = ALL_USECASES[usecase]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
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
        plain = system_level_wcet(htg, model.entry, platform, mapping, order)
        cached = system_level_wcet(
            htg, model.entry, platform, mapping, order, cache=WcetAnalysisCache()
        )
        assert cached.makespan == plain.makespan
        assert cached.task_effective_wcet == plain.task_effective_wcet
        assert cached.task_intervals == plain.task_intervals
        assert cached.task_contenders == plain.task_contenders
        assert cached.interference_cycles == plain.interference_cycles
        assert cached.communication_cycles == plain.communication_cycles

    def test_schedules_identical_across_caches(self, usecase):
        model, htg, platform = build_case(usecase)
        private = WcetAwareListScheduler(platform=platform).schedule(htg, model.entry)
        shared_cache = WcetAnalysisCache()
        shared = WcetAwareListScheduler(platform=platform, cache=shared_cache).schedule(
            htg, model.entry
        )
        # a third run reusing the now-warm shared cache
        warm = WcetAwareListScheduler(platform=platform, cache=shared_cache).schedule(
            htg, model.entry
        )
        assert schedule_fingerprint(shared) == schedule_fingerprint(private)
        assert schedule_fingerprint(warm) == schedule_fingerprint(private)
        assert shared_cache.stats.hits > 0

    def test_annotation_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        plain = {t.task_id: (t.wcet, t.acet) for t in htg.leaf_tasks()}
        annotate_htg_wcets(
            htg, model.entry, HardwareCostModel(platform, 0), cache=WcetAnalysisCache()
        )
        cached = {t.task_id: (t.wcet, t.acet) for t in htg.leaf_tasks()}
        assert cached == plain


class TestDeterminism:
    @pytest.mark.parametrize("usecase", USECASES)
    def test_two_schedule_runs_identical(self, usecase):
        model, htg, platform = build_case(usecase)
        first = WcetAwareListScheduler(platform=platform).schedule(htg, model.entry)
        second = WcetAwareListScheduler(platform=platform).schedule(htg, model.entry)
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

    def test_invalidate_function_after_mutation(self):
        func = self._small_function()
        platform = generic_predictable_multicore(cores=2)
        model_cost = HardwareCostModel(platform, 0)
        cache = WcetAnalysisCache()
        before = analyze_function_wcet(func, model_cost, cache=cache).total
        # mutate the IR in place: duplicate the loop statement
        func.body.stmts.append(func.body.stmts[-1])
        cache.invalidate_function(func)
        after = analyze_function_wcet(func, model_cost, cache=cache).total
        assert after > before
        assert after == analyze_function_wcet(func, model_cost).total

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

    def test_storage_change_in_place_rekeys_only_referencing_regions(self):
        func, regions = self._two_array_function()
        model_cost = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
        cache = WcetAnalysisCache()
        before = [cache.entry_key(r, func, model_cost) for r in regions]
        shared_a = cache.region_wcet(regions[0], func, model_cost)
        func.lookup("a").storage = Storage.SCRATCHPAD
        cache.invalidate_function(func)
        after = [cache.entry_key(r, func, model_cost) for r in regions]
        assert after[0] != before[0]
        assert after[1] == before[1]
        for region in regions:
            assert cache.region_wcet(region, func, model_cost) == statement_wcet(
                region, func, model_cost
            )
        assert cache.region_wcet(regions[0], func, model_cost).total < shared_a.total

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
        assert len(cache) == 1
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


class TestDiskPersistence:
    def _analyze_all(self, cache):
        model, htg, platform = build_case("workloads")
        totals = {}
        for task in htg.leaf_tasks():
            breakdown = analyze_task_wcet(
                task, model.entry, HardwareCostModel(platform, 0), cache=cache
            )
            totals[task.task_id] = (
                breakdown.total,
                breakdown.compute,
                breakdown.memory,
                breakdown.control,
                breakdown.shared_accesses,
            )
        return totals

    def test_roundtrip_across_cache_instances(self, tmp_path):
        first = WcetAnalysisCache.open(tmp_path / "cache")
        cold = self._analyze_all(first)
        assert first.stats.misses > 0
        assert first.flush() == first.stats.misses
        assert first.flush() == 0  # nothing new: idempotent

        # a fresh instance (fresh platform/IR objects too) must hit disk only
        second = WcetAnalysisCache.open(tmp_path / "cache")
        warm = self._analyze_all(second)
        assert warm == cold
        assert second.stats.misses == 0
        assert second.stats.disk_hits == len(cold)

    def test_repeat_lookups_of_loaded_entries_count_as_hits(self, tmp_path):
        """Pinned semantics: ``disk_hits`` counts the *first* use of each
        loaded entry only; every repeat lookup is an in-process ``hit``, so
        hot entries cannot inflate the disk-hit rate."""
        first = WcetAnalysisCache.open(tmp_path / "cache")
        cold = self._analyze_all(first)
        first.flush()
        second = WcetAnalysisCache.open(tmp_path / "cache")
        self._analyze_all(second)
        assert second.stats.disk_hits == len(cold)
        assert second.stats.hits == 0
        # the same lookups again: served from memory, not "from disk"
        self._analyze_all(second)
        assert second.stats.disk_hits == len(cold)
        assert second.stats.hits == len(cold)
        assert second.stats.misses == 0

    def test_entries_live_under_version_dir(self, tmp_path):
        from repro.wcet.cache import CACHE_SCHEMA_VERSION

        cache = WcetAnalysisCache.open(tmp_path / "cache")
        self._analyze_all(cache)
        cache.flush()
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        assert list(vdir.glob("entries*.jsonl"))
        assert list(vdir.glob("stats*.jsonl"))

    def test_foreign_versions_and_torn_lines_are_ignored(self, tmp_path):
        from repro.wcet.cache import CACHE_SCHEMA_VERSION

        cache_dir = tmp_path / "cache"
        # stale schema version: must not be read
        (cache_dir / "v0").mkdir(parents=True)
        (cache_dir / "v0" / "entries.jsonl").write_text('{"key":"stale","total":1}\n')
        cache = WcetAnalysisCache.open(cache_dir)
        assert len(cache) == 0
        self._analyze_all(cache)
        cache.flush()
        # a torn line in any shard must not break loading (the legacy
        # append-only entries.jsonl is still read as a shard)
        legacy = cache_dir / f"v{CACHE_SCHEMA_VERSION}" / "entries.jsonl"
        with legacy.open("a") as fh:
            fh.write('{"key": "torn", "tot')
        reloaded = WcetAnalysisCache.open(cache_dir)
        assert len(reloaded) == len(cache)

    def test_read_cache_dir_stats_aggregates(self, tmp_path):
        from repro.wcet.cache import read_cache_dir_stats

        cache_dir = tmp_path / "cache"
        assert read_cache_dir_stats(cache_dir)["entries"] == 0
        first = WcetAnalysisCache.open(cache_dir)
        self._analyze_all(first)
        first.flush()
        second = WcetAnalysisCache.open(cache_dir)
        self._analyze_all(second)
        second.flush()
        totals = read_cache_dir_stats(cache_dir)
        assert totals["entries"] == len(first)
        assert totals["misses"] == first.stats.misses
        assert totals["disk_hits"] == second.stats.disk_hits
        assert totals["flushed"] == len(first)

    def test_two_instances_flush_to_disjoint_shards(self, tmp_path):
        """Concurrent flushers own private shard files; load merges them."""
        from repro.wcet.cache import CACHE_SCHEMA_VERSION

        cache_dir = tmp_path / "cache"
        first = WcetAnalysisCache.open(cache_dir)
        second = WcetAnalysisCache.open(cache_dir)
        self._analyze_all(first)
        # second analyses a different platform -> different cost signature
        model, htg, _ = build_case("workloads")
        platform = generic_predictable_multicore(cores=2, shared_latency=16)
        for task in htg.leaf_tasks():
            analyze_task_wcet(task, model.entry, HardwareCostModel(platform, 0), cache=second)
        first.flush()
        second.flush()
        vdir = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        shards = list(vdir.glob("entries-*.jsonl"))
        assert len(shards) == 2  # one private shard per flushing instance
        # repeated flushes rewrite in place instead of growing new files
        self._analyze_all(second)
        second.flush()
        assert len(list(vdir.glob("entries-*.jsonl"))) == 2
        assert not list(vdir.glob("*.tmp"))  # tempfiles are always replaced
        merged = WcetAnalysisCache.open(cache_dir)
        assert len(merged) == len(first) + len(second) - len(
            set(first._entries) & set(second._entries)
        )

    def test_reattach_flushes_everything_to_new_dir(self, tmp_path):
        cache = WcetAnalysisCache.open(tmp_path / "a")
        self._analyze_all(cache)
        cache.flush()
        entry_count = len(cache)
        # switching directories must make every in-memory entry flushable
        # again, so the new directory gets a complete copy
        cache.load(tmp_path / "b")
        assert cache.flush() == entry_count
        assert len(WcetAnalysisCache.open(tmp_path / "b")) == entry_count

    def test_noop_flush_does_not_touch_disk(self, tmp_path):
        cache = WcetAnalysisCache()
        cache.load(tmp_path / "cache")
        import shutil

        shutil.rmtree(tmp_path / "cache")
        assert cache.flush() == 0  # nothing to write: directory not recreated
        assert not (tmp_path / "cache").exists()

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
        ref = weakref.ref(func)
        del func, fb, x, task
        gc.collect()
        # the analysed function must be collectable; its identity memos must
        # go with it so a process-lifetime shared cache cannot leak IR trees
        assert ref() is None
        assert not cache._function_fps
        assert not cache._region_fps
        assert not cache._declarations
        assert len(cache) == 1  # the content-addressed entry itself stays
        assert cache.footprints.misses == 1

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
            self._analyze_all(cache)
        finally:
            reset_shared_cache()  # flushes, then detaches from the env var
        versioned = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        assert list(versioned.glob("entries*.jsonl"))
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        reset_shared_cache()
        assert shared_cache().cache_dir is None
