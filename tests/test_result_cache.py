"""Tests for the system-level result tier, eviction and incremental runs.

Three reuse mechanisms land here:

* :class:`repro.wcet.cache.SystemResultCache` -- memoized system-level
  fixed-point results (in-memory, cross-instance and cross-process);
* :meth:`repro.wcet.cache.WcetAnalysisCache.evict` -- the size/age-bounded
  eviction policy for shared cache directories;
* incremental runs -- :meth:`repro.core.pipeline.Pipeline.run_incremental`
  runs every stage again; the caches answer what its inputs left
  unchanged.

Everything here shares one correctness bar with the code-level tier: caches
must be observationally invisible (bit-identical results, warm or cold).
"""

import json
from functools import partial

import pytest

from repro.adl.interconnect import RoundRobinBus
from repro.adl.platforms import generic_predictable_multicore
from repro.core import (
    Pipeline,
    SweepCase,
    ToolchainConfig,
    sweep,
)
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.usecases import build_egpws_diagram, build_polka_diagram
from repro.usecases.workloads import synthetic_compiled_model
import repro.wcet.cache as cache_module
from repro.wcet import (
    CACHE_SCHEMA_VERSION,
    HardwareCostModel,
    SystemDesign,
    WcetAnalysisCache,
    platform_signature,
    read_cache_dir_stats,
    shared_cache,
    system_level,
    system_level_wcet,
)

SMALL = dict(loop_chunks=2)


class Bus(RoundRobinBus):
    """A round-robin bus 50 cycles slower per access, under a bare name that
    a class of another scope may share."""

    def worst_case_access_delay(self, contenders: int) -> float:
        return super().worst_case_access_delay(contenders) + 50


def build_mapped_case(cores=4, chunks=2, num_kernels=6, seed=1):
    model = synthetic_compiled_model(num_kernels=num_kernels, vector_size=32, seed=seed)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    order = default_core_order(htg, mapping)
    return model, htg, platform, mapping, order


def analyse(model, htg, platform, mapping, order, cache=None):
    """The system-level analysis through ``cache`` (a fresh one by default)."""
    cache = cache if cache is not None else WcetAnalysisCache()
    return system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)


def result_fingerprint(result):
    return (
        result.makespan,
        {tid: (iv.start, iv.end) for tid, iv in result.task_intervals.items()},
        result.task_cores,
        result.task_effective_wcet,
        result.task_contenders,
        result.interference_cycles,
        result.communication_cycles,
        result.iterations,
        result.converged,
    )


# ---------------------------------------------------------------------- #
# SystemResultCache
# ---------------------------------------------------------------------- #
class TestSystemResultCache:
    def test_warm_lookup_skips_fixed_point_and_is_identical(self):
        model, htg, platform, mapping, order = build_mapped_case()
        plain = analyse(model, htg, platform, mapping, order)
        cache = WcetAnalysisCache()
        cold = analyse(model, htg, platform, mapping, order, cache=cache)
        warm = analyse(model, htg, platform, mapping, order, cache=cache)
        tier = cache.system_results
        assert tier.stats.misses == 1
        assert tier.stats.hits == 1
        assert result_fingerprint(cold) == result_fingerprint(plain)
        assert result_fingerprint(warm) == result_fingerprint(plain)

    def test_hit_returns_fresh_objects(self):
        model, htg, platform, mapping, order = build_mapped_case()
        cache = WcetAnalysisCache()
        first = analyse(model, htg, platform, mapping, order, cache=cache)
        first.task_effective_wcet.clear()  # corrupting a result must not leak
        second = analyse(model, htg, platform, mapping, order, cache=cache)
        assert second.task_effective_wcet

    def test_result_cache_true_means_default_derivation(self):
        """The result tier is always consulted: a second analysis of the same
        point replays the first, and a design without a cache uses the
        process-wide shared cache's tier."""
        model, htg, platform, mapping, order = build_mapped_case()
        cache = WcetAnalysisCache()
        first = analyse(model, htg, platform, mapping, order, cache=cache)
        second = analyse(model, htg, platform, mapping, order, cache=cache)
        assert cache.system_results.stats.hits == 1
        assert result_fingerprint(first) == result_fingerprint(second)
        bare = SystemDesign(htg, model.entry, platform)
        assert bare.cache is shared_cache()
        before = shared_cache().system_results.stats.lookups
        assert result_fingerprint(system_level_wcet(bare, mapping, order)) == (
            result_fingerprint(first)
        )
        assert shared_cache().system_results.stats.lookups == before + 1

    def test_result_cache_false_forces_reanalysis(self):
        """Clearing the result store (what the fixed-point benchmarks do
        before each timed call) makes the next analysis run the fixed point
        again instead of replaying."""
        model, htg, platform, mapping, order = build_mapped_case()
        cache = WcetAnalysisCache()
        first = analyse(model, htg, platform, mapping, order, cache=cache)
        cache.system_results.store.clear()
        result = analyse(model, htg, platform, mapping, order, cache=cache)
        assert cache.system_results.stats.misses == 2
        assert cache.system_results.stats.hits == 0
        assert result_fingerprint(result) == result_fingerprint(first)

    def test_key_sensitivity(self, monkeypatch):
        model, htg, platform, mapping, order = build_mapped_case()
        tier = WcetAnalysisCache().system_results
        design = SystemDesign(htg, model.entry, platform)
        key = tier.result_key(design, mapping, order)
        # a second derivation is stable
        assert key == tier.result_key(design, mapping, order)
        # the iteration cap steers the fixed point, so it must be in the key
        with monkeypatch.context() as patch:
            patch.setattr(system_level, "MAX_ITERATIONS", 3)
            assert key != tier.result_key(design, mapping, order)
        # moving one task to another core must change the key
        moved = dict(mapping)
        tid = next(iter(moved))
        moved[tid] = (moved[tid] + 1) % platform.num_cores
        moved_order = default_core_order(htg, moved)
        assert key != tier.result_key(design, moved, moved_order)

    def test_roundtrip_across_instances(self, tmp_path):
        model, htg, platform, mapping, order = build_mapped_case()
        first = WcetAnalysisCache.open(tmp_path / "cache")
        cold = analyse(model, htg, platform, mapping, order, cache=first)
        assert first.flush() > 0

        # a fresh instance (as a new process would build) must hit disk only
        second = WcetAnalysisCache.open(tmp_path / "cache")
        warm = analyse(model, htg, platform, mapping, order, cache=second)
        tier = second.system_results
        assert tier.stats.misses == 0
        assert tier.stats.disk_hits == 1
        assert second.stats.misses == 0  # code-level analyses skipped too
        assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_cross_process_persistence_via_parallel_sweep(self, tmp_path):
        cache_dir = tmp_path / "cache"
        grid = dict(
            diagrams=[partial(build_polka_diagram, pixels=32)],
            platforms=[partial(generic_predictable_multicore, cores=2)],
            configs=[ToolchainConfig(**SMALL), ToolchainConfig(loop_chunks=4)],
        )
        cold = sweep(**grid, max_workers=2, cache_dir=str(cache_dir))
        assert cold.ok
        disk = read_cache_dir_stats(cache_dir)
        assert disk["system"]["entries"] >= len(cold)

        # warm in-process pass over the worker-populated directory: zero
        # fixed points, zero code-level re-analyses, identical bounds
        cache = WcetAnalysisCache.open(cache_dir)
        warm = sweep(**grid, cache=cache)
        assert warm.ok
        assert cache.system_results.stats.misses == 0
        assert cache.stats.misses == 0
        assert [(o.system_wcet, o.sequential_wcet) for o in warm] == [
            (o.system_wcet, o.sequential_wcet) for o in cold
        ]

    def test_lru_bound_caps_memory(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_SYSTEM_RESULTS", 2)
        tier = WcetAnalysisCache().system_results
        model, htg, platform, mapping, order = build_mapped_case(cores=2)
        result = analyse(model, htg, platform, mapping, order)
        for i in range(5):
            tier.put(f"key{i}", result)
        assert len(tier) == 2
        assert tier.get("key4") is not None
        assert tier.get("key0") is None  # evicted from memory

    def test_own_shard_buffer_is_bounded_too(self, tmp_path, monkeypatch):
        """Repeated flushes of a long-lived instance must not accrete
        result lines without bound: the own shard obeys the LRU bound."""
        monkeypatch.setattr(cache_module, "MAX_SYSTEM_RESULTS", 2)
        model, htg, platform, mapping, order = build_mapped_case(cores=2)
        result = analyse(model, htg, platform, mapping, order)
        cache = WcetAnalysisCache.open(tmp_path / "cache")
        for round_ in range(3):
            cache.system_results.put(f"key{2 * round_}", result)
            cache.system_results.put(f"key{2 * round_ + 1}", result)
            cache.flush()
        shards = list((tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}").glob("sys-entries*.jsonl"))
        assert len(shards) == 1
        assert len(shards[0].read_text().splitlines()) == 2

    def test_load_keeps_the_bound_and_the_newest_results(self, tmp_path, monkeypatch):
        """Each writer bounds only its own shard, so a directory written by
        several processes holds more results than one tier may keep: loading
        it must apply the bound, keeping the newest shards' results."""
        import os

        monkeypatch.setattr(cache_module, "MAX_SYSTEM_RESULTS", 2)
        model, htg, platform, mapping, order = build_mapped_case(cores=2)
        result = analyse(model, htg, platform, mapping, order)
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        for writer in range(3):
            before = set(vdir.glob("sys-entries*.jsonl"))
            cache = WcetAnalysisCache.open(tmp_path / "cache")
            cache.system_results.put(f"w{writer}a", result)
            cache.system_results.put(f"w{writer}b", result)
            cache.flush()
            # distinct mtimes, oldest writer first, whatever the clock grain
            (shard,) = set(vdir.glob("sys-entries*.jsonl")) - before
            os.utime(shard, (1000 * (writer + 1), 1000 * (writer + 1)))
        assert read_cache_dir_stats(tmp_path / "cache")["system"]["entries"] == 6
        tier = WcetAnalysisCache.open(tmp_path / "cache").system_results
        assert len(tier) == 2
        assert tier.get("w2a") is not None and tier.get("w2b") is not None
        assert tier.stats.disk_hits == 2

    def test_malformed_disk_records_are_skipped(self, tmp_path):
        cache_dir = tmp_path / "cache"
        vdir = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        vdir.mkdir(parents=True)
        good = {
            "key": "good",
            "makespan": 1.0,
            "iterations": 1,
            "converged": True,
            "interference": 0.0,
            "communication": 0.0,
            "tasks": {"t": [0.0, 1.0, 1.0, 0, 1.0, 0]},
            "cores": {"t": 0},
        }
        lines = [
            json.dumps(good),
            '{"key": "torn", "makespan"',
            '{"key": "wrong", "makespan": "x", "tasks": {}, "cores": {}}',
        ]
        (vdir / "sys-entries-legacy.jsonl").write_text("\n".join(lines) + "\n")
        tier = WcetAnalysisCache.open(cache_dir).system_results
        assert len(tier) == 1
        assert tier.get("good").makespan == 1.0


# ---------------------------------------------------------------------- #
# eviction policy
# ---------------------------------------------------------------------- #
class TestEviction:
    def _populated(self, tmp_path, **case_kwargs):
        cache = WcetAnalysisCache.open(tmp_path / "cache")
        model, htg, platform, mapping, order = build_mapped_case(**case_kwargs)
        analyse(model, htg, platform, mapping, order, cache=cache)
        cache.flush()
        return cache

    def test_requires_disk_backing(self):
        with pytest.raises(ValueError, match="disk-backed"):
            WcetAnalysisCache().evict(max_entries=1)

    def test_entry_count_bound(self, tmp_path):
        cache = self._populated(tmp_path)
        total = read_cache_dir_stats(tmp_path / "cache")
        on_disk = total["entries"] + total["system"]["entries"]
        assert on_disk > 4
        report = cache.evict(max_entries=4)
        assert report["kept"] == 4
        assert report["evicted"] == on_disk - 4
        after = read_cache_dir_stats(tmp_path / "cache")
        assert after["entries"] + after["system"]["entries"] == 4

    def test_byte_bound(self, tmp_path):
        cache = self._populated(tmp_path)
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"

        def entry_bytes():
            return sum(
                p.stat().st_size
                for p in list(vdir.glob("entries*.jsonl")) + list(vdir.glob("sys-entries*.jsonl"))
            )

        assert entry_bytes() > 2000
        report = cache.evict(max_bytes=2000)
        assert report["kept_bytes"] <= 2000
        assert entry_bytes() <= 2000

    def test_bounded_eviction_does_not_starve_the_system_tier(self, tmp_path):
        """Both tiers are flushed moments apart; a byte/entry bound must not
        systematically discard the system results (each of which replaces an
        entire fixed point) in favour of the newer-by-milliseconds code
        shard."""
        self._populated(tmp_path)
        sys_before = read_cache_dir_stats(tmp_path / "cache")["system"]["entries"]
        assert sys_before > 0
        # a bystander instance (nothing hot) under a tight entry bound
        bystander = WcetAnalysisCache.open(tmp_path / "cache")
        bystander.evict(max_entries=sys_before + 2)
        after = read_cache_dir_stats(tmp_path / "cache")
        assert after["system"]["entries"] == sys_before
        assert after["entries"] == 2

    def test_byte_bound_cutoff_is_rank_monotonic(self, tmp_path):
        """Once the byte budget refuses an entry, no lower-ranked entry may
        be kept: packing small cold entries around a dropped big hot/new
        one would violate the 'just-used entries survive first' promise."""
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        vdir.mkdir(parents=True)
        lines = []
        for key in ("a", "b", "c", "d", "e"):
            record = {"key": key, "total": 1.0, "compute": 1.0, "memory": 0.0,
                      "control": 0.0, "shared_accesses": 0}
            if key == "c":  # oversized entry in the middle of the rank order
                record["padding"] = "x" * 600
            lines.append(json.dumps(record))
        (vdir / "entries-seed.jsonl").write_text("\n".join(lines) + "\n")
        cache = WcetAnalysisCache.open(tmp_path / "cache")
        small = len(lines[0].encode()) + 1
        # fits a+b with room to spare for d and e, but not for the big c
        report = cache.evict(max_bytes=4 * small)
        assert report["kept"] == 2
        survivors = set()
        for path in vdir.glob("entries*.jsonl"):
            for line in path.read_text().splitlines():
                survivors.add(json.loads(line)["key"])
        # d and e would have fit, but rank monotonicity forbids keeping them
        assert survivors == {"a", "b"}

    def test_other_schema_versions_untouched(self, tmp_path):
        cache = self._populated(tmp_path)
        foreign = tmp_path / "cache" / "v0"
        foreign.mkdir()
        (foreign / "entries.jsonl").write_text('{"key":"old","total":1}\n')
        cache.evict(max_entries=1)
        assert (foreign / "entries.jsonl").read_text() == '{"key":"old","total":1}\n'

    def test_just_used_entries_survive(self, tmp_path):
        import os
        import time as time_module

        cache_dir = tmp_path / "cache"
        # an old shard full of foreign entries, aged well into the past
        vdir = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
        vdir.mkdir(parents=True)
        stale = vdir / "entries-stale.jsonl"
        stale.write_text(
            "\n".join(
                json.dumps(
                    {"key": f"stale{i}", "total": 1.0, "compute": 1.0, "memory": 0.0,
                     "control": 0.0, "shared_accesses": 0}
                )
                for i in range(50)
            )
            + "\n"
        )
        old = time_module.time() - 3600
        os.utime(stale, (old, old))

        cache = WcetAnalysisCache.open(cache_dir)
        model, htg, platform, mapping, order = build_mapped_case(cores=2)
        live = analyse(model, htg, platform, mapping, order, cache=cache)
        used = cache.stats.misses
        report = cache.evict(max_entries=used + 1)  # room for code tier + 1 result
        assert report["kept"] == used + 1
        # everything this process just used survived; only stale keys went
        survivors = set()
        for path in vdir.glob("entries*.jsonl"):
            for line in path.read_text().splitlines():
                survivors.add(json.loads(line)["key"])
        assert not any(key.startswith("stale") for key in survivors)
        # ... and a fresh instance still serves the live result from disk
        fresh = WcetAnalysisCache.open(cache_dir)
        warm = analyse(model, htg, platform, mapping, order, cache=fresh)
        assert fresh.system_results.stats.disk_hits == 1
        assert result_fingerprint(warm) == result_fingerprint(live)

    def test_concurrent_evict_cannot_lose_a_live_writers_entries(self, tmp_path):
        """An evictor deletes every shard it does not own; a live writer
        must restore its own flushed entries on the next flush instead of
        believing they are still persisted."""
        writer = self._populated(tmp_path)
        flushed = len(writer)
        # a second process evicts everything while the writer is still alive
        bystander = WcetAnalysisCache.open(tmp_path / "cache")
        bystander.evict(max_entries=0)
        totals = read_cache_dir_stats(tmp_path / "cache")
        assert totals["entries"] == 0 and totals["system"]["entries"] == 0
        # the writer's next flush self-heals its own shard
        writer.flush()
        totals = read_cache_dir_stats(tmp_path / "cache")
        assert totals["entries"] == flushed
        assert totals["system"]["entries"] == 1

    def test_age_bound_drops_only_unused_entries(self, tmp_path):
        import os
        import time as time_module

        cache = self._populated(tmp_path)
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        for path in vdir.glob("*.jsonl"):
            old = time_module.time() - 7 * 86400
            os.utime(path, (old, old))
        # the owning instance used every entry, so age alone evicts nothing
        report = cache.evict(max_age_seconds=86400)
        assert report["evicted"] == 0
        # a bystander instance that never used them loses the aged entries
        bystander = WcetAnalysisCache.open(tmp_path / "cache")
        for path in vdir.glob("*.jsonl"):
            old = time_module.time() - 7 * 86400
            os.utime(path, (old, old))
        report = bystander.evict(max_age_seconds=86400)
        assert report["kept"] == 0
        assert read_cache_dir_stats(tmp_path / "cache")["entries"] == 0


# ---------------------------------------------------------------------- #
# incremental runs over a warm cache: what a changed input invalidates
# ---------------------------------------------------------------------- #
def _assert_same_schedule(result, cold):
    assert result.system_wcet == cold.system_wcet
    assert result.sequential_wcet == cold.sequential_wcet
    assert result.schedule.mapping == cold.schedule.mapping
    assert result.schedule.order == cold.schedule.order
    assert result.schedule.result.task_intervals == cold.schedule.result.task_intervals


class TestStageArtifactCache:
    """Every stage of an incremental run runs; the caches answer what its
    inputs left unchanged, and a changed input never serves a stale
    artifact."""

    @pytest.fixture()
    def platform(self):
        return generic_predictable_multicore(cores=4)

    def test_identical_runs_hit_and_match(self, platform):
        pipeline = Pipeline(platform, ToolchainConfig(**SMALL))
        first = pipeline.run(build_polka_diagram(pixels=32))
        fixed_points = pipeline.wcet_cache.system_results.stats.misses
        second = pipeline.run_incremental(first, build_polka_diagram(pixels=32))
        assert [r.name for r in second.stage_records] == [
            "frontend", "transforms", "htg", "schedule", "parallel", "wcet", "certify",
        ]
        # every code-level analysis and the fixed point are cache hits
        assert second.cache_stats["misses"] == 0
        assert pipeline.wcet_cache.system_results.stats.misses == fixed_points
        assert second.artifacts["incremental_report"].regions_recomputed == 0
        _assert_same_schedule(second, first)

    def test_config_change_invalidates(self, platform):
        first = Pipeline(platform, ToolchainConfig(**SMALL)).run(
            build_polka_diagram(pixels=32)
        )
        config = ToolchainConfig(loop_chunks=2, scheduler="sequential")
        changed = Pipeline(platform, config).run_incremental(
            first, build_polka_diagram(pixels=32)
        )
        assert set(changed.schedule.mapping.values()) == {0}
        cold = Pipeline(platform, config, WcetAnalysisCache()).run(
            build_polka_diagram(pixels=32)
        )
        _assert_same_schedule(changed, cold)

    def test_platform_change_invalidates(self, platform):
        first = Pipeline(platform, ToolchainConfig(**SMALL)).run(
            build_polka_diagram(pixels=32)
        )
        other = generic_predictable_multicore(cores=4, shared_latency=16)
        changed = Pipeline(other, ToolchainConfig(**SMALL)).run_incremental(
            first, build_polka_diagram(pixels=32)
        )
        # extraction reads no platform: every region keeps its decomposition
        report = changed.artifacts["incremental_report"]
        assert report.stages["htg"] == "incremental"
        assert report.regions_reused == len(first.model.block_regions)
        assert report.regions_recomputed == 0
        cold = Pipeline(
            generic_predictable_multicore(cores=4, shared_latency=16),
            ToolchainConfig(**SMALL),
            WcetAnalysisCache(),
        ).run(build_polka_diagram(pixels=32))
        _assert_same_schedule(changed, cold)

    def test_diagram_change_invalidates(self, platform):
        # decompositions are memoized per cache, so the run needs a cache
        # that has never seen egpws for none of its regions to be reused
        cache = WcetAnalysisCache()
        first = Pipeline(platform, ToolchainConfig(**SMALL), cache).run(
            build_polka_diagram(pixels=32)
        )
        changed = Pipeline(platform, ToolchainConfig(**SMALL), cache).run_incremental(
            first, build_egpws_diagram()
        )
        assert changed.diagram_name == "egpws"
        assert changed.artifacts["incremental_report"].regions_reused == 0
        cold = Pipeline(platform, ToolchainConfig(**SMALL), WcetAnalysisCache()).run(
            build_egpws_diagram()
        )
        _assert_same_schedule(changed, cold)

    def test_platform_signature_distinguishes_component_subclasses(self):
        """A behaviour-overriding subclass with unchanged dataclass fields
        must never digest identically to the base component."""
        from repro.adl.processor import ProcessorModel

        class TweakedProcessor(ProcessorModel):
            def cycles_for_op(self, op: str) -> float:  # pragma: no cover
                return 999.0

        stock = generic_predictable_multicore(cores=2)
        tweaked = generic_predictable_multicore(cores=2)
        base_proc = tweaked.cores[0].processor
        import dataclasses as dc

        tweaked.cores[0].processor = TweakedProcessor(
            **{f.name: getattr(base_proc, f.name) for f in dc.fields(base_proc)}
        )
        assert platform_signature(stock) is not None
        assert platform_signature(stock) != platform_signature(tweaked)
        # identical content still digests identically across rebuilds
        assert platform_signature(stock) == platform_signature(
            generic_predictable_multicore(cores=2)
        )

        # two dataclass subclasses named Bus, of different scopes, 50 cycles
        # apart per access: their equal fields must not digest alike
        def local_bus():
            class Bus(RoundRobinBus):
                """The module-level Bus's bare name, the base's delays."""

            return Bus()

        on_module_bus = dc.replace(stock, interconnect=Bus())
        on_local_bus = dc.replace(stock, interconnect=local_bus())
        assert type(on_local_bus.interconnect).__name__ == "Bus"
        assert platform_signature(on_local_bus) != platform_signature(on_module_bus)
        assert platform_signature(stock) not in (
            platform_signature(on_local_bus), platform_signature(on_module_bus)
        )

    def test_wcet_stage_key_pins_the_consumed_schedule(self, platform):
        """Another scheduler runs on an incremental run of the default
        pipeline's result, and the wcet stage describes the schedule it
        produced, not the previous one."""
        from repro.scheduling import evaluate_mapping
        from repro.scheduling.registry import register_scheduler, unregister_scheduler

        @register_scheduler("all_on_core0")
        def all_on_core0(design, config):
            mapping = {tid: 0 for tid in design.leaf_ids}
            return evaluate_mapping(design, mapping, scheduler="all_on_core0")

        try:
            first = Pipeline(platform, ToolchainConfig(**SMALL)).run(
                build_polka_diagram(pixels=32)
            )
            custom = Pipeline(platform, ToolchainConfig(scheduler="all_on_core0", **SMALL))
            second = custom.run_incremental(first, build_polka_diagram(pixels=32))
            cold = custom.run(build_polka_diagram(pixels=32))
        finally:
            unregister_scheduler("all_on_core0")
        assert set(second.schedule.mapping.values()) == {0}
        assert second.system_wcet == cold.system_wcet != first.system_wcet
        # the wcet stage's diagnostics describe the *new* schedule
        assert second.stage("wcet").info["system_wcet"] == second.system_wcet
        assert second.sequential_wcet == cold.sequential_wcet

    def test_reregistered_scheduler_invalidates_schedule_stage(self, platform):
        """The registry supports replace=True; an incremental run must use
        the implementation behind the name now, not the previous one."""
        from repro.scheduling import evaluate_mapping
        from repro.scheduling.registry import register_scheduler, unregister_scheduler

        def fixed_core(core):
            def build(design, config):
                mapping = {tid: core for tid in design.leaf_ids}
                return evaluate_mapping(design, mapping, scheduler="swap_test")

            return build

        register_scheduler("swap_test")(fixed_core(0))
        try:
            config = ToolchainConfig(loop_chunks=2, scheduler="swap_test")
            first = Pipeline(platform, config).run(build_polka_diagram(pixels=32))
            assert set(first.schedule.mapping.values()) == {0}
            register_scheduler("swap_test", replace=True)(fixed_core(1))
            second = Pipeline(platform, config).run_incremental(
                first, build_polka_diagram(pixels=32)
            )
            # the new implementation must actually run
            assert set(second.schedule.mapping.values()) == {1}

            # unregister first, so the old callable is freed and CPython
            # may hand its address to the replacement
            import gc

            unregister_scheduler("swap_test")
            gc.collect()
            register_scheduler("swap_test")(fixed_core(2))
            third = Pipeline(platform, config).run_incremental(
                second, build_polka_diagram(pixels=32)
            )
            assert set(third.schedule.mapping.values()) == {2}
        finally:
            unregister_scheduler("swap_test")

    def test_uncacheable_platform_is_skipped_not_cached(self, platform):
        from repro.adl.interconnect import Interconnect

        class CustomBus(Interconnect):  # not a dataclass: cannot introspect
            name = "custom_bus"

            def worst_case_access_delay(self, contenders: int) -> float:
                return 1.0 + contenders

        custom = generic_predictable_multicore(cores=2)
        # platform_signature must refuse a fabric it cannot fingerprint
        custom.interconnect = CustomBus()
        assert platform_signature(custom) is None
        pipeline = Pipeline(custom, ToolchainConfig(**SMALL))
        a = pipeline.run(build_polka_diagram(pixels=32))
        b = pipeline.run_incremental(a, build_polka_diagram(pixels=32))
        # extraction reads no platform, so an unfingerprintable one still
        # reuses every region's decomposition
        report = b.artifacts["incremental_report"]
        assert report.stages["htg"] == "incremental"
        assert report.regions_reused == len(a.model.block_regions)
        assert report.regions_recomputed == 0
        _assert_same_schedule(b, a)


# ---------------------------------------------------------------------- #
# sweep cache plumbing (satellite bugfixes)
# ---------------------------------------------------------------------- #
class TestSweepCachePlumbing:
    @pytest.fixture()
    def platform(self):
        return generic_predictable_multicore(cores=4)

    def _case(self, platform, **config_kwargs):
        return SweepCase(
            diagram=build_polka_diagram(pixels=32),
            platform=platform,
            config=ToolchainConfig(**{**SMALL, **config_kwargs}),
        )

    def test_explicit_cache_with_cache_dir_persists(self, tmp_path, platform):
        cache = WcetAnalysisCache()
        result = sweep([self._case(platform)], cache=cache, cache_dir=str(tmp_path / "c"))
        assert result.ok
        assert cache.cache_dir == tmp_path / "c"
        disk = read_cache_dir_stats(tmp_path / "c")
        assert disk["entries"] == cache.stats.misses > 0
        assert disk["system"]["entries"] > 0
        # and a later sweep with a fresh explicit cache is served from disk
        fresh = WcetAnalysisCache()
        warm = sweep([self._case(platform)], cache=fresh, cache_dir=str(tmp_path / "c"))
        assert warm.ok
        assert fresh.stats.misses == 0
        assert fresh.system_results.stats.misses == 0

    def test_explicit_cache_without_cache_dir_stays_memory_only(self, platform):
        cache = WcetAnalysisCache()
        result = sweep([self._case(platform)], cache=cache)
        assert result.ok
        assert cache.cache_dir is None

    @pytest.mark.parametrize("cases", [1, 2])
    def test_parallel_validation_independent_of_case_count(self, platform, cases):
        case_list = [self._case(platform) for _ in range(cases)]
        with pytest.raises(ValueError, match="keep_results"):
            sweep(case_list, max_workers=2, keep_results=True)
        with pytest.raises(ValueError, match="in-memory cache"):
            sweep(case_list, max_workers=2, cache=WcetAnalysisCache())

    def test_outcome_dicts_are_copies_and_serialized(self, platform):
        result = sweep([self._case(platform)], keep_results=True)
        outcome = result[0]
        assert outcome.stage_seconds  # populated from the pipeline timings
        pipeline_result = outcome.result
        outcome.stage_seconds["schedule"] = -1.0
        outcome.cache_stats["misses"] = -1
        assert pipeline_result.timings["schedule"] >= 0
        assert pipeline_result.cache_stats["misses"] >= 0
        record = outcome.as_dict()
        assert record["stage_seconds"] == outcome.stage_seconds
        assert record["cache_stats"] == outcome.cache_stats
        assert record["stage_seconds"] is not outcome.stage_seconds
        json.dumps(record)  # tabular records must stay JSON-serializable


# ---------------------------------------------------------------------- #
# maintenance CLI
# ---------------------------------------------------------------------- #
class TestCacheCli:
    def test_stats_and_evict_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        cache = WcetAnalysisCache.open(tmp_path / "cache")
        model, htg, platform, mapping, order = build_mapped_case(cores=2)
        analyse(model, htg, platform, mapping, order, cache=cache)
        cache.flush()
        assert main(["cache", "stats", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "fixed points run" in out
        assert main(["cache", "evict", str(tmp_path / "cache"), "--max-entries", "3"]) == 0
        totals = read_cache_dir_stats(tmp_path / "cache")
        assert totals["entries"] + totals["system"]["entries"] == 3

    def test_evict_refuses_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "no-such-cache"
        assert main(["cache", "evict", str(missing), "--max-entries", "1"]) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not missing.exists()  # and it must not be created as a side effect

    def test_stats_refuses_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "no-such-cache"
        assert main(["cache", "stats", str(missing)]) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not missing.exists()

    def test_evict_requires_a_bound(self, tmp_path):
        from repro.cli import main

        assert main(["cache", "evict", str(tmp_path)]) == 2
