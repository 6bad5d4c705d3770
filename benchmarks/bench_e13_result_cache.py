"""E13: warm-sweep wall clock with the two-tier content-addressed cache.

PRs 1-2 made *code-level* analyses free on repetition, but every repeated
identical (diagram, platform, config) case still re-ran the system-level
fixed point and the scheduler's placement work from scratch.  The
system-level result tier (:class:`repro.wcet.cache.SystemResultCache`,
reached through ``WcetAnalysisCache.system_results``) memoizes the whole
fixed-point outcome on disk, keyed by the mapped-task fingerprints, the
mapping/order, the platform's content digest and the fixed-point knobs.
The platform digest is the same for a fresh process's rebuilt platform, so
the warm pass finds every cold key.

This experiment runs one design-space sweep twice against the same fresh
cache directory, using *fresh cache instances* for the warm pass exactly as
a new process would:

* the warm pass must perform **zero** system-level fixed points -- zero
  result-tier misses and zero solves of the fixed-point kernel, counted by
  ``fixed_point.runs`` so that annealer candidates, which bypass the tier,
  count too -- and zero code-level re-analyses (every case is served from
  the disk tiers),
* its WCET bounds must be bit-identical to the cold pass, and
* its wall clock must beat the cold pass.
"""

import shutil
import tempfile
import time
from pathlib import Path

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e13_result_cache.py
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro import obs
from repro.adl.platforms import generic_predictable_multicore
from repro.core import SweepCase, ToolchainConfig, sweep
from repro.usecases import build_egpws_diagram, build_polka_diagram
from repro.usecases.workloads import random_pipeline_diagram
from repro.utils.tables import Table
from repro.wcet.cache import WcetAnalysisCache, read_cache_dir_stats


def _grid(platform):
    diagrams = [
        build_egpws_diagram(lookahead=16),
        build_polka_diagram(pixels=48),
        random_pipeline_diagram(stages=6, width=3, vector_size=32, seed=3),
    ]
    configs = [
        # the list scheduler runs one fixed point per case ...
        ToolchainConfig(loop_chunks=2, scheduler="wcet_list"),
        ToolchainConfig(loop_chunks=4, scheduler="wcet_list"),
        # ... while simulated annealing solves one per candidate mapping
        # (deterministic under the seed) outside the result tier and keeps
        # one search record, so a warm sweep replays its winner unsolved
        ToolchainConfig(loop_chunks=2, scheduler="simulated_annealing", seed=7),
    ]
    return [
        SweepCase(
            diagram=diagram,
            platform=platform,
            config=config,
            label=f"{config.scheduler}/chunks={config.loop_chunks}",
        )
        for diagram in diagrams
        for config in configs
    ]


def _run_pass(cache_dir: Path, platform):
    """One in-process sweep through a *fresh* cache instance (cold process),
    and the number of fixed points it solved, candidates included."""
    cache = WcetAnalysisCache.open(cache_dir)
    with obs.observed():
        before = obs.metrics_snapshot()
        t0 = time.perf_counter()
        result = sweep(_grid(platform), cache=cache, cache_dir=str(cache_dir))
        seconds = time.perf_counter() - t0
        counters = obs.snapshot_delta(before, obs.metrics_snapshot())["counters"]
    return result, seconds, cache, counters.get("fixed_point.runs", 0)


def _cold_warm():
    platform = generic_predictable_multicore(cores=4)
    cache_dir = Path(tempfile.mkdtemp(prefix="e13-result-cache-"))
    try:
        cold, cold_seconds, cold_cache, cold_solves = _run_pass(cache_dir, platform)
        warm, warm_seconds, warm_cache, warm_solves = _run_pass(cache_dir, platform)
        disk = read_cache_dir_stats(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return (
        cold, cold_seconds, cold_cache, cold_solves,
        warm, warm_seconds, warm_cache, warm_solves, disk,
    )


def test_e13_warm_sweep_result_cache(benchmark):
    (
        cold, cold_seconds, cold_cache, cold_solves,
        warm, warm_seconds, warm_cache, warm_solves, disk,
    ) = benchmark.pedantic(_cold_warm, rounds=1, iterations=1)

    assert cold.ok and warm.ok
    table = Table(
        ["diagram", "config", "WCET bound", "cold s", "warm s"],
        title="E13 warm sweep through the system-level result cache",
    )
    for a, b in zip(cold, warm):
        # the memoized system-level results must be bit-identical
        assert (a.system_wcet, a.sequential_wcet) == (b.system_wcet, b.sequential_wcet)
        table.add_row(
            [
                a.diagram_name,
                a.label,
                a.system_wcet,
                f"{a.seconds:.3f}",
                f"{b.seconds:.3f}",
            ]
        )
    table.add_row(["TOTAL", "", "", f"{cold_seconds:.3f}", f"{warm_seconds:.3f}"])
    emit(table)

    sys_cold = cold_cache.system_results.stats
    sys_warm = warm_cache.system_results.stats
    print(
        f"\nE13: cold {cold_seconds:.3f}s ({sys_cold.misses} result misses, "
        f"{cold_solves} fixed points, {cold_cache.stats.misses} code-level analyses) -> "
        f"warm {warm_seconds:.3f}s ({sys_warm.misses} result misses, "
        f"{warm_solves} fixed points, {warm_cache.stats.misses} code-level analyses), "
        f"speedup {cold_seconds / max(warm_seconds, 1e-9):.1f}x; "
        f"{disk['entries']} code + {disk['system']['entries']} system entries on disk"
    )

    # the cold pass actually ran the fixed points and persisted them (an
    # annealing case misses on its start schedule, its search record and,
    # when a candidate beat the start, its winner; its candidates solve
    # outside the tier)
    assert sys_cold.misses >= len(cold)
    assert cold_solves > sys_cold.misses
    assert disk["system"]["entries"] >= len(cold)
    # acceptance: a warm identical sweep performs ZERO system-level
    # fixed-point iterations -- no result miss and no kernel solve -- and
    # zero code-level re-analyses
    assert sys_warm.misses == 0
    assert warm_solves == 0
    assert sys_warm.disk_hits >= len(warm)
    assert warm_cache.stats.misses == 0
    # and the cache is a wall-clock win, not just a counter win
    assert warm_seconds < cold_seconds, (
        f"warm sweep ({warm_seconds:.3f}s) not faster than cold ({cold_seconds:.3f}s)"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
