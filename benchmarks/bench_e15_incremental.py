"""E15: incremental re-analysis wall clock for single-task edits.

The incremental engine (:meth:`repro.core.pipeline.Pipeline.run_incremental`)
runs every stage, each reusing the previous run through ``context.prev``
where its inputs are unchanged: one edited block is lowered again, its
region alone is transformed and re-extracted, and the race check re-scans
only pairs with a changed endpoint.  The other stages re-run on warm
caches; the interference fixed point of the re-run schedule starts cold.

This experiment takes an E11-scale workload (a ~900-task random layered
diagram at loop granularity), edits a single block parameter, and compares

* a **cold** run -- fresh pipeline, fresh :class:`WcetAnalysisCache`,
  exactly what a new process would pay -- against
* an **incremental** run reusing the previous result.

Each side is measured best-of-``ROUNDS`` with a different edited block per
round (so the incremental side never re-times work its own previous round
cached), with the collector paused during the timed sections to keep GC
pauses of the large heap out of the comparison.

Acceptance: the incremental run is **>= 1.8x** faster, lowers exactly one
block and transforms and re-analyses exactly one region (the measure of
the incremental work itself), reuses race-check pairs, and its bounds /
mapping / order / per-task intervals are bit-identical to a cold run of
the edited diagram.
"""

import gc
import time
from pathlib import Path

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e15_incremental.py
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.core import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.usecases.workloads import edit_block_param, random_pipeline_diagram
from repro.utils.tables import Table
from repro.wcet.cache import WcetAnalysisCache

STAGES = 24
WIDTH = 8
VECTOR_SIZE = 48
SEED = 42
ROUNDS = 3
TARGET_SPEEDUP = 1.8


def _diagram():
    return random_pipeline_diagram(
        stages=STAGES, width=WIDTH, vector_size=VECTOR_SIZE, seed=SEED
    )


def _config():
    return ToolchainConfig(granularity="loop", loop_chunks=6)


def _timed(fn):
    """Run ``fn`` with the GC paused, returning (result, seconds)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
    finally:
        gc.enable()
    return result, seconds


def _run_experiment():
    platform = generic_predictable_multicore(cores=4)
    config = _config()
    rounds = []
    for i in range(ROUNDS):
        edit_seed = 100 + i
        pipe = Pipeline(platform, config, WcetAnalysisCache())
        base, cold_seconds = _timed(lambda: pipe.run(_diagram()))
        # a long-lived session holds its previous run's summary (chained
        # run_incremental calls memoize it); attribute it to the cold side
        base.artifact_summary(pipe.wcet_cache)

        edited = _diagram()
        edited_block = edit_block_param(edited, seed=edit_seed)
        inc, inc_seconds = _timed(lambda: pipe.run_incremental(base, edited))

        ref_diagram = _diagram()
        edit_block_param(ref_diagram, seed=edit_seed)
        ref = Pipeline(platform, config, WcetAnalysisCache()).run(ref_diagram)
        rounds.append(
            {
                "base": base,
                "inc": inc,
                "ref": ref,
                "cold_seconds": cold_seconds,
                "inc_seconds": inc_seconds,
                "edited_block": edited_block,
            }
        )
    return rounds


def test_e15_incremental_single_task_edit(benchmark):
    rounds = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)

    table = Table(
        ["round", "edited block", "tasks", "cold s", "incremental s", "speedup"],
        title="E15 incremental re-analysis of single-block edits "
        f"(s{STAGES}w{WIDTH}, loop granularity)",
    )
    for i, r in enumerate(rounds):
        base, inc, ref = r["base"], r["inc"], r["ref"]

        # bit-identical to a from-scratch run of the edited diagram
        assert inc.schedule.wcet_bound == ref.schedule.wcet_bound
        assert inc.schedule.mapping == ref.schedule.mapping
        assert inc.schedule.order == ref.schedule.order
        assert inc.sequential_bound == ref.sequential_bound
        assert (
            inc.schedule.result.task_effective_wcet
            == ref.schedule.result.task_effective_wcet
        )
        assert inc.schedule.result.task_intervals == ref.schedule.result.task_intervals

        report = inc.artifacts["incremental_report"]
        # the incremental work itself: exactly the edited block was lowered,
        # its region alone transformed, re-extracted and re-analysed
        assert report.blocks_lowered == 1, report.as_dict()
        assert report.regions_transformed == 1, report.as_dict()
        assert report.regions_recomputed == 1
        assert report.stages["htg"] == "incremental"
        assert tuple(report.diff.changed_regions) == (r["edited_block"],)
        # the race check reused the untouched pairs
        assert report.race_pairs_reused > 0

        table.add_row(
            [
                str(i),
                r["edited_block"],
                len(base.htg.leaf_tasks()),
                f"{r['cold_seconds']:.3f}",
                f"{r['inc_seconds']:.3f}",
                f"{r['cold_seconds'] / max(r['inc_seconds'], 1e-9):.1f}x",
            ]
        )

    cold_best = min(r["cold_seconds"] for r in rounds)
    inc_best = min(r["inc_seconds"] for r in rounds)
    speedup = cold_best / max(inc_best, 1e-9)
    table.add_row(
        ["BEST", "", "", f"{cold_best:.3f}", f"{inc_best:.3f}", f"{speedup:.1f}x"]
    )
    emit(table)

    last = rounds[-1]["inc"]
    print(
        f"\nE15: cold {cold_best:.3f}s -> incremental {inc_best:.3f}s "
        f"({speedup:.1f}x) for a 1-block edit of "
        f"{len(rounds[-1]['base'].htg.leaf_tasks())} tasks; "
        f"race pairs reused={last.artifacts['incremental_report'].race_pairs_reused}, "
        f"code-level hits={last.cache_stats['hits']}, "
        f"misses={last.cache_stats['misses']}"
    )

    # acceptance: a single-task edit is a >= 1.8x wall-clock win
    assert speedup >= TARGET_SPEEDUP, (
        f"incremental run ({inc_best:.3f}s) only {speedup:.1f}x faster than "
        f"cold ({cold_best:.3f}s); need >= {TARGET_SPEEDUP}x"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
