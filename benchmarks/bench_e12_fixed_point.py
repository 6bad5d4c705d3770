"""E12: system-level fixed-point iteration cost of the unpruned MHP kernel.

The fixed point derives every task's contender count on *every*
iteration.  Naively that is an O(tasks x sharers) double loop; the
unpruned kernel, :func:`repro.wcet.system_level.mhp_contenders`, is a
per-core bisect over the sharer windows the timeline build collects (a
core runs its tasks back to back, so each core's windows come sorted by
start and by end), and the build reads each cross-core delay from the
design's per-payload tables.

This experiment runs :func:`system_level_wcet` on synthetic HTGs of
~200-1000 tasks twice: with the kernel, and with the original double loop
(kept here as the baseline, over the sharers of the kernel's result,
ignoring the collected windows) patched into the name the solve calls --
the patched baseline must run once per iteration, so the comparison cannot
pass vacuously.  Both fixed points must be *byte-identical* -- same
makespan, same task intervals, same effective WCETs, same contender
counts, same iteration count.  It then times one contender pass of the
kernel, on the converged timeline's windows per core in core order, and of
the double loop on the converged task windows: both must give the same
counts, and at 1000 tasks the kernel must be at least 5x faster than the
double loop.
"""

import time
from unittest import mock

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e12_fixed_point.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.tables import Table
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache, system_level_wcet
from repro.wcet.cache import shared_cache
from repro.wcet import system_level
from repro.wcet.system_level import mhp_contenders

#: (num_kernels, loop_chunks, dependency_probability, cores) -> ~tasks
CONFIGS = [
    (50, 4, 0.35, 4),     # ~200 tasks, dense dependences
    (200, 1, 0.010, 8),   # ~200 tasks, sparse
    (500, 1, 0.006, 8),   # ~500 tasks
    (1000, 1, 0.004, 8),  # ~1000 tasks (the acceptance configuration)
]
#: acceptance: one kernel pass must be >= 5x faster than the double loop at
#: this task count
TARGET_TASKS = 1000
TARGET_SPEEDUP = 5.0


def _build_case(num_kernels, chunks, dep_prob, cores):
    model = synthetic_compiled_model(
        num_kernels=num_kernels, vector_size=32, dependency_probability=dep_prob, seed=1
    )
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


def _result_fingerprint(result):
    return (
        result.makespan,
        {tid: (iv.start, iv.end) for tid, iv in result.task_intervals.items()},
        result.task_effective_wcet,
        result.task_contenders,
        result.interference_cycles,
        result.communication_cycles,
        result.iterations,
        result.converged,
    )


def _double_loop(cores, sharers, starts, finishes):
    """The original contender pass: distinct other cores with an overlapping
    sharer, over index lists of windows."""
    contenders = []
    for tid, core in enumerate(cores):
        other_cores = set()
        for other in sharers:
            if other == tid or cores[other] == core:
                continue
            if starts[tid] < finishes[other] and starts[other] < finishes[tid]:
                other_cores.add(cores[other])
        contenders.append(len(other_cores))
    return contenders


def _time_fixed_point(htg, function, platform, mapping, order, cache, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        # this experiment times the fixed point itself, so the system-level
        # result memo (emptied outside the timing) must not short-circuit it
        cache.system_results.store.clear()
        t0 = time.perf_counter()
        result = system_level_wcet(SystemDesign(htg, function, platform, cache), mapping, order)
        best = min(best, time.perf_counter() - t0)
    return result, best


def _time_pass(mhp_pass, args, repeats):
    """Best-of-``repeats`` seconds of one contender pass, and its counts."""
    best = float("inf")
    counts = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        counts = mhp_pass(*args)
        best = min(best, time.perf_counter() - t0)
    return counts, best


def _sweep():
    rows = []
    cache = shared_cache()
    for num_kernels, chunks, dep_prob, cores in CONFIGS:
        model, htg, platform, mapping, order = _build_case(num_kernels, chunks, dep_prob, cores)
        num_tasks = len(mapping)
        # warm the analysis cache so both runs time the fixed point, not
        # the (identical) code-level analyses
        system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)

        kernel, kernel_seconds = _time_fixed_point(
            htg, model.entry, platform, mapping, order, cache, repeats=2
        )
        leaf_ids = [t.task_id for t in htg.leaf_tasks()]
        sharers = [i for i, tid in enumerate(leaf_ids) if kernel.task_shared_accesses[tid] > 0]

        def baseline_pass(cores, windows, starts, finishes):
            return _double_loop(cores, sharers, starts, finishes)

        # patch the name the solve calls, and prove the baseline ran
        with mock.patch.object(
            system_level, "mhp_contenders", side_effect=baseline_pass
        ) as patched:
            baseline, baseline_seconds = _time_fixed_point(
                htg, model.entry, platform, mapping, order, cache, repeats=1
            )
        assert patched.call_count == baseline.iterations >= 1, (
            "the fixed point never called the patched double loop"
        )
        assert _result_fingerprint(kernel) == _result_fingerprint(baseline), (
            f"the MHP kernel's fixed point diverges from the double loop's at {num_tasks} tasks"
        )

        intervals = [kernel.task_intervals[tid] for tid in leaf_ids]
        cores_of = [mapping[tid] for tid in leaf_ids]
        starts = [window.start for window in intervals]
        finishes = [window.end for window in intervals]
        # the kernel's windows: per core, its sharers' windows in core order
        shares = {tid for tid in leaf_ids if kernel.task_shared_accesses[tid] > 0}
        core_windows = [
            (
                core,
                [kernel.task_intervals[tid].start for tid in tids if tid in shares],
                [kernel.task_intervals[tid].end for tid in tids if tid in shares],
            )
            for core, tids in order.items()
            if shares.intersection(tids)
        ]
        reference, loop_pass = _time_pass(
            _double_loop, (cores_of, sharers, starts, finishes), repeats=3
        )
        counts, kernel_pass = _time_pass(
            mhp_contenders, (cores_of, core_windows, starts, finishes), repeats=20
        )
        assert counts == reference, (
            f"the MHP kernel diverges from the double loop at {num_tasks} tasks"
        )
        rows.append(
            (
                num_tasks,
                cores,
                kernel.iterations,
                kernel_seconds,
                baseline_seconds,
                loop_pass,
                kernel_pass,
                kernel.makespan,
            )
        )
    return rows


def test_e12_fixed_point_scaling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = Table(
        [
            "tasks",
            "cores",
            "iterations",
            "fixed point s",
            "double-loop fixed point s",
            "double loop ms/pass",
            "kernel ms/pass",
            "speedup",
            "WCET bound",
        ],
        title="E12 system-level fixed point (unpruned MHP kernel, double-loop baseline)",
    )
    target_speedup = None
    for num_tasks, cores, iters, kernel_s, loop_s, loop_p, kernel_p, bound in rows:
        speedup = loop_p / kernel_p if kernel_p > 0 else float("inf")
        if num_tasks >= TARGET_TASKS * 0.9:
            target_speedup = speedup
        table.add_row(
            [
                num_tasks,
                cores,
                iters,
                f"{kernel_s:.3f}",
                f"{loop_s:.3f}",
                f"{1e3 * loop_p:.2f}",
                f"{1e3 * kernel_p:.3f}",
                f"{speedup:.1f}x",
                bound,
            ]
        )
    emit(table)

    assert target_speedup is not None, "no configuration reached the acceptance task count"
    assert target_speedup >= TARGET_SPEEDUP, (
        f"only {target_speedup:.1f}x over the double loop at ~{TARGET_TASKS} tasks"
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    for row in _sweep():
        print(row)
