"""E12: system-level fixed-point iteration cost, per MHP backend.

PR 1 left the system-level analysis with an O(tasks x sharers) Python double
loop deriving the contender counts on *every* fixed-point iteration.  The
vectorised engine sorts each core's sharer window endpoints once per
iteration and answers all overlap queries with two ``numpy.searchsorted``
passes, the scalar backend became a per-core bisect over running maxima of
the sharer window ends, and the timeline builder prices the constraint
graph once instead of re-querying the per-edge latency per iteration.

This experiment runs both MHP backends of :func:`system_level_wcet` on
synthetic HTGs of ~200-1000 tasks and asserts they are *byte-identical* --
same makespan, same task intervals, same effective WCETs, same contender
counts, same iteration count.  It then times one contender pass of each
backend and of the original double loop (kept here as the baseline) on the
converged task windows: all three must give the same counts, and at 1000
tasks both backends must be at least 5x faster than the double loop.
"""

import time

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
from repro.wcet import HardwareCostModel, annotate_htg_wcets, system_level_wcet
from repro.wcet.cache import shared_cache
from repro.wcet.system_level import mhp_contenders_scalar, mhp_contenders_vectorised

#: (num_kernels, loop_chunks, dependency_probability, cores) -> ~tasks
CONFIGS = [
    (50, 4, 0.35, 4),     # ~200 tasks, dense dependences
    (200, 1, 0.010, 8),   # ~200 tasks, sparse
    (500, 1, 0.006, 8),   # ~500 tasks
    (1000, 1, 0.004, 8),  # ~1000 tasks (the acceptance configuration)
]
#: acceptance: both backends' passes must be >= 5x faster than the double
#: loop at this task count
TARGET_TASKS = 1000
TARGET_SPEEDUP = 5.0


def _build_case(num_kernels, chunks, dep_prob, cores):
    model = synthetic_compiled_model(
        num_kernels=num_kernels, vector_size=32, dependency_probability=dep_prob, seed=1
    )
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
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


def _double_loop(leaf_ids, sharers, mapping, intervals):
    """The original contender pass: distinct other cores with an overlapping sharer."""
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


def _time_backend(htg, function, platform, mapping, order, cache, backend, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        # result_cache=False: this experiment times the fixed point itself,
        # so the system-level result memo must not short-circuit the repeats
        result = system_level_wcet(
            htg, function, platform, mapping, order, cache=cache,
            mhp_backend=backend, result_cache=False,
        )
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
        # warm the analysis cache so both backends time the fixed point, not
        # the (identical) code-level analyses
        system_level_wcet(htg, model.entry, platform, mapping, order, cache=cache)

        scalar, scalar_seconds = _time_backend(
            htg, model.entry, platform, mapping, order, cache, "scalar"
        )
        vector, vector_seconds = _time_backend(
            htg, model.entry, platform, mapping, order, cache, "numpy"
        )
        assert _result_fingerprint(scalar) == _result_fingerprint(vector), (
            f"vectorised MHP diverges from the scalar pass at {num_tasks} tasks"
        )

        leaf_ids = [t.task_id for t in htg.leaf_tasks()]
        sharers = [tid for tid in leaf_ids if scalar.task_shared_accesses[tid] > 0]
        args = (leaf_ids, sharers, mapping, scalar.task_intervals)
        reference, loop_pass = _time_pass(_double_loop, args, repeats=3)
        bisect_counts, bisect_pass = _time_pass(mhp_contenders_scalar, args, repeats=20)
        vector_counts, vector_pass = _time_pass(mhp_contenders_vectorised, args, repeats=20)
        assert bisect_counts == reference and vector_counts == reference, (
            f"an MHP pass diverges from the double loop at {num_tasks} tasks"
        )
        rows.append(
            (
                num_tasks,
                cores,
                scalar.iterations,
                scalar_seconds,
                vector_seconds,
                loop_pass,
                bisect_pass,
                vector_pass,
                scalar.makespan,
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
            "scalar s",
            "vectorised s",
            "double loop ms/pass",
            "scalar ms/pass",
            "vectorised ms/pass",
            "speedup",
            "WCET bound",
        ],
        title="E12 system-level fixed point (scalar vs vectorised MHP, double-loop baseline)",
    )
    target_speedup = None
    for num_tasks, cores, iters, scalar_s, vector_s, loop_p, bisect_p, vector_p, bound in rows:
        # the slower of the two backends against the double loop
        slowest = max(bisect_p, vector_p)
        speedup = loop_p / slowest if slowest > 0 else float("inf")
        if num_tasks >= TARGET_TASKS * 0.9:
            target_speedup = speedup
        table.add_row(
            [
                num_tasks,
                cores,
                iters,
                f"{scalar_s:.3f}",
                f"{vector_s:.3f}",
                f"{1e3 * loop_p:.2f}",
                f"{1e3 * bisect_p:.3f}",
                f"{1e3 * vector_p:.3f}",
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
