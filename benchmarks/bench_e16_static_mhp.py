"""E16: static interference pruning of the system-level fixed point.

PR 9 precomputes a schedule-independent contender pair skeleton before the
fixed point iterates: dependence-ordered pairs (count-preserving, pure
speedup) and shared-footprint-disjoint pairs (tightening, models an
address-aware interconnect) are excluded once, and every per-iteration MHP
pass runs over the surviving pairs only.

This experiment runs the pruned and unpruned analyses on the shipped use
cases and synthetic HTGs up to ~1000 tasks and asserts the two acceptance
properties end to end:

* the pruned bound is **never looser** (makespan and every per-task
  contender count), and
* on the large synthetic configuration pruning yields a measurable win --
  either a strictly tighter bound or a faster fixed point.

The pruned skeleton is certificate-checked
(:mod:`repro.analysis.certify.contention_cert`) in the smoke rows, so the
speed numbers are for *justified* pruning, not blind pair dropping.
"""

import time

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e16_static_mhp.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import (
    build_contention_certificate,
    check_contention_certificate,
)
from repro.analysis.static_mhp import compute_static_mhp
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.tables import Table
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache, system_level_wcet
from repro.wcet.cache import shared_cache

#: name -> (num_kernels, loop_chunks, dependency_probability, cores);
#: None = shipped use case compiled from its diagram
CONFIGS = [
    ("egpws", None),
    ("polka", None),
    ("weaa", None),
    ("synthetic-200", (50, 4, 0.35, 4)),
    ("synthetic-1000", (1000, 1, 0.004, 8)),
]
#: acceptance config: pruning must tighten the bound or speed up the solve
TARGET = "synthetic-1000"


def _build_case(name, params):
    if params is None:
        builder, _ = ALL_USECASES[name]
        model = compile_diagram(builder())
        chunks, cores = 2, 4
        dep_prob = None
    else:
        num_kernels, chunks, dep_prob, cores = params
        model = synthetic_compiled_model(
            num_kernels=num_kernels, vector_size=32,
            dependency_probability=dep_prob, seed=1,
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


def _time_variant(htg, function, platform, mapping, order, cache, pruned, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        # time the fixed point, not the memo (emptied outside the timing)
        cache.system_results.store.clear()
        t0 = time.perf_counter()
        result = system_level_wcet(
            SystemDesign(htg, function, platform, cache, static_pruning=pruned), mapping, order
        )
        best = min(best, time.perf_counter() - t0)
    return result, best


def _sweep():
    rows = []
    cache = shared_cache()
    for name, params in CONFIGS:
        model, htg, platform, mapping, order = _build_case(name, params)
        # warm the code-level analysis cache so both variants time the fixed
        # point itself
        system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)

        base, base_seconds = _time_variant(
            htg, model.entry, platform, mapping, order, cache, pruned=False
        )
        pruned, pruned_seconds = _time_variant(
            htg, model.entry, platform, mapping, order, cache, pruned=True
        )

        assert pruned.makespan <= base.makespan, (
            f"{name}: pruned bound {pruned.makespan} looser than {base.makespan}"
        )
        assert all(
            pruned.task_contenders[tid] <= n
            for tid, n in base.task_contenders.items()
        ), f"{name}: pruning increased a contender count"
        cert = build_contention_certificate(pruned, htg, model.entry)
        report = check_contention_certificate(cert, htg, model.entry)
        assert report.ok, f"{name}: pruned skeleton refuted:\n{report.summary()}"

        relation = compute_static_mhp(
            htg,
            model.entry,
            mapping,
            sharers=[t for t, n in base.task_shared_accesses.items() if n > 0],
        )
        rows.append(
            (
                name,
                len(mapping),
                relation.candidate_pairs,
                relation.kept_pairs,
                base_seconds,
                pruned_seconds,
                base.makespan,
                pruned.makespan,
            )
        )
    return rows


def test_e16_static_mhp_pruning(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = Table(
        [
            "case", "tasks", "cand pairs", "kept", "unpruned s", "pruned s",
            "unpruned WCET", "pruned WCET", "delta",
        ],
        title="E16 static interference pruning (pruned vs unpruned fixed point)",
    )
    target_row = None
    for name, tasks, cand, kept, base_s, pruned_s, base_w, pruned_w in rows:
        delta = (base_w - pruned_w) / base_w * 100 if base_w else 0.0
        if name == TARGET:
            target_row = (base_s, pruned_s, base_w, pruned_w)
        table.add_row(
            [
                name, tasks, cand, kept, f"{base_s:.3f}", f"{pruned_s:.3f}",
                base_w, pruned_w, f"{delta:.1f}%",
            ]
        )
    emit(table)

    assert target_row is not None, "acceptance configuration missing from sweep"
    base_s, pruned_s, base_w, pruned_w = target_row
    assert pruned_w < base_w or pruned_s < base_s, (
        "pruning produced neither a tighter bound nor a faster solve at "
        f"{TARGET}: {base_w} -> {pruned_w}, {base_s:.3f}s -> {pruned_s:.3f}s"
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    for row in _sweep():
        print(row)
