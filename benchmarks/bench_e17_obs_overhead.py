"""E17: observability overhead -- tracing must be (nearly) free.

PR 10 added the :mod:`repro.obs` layer: spans, metrics and Perfetto trace
export wired through every analysis layer.  Its contract (see the module
docstring) is that observability never changes results and costs almost
nothing when off:

* **disabled**: every instrumentation site degrades to one ambient-flag
  check (plus a no-op span allocation at coarse sites); this experiment
  microbenches that disabled path, counts the guarded calls one run
  passes and asserts a *generous overcount* of them (100x) still costs
  < 1% of the measured analysis time;
* **enabled**: a traced system-level fixed point on a ~1000-task synthetic
  HTG (the E12 acceptance configuration) must stay within 5% of the
  untraced wall time.  The estimator is the *median of paired
  back-to-back differences*: each repeat times an untraced run
  immediately followed by a traced one, so machine noise and frequency
  drift cancel pairwise instead of biasing one side;
* **bit-identical**: the traced and untraced runs must produce the same
  makespan, intervals, effective WCETs, contender counts and iteration
  count.
"""

import statistics
import time

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e17_obs_overhead.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro import obs
from repro.adl.platforms import generic_predictable_multicore
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.tables import Table
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache, system_level_wcet
from repro.wcet.cache import shared_cache

#: acceptance thresholds (ISSUE: <1% disabled, <5% enabled)
DISABLED_BUDGET = 0.01
ENABLED_BUDGET = 0.05
#: the disabled-path bound charges each guarded instrumentation site this
#: many times over: the guards one untraced analysis run passes are counted
#: (see ``_count_guards``), so the bound follows the instrumented code
#: instead of a hand-kept call count
GUARD_OVERCOUNT = 100
#: timing repeats per side (paired, median of differences)
REPEATS = 11


def _build_case(num_kernels=1000, chunks=1, dep_prob=0.004, cores=8):
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


def _disabled_call_cost(loops=200_000):
    """Per-call wall time of the disabled instrumentation primitives."""
    previous = obs.set_enabled(False)
    try:
        t0 = time.perf_counter()
        for _ in range(loops):
            obs.obs_enabled()
        flag_cost = (time.perf_counter() - t0) / loops

        t0 = time.perf_counter()
        for _ in range(loops):
            with obs.span("e17.noop", probe=1):
                pass
        span_cost = (time.perf_counter() - t0) / loops
    finally:
        obs.set_enabled(previous)
    return max(flag_cost, span_cost)


#: the ambient-flag primitives every instrumentation site reaches through
#: the ``obs`` module (``obs.<name>(...)``), so wrapping them counts the sites
_GUARDS = ("obs_enabled", "span", "trace_complete", "trace_counter")


def _count_guards(htg, function, platform, mapping, order, cache):
    """Guarded instrumentation sites one untraced analysis run passes."""
    hits = 0
    originals = {name: getattr(obs, name) for name in _GUARDS}

    def counting(fn):
        def wrapper(*args, **kwargs):
            nonlocal hits
            hits += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(obs, name, counting(fn))
    try:
        _time_run(htg, function, platform, mapping, order, cache, traced=False)
    finally:
        for name, fn in originals.items():
            setattr(obs, name, fn)
    return hits


def _time_run(htg, function, platform, mapping, order, cache, traced):
    """One timed system-level analysis, traced or untraced."""
    previous = obs.set_enabled(traced)
    try:
        if traced:
            # bound the event buffer across repeats; timing includes the
            # recording cost, which is the point
            obs.tracer().clear()
        # the result memo would short-circuit the repeats: empty it untimed
        cache.system_results.store.clear()
        t0 = time.perf_counter()
        result = system_level_wcet(SystemDesign(htg, function, platform, cache), mapping, order)
        return result, time.perf_counter() - t0
    finally:
        obs.set_enabled(previous)


def _sweep():
    cache = shared_cache()
    model, htg, platform, mapping, order = _build_case()
    # warm the code-level cache so the repeats time the fixed point itself
    system_level_wcet(SystemDesign(htg, model.entry, platform, cache), mapping, order)

    # one unmeasured warm-up per side (first-touch allocations, lazy imports)
    untraced_result, _ = _time_run(
        htg, model.entry, platform, mapping, order, cache, traced=False
    )
    traced_result, _ = _time_run(
        htg, model.entry, platform, mapping, order, cache, traced=True
    )
    untraced_times: list[float] = []
    paired_diffs: list[float] = []
    for _ in range(REPEATS):  # paired: each diff sees the same machine state
        untraced_result, untraced_seconds = _time_run(
            htg, model.entry, platform, mapping, order, cache, traced=False
        )
        traced_result, traced_seconds = _time_run(
            htg, model.entry, platform, mapping, order, cache, traced=True
        )
        untraced_times.append(untraced_seconds)
        paired_diffs.append(traced_seconds - untraced_seconds)
    untraced_s = statistics.median(untraced_times)
    extra_s = statistics.median(paired_diffs)

    per_call = _disabled_call_cost()
    guards = _count_guards(htg, model.entry, platform, mapping, order, cache)
    return {
        "tasks": len(mapping),
        "iterations": untraced_result.iterations,
        "untraced_s": untraced_s,
        "traced_s": untraced_s + extra_s,
        "per_call_s": per_call,
        "guards": guards,
        "disabled_overhead": (per_call * GUARD_OVERCOUNT * guards) / untraced_s,
        "enabled_overhead": extra_s / untraced_s,
        "identical": _result_fingerprint(untraced_result)
        == _result_fingerprint(traced_result),
        "bound": untraced_result.makespan,
    }


def test_e17_obs_overhead(benchmark):
    row = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = Table(
        [
            "tasks",
            "iterations",
            "untraced s",
            "traced s",
            "enabled ovh",
            "guards",
            "disabled ovh (bound)",
            "WCET bound",
        ],
        title="E17 observability overhead (system-level fixed point)",
    )
    table.add_row(
        [
            row["tasks"],
            row["iterations"],
            f"{row['untraced_s']:.3f}",
            f"{row['traced_s']:.3f}",
            f"{100 * row['enabled_overhead']:.2f}%",
            row["guards"],
            f"{100 * row['disabled_overhead']:.3f}%",
            row["bound"],
        ]
    )
    emit(table)

    assert row["identical"], "traced and untraced analyses diverged"
    # a run that passes no guard would make the disabled bound vacuous
    assert row["guards"] > 0, "no instrumentation guard counted"
    assert row["disabled_overhead"] < DISABLED_BUDGET, (
        f"disabled instrumentation cost bound {100 * row['disabled_overhead']:.2f}% "
        f">= {100 * DISABLED_BUDGET:.0f}% ({row['per_call_s'] * 1e9:.0f} ns/call x "
        f"{GUARD_OVERCOUNT} x {row['guards']} guards)"
    )
    assert row["enabled_overhead"] < ENABLED_BUDGET, (
        f"enabled tracing overhead {100 * row['enabled_overhead']:.2f}% "
        f">= {100 * ENABLED_BUDGET:.0f}%"
    )


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_sweep())
