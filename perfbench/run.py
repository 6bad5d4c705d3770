"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dse-usecases --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload synthetic-1000 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload edit-incremental --seed 1 --out results.jsonl

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (tracing off); with ``--trace 1`` they
are the per-layer ones, measured by wrapping timers around each layer's
entry points (see ``layers.py``), plus the tracing overhead and coverage.
The traced run also writes a Perfetto-loadable trace to ``--trace-file``.

``--out FILE`` appends the result, tagged with workload, seed and trace,
to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from speed import Section, SpeedSampler  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Minimum share of traced wall clock the wrapped layers must cover.
MIN_COVERAGE = 0.9
#: Maximum share of traced wall clock left as ``core.pipeline`` residual
#: (orchestration, fingerprints, copies), by model size.  A binding the
#: wrappers missed moves its layer's time here.  Measured: 0.1-2.4% at
#: full size; up to 15% on the self-tests' tiny models, where the
#: orchestration of an edit round outweighs its analysis.
MAX_RESIDUAL = {"full": 0.1, "tiny": 0.3}


def tail_percentile(n: int) -> int:
    """The tail percentile reported for ``n`` samples.

    The highest multiple of 5 with at least 10 of the ``n`` samples beyond
    it (p90 for 180 samples); the maximum (100) when that would fall below
    the median, i.e. for fewer than 20 samples.
    """
    pct = 5 * math.floor(20 * (n - 10) / n) if n > 10 else 0
    return pct if pct > 50 else 100


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    trace_file: Path | None = None,
    import_s: float = 0.0,
    sampler: SpeedSampler | None = None,
) -> dict[str, Any]:
    """Set up and run one workload; returns the result object.

    ``import_s`` (the caller's import time, at reference speed) is added
    to every set-up.  An untraced run reports times at the reference speed
    of ``sampler``, or of a sampler of its own when none is running.
    """
    from layers import LayerTimer
    from repro.obs.tracer import Tracer

    if trace:
        timer = LayerTimer(Tracer(max_events=200_000))
        timer.install()
        try:
            return _measure(name, seed, seconds, size, import_s, None, timer, trace_file)
        finally:
            timer.uninstall()
    if sampler is None:
        with SpeedSampler() as sampler:
            return _measure(name, seed, seconds, size, import_s, sampler, None, None)
    return _measure(name, seed, seconds, size, import_s, sampler, None, None)


def _measure(
    name: str,
    seed: int,
    seconds: float,
    size: str,
    import_s: float,
    sampler: SpeedSampler | None,
    timer: Any,
    trace_file: Path | None,
) -> dict[str, Any]:
    from layers import LAYERS, ZERO_CALLS, cache_counters, wrapper_call_cost_s
    from repro.obs.tracer import validate_trace_events
    from workloads import WORKLOADS

    # Untraced runs report times at a reference machine speed (speed.py);
    # traced runs report raw wall clock, so self times add up to it.
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with Section(sampler) as section:
            workload = WORKLOADS[name](seed, seconds, size)
            workload.setup()
        setups.append(import_s + section.seconds)

    durations: list[float] = []
    bounds: list[float] = []
    speedups: list[float] = []
    #: every op's time, failed ones included
    op_times: list[float] = []
    attempted = failed = 0
    for op in workload.ops():
        attempted += 1
        error = None
        if workload.collect_between_ops:
            gc.collect()
        if timer is not None:
            counters = cache_counters(op.cache)
            timer.active = True
        # no collector pauses inside the timed section
        gc.disable()
        try:
            with Section(sampler) as section:
                result = workload.run(op)
        except Exception as exc:  # noqa: BLE001 - a failed op is a measured outcome
            error = exc
        finally:
            gc.enable()
            if timer is not None:
                timer.active = False
        op_times.append(section.seconds)
        if timer is not None:
            timer.add_cache_delta(counters, cache_counters(op.cache))
        if error is not None:
            failed += 1
            print(f"FAILED {op.label}: {type(error).__name__}: {error}", file=sys.stderr)
            continue
        workload.accept(op, result)
        try:
            problems = workload.check(op, result)
        except Exception as exc:  # noqa: BLE001 - an oracle crash is a failure too
            problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"FAILED {op.label}: " + "; ".join(problems), file=sys.stderr)
            continue
        durations.append(section.seconds)
        bounds.append(result.system_wcet)
        speedups.append(result.wcet_speedup)

    correct = failed == 0 and bool(durations)
    metrics: dict[str, tuple[float, str]]
    if timer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s_p50": (statistics.median(durations) if durations else 0.0, "s"),
            "op_s_tail": (
                percentile(durations, tail_percentile(len(durations))) if durations else 0.0,
                "s",
            ),
            "ops_per_s": (len(durations) / sum(op_times), "1/s"),
            "bound_cycles_geomean": (_geomean(bounds), "cycles"),
            "wcet_speedup_geomean": (_geomean(speedups), "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = timer.metrics()
        traced_wall = sum(op_times)
        coverage = timer.covered_s / traced_wall if traced_wall else 0.0
        residual = timer.stats["core.pipeline"].self_s / traced_wall if traced_wall else 0.0
        calls = sum(stats.calls for stats in timer.stats.values())
        events = timer.tracer.events()
        metrics.update(
            {
                "trace.coverage_ratio": (coverage, "ratio"),
                "trace.residual_ratio": (residual, "ratio"),
                "trace.wall_s": (traced_wall, "s"),
                "trace.op_s_p50": (statistics.median(op_times), "s"),
                # wrapped calls x measured cost of one wrapper, over wall clock
                "trace.overhead_ratio": (
                    calls * wrapper_call_cost_s() / traced_wall if traced_wall else 0.0,
                    "ratio",
                ),
                "trace.bindings": (float(timer.bindings()), "count"),
                "trace.events": (float(len(events)), "count"),
            }
        )
        problems = []
        if coverage < MIN_COVERAGE:
            problems.append(f"wrapped layers cover {coverage:.1%} of traced wall clock")
        if residual > MAX_RESIDUAL[size]:
            problems.append(
                f"core.pipeline residual is {residual:.1%} of traced wall clock"
                f" (max {MAX_RESIDUAL[size]:.0%}): a layer binding is not wrapped"
            )
        for layer, spec in LAYERS.items():
            calls = timer.stats[layer].calls
            if name in spec["moves"] and not calls:
                problems.append(f"layer {layer} made no calls")
            if layer in ZERO_CALLS[name] and calls:
                problems.append(f"layer {layer} made {calls} calls; predicted none")
        problems += validate_trace_events(events)
        if trace_file is not None:
            timer.tracer.export_chrome(trace_file)
        for problem in problems:
            print(f"TRACE CHECK: {problem}", file=sys.stderr)
        correct = correct and not problems
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no product code under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        result = _run_main(args, None)
    else:
        # started before the imports, so import time is normalised too
        with SpeedSampler() as sampler:
            result = _run_main(args, sampler)
    if result is None:
        return 2
    for key, metric in result["metrics"].items():
        print(f"{key:45s} {metric['value']:>16.6g} {metric['unit']}")
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
        with args.out.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def _run_main(args: argparse.Namespace, sampler: SpeedSampler | None) -> dict[str, Any] | None:
    with Section(sampler) as imports:
        try:
            import layers  # noqa: F401 - imported here so the import time covers it
            from workloads import WORKLOADS
        except ImportError as exc:
            print(f"perfbench: cannot import the product code: {exc}", file=sys.stderr)
            return None
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return None
    trace_file = args.trace_file
    if args.trace and trace_file is None:
        trace_file = BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json"
    return run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), "full", trace_file,
        imports.seconds, sampler,
    )


if __name__ == "__main__":
    sys.exit(main())
