"""Driver running every ``bench_eN`` experiment and recording a perf trace.

Each experiment module is executed through pytest in its own subprocess (so a
crashing experiment cannot take down the sweep) and timed; the results are
written to a ``BENCH_<tag>.json`` record::

    python benchmarks/run_all.py                 # all experiments -> BENCH_results.json
    python benchmarks/run_all.py --only e2 e11   # a subset
    python benchmarks/run_all.py --tag nightly   # -> BENCH_nightly.json

The JSON record holds one entry per experiment (wall-clock seconds, pytest
exit status) plus environment metadata, giving the repository a perf
trajectory across PRs instead of an empty bench history.

With ``--cache-dir DIR`` every experiment subprocess shares one disk-backed
result cache (via the ``REPRO_WCET_CACHE_DIR`` environment variable): the
first sweep populates both tiers -- code-level WCET analyses and
system-level fixed-point results -- and subsequent sweeps hit them.  The
record then carries per-experiment and total hit/disk-hit/miss counts: the
code-level miss total is the number of actual code-level re-analyses and
the system-level miss total the number of fixed points actually run, both
of which a warm cache drives to zero::

    python benchmarks/run_all.py --cache-dir .wcet_cache --tag cold
    python benchmarks/run_all.py --cache-dir .wcet_cache --tag warm

``--cache-evict-entries`` / ``--cache-evict-bytes`` bound the directory
after the run (``python -m repro cache evict`` is the standalone
equivalent), so nightly drivers can keep shared caches from growing without
bound.

With ``--trace`` every experiment subprocess runs with observability on
(``REPRO_TRACE`` pointing at a per-experiment ``obs_<module>/`` directory
under ``--out-dir``): at process exit each worker dumps its Perfetto
``trace-<pid>.json`` and ``metrics-<pid>.json``, and the driver merges the
per-pid metric snapshots into the experiment's BENCH entry, so the record
carries fixed-point iteration counts, MHP pruning ratios, cache tier
hits/misses and certificate timings next to the wall-clock numbers::

    python benchmarks/run_all.py --trace --only e13

``--sweep`` additionally runs a design-space sweep smoke test through the
parallel sweep runner (``repro.core.sweep``): a 2 diagrams x 2 platforms x 2
schedulers grid executed with ``--sweep-workers`` worker processes, verified
bit-identical against the equivalent sequential loop, and recorded in the
BENCH record.  ``--skip-benchmarks`` runs only the sweep (the CI smoke
mode)::

    python benchmarks/run_all.py --sweep --skip-benchmarks --tag ci-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_module
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import TRACE_ENV_VAR  # noqa: E402
from repro.obs.metrics import merge_snapshots  # noqa: E402
from repro.wcet.cache import CACHE_DIR_ENV_VAR, read_cache_dir_stats  # noqa: E402


def run_sweep_smoke(max_workers: int, cache_dir: Path | None) -> dict:
    """A small design-space sweep through the parallel runner.

    Runs the grid twice -- once with worker processes, once as the
    equivalent sequential loop -- and checks the WCET bounds are
    bit-identical, which is the correctness contract of the sweep runner.
    """
    from functools import partial

    from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
    from repro.core import ToolchainConfig, sweep
    from repro.usecases import build_egpws_diagram, build_polka_diagram

    grid = dict(
        diagrams=[
            partial(build_egpws_diagram, lookahead=16),
            partial(build_polka_diagram, pixels=32),
        ],
        platforms=[
            partial(generic_predictable_multicore, cores=4),
            partial(recore_xentium_like, dsp_cores=4, control_cores=0),
        ],
        configs=[
            ToolchainConfig(loop_chunks=2, scheduler="wcet_list"),
            ToolchainConfig(loop_chunks=2, scheduler="sequential"),
        ],
    )
    cache = str(cache_dir) if cache_dir is not None else None
    parallel = sweep(**grid, max_workers=max_workers, cache_dir=cache)
    sequential = sweep(**grid, max_workers=1, cache_dir=cache)
    identical = all(
        (a.system_wcet, a.sequential_wcet) == (b.system_wcet, b.sequential_wcet)
        for a, b in zip(parallel, sequential)
    )
    print(parallel.render(f"sweep smoke ({parallel.max_workers} workers)"))
    print(
        f"[run_all] sweep: {len(parallel)} cases in {parallel.seconds:.2f}s "
        f"(sequential loop: {sequential.seconds:.2f}s), "
        f"bounds bit-identical: {identical}"
    )
    return {
        "cases": parallel.as_dicts(),
        "max_workers": parallel.max_workers,
        "seconds_parallel": round(parallel.seconds, 3),
        "seconds_sequential": round(sequential.seconds, 3),
        "all_passed": parallel.ok and sequential.ok and identical,
        "bounds_identical_to_sequential_loop": identical,
    }


def discover_benchmarks() -> list[Path]:
    """All ``bench_eN_*.py`` modules, ordered by experiment number."""

    def experiment_number(path: Path) -> int:
        match = re.match(r"bench_e(\d+)", path.name)
        return int(match.group(1)) if match else 10**6

    return sorted(BENCH_DIR.glob("bench_e*.py"), key=experiment_number)


def collect_trace_dir(trace_dir: Path) -> dict:
    """Merge the per-pid telemetry a traced experiment subprocess dumped."""
    metric_files = sorted(trace_dir.glob("metrics-*.json"))
    snapshots = []
    for metric_file in metric_files:
        try:
            snapshots.append(json.loads(metric_file.read_text()))
        except (OSError, ValueError):
            pass  # a torn write must not fail the whole record
    return {
        "dir": str(trace_dir),
        "trace_files": len(list(trace_dir.glob("trace-*.json"))),
        "metrics": merge_snapshots(snapshots),
    }


def run_benchmark(
    path: Path,
    pytest_args: list[str],
    cache_dir: Path | None = None,
    trace_dir: Path | None = None,
) -> dict:
    """Run one experiment module under pytest and time it."""
    cmd = [sys.executable, "-m", "pytest", str(path), "-q", *pytest_args]
    env = dict(os.environ)
    if cache_dir is not None:
        env[CACHE_DIR_ENV_VAR] = str(cache_dir)
    if trace_dir is not None:
        env[TRACE_ENV_VAR] = str(trace_dir)
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - started
    # last pytest summary line, e.g. "3 passed in 12.34s"
    summary = ""
    for line in reversed(proc.stdout.splitlines()):
        if line.strip():
            summary = line.strip()
            break
    record = {
        "module": path.stem,
        "seconds": round(seconds, 3),
        "returncode": proc.returncode,
        "passed": proc.returncode == 0,
        "summary": summary,
    }
    if trace_dir is not None:
        record["telemetry"] = collect_trace_dir(trace_dir)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="EXPR",
        help="run only experiments whose name contains one of these substrings (e.g. e2 e11)",
    )
    parser.add_argument(
        "--tag",
        default="results",
        help="suffix of the emitted BENCH_<tag>.json record (default: results)",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory the record is written to (default: repository root)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="share one disk-backed WCET analysis cache across all experiment "
        "subprocesses and record cache hit/miss counts in the BENCH record",
    )
    parser.add_argument(
        "--cache-evict-entries",
        type=int,
        default=None,
        metavar="N",
        help="after the run, bound the shared cache directory to at most N entries "
        "across both tiers (requires --cache-dir)",
    )
    parser.add_argument(
        "--cache-evict-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="after the run, bound the shared cache directory's serialized entry "
        "bytes (requires --cache-dir)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run every experiment subprocess with observability on "
        "(REPRO_TRACE) and merge the per-pid metric snapshots into the "
        "BENCH record; traces land in <out-dir>/obs_<module>/",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also run the parallel design-space sweep smoke test and record it",
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=2,
        help="worker processes of the sweep smoke test (default: 2)",
    )
    parser.add_argument(
        "--skip-benchmarks",
        action="store_true",
        help="skip the bench_eN experiments (useful with --sweep for a quick smoke run)",
    )
    parser.add_argument(
        "--pytest-args",
        nargs=argparse.REMAINDER,
        default=[],
        help="extra arguments forwarded to pytest",
    )
    args = parser.parse_args(argv)

    if args.cache_dir is None and (
        args.cache_evict_entries is not None or args.cache_evict_bytes is not None
    ):
        # fail before spending minutes on experiments whose record would
        # then be discarded by the conflicting arguments
        parser.error("--cache-evict-entries/--cache-evict-bytes need --cache-dir")

    benchmarks = [] if args.skip_benchmarks else discover_benchmarks()
    if args.only and not args.skip_benchmarks:
        benchmarks = [
            p for p in benchmarks if any(token in p.stem for token in args.only)
        ]
    if not benchmarks and not args.sweep:
        print("no benchmark modules matched", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir.resolve() if args.cache_dir is not None else None
    sweep_start_stats = (
        read_cache_dir_stats(cache_dir, count_entries=False) if cache_dir else None
    )

    results = []
    before = sweep_start_stats
    for path in benchmarks:
        print(f"[run_all] {path.stem} ...", flush=True)
        trace_dir = args.out_dir / f"obs_{path.stem}" if args.trace else None
        record = run_benchmark(
            path, args.pytest_args, cache_dir=cache_dir, trace_dir=trace_dir
        )
        status = "ok" if record["passed"] else f"FAILED (rc={record['returncode']})"
        if args.trace:
            counters = record["telemetry"]["metrics"].get("counters", {})
            status += (
                f"  [trace: {record['telemetry']['trace_files']} file(s), "
                f"{counters.get('fixed_point.runs', 0)} fixed points, "
                f"{counters.get('ipet.solves', 0)} IPET solves]"
            )
        if cache_dir is not None:
            after = read_cache_dir_stats(cache_dir, count_entries=False)
            record["cache"] = {
                key: after[key] - before[key] for key in ("hits", "disk_hits", "misses")
            }
            record["cache"]["system"] = {
                key: after["system"][key] - before["system"][key]
                for key in ("hits", "disk_hits", "misses")
            }
            before = after
            status += (
                f"  [cache: {record['cache']['hits']}+{record['cache']['disk_hits']} hits"
                f" / {record['cache']['misses']} misses; "
                f"{record['cache']['system']['misses']} fixed points]"
            )
        print(f"[run_all]   {status} in {record['seconds']:.1f}s  ({record['summary']})")
        results.append(record)

    sweep_record = None
    if args.sweep:
        print("[run_all] sweep smoke ...", flush=True)
        sweep_record = run_sweep_smoke(args.sweep_workers, cache_dir)

    record = {
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform_module.platform(),
        "total_seconds": round(sum(r["seconds"] for r in results), 3),
        "all_passed": all(r["passed"] for r in results)
        and (sweep_record is None or sweep_record["all_passed"]),
        "results": results,
    }
    if sweep_record is not None:
        record["sweep"] = sweep_record
    if cache_dir is not None:
        end_stats = read_cache_dir_stats(cache_dir)
        sweep = {
            key: end_stats[key] - sweep_start_stats[key]
            for key in ("hits", "disk_hits", "misses", "flushed")
        }
        system = {
            key: end_stats["system"][key] - sweep_start_stats["system"][key]
            for key in ("hits", "disk_hits", "misses", "flushed")
        }
        record["cache"] = {
            "dir": str(cache_dir),
            **sweep,
            #: actual code-level analyses performed this sweep; zero on a
            #: fully warm cache
            "code_level_reanalyses": sweep["misses"],
            "entries_on_disk": end_stats["entries"],
            #: system-level result tier: its misses are the fixed points
            #: (and metaheuristic searches, which this sweep has none of)
            #: actually run; zero on a fully warm result cache
            "system": {
                **system,
                "fixed_points_run": system["misses"],
                "entries_on_disk": end_stats["system"]["entries"],
            },
        }
        print(
            f"[run_all] cache: {sweep['hits']}+{sweep['disk_hits']} hits / "
            f"{sweep['misses']} code-level re-analyses, "
            f"{system['misses']} system-level fixed points run, "
            f"{end_stats['entries']}+{end_stats['system']['entries']} entries on disk"
        )
        if args.cache_evict_entries is not None or args.cache_evict_bytes is not None:
            from repro.wcet.cache import WcetAnalysisCache

            evict_report = WcetAnalysisCache.open(cache_dir).evict(
                max_entries=args.cache_evict_entries,
                max_bytes=args.cache_evict_bytes,
            )
            record["cache"]["evicted"] = evict_report
            print(
                f"[run_all] cache evict: kept {evict_report['kept']} entries "
                f"({evict_report['kept_bytes']} bytes), "
                f"evicted {evict_report['evicted']}"
            )
    out_path = args.out_dir / f"BENCH_{args.tag}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[run_all] wrote {out_path} ({len(results)} experiments, "
          f"{record['total_seconds']:.1f}s total)")
    return 0 if record["all_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
