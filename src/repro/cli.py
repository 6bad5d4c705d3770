"""Maintenance command line of the repro flow (``python -m repro``).

Two command families.  ``cache`` operates on shared result-cache
directories (the ones named by ``REPRO_WCET_CACHE_DIR``, ``sweep
(cache_dir=...)`` or ``benchmarks/run_all.py --cache-dir``)::

    python -m repro cache stats  .wcet_cache
    python -m repro cache evict  .wcet_cache --max-entries 50000
    python -m repro cache evict  .wcet_cache --max-bytes 64000000 --max-age-days 30

``stats`` aggregates the hit/miss records and entry counts of both cache
tiers (code-level WCET analyses and system-level fixed-point results);
``evict`` applies the size/age-bounded eviction policy of
:meth:`repro.wcet.cache.WcetAnalysisCache.evict` so long-lived shared
directories stop growing without bound.  Entries of other schema versions
are never touched; delete stale ``v<N>`` subdirectories manually once no
older deployment reads them.

``lint`` runs the static-analysis layer (:mod:`repro.analysis`) over
dataflow models: the IR verifier, the WCET flow-fact derivation and the
schedule race checker, end to end through the standard pipeline on the
generic predictable platform::

    python -m repro lint                      # all built-in use cases
    python -m repro lint egpws polka          # a subset
    python -m repro lint examples/quickstart.py --json

``certify`` runs the proof-carrying-result layer
(:mod:`repro.analysis.certify`): the full pipeline on the generic
predictable platform, then the independent certificate checkers over the
schedule (its timeline and the system-level fixed point behind it) and
the IPET solution (with flow facts re-derived)::

    python -m repro certify                   # all built-in use cases
    python -m repro certify egpws --json

``diff`` runs the incremental re-analysis engine
(:mod:`repro.analysis.incremental`): a cold pipeline run on the *old*
model, then :meth:`~repro.core.pipeline.Pipeline.run_incremental` on the
*new* one, and prints what the edit round reused -- which functions
changed, which stages reused part of the old run, how many regions, race
pairs and code-level reports were reused::

    python -m repro diff examples/model_v1.py examples/model_v2.py
    python -m repro diff egpws examples/egpws_edited.py --json

``trace`` runs one target through the full pipeline with observability
(:mod:`repro.obs`) switched on -- certification and static MHP pruning
included, so the trace shows every layer -- and exports a
Chrome/Perfetto-loadable ``trace.json`` plus, with ``--metrics-json``, the
run's metric snapshot as JSON on stdout::

    python -m repro trace egpws --out trace.json
    python -m repro trace polka --metrics-json > metrics.json

Traced runs are bit-identical to untraced ones; the exported trace is
self-validated (well-formed phases, per-track monotonic timestamps) and a
validation finding makes the exit status 1.

The analysis commands accept the same targets -- built-in use-case
names (``egpws``, ``weaa``, ``polka``) or paths to Python files exposing a
``build_model() -> Diagram`` function; ``lint`` and ``certify`` also take
a ``--fail-on`` severity threshold.  Exit status: 0 when no finding
reaches the threshold, 1 otherwise (or when a target failed to build), 2
for usage errors.  ``lint`` defaults to ``--fail-on info`` (any finding
fails, the historical behaviour); ``certify`` defaults to ``--fail-on
warning``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from repro.wcet.cache import (
    CACHE_SCHEMA_VERSION,
    WcetAnalysisCache,
    read_cache_dir_stats,
)


def _dir_bytes(cache_dir: Path) -> int:
    """Total size of the current schema version's shard files."""
    vdir = cache_dir / f"v{CACHE_SCHEMA_VERSION}"
    if not vdir.is_dir():
        return 0
    return sum(path.stat().st_size for path in vdir.glob("*.jsonl"))


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    if not Path(args.cache_dir).is_dir():
        # all-zero stats for a mistyped path would read like a healthy
        # empty cache; fail loudly instead
        print(f"no such cache directory: {args.cache_dir}", file=sys.stderr)
        return 2
    totals = read_cache_dir_stats(args.cache_dir)
    system = totals["system"]
    print(f"cache directory : {args.cache_dir}")
    print(f"schema version  : v{CACHE_SCHEMA_VERSION}")
    print(f"shard bytes     : {_dir_bytes(Path(args.cache_dir))}")
    print(
        "code level      : "
        f"{totals['entries']} entries, {totals['hits']}+{totals['disk_hits']} hits / "
        f"{totals['misses']} misses, {totals['flushed']} flushed"
    )
    print(
        "system level    : "
        f"{system['entries']} records, {system['hits']}+{system['disk_hits']} hits / "
        f"{system['misses']} searches or fixed points run, {system['flushed']} flushed"
    )
    return 0


def _cmd_cache_evict(args: argparse.Namespace) -> int:
    if args.max_entries is None and args.max_bytes is None and args.max_age_days is None:
        print(
            "nothing to do: pass at least one of --max-entries, --max-bytes, "
            "--max-age-days",
            file=sys.stderr,
        )
        return 2
    if not Path(args.cache_dir).is_dir():
        # opening would silently create the directory, and an operator who
        # mistyped the path must not be told the real cache was bounded
        print(f"no such cache directory: {args.cache_dir}", file=sys.stderr)
        return 2
    before = _dir_bytes(Path(args.cache_dir))
    cache = WcetAnalysisCache.open(args.cache_dir)
    report = cache.evict(
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        max_age_seconds=None if args.max_age_days is None else args.max_age_days * 86400.0,
    )
    after = _dir_bytes(Path(args.cache_dir))
    tiers = report["tiers"]
    print(
        f"evicted {report['evicted']} entries, kept {report['kept']} "
        f"(code: {tiers.get('code', 0)}, system: {tiers.get('system', 0)}); "
        f"shard bytes {before} -> {after}"
    )
    return 0


# ---------------------------------------------------------------------- #
# lint / certify (shared target handling and reporting)
# ---------------------------------------------------------------------- #
def _builtin_lint_targets() -> dict:
    from repro.usecases import ALL_USECASES

    return {name: build for name, (build, _inputs) in ALL_USECASES.items()}


def _load_diagram_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"repro_lint_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build = getattr(module, "build_model", None)
    if build is None:
        raise ValueError(f"{path} does not define build_model()")
    return build


def _resolve_targets(requested: list[str], command: str) -> list[tuple[str, object]] | None:
    """Map target names/paths to diagram builders; ``None`` = usage error.

    Shared by ``lint`` and ``certify`` so both commands accept exactly the
    same target language.
    """
    builtins = _builtin_lint_targets()
    requested = requested or sorted(builtins)
    plan: list[tuple[str, object]] = []
    for target in requested:
        if target in builtins:
            plan.append((target, builtins[target]))
            continue
        path = Path(target)
        if path.suffix == ".py" and path.is_file():
            try:
                plan.append((target, _load_diagram_module(path)))
            except Exception as exc:
                print(f"cannot load {command} target {target}: {exc}", file=sys.stderr)
                return None
            continue
        print(
            f"unknown {command} target {target!r}: expected one of "
            f"{', '.join(sorted(builtins))} or a path to a .py file defining "
            "build_model()",
            file=sys.stderr,
        )
        return None
    return plan


def _gating_findings(records: list[dict], threshold: str) -> int:
    """Findings at or above ``threshold`` severity, across all records."""
    from repro.analysis.report import severity_at_least

    return sum(
        1
        for record in records
        for report in record["reports"]
        for finding in report["findings"]
        if severity_at_least(finding["severity"], threshold)
    )


def _print_records(command: str, records: list[dict], total_findings: int) -> None:
    for record in records:
        status = "clean" if record["ok"] else "FINDINGS"
        print(f"{record['target']}: {status}")
        for report in record["reports"]:
            counters = ", ".join(
                f"{k}={v}" for k, v in sorted(report["checked"].items())
            )
            print(f"  {report['analysis']}: {len(report['findings'])} finding(s)"
                  + (f" ({counters})" if counters else ""))
            for finding in report["findings"]:
                print(f"    {finding['severity']}: {finding['code']} "
                      f"[{finding['function']}:{finding['subject']}] "
                      f"{finding['message']}")
    print(f"{command}: {len(records)} target(s), {total_findings} finding(s)")


def _lint_one(target: str, build_diagram) -> dict:
    """Run the full analysis layer on one diagram; returns a JSON-able record."""
    from repro.adl.platforms import generic_predictable_multicore
    from repro.analysis.report import AnalysisReport, Finding
    from repro.analysis.static_mhp import compute_static_mhp
    from repro.analysis.verifier import verify_function
    from repro.analysis.wcet_facts import derive_flow_facts
    from repro.core.config import ToolchainConfig
    from repro.core.exceptions import ToolchainError
    from repro.core.pipeline import run_pipeline

    reports: list[AnalysisReport] = []
    interference: dict | None = None
    try:
        diagram = build_diagram()
        result = run_pipeline(
            diagram, generic_predictable_multicore(), ToolchainConfig()
        )
    except ToolchainError as exc:
        failed = AnalysisReport("pipeline")
        failed.add(Finding(code="pipeline.error", message=str(exc), function=target))
        reports.append(failed)
    else:
        entry = result.model.entry
        reports.append(verify_function(entry))
        _facts, facts_report = derive_flow_facts(entry)
        reports.append(facts_report)
        reports.append(result.schedule.race_findings(result.htg, entry))
        analysed = result.schedule.result
        relation = compute_static_mhp(
            result.htg,
            entry,
            result.schedule.mapping,
            sharers=[t for t, n in analysed.task_shared_accesses.items() if n > 0],
        )
        interference_report = AnalysisReport("static_interference")
        for key, value in relation.as_dict().items():
            interference_report.bump(key, value)
        interference_report.bump("tasks_footprinted", len(relation.footprints))
        reports.append(interference_report)
        interference = {
            "pairs": relation.as_dict(),
            "footprints": {
                tid: fp.as_dict() for tid, fp in sorted(relation.footprints.items())
            },
        }
    return {
        "target": target,
        "ok": all(r.ok for r in reports),
        "reports": [r.as_dict() for r in reports],
        "interference": interference,
    }


def _cmd_lint(args: argparse.Namespace) -> int:
    plan = _resolve_targets(args.targets, "lint")
    if plan is None:
        return 2
    records = [_lint_one(target, build) for target, build in plan]
    total_findings = sum(
        len(report["findings"]) for record in records for report in record["reports"]
    )
    if args.json:
        print(json.dumps({"targets": records, "findings": total_findings}, indent=2))
    else:
        _print_records("lint", records, total_findings)
    return 1 if _gating_findings(records, args.fail_on) else 0


# ---------------------------------------------------------------------- #
# certify
# ---------------------------------------------------------------------- #
def _certify_one(target: str, build_diagram) -> dict:
    """Certify one diagram's full result chain; returns a JSON-able record."""
    from repro.adl.platforms import generic_predictable_multicore
    from repro.analysis.certify import certify_pipeline_result
    from repro.analysis.report import AnalysisReport, Finding
    from repro.core.config import ToolchainConfig
    from repro.core.exceptions import ToolchainError
    from repro.core.pipeline import run_pipeline

    try:
        diagram = build_diagram()
        result = run_pipeline(
            diagram, generic_predictable_multicore(), ToolchainConfig()
        )
        chain = certify_pipeline_result(result, derive_facts=True)
    except ToolchainError as exc:
        failed = AnalysisReport("pipeline")
        failed.add(Finding(code="pipeline.error", message=str(exc), function=target))
        return {"target": target, "ok": False, "reports": [failed.as_dict()]}
    return {
        "target": target,
        "ok": chain.ok,
        "reports": [r.as_dict() for r in chain.reports],
    }


def _cmd_certify(args: argparse.Namespace) -> int:
    plan = _resolve_targets(args.targets, "certify")
    if plan is None:
        return 2
    records = [_certify_one(target, build) for target, build in plan]
    total_findings = sum(
        len(report["findings"]) for record in records for report in record["reports"]
    )
    if args.json:
        print(json.dumps({"targets": records, "findings": total_findings}, indent=2))
    else:
        _print_records("certify", records, total_findings)
    return 1 if _gating_findings(records, args.fail_on) else 0


# ---------------------------------------------------------------------- #
# diff (incremental re-analysis)
# ---------------------------------------------------------------------- #
def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.adl.platforms import generic_predictable_multicore
    from repro.analysis.incremental import mark_reused
    from repro.analysis.verifier import verify_function
    from repro.analysis.wcet_facts import derive_flow_facts
    from repro.core.config import ToolchainConfig
    from repro.core.exceptions import ToolchainError
    from repro.core.pipeline import Pipeline

    plan = _resolve_targets([args.old, args.new], "diff")
    if plan is None:
        return 2
    (old_name, old_build), (new_name, new_build) = plan
    pipeline = Pipeline(generic_predictable_multicore(), ToolchainConfig())

    def code_level_reports(entry):
        """The lint-layer reports of one entry function."""
        return [verify_function(entry), derive_flow_facts(entry)[1]]

    try:
        base = pipeline.run(old_build())
        base_reports = code_level_reports(base.model.entry)
        result = pipeline.run_incremental(base, new_build())
        # the reports are pure functions of the function's content: replay
        # them when the fingerprints of the old and new entry match
        fingerprint = pipeline.wcet_cache.function_fingerprint
        replayed = fingerprint(base.model.entry) == fingerprint(result.model.entry)
        if replayed:
            new_reports = [mark_reused(report) for report in base_reports]
        else:
            new_reports = code_level_reports(result.model.entry)
    except ToolchainError as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 1
    report = result.artifacts["incremental_report"]
    if args.json:
        print(
            json.dumps(
                {
                    "old": old_name,
                    "new": new_name,
                    "report": report.as_dict(),
                    "code_level_replayed": replayed,
                    "code_level_reports": [r.as_dict() for r in new_reports],
                    "old_wcet_bound": base.schedule.wcet_bound,
                    "new_wcet_bound": result.schedule.wcet_bound,
                },
                indent=2,
            )
        )
    else:
        print(f"diff {old_name} -> {new_name}")
        print(report.render())
        print(
            "code-level analyses: "
            + ("replayed (provenance=reused)" if replayed else "re-analysed")
            + f" ({len(base_reports)} report(s))"
        )
        print(
            f"WCET bound: {base.schedule.wcet_bound:.0f} -> "
            f"{result.schedule.wcet_bound:.0f} cycles"
        )
    return 0


# ---------------------------------------------------------------------- #
# trace (observability)
# ---------------------------------------------------------------------- #
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.adl.platforms import generic_predictable_multicore
    from repro.core.config import ToolchainConfig
    from repro.core.exceptions import ToolchainError
    from repro.core.pipeline import run_pipeline
    from repro.core.reporting import fixed_point_report
    from repro.obs.tracer import validate_trace_events

    plan = _resolve_targets([args.target], "trace")
    if plan is None:
        return 2
    ((target, build),) = plan
    # Fresh buffers so the exported trace holds exactly this run; the
    # config's trace knob switches observability on for the run itself.
    obs.reset()
    config = ToolchainConfig(certify=True, static_pruning=True, trace=True)
    try:
        result = run_pipeline(build(), generic_predictable_multicore(), config)
    except ToolchainError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    tracer = obs.tracer()
    events = tracer.events()
    findings = validate_trace_events(events)
    out = Path(args.out)
    tracer.export_chrome(out)
    telemetry = result.telemetry()
    # With --metrics-json the JSON owns stdout; the summary moves to stderr.
    info = sys.stderr if args.metrics_json else sys.stdout
    print(f"trace: {target}: {len(events)} event(s) -> {out}", file=info)
    print(f"WCET bound: {result.schedule.wcet_bound:.0f} cycles", file=info)
    print(fixed_point_report(result.schedule), file=info)
    for finding in findings:
        print(f"trace validation: {finding}", file=sys.stderr)
    if args.metrics_json:
        print(
            json.dumps(
                {
                    "target": target,
                    "out": str(out),
                    "events": len(events),
                    "validation_findings": findings,
                    "metrics": telemetry.get("metrics", {}),
                },
                indent=2,
            )
        )
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        # not derived from __doc__: it is None under `python -OO`
        description="Maintenance command line of the repro flow.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cache = commands.add_parser("cache", help="inspect / bound a shared cache directory")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    stats = cache_commands.add_parser("stats", help="aggregate hit/miss and entry counts")
    stats.add_argument("cache_dir", help="the cache directory to inspect")
    stats.set_defaults(func=_cmd_cache_stats)

    evict = cache_commands.add_parser(
        "evict", help="bound the directory by entry count, bytes and/or age"
    )
    evict.add_argument("cache_dir", help="the cache directory to bound")
    evict.add_argument(
        "--max-entries", type=int, default=None,
        help="keep at most this many entries across both tiers",
    )
    evict.add_argument(
        "--max-bytes", type=int, default=None,
        help="keep at most this many serialized entry bytes",
    )
    evict.add_argument(
        "--max-age-days", type=float, default=None,
        help="drop entries whose shard is older (entries used by this run are exempt)",
    )
    evict.set_defaults(func=_cmd_cache_evict)

    lint = commands.add_parser(
        "lint", help="run the static-analysis layer over dataflow models"
    )
    lint.add_argument(
        "targets",
        nargs="*",
        help="built-in use-case names (egpws, weaa, polka) and/or paths to "
        "Python files defining build_model(); default: all built-ins",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="info",
        help="minimum finding severity that makes the exit status 1 "
        "(default: info, i.e. any finding)",
    )
    lint.set_defaults(func=_cmd_lint)

    certify = commands.add_parser(
        "certify",
        help="re-validate pipeline results through the independent "
        "certificate checkers",
    )
    certify.add_argument(
        "targets",
        nargs="*",
        help="built-in use-case names (egpws, weaa, polka) and/or paths to "
        "Python files defining build_model(); default: all built-ins",
    )
    certify.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    certify.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="warning",
        help="minimum finding severity that makes the exit status 1 "
        "(default: warning)",
    )
    certify.set_defaults(func=_cmd_certify)

    diff = commands.add_parser(
        "diff",
        help="re-analyse an edited model incrementally and report what was reused",
    )
    diff.add_argument(
        "old",
        help="baseline target: a built-in use-case name (egpws, weaa, polka) "
        "or a path to a Python file defining build_model()",
    )
    diff.add_argument("new", help="edited target (same target language)")
    diff.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    diff.set_defaults(func=_cmd_diff)

    trace = commands.add_parser(
        "trace",
        help="run one target with observability on and export a Perfetto trace",
    )
    trace.add_argument(
        "target",
        help="a built-in use-case name (egpws, weaa, polka) or a path to a "
        "Python file defining build_model()",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome/Perfetto trace output path (default: trace.json)",
    )
    trace.add_argument(
        "--metrics-json",
        action="store_true",
        help="print the run's metric snapshot as JSON on stdout "
        "(the human summary moves to stderr)",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
