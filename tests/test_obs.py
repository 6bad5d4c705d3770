"""Observability layer: tracer, metrics, wiring, and the no-change contract.

The load-bearing properties:

* disabled observability is invisible: the null span is a shared
  singleton, nothing is buffered, and traced vs untraced pipeline runs
  produce bit-identical bounds;
* the tracer exports a valid Chrome/Perfetto document and the validator
  catches the malformations the CI smoke job guards against;
* metric snapshots merge and delta correctly (the sweep-worker
  composition rule);
* the pipeline, fixed point, certifiers and sweep runner actually emit
  the telemetry the contract in :mod:`repro.obs` names.
"""

import json

import pytest

from repro import obs
from repro.adl.platforms import generic_predictable_multicore
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.core.sweep import sweep
from repro.obs.metrics import MetricsRegistry, merge_snapshots, snapshot_delta
from repro.obs.tracer import (
    Tracer,
    validate_trace_events,
    validate_trace_file,
)
from repro.usecases import build_egpws_diagram
from repro.usecases.workloads import random_pipeline_diagram
from repro.wcet import HardwareCostModel, SystemDesign, system_level, system_level_wcet
from repro.wcet.cache import WcetAnalysisCache
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.frontend import compile_diagram


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with disabled, empty telemetry state."""
    obs.reset()
    yield
    obs.reset()


def _small_diagram():
    return random_pipeline_diagram(stages=3, width=2, vector_size=8, seed=3)


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
def test_metrics_instruments():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    registry.histogram("h").observe(1.0)
    registry.histogram("h").observe(3.0)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 2.5
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["total"] == 4.0
    assert snap["histograms"]["h"]["min"] == 1.0
    assert snap["histograms"]["h"]["max"] == 3.0
    assert registry.histogram("h").mean == 2.0
    assert not registry.is_empty()
    registry.reset()
    assert registry.is_empty()


def test_metrics_merge_and_delta():
    a = MetricsRegistry()
    a.counter("c").inc(2)
    a.histogram("h").observe(1.0)
    b = MetricsRegistry()
    b.counter("c").inc(3)
    b.gauge("g").set(7.0)
    b.histogram("h").observe(5.0)
    merged = merge_snapshots([a.snapshot(), b.snapshot(), {}])
    assert merged["counters"]["c"] == 5
    assert merged["gauges"]["g"] == 7.0
    assert merged["histograms"]["h"]["count"] == 2
    assert merged["histograms"]["h"]["min"] == 1.0
    assert merged["histograms"]["h"]["max"] == 5.0

    before = a.snapshot()
    a.counter("c").inc(10)
    a.counter("untouched").inc(0)
    a.histogram("h").observe(2.0)
    delta = snapshot_delta(before, a.snapshot())
    assert delta["counters"]["c"] == 10
    # zero-delta instruments are dropped from the carved-out snapshot
    assert "untouched" not in delta["counters"]
    assert delta["histograms"]["h"]["count"] == 1


# ---------------------------------------------------------------------- #
# tracer + validator
# ---------------------------------------------------------------------- #
def test_tracer_export_and_validate(tmp_path):
    tracer = Tracer()
    import time

    t0 = time.perf_counter()
    tracer.record_complete("outer", t0, 0.010, {"k": 1})
    tracer.record_complete("inner", t0 + 0.001, 0.002)
    tracer.record_counter("curve", {"delta": 4.0})
    tracer.record_instant("mark")
    assert len(tracer) == 4
    assert validate_trace_events(tracer.events()) == []

    out = tracer.export_chrome(tmp_path / "trace.json")
    assert validate_trace_file(out) == []
    doc = json.loads(out.read_text())
    assert doc["displayTimeUnit"] == "ms"
    names = [e["name"] for e in doc["traceEvents"]]
    # ts-sorted: the enclosing span precedes the nested one
    assert names.index("outer") < names.index("inner")

    jsonl = tracer.export_jsonl(tmp_path / "trace.jsonl")
    lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(lines) == 4

    tracer.clear()
    assert len(tracer) == 0


def test_tracer_event_cap():
    tracer = Tracer(max_events=2)
    for i in range(5):
        tracer.record_instant(f"e{i}")
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_validator_catches_malformed_traces():
    base = {"cat": "t", "pid": 1, "tid": 1}
    assert validate_trace_events([{**base, "name": "x", "ph": "?", "ts": 0.0}])
    assert validate_trace_events(
        [{**base, "name": "x", "ph": "X", "ts": 0.0, "dur": -1.0}]
    )
    assert validate_trace_events(
        [
            {**base, "name": "a", "ph": "i", "s": "t", "ts": 5.0},
            {**base, "name": "b", "ph": "i", "s": "t", "ts": 1.0},
        ]
    ), "non-monotonic ts must be a finding"
    assert validate_trace_events([{**base, "name": "a", "ph": "B", "ts": 0.0}])
    # partial overlap: "b" starts inside "a" but ends after it
    assert validate_trace_events(
        [
            {**base, "name": "a", "ph": "X", "ts": 0.0, "dur": 10.0},
            {**base, "name": "b", "ph": "X", "ts": 5.0, "dur": 10.0},
        ]
    )
    # well-formed: matched B/E and properly nested X spans
    assert (
        validate_trace_events(
            [
                {**base, "name": "a", "ph": "X", "ts": 0.0, "dur": 10.0},
                {**base, "name": "b", "ph": "X", "ts": 2.0, "dur": 3.0},
                {**base, "name": "c", "ph": "B", "ts": 20.0},
                {**base, "name": "c", "ph": "E", "ts": 21.0},
            ]
        )
        == []
    )


def test_validate_trace_file_error_forms(tmp_path):
    missing = tmp_path / "nope.json"
    assert validate_trace_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_events": true}')
    assert validate_trace_file(bad) == ["trace object has no traceEvents array"]
    bare = tmp_path / "bare.json"
    bare.write_text("[]")
    assert validate_trace_file(bare) == []


# ---------------------------------------------------------------------- #
# ambient switch + spans
# ---------------------------------------------------------------------- #
def test_disabled_span_is_shared_noop_singleton():
    assert not obs.obs_enabled()
    s1 = obs.span("a", k=1)
    s2 = obs.span("b")
    assert s1 is s2  # the shared singleton: no allocation per call site
    with s1 as entered:
        entered.set(anything=1)
    assert len(obs.tracer()) == 0
    obs.trace_complete("x", 0.0, 1.0)
    obs.trace_counter("y", {"v": 1.0})
    assert len(obs.tracer()) == 0


def test_enabled_span_records_event_with_attrs():
    obs.set_enabled(True)
    with obs.span("work", stage="x") as span:
        span.set(items=3)
    (event,) = obs.tracer().events()
    assert event["name"] == "work"
    assert event["ph"] == "X"
    assert event["args"] == {"stage": "x", "items": 3}


def test_enabled_span_tags_exceptions():
    obs.set_enabled(True)
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("no")
    (event,) = obs.tracer().events()
    assert event["args"]["error"] == "ValueError"


def test_observed_restores_and_never_disables():
    assert not obs.obs_enabled()
    with obs.observed():
        assert obs.obs_enabled()
    assert not obs.obs_enabled()
    obs.set_enabled(True)
    with obs.observed(False):
        assert obs.obs_enabled(), "observed(False) must not disable"
    assert obs.obs_enabled()


# ---------------------------------------------------------------------- #
# config knob
# ---------------------------------------------------------------------- #
def test_trace_knob_validated_and_cache_key_neutral():
    with pytest.raises(ValueError):
        ToolchainConfig(trace="yes")
    # observability must not split content-addressed cache keys: a traced
    # run on a cache an untraced run warmed re-analyses nothing
    platform = generic_predictable_multicore(cores=2)
    cache = WcetAnalysisCache()
    Pipeline(platform, ToolchainConfig(loop_chunks=2), cache).run(_small_diagram())
    fixed_points = cache.system_results.stats.misses
    traced = Pipeline(platform, ToolchainConfig(loop_chunks=2, trace=True), cache).run(
        _small_diagram()
    )
    assert traced.cache_stats["misses"] == 0
    assert cache.system_results.stats.misses == fixed_points


# ---------------------------------------------------------------------- #
# pipeline wiring
# ---------------------------------------------------------------------- #
def test_traced_pipeline_bit_identical_and_telemetry():
    # fresh per-run caches: the trace knob is excluded from cache keys, so
    # a shared result tier would legitimately replay the untraced fixed
    # point into the traced run -- here we want both to compute
    platform = generic_predictable_multicore(cores=2)
    untraced = Pipeline(
        platform, ToolchainConfig(loop_chunks=2), WcetAnalysisCache()
    ).run(_small_diagram())
    assert untraced.telemetry() == {"enabled": False}

    traced = Pipeline(
        platform, ToolchainConfig(loop_chunks=2, trace=True), WcetAnalysisCache()
    ).run(_small_diagram())
    assert not obs.obs_enabled(), "the trace knob must not leak past the run"
    assert traced.schedule.wcet_bound == untraced.schedule.wcet_bound
    assert traced.schedule.mapping == untraced.schedule.mapping

    telemetry = traced.telemetry()
    assert telemetry["enabled"]
    counters = telemetry["metrics"]["counters"]
    assert counters["fixed_point.runs"] >= 1
    assert counters["fixed_point.iterations"] >= 1
    assert counters["scheduler.list_runs"] >= 1
    # every pipeline stage shows up as a span
    names = {event["name"] for event in obs.tracer().events()}
    for stage in ("frontend", "transforms", "htg", "schedule", "parallel", "wcet"):
        assert f"stage.{stage}" in names
    assert "pipeline.run" in names
    assert "fixed_point" in names
    assert validate_trace_events(obs.tracer().events()) == []


# ---------------------------------------------------------------------- #
# fixed-point convergence evidence
# ---------------------------------------------------------------------- #
def _analysed_case(cores=2):
    model = compile_diagram(build_egpws_diagram(lookahead=8))
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=2))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    return htg, model.entry, platform, mapping, default_core_order(htg, mapping)


def test_final_delta_and_iteration_deltas(monkeypatch):
    htg, function, platform, mapping, order = _analysed_case()

    def fixed_point():
        # a fresh cache has no result to replay, so the fixed point runs
        return system_level_wcet(
            SystemDesign(htg, function, platform, WcetAnalysisCache()), mapping, order
        )

    cold = fixed_point()
    assert cold.converged
    assert cold.final_delta == 0.0
    assert cold.iteration_deltas is None, "deltas are an observed-run diagnostic"

    obs.set_enabled(True)
    observed = fixed_point()
    assert observed.makespan == cold.makespan
    assert observed.iteration_deltas is not None
    assert len(observed.iteration_deltas) == observed.iterations
    assert observed.iteration_deltas[-1] == 0.0

    monkeypatch.setattr(system_level, "MAX_ITERATIONS", 1)
    capped = fixed_point()
    assert not capped.converged
    # at the iteration cap the final delta is real evidence, not a default
    assert capped.final_delta == observed.iteration_deltas[0]


# ---------------------------------------------------------------------- #
# sweep telemetry
# ---------------------------------------------------------------------- #
def _sweep_grid():
    from functools import partial

    return dict(
        diagrams=[partial(random_pipeline_diagram, stages=3, width=2, vector_size=8, seed=3)],
        platforms=[partial(generic_predictable_multicore, cores=2)],
        configs=[
            ToolchainConfig(loop_chunks=2),
            ToolchainConfig(loop_chunks=2, scheduler="sequential"),
        ],
    )


def test_sweep_outcome_telemetry_sequential_and_parallel():
    obs.set_enabled(True)
    sequential = sweep(**_sweep_grid(), max_workers=1, cache=WcetAnalysisCache())
    assert sequential.ok
    for outcome in sequential:
        assert outcome.telemetry is not None
        assert outcome.telemetry["enabled"]
        assert "telemetry" in outcome.as_dict()
    merged = sequential.merged_telemetry()
    assert merged["enabled"]
    # each case contributes its schedule runs; the fixed point may replay
    # from the process-wide result tier, so count both evidence kinds
    counters = merged["metrics"]["counters"]
    assert (
        counters.get("fixed_point.runs", 0) + counters.get("system_cache.hits", 0)
        >= 2
    )

    before = obs.metrics_snapshot()
    # worker processes start with fresh caches of their own, so no cache=
    parallel = sweep(**_sweep_grid(), max_workers=2)
    assert parallel.ok
    merged_parallel = parallel.merged_telemetry()
    assert merged_parallel["enabled"]
    # worker snapshots shipped through SweepOutcome.telemetry were merged
    # into the parent's process registry on the parallel path
    parent_delta = snapshot_delta(before, obs.metrics_snapshot())
    for name, value in merged_parallel["metrics"]["counters"].items():
        assert parent_delta["counters"].get(name, 0) >= value, name
    bounds = [o.system_wcet for o in sequential]
    assert bounds == [o.system_wcet for o in parallel]


def test_sweep_without_obs_has_no_telemetry():
    result = sweep(**_sweep_grid(), max_workers=1)
    assert result.ok
    assert all(outcome.telemetry is None for outcome in result)
    assert result.merged_telemetry() == {"enabled": False}


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def test_cli_trace_command(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    rc = main(["trace", "egpws", "--out", str(out), "--metrics-json"])
    assert rc == 0
    assert validate_trace_file(out) == []
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] > 0
    assert payload["validation_findings"] == []
    counters = payload["metrics"]["counters"]
    assert counters["fixed_point.runs"] >= 1
    assert counters["ipet.solves"] >= 1
    assert counters["mhp.pairs_pruned"] >= 0
    assert any(key.startswith("certify.") for key in counters)


def test_cli_trace_unknown_target(capsys):
    from repro.cli import main

    assert main(["trace", "not-a-usecase"]) == 2
