"""Tests for the incremental re-analysis engine.

The core property: for any seeded edit script,
:meth:`Pipeline.run_incremental` must produce results bit-identical to a
cold :meth:`Pipeline.run` on the edited model -- every reuse is proved
valid by a content fingerprint.  An incremental run is the stage code of a
cold run on warm caches: no stage reads the previous run, which feeds only
the reuse report.
"""

import copy

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.incremental import diff_summaries, mark_reused
from repro.analysis.report import AnalysisReport, Finding
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.ir.printer import function_to_c
from repro.model import library
from repro.model.diagram import Diagram
from repro.usecases.workloads import (
    delete_block,
    edit_block_param,
    insert_gain_block,
    random_edit_script,
    random_pipeline_diagram,
    tweak_platform_costs,
)
from repro.wcet.cache import WcetAnalysisCache


def _diagram(seed: int, **kwargs):
    kwargs.setdefault("stages", 3)
    kwargs.setdefault("width", 2)
    kwargs.setdefault("vector_size", 8)
    return random_pipeline_diagram(seed=seed, **kwargs)


def _pipeline(platform=None, config=None, cache=None):
    return Pipeline(
        platform or generic_predictable_multicore(cores=4),
        config or ToolchainConfig(),
        cache or WcetAnalysisCache(),
    )


def _counting_walks(monkeypatch):
    """Record the id of every task whose footprint is walked from now on."""
    import repro.analysis.footprints as footprints

    walked = []
    walk = footprints.task_footprint

    def counted(function, task, shared=None):
        walked.append(task.task_id)
        return walk(function, task, shared)

    monkeypatch.setattr(footprints, "task_footprint", counted)
    return walked


def _assert_bit_identical(incremental, cold):
    assert incremental.schedule.wcet_bound == cold.schedule.wcet_bound
    assert incremental.schedule.mapping == cold.schedule.mapping
    assert incremental.schedule.order == cold.schedule.order
    assert incremental.sequential_bound == cold.sequential_bound
    inc_res, cold_res = incremental.schedule.result, cold.schedule.result
    assert inc_res.task_effective_wcet == cold_res.task_effective_wcet
    assert inc_res.task_intervals == cold_res.task_intervals


# ---------------------------------------------------------------------- #
# the reuse summary
# ---------------------------------------------------------------------- #
def test_artifact_summary_structure():
    pipe = _pipeline()
    result = pipe.run(_diagram(seed=5))
    summary = result.artifact_summary(pipe.wcet_cache)
    assert set(summary) == {"version", "regions"}
    assert set(summary["regions"]) == {name for name, _ in result.model.block_regions}
    # memoized: second call returns the same object
    assert result.artifact_summary() is summary
    diff = diff_summaries(summary, summary)
    assert not (diff.changed_regions or diff.added_regions or diff.removed_regions)
    assert len(diff.unchanged_regions) == len(summary["regions"])


# ---------------------------------------------------------------------- #
# run_incremental: reuse paths
# ---------------------------------------------------------------------- #
def test_unchanged_model_runs_every_stage():
    pipe = _pipeline()
    base = pipe.run(_diagram(seed=11))
    result = pipe.run_incremental(base, _diagram(seed=11))
    report = result.artifacts["incremental_report"]
    assert [r.name for r in result.stage_records] == [
        "frontend", "transforms", "htg", "schedule", "parallel", "wcet", "certify",
    ]
    assert report.stages_reused == 0
    assert report.stages["htg"] == "incremental"
    assert report.stages["parallel"] == "recomputed"
    # the front end lowers no block, and the passes re-run on no region
    assert report.stages["frontend"] == "incremental"
    assert report.blocks_lowered == report.regions_transformed == 0
    assert all(
        new is old
        for new, old in zip(
            result.model.entry.body.stmts, base.model.entry.body.stmts, strict=True
        )
    )
    # every region keeps its tasks; the race check scans every pair again
    assert report.regions_recomputed == 0
    assert report.regions_reused == len(base.model.block_regions)
    leaves = len(result.htg.leaf_tasks())
    checked = result.stage("parallel").info["race_pairs_checked"]
    assert checked == base.stage("parallel").info["race_pairs_checked"]
    assert checked == leaves * (leaves - 1) // 2
    # warm caches: no code-level analysis runs again
    assert result.cache_stats["misses"] == 0
    _assert_bit_identical(result, base)


def test_single_param_edit_is_incremental_and_bit_identical():
    cache = WcetAnalysisCache()
    pipe = _pipeline(cache=cache)
    base = pipe.run(_diagram(seed=12))
    edited = _diagram(seed=12)
    edited_block = edit_block_param(edited, seed=1)
    result = pipe.run_incremental(base, edited)
    report = result.artifacts["incremental_report"]
    assert report.stages["htg"] == "incremental"
    assert report.regions_recomputed == 1
    assert report.regions_reused == len(base.model.block_regions) - 1
    assert list(report.diff.changed_regions) == [edited_block]
    # only the edited block is lowered, and only its region transformed
    assert report.blocks_lowered == report.regions_transformed == 1
    cold = _pipeline().run(edited)
    _assert_bit_identical(result, cold)
    # the race check scans every pair, as the cold run does
    assert (
        result.stage("parallel").info["race_pairs_checked"]
        == cold.stage("parallel").info["race_pairs_checked"]
    )


def test_edit_rounds_walk_only_the_edited_blocks_footprints(monkeypatch):
    """The race check scans every pair on every run, but a footprint is a
    fact of its task's block: sibling loop chunks need footprint proofs,
    and an edit round walks only the blocks the edit changed."""
    pipe = _pipeline(config=ToolchainConfig(granularity="loop", loop_chunks=2))
    walked = _counting_walks(monkeypatch)
    base = pipe.run(_diagram(seed=12))
    assert walked  # the cold run proved chunk pairs disjoint
    walked.clear()
    again = pipe.run_incremental(base, _diagram(seed=12))
    assert walked == []
    edited = _diagram(seed=12)
    edited_block = edit_block_param(edited, seed=1)
    result = pipe.run_incremental(again, edited)
    assert walked
    assert {result.htg.tasks[tid].origin for tid in walked} == {edited_block}


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_random_edit_scripts_match_cold(seed):
    pipe = _pipeline()
    base = pipe.run(_diagram(seed=seed))
    edited = _diagram(seed=seed)
    random_edit_script(edited, num_edits=2, seed=seed + 1000)
    result = pipe.run_incremental(base, edited)
    _assert_bit_identical(result, _pipeline().run(edited))


def _reextracted(result, prev):
    """Leaf tasks of ``result`` that do not share statements with ``prev``."""
    return [
        task
        for task in result.htg.leaf_tasks()
        if task.task_id not in prev.htg.tasks
        or prev.htg.tasks[task.task_id].statements is not task.statements
    ]


@pytest.mark.parametrize("edit", [insert_gain_block, delete_block])
def test_structural_edits_match_cold(edit, monkeypatch):
    pipe = _pipeline()
    base = pipe.run(_diagram(seed=21))
    edited = _diagram(seed=21)
    edit(edited, seed=2)
    walked = _counting_walks(monkeypatch)
    result = pipe.run_incremental(base, edited)
    walked = list(walked)  # the cold run below walks every block again
    _assert_bit_identical(result, _pipeline().run(edited))
    # an edit that adds or removes declarations re-keys only the regions
    # that reference them: one worst-case and one average-case analysis per
    # re-extracted task, plus the sequential bound of the edited body
    fresh = _reextracted(result, base)
    assert len(fresh) < len(result.htg.leaf_tasks())
    assert result.cache_stats["misses"] <= 2 * len(fresh) + 1
    assert set(walked) <= {task.task_id for task in fresh}


@pytest.mark.parametrize("edit", [insert_gain_block, delete_block])
def test_structural_edits_with_static_pruning_reuse_footprints(edit, monkeypatch):
    config = ToolchainConfig(static_pruning=True)
    pipe = _pipeline(config=config)
    base = pipe.run(_diagram(seed=21))
    edited = _diagram(seed=21)
    edit(edited, seed=2)
    walked = _counting_walks(monkeypatch)
    result = pipe.run_incremental(base, edited)
    walked = list(walked)  # the cold run below walks every block again
    _assert_bit_identical(result, _pipeline(config=config).run(edited))
    # static MHP and the race check walk only re-extracted tasks' blocks,
    # each once
    assert set(walked) <= {task.task_id for task in _reextracted(result, base)}
    assert len(walked) == len(set(walked))


def test_long_array_param_edit_matches_cold():
    # an edit of array-valued parameter data leaves the IR unchanged, yet
    # the incremental run must carry the edited values, not the old ones
    def fir_diagram(taps):
        d = Diagram("fir")
        d.add_block(library.gain("pre", 2.0, size=4))
        d.add_block(library.fir_filter("smooth", taps, size=4))
        d.connect("pre", "y", "smooth", "u")
        d.mark_input("pre", "u")
        d.mark_output("smooth", "y")
        return d

    taps = np.linspace(0.0, 1.0, 2000)
    edited_taps = taps.copy()
    edited_taps[1000] += 0.5
    pipe = _pipeline()
    base = pipe.run(fir_diagram(taps))
    result = pipe.run_incremental(base, fir_diagram(edited_taps))
    cold = _pipeline().run(fir_diagram(edited_taps))
    _assert_bit_identical(result, cold)
    assert result.model.parameter_values.keys() == cold.model.parameter_values.keys()
    for name, value in cold.model.parameter_values.items():
        assert np.array_equal(result.model.parameter_values[name], value), name


def test_platform_cost_tweak_matches_cold():
    base_platform = generic_predictable_multicore(cores=4)
    pipe = _pipeline(platform=base_platform)
    base = pipe.run(_diagram(seed=22))
    tweaked = tweak_platform_costs(base_platform, seed=5)
    warm_pipe = Pipeline(tweaked, ToolchainConfig(), pipe.wcet_cache)
    result = warm_pipe.run_incremental(base, _diagram(seed=22))
    cold = Pipeline(tweaked, ToolchainConfig(), WcetAnalysisCache()).run(
        _diagram(seed=22)
    )
    _assert_bit_identical(result, cold)


def test_everything_changed_recomputes_every_stage():
    pipe = _pipeline()
    base = pipe.run(_diagram(seed=23))
    other_pipe = _pipeline(
        platform=generic_predictable_multicore(cores=3),
        config=ToolchainConfig(granularity="loop"),
        cache=pipe.wcet_cache,
    )
    result = other_pipe.run_incremental(base, _diagram(seed=24, stages=4))
    report = result.artifacts["incremental_report"]
    assert report.stages["htg"] == "recomputed"
    assert report.regions_reused == 0
    cold = Pipeline(
        generic_predictable_multicore(cores=3),
        ToolchainConfig(granularity="loop"),
        WcetAnalysisCache(),
    ).run(_diagram(seed=24, stages=4))
    _assert_bit_identical(result, cold)


def _delayed_diagram():
    """A gain feeding a vector unit delay: the delay's state array is the
    one shared array scratchpad allocation relocates."""
    d = Diagram("delayed")
    d.add_block(library.gain("g", 2.0, size=8))
    d.add_block(library.unit_delay("z", size=8))
    d.connect("g", "y", "z", "u")
    d.mark_input("g", "u")
    d.mark_output("z", "y")
    return d


def test_platform_change_dirties_the_transforms():
    """Scratchpad allocation reads the platform's scratchpads and latencies,
    so a platform-only change must show in the transforms (in the saving
    of the state array it relocates).  Lowering and HTG extraction read no
    platform, so the front end keeps every region, the passes fold their
    memoized per-region facts into the new platform's decision without
    re-running on any region, and extraction decomposes no region."""
    cache = WcetAnalysisCache()
    base = _pipeline(cache=cache).run(_delayed_diagram())
    slower = generic_predictable_multicore(cores=4, shared_latency=16)
    result = _pipeline(slower, cache=cache).run_incremental(base, _delayed_diagram())
    report = result.artifacts["incremental_report"]
    assert report.stages["frontend"] == "incremental"
    assert report.stages["transforms"] == "recomputed"
    assert report.blocks_lowered == report.regions_transformed == 0
    # extraction reads no platform: every region keeps its decomposition
    assert report.stages["htg"] == "incremental"
    assert report.regions_reused == len(base.model.block_regions)
    assert report.regions_recomputed == 0
    cold = _pipeline(generic_predictable_multicore(cores=4, shared_latency=16)).run(
        _delayed_diagram()
    )

    def allocation(run):
        return [r.details for r in run.pass_reports if r.pass_name == "scratchpad_allocation"]

    assert allocation(base)[0]["moved"] == "st_z_z"
    assert allocation(result) == allocation(cold) != allocation(base)
    _assert_bit_identical(result, cold)


def test_cold_run_computes_no_fingerprints(monkeypatch):
    """A cold run builds no reuse summary, and digests its platform once:
    its result keys read the digest through the cache's memo."""
    import repro.analysis.incremental as incremental
    import repro.wcet.cache as cache_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a cold run must not build a reuse summary")

    digested = []
    signature = cache_module.platform_signature
    monkeypatch.setattr(
        cache_module, "platform_signature", lambda p: digested.append(p) or signature(p)
    )
    monkeypatch.setattr(incremental, "summarize_result", forbidden)
    monkeypatch.setattr(incremental, "diff_summaries", forbidden)
    pipe = _pipeline()
    result = pipe.run(_diagram(seed=27))
    assert digested == [pipe.platform]
    assert "incremental_report" not in result.artifacts
    assert set(result.cache_stats) == {"hits", "disk_hits", "misses"}


@pytest.mark.parametrize("replaced", ["frontend", "transforms"])
def test_replacing_one_of_the_front_stages_reruns_both(replaced, monkeypatch):
    """A front stage swapped in :data:`STAGES` for a wrapper under a new
    identity runs on the incremental run, its partner runs too, and neither
    mutates the previous run's IR."""
    from repro.core import pipeline as pipeline_module
    from repro.frontend import compile_diagram

    pipe = _pipeline()
    base = pipe.run(_diagram(seed=29))
    before = pipe.wcet_cache.function_fingerprint(base.model.entry)
    calls = []

    def wrap(name, stage):
        if name != replaced:
            return stage

        def wrapped(context):
            calls.append(name)
            return stage(context)

        return wrapped

    monkeypatch.setattr(
        pipeline_module,
        "STAGES",
        tuple((name, wrap(name, stage)) for name, stage in pipeline_module.STAGES),
    )
    result = pipe.run_incremental(base, _diagram(seed=29))
    assert calls == [replaced]
    assert [r.name for r in result.stage_records][:2] == ["frontend", "transforms"]
    report = result.artifacts["incremental_report"]
    # both ran; the content-identical diagram lowers no block and re-runs
    # no pass on any region
    assert report.stages["frontend"] == "incremental"
    assert report.stages["transforms"] == "recomputed"
    assert report.blocks_lowered == report.regions_transformed == 0
    assert result.model is not base.model
    # nothing mutated the previous run's IR: it fingerprints like a fresh
    # compile, in a cache that never saw it
    fresh = WcetAnalysisCache()
    compiled = fresh.function_fingerprint(compile_diagram(_diagram(seed=29)).entry)
    assert fresh.function_fingerprint(base.model.entry) == before == compiled
    assert fresh.function_fingerprint(base.artifacts["model"].entry) == compiled
    # the new model is content-identical, so every region keeps its tasks
    assert report.regions_recomputed == 0
    _assert_bit_identical(result, _pipeline().run(_diagram(seed=29)))


def test_scheduler_only_change_reuses_every_region():
    pipe = _pipeline()
    base = pipe.run(_diagram(seed=31))
    # another scheduler leaves the transformed code, the platform and the
    # extraction knobs unchanged, so HTG extraction reuses every region
    other = _pipeline(config=ToolchainConfig(scheduler="acet_list"), cache=pipe.wcet_cache)
    result = other.run_incremental(base, _diagram(seed=31))
    report = result.artifacts["incremental_report"]
    assert report.stages["transforms"] == "recomputed"
    assert report.stages["htg"] == "incremental"
    assert report.stages["schedule"] == "recomputed"
    assert report.regions_reused == len(base.model.block_regions)
    assert report.regions_recomputed == 0
    _assert_bit_identical(
        result, _pipeline(config=ToolchainConfig(scheduler="acet_list")).run(_diagram(seed=31))
    )


def _assert_same_round(incremental, cold):
    """Everything an edit round produces equals a cold run's."""
    inc_entry, cold_entry = incremental.model.entry, cold.model.entry
    assert function_to_c(inc_entry) == function_to_c(cold_entry)
    for inc_decls, cold_decls in (
        (inc_entry.params, cold_entry.params),
        (inc_entry.decls, cold_entry.decls),
    ):
        assert [(d.name, d.type, d.storage, d.initial) for d in inc_decls] == [
            (d.name, d.type, d.storage, d.initial) for d in cold_decls
        ]
    assert [
        (r.pass_name, r.function_name, r.changed, r.details) for r in incremental.pass_reports
    ] == [(r.pass_name, r.function_name, r.changed, r.details) for r in cold.pass_reports]
    _assert_bit_identical(incremental, cold)
    assert [r.ok for r in incremental.certificates.reports] == [
        r.ok for r in cold.certificates.reports
    ]
    assert incremental.certificates.ok


@pytest.mark.parametrize("granularity", ["block", "loop"])
@pytest.mark.parametrize("seed", [3, 17, 40])
def test_edit_chains_match_cold_runs(seed, granularity):
    """Each round of a chain of eight seeded edits (parameter edits, block
    insertions and deletions), run incrementally on the previous round,
    equals a cold run of the edited model in a fresh cache: the transformed
    entry function (C text and declaration lists, in order), the pass
    reports and every result field, certificate verdicts included."""
    config = ToolchainConfig(granularity=granularity, certify=True)
    pipe = _pipeline(config=config)
    diagram = _diagram(seed=seed, stages=4, width=3)
    previous = pipe.run(copy.deepcopy(diagram))
    for step in range(8):
        random_edit_script(diagram, num_edits=1, seed=seed * 100 + step)
        result = pipe.run_incremental(previous, copy.deepcopy(diagram))
        cold = _pipeline(config=config).run(copy.deepcopy(diagram))
        _assert_same_round(result, cold)
        report = result.artifacts["incremental_report"]
        assert report.blocks_lowered < len(diagram.blocks)
        previous = result


def test_chained_incremental_runs():
    pipe = _pipeline()
    previous = pipe.run(_diagram(seed=26))
    for step in range(3):
        edited = _diagram(seed=26)
        random_edit_script(edited, num_edits=step + 1, seed=step)
        previous = pipe.run_incremental(previous, edited)
        _assert_bit_identical(previous, _pipeline().run(edited))


# ---------------------------------------------------------------------- #
# report replay (satellite)
# ---------------------------------------------------------------------- #
def test_finding_provenance_validation():
    finding = Finding(code="x", message="m")
    assert finding.provenance == "computed"
    assert finding.as_dict()["provenance"] == "computed"
    with pytest.raises(ValueError):
        Finding(code="x", message="m", provenance="guessed")


def test_mark_reused_sets_provenance():
    report = AnalysisReport("demo")
    report.add(Finding(code="a", message="m", severity="warning"))
    reused = mark_reused(report)
    assert all(f.provenance == "reused" for f in reused.findings)
    assert reused.checked["reused"] == 1
    # the original is untouched
    assert all(f.provenance == "computed" for f in report.findings)


# ---------------------------------------------------------------------- #
# diff CLI
# ---------------------------------------------------------------------- #
def test_diff_cli_same_target(capsys):
    from repro.cli import main

    assert main(["diff", "polka", "polka"]) == 0
    out = capsys.readouterr().out
    assert "stage htg        incremental" in out
    assert "changed functions: (none)" in out
    assert "replayed (provenance=reused)" in out


def test_diff_cli_json(capsys):
    import json

    from repro.cli import main

    assert main(["diff", "polka", "polka", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["regions_recomputed"] == 0
    assert payload["report"]["diff"]["changed_regions"] == []
    assert payload["code_level_replayed"] is True
    assert payload["old_wcet_bound"] == payload["new_wcet_bound"]


def test_diff_cli_unknown_target():
    from repro.cli import main

    assert main(["diff", "polka", "no_such_target"]) == 2
