"""The key of the footprint memo (:class:`repro.analysis.footprints.FootprintStore`).

A footprint is memoized in the region memo of the task's statements block,
keyed by the declarations of the names the block references and the task
declares, and by the task's declared read/write sets.  One cache serves
designs whose functions declare the same blocks' names differently (a
scratchpad allocation that moves an array on one platform and not on the
other) and tasks that share a block but declare different sets: every
memoized footprint must equal a fresh walk, and every race report a check
through a fresh cache.  A key that missed the context or the declared sets
would hand one of them the other's footprint.
"""

import pytest

import repro.analysis.footprints as footprints_module
from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.footprints import task_footprint
from repro.analysis.races import incremental_race_check
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.expressions import ArrayRef, Const, Var
from repro.ir.statements import Assign, Block, For
from repro.ir.types import INT
from repro.model import library
from repro.model.diagram import Diagram
from repro.usecases import ALL_USECASES
from repro.wcet.cache import WcetAnalysisCache

CONFIGS = [ToolchainConfig(granularity="block")] + [
    ToolchainConfig(granularity="loop", loop_chunks=chunks) for chunks in (2, 3, 4)
]


def _platforms():
    # the scratchpad pass moves the delay's 2 KiB state array into the
    # 64 KiB scratchpads of the first platform, not into the 1 KiB ones
    return (
        generic_predictable_multicore(cores=4),
        generic_predictable_multicore(cores=2, spm_kib=1),
    )


def _delayed_diagram():
    d = Diagram("delayed")
    d.add_block(library.gain("g", 2.0, size=512))
    d.add_block(library.unit_delay("z", size=512))
    d.add_block(library.gain("post", 3.0, size=512))
    d.connect("g", "y", "z", "u")
    d.connect("z", "y", "post", "u")
    d.mark_input("g", "u")
    d.mark_output("post", "y")
    return d


def _counting_walks(monkeypatch):
    walked = []
    walk = footprints_module.task_footprint

    def counted(function, task, shared=None):
        walked.append(task.task_id)
        return walk(function, task, shared)

    monkeypatch.setattr(footprints_module, "task_footprint", counted)
    return walked


def _race_reports(result, store):
    schedule = result.schedule
    report, _ = incremental_race_check(
        result.htg, schedule.mapping, schedule.order, result.model.entry, store=store
    )
    return [f.as_dict() for f in report.findings], report.checked


def test_one_cache_over_use_cases_knobs_and_platforms(monkeypatch):
    cache = WcetAnalysisCache()
    builders = [builder for builder, _ in ALL_USECASES.values()] + [_delayed_diagram]
    walked = _counting_walks(monkeypatch)
    cache_walks = lookups = 0
    moved = {}
    for builder in builders:
        for config in CONFIGS:
            for platform in _platforms():
                start = len(walked)
                result = Pipeline(platform, config, cache).run(builder())
                function = result.model.entry
                for task in result.htg.leaf_tasks():
                    # ``task_footprint`` here is the unpatched walk
                    assert cache.footprints.footprint(function, task) == task_footprint(
                        function, task
                    ), task.task_id
                memo = _race_reports(result, cache.footprints)
                cache_walks += len(walked) - start
                lookups += len(result.htg.leaf_tasks())
                assert memo == _race_reports(result, WcetAnalysisCache().footprints)
                if builder is _delayed_diagram:
                    (allocation,) = (
                        r.details for r in result.pass_reports
                        if r.pass_name == "scratchpad_allocation"
                    )
                    moved[config.granularity, config.loop_chunks, platform.name] = (
                        allocation["moved"]
                    )
    # the same blocks, declared differently by the two platforms' functions
    assert set(moved.values()) == {"st_z_z", ""}
    # designs sharing blocks and declarations walk each block once
    assert 0 < cache_walks < lookups / 2


def test_a_context_change_walks_the_block_again(monkeypatch):
    cache = WcetAnalysisCache()
    moving, keeping = _platforms()
    config = ToolchainConfig(granularity="loop", loop_chunks=3)
    first = Pipeline(moving, config, cache).run(_delayed_diagram())
    walked = _counting_walks(monkeypatch)
    second = Pipeline(keeping, config, cache).run(_delayed_diagram())
    delay_tasks = [t for t in second.htg.leaf_tasks() if t.origin == "z"]
    assert all(
        t.statements is first.htg.tasks[t.task_id].statements for t in delay_tasks
    )
    for task in delay_tasks:
        moved_fp = cache.footprints.footprint(first.model.entry, task)
        kept_fp = cache.footprints.footprint(second.model.entry, task)
        assert "st_z_z" in kept_fp.array_reads or "st_z_z" in kept_fp.array_writes
        assert "st_z_z" not in moved_fp.array_reads | moved_fp.array_writes
        assert kept_fp == task_footprint(second.model.entry, task)
    # only the blocks that reference the relocated array were walked again
    assert {second.htg.tasks[tid].origin for tid in walked} <= {"z"}


def _loop_block():
    i = Var("i", INT)
    body = Block([Assign(ArrayRef("buf", (i,)), Const(1.0))])
    return Block([For(index=i, lower=Const(0), upper=Const(4), body=body)])


def _function(other_storage: str):
    fb = FunctionBuilder("f")
    buf = fb.shared_array("buf", (8,))
    if other_storage == "shared":
        fb.shared_array("other", (8,))
    else:
        fb.local_array("other", (8,))
    fb.assign(fb.at(buf, 0), 1.0)
    return fb.build()


@pytest.mark.parametrize("order", ["shared_first", "local_first"])
def test_hand_built_tasks_sharing_one_block(order):
    """Tasks over one block, declaring different sets, under functions that
    declare a declared-only name differently: each gets its own walk."""
    block = _loop_block()
    tasks = [
        Task("w", TaskKind.LOOP_CHUNK, block, writes={"buf"}),
        Task("wr", TaskKind.LOOP_CHUNK, block, reads={"other"}, writes={"buf"}),
        Task("ww", TaskKind.LOOP_CHUNK, block, writes={"buf", "other"}),
        Task("bare", TaskKind.LOOP_CHUNK, block),
    ]
    functions = [_function("shared"), _function("local")]
    if order == "local_first":
        functions.reverse()
    cache = WcetAnalysisCache()
    for function in functions:
        for task in tasks:
            assert cache.footprints.footprint(function, task) == task_footprint(
                function, task
            ), (function.lookup("other").storage, task.task_id)
    shared_fn = next(f for f in functions if f.lookup("other").storage.name == "SHARED")
    assert cache.footprints.footprint(shared_fn, tasks[1]).array_reads["other"].is_top
    assert "other" not in cache.footprints.footprint(shared_fn, tasks[0]).array_reads
