"""Independent checks of the parallel program's sync placement.

``build_parallel_program`` emits a signal/wait pair only for a cross-core
dependence that no other happens-before successor of its source reaches.
These tests re-derive what that must mean without the product's closure:

* the happens-before order of the printed program -- each core's items
  in order plus one signal -> wait edge per flag -- computed by a plain
  DFS, orders every HTG dependence;
* the kept pairs are exactly the cross-core edges of networkx's
  transitive reduction of the dependences plus each core's chain;
* each flag is signalled once, waited on once and mapped once;
* the race report over the program's own order equals the report over
  the schedule's order;
* dropping a kept pair makes the C emitter refuse the program.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.races as races
from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.analysis.races import check_races, scan_races
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir import analysis as ir_analysis
from repro.ir.statements import Block
from repro.parallel import build_parallel_program, parallel_program_to_c
from repro.parallel.codegen import CodegenRaceError
from repro.parallel.model import CoreProgram, ParallelProgram, SyncOp
from repro.scheduling.schedule import Schedule
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import random_pipeline_diagram
from repro.utils.graphs import Reachability
from repro.wcet import WcetAnalysisCache

PRESETS = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "xentium": recore_xentium_like,
    "kit": kit_leon3_inoc,
}
EXTRACTION = [("block", 1), ("loop", 2), ("loop", 3), ("loop", 4)]
SCHEDULERS = ("wcet_list", "acet_list", "simulated_annealing")


# ---------------------------------------------------------------------- #
# the program's own order, re-derived without Reachability
# ---------------------------------------------------------------------- #
def program_successors(program: ParallelProgram) -> dict[str, set[str]]:
    """Task -> the tasks the program runs directly after it: the next task
    on its core, and the task after each wait on a flag it signals."""
    succ: dict[str, set[str]] = defaultdict(set)
    signalled_after: dict[str, str] = {}
    waited_before: dict[str, list[str]] = defaultdict(list)
    for core_program in program.core_programs.values():
        last, waits = None, []
        for item in core_program.items:
            if isinstance(item, SyncOp):
                if item.kind == "signal":
                    assert item.flag not in signalled_after, item.flag
                    assert last is not None, item
                    signalled_after[item.flag] = last
                else:
                    waits.append(item.flag)
                continue
            if last is not None:
                succ[last].add(item)
            for flag in waits:
                waited_before[flag].append(item)
            last, waits = item, []
    for flag, source in signalled_after.items():
        succ[source].update(waited_before[flag])
    return succ


def reachable(succ: dict[str, set[str]], start: str) -> set[str]:
    seen: set[str] = set()
    stack = list(succ[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(succ[node])
    return seen


def kept_pairs(program: ParallelProgram) -> dict[str, tuple[str, str]]:
    """Flag -> (signalling task, waiting task)."""
    ops = [op for cp in program.core_programs.values() for op in cp.sync_ops()]
    signals = {op.flag: op.task_id for op in ops if op.kind == "signal"}
    waits = {op.flag: op.task_id for op in ops if op.kind == "wait"}
    assert signals.keys() == waits.keys()
    return {flag: (signals[flag], waits[flag]) for flag in signals}


def reduction_cross_edges(htg, schedule) -> set[tuple[str, str]]:
    graph = nx.DiGraph(htg.edge_pairs())
    graph.add_nodes_from(htg.tasks)
    for tids in schedule.order.values():
        graph.add_edges_from(zip(tids, tids[1:]))
    return {
        (u, v)
        for u, v in nx.transitive_reduction(graph).edges
        if schedule.mapping[u] != schedule.mapping[v]
    }


def without_flag(program: ParallelProgram, flag: str) -> ParallelProgram:
    """The program with one flag's signal, wait and memory word removed."""
    return replace(
        program,
        core_programs={
            core: CoreProgram(
                core,
                [i for i in cp.items if not (isinstance(i, SyncOp) and i.flag == flag)],
            )
            for core, cp in program.core_programs.items()
        },
        memory_map={name: at for name, at in program.memory_map.items() if name != flag},
    )


def shared_conflict(htg, function, src: str, dst: str) -> bool:
    arrays, scalars = ir_analysis.shared_names(function)
    a, b = htg.task(src), htg.task(dst)
    return bool((a.writes & (b.reads | b.writes) | a.reads & b.writes) & (arrays | scalars))


def report_fields(report):
    return [f.as_dict() for f in report.findings], dict(report.checked)


def check_program(program, htg, function, drops: int | None = 0) -> None:
    """Every property of the module docstring; ``drops`` kept pairs (all
    when ``None``) are dropped one at a time and must be refused."""
    schedule = program.schedule
    mapping = schedule.mapping
    # one signal, one wait, one memory word per flag
    ops = [op for cp in program.core_programs.values() for op in cp.sync_ops()]
    flags = sorted(op.flag for op in ops)
    assert flags == sorted(2 * list({op.flag for op in ops}))
    assert sorted(name for name in program.memory_map if name.startswith("flag_")) == sorted(
        set(flags)
    )
    pairs = kept_pairs(program)
    assert len(set(pairs.values())) == len(pairs)
    for src, dst in pairs.values():
        assert mapping[src] != mapping[dst]
        assert htg.edge(src, dst) is not None
    # the kept pairs are the reduction's cross-core edges
    assert set(pairs.values()) == reduction_cross_edges(htg, schedule)
    # the program alone orders every dependence
    succ = program_successors(program)
    after: dict[str, set[str]] = {}
    for edge in htg.edges:
        if edge.src not in after:
            after[edge.src] = reachable(succ, edge.src)
        assert edge.dst in after[edge.src], (edge.src, edge.dst)
    # the race report over the program's order is the schedule's
    program_order = Reachability(
        htg.tasks.keys(), [(u, v) for u, vs in succ.items() for v in vs]
    )
    report = check_races(htg, mapping, schedule.order, function)
    assert report_fields(scan_races(htg, mapping, function, program_order)) == report_fields(
        report
    )
    if not report.count("error"):
        parallel_program_to_c(program, htg, function)
    # a dropped pair is refused, and named as a race when it carries one
    chosen = sorted(pairs.items())
    for flag, (src, dst) in chosen if drops is None else chosen[:drops]:
        with pytest.raises(CodegenRaceError) as refused:
            parallel_program_to_c(without_flag(program, flag), htg, function)
        assert f"dependence {src} -> {dst} is not ordered" in str(refused.value)
        a, b = htg.task(src), htg.task(dst)
        siblings = a.parent is not None and a.parent == b.parent
        if shared_conflict(htg, function, src, dst) and not siblings:
            message = str(refused.value)
            assert f"{src}<->{dst}" in message or f"{dst}<->{src}" in message


# ---------------------------------------------------------------------- #
# the use cases on every shipped preset, granularity and scheduler
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("usecase", sorted(ALL_USECASES))
def test_use_cases_on_every_preset(usecase, preset):
    platform = PRESETS[preset]()
    pipeline_cache = WcetAnalysisCache()
    for granularity, chunks in EXTRACTION:
        for scheduler in SCHEDULERS:
            config = ToolchainConfig(
                granularity=granularity, loop_chunks=chunks, scheduler=scheduler
            )
            result = Pipeline(platform, config, pipeline_cache).run(
                ALL_USECASES[usecase][0]()
            )
            program = result.parallel_program
            # drop every kept pair of one design per granularity
            drops = None if scheduler == "wcet_list" else 2
            check_program(program, result.htg, result.model.entry, drops)


@pytest.mark.parametrize("seed", range(4))
def test_random_pipeline_models(seed):
    diagram = random_pipeline_diagram(stages=4 + seed, width=3, vector_size=16, seed=seed)
    platform = PRESETS[("generic4", "xentium", "generic8", "kit")[seed]]()
    config = ToolchainConfig(granularity="loop", loop_chunks=2 + seed % 3)
    result = Pipeline(platform, config, WcetAnalysisCache()).run(diagram)
    check_program(result.parallel_program, result.htg, result.model.entry, drops=None)


# ---------------------------------------------------------------------- #
# Hypothesis DAGs: random mappings and dependence-consistent core orders
# ---------------------------------------------------------------------- #
SHARED = ("b0", "b1", "b2")


def _function():
    fb = FunctionBuilder("dag")
    for name in SHARED:
        fb.shared_array(name, (4,))
    return fb.build()


@given(
    n=st.integers(2, 16),
    cores=st.integers(2, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_random_dags(n, cores, data):
    tids = [f"t{i:02d}" for i in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = st.sets(st.sampled_from(SHARED + ("local",)), max_size=2)
    tasks = [
        Task(tid, TaskKind.BLOCK, Block(), reads=data.draw(names), writes=data.draw(names))
        for tid in tids
    ]
    edges = {
        (tids[u], tids[v]): TaskEdge(tids[u], tids[v])
        for (u, v), bit in zip(pairs, bits)
        if bit
    }
    htg = HierarchicalTaskGraph.from_edges("dag", tasks, edges)
    mapping = {tid: data.draw(st.integers(0, cores - 1)) for tid in tids}
    # a random linear extension of the dependences, split by core
    graph = nx.DiGraph(list(edges))
    graph.add_nodes_from(tids)
    sequence = []
    while graph:
        ready = sorted(node for node, degree in graph.in_degree() if degree == 0)
        node = data.draw(st.sampled_from(ready))
        sequence.append(node)
        graph.remove_node(node)
    order = {c: [t for t in sequence if mapping[t] == c] for c in range(cores)}
    order = {c: row for c, row in order.items() if row}
    schedule = Schedule("dag", mapping, order)
    platform = generic_predictable_multicore(cores=cores)
    program = build_parallel_program(htg, _function(), platform, schedule)
    check_program(program, htg, _function(), drops=None)


# ---------------------------------------------------------------------- #
# hand-built programs, and the one closure per schedule
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("names", [{"b0"}, {"local"}], ids=["shared", "local"])
def test_program_without_the_sync_of_a_dependence_is_refused(names):
    htg = HierarchicalTaskGraph.from_edges(
        "pair",
        [
            Task("t1", TaskKind.BLOCK, Block(), writes=set(names)),
            Task("t2", TaskKind.BLOCK, Block(), reads=set(names)),
        ],
        {("t1", "t2"): TaskEdge("t1", "t2")},
    )
    schedule = Schedule("pair", {"t1": 0, "t2": 1}, {0: ["t1"], 1: ["t2"]})
    platform = generic_predictable_multicore(cores=2)
    program = build_parallel_program(htg, _function(), platform, schedule)
    assert program.num_sync_ops == 2
    parallel_program_to_c(program, htg, _function())
    bare = ParallelProgram(
        "pair_parallel",
        {0: CoreProgram(0, ["t1"]), 1: CoreProgram(1, ["t2"])},
        {},
        schedule,
        platform.name,
    )
    with pytest.raises(CodegenRaceError, match="dependence t1 -> t2 is not ordered"):
        parallel_program_to_c(bare, htg, _function())
    # a wait nobody signals, or a wait in a cycle, would never return
    flag = "flag_0_t1__t2"
    unsignalled = without_flag(program, flag)
    unsignalled.core_programs[1].items.insert(0, SyncOp("wait", flag, 0, "t2"))
    with pytest.raises(CodegenRaceError, match="never signalled"):
        parallel_program_to_c(unsignalled, htg, _function())
    cyclic = ParallelProgram(
        "pair_parallel",
        {
            0: CoreProgram(0, [SyncOp("wait", "g", 1, "t1"), "t1", SyncOp("signal", "f", 1, "t1")]),
            1: CoreProgram(1, [SyncOp("wait", "f", 0, "t2"), "t2", SyncOp("signal", "g", 0, "t2")]),
        },
        {},
        schedule,
        platform.name,
    )
    with pytest.raises(CodegenRaceError, match="waits on itself"):
        parallel_program_to_c(cyclic, htg, _function())


def test_one_closure_per_schedule(monkeypatch):
    """The race check builds the schedule's closure, and the order check
    and the sync placement read it: a run builds exactly one."""
    built = []
    closure = races.happens_before
    monkeypatch.setattr(races, "happens_before", lambda *a: built.append(a) or closure(*a))
    platform = generic_predictable_multicore(cores=4)
    config = ToolchainConfig(granularity="loop", loop_chunks=3)
    result = Pipeline(platform, config, WcetAnalysisCache()).run(ALL_USECASES["polka"][0]())
    assert len(built) == 1
    assert result.parallel_program.num_sync_ops
