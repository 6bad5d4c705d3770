"""The simulator's ready heap against the former rescanning loop.

``oracle_simulate`` keeps the former ``simulate_parallel_program`` loop:
per pick it sorted every pending task by (core, position) and ran the
first ready one, and in the ``dynamic`` mode it scanned every simulated
task for overlapping sharer windows.  The product picks from a heap keyed
by (core, position) and counts contenders from per-core lists of sharer
windows; on random designs, in both modes, every interval, duration,
shared-access count and output must be equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.adl.platforms import generic_predictable_multicore, kit_leon3_inoc
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.interpreter import Interpreter
from repro.ir.program import Storage
from repro.ir.expressions import ArrayRef, Const
from repro.ir.statements import Assign, Block
from repro.parallel import build_parallel_program
from repro.scheduling.schedule import Schedule, default_core_order, evaluate_mapping
from repro.sim import simulate_parallel_program
from repro.sim.executor import SimulationResult, _trace_cost
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.intervals import Interval
from repro.utils.rng import make_rng
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache


def oracle_simulate(program, htg, function, platform, inputs=None, contention="static"):
    """The former simulation loop, verbatim."""
    schedule = program.schedule
    schedule.validate(htg, platform)
    mapping = schedule.mapping
    interpreter = Interpreter()
    env = interpreter.initial_environment(function, inputs)
    models = {
        core: HardwareCostModel(platform, core)
        for core in {mapping[tid] for tid in mapping}
    }
    order = schedule.order
    position = {tid: (core, idx) for core, tids in order.items() for idx, tid in enumerate(tids)}
    finish, start, durations, shared_by_task = {}, {}, {}, {}
    pending = {t.task_id for t in htg.leaf_tasks()}
    comm_contenders = max(0, platform.num_cores - 1)
    analysed_contenders = schedule.result.task_contenders if schedule.result else {}
    while pending:
        for tid in sorted(pending, key=lambda t: (position[t][0], position[t][1])):
            core, idx = position[tid]
            preds = htg.predecessors(tid)
            if any(p in pending for p in preds):
                continue
            if idx > 0 and order[core][idx - 1] in pending:
                continue
            stats = interpreter.run_statements(htg.task(tid).statements, env)
            base_cycles, shared_accesses = _trace_cost(stats, function, models[core])
            shared_by_task[tid] = shared_accesses
            ready_core = finish[order[core][idx - 1]] if idx > 0 else 0.0
            ready_deps = 0.0
            for p in preds:
                delay = 0.0
                if mapping[p] != core:
                    edge = htg.edge(p, tid)
                    payload = edge.payload_bytes if edge else 0
                    if payload:
                        delay = platform.communication_latency(
                            payload, mapping[p], core, comm_contenders
                        )
                ready_deps = max(ready_deps, finish[p] + delay)
            task_start = max(ready_core, ready_deps)
            if contention == "static":
                contenders = analysed_contenders.get(tid, 0)
            else:
                window = Interval(task_start, task_start + max(base_cycles, 1e-9))
                contenders = len(
                    {
                        mapping[other]
                        for other, iv in zip(
                            start.keys(), (Interval(start[o], finish[o]) for o in start)
                        )
                        if mapping[other] != core
                        and iv.overlaps(window)
                        and shared_by_task.get(other, 0) > 0
                    }
                )
            duration = base_cycles + shared_accesses * platform.shared_access_penalty(contenders)
            start[tid] = task_start
            finish[tid] = task_start + duration
            durations[tid] = duration
            pending.discard(tid)
            break
    intervals = {tid: Interval(start[tid], finish[tid]) for tid in start}
    per_core_busy = {}
    for tid, duration in durations.items():
        per_core_busy[mapping[tid]] = per_core_busy.get(mapping[tid], 0.0) + duration
    return SimulationResult(
        makespan=max((iv.end for iv in intervals.values()), default=0.0),
        task_intervals=intervals,
        task_durations=durations,
        env=env,
        task_shared_accesses=shared_by_task,
        per_core_busy=per_core_busy,
    )


def assert_same_runs(program, htg, function, platform, inputs):
    for mode in ("static", "dynamic"):
        want = oracle_simulate(program, htg, function, platform, dict(inputs), mode)
        got = simulate_parallel_program(program, htg, function, platform, dict(inputs), mode)
        assert got.task_intervals == want.task_intervals, mode
        assert list(got.task_intervals) == list(want.task_intervals), mode
        assert got.task_durations == want.task_durations, mode
        assert got.task_shared_accesses == want.task_shared_accesses, mode
        assert got.per_core_busy == want.per_core_busy, mode
        assert got.makespan == want.makespan, mode
        assert got.env.keys() == want.env.keys(), mode
        for name, value in want.env.items():
            assert np.array_equal(got.env[name], value), (mode, name)


@given(
    kernels=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    chunks=st.sampled_from([1, 2, 3]),
    cores=st.sampled_from([1, 2, 3, 4]),
    noc=st.booleans(),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_random_designs_match_the_former_loop(kernels, seed, chunks, cores, noc, data):
    model = synthetic_compiled_model(num_kernels=kernels, vector_size=12, seed=seed)
    granularity = "block" if chunks == 1 else "loop"
    htg = extract_htg(model, ExtractionOptions(granularity=granularity, loop_chunks=chunks))
    # empty tasks spliced between neighbours of the topological order
    topological = [t.task_id for t in htg.topological_tasks()]
    tasks, edges = list(htg.tasks.values()), {(e.src, e.dst): e for e in htg.edges}
    for k, at in enumerate(data.draw(st.lists(st.integers(0, len(topological)), max_size=3))):
        tid = f"t_empty{k}"
        tasks.append(Task(tid, TaskKind.BLOCK, Block()))
        if at:
            edges[(topological[at - 1], tid)] = TaskEdge(topological[at - 1], tid, 8)
        if at < len(topological):
            edges[(tid, topological[at])] = TaskEdge(tid, topological[at])
    htg = HierarchicalTaskGraph.from_edges(htg.name, tasks, edges)
    platform = (
        kit_leon3_inoc(mesh_width=2, mesh_height=2, cores_per_tile=1)
        if noc
        else generic_predictable_multicore(cores=cores)
    )
    core_ids = [c.core_id for c in platform.cores]
    leaves = [t.task_id for t in htg.leaf_tasks()]
    mapping = dict(zip(leaves, data.draw(st.lists(
        st.sampled_from(core_ids), min_size=len(leaves), max_size=len(leaves)
    ))))
    design = SystemDesign(htg, model.entry, platform, WcetAnalysisCache())
    schedule = evaluate_mapping(design, mapping, default_core_order(htg, mapping))
    program = build_parallel_program(htg, model.entry, platform, schedule)
    rng = make_rng(seed)
    inputs = {
        decl.name: rng.uniform(-2.0, 2.0, size=decl.type.shape)
        for decl in model.entry.all_decls()
        if decl.storage is Storage.INPUT
    }
    assert_same_runs(program, htg, model.entry, platform, inputs)


@given(
    n=st.integers(1, 14),
    edge_bits=st.lists(st.booleans(), min_size=91, max_size=91),
    writes=st.lists(st.integers(0, 3), min_size=14, max_size=14),
    cores=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_empty_tasks_match_the_former_loop(n, edge_bits, writes, cores, data):
    """Hand-built DAGs of empty tasks and tasks writing 0-3 shared
    elements, with free (zero-payload) edges: zero-cycle windows, and
    sharer windows that end exactly where another core's task starts."""
    fb = FunctionBuilder("empty")
    buf = fb.shared_array("buf", (4,))
    fb.assign(fb.at(buf, 0), 1.0)
    function = fb.build()
    tids = [f"t{i:02d}" for i in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {
        (tids[u], tids[v]): TaskEdge(tids[u], tids[v], payload_bytes=8 * (u % 3))
        for (u, v), bit in zip(pairs, edge_bits)
        if bit
    }
    tasks = [
        Task(
            tid,
            TaskKind.BLOCK,
            Block([Assign(ArrayRef("buf", (Const(k),)), Const(1.0)) for k in range(count)]),
            writes={"buf"} if count else set(),
        )
        for tid, count in zip(tids, writes)
    ]
    htg = HierarchicalTaskGraph.from_edges("empty", tasks, edges)
    platform = generic_predictable_multicore(cores=cores)
    mapping = {tid: data.draw(st.integers(0, cores - 1)) for tid in tids}
    order = default_core_order(htg, mapping)
    schedule = Schedule("empty", mapping, order)
    program = build_parallel_program(htg, function, platform, schedule)
    assert_same_runs(program, htg, function, platform, {})
