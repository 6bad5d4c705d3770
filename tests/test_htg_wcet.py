"""Tests for HTG extraction and the WCET analyses (code & system level)."""

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.frontend import compile_diagram
from repro.htg import extract_htg, is_parallelizable_loop
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import TaskKind
from repro.ir import FunctionBuilder, BinOp, Const
from repro.ir.analysis import shared_names
from repro.model import Diagram, library
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import random_pipeline_diagram
from repro.wcet import (
    HardwareCostModel,
    SystemDesign,
    WcetAnalysisCache,
    analyze_function_wcet,
    ipet_wcet,
    system_level_wcet,
)
from repro.wcet.system_level import SystemWcetError, contention_oblivious_bound

from graph_reference import critical_path


def small_pipeline(size=16):
    d = Diagram("pipe")
    d.add_block(library.gain("a", 2.0, size=size))
    d.add_block(library.saturation("b", 0.0, 10.0, size=size))
    d.add_block(library.scalar_max("c", size))
    d.connect("a", "y", "b", "u")
    d.connect("b", "y", "c", "u")
    d.mark_input("a", "u")
    d.mark_output("c", "y")
    return compile_diagram(d)


@pytest.fixture(scope="module")
def pipeline_model():
    return small_pipeline()


@pytest.fixture(scope="module")
def platform4():
    return generic_predictable_multicore(cores=4)


class TestParallelizableLoopDetection:
    def test_elementwise_loop_is_parallel(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        with fb.loop("i", 0, 8) as i:
            fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
        loop = fb.build().body.stmts[0]
        assert is_parallelizable_loop(loop)

    def test_reduction_is_not_parallel(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        acc = fb.local("acc")
        fb.assign(acc, 0.0)
        with fb.loop("i", 0, 8) as i:
            fb.assign(acc, acc + fb.at(x, i))
        loop = fb.build().body.stmts[1]
        assert not is_parallelizable_loop(loop)

    def test_temporary_def_first_is_parallel(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        t = fb.local("t")
        with fb.loop("i", 0, 8) as i:
            fb.assign(t, fb.at(x, i) * 2.0)
            fb.assign(fb.at(y, i), t + 1.0)
        loop = fb.build().body.stmts[0]
        assert is_parallelizable_loop(loop)

    def test_stencil_write_is_not_parallel(self):
        fb = FunctionBuilder("f")
        y = fb.output_array("y", (8,))
        with fb.loop("i", 0, 7) as i:
            fb.assign(fb.at(y, BinOp("+", i, Const(1))), fb.at(y, i))
        loop = fb.build().body.stmts[0]
        assert not is_parallelizable_loop(loop)


class TestHtgExtraction:
    def test_block_granularity(self, pipeline_model):
        htg = extract_htg(pipeline_model, ExtractionOptions(granularity="block"))
        htg.validate()
        names = {t.origin for t in htg.leaf_tasks()}
        assert {"a", "b", "c"} <= names
        # pipeline: a -> b -> c dependences exist
        pairs = htg.reachability().pairs()
        a_task = next(t.task_id for t in htg.leaf_tasks() if t.origin == "a")
        c_task = next(t.task_id for t in htg.leaf_tasks() if t.origin == "c")
        assert (a_task, c_task) in pairs

    def test_loop_granularity_creates_chunks(self, pipeline_model):
        htg = extract_htg(pipeline_model, ExtractionOptions(granularity="loop", loop_chunks=4))
        htg.validate()
        chunks = [t for t in htg.leaf_tasks() if t.kind is TaskKind.LOOP_CHUNK]
        assert len(chunks) >= 4
        # chunks of the same parent must not depend on each other
        pairs = htg.reachability().pairs()
        for x in chunks:
            for y in chunks:
                if x.parent == y.parent and x.task_id != y.task_id:
                    assert (x.task_id, y.task_id) not in pairs

    def test_shared_access_annotation(self, pipeline_model, platform4):
        """Every task of the pipeline touches a shared buffer, by the one
        count the interference bound reads: the code-level analysis's."""
        htg = extract_htg(pipeline_model)
        design = SystemDesign(htg, pipeline_model.entry, platform4, WcetAnalysisCache())
        for i in range(len(design.tasks)):
            assert design.cost(i, 0)[1] > 0

    def test_edge_payloads_are_buffer_sizes(self, pipeline_model):
        htg = extract_htg(pipeline_model)
        payloads = [e.payload_bytes for e in htg.edges if e.payload_bytes > 0]
        assert payloads
        assert all(p == 16 * 4 for p in payloads)

    def test_critical_path_and_total(self, pipeline_model, platform4):
        htg = extract_htg(pipeline_model)
        design = SystemDesign(htg, pipeline_model.entry, platform4, WcetAnalysisCache())
        total = sum(design.cost(i, 0)[0] for i in range(len(design.tasks)))
        assert 0 < critical_path(design) <= total + 1e-9

    @pytest.mark.parametrize("chunks", [2, 4])
    def test_every_loop_chunk_follows_earlier_readers(self, chunks):
        """A unit delay's consumer reads the delay's output buffer before
        the delay overwrites it, so each chunk of the overwriting loop needs
        the write-after-read edges, not only the first (which alone got them
        once, and the race check refused the schedule)."""
        from repro.core.config import ToolchainConfig
        from repro.core.pipeline import Pipeline

        def delayed():
            d = Diagram("delayed")
            d.add_block(library.gain("pre", 2.0, size=8))
            d.add_block(library.unit_delay("dA", size=8))
            d.add_block(library.gain("post", 3.0, size=8))
            d.connect("pre", "y", "dA", "u")
            d.connect("dA", "y", "post", "u")
            d.mark_input("pre", "u")
            d.mark_output("post", "y")
            return d

        platform = generic_predictable_multicore(cores=chunks)
        pipeline = Pipeline(
            platform,
            ToolchainConfig(granularity="loop", loop_chunks=chunks),
            WcetAnalysisCache(),
        )
        result = pipeline.run(delayed())
        htg = result.htg
        readers = [t.task_id for t in htg.leaf_tasks() if t.parent == "t_post"]
        writers = [
            t.task_id for t in htg.leaf_tasks()
            if t.parent == "t_dA" and t.kind is TaskKind.LOOP_CHUNK
        ]
        assert len(readers) == len(writers) == chunks
        for reader in readers:
            for writer in writers:
                assert htg.edge(reader, writer) is not None, (reader, writer)
        u = np.linspace(-1.0, 1.0, 8)
        sim = pipeline.simulate(result, {"pre.u": u})
        want = delayed().simulate(steps=1, input_provider={"pre.u": u})[0]["post.y"]
        assert np.array_equal(sim.env[result.model.output_key("post", "y")], want)
        assert sim.makespan <= result.system_wcet

    def test_invalid_granularity(self, pipeline_model):
        with pytest.raises(ValueError):
            extract_htg(pipeline_model, ExtractionOptions(granularity="bogus"))

    @pytest.mark.parametrize(
        "build, granularity, chunks",
        [
            *((lambda seed=seed: random_pipeline_diagram(4, 3, 12, seed=seed), "loop", chunks)
              for seed in (2, 7) for chunks in (1, 3, 6)),
            *((ALL_USECASES[name][0], kind, chunks)
              for name in ("egpws", "polka", "weaa")
              for kind, chunks in (("block", 1), ("loop", 4))),
        ],
    )
    def test_bulk_assembly_equals_add_edge_assembly(self, build, granularity, chunks):
        """Extraction collects the edges into a first-wins dict and builds
        the graph in bulk; the former assembly, one ``add_edge`` per
        dependence on an incrementally grown graph, is the oracle: the same
        edges in the same order with the same payloads and variables, and
        the same topological order."""
        model = compile_diagram(build())
        htg = extract_htg(model, ExtractionOptions(granularity, chunks))
        oracle = _add_edge_assembly(list(htg.tasks.values()), model.entry)
        assert _edge_view(htg) == _edge_view(oracle)
        assert [t.task_id for t in htg.topological_tasks()] == [
            t.task_id for t in oracle.topological_tasks()
        ]
        for tid in htg.tasks:
            assert htg.predecessors(tid) == oracle.predecessors(tid)
            assert htg.successors(tid) == oracle.successors(tid)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_task_lists_assemble_like_add_edge(self, seed):
        """Random access sets over a few shared names of distinct sizes, so
        one writer often feeds one reader through several names: the first
        edge of a pair must keep its payload and variables."""
        from repro.htg.extraction import _assemble_htg
        from repro.htg.task import Task
        from repro.ir.program import Function, Storage, VarDecl
        from repro.ir.statements import Block
        from repro.ir.types import FLOAT, ArrayType

        rng = np.random.default_rng(seed)
        names = ["a", "b", "c", "d", "e"]
        function = Function(
            "f",
            decls=[
                VarDecl(name, ArrayType(FLOAT, (size,)), Storage.SHARED)
                for name, size in zip(names[:-1], (2, 3, 5, 7))
            ] + [VarDecl("e", FLOAT, Storage.LOCAL)],
        )

        def pick():
            return {n for n in names if rng.random() < 0.4}

        tasks = []
        for region in range(int(rng.integers(3, 9))):
            parent = f"t_r{region}"
            if rng.random() < 0.4:
                tasks.append(Task(parent, TaskKind.BLOCK, Block(), reads=pick(), writes=pick()))
                continue
            if rng.random() < 0.5:
                tasks.append(Task(parent + "_pre", TaskKind.PRE, Block(), reads=pick(),
                                  writes=pick(), parent=parent))
            reads, writes = pick(), pick()
            for chunk in range(int(rng.integers(1, 4))):
                tasks.append(Task(f"{parent}_c{chunk}", TaskKind.LOOP_CHUNK, Block(),
                                  reads=set(reads), writes=set(writes), parent=parent))
            if rng.random() < 0.5:
                tasks.append(Task(parent + "_post", TaskKind.POST, Block(), reads=pick(),
                                  writes=pick(), parent=parent))
        arrays, scalars = shared_names(function)
        htg = _assemble_htg("g", tasks, function, arrays | scalars)
        oracle = _add_edge_assembly(tasks, function)
        assert _edge_view(htg) == _edge_view(oracle)
        assert [t.task_id for t in htg.topological_tasks()] == [
            t.task_id for t in oracle.topological_tasks()
        ]

    def test_bulk_constructor_checks_like_add_edge(self, pipeline_model):
        tasks = list(extract_htg(pipeline_model).tasks.values())
        a, b = tasks[0].task_id, tasks[1].task_id
        with pytest.raises(ValueError):
            HierarchicalTaskGraph.from_edges("g", tasks + tasks[:1], {})
        with pytest.raises(KeyError):
            HierarchicalTaskGraph.from_edges("g", tasks, {(a, "nowhere"): TaskEdge(a, "nowhere")})
        with pytest.raises(ValueError):
            HierarchicalTaskGraph.from_edges("g", tasks, {(a, a): TaskEdge(a, a)})
        graph = HierarchicalTaskGraph.from_edges("g", tasks, {(a, b): TaskEdge(a, b, 8, ("x",))})
        # the incremental API keeps working on a bulk-built graph
        assert graph.add_edge(a, b) is graph.edge(a, b)
        assert graph.edge(a, b).payload_bytes == 8
        graph.add_edge(b, tasks[2].task_id)
        assert graph.successors(b) == [tasks[2].task_id]
        assert graph.predecessors(b) == [a]


def _edge_view(htg):
    return [(e.src, e.dst, e.payload_bytes, e.variables) for e in htg.edges]


def _add_edge_assembly(tasks, function):
    """The former HTG assembly: one ``add_edge`` call per dependence."""
    arrays, scalars = shared_names(function)
    shared = arrays | scalars
    htg = HierarchicalTaskGraph(name="oracle")
    for task in tasks:
        htg.add_task(task)
    current_writers, readers_since_write, generation_sources = {}, {}, {}

    def same_generation(a, b):
        return (
            a.kind is TaskKind.LOOP_CHUNK
            and b.kind is TaskKind.LOOP_CHUNK
            and a.parent is not None
            and a.parent == b.parent
        )

    for task in tasks:
        for name in sorted(task.reads & shared):
            decl = function.lookup(name)
            for writer in current_writers.get(name, []):
                if writer.task_id != task.task_id and not same_generation(writer, task):
                    htg.add_edge(
                        writer.task_id,
                        task.task_id,
                        payload_bytes=decl.size_bytes if decl else 0,
                        variables=(name,),
                    )
            readers_since_write.setdefault(name, []).append(task.task_id)
        for name in sorted(task.writes & shared):
            writers = current_writers.get(name, [])
            if writers and same_generation(writers[-1], task):
                writers.append(task)
                sources = generation_sources[name]
            else:
                sources = [r for r in readers_since_write.get(name, []) if r != task.task_id]
                sources += [w.task_id for w in writers if w.task_id != task.task_id]
                generation_sources[name] = sources
                current_writers[name] = [task]
                readers_since_write[name] = []
            for source in sources:
                htg.add_edge(source, task.task_id, payload_bytes=0, variables=(name,))
    by_parent = {}
    for task in tasks:
        if task.parent:
            by_parent.setdefault(task.parent, []).append(task)
    for children in by_parent.values():
        pre = [t for t in children if t.kind is TaskKind.PRE]
        post = [t for t in children if t.kind is TaskKind.POST]
        chunk = [t for t in children if t.kind is TaskKind.LOOP_CHUNK]
        for p in pre:
            for c in chunk:
                htg.add_edge(p.task_id, c.task_id)
        for c in chunk:
            for q in post:
                htg.add_edge(c.task_id, q.task_id)
    return htg


class TestCodeLevelWcet:
    def test_wcet_positive_and_monotone_in_size(self, platform4):
        small = small_pipeline(8)
        large = small_pipeline(32)
        model = HardwareCostModel(platform4, 0)
        wcet_small = analyze_function_wcet(small.entry, model).total
        wcet_large = analyze_function_wcet(large.entry, model).total
        assert 0 < wcet_small < wcet_large

    def test_wcet_bounds_actual_cost(self, pipeline_model, platform4):
        """Dynamic cost of any execution must not exceed the code-level WCET."""
        from repro.ir.interpreter import run_function
        from repro.sim.executor import _trace_cost

        model = HardwareCostModel(platform4, 0)
        bound = analyze_function_wcet(pipeline_model.entry, model).total
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(-10, 10, size=16)
            result = run_function(pipeline_model.entry, pipeline_model.run_inputs({"a.u": u}))
            cost, _ = _trace_cost(result.stats, pipeline_model.entry, model)
            assert cost <= bound + 1e-6

    def test_average_below_worst(self, pipeline_model, platform4):
        model = HardwareCostModel(platform4, 0)
        worst = analyze_function_wcet(pipeline_model.entry, model).total
        average = analyze_function_wcet(pipeline_model.entry, model, average=True).total
        assert average <= worst

    def test_scratchpad_override_reduces_wcet(self, pipeline_model, platform4):
        """Re-declaring two signals SCRATCHPAD, as the scratchpad pass does,
        lowers the WCET."""
        import dataclasses

        from repro.ir.program import Storage

        entry = pipeline_model.entry
        moved = {"sig_a_y", "sig_b_y"}
        decls = [
            dataclasses.replace(d, storage=Storage.SCRATCHPAD) if d.name in moved else d
            for d in entry.decls
        ]
        assert {d.name for d in decls if d.storage is Storage.SCRATCHPAD} == moved
        model = HardwareCostModel(platform4, 0)
        base = analyze_function_wcet(entry, model).total
        improved = analyze_function_wcet(dataclasses.replace(entry, decls=decls), model).total
        assert improved < base

    def test_breakdown_components_sum(self, pipeline_model, platform4):
        breakdown = analyze_function_wcet(pipeline_model.entry, HardwareCostModel(platform4, 0))
        assert breakdown.total == pytest.approx(
            breakdown.compute + breakdown.memory + breakdown.control
        )
        assert breakdown.shared_accesses > 0


class TestIpet:
    def test_ipet_matches_structural_on_straightline(self, platform4):
        fb = FunctionBuilder("straight")
        x = fb.scalar_input("x")
        y = fb.local("y")
        fb.assign(y, x * 2.0 + 1.0)
        fb.assign(y, y + 3.0)
        func = fb.build()
        model = HardwareCostModel(platform4, 0)
        structural = analyze_function_wcet(func, model).total
        ipet = ipet_wcet(func, model).wcet
        assert ipet == pytest.approx(structural, rel=1e-9)

    def test_ipet_equals_structural_with_loops(self, pipeline_model, platform4):
        """IPET prices loops by the structural rules (bounds once before the
        header, overhead per iteration, no header branch), so without flow
        facts the two bounds are one number."""
        model = HardwareCostModel(platform4, 0)
        structural = analyze_function_wcet(pipeline_model.entry, model).total
        ipet = ipet_wcet(pipeline_model.entry, model).wcet
        assert ipet == pytest.approx(structural, rel=1e-9)

    def test_ipet_takes_worst_branch(self, platform4):
        fb = FunctionBuilder("branchy")
        x = fb.scalar_input("x")
        y = fb.local("y")
        with fb.if_then(BinOp(">", x, Const(0.0))):
            fb.assign(y, fb.call("sqrt", x))  # expensive branch
        with fb.orelse():
            fb.assign(y, 1.0)
        func = fb.build()
        model = HardwareCostModel(platform4, 0)
        ipet = ipet_wcet(func, model).wcet
        assert ipet >= model.op_cycles("sqrt")


class TestSystemLevelWcet:
    def _htg(self, pipeline_model):
        return extract_htg(pipeline_model, ExtractionOptions(granularity="loop", loop_chunks=2))

    @staticmethod
    def _design(htg, pipeline_model, platform):
        return SystemDesign(htg, pipeline_model.entry, platform, WcetAnalysisCache())

    def test_parallel_bound_not_below_critical_path(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        mapping = {t.task_id: i % 4 for i, t in enumerate(htg.topological_tasks()) if not t.is_synthetic}
        design = self._design(htg, pipeline_model, platform4)
        result = system_level_wcet(design, mapping, default_core_order(htg, mapping))
        assert result.makespan >= critical_path(design) - 1e-6

    def test_single_core_has_no_interference(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        mapping = {t.task_id: 0 for t in htg.leaf_tasks()}
        result = system_level_wcet(
            self._design(htg, pipeline_model, platform4), mapping, default_core_order(htg, mapping)
        )
        assert result.interference_cycles == 0.0
        assert result.communication_cycles == 0.0
        assert result.makespan == pytest.approx(sum(result.task_effective_wcet.values()))

    def test_contention_oblivious_is_looser(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        mapping = {t.task_id: i % 4 for i, t in enumerate(htg.topological_tasks()) if not t.is_synthetic}
        order = default_core_order(htg, mapping)
        design = self._design(htg, pipeline_model, platform4)
        precise = system_level_wcet(design, mapping, order)
        naive = contention_oblivious_bound(design, mapping, order)
        assert naive >= precise.makespan - 1e-6

    def test_missing_mapping_rejected(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        with pytest.raises(SystemWcetError):
            system_level_wcet(self._design(htg, pipeline_model, platform4), {}, {})

    def test_interference_grows_with_sharing_cores(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        leaf = [t.task_id for t in htg.topological_tasks() if not t.is_synthetic]
        mapping_two = {tid: i % 2 for i, tid in enumerate(leaf)}
        mapping_four = {tid: i % 4 for i, tid in enumerate(leaf)}
        design = self._design(htg, pipeline_model, platform4)
        r2 = system_level_wcet(design, mapping_two, default_core_order(htg, mapping_two))
        r4 = system_level_wcet(design, mapping_four, default_core_order(htg, mapping_four))
        assert max(r4.task_contenders.values()) >= max(r2.task_contenders.values())

    def test_evaluate_mapping_wraps_result(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model)
        mapping = {t.task_id: 0 for t in htg.leaf_tasks()}
        schedule = evaluate_mapping(
            self._design(htg, pipeline_model, platform4), mapping, scheduler="test"
        )
        assert schedule.wcet_bound > 0
        assert schedule.num_cores_used == 1
        util = schedule.utilization()
        assert util[0] == pytest.approx(1.0, abs=1e-6)
