"""Tests for HTG extraction and the WCET analyses (code & system level)."""

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.frontend import compile_diagram
from repro.htg import extract_htg, is_parallelizable_loop
from repro.htg.extraction import ExtractionOptions
from repro.htg.task import TaskKind
from repro.ir import FunctionBuilder, BinOp, Const
from repro.model import Diagram, library
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.wcet import (
    HardwareCostModel,
    SystemDesign,
    WcetAnalysisCache,
    analyze_function_wcet,
    ipet_wcet,
    system_level_wcet,
)
from repro.wcet.system_level import SystemWcetError, contention_oblivious_bound


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
        pairs = htg.dependent_pairs()
        a_task = next(t.task_id for t in htg.leaf_tasks() if t.origin == "a")
        c_task = next(t.task_id for t in htg.leaf_tasks() if t.origin == "c")
        assert (a_task, c_task) in pairs

    def test_loop_granularity_creates_chunks(self, pipeline_model):
        htg = extract_htg(pipeline_model, ExtractionOptions(granularity="loop", loop_chunks=4))
        htg.validate()
        chunks = [t for t in htg.leaf_tasks() if t.kind is TaskKind.LOOP_CHUNK]
        assert len(chunks) >= 4
        # chunks of the same parent must not depend on each other
        pairs = htg.dependent_pairs()
        for x in chunks:
            for y in chunks:
                if x.parent == y.parent and x.task_id != y.task_id:
                    assert (x.task_id, y.task_id) not in pairs

    def test_shared_access_annotation(self, pipeline_model):
        htg = extract_htg(pipeline_model)
        for task in htg.leaf_tasks():
            assert task.total_shared_accesses > 0

    def test_edge_payloads_are_buffer_sizes(self, pipeline_model):
        htg = extract_htg(pipeline_model)
        payloads = [e.payload_bytes for e in htg.edges if e.payload_bytes > 0]
        assert payloads
        assert all(p == 16 * 4 for p in payloads)

    def test_critical_path_and_total(self, pipeline_model, platform4):
        htg = extract_htg(pipeline_model)
        model = HardwareCostModel(platform4, 0)
        WcetAnalysisCache().annotate_htg(htg, pipeline_model.entry, model)
        cp = htg.critical_path_length()
        assert 0 < cp <= htg.total_wcet() + 1e-9

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
        from repro.sim.executor import _stats_cost

        model = HardwareCostModel(platform4, 0)
        bound = analyze_function_wcet(pipeline_model.entry, model).total
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(-10, 10, size=16)
            result = run_function(pipeline_model.entry, pipeline_model.run_inputs({"a.u": u}))
            cost, _ = _stats_cost(result.stats, pipeline_model.entry, model)
            assert cost <= bound + 1e-6

    def test_average_below_worst(self, pipeline_model, platform4):
        model = HardwareCostModel(platform4, 0)
        worst = analyze_function_wcet(pipeline_model.entry, model).total
        average = analyze_function_wcet(pipeline_model.entry, model, average=True).total
        assert average <= worst

    def test_scratchpad_override_reduces_wcet(self, pipeline_model, platform4):
        from repro.ir.program import Storage

        base = analyze_function_wcet(
            pipeline_model.entry, HardwareCostModel(platform4, 0)
        ).total
        override = {"sig_a_y": Storage.SCRATCHPAD, "sig_b_y": Storage.SCRATCHPAD}
        improved = analyze_function_wcet(
            pipeline_model.entry, HardwareCostModel(platform4, 0, override)
        ).total
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

    def test_ipet_close_to_structural_with_loops(self, pipeline_model, platform4):
        model = HardwareCostModel(platform4, 0)
        structural = analyze_function_wcet(pipeline_model.entry, model).total
        ipet = ipet_wcet(pipeline_model.entry, model).wcet
        # IPET charges the loop-exit test once more per loop; both are safe
        # bounds and must lie within a few percent of each other.
        assert ipet >= structural * 0.95
        assert ipet <= structural * 1.10 + 100

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
    def _htg(self, pipeline_model, platform):
        htg = extract_htg(pipeline_model, ExtractionOptions(granularity="loop", loop_chunks=2))
        WcetAnalysisCache().annotate_htg(htg, pipeline_model.entry, HardwareCostModel(platform, 0))
        return htg

    @staticmethod
    def _design(htg, pipeline_model, platform):
        return SystemDesign(htg, pipeline_model.entry, platform, WcetAnalysisCache())

    def test_parallel_bound_not_below_critical_path(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        mapping = {t.task_id: i % 4 for i, t in enumerate(htg.topological_tasks()) if not t.is_synthetic}
        result = system_level_wcet(
            self._design(htg, pipeline_model, platform4), mapping, default_core_order(htg, mapping)
        )
        assert result.makespan >= htg.critical_path_length() - 1e-6

    def test_single_core_has_no_interference(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        mapping = {t.task_id: 0 for t in htg.leaf_tasks()}
        result = system_level_wcet(
            self._design(htg, pipeline_model, platform4), mapping, default_core_order(htg, mapping)
        )
        assert result.interference_cycles == 0.0
        assert result.communication_cycles == 0.0
        assert result.makespan == pytest.approx(sum(result.task_effective_wcet.values()))

    def test_contention_oblivious_is_looser(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        mapping = {t.task_id: i % 4 for i, t in enumerate(htg.topological_tasks()) if not t.is_synthetic}
        order = default_core_order(htg, mapping)
        design = self._design(htg, pipeline_model, platform4)
        precise = system_level_wcet(design, mapping, order)
        naive = contention_oblivious_bound(design, mapping, order)
        assert naive >= precise.makespan - 1e-6

    def test_missing_mapping_rejected(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        with pytest.raises(SystemWcetError):
            system_level_wcet(self._design(htg, pipeline_model, platform4), {}, {})

    def test_interference_grows_with_sharing_cores(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        leaf = [t.task_id for t in htg.topological_tasks() if not t.is_synthetic]
        mapping_two = {tid: i % 2 for i, tid in enumerate(leaf)}
        mapping_four = {tid: i % 4 for i, tid in enumerate(leaf)}
        design = self._design(htg, pipeline_model, platform4)
        r2 = system_level_wcet(design, mapping_two, default_core_order(htg, mapping_two))
        r4 = system_level_wcet(design, mapping_four, default_core_order(htg, mapping_four))
        assert max(r4.task_contenders.values()) >= max(r2.task_contenders.values())

    def test_evaluate_mapping_wraps_result(self, pipeline_model, platform4):
        htg = self._htg(pipeline_model, platform4)
        mapping = {t.task_id: 0 for t in htg.leaf_tasks()}
        schedule = evaluate_mapping(
            self._design(htg, pipeline_model, platform4), mapping, scheduler="test"
        )
        assert schedule.wcet_bound > 0
        assert schedule.num_cores_used == 1
        util = schedule.utilization()
        assert util[0] == pytest.approx(1.0, abs=1e-6)
