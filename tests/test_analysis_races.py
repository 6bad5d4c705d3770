"""Tests for the static schedule race checker and its pipeline/codegen gates."""

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis import check_races
from repro.core.config import ToolchainConfig
from repro.core.pipeline import run_pipeline
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.expressions import ArrayRef, BinOp, Const, Var
from repro.ir.statements import Assign, Block, For
from repro.ir.types import INT
from repro.model import Diagram, library
from repro.parallel.codegen import CodegenRaceError, parallel_program_to_c
from repro.parallel.model import CoreProgram, ParallelProgram
from repro.scheduling.schedule import Schedule, default_core_order
from repro.usecases import ALL_USECASES

USECASES = sorted(ALL_USECASES)


# ---------------------------------------------------------------------- #
# checker unit tests on a hand-built HTG
# ---------------------------------------------------------------------- #
def two_tasks(t1_writes, t1_reads, t2_writes, t2_reads):
    fb = FunctionBuilder("f")
    buf = fb.shared_array("buf", (8,))
    fb.assign(fb.at(buf, 0), 1.0)
    func = fb.build()
    htg = HierarchicalTaskGraph("h")
    htg.add_task(
        Task("t1", TaskKind.BLOCK, Block(), writes=set(t1_writes), reads=set(t1_reads))
    )
    htg.add_task(
        Task("t2", TaskKind.BLOCK, Block(), writes=set(t2_writes), reads=set(t2_reads))
    )
    return func, htg


CROSS = ({"t1": 0, "t2": 1}, {0: ["t1"], 1: ["t2"]})


class TestCheckRaces:
    def test_unordered_write_read_is_a_race(self):
        func, htg = two_tasks({"buf"}, (), (), {"buf"})
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert not report.ok
        assert [f.code for f in report.findings] == ["race.write-read"]
        assert report.findings[0].subject == "t1<->t2"

    def test_unordered_write_write_is_a_race(self):
        func, htg = two_tasks({"buf"}, (), {"buf"}, ())
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert [f.code for f in report.findings] == ["race.write-write"]

    def test_dependence_edge_orders_the_pair(self):
        func, htg = two_tasks({"buf"}, (), (), {"buf"})
        htg.add_edge("t1", "t2")
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert report.ok
        assert report.checked["pairs_ordered"] == 1

    def test_same_core_program_order_orders_the_pair(self):
        func, htg = two_tasks({"buf"}, (), (), {"buf"})
        report = check_races(htg, {"t1": 0, "t2": 0}, {0: ["t1", "t2"]}, func)
        assert report.ok

    def test_transitive_ordering_suffices(self):
        func, htg = two_tasks({"buf"}, (), (), {"buf"})
        htg.add_task(Task("mid", TaskKind.BLOCK, Block()))
        htg.add_edge("t1", "mid")
        htg.add_edge("mid", "t2")
        mapping = {"t1": 0, "t2": 1, "mid": 0}
        order = {0: ["t1", "mid"], 1: ["t2"]}
        report = check_races(htg, mapping, order, func)
        assert report.ok

    def test_local_conflicts_are_ignored(self):
        # "tmp" is not declared in SHARED/INPUT/OUTPUT storage
        func, htg = two_tasks({"tmp"}, (), (), {"tmp"})
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert report.ok
        assert report.checked["pairs_disjoint"] == 1

    def test_chunk_siblings_with_provably_disjoint_slices_pass(self):
        # two chunks of one split loop writing buf[0..3] and buf[4..7]
        func, htg = two_tasks((), (), (), ())
        for tid, (lo, hi) in (("t1", (0, 4)), ("t2", (4, 8))):
            i = Var("i", INT)
            body = Block([Assign(ArrayRef("buf", (i,)), Const(1.0))])
            htg.tasks[tid].statements = Block(
                [For(index=i, lower=Const(lo), upper=Const(hi), body=body)]
            )
            htg.tasks[tid].kind = TaskKind.LOOP_CHUNK
            htg.tasks[tid].parent = "loop"
            htg.tasks[tid].writes = {"buf"}
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert report.ok
        assert report.checked["chunk_pairs_proved_disjoint"] == 1

    def test_unprovable_chunk_overlap_is_a_warning_not_a_pass(self):
        # empty statement bodies: the declared writes force whole-array
        # footprints, so disjointness is undischargeable -> warning
        func, htg = two_tasks((), (), (), ())
        htg.tasks["t1"].kind = TaskKind.LOOP_CHUNK
        htg.tasks["t1"].parent = "loop"
        htg.tasks["t1"].writes = {"buf"}
        htg.tasks["t2"].kind = TaskKind.LOOP_CHUNK
        htg.tasks["t2"].parent = "loop"
        htg.tasks["t2"].writes = {"buf"}
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert not report.ok
        assert [f.code for f in report.findings] == ["race.chunk-overlap-unproven"]
        assert report.findings[0].severity == "warning"
        assert report.count("error") == 0

    def test_overlapping_chunk_slices_keep_the_warning(self):
        # stencil-style chunks: t1 writes buf[0..3], t2 reads buf[3] (first
        # index of its slice minus one) -- a real overlap that must never
        # silently pass
        func, htg = two_tasks((), (), (), ())
        i = Var("i", INT)
        htg.tasks["t1"].statements = Block(
            [For(index=i, lower=Const(0), upper=Const(4),
                 body=Block([Assign(ArrayRef("buf", (i,)), Const(1.0))]))]
        )
        htg.tasks["t1"].writes = {"buf"}
        htg.tasks["t2"].statements = Block(
            [For(index=i, lower=Const(4), upper=Const(8),
                 body=Block([Assign(Var("x"),
                                    ArrayRef("buf", (BinOp("-", i, Const(1)),)))]))]
        )
        htg.tasks["t2"].reads = {"buf"}
        for tid in ("t1", "t2"):
            htg.tasks[tid].kind = TaskKind.LOOP_CHUNK
            htg.tasks[tid].parent = "loop"
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert [f.code for f in report.findings] == ["race.chunk-overlap-unproven"]

    def test_symbolic_stride_chunks_stay_unproven(self):
        # unknown scalar offset: index ranges are unbounded, overlap cannot
        # be refuted
        func, htg = two_tasks((), (), (), ())
        for tid in ("t1", "t2"):
            htg.tasks[tid].statements = Block(
                [Assign(ArrayRef("buf", (Var("off"),)), Const(1.0))]
            )
            htg.tasks[tid].kind = TaskKind.LOOP_CHUNK
            htg.tasks[tid].parent = "loop"
            htg.tasks[tid].writes = {"buf"}
        mapping, order = CROSS
        report = check_races(htg, mapping, order, func)
        assert [f.code for f in report.findings] == ["race.chunk-overlap-unproven"]


# ---------------------------------------------------------------------- #
# deleting one precedence edge seeds a detectable race
# ---------------------------------------------------------------------- #
def small_pipeline_model(size=16):
    d = Diagram("pipe")
    d.add_block(library.gain("a", 2.0, size=size))
    d.add_block(library.saturation("b", 0.0, 10.0, size=size))
    d.add_block(library.scalar_max("c", size))
    d.connect("a", "y", "b", "u")
    d.connect("b", "y", "c", "u")
    d.mark_input("a", "u")
    d.mark_output("c", "y")
    return compile_diagram(d)


class TestSeededRace:
    def test_deleting_a_precedence_edge_is_reported(self):
        model = small_pipeline_model()
        htg = extract_htg(model, ExtractionOptions(granularity="block"))
        victim = next(
            e
            for e in htg.edges
            if not htg.tasks[e.src].is_synthetic
            and not htg.tasks[e.dst].is_synthetic
            and e.variables
        )
        mapping = {t.task_id: 0 for t in htg.leaf_tasks()}
        mapping[victim.dst] = 1

        # sanity: the intact graph proves this cross-core mapping race-free
        clean = check_races(htg, mapping, default_core_order(htg, mapping), model.entry)
        assert clean.ok

        mutated = HierarchicalTaskGraph(
            htg.name,
            dict(htg.tasks),
            [e for e in htg.edges if e is not victim],
        )
        report = check_races(
            mutated, mapping, default_core_order(mutated, mapping), model.entry
        )
        assert not report.ok
        assert all(f.code.startswith("race.") for f in report.findings)
        subjects = {f.subject for f in report.findings}
        assert f"{victim.src}<->{victim.dst}" in subjects


# ---------------------------------------------------------------------- #
# shipped use cases are race-free end to end
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=USECASES)
def usecase_result(request):
    build, _inputs = ALL_USECASES[request.param]
    return run_pipeline(build(), generic_predictable_multicore(), ToolchainConfig())


class TestUsecasesAreClean:
    def test_schedule_is_race_free(self, usecase_result):
        report = usecase_result.schedule.race_findings(
            usecase_result.htg, usecase_result.model.entry
        )
        assert report.ok
        assert report.checked["pairs_checked"] > 0

    def test_pipeline_gate_ran(self, usecase_result):
        assert usecase_result.stage("parallel").info["race_pairs_checked"] > 0


# ---------------------------------------------------------------------- #
# gates: codegen self-check
# ---------------------------------------------------------------------- #
class TestGates:
    def test_codegen_refuses_racy_program(self):
        func, htg = two_tasks({"buf"}, (), (), {"buf"})
        program = ParallelProgram(
            name="h_parallel",
            core_programs={
                0: CoreProgram(0, ["t1"]),
                1: CoreProgram(1, ["t2"]),
            },
            memory_map={},
            schedule=Schedule("h", dict([("t1", 0), ("t2", 1)]), {0: ["t1"], 1: ["t2"]}),
            platform_name="p",
        )
        with pytest.raises(CodegenRaceError):
            parallel_program_to_c(program, htg, func)
        # the gate can be bypassed explicitly, and is off without the function
        assert "core0_main" in parallel_program_to_c(
            program, htg, func, check_races=False
        )
        text = parallel_program_to_c(program, htg)
        assert "core0_main" in text
        # an unanalysed schedule has no per-core WCET to print
        assert "/* task t1 (origin: " in text and "wcet" not in text

    def test_codegen_accepts_ordered_program(self, usecase_result):
        text = parallel_program_to_c(
            usecase_result.parallel_program,
            usecase_result.htg,
            usecase_result.model.entry,
        )
        assert "core0_main" in text
