"""Tests for IR analyses: loop bounds, access summaries, CFG, interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    BinOp,
    Const,
    FunctionBuilder,
    build_cfg,
)
from repro.adl.platforms import generic_predictable_multicore
from repro.ir.analysis import access_summary, read_write_sets
from repro.ir.interpreter import InterpreterError, run_function
from repro.ir.loops import LoopBoundError, all_loops, max_loop_depth
from repro.ir.types import INT
from repro.wcet.code_level import statement_wcet
from repro.wcet.hardware_model import HardwareCostModel


def build_saxpy(n=16):
    fb = FunctionBuilder("saxpy")
    x = fb.input_array("x", (n,))
    y = fb.output_array("y", (n,))
    a = fb.scalar_input("a")
    with fb.loop("i", 0, n) as i:
        fb.assign(fb.at(y, i), fb.at(x, i) * a + fb.at(y, i))
    return fb.build()


def build_matmul(n=4):
    fb = FunctionBuilder("matmul")
    a = fb.input_array("a", (n, n))
    b = fb.input_array("b", (n, n))
    c = fb.output_array("c", (n, n))
    acc = fb.local("acc")
    with fb.loop("i", 0, n) as i:
        with fb.loop("j", 0, n) as j:
            fb.assign(acc, 0.0)
            with fb.loop("k", 0, n) as k:
                fb.assign(acc, acc + fb.at(a, i, k) * fb.at(b, k, j))
            fb.assign(fb.at(c, i, j), acc)
    return fb.build()


class TestLoopBounds:
    def test_constant_bounds(self):
        func = build_saxpy(10)
        loops = all_loops(func.body)
        assert len(loops) == 1
        assert loops[0].trip_count == 10

    def test_step_and_negative_span(self):
        fb = FunctionBuilder("f")
        x = fb.output_array("x", (16,))
        with fb.loop("i", 0, 16, step=4) as i:
            fb.assign(fb.at(x, i), 1.0)
        with fb.loop("j", 10, 0) as j:
            fb.assign(fb.at(x, 0), 2.0)
        func = fb.build()
        loops = all_loops(func.body)
        assert loops[0].trip_count == 4
        assert loops[1].trip_count == 0

    def test_symbolic_bound_requires_annotation(self):
        fb = FunctionBuilder("f")
        n = fb.scalar_input("n", INT)
        x = fb.output_array("x", (64,))
        with fb.loop("i", 0, n) as i:
            fb.assign(fb.at(x, i), 0.0)
        func = fb.build()
        with pytest.raises(LoopBoundError):
            all_loops(func.body)

    def test_symbolic_bound_with_annotation(self):
        fb = FunctionBuilder("f")
        n = fb.scalar_input("n", INT)
        x = fb.output_array("x", (64,))
        with fb.loop("i", 0, n, max_trip_count=64) as i:
            fb.assign(fb.at(x, i), 0.0)
        func = fb.build()
        assert all_loops(func.body)[0].trip_count == 64

    def test_nesting_depth_and_total_iterations(self):
        func = build_matmul(4)
        assert max_loop_depth(func.body) == 3
        innermost = [info for info in all_loops(func.body) if info.depth == 2]
        assert innermost[0].total_iterations == 64


class TestAccessSummaries:
    def test_saxpy_counts(self):
        func = build_saxpy(16)
        summary = access_summary(func.body)
        assert summary.reads["x"] == 16
        assert summary.reads["y"] == 16
        assert summary.writes["y"] == 16
        assert sum(summary.reads.values()) + sum(summary.writes.values()) == 48

    def test_if_takes_worst_branch(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        flag = fb.scalar_input("flag")
        with fb.if_then(BinOp(">", flag, Const(0.0))):
            with fb.loop("i", 0, 8) as i:
                fb.assign(fb.at(y, i), fb.at(x, i))
        with fb.orelse():
            fb.assign(fb.at(y, 0), 1.0)
        func = fb.build()
        summary = access_summary(func.body)
        assert summary.reads.get("x", 0) == 8
        assert summary.writes["y"] == 8  # max(8, 1)

    def test_shared_summary_filters_locals(self):
        fb = FunctionBuilder("f")
        shared = fb.shared_array("s", (8,))
        local = fb.local_array("l", (8,))
        with fb.loop("i", 0, 8) as i:
            fb.assign(fb.at(local, i), fb.at(shared, i))
        func = fb.build()
        # the one shared-access count: the code-level analysis's, which
        # counts the 8 reads of ``s`` and none of the writes of ``l``
        model = HardwareCostModel(generic_predictable_multicore(), 0)
        assert statement_wcet(func.body, func, model).shared_accesses == 8

    def test_read_write_sets(self):
        func = build_saxpy()
        reads, writes = read_write_sets(func.body)
        assert {"x", "y", "a"} <= reads
        assert "y" in writes

    def test_structural_compute_scales_with_loops(self):
        func = build_matmul(4)
        model = HardwareCostModel(generic_predictable_multicore(), 0)
        compute = statement_wcet(func.body, func, model).compute
        # 64 multiply-adds, and 16 + 64 assignments to ``acc``
        assert compute == (
            64 * model.op_cycles("*")
            + 64 * model.op_cycles("+")
            + 80 * model.scalar_assign_cycles
        )

    def test_array_footprints(self):
        func = build_matmul(4)
        footprints = {decl.name: decl.size_bytes for decl in func.arrays()}
        assert footprints["a"] == 4 * 4 * 4


class TestCFG:
    def test_straightline_cfg(self):
        fb = FunctionBuilder("f")
        x = fb.local("x")
        fb.assign(x, 1.0)
        fb.assign(x, x + 1.0)
        cfg = build_cfg(fb.build())
        assert cfg.entry is not None and cfg.exit is not None
        assert len(cfg.loop_bounds) == 0

    def test_loop_cfg_has_back_edge_and_bound(self):
        cfg = build_cfg(build_saxpy(8))
        assert len(cfg.loop_bounds) == 1
        bound = next(iter(cfg.loop_bounds.values()))
        assert bound == 8
        kinds = {e.kind for e in cfg.edges}
        assert "back" in kinds

    def test_if_creates_diamond(self):
        fb = FunctionBuilder("f")
        x = fb.scalar_input("x")
        y = fb.local("y")
        with fb.if_then(BinOp(">", x, Const(0.0))):
            fb.assign(y, 1.0)
        with fb.orelse():
            fb.assign(y, 2.0)
        cfg = build_cfg(fb.build())
        # entry, exit, cond-carrying entry chain, then, else, join
        branch_blocks = [b for b in cfg.blocks if len(cfg.successors(b)) == 2]
        assert len(branch_blocks) == 1

    def test_matmul_cfg_nested_bounds(self):
        cfg = build_cfg(build_matmul(4))
        assert sorted(cfg.loop_bounds.values()) == [4, 4, 4]


class TestInterpreter:
    def test_saxpy_matches_numpy(self):
        func = build_saxpy(16)
        x = np.arange(16, dtype=float)
        y = np.ones(16)
        result = run_function(func, {"x": x, "y": y.copy(), "a": 2.0})
        np.testing.assert_allclose(result.array("y"), 2.0 * x + y)

    def test_matmul_matches_numpy(self):
        func = build_matmul(4)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        result = run_function(func, {"a": a, "b": b})
        np.testing.assert_allclose(result.array("c"), a @ b, rtol=1e-12)

    def test_stats_counted(self):
        func = build_saxpy(8)
        result = run_function(func, {"x": np.ones(8), "y": np.zeros(8), "a": 1.0})
        assert result.stats.array_reads["x"] == 8
        assert result.stats.array_writes["y"] == 8
        assert result.stats.loop_iterations == 8
        assert sum(result.stats.operations.values()) > 0

    def test_unknown_input_rejected(self):
        func = build_saxpy(4)
        with pytest.raises(InterpreterError):
            run_function(func, {"nope": 1.0})

    def test_out_of_bounds_write_rejected(self):
        fb = FunctionBuilder("f")
        x = fb.output_array("x", (4,))
        fb.assign(fb.at(x, 10), 1.0)
        with pytest.raises(InterpreterError):
            run_function(fb.build())

    def test_negative_index_read_rejected(self):
        # numpy alone would wrap a[-1] around to the last element
        fb = FunctionBuilder("f")
        a = fb.input_array("a", (3,))
        y = fb.local("y")
        fb.assign(y, fb.at(a, -1))
        with pytest.raises(InterpreterError, match=r"out-of-bounds read a\[-1\]"):
            run_function(fb.build(), {"a": np.array([1.0, 2.0, 3.0])})

    def test_negative_index_write_rejected(self):
        fb = FunctionBuilder("f")
        a = fb.input_array("a", (3,))
        fb.assign(fb.at(a, -1), 9.0)
        with pytest.raises(InterpreterError, match=r"out-of-bounds write a\[-1\]"):
            run_function(fb.build(), {"a": np.array([1.0, 2.0, 3.0])})

    def test_loop_bound_violation_detected(self):
        fb = FunctionBuilder("f")
        n = fb.scalar_input("n", INT)
        x = fb.output_array("x", (64,))
        with fb.loop("i", 0, n, max_trip_count=4) as i:
            fb.assign(fb.at(x, i), 1.0)
        func = fb.build()
        with pytest.raises(InterpreterError, match="exceeded"):
            run_function(func, {"n": 10})

    def test_division_by_zero_reported(self):
        fb = FunctionBuilder("f")
        x = fb.scalar_input("x")
        y = fb.local("y")
        fb.assign(y, BinOp("/", Const(1.0), x))
        with pytest.raises(InterpreterError):
            run_function(fb.build(), {"x": 0.0})

    def test_if_branches(self):
        fb = FunctionBuilder("absval")
        x = fb.scalar_input("x")
        y = fb.local("y")
        with fb.if_then(BinOp("<", x, Const(0.0))):
            fb.assign(y, -x)
        with fb.orelse():
            fb.assign(y, x)
        func = fb.build()
        assert run_function(func, {"x": -3.0}).scalar("y") == 3.0
        assert run_function(func, {"x": 5.0}).scalar("y") == 5.0

    @given(st.lists(st.floats(-100, 100), min_size=8, max_size=8), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_saxpy_property(self, xs, a):
        func = build_saxpy(8)
        x = np.array(xs)
        result = run_function(func, {"x": x, "y": np.zeros(8), "a": a})
        np.testing.assert_allclose(result.array("y"), a * x, rtol=1e-9, atol=1e-9)

    def test_interpreter_matches_static_worst_case_on_branch_free_code(self):
        """On branch-free straight-line loops the static worst-case access
        counts must equal the dynamically observed counts."""
        func = build_matmul(3)
        result = run_function(func, {"a": np.ones((3, 3)), "b": np.ones((3, 3))})
        static = access_summary(func.body)
        assert result.stats.array_reads["a"] == static.reads["a"]
        assert result.stats.array_writes["c"] == static.writes["c"]
