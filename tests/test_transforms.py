"""Tests for the predictability transformations."""

import random

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.ir import BinOp, Const, FunctionBuilder
from repro.ir.interpreter import run_function
from repro.ir.program import Storage
from repro.ir.statements import For
from repro.ir.types import INT
from repro.transforms import (
    ConstantFoldingPass,
    DeadCodeEliminationPass,
    IndexSetSplittingPass,
    LoopFissionPass,
    LoopUnrollPass,
    PassManager,
    ScratchpadAllocationPass,
    StripMinePass,
    allocate_scratchpad,
)
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.model import Diagram, library
from repro.wcet import HardwareCostModel, WcetAnalysisCache, analyze_function_wcet


def saxpy_like(n=8):
    fb = FunctionBuilder("k")
    x = fb.input_array("x", (n,))
    y = fb.output_array("y", (n,))
    with fb.loop("i", 0, n) as i:
        fb.assign(fb.at(y, i), fb.at(x, i) * 2.0 + 1.0)
    return fb.build()


def random_carried_loop(seed, n=6):
    """A loop of 2-4 random statements over carried scalars and arrays.

    Scalars ``a``, ``b``, ``c`` carry values across iterations; arrays are
    written at ``i`` and read at ``i`` or ``n - 1 - i``, so the bodies hold
    loop-carried flow, anti and output dependences.
    """
    rng = random.Random(seed)
    fb = FunctionBuilder("f")
    x = fb.input_array("x", (n,))
    arrays = [fb.output_array(name, (n,)) for name in ("y", "z")]
    scalars = [fb.local(name, initial=float(k)) for k, name in enumerate("abc")]
    with fb.loop("i", 0, n) as i:

        def operand():
            kind = rng.randrange(4)
            if kind == 0:
                return Const(float(rng.randint(1, 3)))
            if kind == 1:
                return fb.at(x, i)
            if kind == 2:
                return rng.choice(scalars)
            index = rng.choice([i, BinOp("-", Const(n - 1), i)])
            return fb.at(rng.choice(arrays), index)

        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                target = rng.choice(scalars)
            else:
                target = fb.at(rng.choice(arrays), i)
            fb.assign(target, BinOp(rng.choice("+-"), operand(), operand()))
    return fb.build()


def run_both(before, after, inputs):
    a = run_function(before, dict(inputs))
    b = run_function(after, dict(inputs))
    return a, b


class TestSimplePasses:
    def test_constant_folding_folds_and_preserves_semantics(self):
        fb = FunctionBuilder("f")
        y = fb.local("y")
        x = fb.scalar_input("x")
        fb.assign(y, BinOp("+", BinOp("*", Const(2), Const(3)), x))
        func = fb.build()
        report = ConstantFoldingPass().run(func)
        assert report.changed
        assert run_function(func, {"x": 1.0}).scalar("y") == pytest.approx(7.0)

    def test_constant_folding_removes_static_branches(self):
        fb = FunctionBuilder("f")
        y = fb.local("y")
        with fb.if_then(BinOp(">", Const(2), Const(1))):
            fb.assign(y, 10.0)
        with fb.orelse():
            fb.assign(y, 20.0)
        func = fb.build()
        ConstantFoldingPass().run(func)
        assert run_function(func).scalar("y") == 10.0
        from repro.ir.statements import If

        assert not any(isinstance(s, If) for s in func.body.walk())

    def test_dead_code_removes_unused_local_assign(self):
        fb = FunctionBuilder("f")
        y = fb.output_array("y", (4,))
        dead = fb.local("dead")
        fb.assign(dead, 42.0)
        with fb.loop("i", 0, 4) as i:
            fb.assign(fb.at(y, i), 1.0)
        func = fb.build()
        report = DeadCodeEliminationPass().run(func)
        assert report.changed
        assert run_function(func).array("y").tolist() == [1.0] * 4

    def test_dead_code_keeps_observable_writes(self):
        func = saxpy_like()
        report = DeadCodeEliminationPass().run(func)
        result = run_function(func, {"x": np.arange(8.0)})
        np.testing.assert_allclose(result.array("y"), np.arange(8.0) * 2 + 1)
        assert not report.changed


class TestLoopTransforms:
    def test_unroll_small_loop_preserves_semantics_and_reduces_wcet(self):
        func = saxpy_like(4)
        platform = generic_predictable_multicore(cores=1)
        model = HardwareCostModel(platform, 0)
        before_wcet = analyze_function_wcet(func, model).total
        reference = run_function(func, {"x": np.arange(4.0)}).array("y").copy()

        report = LoopUnrollPass(max_trip_count=8).run(func)
        assert report.changed
        assert not any(isinstance(s, For) for s in func.body.walk())
        after_wcet = analyze_function_wcet(func, model).total
        assert after_wcet <= before_wcet  # loop overhead removed
        np.testing.assert_allclose(run_function(func, {"x": np.arange(4.0)}).array("y"), reference)

    def test_unroll_skips_large_loops(self):
        func = saxpy_like(64)
        report = LoopUnrollPass(max_trip_count=8).run(func)
        assert not report.changed

    def test_fission_splits_independent_statements(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        z = fb.output_array("z", (8,))
        with fb.loop("i", 0, 8) as i:
            fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
            fb.assign(fb.at(z, i), fb.at(x, i) + 1.0)
        func = fb.build()
        reference = run_function(func, {"x": np.arange(8.0)})
        report = LoopFissionPass().run(func)
        assert report.changed
        loops = [s for s in func.body.walk() if isinstance(s, For)]
        assert len(loops) == 2
        result = run_function(func, {"x": np.arange(8.0)})
        np.testing.assert_allclose(result.array("y"), reference.array("y"))
        np.testing.assert_allclose(result.array("z"), reference.array("z"))

    def test_fission_keeps_dependent_statements_together(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        t = fb.local("t")
        with fb.loop("i", 0, 8) as i:
            fb.assign(t, fb.at(x, i) * 2.0)
            fb.assign(fb.at(y, i), t + 1.0)
        func = fb.build()
        report = LoopFissionPass().run(func)
        assert not report.changed

    def test_fission_keeps_a_carried_scalar_with_its_earlier_reader(self):
        """``y[i] = acc; acc = acc + x[i]`` is a prefix sum: the later
        statement writes what the earlier one reads next iteration."""
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (6,))
        y = fb.output_array("y", (6,))
        acc = fb.local("acc", initial=0.0)
        with fb.loop("i", 0, 6) as i:
            fb.assign(fb.at(y, i), acc)
            fb.assign(acc, acc + fb.at(x, i))
        func = fb.build()
        report = LoopFissionPass().run(func)
        assert not report.changed
        result = run_function(func, {"x": np.arange(6.0)})
        assert result.array("y").tolist() == [0.0, 0.0, 1.0, 3.0, 6.0, 10.0]

    def test_fission_keeps_a_write_to_the_loop_bound_with_every_statement(self):
        """Each split loop re-evaluates its bounds, so a body statement
        writing a bound name must not be split off."""
        fb = FunctionBuilder("f")
        y = fb.output_array("y", (6,))
        n = fb.local("n", INT, initial=6)
        with fb.loop("i", 0, n, max_trip_count=6) as i:
            fb.assign(n, n - 1)
            fb.assign(fb.at(y, i), 1.0)
        func = fb.build()
        assert not LoopFissionPass().run(func).changed
        assert run_function(func).array("y").tolist() == [1.0] * 6

    def test_fission_preserves_semantics_on_random_carried_loops(self):
        splits = 0
        for seed in range(300):
            inputs = {"x": np.random.default_rng(seed).integers(-5, 6, 6).astype(float)}
            reference = run_function(random_carried_loop(seed), dict(inputs)).env
            func = random_carried_loop(seed)
            splits += LoopFissionPass().run(func).changed
            result = run_function(func, dict(inputs)).env
            for name in ("y", "z", "a", "b", "c"):
                np.testing.assert_array_equal(
                    result[name], reference[name], err_msg=f"seed {seed}, {name}"
                )
        # the pass must actually split a fair share of the bodies
        assert splits >= 100, splits

    def test_index_set_splitting_removes_branch(self):
        fb = FunctionBuilder("f")
        x = fb.input_array("x", (16,))
        y = fb.output_array("y", (16,))
        with fb.loop("i", 0, 16) as i:
            with fb.if_then(BinOp("<", i, Const(8))):
                fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
            with fb.orelse():
                fb.assign(fb.at(y, i), 0.0)
        func = fb.build()
        reference = run_function(func, {"x": np.arange(16.0)}).array("y").copy()
        report = IndexSetSplittingPass().run(func)
        assert report.changed
        from repro.ir.statements import If

        assert not any(isinstance(s, If) for s in func.body.walk())
        np.testing.assert_allclose(run_function(func, {"x": np.arange(16.0)}).array("y"), reference)

    def test_strip_mine_preserves_semantics(self):
        func = saxpy_like(64)
        reference = run_function(func, {"x": np.arange(64.0)}).array("y").copy()
        report = StripMinePass(tile=16, min_trip_count=32).run(func)
        assert report.changed
        loops = [s for s in func.body.walk() if isinstance(s, For)]
        assert len(loops) == 2  # outer + inner
        np.testing.assert_allclose(run_function(func, {"x": np.arange(64.0)}).array("y"), reference)


class TestScratchpadAllocation:
    def _kernel_with_shared(self):
        fb = FunctionBuilder("k")
        a = fb.shared_array("a", (64,))
        b = fb.shared_array("b", (8,))
        y = fb.output_array("y", (64,))
        with fb.loop("i", 0, 64) as i:
            fb.assign(fb.at(y, i), fb.at(a, i) + fb.at(b, BinOp("%", i, Const(8))))
        return fb.build()

    def test_greedy_prefers_high_density_arrays(self):
        func = self._kernel_with_shared()
        allocation = allocate_scratchpad(func, capacity_bytes=64)
        # only b (32 bytes, 64 accesses) fits and has the best access density
        assert allocation.moved == ["b"]
        assert allocation.estimated_saving_cycles > 0

    def test_capacity_zero_moves_nothing(self):
        func = self._kernel_with_shared()
        allocation = allocate_scratchpad(func, capacity_bytes=0)
        assert allocation.moved == []
        with pytest.raises(ValueError):
            allocate_scratchpad(func, capacity_bytes=-1)

    def test_pass_rewrites_storage_and_reduces_wcet(self):
        func = self._kernel_with_shared()
        platform = generic_predictable_multicore(cores=1)
        model = HardwareCostModel(platform, 0)
        before = analyze_function_wcet(func, model).total
        report = ScratchpadAllocationPass(capacity_bytes=1024).run(func)
        assert report.changed
        moved = {d.name for d in func.decls if d.storage is Storage.SCRATCHPAD}
        assert moved  # at least one array relocated
        after = analyze_function_wcet(func, model).total
        assert after < before

    def test_protected_arrays_stay_shared(self):
        func = self._kernel_with_shared()
        allocation = allocate_scratchpad(func, capacity_bytes=4096, protect={"a", "b"})
        assert "a" not in allocation.moved and "b" not in allocation.moved

    def test_parameters_take_no_capacity(self):
        """A gain feeding a 200-element unit delay and a 64-tap FIR filter on
        1 KiB scratchpads.  The FIR's tap array is a parameter, which the
        pass cannot relocate; ranked first, it used to take 256 bytes and
        crowd out the delay's 800-byte state, so nothing moved."""
        diagram = Diagram("spm_params")
        diagram.add_block(library.gain("g", 2.0, 200))
        diagram.add_block(library.unit_delay("dA", 200))
        diagram.add_block(library.fir_filter("f", np.linspace(0.1, 1.0, 64), 200))
        diagram.connect("g", "y", "dA", "u")
        diagram.connect("g", "y", "f", "u")
        diagram.mark_input("g", "u")
        diagram.mark_output("dA", "y")
        diagram.mark_output("f", "y")
        result = Pipeline(
            generic_predictable_multicore(cores=2, spm_kib=1),
            ToolchainConfig(certify=True),
            WcetAnalysisCache(),
        ).run(diagram)
        (report,) = [r for r in result.pass_reports if r.pass_name == "scratchpad_allocation"]
        assert report.changed
        # 400 accesses of the state, 7 cycles saved on each
        assert report.details == {
            "moved": "st_dA_z",
            "used_bytes": 800,
            "estimated_saving_cycles": 2800.0,
        }
        assert result.sequential_wcet == 435_600  # 438,800 with nothing moved
        assert result.certificates.ok

    def test_pass_manager_runs_in_order(self):
        func = saxpy_like(4)
        manager = PassManager([ConstantFoldingPass(), DeadCodeEliminationPass(), LoopUnrollPass()])
        reports = manager.run(func)
        assert [r.pass_name for r in reports] == [
            "constant_folding",
            "dead_code_elimination",
            "loop_unroll",
        ]
