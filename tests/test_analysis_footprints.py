"""Tests for the task memory-footprint analysis and interval division.

The negative cases matter most: a footprint the analysis *cannot* prove
disjoint must never be reported disjoint (that would silently weaken both
the race checker and the static-MHP pruning), so overlapping stencils,
symbolic strides and truncation corner cases all appear here as
must-stay-conservative fixtures.
"""

import math

import repro.analysis.footprints as footprints_module
from repro.analysis.footprints import (
    footprints_address_disjoint,
    footprints_conflict_free,
    iteration_value_range,
    task_footprint,
    task_footprints,
)
from repro.analysis.value_range import TOP, ValueRange, eval_range
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.expressions import ArrayRef, BinOp, Const, Var
from repro.ir.statements import Assign, Block, For
from repro.ir.types import INT
from repro.wcet.cache import WcetAnalysisCache

INF = float("inf")


# ---------------------------------------------------------------------- #
# interval division (value_range.eval_range)
# ---------------------------------------------------------------------- #
def div(a: ValueRange, b: ValueRange) -> ValueRange:
    env = {"a": a, "b": b}
    return eval_range(BinOp("/", Var("a"), Var("b")), env)


class TestIntervalDivision:
    def test_positive_divisor(self):
        assert div(ValueRange(4, 8), ValueRange(2, 4)) == ValueRange(1.0, 4.0)

    def test_negative_divisor(self):
        assert div(ValueRange(4, 8), ValueRange(-4, -2)) == ValueRange(-4.0, -1.0)

    def test_sign_crossing_dividend(self):
        assert div(ValueRange(-6, 6), ValueRange(2, 3)) == ValueRange(-3.0, 3.0)

    def test_divisor_containing_zero_is_top(self):
        assert div(ValueRange(4, 8), ValueRange(-1, 1)).is_top
        assert div(ValueRange(4, 8), ValueRange(0, 2)).is_top
        assert div(ValueRange(4, 8), ValueRange(-2, 0)).is_top

    def test_constants_fold_exactly(self):
        assert div(ValueRange(6, 6), ValueRange(3, 3)) == ValueRange(2.0, 2.0)

    def test_unbounded_dividend_stays_sound(self):
        result = div(TOP, ValueRange(2, 4))
        assert result.lo == -INF and result.hi == INF

    def test_unbounded_divisor_of_one_sign(self):
        # [1, inf) divisor: quotients shrink toward 0 but keep the sign
        result = div(ValueRange(4, 8), ValueRange(1, INF))
        assert result.lo == 0.0
        assert result.hi == 8.0

    def test_soundness_on_random_samples(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            a = sorted(rng.uniform(-10, 10) for _ in range(2))
            b = sorted(rng.uniform(-10, 10) for _ in range(2))
            if b[0] <= 0 <= b[1]:
                continue
            out = div(ValueRange(a[0], a[1]), ValueRange(b[0], b[1]))
            for _ in range(16):
                x = rng.uniform(a[0], a[1])
                y = rng.uniform(b[0], b[1])
                assert out.lo - 1e-9 <= x / y <= out.hi + 1e-9


# ---------------------------------------------------------------------- #
# interval remainder (value_range.eval_range)
# ---------------------------------------------------------------------- #
class TestIntervalModulo:
    def test_non_integer_dividend_reaches_the_divisor(self):
        # ((i + 0.5) % 3) * 2 for i in [0, 3] is 5 at i = 2
        i = Var("i", INT)
        expr = BinOp("*", BinOp("%", BinOp("+", i, Const(0.5)), Const(3)), Const(2))
        rng = eval_range(expr, {"i": ValueRange(0.0, 3.0)})
        for k in range(4):
            assert rng.lo <= ((k + 0.5) % 3) * 2 <= rng.hi

    def test_integer_operands_keep_the_divisor_minus_one(self):
        rng = eval_range(BinOp("%", Var("i", INT), Const(3)), {"i": ValueRange(0.0, 7.0)})
        assert rng == ValueRange(0.0, 2.0)


# ---------------------------------------------------------------------- #
# footprint extraction
# ---------------------------------------------------------------------- #
def shared_buf_function(size=8):
    fb = FunctionBuilder("f")
    buf = fb.shared_array("buf", (size,))
    fb.assign(fb.at(buf, 0), 1.0)
    return fb.build()


def chunk_task(tid, lo, hi, writes=("buf",), index_expr=None):
    i = Var("i", INT)
    target_index = index_expr if index_expr is not None else i
    body = Block([Assign(ArrayRef("buf", (target_index,)), Const(1.0))])
    stmts = Block([For(index=i, lower=Const(lo), upper=Const(hi), body=body)])
    return Task(tid, TaskKind.LOOP_CHUNK, stmts, writes=set(writes), parent="loop")


class TestTaskFootprints:
    def test_chunk_slices_are_precise(self):
        func = shared_buf_function()
        fp = task_footprint(func, chunk_task("t", 0, 4))
        assert fp.array_writes["buf"] == ValueRange(0.0, 3.0)
        assert not fp.array_reads

    def test_disjoint_chunks_prove_conflict_free(self):
        func = shared_buf_function()
        a = task_footprint(func, chunk_task("a", 0, 4))
        b = task_footprint(func, chunk_task("b", 4, 8))
        assert footprints_conflict_free(a, b)
        assert footprints_address_disjoint(a, b)

    def test_stencil_read_overlap_is_not_conflict_free(self):
        func = shared_buf_function()
        a = task_footprint(func, chunk_task("a", 0, 4))
        # b reads buf[i-1] for i in [4, 8): first read hits buf[3], which a writes
        i = Var("i", INT)
        stencil = Block(
            [For(index=i, lower=Const(4), upper=Const(8),
                 body=Block([Assign(Var("x"),
                                    ArrayRef("buf", (BinOp("-", i, Const(1)),)))]))]
        )
        b_task = Task("b", TaskKind.LOOP_CHUNK, stencil, reads={"buf"}, parent="loop")
        b = task_footprint(func, b_task)
        assert b.array_reads["buf"] == ValueRange(3.0, 6.0)
        assert not footprints_conflict_free(a, b)
        assert not footprints_address_disjoint(a, b)

    def test_read_read_overlap_is_conflict_free_but_not_address_disjoint(self):
        func = shared_buf_function()
        i = Var("i", INT)

        def reader(tid):
            stmts = Block(
                [For(index=i, lower=Const(0), upper=Const(4),
                     body=Block([Assign(Var("x"), ArrayRef("buf", (i,)))]))]
            )
            return Task(tid, TaskKind.LOOP_CHUNK, stmts, reads={"buf"}, parent="loop")

        a = task_footprint(func, reader("a"))
        b = task_footprint(func, reader("b"))
        # no write -> no data race ...
        assert footprints_conflict_free(a, b)
        # ... but the accesses still collide on the interconnect
        assert not footprints_address_disjoint(a, b)

    def test_symbolic_index_widens_to_whole_array(self):
        func = shared_buf_function()
        stmts = Block([Assign(ArrayRef("buf", (Var("off"),)), Const(1.0))])
        task = Task("t", TaskKind.LOOP_CHUNK, stmts, writes={"buf"}, parent="loop")
        fp = task_footprint(func, task)
        assert fp.array_writes["buf"].is_top

    def test_truncation_maps_fractional_indices_to_element_zero(self):
        # -1/2 and 1/4 both truncate to element 0: the footprints must
        # overlap even though the real-valued intervals are disjoint
        func = shared_buf_function()
        neg = Block(
            [Assign(ArrayRef("buf", (BinOp("/", Const(-1), Const(2)),)), Const(1.0))]
        )
        pos = Block(
            [Assign(ArrayRef("buf", (BinOp("/", Const(1), Const(4)),)), Const(1.0))]
        )
        a = task_footprint(func, Task("a", TaskKind.BLOCK, neg, writes={"buf"}))
        b = task_footprint(func, Task("b", TaskKind.BLOCK, pos, writes={"buf"}))
        assert a.array_writes["buf"] == ValueRange(0.0, 0.0)
        assert b.array_writes["buf"] == ValueRange(0.0, 0.0)
        assert not footprints_conflict_free(a, b)

    def test_declared_but_unseen_names_become_whole_footprints(self):
        func = shared_buf_function()
        task = Task("t", TaskKind.BLOCK, Block(), writes={"buf"}, reads={"buf"})
        fp = task_footprint(func, task)
        assert fp.array_writes["buf"].is_top
        assert fp.array_reads["buf"].is_top

    def test_zero_trip_loop_contributes_nothing(self):
        func = shared_buf_function()
        task = chunk_task("t", 4, 4, writes=())
        fp = task_footprint(func, task)
        # no declared writes either, so the body walk alone decides
        assert "buf" not in fp.array_writes

    def test_reassigned_index_is_killed(self):
        # the loop body overwrites i before indexing: the loop range must
        # not be used for the access
        func = shared_buf_function()
        i = Var("i", INT)
        body = Block(
            [
                Assign(i, Var("unknown")),
                Assign(ArrayRef("buf", (i,)), Const(1.0)),
            ]
        )
        stmts = Block([For(index=i, lower=Const(0), upper=Const(4), body=body)])
        fp = task_footprint(
            func, Task("t", TaskKind.LOOP_CHUNK, stmts, writes={"buf"}, parent="loop")
        )
        assert fp.array_writes["buf"].is_top


class TestIterationValueRange:
    def test_constant_bounds(self):
        loop = For(index=Var("i", INT), lower=Const(0), upper=Const(8), body=Block())
        assert iteration_value_range(loop, {}) == ValueRange(0.0, 7.0)

    def test_negative_step(self):
        loop = For(
            index=Var("i", INT), lower=Const(7), upper=Const(0), body=Block(), step=-1
        )
        assert iteration_value_range(loop, {}) == ValueRange(1.0, 7.0)

    def test_provably_empty(self):
        loop = For(index=Var("i", INT), lower=Const(5), upper=Const(5), body=Block())
        assert iteration_value_range(loop, {}) is None

    def test_fractional_bounds_truncate_like_the_interpreter(self):
        # interpreter runs int(-0.5)=0 .. int(3.5)=3 exclusive -> i in [0, 2]
        lower = BinOp("/", Const(-1), Const(2))
        upper = BinOp("/", Const(7), Const(2))
        loop = For(index=Var("i", INT), lower=lower, upper=upper, body=Block())
        assert iteration_value_range(loop, {}) == ValueRange(0.0, 2.0)


# ---------------------------------------------------------------------- #
# footprint store
# ---------------------------------------------------------------------- #
class TestFootprintStore:
    """The footprint tier, reached as ``WcetAnalysisCache().footprints``."""

    def test_cache_hits_on_identical_regions(self):
        func = shared_buf_function()
        task = chunk_task("t", 0, 4)
        store = WcetAnalysisCache().footprints
        first = store.footprint(func, task)
        second = store.footprint(func, task)
        assert first is second
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_declared_sets_key_the_entry(self):
        # same rendered statements, different declared write sets: the
        # whole-footprint merge differs, so the entries must not collide
        func = shared_buf_function()
        bare = Task("a", TaskKind.BLOCK, Block())
        declared = Task("b", TaskKind.BLOCK, Block(), writes={"buf"})
        store = WcetAnalysisCache().footprints
        fp_bare = store.footprint(func, bare)
        fp_declared = store.footprint(func, declared)
        assert "buf" not in fp_bare.array_writes
        assert fp_declared.array_writes["buf"].is_top

    def test_shares_fingerprints_with_wcet_cache(self):
        func = shared_buf_function()
        task = chunk_task("t", 0, 4)
        cache = WcetAnalysisCache()
        store = cache.footprints
        assert store is cache.footprints
        assert store.footprint(func, task).array_writes["buf"] == ValueRange(0.0, 3.0)
        assert store.footprint(func, task) is store.footprint(func, task)
        # the key went through the cache's region memo
        assert id(task.statements) in cache._region_fps

    def test_task_footprints_convenience(self):
        func = shared_buf_function()
        tasks = [chunk_task("a", 0, 4), chunk_task("b", 4, 8)]
        fps = task_footprints(func, tasks)
        assert set(fps) == {"a", "b"}
        assert fps["a"].task_id == "a"

    def test_hit_renders_nothing(self, monkeypatch):
        import repro.wcet.cache as cache_module

        func = shared_buf_function()
        task = chunk_task("t", 0, 4)
        store = WcetAnalysisCache().footprints
        first = store.footprint(func, task)
        rendered = []
        render = cache_module.region_to_c
        monkeypatch.setattr(
            cache_module,
            "region_to_c",
            lambda region, body_text: rendered.append(region) or render(region, body_text),
        )
        # a copy sharing the statements, as incremental extraction hands over
        again = Task("u", TaskKind.LOOP_CHUNK, task.statements, writes={"buf"}, parent="loop")
        assert store.footprint(func, again).array_writes == first.array_writes
        assert store.stats.hits == 1
        assert rendered == []

    def test_lru_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(footprints_module, "MAX_FOOTPRINTS", 2)
        func = shared_buf_function()
        store = WcetAnalysisCache().footprints
        tasks = [chunk_task(f"t{k}", k, k + 1) for k in range(4)]
        for task in tasks:
            store.footprint(func, task)
        assert store.stats.misses == 4
        assert len(store.store) == 2
        # the two most recently used survive: t3 hits, t0 was dropped
        store.footprint(func, tasks[3])
        store.footprint(func, tasks[0])
        assert (store.stats.hits, store.stats.misses) == (1, 5)


def test_trunc_is_infinity_preserving():
    from repro.analysis.footprints import _trunc

    assert _trunc(INF) == INF
    assert _trunc(-INF) == -INF
    assert _trunc(-0.5) == 0.0
    assert _trunc(2.9) == 2.0
    assert _trunc(-2.9) == -2.0
    assert math.trunc(_trunc(7.0)) == 7
