"""Per-region facts against the whole-body walks they replaced.

In the product, every whole-function walk an edit round repeats is a fold
over facts of the body's top-level statements, memoized per statement
object (:mod:`repro.ir.facts`): ``Function.validate``,
``describe_unbounded_loops`` and what the built-in passes read and rewrite.
The whole-body walks live on here as oracles.  On random functions of
several top-level statements (nested ``if`` / ``for`` / ``while``,
constant-foldable expressions and branches, dead local scalars, loops left
empty, undeclared names, unbounded loops), each fold gives the oracle's
result, without a memo and through one, where a second run computes no
fact and hands back the very same rewritten statements.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.analysis import access_summary
from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Var
from repro.ir.facts import RegionFacts
from repro.ir.loops import LoopBoundError, describe_unbounded_loops, loop_trip_count
from repro.ir.printer import function_to_c
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import Assign, Block, ExprStmt, For, If, While, collect_loops
from repro.ir.types import FLOAT, INT, ArrayType
from repro.ir.visitors import StatementTransformer
from repro.transforms import (
    ConstantFoldingPass,
    DeadCodeEliminationPass,
    ScratchpadAllocationPass,
    allocate_scratchpad,
)
from repro.transforms.simple import _Folder
from repro.wcet.cache import WcetAnalysisCache

N = 8
ARRAYS = {
    "loc": Storage.LOCAL,
    "sh": Storage.SHARED,
    "sh2": Storage.SHARED,
    "inp": Storage.INPUT,
    "out": Storage.OUTPUT,
}
WRITTEN = ("loc", "sh", "sh2", "out")
#: ``x``/``y`` are local (dead unless read), ``s`` is shared (observable)
SCALARS = {"x": Storage.LOCAL, "y": Storage.LOCAL, "s": Storage.SHARED}
MAX_DEPTH = 2


# ---------------------------------------------------------------------- #
# the whole-body oracles
# ---------------------------------------------------------------------- #
def validate_whole(function: Function) -> None:
    declared = {d.name for d in function.all_decls()}
    for stmt in function.body.walk():
        if isinstance(stmt, For):
            declared.add(stmt.index.name)
    missing: set[str] = set()
    for stmt in function.body.walk():
        missing |= stmt.variables_read() - declared
        missing |= stmt.variables_written() - declared
    if missing:
        raise ValueError(
            f"function {function.name!r} references undeclared variables: {sorted(missing)}"
        )


def unbounded_whole(function: Function) -> list[str]:
    problems = []
    for loop in collect_loops(function.body):
        try:
            loop_trip_count(loop)
        except LoopBoundError as exc:
            where = f"loop over {loop.index.name!r}" if isinstance(loop, For) else "while loop"
            problems.append(f"function {function.name!r}, {where}: {exc}")
    return problems


def fold_whole(function: Function) -> tuple[int]:
    folder = _Folder()
    function.body = folder.transform_block(function.body)
    return (folder.folded,)


def dce_whole(function: Function) -> tuple[int, int]:
    observable = {d.name for d in function.all_decls() if d.storage is not Storage.LOCAL}
    for stmt in function.body.walk():
        observable |= stmt.variables_read()
    counts = [0, 0]

    class Pruner(StatementTransformer):
        def visit_assign(self, stmt):
            if isinstance(stmt.target, Var) and stmt.target.name not in observable:
                counts[0] += 1
                return []
            return stmt

    class EmptyLoops(StatementTransformer):
        def visit_for(self, stmt):
            return self._drop(stmt)

        def visit_while(self, stmt):
            return self._drop(stmt)

        def _drop(self, stmt):
            if not stmt.body.stmts:
                counts[1] += 1
                return []
            return stmt

    function.body = Pruner().transform_block(function.body)
    function.body = EmptyLoops().transform_block(function.body)
    return counts[0], counts[1]


def selection_whole(
    function: Function, capacity: int, protect: set[str]
) -> tuple[list[VarDecl], dict[str, int]]:
    """The scratchpad selection, in selection order, and the whole-body
    access counts it ranked by: the function's own accessed ``SHARED``
    arrays, parameters never."""
    summary = access_summary(function.body)
    count: dict[str, int] = {}
    for name, n in list(summary.reads.items()) + list(summary.writes.items()):
        count[name] = count.get(name, 0) + n
    candidates = [
        (count[d.name] / d.size_bytes, d)
        for d in function.decls
        if d.is_array
        and d.storage is Storage.SHARED
        and d.name not in protect
        and count.get(d.name, 0)
    ]
    candidates.sort(key=lambda item: (-item[0], item[1].name))
    selected, remaining = [], capacity
    for _, decl in candidates:
        if decl.size_bytes <= remaining:
            selected.append(decl)
            remaining -= decl.size_bytes
    return selected, count


# ---------------------------------------------------------------------- #
# random functions of several top-level statements
# ---------------------------------------------------------------------- #
@st.composite
def indices(draw, loop_vars):
    kind = draw(st.sampled_from(["const", "sum"] + (["loop"] if loop_vars else [])))
    if kind == "loop":
        return draw(st.sampled_from(loop_vars))
    k = draw(st.integers(0, N - 1))
    if kind == "sum":
        return BinOp("+", Const(k // 2, INT), Const(k - k // 2, INT))
    return Const(k, INT)


@st.composite
def expressions(draw, loop_vars, depth=2):
    kinds = ["const", "scalar", "read"] + (["binop", "call"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(float(draw(st.integers(-3, 3))))
    if kind == "scalar":
        return Var(draw(st.sampled_from(sorted(SCALARS))))
    if kind == "read":
        return ArrayRef(draw(st.sampled_from(sorted(ARRAYS))), (draw(indices(loop_vars)),))
    left = draw(expressions(loop_vars, depth - 1))
    right = draw(expressions(loop_vars, depth - 1))
    if kind == "call":
        return Call(draw(st.sampled_from(["min", "max"])), (left, right))
    return BinOp(draw(st.sampled_from(["+", "-", "*"])), left, right)


@st.composite
def statements(draw, depth, loop_vars):
    kinds = ["scalar", "scalar", "array", "expr"]
    if depth < MAX_DEPTH:
        kinds += ["if", "for", "while", "block"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return Assign(Var(draw(st.sampled_from(sorted(SCALARS)))), draw(expressions(loop_vars)))
    if kind == "array":
        target = ArrayRef(draw(st.sampled_from(WRITTEN)), (draw(indices(loop_vars)),))
        return Assign(target, draw(expressions(loop_vars)))
    if kind == "expr":
        return ExprStmt(draw(expressions(loop_vars)))
    if kind == "block":
        return draw(blocks(depth + 1, loop_vars))
    if kind == "if":
        # a constant operand makes the branch foldable
        cond = BinOp(">", draw(expressions(loop_vars)), Const(0.0))
        return If(cond, draw(blocks(depth + 1, loop_vars)), draw(blocks(depth + 1, loop_vars, 0)))
    if kind == "for":
        index = Var(f"i{depth}", INT)
        body = draw(blocks(depth + 1, loop_vars + [index], 0))
        lo = draw(st.integers(0, N))
        hi = draw(st.integers(lo, N))
        if draw(st.booleans()):
            return For(index, Const(lo, INT), BinOp("+", Const(hi, INT), Const(0, INT)), body)
        # a data-dependent bound, annotated with its worst case or not at all
        upper = Call("min", (ArrayRef("inp", (Const(0, INT),)), Const(hi, INT)))
        trips = draw(st.sampled_from([hi - lo, None]))
        return For(index, Const(lo, INT), upper, body, max_trip_count=trips)
    body = draw(blocks(depth + 1, loop_vars, 0))
    return While(BinOp("<", Var("x"), Const(3.0)), body, max_trip_count=draw(st.integers(0, 3)))


@st.composite
def blocks(draw, depth, loop_vars, min_size=1):
    return Block([draw(statements(depth, loop_vars)) for _ in range(draw(st.integers(min_size, 3)))])


@st.composite
def functions(draw, all_declared=False):
    body = Block([draw(statements(0, [])) for _ in range(draw(st.integers(1, 4)))])
    decls = [VarDecl(name, ArrayType(FLOAT, (N,)), storage) for name, storage in ARRAYS.items()]
    decls += [VarDecl(name, FLOAT, storage) for name, storage in SCALARS.items()]
    if not all_declared:
        dropped = draw(st.sets(st.sampled_from([d.name for d in decls]), max_size=2))
        decls = [d for d in decls if d.name not in dropped]
    params = [d for d in decls if d.storage in (Storage.INPUT, Storage.OUTPUT)]
    decls = [d for d in decls if d not in params]
    return Function("f", params=params, decls=decls, body=body)


def _copy(function: Function) -> Function:
    """A working copy sharing every statement, as the transforms stage makes."""
    return Function(function.name, list(function.params), list(function.decls), function.body)


def _memo_facts() -> RegionFacts:
    return RegionFacts(WcetAnalysisCache().region_facts)


# ---------------------------------------------------------------------- #
# the folds equal their oracles
# ---------------------------------------------------------------------- #
def _outcome(check, *args):
    try:
        return ("ok", check(*args))
    except ValueError as exc:
        return ("error", str(exc))


@given(function=functions())
@settings(max_examples=120, deadline=None)
def test_validate_and_unbounded_loops_equal_whole_body(function):
    expected = _outcome(validate_whole, function)
    problems = unbounded_whole(function)
    memo = _memo_facts()
    for facts in (None, memo, memo):
        if facts is memo:
            memo.computed.clear()
        assert _outcome(function.validate, facts) == expected
        assert describe_unbounded_loops(function, facts) == problems
    assert not memo.computed


def _run_pass(make_pass, function, facts):
    working = _copy(function)
    report = make_pass(facts).run(working)
    return working, report


@pytest.mark.parametrize(
    "make_pass, oracle, details",
    [
        (ConstantFoldingPass, fold_whole, lambda r: (r["folded"],)),
        (
            DeadCodeEliminationPass,
            dce_whole,
            lambda r: (r["removed_assignments"], r["removed_empty_loops"]),
        ),
    ],
    ids=["constant_folding", "dead_code_elimination"],
)
@given(function=functions(all_declared=True))
@settings(max_examples=120, deadline=None)
def test_clean_up_passes_equal_whole_body(make_pass, oracle, details, function):
    reference = _copy(function)
    counts = oracle(reference)
    memo = _memo_facts()
    rewritten = []
    for facts in (None, memo, memo):
        if facts is memo:
            memo.computed.clear()
        working, report = _run_pass(make_pass, function, facts)
        assert function_to_c(working) == function_to_c(reference)
        assert details(report.details) == counts
        assert report.changed == (sum(counts) > 0)
        # copy-on-write: untouched top-level statements are the same objects
        untouched = [s for s in function.body.stmts if any(s is t for t in reference.body.stmts)]
        assert all(any(s is t for t in working.body.stmts) for s in untouched)
        rewritten.append(working.body.stmts)
    # the second memoized run computed nothing and shares every statement
    assert not memo.computed
    assert all(a is b for a, b in zip(rewritten[1], rewritten[2], strict=True))


@given(function=functions(all_declared=True), capacity=st.sampled_from([0, 32, 64, 200, 4096]))
@settings(max_examples=120, deadline=None)
def test_scratchpad_allocation_equals_whole_body(function, capacity):
    protect = {"sh2"}
    try:
        selected, count = selection_whole(function, capacity, protect)
    except LoopBoundError:
        with pytest.raises(LoopBoundError):
            allocate_scratchpad(function, capacity, protect=protect)
        return
    movable = [d.name for d in selected]
    saving = 0.0
    for name in movable:
        saving += count[name] * (8.0 - 1.0)
    memo = _memo_facts()
    for facts in (None, memo, memo):
        allocation = allocate_scratchpad(function, capacity, 8.0, 1.0, protect, facts)
        assert allocation.moved == movable
        assert allocation.used_bytes == sum(d.size_bytes for d in selected)
        working = _copy(function)
        report = ScratchpadAllocationPass(capacity, 8.0, 1.0, protect, facts).run(working)
        relocated = [d.name for d in working.decls if d.storage is Storage.SCRATCHPAD]
        # the report names exactly what the pass relocated, and prices only it
        assert sorted(relocated) == sorted(movable)
        assert report.details["moved"] == ",".join(movable)
        assert report.details["estimated_saving_cycles"] == saving
        assert report.changed == bool(relocated)
