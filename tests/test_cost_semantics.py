"""One code-level cost semantics, tested as identities.

The rules of :mod:`repro.wcet.hardware_model` are applied three ways: by the
structural analysis to the worst case, by IPET's block costs over the CFG,
and by the simulator to an executed trace.  So:

* IPET without flow facts equals the structural bound, on random structured
  regions (nested ``for`` / ``while`` / ``if``, local, shared and scratchpad
  arrays, scalar assignments, zero-trip loops) and on every entry function
  and task region of the shipped use cases;
* an executed trace, priced by the same rules, never costs more cycles or
  shared accesses than the structural bound;
* an ``if`` counts the larger of its arms' shared accesses, so a cheaper arm
  with more shared accesses cannot escape the interference bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.analysis.certify.ipet_cert import REL_EPS
from repro.core import Pipeline, ToolchainConfig
from repro.frontend import compile_diagram
from repro.htg.extraction import ExtractionOptions, extract_htg
from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Var
from repro.ir.interpreter import Interpreter
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import Assign, Block, ExprStmt, For, If, While
from repro.ir.types import FLOAT, INT, ArrayType
from repro.model import Diagram, library
from repro.model.blocks import Block as ModelBlock, Port
from repro.sim.executor import _trace_cost
from repro.usecases import ALL_USECASES
from repro.wcet.code_level import statement_wcet
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.ipet import ipet_wcet

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "xentium": recore_xentium_like,
    "leon3_inoc": kit_leon3_inoc,
}
MODELS = {name: HardwareCostModel(build(), 0) for name, build in PLATFORMS.items()}

N = 8
#: array -> storage; the generated code writes every array but ``inp``
ARRAYS = {
    "loc": Storage.LOCAL,
    "sh": Storage.SHARED,
    "sp": Storage.SCRATCHPAD,
    "inp": Storage.INPUT,
}
WRITTEN = ("loc", "sh", "sp")
SCALARS = ("x", "y")
MAX_DEPTH = 3


def _function(body: Block) -> Function:
    decls = [VarDecl(name, ArrayType(FLOAT, (N,)), storage) for name, storage in ARRAYS.items()]
    decls += [VarDecl(name, FLOAT) for name in SCALARS]
    decls += [VarDecl(f"i{d}", INT) for d in range(MAX_DEPTH + 1)]
    decls += [VarDecl(f"w{d}", INT) for d in range(MAX_DEPTH + 1)]
    return Function("region", decls=decls, body=body)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_EPS * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------- #
# random structured regions
# ---------------------------------------------------------------------- #
@st.composite
def indices(draw, loop_vars):
    """An in-range index: a constant, a constant-folded sum, or the index
    of an enclosing loop (whose range lies in ``[0, N)``)."""
    choices = ["const", "sum"] + (["loop"] if loop_vars else [])
    kind = draw(st.sampled_from(choices))
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
        return Var(draw(st.sampled_from(SCALARS)))
    if kind == "read":
        array = draw(st.sampled_from(sorted(ARRAYS)))
        return ArrayRef(array, (draw(indices(loop_vars)),))
    left = draw(expressions(loop_vars, depth - 1))
    right = draw(expressions(loop_vars, depth - 1))
    if kind == "call":
        return Call(draw(st.sampled_from(["min", "max"])), (left, right))
    return BinOp(draw(st.sampled_from(["+", "-", "*"])), left, right)


@st.composite
def statements(draw, depth, loop_vars):
    kinds = ["scalar", "array", "expr"]
    if depth < MAX_DEPTH:
        kinds += ["if", "for", "while"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return Assign(Var(draw(st.sampled_from(SCALARS))), draw(expressions(loop_vars)))
    if kind == "array":
        target = ArrayRef(draw(st.sampled_from(WRITTEN)), (draw(indices(loop_vars)),))
        return Assign(target, draw(expressions(loop_vars)))
    if kind == "expr":
        return ExprStmt(draw(expressions(loop_vars)))
    if kind == "if":
        cond = BinOp(">", draw(expressions(loop_vars)), Const(0.0))
        then_body = draw(blocks(depth + 1, loop_vars))
        else_body = draw(blocks(depth + 1, loop_vars, min_size=0))
        return If(cond, then_body, else_body)
    if kind == "for":
        lo = draw(st.integers(0, N))
        hi = draw(st.integers(lo, N))  # lo == hi: a zero-trip loop
        index = Var(f"i{depth}", INT)
        body = draw(blocks(depth + 1, loop_vars + [index]))
        bound = draw(st.sampled_from(["const", "folded", "read"]))
        if bound == "const":
            return For(index, Const(lo, INT), Const(hi, INT), body)
        if bound == "folded":
            return For(index, Const(lo, INT), BinOp("+", Const(hi, INT), Const(0, INT)), body)
        # a data-dependent upper bound, annotated with its worst case
        upper = Call("min", (ArrayRef("inp", (draw(indices(loop_vars)),)), Const(hi, INT)))
        return For(index, Const(lo, INT), upper, body, max_trip_count=hi - lo)
    # a counted while loop; ``k`` may be 0 (zero trips) and ``bound >= k``
    counter = Var(f"w{depth}", INT)
    k = draw(st.integers(0, 3))
    bound = draw(st.integers(k, 3))
    limit = Call("min", (Const(float(k)), ArrayRef("inp", (draw(indices(loop_vars)),))))
    body = draw(blocks(depth + 1, loop_vars))
    step = Assign(counter, BinOp("+", counter, Const(1, INT)))
    loop = While(BinOp("<", counter, limit), Block(body.stmts + [step]), max_trip_count=bound)
    return Block([Assign(counter, Const(0, INT)), loop])


@st.composite
def blocks(draw, depth, loop_vars, min_size=1):
    size = draw(st.integers(min_size, 3))
    return Block([draw(statements(depth, loop_vars)) for _ in range(size)])


regions = blocks(0, [])
platforms = st.sampled_from(sorted(PLATFORMS))


@given(body=regions, platform=platforms)
@settings(max_examples=80, deadline=None)
def test_ipet_equals_structural_on_random_regions(body, platform):
    function = _function(body)
    model = MODELS[platform]
    structural = statement_wcet(function.body, function, model).total
    assert _close(ipet_wcet(function, model).wcet, structural)


@given(
    body=regions,
    platform=platforms,
    values=st.lists(st.integers(-6, 9), min_size=4 * N + 2, max_size=4 * N + 2),
)
@settings(max_examples=80, deadline=None)
def test_priced_trace_within_structural_bound(body, platform, values):
    """The simulator's pricing of an executed trace stays within the
    structural bound, in cycles and in shared accesses."""
    function = _function(body)
    model = MODELS[platform]
    arrays = np.array(values[: 4 * N], dtype=float).reshape(4, N)
    inputs = dict(zip(ARRAYS, arrays))
    inputs.update(x=float(values[-2]), y=float(values[-1]))
    stats = Interpreter().run(function, inputs).stats
    cycles, shared = _trace_cost(stats, function, model)
    bound = statement_wcet(function.body, function, model)
    assert cycles <= bound.total + REL_EPS * max(1.0, bound.total)
    assert shared <= bound.shared_accesses


@st.composite
def shared_reads(draw):
    """An arm reading ``sh`` a few times: few cycles, many shared accesses."""
    reads = [ArrayRef("sh", (Const(k, INT),)) for k in range(draw(st.integers(1, N)))]
    total = reads[0]
    for read in reads[1:]:
        total = BinOp("+", total, read)
    return Block([Assign(Var("x"), total)])


@st.composite
def local_work(draw):
    """An arm looping over register work: many cycles, no shared access."""
    index = Var("i1", INT)
    body = Block([Assign(Var("y"), BinOp("*", Var("y"), Const(1.5)))])
    return Block([For(index, Const(0, INT), Const(draw(st.integers(0, N)), INT), body)])


arms = st.one_of(blocks(1, [], min_size=0), shared_reads(), local_work())


@given(cond=expressions([]), then_body=arms, else_body=arms, platform=platforms)
@settings(max_examples=80, deadline=None)
def test_if_counts_the_larger_arms_shared_accesses(cond, then_body, else_body, platform):
    """Whichever arm costs more cycles, the ``if`` counts at least the
    shared accesses of each arm (the interference bound multiplies them)."""
    stmt = If(BinOp(">", cond, Const(0.0)), then_body, else_body)
    function = _function(Block([stmt]))
    model = MODELS[platform]
    counts = [
        statement_wcet(arm, function, model).shared_accesses for arm in (then_body, else_body)
    ]
    assert statement_wcet(stmt, function, model).shared_accesses >= max(counts)


def test_every_rule_is_priced_by_the_trace():
    """A run through the worst path of a branch-free region is priced at
    exactly the structural bound: no construct goes uncharged."""
    i = Var("i0", INT)
    body = Block([
        Assign(Var("x"), Const(1.0)),
        For(i, Const(0, INT), Const(N, INT), Block([
            Assign(ArrayRef("sh", (i,)), BinOp("*", ArrayRef("inp", (i,)), Var("x"))),
            If(BinOp(">", Var("x"), Const(0.0)), Block([Assign(Var("y"), Var("x"))])),
        ])),
    ])
    function = _function(body)
    for model in MODELS.values():
        stats = Interpreter().run(function, {"inp": np.ones(N)}).stats
        assert (stats.branches, stats.scalar_assigns, stats.loop_iterations) == (N, N + 1, N)
        bound = statement_wcet(function.body, function, model)
        assert _trace_cost(stats, function, model) == (bound.total, bound.shared_accesses)


# ---------------------------------------------------------------------- #
# the shipped use cases
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("granularity", ["block", "loop4"])
@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
def test_ipet_equals_structural_on_usecase_regions(usecase, granularity, platform):
    builder, _ = ALL_USECASES[usecase]
    model = compile_diagram(builder())
    options = (
        ExtractionOptions("loop", 4) if granularity == "loop4" else ExtractionOptions("block")
    )
    htg = extract_htg(model, options)
    entry = model.entry
    cost_model = MODELS[platform]
    regions = [entry.body] + [task.statements for task in htg.leaf_tasks()]
    for region in regions:
        function = Function(entry.name, params=entry.params, decls=entry.decls, body=region)
        structural = statement_wcet(region, function, cost_model).total
        assert _close(ipet_wcet(function, cost_model).wcet, structural)


# ---------------------------------------------------------------------- #
# an if arm with fewer cycles but more shared accesses
# ---------------------------------------------------------------------- #
def _cheap_arm_shares_more():
    """``br``'s then arm is the costlier one and makes no shared access;
    its else arm is cheaper and reads ``u`` eight times."""
    d = Diagram("ifcase")
    d.add_block(ModelBlock(
        name="br",
        kind="branchy",
        inputs=[Port("c"), Port("u", (8,))],
        outputs=[Port("y")],
        params={"n": 12},
        behavior=(
            "if c > 0.5 then\n"
            "  t = 0\n"
            "  for i = 1:n\n"
            "    t = t*1.5 + 2.0\n"
            "  end\n"
            "  y = t\n"
            "else\n"
            "  y = u(1) + u(2) + u(3) + u(4) + u(5) + u(6) + u(7) + u(8)\n"
            "end"
        ),
    ))
    d.add_block(library.gain("g1", 2.0))
    d.add_block(library.gain("g2", 3.0))
    d.connect("br", "y", "g1", "u")
    d.connect("g1", "y", "g2", "u")
    d.mark_input("br", "c")
    d.mark_input("br", "u")
    d.mark_output("g2", "y")
    for k in range(3):
        d.add_block(library.gain(f"v{k}", 1.5, size=4))
        d.mark_input(f"v{k}", "u")
        d.mark_output(f"v{k}", "y")
    return d


def test_cheaper_arm_with_more_shared_accesses_stays_bounded():
    pipeline = Pipeline(generic_predictable_multicore(4), ToolchainConfig(granularity="block"))
    result = pipeline.run(_cheap_arm_shares_more())
    analysed = result.schedule.result
    assert analysed.task_shared_accesses["t_br"] == 8
    assert analysed.task_contenders["t_br"] > 0
    inputs = {"br.c": 0.0, "br.u": np.ones(8), **{f"v{k}.u": np.ones(4) for k in range(3)}}
    sim = pipeline.simulate(result, inputs)
    assert sim.task_shared_accesses["t_br"] == 8
    assert sim.task_durations["t_br"] <= analysed.task_effective_wcet["t_br"]
    assert sim.makespan <= result.system_wcet
