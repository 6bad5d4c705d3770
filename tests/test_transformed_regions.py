"""The transformed body is the only record of a model's block regions.

The transformation passes run copy-on-write on a working copy of the entry
function, so the HTG, the parallel bound and the generated program all
describe the *transformed* code, and nothing the front end built is ever
mutated.
"""

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.frontend import compile_diagram
from repro.frontend.codegen import ModelCompilationError
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.task import TaskKind
from repro.ir.expressions import Const, Var
from repro.ir.program import Storage
from repro.ir.statements import Assign, Block, For
from repro.ir.visitors import StatementTransformer
from repro.model import library
from repro.model.diagram import Diagram
from repro.sim import simulate_parallel_program
from repro.transforms import FunctionPass, LoopUnrollPass, PassReport
from repro.transforms.registry import register_pass, unregister_pass
from repro.usecases import ALL_USECASES
from repro.wcet.cache import WcetAnalysisCache

DEFAULT_PASSES = ToolchainConfig().passes


def _run(name, passes=DEFAULT_PASSES, **config):
    builder, _ = ALL_USECASES[name]
    pipe = Pipeline(
        generic_predictable_multicore(cores=4),
        ToolchainConfig(passes=tuple(passes), **config),
        WcetAnalysisCache(),
    )
    return pipe, pipe.run(builder())


@pytest.fixture
def registered_pass():
    """Register passes under test names; unregister them afterwards."""
    names = []

    def register(name, factory):
        register_pass(name)(factory)
        names.append(name)
        return name

    yield register
    for name in names:
        unregister_pass(name)


def _is_body_region(result, block):
    return any(block is stmt for stmt in result.model.entry.body.stmts) and (
        block.label is not None
    )


# ---------------------------------------------------------------------- #
# regions are read from the transformed body
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["egpws", "polka", "weaa"])
def test_default_regions_are_the_front_end_blocks_in_the_transformed_body(name):
    _, result = _run(name)
    regions = result.model.block_regions
    assert regions and all(_is_body_region(result, block) for _, block in regions)
    # no default pass changes these models: copy-on-write keeps every
    # region object the front end built
    before = result.artifacts["model"].block_regions
    assert [label for label, _ in regions] == [label for label, _ in before]
    assert all(a is b for (_, a), (_, b) in zip(regions, before))


@pytest.mark.parametrize("name", ["egpws", "polka"])
def test_a_pass_that_rewrites_regions_reaches_the_task_graph(name, registered_pass):
    unroll = registered_pass(
        "test_loop_unroll", lambda context: LoopUnrollPass(max_trip_count=8)
    )
    pipe, result = _run(name, (unroll, *DEFAULT_PASSES), certify=True)
    _, untransformed = _run(name, certify=True)
    assert result.pass_reports[0].changed

    block_tasks = [t for t in result.htg.leaf_tasks() if t.kind is TaskKind.BLOCK]
    assert block_tasks
    assert all(_is_body_region(result, task.statements) for task in block_tasks)
    assert result.system_wcet < untransformed.system_wcet

    # the perfbench oracles
    assert result.certificates is not None and result.certificates.ok
    builder, inputs_of = ALL_USECASES[name]
    inputs = inputs_of(seed=3)
    sim = simulate_parallel_program(
        result.parallel_program,
        result.htg,
        result.model.entry,
        pipe.platform,
        result.model.run_inputs(dict(inputs)),
    )
    assert sim.makespan <= result.system_wcet
    expected = builder().simulate(steps=1, input_provider=inputs)[0]
    for key, want in expected.items():
        block, _, port = key.partition(".")
        got = sim.env[result.model.output_key(block, port)]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12), key


def test_a_statement_outside_the_regions_is_a_typed_error(registered_pass):
    class _AppendOutput(FunctionPass):
        name = "append_output"

        def run(self, function):
            extra = Assign(Var("out_conflict_y"), Const(123.0))
            function.body = Block([*function.body.stmts, extra])
            return PassReport(self.name, function.name, True)

    append = registered_pass("test_append_output", lambda context: _AppendOutput())
    with pytest.raises(ModelCompilationError, match="out_conflict_y = 123.0"):
        _run("weaa", (append,))


# ---------------------------------------------------------------------- #
# copy-on-write passes, immutable front-end IR
# ---------------------------------------------------------------------- #
def test_rewriting_one_statement_shares_every_untouched_region():
    builder, _ = ALL_USECASES["egpws"]
    model = compile_diagram(builder())
    regions = model.block_regions
    target = next(
        stmt
        for _, region in regions
        for stmt in region.walk()
        if isinstance(stmt, Assign)
    )

    class _Rewrite(StatementTransformer):
        def visit_assign(self, stmt):
            return Assign(stmt.target, Const(0.0)) if stmt is target else stmt

    body = model.entry.body
    new_body = _Rewrite().transform_block(body)
    assert new_body is not body and new_body.stmts is not body.stmts
    rebuilt = [
        (old, new) for (_, old), new in zip(regions, new_body.stmts) if old is not new
    ]
    assert len(rebuilt) == 1
    old, new = rebuilt[0]
    assert any(stmt is target for stmt in old.walk())
    assert new.label == old.label
    assert len(new_body.stmts) == len(body.stmts)
    # the original is untouched, and a no-op rewrite returns it as is
    assert any(stmt is target for stmt in body.walk())
    assert StatementTransformer().transform_block(body) is body


def _stateful_diagram():
    """u -> unit delay (array state, a scratchpad candidate) -> gain -> y."""
    d = Diagram("stateful")
    d.add_block(library.unit_delay("delay", size=8))
    d.add_block(library.gain("amp", 2.0, size=8))
    d.connect("delay", "y", "amp", "u")
    d.mark_input("delay", "u")
    d.mark_output("amp", "y")
    return d


def test_passes_never_mutate_the_front_end_model(registered_pass):
    unroll = registered_pass(
        "test_loop_unroll", lambda context: LoopUnrollPass(max_trip_count=8)
    )
    pipe = Pipeline(
        generic_predictable_multicore(cores=4),
        ToolchainConfig(passes=(unroll, *DEFAULT_PASSES)),
        WcetAnalysisCache(),
    )
    result = pipe.run(_stateful_diagram())
    reports = {r.pass_name: r for r in result.pass_reports}
    assert reports["loop_unroll"].changed
    assert reports["scratchpad_allocation"].details["moved"] == "st_delay_z"
    transformed = result.model.entry
    assert any(d.storage is Storage.SCRATCHPAD for d in transformed.decls)

    model = result.artifacts["model"].entry
    fresh = compile_diagram(_stateful_diagram()).entry
    cache = WcetAnalysisCache()
    assert cache.function_fingerprint(model) == cache.function_fingerprint(fresh)
    assert cache.function_fingerprint(transformed) != cache.function_fingerprint(fresh)
    assert [(d.name, d.storage) for d in model.all_decls()] == [
        (d.name, d.storage) for d in fresh.all_decls()
    ]


def test_loop_chunks_share_the_loop_body():
    builder, _ = ALL_USECASES["polka"]
    model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=4))
    chunks_of: dict[str, list] = {}
    for task in htg.leaf_tasks():
        if task.kind is TaskKind.LOOP_CHUNK:
            chunks_of.setdefault(task.parent, []).append(task)
    assert chunks_of
    regions = dict(model.block_regions)
    for chunks in chunks_of.values():
        loops = [task.statements.stmts[0] for task in chunks]
        assert len(loops) > 1 and len({id(loop) for loop in loops}) == len(loops)
        region = regions[chunks[0].origin]
        bodies = [stmt.body for stmt in region.stmts if isinstance(stmt, For)]
        assert any(loops[0].body is body for body in bodies)
        assert all(loop.body is loops[0].body for loop in loops)
