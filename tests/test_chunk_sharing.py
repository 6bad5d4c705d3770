"""Loop chunks share their loop's body, and the cache does the body's work once.

Loop granularity splits a parallel loop into chunk tasks, each
``Block([For(i, Const(lo), Const(hi), body)])`` over the loop's one
``body`` object.  The code-level cache prices each top-level loop body
once per (body context, cost signature, average flag) in the body's region
memo, renders its text once for the fingerprints of the regions around it
and walks its referenced names once; key contexts are memoized per name
set; extraction walks a split loop's read/write sets once.  None of that
may change an output, so every value is checked here against its
from-scratch definition, kept in this module as the oracle: the uncached
``statement_wcet``, ``sha1(to_c(stmt))``, the context digest over a fresh
``referenced_names`` walk, and ``read_write_sets`` of each task's
statements.
"""

import gc
import hashlib
import json
import weakref

import pytest
from hypothesis import given, settings

import repro.wcet.cache as cache_module
from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.core import Pipeline, ToolchainConfig
from repro.htg import TaskKind
from repro.htg.extraction import region_decomposition
from repro.ir.analysis import read_write_sets, referenced_names
from repro.ir.expressions import ArrayRef, BinOp, Const, Var
from repro.ir.facts import RegionFacts
from repro.ir.printer import to_c
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import Assign, Block, For
from repro.ir.types import FLOAT, INT, ArrayType
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import random_pipeline_diagram
from repro.wcet import HardwareCostModel, WcetAnalysisCache
from repro.wcet.code_level import statement_wcet
from test_region_facts import functions

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "xentium": recore_xentium_like,
}
FIELDS = ("total", "compute", "memory", "control", "shared_accesses")


# ---------------------------------------------------------------------- #
# the from-scratch definitions
# ---------------------------------------------------------------------- #
def fingerprint_oracle(stmt) -> str:
    return hashlib.sha1(to_c(stmt).encode("utf-8")).hexdigest()


def context_oracle(function: Function, names) -> str:
    """The storage class and declared type of each name, in sorted order."""
    rows = []
    for name in sorted(names):
        decl = function.lookup(name)
        rows.append(json.dumps([name] if decl is None else [name, decl.storage.name, str(decl.type)]))
    return hashlib.sha1(("[" + ",".join(rows) + "]").encode("utf-8")).hexdigest()


def breakdown(entry) -> tuple:
    return tuple(getattr(entry, name) for name in FIELDS)


def top_level_loops(stmt):
    """The ``for`` loops a region's walks share bodies at: the region
    itself, or one reached through blocks only."""
    if isinstance(stmt, For):
        yield stmt
    elif isinstance(stmt, Block):
        for child in stmt.stmts:
            yield from top_level_loops(child)


def cost_models(platform):
    """One cost model per distinct cost signature of ``platform``."""
    keys = WcetAnalysisCache()
    models = {}
    for core in platform.cores:
        model = HardwareCostModel(platform, core.core_id)
        models.setdefault(keys.model_signature_digest(model), model)
    return list(models.values())


def check_against_oracles(cache, result, platform):
    function = result.model.entry
    regions = [region for _, region in result.model.block_regions]
    tasks = result.htg.leaf_tasks()
    models = cost_models(platform)
    for task in tasks:
        stmts = task.statements
        for model in models:
            for average in (False, True):
                cached = cache.task_wcet(task, function, model, average)
                assert breakdown(cached) == breakdown(
                    statement_wcet(stmts, function, model, average)
                ), (task.task_id, average)
                key = cache.entry_key(stmts, function, model, average)
                assert key == "|".join((
                    context_oracle(function, referenced_names(stmts)),
                    fingerprint_oracle(stmts),
                    cache.model_signature_digest(model),
                    "avg" if average else "wc",
                ))
        assert cache.region_fingerprint(stmts) == fingerprint_oracle(stmts), task.task_id
        assert cache.region_context(stmts, function) == context_oracle(
            function, referenced_names(stmts)
        )
        # the footprint tier's context adds the task's declared names
        declared = task.reads | task.writes
        assert cache.region_context(stmts, function, declared) == context_oracle(
            function, referenced_names(stmts) | declared
        )
    for region in regions:
        assert cache.region_fingerprint(region) == fingerprint_oracle(region)
        assert cache.region_context(region, function) == context_oracle(
            function, referenced_names(region)
        )
    for model in models:
        assert breakdown(cache.function_wcet(function, model)) == breakdown(
            statement_wcet(function.body, function, model)
        )
    # every decomposition part's sets are its statements' sets
    facts = RegionFacts(cache.region_facts)
    config = result.config
    for region in regions:
        parts = facts(region, region_decomposition, config.granularity, config.loop_chunks)
        for part in parts:
            stmts = region if part.statements is None else part.statements
            reads, writes = read_write_sets(stmts)
            assert (set(part.reads), set(part.writes)) == (reads, writes)
    return tasks


def _random_model(seed):
    return random_pipeline_diagram(stages=3, width=3, vector_size=12, seed=seed)


# ---------------------------------------------------------------------- #
# differential tests through one shared cache
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def shared():
    """One cache every differential case of this module runs through."""
    return WcetAnalysisCache()


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("chunks", [1, 2, 3, 6, 8])
@pytest.mark.parametrize("seed", [3, 11])
def test_random_models_equal_the_oracles(shared, seed, chunks, platform):
    target = PLATFORMS[platform]()
    config = ToolchainConfig(granularity="loop", loop_chunks=chunks)
    result = Pipeline(target, config, shared).run(_random_model(seed))
    tasks = check_against_oracles(shared, result, target)
    chunk_tasks = [t for t in tasks if t.kind is TaskKind.LOOP_CHUNK]
    assert chunk_tasks, "the model must split at least one loop"
    # a chunk is one loop over the body of its region's split loop
    for task in chunk_tasks:
        (loop,) = task.statements.stmts
        region = dict(result.model.block_regions)[task.origin]
        assert any(loop.body is outer.body for outer in top_level_loops(region))


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
def test_usecases_equal_the_oracles(shared, usecase, platform):
    target = PLATFORMS[platform]()
    config = ToolchainConfig(granularity="loop", loop_chunks=4)
    result = Pipeline(target, config, shared).run(ALL_USECASES[usecase][0]())
    check_against_oracles(shared, result, target)


# ---------------------------------------------------------------------- #
# random regions: nested blocks, empty bodies, unbounded loops
# ---------------------------------------------------------------------- #
def _outcome(compute):
    try:
        return ("ok", compute())
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


@given(function=functions())
@settings(max_examples=150, deadline=None)
def test_random_regions_and_their_chunks_equal_the_oracles(function):
    """Each top-level statement of a random function is a region, and a
    two-iteration chunk over each of its top-level loops' bodies another:
    through one cache, each one's fingerprint, context and prices equal
    the from-scratch walks (or both raise alike)."""
    cache = WcetAnalysisCache()
    model = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
    for stmt in function.body.stmts:
        chunks = [
            Block([For(loop.index, Const(0, INT), Const(2, INT), loop.body)])
            for loop in top_level_loops(stmt)
        ]
        for region in [stmt, *chunks]:
            assert cache.region_fingerprint(region) == fingerprint_oracle(region)
            assert cache.region_context(region, function) == context_oracle(
                function, referenced_names(region)
            )
            for average in (False, True):
                got = _outcome(lambda: breakdown(cache.region_wcet(region, function, model, average)))
                want = _outcome(lambda: breakdown(statement_wcet(region, function, model, average)))
                assert got == want
    assert _outcome(lambda: breakdown(cache.function_wcet(function, model))) == _outcome(
        lambda: breakdown(statement_wcet(function.body, function, model))
    )


# ---------------------------------------------------------------------- #
# one body, two storage contexts
# ---------------------------------------------------------------------- #
def _two_storages():
    """One loop body reached from two functions: one declares its array
    shared, the other in the scratchpad."""
    i = Var("i", INT)
    body = Block([Assign(ArrayRef("a", (i,)), BinOp("+", ArrayRef("a", (i,)), Const(1.0)))])
    region = Block([For(index=i, lower=Const(0), upper=Const(8), body=body)])
    chunks = [
        Block([For(index=i, lower=Const(lo), upper=Const(lo + 4), body=body)]) for lo in (0, 4)
    ]
    array = ArrayType(FLOAT, (8,))
    functions = [
        Function("f", decls=[VarDecl("a", array, storage)], body=Block([region]))
        for storage in (Storage.SHARED, Storage.SCRATCHPAD)
    ]
    return functions, [region, *chunks]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_one_body_in_two_storage_contexts(order):
    functions, regions = _two_storages()
    platform = generic_predictable_multicore(cores=2)
    model = HardwareCostModel(platform, 0)
    cache = WcetAnalysisCache()
    answers = {}
    for which in order:
        function = functions[which]
        for average in (False, True):
            for region in regions:
                got = cache.region_wcet(region, function, model, average)
                want = statement_wcet(region, function, model, average)
                assert breakdown(got) == breakdown(want), (which, average)
                answers[which, average, id(region)] = breakdown(got)
            assert breakdown(cache.function_wcet(function, model, average)) == breakdown(
                statement_wcet(function.body, function, model, average)
            )
    # the contexts differ, so the prices do: the test has teeth
    for average in (False, True):
        shared, scratchpad = (answers[which, average, id(regions[0])] for which in (0, 1))
        assert shared != scratchpad
        assert shared[4] > 0 and scratchpad[4] == 0  # shared accesses


# ---------------------------------------------------------------------- #
# the body is priced once per cost signature
# ---------------------------------------------------------------------- #
@pytest.fixture()
def pricings(monkeypatch):
    """Every statement the cache module hands to ``statement_wcet``."""
    priced = []
    price = cache_module.statement_wcet

    def counting(stmt, *args, **kwargs):
        priced.append((stmt, args[1]))
        return price(stmt, *args, **kwargs)

    monkeypatch.setattr(cache_module, "statement_wcet", counting)
    return priced


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_loop_six_design_prices_each_body_once_per_signature(pricings, platform):
    target = PLATFORMS[platform]()
    cache = WcetAnalysisCache()
    config = ToolchainConfig(granularity="loop", loop_chunks=6)
    result = Pipeline(target, config, cache).run(_random_model(5))
    bodies = {
        id(loop.body): loop.body
        for _, region in result.model.block_regions
        for loop in top_level_loops(region)
    }
    assert len(result.htg.leaf_tasks()) > len(result.model.block_regions)
    priced = [
        (id(stmt), cache.model_signature_digest(model))
        for stmt, model in pricings
        if id(stmt) in bodies
    ]
    signatures = {cache.model_signature_digest(m) for m in cost_models(target)}
    assert len(priced) == len(set(priced)), "a body was priced twice on one signature"
    assert set(priced) == {(body, sig) for body in bodies for sig in signatures}
    # the regions themselves were priced too, reading the body memo
    regions = {id(region) for _, region in result.model.block_regions}
    assert any(id(stmt) in regions for stmt, _ in pricings)


def test_clear_empties_the_body_memo(pricings):
    functions, regions = _two_storages()
    body = regions[0].stmts[0].body
    model = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
    cache = WcetAnalysisCache()

    def body_pricings():
        for region in regions:
            cache.region_wcet(region, functions[0], model)
        return sum(1 for stmt, _ in pricings if stmt is body)

    assert body_pricings() == 1
    assert body_pricings() == 1  # the region entries hit
    cache.clear()
    assert body_pricings() == 2


def test_the_body_memo_dies_with_its_body():
    """The body memo holds nothing of its body, so dropping the IR frees the
    body and empties the cache's region memos; the entries stay."""
    functions, regions = _two_storages()
    model = HardwareCostModel(generic_predictable_multicore(cores=2), 0)
    cache = WcetAnalysisCache()
    for region in regions:
        cache.region_wcet(region, functions[0], model)
        cache.region_fingerprint(region)
    body = weakref.ref(regions[0].stmts[0].body)
    assert cache._region_fps
    del functions, regions, region
    gc.collect()
    assert body() is None
    assert not cache._region_fps
    assert len(cache) == 3
