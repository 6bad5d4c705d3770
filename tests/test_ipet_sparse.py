"""The structured IPET solve against the LP solver it replaced.

:func:`dense_ipet_wcet` is the former row-by-row builder of the IPET LP,
kept verbatim as the oracle except that it finds a loop header by a scan of
``cfg.blocks``, records no metrics and takes its block costs from the
product's :func:`~repro.wcet.ipet.block_costs` (the costs are an input to
both sides).  It hands the LP to HiGHS through scipy, a test-only
dependency.  The product, :func:`~repro.wcet.ipet.ipet_wcet`, solves the
same LP on the CFG's loop structure without a solver.  Per case:

* the objective's inputs (block costs, entry cost, effective loop bounds,
  pinned edges) are equal exactly;
* the optimum is the LP's within 1e-9 relative, and both sides raise
  :class:`~repro.wcet.ipet.IpetError` together;
* the product's witness carries duals and the independent checker accepts
  it, which proves it optimal by LP duality;
* its block counts are the in-flow sums of its own edge counts.

Edge counts and duals are not compared: at ties the LP has several optimal
vertices, and its dual solutions are not unique either.
"""

import contextlib
import random
import sys
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.analysis.certify import build_ipet_certificate, check_ipet_certificate
from repro.analysis.wcet_facts import derive_flow_facts
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.ir import FunctionBuilder
from repro.ir.cfg import build_cfg
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import random_pipeline_diagram
from repro.wcet.cache import WcetAnalysisCache
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.code_level import statement_wcet
from repro.wcet.ipet import FlowFacts, IpetError, IpetResult, block_costs, ipet_wcet

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "xentium": recore_xentium_like,
}
EXTRACTION = {"block": ("block", 1), "loop4": ("loop", 4), "loop6": ("loop", 6)}
EXACT = ("block_costs", "entry_cost", "loop_bounds", "infeasible_edges")


def dense_ipet_wcet(function, model, flow_facts=None) -> IpetResult:
    """The dense reference assembly of the IPET LP (see the module doc)."""
    # With flow facts a loop left unannotated by the front-end may still be
    # bounded by the facts, so defer the loop-bound check to the merge below.
    cfg = build_cfg(function, allow_unbounded=flow_facts is not None)
    edges = cfg.edges
    if not edges:
        raise IpetError(f"function {function.name!r} has an empty CFG")
    edge_index: dict[tuple[int, int, str], int] = {}
    for i, edge in enumerate(edges):
        if edge.key in edge_index:
            raise IpetError(
                f"function {function.name!r} has duplicate CFG edge {edge.key}"
            )
        edge_index[edge.key] = i
    num_vars = len(edges)

    costs = block_costs(cfg, function, model)

    # Objective: block count = sum of incoming edges (entry handled separately).
    c = np.zeros(num_vars)
    for edge in edges:
        c[edge_index[edge.key]] -= costs[edge.dst.bid]
    entry_cost = costs[cfg.entry.bid] if cfg.entry is not None else 0.0

    a_eq_rows: list[np.ndarray] = []
    b_eq: list[float] = []

    # Flow conservation for every block except entry and exit.
    for block in cfg.blocks:
        if block is cfg.entry or block is cfg.exit:
            continue
        row = np.zeros(num_vars)
        for edge in edges:
            if edge.dst is block:
                row[edge_index[edge.key]] += 1.0
            if edge.src is block:
                row[edge_index[edge.key]] -= 1.0
        a_eq_rows.append(row)
        b_eq.append(0.0)

    # Entry: out-flow is exactly one; exit: in-flow is exactly one.
    row = np.zeros(num_vars)
    for edge in edges:
        if edge.src is cfg.entry:
            row[edge_index[edge.key]] += 1.0
    a_eq_rows.append(row)
    b_eq.append(1.0)

    row = np.zeros(num_vars)
    for edge in edges:
        if edge.dst is cfg.exit:
            row[edge_index[edge.key]] += 1.0
    a_eq_rows.append(row)
    b_eq.append(1.0)

    # Effective loop bounds: declared, tightened/completed by flow facts.
    effective_bounds = dict(cfg.loop_bounds)
    if flow_facts is not None:
        known = {block.bid for block in cfg.blocks}
        for header_bid, bound in flow_facts.loop_bounds.items():
            if header_bid not in known:
                continue
            declared = effective_bounds.get(header_bid)
            effective_bounds[header_bid] = (
                int(bound) if declared is None else min(declared, int(bound))
            )
    unbounded = sorted(set(cfg.back_edges) - set(effective_bounds))
    if unbounded:
        raise IpetError(
            f"function {function.name!r}: loop header block(s) "
            f"{', '.join(f'BB{b}' for b in unbounded)} have no declared or "
            "derived trip-count bound"
        )

    # Loop bounds: back-edge count <= bound * entry-edge count of the header.
    a_ub_rows: list[np.ndarray] = []
    b_ub: list[float] = []
    ub_headers: list[int] = []
    for header_bid, bound in effective_bounds.items():
        ub_headers.append(header_bid)
        header = next(b for b in cfg.blocks if b.bid == header_bid)
        row = np.zeros(num_vars)
        for edge in edges:
            if edge.dst is header and edge.kind == "back":
                row[edge_index[edge.key]] += 1.0
            elif edge.dst is header:
                row[edge_index[edge.key]] -= float(bound)
        a_ub_rows.append(row)
        b_ub.append(0.0)

    bounds: list[tuple[float, float | None]] = [(0, None)] * num_vars
    pinned: set[tuple[int, int, str]] = set()
    if flow_facts is not None:
        for key in flow_facts.infeasible_edges:
            i = edge_index.get(key)
            if i is not None:
                bounds[i] = (0, 0)
                pinned.add(key)

    result = linprog(
        c,
        A_eq=np.array(a_eq_rows),
        b_eq=np.array(b_eq),
        A_ub=np.array(a_ub_rows) if a_ub_rows else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        raise IpetError(f"IPET LP failed for {function.name!r}: {result.message}")

    # Every block defaults to 0.0 so consumers never KeyError on blocks the
    # worst-case path does not reach; counts are the sum of incoming edges.
    block_counts: dict[int, float] = {block.bid: 0.0 for block in cfg.blocks}
    for edge in edges:
        count = float(result.x[edge_index[edge.key]])
        block_counts[edge.dst.bid] += count
    # The entry block executes once on function entry.  Only seed that count
    # when no edge flows into the entry: a back edge targeting the entry has
    # already been accumulated above, and seeding on top of it would double
    # count the entry block.
    if block_counts[cfg.entry.bid] == 0.0:
        block_counts[cfg.entry.bid] = 1.0

    # Retain the full LP witness (primal counts; duals when HiGHS exposes
    # marginals) so an independent checker can re-verify the solution
    # without re-solving.  Duals are keyed by block semantics, never by the
    # producer's matrix row order: the interior-flow rows were appended in
    # ``cfg.blocks`` order, then the entry row, then the exit row, and the
    # inequality rows follow ``ub_headers``.
    edge_counts = {edge.key: float(result.x[edge_index[edge.key]]) for edge in edges}
    duals = None
    eq_marginals = getattr(getattr(result, "eqlin", None), "marginals", None)
    if eq_marginals is not None and len(eq_marginals) == len(b_eq):
        interior = [
            b.bid for b in cfg.blocks if b is not cfg.entry and b is not cfg.exit
        ]
        duals = {
            "flow": {bid: float(eq_marginals[i]) for i, bid in enumerate(interior)},
            "entry": float(eq_marginals[len(interior)]),
            "exit": float(eq_marginals[len(interior) + 1]),
            "loop": {},
        }
        ub_marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
        if ub_marginals is not None and len(ub_marginals) == len(ub_headers):
            duals["loop"] = {
                bid: float(ub_marginals[i]) for i, bid in enumerate(ub_headers)
            }
        elif ub_headers:
            # partial witness would make the checker's duality math wrong
            duals = None

    wcet = -float(result.fun) + entry_cost
    return IpetResult(
        wcet=wcet,
        block_counts=block_counts,
        cfg=cfg,
        edge_counts=edge_counts,
        block_costs=costs,
        entry_cost=entry_cost,
        loop_bounds=dict(effective_bounds),
        infeasible_edges=frozenset(pinned),
        duals=duals,
    )


@lru_cache(maxsize=None)
def _platform(name):
    return PLATFORMS[name]()


@lru_cache(maxsize=None)
def _entry(diagram_name, extraction, platform_name):
    """The transformed entry function a certified run of the design checks."""
    if diagram_name in ALL_USECASES:
        diagram = ALL_USECASES[diagram_name][0]()
    else:
        diagram = random_pipeline_diagram(26, 8, 48, seed=0)
    granularity, chunks = EXTRACTION[extraction]
    config = ToolchainConfig(granularity=granularity, loop_chunks=chunks)
    pipeline = Pipeline(_platform(platform_name), config, WcetAnalysisCache())
    return pipeline.run(diagram).model.entry


def branchy():
    """A loop whose expensive else-branch is statically dead: facts pin it."""
    fb = FunctionBuilder("branchy")
    x = fb.input_array("x", (16,))
    y = fb.output_array("y", (16,))
    with fb.loop("i", 0, 16) as i:
        with fb.if_then(i < 32):
            fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
        with fb.orelse():
            fb.assign(fb.at(y, i), fb.call("sqrt", fb.call("exp", fb.at(x, i))))
    return fb.build()


def zero_trip():
    """A loop that never runs next to one that does: a zero loop bound."""
    fb = FunctionBuilder("zero_trip")
    y = fb.output_array("y", (8,))
    with fb.loop("i", 0, 0) as i:
        fb.assign(fb.at(y, i), 1.0)
    with fb.loop("j", 0, 8) as j:
        fb.assign(fb.at(y, j), 2.0)
    return fb.build()


def straight_line():
    """No loop at all: the LP has no inequality row."""
    fb = FunctionBuilder("straight_line")
    x = fb.input_array("x", (4,))
    y = fb.output_array("y", (4,))
    fb.assign(fb.at(y, 0), fb.at(x, 1) * 2.0)
    return fb.build()


def assert_accepted(result, function):
    """The checker accepts the product's witness, duals included, and the
    block counts are the in-flow sums of its edge counts (entry seeded 1)."""
    assert result.duals is not None
    report = check_ipet_certificate(
        build_ipet_certificate(result, function.name), function=function
    )
    assert report.ok, [str(f) for f in report.findings]
    assert report.checked["edges_checked"] == len(result.edge_counts)
    assert report.checked["duals_checked"] == len(result.edge_counts)
    in_flow = dict.fromkeys(result.block_counts, 0.0)
    for (_, dst, _), count in result.edge_counts.items():
        in_flow[dst] += count
    entry = result.cfg.entry.bid
    in_flow[entry] = in_flow[entry] or 1.0
    assert result.block_counts == in_flow


def assert_matches_lp(function, model, facts):
    """The product against the LP oracle; ``None`` when both are infeasible."""
    try:
        oracle = dense_ipet_wcet(function, model, facts)
    except IpetError:
        oracle = None
    try:
        result = ipet_wcet(function, model, facts)
    except IpetError:
        result = None
    assert (result is None) == (oracle is None), (result, oracle)
    if result is None:
        return None
    for name in EXACT:
        assert getattr(result, name) == getattr(oracle, name), name
    assert result.wcet == pytest.approx(oracle.wcet, rel=1e-9, abs=0.0)
    assert_accepted(result, function)
    return result


def assert_same_witness(function, platform, with_facts):
    model = HardwareCostModel(platform, platform.cores[0].core_id)
    facts = derive_flow_facts(function)[0] if with_facts else None
    result = assert_matches_lp(function, model, facts)
    assert result is not None
    return result


@pytest.mark.parametrize("with_facts", [False, True], ids=["plain", "facts"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("extraction", ["block", "loop4"])
@pytest.mark.parametrize("usecase", sorted(ALL_USECASES))
def test_usecase_witness_matches_dense(usecase, extraction, platform_name, with_facts):
    function = _entry(usecase, extraction, platform_name)
    assert_same_witness(function, _platform(platform_name), with_facts)


def test_synthetic_model_witness_matches_dense():
    # one ~1000-task random model at the synthetic benchmark's loop x6
    function = _entry("random", "loop6", "generic4")
    result = assert_same_witness(function, _platform("generic4"), False)
    assert len(result.edge_counts) > 1000


@pytest.mark.parametrize("with_facts", [False, True], ids=["plain", "facts"])
def test_pinned_edges_match_dense(with_facts):
    result = assert_same_witness(branchy(), _platform("generic4"), with_facts)
    assert bool(result.infeasible_edges) == with_facts


@pytest.mark.parametrize("with_facts", [False, True], ids=["plain", "facts"])
def test_zero_loop_bound_matches_dense(with_facts):
    result = assert_same_witness(zero_trip(), _platform("generic4"), with_facts)
    assert sorted(result.loop_bounds.values()) == [0, 8]


def test_negative_loop_bound_raises_like_the_lp():
    """A negative trip bound makes its loop unenterable in the LP; both
    sides refuse the function when every path runs that loop."""
    function = zero_trip()
    header = min(build_cfg(function).back_edges)
    facts = FlowFacts(loop_bounds={header: -1})
    model = HardwareCostModel(_platform("generic4"), 0)
    assert assert_matches_lp(function, model, facts) is None
    with pytest.raises(IpetError, match="negative trip-count bound"):
        ipet_wcet(function, model, facts)


def test_loop_free_function_matches_dense():
    result = assert_same_witness(straight_line(), _platform("generic4"), False)
    assert result.loop_bounds == {}


FUZZ_FUNCTIONS = [
    (usecase, extraction, platform_name)
    for usecase in sorted(ALL_USECASES)
    for extraction in sorted(EXTRACTION)
    for platform_name in sorted(PLATFORMS)
]


@lru_cache(maxsize=None)
def _derived_facts(case):
    return derive_flow_facts(_entry(*case))[0]


def random_facts(case, rng, derived):
    """0-6 pinned edges and some loop bounds tightened (0 included); on top
    of the value-range analysis's facts when ``derived``."""
    cfg = build_cfg(_entry(*case))
    keys = [edge.key for edge in cfg.edges]
    pinned = set(rng.sample(keys, rng.randint(0, min(6, len(keys)))))
    bounds = {
        header: rng.randint(0, declared)
        for header, declared in cfg.loop_bounds.items()
        if rng.random() < 0.3
    }
    if derived:
        facts = _derived_facts(case)
        pinned |= facts.infeasible_edges
        for header, bound in facts.loop_bounds.items():
            bounds[header] = min(bound, bounds.get(header, bound))
    return FlowFacts(infeasible_edges=frozenset(pinned), loop_bounds=bounds)


@pytest.mark.parametrize("seed", range(10))
def test_random_flow_facts_match_lp(seed):
    """50 seeded draws per seed over the use-case entry functions: random
    pins and tightened bounds, derived facts on every 5th draw; infeasible
    draws must be infeasible on both sides."""
    rng = random.Random(seed)
    feasible = 0
    for draw in range(50):
        case = rng.choice(FUZZ_FUNCTIONS)
        platform = _platform(case[2])
        model = HardwareCostModel(platform, platform.cores[0].core_id)
        facts = random_facts(case, rng, derived=draw % 5 == 4)
        if assert_matches_lp(_entry(*case), model, facts) is not None:
            feasible += 1
    assert 0 < feasible < 50, feasible


def deep_structure():
    """3,000 sequential ifs, then a 40-deep loop nest."""
    fb = FunctionBuilder("deep")
    x = fb.input_array("x", (4,))
    y = fb.output_array("y", (4,))
    for k in range(3000):
        with fb.if_then(fb.at(x, k % 4) < float(k)):
            fb.assign(fb.at(y, k % 4), fb.at(x, (k + 1) % 4) * 2.0)
        with fb.orelse():
            fb.assign(fb.at(y, k % 4), fb.call("sqrt", fb.at(x, (k + 2) % 4)))
    with contextlib.ExitStack() as nest:
        for depth in range(40):
            nest.enter_context(fb.loop(f"i{depth}", 0, 1 + depth % 2))
        fb.assign(fb.at(y, 0), fb.at(x, 1) + 1.0)
    return fb.build()


def test_deep_structure_solves_without_recursion():
    limit = sys.getrecursionlimit()
    function = deep_structure()
    platform = _platform("generic4")
    model = HardwareCostModel(platform, platform.cores[0].core_id)
    result = ipet_wcet(function, model)
    assert sys.getrecursionlimit() == limit
    assert len(result.edge_counts) > 12_000
    structural = statement_wcet(function.body, function, model).total
    assert result.wcet == pytest.approx(structural, rel=1e-9, abs=0.0)
    assert_accepted(result, function)
