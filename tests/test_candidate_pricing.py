"""A candidate's price on the design's timeline plan equals the former solve.

The system-level solve (:func:`~repro.wcet.system_level._solve`) reads a
timeline plan the design builds once (each task's dependence predecessors
with their payload's delay table, in topological order), reads each
cross-core delay inline while it builds the timeline, and collects each
core's sharer windows during that build, in the order they run, for the
unpruned MHP kernel.  The former solve is kept here as the oracle:

* :class:`OracleTimeline` is the former per-solve timeline: it priced
  every dependence of the mapping once per solve (here through
  ``SystemDesign.delay``) and summed the communication cycles in
  graph-edge order;
* :func:`sorting_kernel` is the former unpruned kernel: it grouped the
  sharer windows by core, sorted them by start and carried a running
  maximum of their ends on every pass;
* :func:`interconnect_penalty_rows` is the former per-core penalty rows,
  each read off the platform's interconnect, not from the design's one
  row;
* :func:`oracle_solve` is the former fixed point around them, the
  static-MHP pruning, the pruned kernel and the fallback included.

Checked here:

* on Hypothesis mapping vectors and random dependence-consistent core
  orders, the three use cases at block and loop x3 on generic4, generic8
  and xentium, pruned and unpruned, the solve equals the oracle in
  starts, finishes, makespan, effective WCETs, contenders, iterations,
  ``converged``, ``final_delta`` and communication cycles, both through
  :meth:`~repro.wcet.system_level.SystemDesign.bound` (the default core
  order) and through :func:`~repro.wcet.system_level.system_level_wcet`
  (any core order), and ``bound(v)`` equals ``system_level_wcet`` under
  the default order; the same holds at an iteration cap of 1 and 2, where
  the fallback engages, on a platform that quotes a latency for a
  same-core transfer (which no dependence pays), and on a design whose
  average-case cost table is filled too;
* the unpruned kernel equals the strict half-open double loop on random
  back-to-back timelines with zero-length windows, shared endpoints and
  equal starts;
* on 12 use-case annealer points, the sequence of candidate bounds a
  search prices equals the sequence it prices with the oracle.

CI's "Candidate pricing smoke test" replays 3,000 seeded random vectors
over the 60 use-case designs against :func:`oracle_solve`.
"""

import dataclasses
import operator
from bisect import bisect_left
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.adl.architecture import Platform
from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.metaheuristics import simulated_annealing_schedule
from repro.usecases import ALL_USECASES
from repro.utils.intervals import Interval
from repro.wcet import WcetAnalysisCache
from repro.wcet import system_level
from repro.wcet.system_level import (
    SystemDesign,
    _ordered_plan,
    _solve,
    default_rows,
    mhp_contenders,
    mhp_contenders_pruned,
    system_level_wcet,
)

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "xentium": recore_xentium_like,
}
GRANULARITIES = {"block": ("block", 1), "loop3": ("loop", 3)}
USECASES = ["egpws", "polka", "weaa"]


# ---------------------------------------------------------------------- #
# the oracle: the former per-solve timeline, sorting kernel and solve
# ---------------------------------------------------------------------- #
class OracleTimeline:
    """Static timeline of one mapping, respecting dependences and the core
    order its processing order implies; its plan, with every cross-core
    delay priced, is built once per solve."""

    def __init__(self, design, cores, order):
        # per task, its dependences as (pred, delay), in graph-edge order
        preds = [[] for _ in cores]
        cross = []
        for src, dst, payload in design.leaf_edges:
            src_core, dst_core = cores[src], cores[dst]
            delay = 0.0
            if src_core != dst_core:
                delay = design.delay(payload, src_core, dst_core)
                cross.append(delay)
            preds[dst].append((src, delay))
        #: cycles spent on cross-core transfers, summed in graph-edge order
        self.communication_cycles = sum(cross)
        self.plan = [(i, cores[i], preds[i]) for i in order]
        self.core_ids = design.core_ids

    def build(self, effective):
        starts = [0.0] * len(effective)
        finish = [0.0] * len(effective)
        last = dict.fromkeys(self.core_ids, 0.0)
        for i, core, preds in self.plan:
            ready = last[core]
            for p, delay in preds:
                ready_p = finish[p] + delay
                if ready_p > ready:
                    ready = ready_p
            starts[i] = ready
            finish[i] = last[core] = ready + effective[i]
        return starts, finish, max(finish, default=0.0)


def sorting_kernel(cores, sharers, starts, finishes):
    """The former unpruned kernel: per core, the sharer windows sorted by
    start with a running maximum of their ends, rebuilt on every pass."""
    spans_of = {}
    for sid in sharers:
        spans_of.setdefault(cores[sid], []).append((starts[sid], finishes[sid]))
    per_core = []
    for core, spans in spans_of.items():
        spans.sort()
        run = []
        reach = float("-inf")
        for _, end in spans:
            if end > reach:
                reach = end
            run.append(reach)
        per_core.append((core, [start for start, _ in spans], run))
    contenders = []
    for own, start, end in zip(cores, starts, finishes):
        count = 0
        for core, core_starts, run in per_core:
            if core != own:
                k = bisect_left(core_starts, end)
                if k and run[k - 1] > start:
                    count += 1
        contenders.append(count)
    return contenders


def interconnect_penalty_rows(platform):
    """Per core, its shared-access penalty for every contender count, read
    off the platform's interconnect (never from the design)."""
    delay = platform.interconnect.worst_case_access_delay
    row = [0.0] + [max(0.0, delay(k) - delay(0)) for k in range(1, platform.num_cores)]
    return {core.core_id: row for core in platform.cores}


def oracle_solve(design, cores, order):
    """The former fixed point of mapping vector ``cores`` processed in
    ``order``, as a dict of every field the new solve must equal."""
    leaf_ids = design.leaf_ids
    penalty_rows = list(map(interconnect_penalty_rows(design.platform).__getitem__, cores))
    costs = list(map(design.cost, range(len(cores)), cores))
    base = [wcet for wcet, _ in costs]
    shared = [accesses for _, accesses in costs]
    sharers = [i for i, accesses in enumerate(shared) if accesses > 0]
    allowed_rows = None
    if design.static_pruning:
        from repro.analysis.static_mhp import compute_static_mhp

        relation = compute_static_mhp(
            design.htg, design.function, dict(zip(leaf_ids, cores)),
            sharers=[leaf_ids[i] for i in sharers], store=design.cache.footprints,
            base=design.mhp_base,
        )
        allowed_rows = [
            tuple(map(design.index.__getitem__, relation.allowed.get(t, ()))) for t in leaf_ids
        ]
    timeline = OracleTimeline(design, cores, order)
    cap = system_level.MAX_ITERATIONS
    effective = base
    contenders = [0] * len(cores)
    converged = False
    final_delta = 0.0
    for iterations in range(1, cap + 1):
        starts, finishes, makespan = timeline.build(effective)
        if allowed_rows is None:
            new_contenders = sorting_kernel(cores, sharers, starts, finishes)
        else:
            new_contenders = mhp_contenders_pruned(cores, allowed_rows, starts, finishes)
        new_effective = [
            b + s * row[k] for b, s, row, k in zip(base, shared, penalty_rows, new_contenders)
        ]
        if iterations == cap:
            final_delta = max(map(abs, map(operator.sub, new_effective, effective)), default=0.0)
        if new_effective == effective and new_contenders == contenders:
            converged = True
            contenders = new_contenders
            final_delta = 0.0
            break
        effective = new_effective
        contenders = new_contenders
    if not converged:
        if allowed_rows is None:
            contenders = [design.comm_contenders] * len(cores)
        else:
            contenders = [len({cores[o] for o in others}) for others in allowed_rows]
        effective = [
            max(e, b + s * row[k])
            for e, b, s, row, k in zip(effective, base, shared, penalty_rows, contenders)
        ]
        starts, finishes, makespan = timeline.build(effective)
    return {
        "starts": starts,
        "finishes": finishes,
        "makespan": makespan,
        "effective": effective,
        "contenders": contenders,
        "iterations": iterations,
        "converged": converged,
        "final_delta": final_delta,
        "communication_cycles": timeline.communication_cycles,
    }


def solved_fields(solved):
    """The fields of a product solve that :func:`oracle_solve` reports."""
    return {
        "starts": solved.starts,
        "finishes": solved.finishes,
        "makespan": solved.makespan,
        "effective": solved.effective,
        "contenders": solved.contenders,
        "iterations": solved.iterations,
        "converged": solved.converged,
        "final_delta": solved.final_delta,
    }


def result_fields(design, result):
    """The fields of a :class:`SystemWcetResult` that :func:`oracle_solve`
    reports, by task index."""
    leaf_ids = design.leaf_ids
    return {
        "starts": [result.task_intervals[t].start for t in leaf_ids],
        "finishes": [result.task_intervals[t].end for t in leaf_ids],
        "makespan": result.makespan,
        "effective": [result.task_effective_wcet[t] for t in leaf_ids],
        "contenders": [result.task_contenders[t] for t in leaf_ids],
        "iterations": result.iterations,
        "converged": result.converged,
        "final_delta": result.final_delta,
        "communication_cycles": result.communication_cycles,
    }


# ---------------------------------------------------------------------- #
# fixtures
# ---------------------------------------------------------------------- #
@lru_cache(maxsize=None)
def _compiled(usecase, granularity):
    model = compile_diagram(ALL_USECASES[usecase][0]())
    kind, chunks = GRANULARITIES[granularity]
    return model, extract_htg(model, ExtractionOptions(granularity=kind, loop_chunks=chunks))


def _design(usecase, granularity, platform_name, static_pruning=False):
    model, htg = _compiled(usecase, granularity)
    return SystemDesign(
        htg, model.entry, PLATFORMS[platform_name](), WcetAnalysisCache(), static_pruning
    )


@st.composite
def _topological_order(draw, design):
    """A random topological order of the design's leaf dependences."""
    indegree = [len(row) for row in design.pred_rows]
    succs = [[] for _ in indegree]
    for src, dst, _ in design.leaf_edges:
        succs[src].append(dst)
    ready = sorted(i for i, degree in enumerate(indegree) if degree == 0)
    order = []
    while ready:
        i = ready.pop(draw(st.integers(0, len(ready) - 1)))
        order.append(i)
        for nxt in succs[i]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return order


def _analyse(design, cores, rows):
    """``system_level_wcet`` of vector ``cores`` under core order ``rows``,
    solved afresh."""
    leaf_ids = design.leaf_ids
    mapping = dict(zip(leaf_ids, cores))
    order = {core: [leaf_ids[i] for i in row] for core, row in rows}
    design.cache.system_results.store.clear()
    return system_level_wcet(design, mapping, order)


def _check_vector(design, cores, topological):
    """The solve equals the oracle under the default core order and under
    the core order ``topological`` generates."""
    # the default core order: what a search prices
    want = oracle_solve(design, cores, design.topological)
    got = solved_fields(_solve(design, cores, design.plan))
    assert got == {k: v for k, v in want.items() if k != "communication_cycles"}
    assert design.bound(cores) == want["makespan"]
    default = list(default_rows(design.topological, cores.__getitem__).items())
    assert result_fields(design, _analyse(design, cores, default)) == want
    # a random dependence-consistent core order, processed in its Kahn order
    rows = list(default_rows(topological, cores.__getitem__).items())
    want = oracle_solve(design, cores, topological)
    got = solved_fields(_solve(design, cores, _ordered_plan(design, cores, rows)))
    assert got == {k: v for k, v in want.items() if k != "communication_cycles"}
    assert result_fields(design, _analyse(design, cores, rows)) == want


# ---------------------------------------------------------------------- #
# (a) the solve equals the oracle
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("pruned", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("granularity", sorted(GRANULARITIES))
@pytest.mark.parametrize("usecase", USECASES)
def test_solve_equals_oracle(usecase, granularity, platform_name, pruned):
    design = _design(usecase, granularity, platform_name, pruned)
    n = len(design.leaf_ids)

    @given(
        cores=st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n),
        topological=_topological_order(design),
    )
    @settings(max_examples=12, deadline=None)
    def check(cores, topological):
        _check_vector(design, cores, topological)

    check()


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("pruned", [False, True], ids=["unpruned", "pruned"])
def test_fallback_equals_oracle(cap, pruned, monkeypatch):
    """At an iteration cap the fallback engages on both sides alike."""
    monkeypatch.setattr(system_level, "MAX_ITERATIONS", cap)
    design = _design("polka", "loop3", "generic8", pruned)
    n = len(design.leaf_ids)
    fallbacks = []

    @given(
        cores=st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n),
        topological=_topological_order(design),
    )
    @settings(max_examples=15, deadline=None)
    def check(cores, topological):
        _check_vector(design, cores, topological)
        fallbacks.append(not _solve(design, cores, design.plan).converged)

    check()
    # a pruned design of polka mostly settles within two passes
    if cap == 1 or not pruned:
        assert any(fallbacks), "no drawn vector reached the iteration cap"


class SameCorePricedPlatform(Platform):
    """A platform that quotes a latency for a transfer within one core,
    which a same-core dependence must never pay."""

    def communication_latency(self, num_bytes, src_core, dst_core, contenders=0):
        if src_core == dst_core:
            return 1000.0 + num_bytes
        return super().communication_latency(num_bytes, src_core, dst_core, contenders)


def test_same_core_edges_cost_nothing():
    """A dependence between two tasks of one core costs no transfer, in the
    timeline and in the communication cycles, whatever the platform quotes."""
    model, htg = _compiled("polka", "loop3")
    base = generic_predictable_multicore(cores=4)
    platform = SameCorePricedPlatform(
        **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    )
    design = SystemDesign(htg, model.entry, platform, WcetAnalysisCache())
    n = len(design.leaf_ids)

    @given(
        cores=st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n),
        topological=_topological_order(design),
    )
    @settings(max_examples=15, deadline=None)
    def check(cores, topological):
        _check_vector(design, cores, topological)

    check()
    _check_vector(design, [0] * n, design.topological)


def test_solve_reads_worst_case_costs():
    """A design whose average-case table is filled too (as the acet_list
    scheduler fills it) still prices every task at its worst case."""
    design = _design("weaa", "loop3", "xentium")
    n = len(design.leaf_ids)
    for i in range(n):
        for core in design.core_ids:
            design.cost(i, core, average=True)

    @given(
        cores=st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n),
        topological=_topological_order(design),
    )
    @settings(max_examples=10, deadline=None)
    def check(cores, topological):
        _check_vector(design, cores, topological)

    check()


# ---------------------------------------------------------------------- #
# (b) the unpruned kernel equals the double loop on timelines
# ---------------------------------------------------------------------- #
def double_loop(cores, sharers, starts, finishes):
    """Distinct other cores with an overlapping sharer, pair by pair, with
    the strict half-open comparisons of :meth:`Interval.overlaps`."""
    contenders = []
    for i, core in enumerate(cores):
        window = Interval(starts[i], finishes[i])
        other_cores = set()
        for other in sharers:
            if other != i and cores[other] != core:
                if window.overlaps(Interval(starts[other], finishes[other])):
                    other_cores.add(cores[other])
        contenders.append(len(other_cores))
    return contenders


@st.composite
def _timeline(draw):
    """A random timeline: per core, tasks back to back on an integer grid
    (zero gaps and zero-length windows give shared endpoints and equal
    starts), each task a sharer or not, task indexes shuffled across cores.

    Returns (cores, sharers, starts, finishes, windows), the windows per
    core in the order the core runs them, as the build collects them.
    """
    num_cores = draw(st.integers(1, 6))
    lengths = st.sampled_from([0, 0, 0, 1, 2, 3, 5, 8])
    gaps = st.sampled_from([0, 0, 0, 1, 2, 4])
    per_core = []
    for core in range(num_cores):
        clock, row = 0, []
        for _ in range(draw(st.integers(0, 8))):
            start = clock + draw(gaps)
            end = start + draw(lengths)
            row.append((float(start), float(end), draw(st.booleans())))
            clock = end
        per_core.append(row)
    tasks = [(core, *task) for core, row in enumerate(per_core) for task in row]
    index = draw(st.permutations(range(len(tasks))))
    cores = [0] * len(tasks)
    starts = [0.0] * len(tasks)
    finishes = [0.0] * len(tasks)
    sharers = []
    windows = {}
    for position, (core, start, end, shares) in enumerate(tasks):
        i = index[position]
        cores[i], starts[i], finishes[i] = core, start, end
        if shares:
            sharers.append(i)
            core_starts, core_ends = windows.setdefault(core, ([], []))
            core_starts.append(start)
            core_ends.append(end)
    rows = [(core, core_starts, core_ends) for core, (core_starts, core_ends) in windows.items()]
    return cores, sorted(sharers), starts, finishes, rows


@given(_timeline())
@settings(max_examples=400, deadline=None)
def test_kernel_equals_double_loop_on_timelines(timeline):
    cores, sharers, starts, finishes, windows = timeline
    assert mhp_contenders(cores, windows, starts, finishes) == double_loop(
        cores, sharers, starts, finishes
    )


def test_kernel_timeline_boundaries():
    """Spot values: windows sharing an endpoint never contend, a zero-length
    window strictly inside another one does, and equal starts contend when
    both windows are non-empty."""
    # core 0 runs a [0, 5), b [5, 5), c [5, 9); core 1 runs d [5, 7),
    # g [8, 8); core 2 runs e [0, 5), f [9, 9)
    cores = [0, 0, 0, 1, 2, 2, 1]
    starts = [0.0, 5.0, 5.0, 5.0, 0.0, 9.0, 8.0]
    finishes = [5.0, 5.0, 9.0, 7.0, 5.0, 9.0, 8.0]
    sharers = list(range(7))
    windows = [
        (0, [0.0, 5.0, 5.0], [5.0, 5.0, 9.0]),
        (1, [5.0, 8.0], [7.0, 8.0]),
        (2, [0.0, 9.0], [5.0, 9.0]),
    ]
    counts = mhp_contenders(cores, windows, starts, finishes)
    assert counts == double_loop(cores, sharers, starts, finishes)
    assert counts == [1, 0, 1, 1, 1, 0, 1]


# ---------------------------------------------------------------------- #
# (c) annealer searches price the same candidate bounds
# ---------------------------------------------------------------------- #
ANNEALER_POINTS = [
    (usecase, granularity, platform_name)
    for usecase in USECASES
    for granularity in sorted(GRANULARITIES)
    for platform_name in ("generic4", "xentium")
]


def _searched_bounds(point, seed, bound, monkeypatch):
    """The candidate bounds one annealer search prices, in order, through
    ``bound``, on a fresh design and cache (so no search record replays)."""
    seen = []

    def recording(design, cores):
        value = bound(design, cores)
        seen.append(value)
        return value

    with monkeypatch.context() as patch:
        patch.setattr(SystemDesign, "bound", recording)
        schedule = simulated_annealing_schedule(_design(*point), seed=seed)
    return seen, schedule.mapping, schedule.wcet_bound


@pytest.mark.parametrize("point", ANNEALER_POINTS, ids="/".join)
def test_annealer_candidate_bounds_equal_oracle(point, monkeypatch):
    seed = ANNEALER_POINTS.index(point)
    product = _searched_bounds(point, seed, SystemDesign.bound, monkeypatch)

    def oracle_bound(design, cores):
        return oracle_solve(design, cores, design.topological)["makespan"]

    oracle = _searched_bounds(point, seed, oracle_bound, monkeypatch)
    assert len(product[0]) > 0
    assert product == oracle
