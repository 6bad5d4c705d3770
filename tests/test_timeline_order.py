"""The solve's timeline, processed in any valid order, equals the Kahn pass.

:class:`_TimelineBuilder` is the former timeline of the system-level solve,
kept as the oracle: a Kahn pass over the constraint graph of the
dependences (each priced through ``SystemDesign.delay``) plus one chain
edge per pair of consecutive tasks in a core's order.  The product's
:func:`~repro.wcet.system_level._build` walks the design's timeline plan
(each task's dependence predecessors with their payload's delay table,
read inline) and reads each core's chain as the last finish on that core,
in a processing order: :meth:`~repro.wcet.system_level.SystemDesign.bound`
reads the plan in the design's topological order as is, and
:func:`system_level_wcet` reorders it by a Kahn pass over its core order.
On Hypothesis draws of mapping vectors, task durations and random
dependence-consistent core orders (not only the default one), starts,
finishes and makespan must be equal bit for bit, and so must the
communication cycles a result reports, on the three use cases, block and
loop x3 extraction, one homogeneous and one heterogeneous platform.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.usecases import ALL_USECASES
from repro.wcet import WcetAnalysisCache
from repro.wcet.system_level import (
    SystemDesign,
    SystemWcetError,
    _build,
    _ordered_plan,
    default_rows,
    system_level_wcet,
)

PLATFORMS = {
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "xentium": recore_xentium_like,
}
GRANULARITIES = {"block": ("block", 1), "loop3": ("loop", 3)}


class _TimelineBuilder:
    """Static timeline respecting dependences and per-core ordering.

    A Kahn-style event pass over the constraint graph (dependence edges plus
    the per-core predecessor chain): each task is finalized exactly once when
    all its constraints are resolved, so the pass is linear in tasks + edges.
    """

    def __init__(self, design, cores, rows):
        # per task, its constraints as (pred, delay): the dependences with
        # their priced cross-core delays, in graph-edge order, then the
        # previous task on its core
        preds = [[] for _ in cores]
        succs = [[] for _ in cores]
        cross = []
        for src, dst, payload in design.leaf_edges:
            src_core, dst_core = cores[src], cores[dst]
            delay = 0.0
            if src_core != dst_core:
                delay = design.delay(payload, src_core, dst_core)
                cross.append(delay)
            preds[dst].append((src, delay))
            succs[src].append(dst)
        #: cycles spent on cross-core transfers, summed in graph-edge order
        self.communication_cycles = sum(cross)
        for _, tids in rows:
            for prev, nxt in zip(tids, tids[1:]):
                preds[nxt].append((prev, 0.0))
                succs[prev].append(nxt)
        indegree = [len(row) for row in preds]
        self._plan = []
        worklist = [i for i, degree in enumerate(indegree) if degree == 0]
        while worklist:
            i = worklist.pop()
            self._plan.append((i, preds[i]))
            for nxt in succs[i]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    worklist.append(nxt)
        if len(self._plan) < len(cores):
            raise SystemWcetError("cyclic wait between core order and dependences")

    def build(self, effective):
        starts = [0.0] * len(effective)
        finish = [0.0] * len(effective)
        for i, preds in self._plan:
            ready = 0.0
            for p, delay in preds:
                ready_p = finish[p] + delay
                if ready_p > ready:
                    ready = ready_p
            starts[i] = ready
            finish[i] = ready + effective[i]
        return starts, finish, max(finish, default=0.0)


@lru_cache(maxsize=None)
def _compiled(usecase, granularity):
    model = compile_diagram(ALL_USECASES[usecase][0]())
    kind, chunks = GRANULARITIES[granularity]
    return model, extract_htg(model, ExtractionOptions(granularity=kind, loop_chunks=chunks))


def _design(usecase, granularity, platform_name):
    model, htg = _compiled(usecase, granularity)
    return SystemDesign(htg, model.entry, PLATFORMS[platform_name](), WcetAnalysisCache())


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


def _assert_same_timeline(design, cores, rows, plan, effective):
    """The build equals the oracle, and the windows it collects for every
    task are each core's row in run order, sorted by start and by end."""
    want = _TimelineBuilder(design, cores, rows)
    window_cores = [core for core, _ in rows]
    position = {core: k for k, core in enumerate(window_cores)}
    slots = [position[core] for core in cores]
    starts, finishes, makespan, windows = _build(
        plan, cores, effective, design, slots, window_cores
    )
    assert (starts, finishes, makespan) == want.build(effective)
    assert windows == [
        (core, [starts[i] for i in row], [finishes[i] for i in row]) for core, row in rows
    ]
    for _, core_starts, core_ends in windows:
        assert core_starts == sorted(core_starts) and core_ends == sorted(core_ends)
    # collecting no window leaves the timeline as it is
    assert _build(plan, cores, effective, design, [-1] * len(cores), []) == (
        starts, finishes, makespan, []
    )
    return want


def _assert_same_communication(design, cores, rows, want):
    """The communication cycles of a result, summed in graph-edge order."""
    leaf_ids = design.leaf_ids
    mapping = dict(zip(leaf_ids, cores))
    order = {core: [leaf_ids[i] for i in row] for core, row in rows}
    result = system_level_wcet(design, mapping, order)
    assert result.communication_cycles == want.communication_cycles


@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("granularity", sorted(GRANULARITIES))
@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
def test_timeline_equals_kahn_oracle(usecase, granularity, platform_name):
    design = _design(usecase, granularity, platform_name)
    n = len(design.leaf_ids)
    durations = st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e5, allow_nan=False)), min_size=n, max_size=n
    )

    @given(
        cores=st.lists(st.sampled_from(design.core_ids), min_size=n, max_size=n),
        effective=durations,
        topological=_topological_order(design),
    )
    @settings(max_examples=25, deadline=None)
    def check(cores, effective, topological):
        # the default core order, processed in the design's topological order
        # (as SystemDesign.bound does)
        default = list(default_rows(design.topological, cores.__getitem__).items())
        _assert_same_timeline(design, cores, default, design.plan, effective)
        # a random dependence-consistent core order, processed in the order a
        # Kahn pass over it gives (as system_level_wcet does)
        rows = list(default_rows(topological, cores.__getitem__).items())
        want = _assert_same_timeline(
            design, cores, rows, _ordered_plan(design, cores, rows), effective
        )
        _assert_same_communication(design, cores, rows, want)
        # its own generating order is a valid processing order too
        own = [design.timeline_rows[i] for i in topological]
        _assert_same_timeline(design, cores, rows, own, effective)

    check()


def test_cyclic_core_order_raises_like_the_oracle():
    design = _design("polka", "block", "generic4")
    src, dst, _ = design.leaf_edges[0]
    cores = [0] * len(design.leaf_ids)
    # every task on core 0, with one dependence's endpoints swapped
    row = list(design.topological)
    a, b = row.index(src), row.index(dst)
    row[a], row[b] = row[b], row[a]
    rows = [(0, row)]
    with pytest.raises(SystemWcetError, match="cyclic wait") as want:
        _TimelineBuilder(design, cores, rows)
    with pytest.raises(SystemWcetError, match="cyclic wait") as got:
        _ordered_plan(design, cores, rows)
    assert str(got.value) == str(want.value)
