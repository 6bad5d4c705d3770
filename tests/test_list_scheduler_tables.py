"""The list scheduler's table-driven placement against the former loop.

``OracleListScheduler`` keeps the former ``_upward_ranks`` and placement
loop: they priced every (successor) and every (predecessor, candidate core)
transfer through ``SystemDesign.delay`` and every cost through
``SystemDesign.cost``, and read each predecessor's finish time and core once
per candidate core.  The product prices transfers from per-payload delay
tables and costs from ``SystemDesign.cost_table``; both must give identical
mappings, orders, estimated makespans and bounds.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.list_scheduler import WcetAwareListScheduler
from repro.scheduling.schedule import Schedule, evaluate_mapping
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.wcet import WcetAnalysisCache
from repro.wcet.system_level import SystemDesign

PLATFORMS = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "xentium": recore_xentium_like,
    "noc": kit_leon3_inoc,
}


class OracleListScheduler(WcetAwareListScheduler):
    """The former ranks and placement loop, verbatim."""

    def _upward_ranks(self, design, succs, ref_core):
        comm = design.num_cores > 1
        pair = design.core_ids[:2]
        ranks = [0.0] * len(succs)
        for i in reversed(design.topological):
            best_succ = 0.0
            for j, payload in succs[i]:
                delay = design.delay(payload, *pair) if comm and payload else 0.0
                best_succ = max(best_succ, ranks[j] + delay)
            ranks[i] = design.cost(i, ref_core, self.use_average_costs)[0] + best_succ
        return ranks

    def schedule(self, design: SystemDesign) -> Schedule:
        core_ids = design.core_ids[: self.max_cores]
        leaf_ids = design.leaf_ids
        num_tasks = len(leaf_ids)
        succs = [[] for _ in leaf_ids]
        for src, dst, payload in design.leaf_edges:
            succs[src].append((dst, payload))
        ranks = self._upward_ranks(design, succs, core_ids[0])
        average = self.use_average_costs
        contenders = max(0, len(core_ids) - 1)

        core_of = [0] * num_tasks
        finish = [None] * num_tasks
        placed = []
        order = {c: [] for c in core_ids}
        busy_starts = {c: [] for c in core_ids}
        busy_ends = {c: [] for c in core_ids}
        core_ready = {c: 0.0 for c in core_ids}
        indegree = [len(row) for row in design.pred_rows]
        ready = [(-ranks[i], leaf_ids[i], i) for i in range(num_tasks) if indegree[i] == 0]
        heapq.heapify(ready)

        def place(i):
            best_core = core_ids[0]
            best_finish = float("inf")
            best_start = 0.0
            for core_id in core_ids:
                ready_deps = 0.0
                for pred, payload in design.pred_rows[i]:
                    pred_finish = finish[pred]
                    if pred_finish is None:
                        continue
                    src_core = core_of[pred]
                    delay = (
                        design.delay(payload, src_core, core_id, contenders)
                        if src_core != core_id and payload
                        else 0.0
                    )
                    ready_deps = max(ready_deps, pred_finish + delay)
                start = max(core_ready[core_id], ready_deps)
                duration, shared_accesses = design.cost(i, core_id, average)
                window_end = start + max(duration, 1e-9)
                busy_cores = 0
                for other_core in core_ids:
                    if other_core == core_id:
                        continue
                    starts = busy_starts[other_core]
                    idx = bisect_left(starts, window_end)
                    if idx and busy_ends[other_core][idx - 1] > start:
                        busy_cores += 1
                penalty = 0.0
                if not average and shared_accesses:
                    penalty = (
                        self.contention_weight * shared_accesses * design.penalty[busy_cores]
                    )
                candidate_finish = start + duration + penalty
                if candidate_finish < best_finish - 1e-9:
                    best_finish = candidate_finish
                    best_core = core_id
                    best_start = start
            core_of[i] = best_core
            finish[i] = best_finish
            placed.append(i)
            order[best_core].append(leaf_ids[i])
            core_ready[best_core] = best_finish
            busy_starts[best_core].append(best_start)
            busy_ends[best_core].append(best_finish)

        while ready:
            _, _, i = heapq.heappop(ready)
            place(i)
            for succ, _ in succs[i]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, (-ranks[succ], leaf_ids[succ], succ))
        mapping = {leaf_ids[i]: core_of[i] for i in placed}
        order = {c: tids for c, tids in order.items() if tids}
        schedule = evaluate_mapping(design, mapping, order, scheduler="oracle")
        schedule.metadata["estimated_makespan"] = max(
            (finish[i] for i in placed), default=0.0
        )
        return schedule


def fingerprint(schedule: Schedule):
    return (
        schedule.mapping,
        schedule.order,
        schedule.metadata["estimated_makespan"],
        schedule.wcet_bound,
    )


def assert_same_schedules(model, htg, platform, knobs):
    """Product and oracle on fresh designs over one cache, per knob set."""
    cache = WcetAnalysisCache()
    for max_cores, average, weight in knobs:
        kwargs = dict(
            max_cores=max_cores, use_average_costs=average, contention_weight=weight
        )
        oracle, product = OracleListScheduler(**kwargs), WcetAwareListScheduler(**kwargs)
        want = oracle.schedule(SystemDesign(htg, model.entry, platform, cache))
        got = product.schedule(SystemDesign(htg, model.entry, platform, cache))
        assert fingerprint(got) == fingerprint(want), kwargs
        design = SystemDesign(htg, model.entry, platform, cache)
        succs = [[] for _ in design.leaf_ids]
        for src, dst, payload in design.leaf_edges:
            succs[src].append((dst, payload))
        ref_core = design.core_ids[0]
        assert product._upward_ranks(design, succs, ref_core) == oracle._upward_ranks(
            design, succs, ref_core
        ), kwargs


@st.composite
def designs(draw):
    model = synthetic_compiled_model(
        num_kernels=draw(st.integers(1, 9)),
        vector_size=draw(st.sampled_from([8, 16, 24])),
        dependency_probability=draw(st.sampled_from([0.2, 0.35, 0.7])),
        seed=draw(st.integers(0, 10_000)),
    )
    granularity, chunks = draw(st.sampled_from([("block", 1), ("loop", 2), ("loop", 3)]))
    htg = extract_htg(model, ExtractionOptions(granularity=granularity, loop_chunks=chunks))
    platform = PLATFORMS[draw(st.sampled_from(sorted(PLATFORMS)))]()
    knobs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([None, *range(1, len(platform.cores) + 1)]),
                st.booleans(),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return model, htg, platform, knobs


@given(designs())
@settings(max_examples=40, deadline=None)
def test_random_designs_match_the_former_loop(case):
    assert_same_schedules(*case)


@pytest.mark.parametrize("platform_name", ["generic4", "xentium", "noc"])
@pytest.mark.parametrize("usecase", sorted(ALL_USECASES))
def test_use_cases_match_the_former_loop(usecase, platform_name):
    model = compile_diagram(ALL_USECASES[usecase][0]())
    platform = PLATFORMS[platform_name]()
    knobs = [(None, False, 1.0), (2, False, 0.5), (None, True, 1.0), (3, False, 0.0)]
    for granularity, chunks in (("block", 1), ("loop", 3)):
        htg = extract_htg(model, ExtractionOptions(granularity=granularity, loop_chunks=chunks))
        assert_same_schedules(model, htg, platform, knobs)
