"""E11: list-scheduler scaling on large synthetic HTGs (before/after).

The seed implementation of :class:`WcetAwareListScheduler` re-ran the
code-level WCET analysis for every (task, candidate core) pair, scanned the
whole ready pool per placement step, computed an unused transitive closure
and re-scanned every edge list and busy-interval list inside the placement
loop.  This experiment reproduces that implementation verbatim (as
``_seed_reference_schedule`` below, with the upward-rank communication bugfix
applied so both sides price communication identically) and compares it
against the memoized + heap/bisect rewrite on synthetic HTGs of 50-500 tasks
and 2-16 cores.

The rewrite must be bound-preserving: each row asserts the analysed makespan
is identical.  The acceptance target is a >=5x speed-up at ~200 tasks on 4
cores; the seed reference is skipped above ``SEED_TASK_LIMIT`` tasks where it
becomes unreasonably slow.
"""

import time

try:
    from benchmarks._common import emit
except ModuleNotFoundError:  # direct run: python benchmarks/bench_e11_scaling.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling import WcetAwareListScheduler
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.intervals import Interval
from repro.utils.tables import Table
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache
from repro.wcet.code_level import analyze_task_wcet

#: (num_kernels, loop_chunks, cores) -> roughly 4*num_kernels tasks
CONFIGS = [
    (13, 4, 2),
    (25, 4, 4),
    (50, 4, 4),
    (50, 4, 8),
    (88, 4, 8),
    (125, 4, 16),
]
#: seed reference is only run below this task count (it is quadratic)
SEED_TASK_LIMIT = 220


def _seed_predecessors(htg, task_id):
    """Seed-era adjacency query: a linear scan over the whole edge list."""
    return [e.src for e in htg.edges if e.dst == task_id]


def _seed_edge(htg, src, dst):
    for e in htg.edges:
        if e.src == src and e.dst == dst:
            return e
    return None


def _seed_build_timeline(htg, mapping, order, effective_wcet, comm_delay):
    """The seed's quadratic worklist timeline (re-scans pending every pass)."""
    position = {tid: (core, idx) for core, tids in order.items() for idx, tid in enumerate(tids)}
    finish, start = {}, {}
    remaining = [t.task_id for t in htg.leaf_tasks()]
    pending = set(remaining)
    guard = 0
    while pending:
        guard += 1
        assert guard <= len(remaining) ** 2 + 10
        progressed = False
        for tid in list(pending):
            core, idx = position[tid]
            preds = [p for p in _seed_predecessors(htg, tid) if p in pending or p in finish]
            if any(p in pending for p in preds):
                continue
            if idx > 0:
                prev = order[core][idx - 1]
                if prev in pending:
                    continue
                ready_core = finish[prev]
            else:
                ready_core = 0.0
            ready_deps = 0.0
            for p in preds:
                delay = comm_delay(p, tid) if mapping[p] != core else 0.0
                ready_deps = max(ready_deps, finish[p] + delay)
            s = max(ready_core, ready_deps)
            start[tid] = s
            finish[tid] = s + effective_wcet[tid]
            pending.discard(tid)
            progressed = True
        assert progressed
    intervals = {tid: Interval(start[tid], finish[tid]) for tid in start}
    makespan = max((iv.end for iv in intervals.values()), default=0.0)
    return intervals, makespan


def _seed_system_level_bound(htg, function, platform, mapping, order, max_iterations=25):
    """The seed's system-level analysis: uncached re-analysis + MHP fixed point."""
    leaf_ids = [t.task_id for t in htg.leaf_tasks()]
    models = {
        core_id: HardwareCostModel(platform, core_id)
        for core_id in {mapping[tid] for tid in leaf_ids}
    }
    base_wcet, shared_accesses = {}, {}
    for tid in leaf_ids:
        breakdown = analyze_task_wcet(htg.task(tid), function, models[mapping[tid]])
        base_wcet[tid] = breakdown.total
        shared_accesses[tid] = breakdown.shared_accesses

    comm_contenders = max(0, platform.num_cores - 1)
    comm_cache = {}

    def comm_delay(src, dst):
        key = (src, dst)
        if key not in comm_cache:
            edge = _seed_edge(htg, src, dst)
            payload = edge.payload_bytes if edge is not None else 0
            comm_cache[key] = (
                platform.communication_latency(payload, mapping[src], mapping[dst], comm_contenders)
                if payload
                else 0.0
            )
        return comm_cache[key]

    effective = dict(base_wcet)
    contenders = {tid: 0 for tid in leaf_ids}
    makespan, converged = 0.0, False
    for _ in range(max_iterations):
        intervals, makespan = _seed_build_timeline(htg, mapping, order, effective, comm_delay)
        new_contenders = {}
        for tid in leaf_ids:
            other_cores = set()
            for other in leaf_ids:
                if other == tid or mapping[other] == mapping[tid]:
                    continue
                if shared_accesses[other] == 0:
                    continue
                if intervals[tid].overlaps(intervals[other]):
                    other_cores.add(mapping[other])
            new_contenders[tid] = len(other_cores)
        new_effective = {
            tid: base_wcet[tid]
            + shared_accesses[tid] * platform.shared_access_penalty(new_contenders[tid])
            for tid in leaf_ids
        }
        if new_effective == effective and new_contenders == contenders:
            converged = True
            break
        effective, contenders = new_effective, new_contenders
    if not converged:
        worst = {
            tid: base_wcet[tid]
            + shared_accesses[tid] * platform.shared_access_penalty(comm_contenders)
            for tid in leaf_ids
        }
        effective = {tid: max(effective[tid], worst[tid]) for tid in leaf_ids}
        _, makespan = _seed_build_timeline(htg, mapping, order, effective, comm_delay)
    return makespan


def _seed_reference_schedule(htg, function, platform):
    """The seed list scheduler, reproduced verbatim for the comparison.

    Identical to the pre-rewrite implementation -- uncached per-placement
    analyses, linear ready-pool and edge-list scans, full interval scans,
    dead transitive closure, quadratic system-level timeline -- except that
    ``_upward_ranks`` prices communication with the fixed worst-case call,
    so placements match the rewritten scheduler.
    """
    models = {}

    def model(core_id):
        if core_id not in models:
            models[core_id] = HardwareCostModel(platform, core_id)
        return models[core_id]

    def task_cost(tid, core_id):
        breakdown = analyze_task_wcet(htg.task(tid), function, model(core_id))
        return breakdown.total, breakdown.shared_accesses

    core_ids = [c.core_id for c in platform.cores]

    # upward ranks (seed structure, fixed communication call)
    cost = {t.task_id: task_cost(t.task_id, core_ids[0])[0] for t in htg.leaf_tasks()}
    avg_comm = {}
    if platform.num_cores > 1:
        for edge in htg.edges:
            if edge.payload_bytes:
                avg_comm[(edge.src, edge.dst)] = platform.communication_latency(
                    edge.payload_bytes, 0, 1, platform.num_cores - 1
                )
    ranks = {}
    for task in reversed(htg.topological_tasks()):
        if task.is_synthetic:
            continue
        tid = task.task_id
        best_succ = 0.0
        for succ in htg.successors(tid):
            if succ not in cost:
                continue
            best_succ = max(best_succ, ranks.get(succ, 0.0) + avg_comm.get((tid, succ), 0.0))
        ranks[tid] = cost[tid] + best_succ

    tasks = sorted(htg.leaf_tasks(), key=lambda t: (-ranks[t.task_id], t.task_id))
    mapping = {}
    order = {c: [] for c in core_ids}
    finish = {}
    core_busy = {c: [] for c in core_ids}
    core_ready = {c: 0.0 for c in core_ids}
    dependent = htg.reachability().pairs()  # the seed's dead O(n^2) computation

    placed = set()
    ready_pool = list(tasks)
    while ready_pool:
        candidate = None
        for task in ready_pool:
            preds = _seed_predecessors(htg, task.task_id)
            if all(p in placed or htg.task(p).is_synthetic for p in preds):
                candidate = task
                break
        if candidate is None:
            candidate = ready_pool[0]
        ready_pool.remove(candidate)
        tid = candidate.task_id

        best_core = core_ids[0]
        best_finish = float("inf")
        best_start = 0.0
        for core_id in core_ids:
            ready_deps = 0.0
            for pred in _seed_predecessors(htg, tid):
                if pred not in finish:
                    continue
                delay = 0.0
                if mapping.get(pred) != core_id:
                    edge = _seed_edge(htg, pred, tid)
                    payload = edge.payload_bytes if edge else 0
                    if payload:
                        delay = platform.communication_latency(
                            payload, mapping[pred], core_id, max(0, len(core_ids) - 1)
                        )
                ready_deps = max(ready_deps, finish[pred] + delay)
            start = max(core_ready[core_id], ready_deps)
            duration, shared_accesses = task_cost(tid, core_id)
            window = Interval(start, start + max(duration, 1e-9))
            busy_cores = sum(
                1
                for other_core, intervals in core_busy.items()
                if other_core != core_id and any(iv.overlaps(window) for iv in intervals)
            )
            penalty = 0.0
            if shared_accesses:
                penalty = shared_accesses * platform.shared_access_penalty(busy_cores)
            candidate_finish = start + duration + penalty
            if candidate_finish < best_finish - 1e-9:
                best_finish = candidate_finish
                best_core = core_id
                best_start = start

        mapping[tid] = best_core
        order[best_core].append(tid)
        finish[tid] = best_finish
        core_ready[best_core] = best_finish
        core_busy[best_core].append(Interval(best_start, best_finish))
        placed.add(tid)

    order = {c: tids for c, tids in order.items() if tids}
    bound = _seed_system_level_bound(htg, function, platform, mapping, order)
    del dependent
    return mapping, order, bound


def _build_htg(num_kernels, chunks, cores):
    model = synthetic_compiled_model(num_kernels=num_kernels, vector_size=32, seed=1)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    return model, htg, platform


def _sweep():
    rows = []
    for num_kernels, chunks, cores in CONFIGS:
        model, htg, platform = _build_htg(num_kernels, chunks, cores)
        num_tasks = len(htg.leaf_tasks())

        t0 = time.perf_counter()
        new = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        new_seconds = time.perf_counter() - t0

        if num_tasks <= SEED_TASK_LIMIT:
            t0 = time.perf_counter()
            seed_mapping, seed_order, seed_bound = _seed_reference_schedule(
                htg, model.entry, platform
            )
            seed_seconds = time.perf_counter() - t0
            assert seed_bound == new.wcet_bound, (
                f"rewrite is not bound-preserving at {num_tasks} tasks / {cores} cores: "
                f"{seed_bound} != {new.wcet_bound}"
            )
            assert seed_mapping == new.mapping
            assert seed_order == new.order
        else:
            seed_seconds = None
        rows.append((num_tasks, cores, seed_seconds, new_seconds, new.wcet_bound))
    return rows


def test_e11_scheduler_scaling(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = Table(
        ["tasks", "cores", "seed seconds", "new seconds", "speedup", "WCET bound"],
        title="E11 list-scheduler scaling (seed vs memoized/heap rewrite)",
    )
    target_speedup = None
    for num_tasks, cores, seed_seconds, new_seconds, bound in rows:
        speedup = seed_seconds / new_seconds if seed_seconds is not None else None
        if seed_seconds is not None and num_tasks >= 150 and cores == 4:
            target_speedup = speedup
        table.add_row([
            num_tasks,
            cores,
            f"{seed_seconds:.3f}" if seed_seconds is not None else "n/a",
            f"{new_seconds:.3f}",
            f"{speedup:.1f}x" if speedup is not None else "n/a",
            bound,
        ])
    emit(table)

    # acceptance: >=5x on the ~200-task / 4-core configuration
    assert target_speedup is not None
    assert target_speedup >= 5.0, f"only {target_speedup:.1f}x at ~200 tasks / 4 cores"


if __name__ == "__main__":  # pragma: no cover - manual run
    for row in _sweep():
        print(row)
