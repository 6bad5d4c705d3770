"""Tests for the schedulers (list, exact, metaheuristics, baselines)."""

import dataclasses

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore, kit_leon3_inoc, recore_xentium_like
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.statements import Block
from repro.parallel import ParallelProgram, build_parallel_program
from repro.parallel.model import CoreProgram
from repro.scheduling import (
    WcetAwareListScheduler,
    acet_driven_schedule,
    branch_and_bound_schedule,
    sequential_schedule,
    simulated_annealing_schedule,
)
from repro.scheduling.schedule import Schedule, ScheduleError
from repro.sim import simulate_parallel_program
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.wcet import SystemDesign, WcetAnalysisCache
from repro.wcet.system_level import SystemWcetError, system_level_wcet

from graph_reference import critical_path


def make_case(num_kernels=6, chunks=2, seed=1):
    model = synthetic_compiled_model(num_kernels=num_kernels, vector_size=32, seed=seed)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=4)
    return model, htg, platform


@pytest.fixture(scope="module")
def case():
    return make_case()


class TestListScheduler:
    def test_schedule_is_valid_and_analysed(self, case):
        model, htg, platform = case
        schedule = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        schedule.validate(htg, platform)
        assert schedule.wcet_bound > 0
        assert schedule.scheduler == "wcet_list"

    def test_parallel_beats_sequential(self, case):
        model, htg, platform = case
        parallel = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        sequential = sequential_schedule(SystemDesign(htg, model.entry, platform))
        assert parallel.wcet_bound <= sequential.wcet_bound

    def test_more_cores_never_worse_with_max_cores(self, case):
        model, htg, platform = case
        design = SystemDesign(htg, model.entry, platform)
        one = WcetAwareListScheduler(max_cores=1).schedule(design)
        four = WcetAwareListScheduler(max_cores=4).schedule(design)
        assert four.wcet_bound <= one.wcet_bound * 1.05

    def test_bound_not_below_critical_path(self, case):
        model, htg, platform = case
        design = SystemDesign(htg, model.entry, platform)
        schedule = WcetAwareListScheduler().schedule(design)
        assert schedule.wcet_bound >= critical_path(design) - 1e-6

    def test_gantt_renders(self, case):
        model, htg, platform = case
        schedule = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        text = schedule.gantt()
        assert "WCET bound" in text


def _offset_core_ids(platform, by=10):
    """``platform`` with every core id shifted by ``by``: no core 0 or 1."""
    return dataclasses.replace(
        platform, cores=[dataclasses.replace(c, core_id=c.core_id + by) for c in platform.cores]
    )


@pytest.mark.parametrize("usecase", ["egpws", "polka", "weaa"])
@pytest.mark.parametrize("build", [kit_leon3_inoc, recore_xentium_like], ids=lambda b: b.__name__)
def test_offset_core_ids_keep_the_stock_bounds(build, usecase):
    """Core ids are names: on a preset whose ids start at 10 every scheduler
    still runs, certifies and finds the stock preset's bound (the list
    scheduler's upward ranks once priced transfers between cores 0 and 1,
    which raised ``KeyError`` on the mesh)."""
    diagram = ALL_USECASES[usecase][0]
    for scheduler in ("wcet_list", "acet_list", "simulated_annealing"):
        config = ToolchainConfig(scheduler=scheduler, certify=True)
        stock = Pipeline(build(), config, WcetAnalysisCache()).run(diagram())
        offset = Pipeline(_offset_core_ids(build()), config, WcetAnalysisCache()).run(diagram())
        assert offset.certificates.ok, scheduler
        assert offset.system_wcet == stock.system_wcet, scheduler


class TestBaselines:
    def test_sequential_uses_one_core(self, case):
        model, htg, platform = case
        schedule = sequential_schedule(SystemDesign(htg, model.entry, platform))
        assert schedule.num_cores_used == 1
        assert schedule.result.interference_cycles == 0.0

    def test_acet_schedule_valid_but_usually_looser(self, case):
        model, htg, platform = case
        acet = acet_driven_schedule(SystemDesign(htg, model.entry, platform))
        wcet = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        acet.validate(htg, platform)
        # the WCET-aware schedule can never be worse than the ACET-driven one
        # by more than numerical noise (it optimises the reported metric)
        assert wcet.wcet_bound <= acet.wcet_bound * 1.01


class TestExactAndMetaheuristics:
    def test_bnb_optimal_not_worse_than_heuristic(self):
        model, htg, platform = make_case(num_kernels=4, chunks=1, seed=2)
        design = SystemDesign(htg, model.entry, platform)
        heuristic = WcetAwareListScheduler(max_cores=2).schedule(design)
        optimal, stats = branch_and_bound_schedule(design, max_cores=2)
        assert optimal.wcet_bound <= heuristic.wcet_bound + 1e-6
        assert stats.nodes_explored > 0

    def test_bnb_rejects_large_graphs(self, case):
        model, htg, platform = case
        with pytest.raises(ValueError):
            branch_and_bound_schedule(SystemDesign(htg, model.entry, platform), max_tasks=2)

    def test_simulated_annealing_not_worse_than_start(self, case):
        model, htg, platform = case
        start = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        annealed = simulated_annealing_schedule(
            SystemDesign(htg, model.entry, platform), iterations=30, seed=5
        )
        annealed.validate(htg, platform)
        assert annealed.wcet_bound <= start.wcet_bound + 1e-6

    def test_metaheuristics_deterministic_given_seed(self):
        # exact equality: a memo leaking from one search into the next (the
        # second run also replays the first one's result-tier entries) would
        # show up as a different order or a bound off in the last bit
        model, htg, platform = make_case(num_kernels=5, chunks=1, seed=4)
        a = simulated_annealing_schedule(
            SystemDesign(htg, model.entry, platform), iterations=20, seed=11
        )
        b = simulated_annealing_schedule(
            SystemDesign(htg, model.entry, platform), iterations=20, seed=11
        )
        assert (a.mapping, a.order, a.wcet_bound) == (b.mapping, b.order, b.wcet_bound)
        c, c_stats = branch_and_bound_schedule(SystemDesign(htg, model.entry, platform), max_cores=2)
        d, d_stats = branch_and_bound_schedule(SystemDesign(htg, model.entry, platform), max_cores=2)
        assert (c.mapping, c.order, c.wcet_bound, c.metadata, c_stats) == (
            d.mapping, d.order, d.wcet_bound, d.metadata, d_stats
        )


class TestScheduleValidation:
    def test_incomplete_mapping_rejected(self, case):
        model, htg, platform = case
        schedule = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        broken = dict(schedule.mapping)
        broken.pop(next(iter(broken)))
        from repro.scheduling.schedule import Schedule

        bad = Schedule(htg_name=htg.name, mapping=broken, order=schedule.order)
        with pytest.raises(ScheduleError):
            bad.validate(htg, platform)

    def test_unknown_core_rejected(self, case):
        model, htg, platform = case
        schedule = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
        from repro.scheduling.schedule import Schedule

        bad_mapping = {tid: 99 for tid in schedule.mapping}
        bad = Schedule(htg_name=htg.name, mapping=bad_mapping, order={99: list(bad_mapping)})
        with pytest.raises(ScheduleError):
            bad.validate(htg, platform)

    def test_cross_core_cyclic_wait_is_refused(self):
        # each core's order respects the dependences on its own, yet core 0
        # waits for b2 before running a1 while core 1 waits for b1 before
        # running a2: the generated program would deadlock
        func = FunctionBuilder("cyclic").build()
        htg = HierarchicalTaskGraph.from_edges(
            "cyclic",
            [Task(tid, TaskKind.BLOCK, Block()) for tid in ("a1", "b1", "a2", "b2")],
            {("b1", "a2"): TaskEdge("b1", "a2"), ("b2", "a1"): TaskEdge("b2", "a1")},
        )
        platform = generic_predictable_multicore(cores=2)
        order = {0: ["a1", "b1"], 1: ["a2", "b2"]}
        mapping = {tid: core for core, tids in order.items() for tid in tids}
        schedule = Schedule("cyclic", mapping, order)
        with pytest.raises(ScheduleError, match="cyclic wait"):
            schedule.validate(htg, platform)
        with pytest.raises(ScheduleError, match="cyclic wait"):
            build_parallel_program(htg, func, platform, schedule)
        # a hand-built program of the schedule cannot be simulated either
        program = ParallelProgram(
            "cyclic_parallel",
            {core: CoreProgram(core, list(tids)) for core, tids in order.items()},
            {},
            schedule,
            platform.name,
        )
        with pytest.raises(ScheduleError, match="cyclic wait"):
            simulate_parallel_program(program, htg, func, platform)
        # as the system-level analysis refuses it
        design = SystemDesign(htg, func, platform, WcetAnalysisCache())
        with pytest.raises(SystemWcetError, match="cyclic wait"):
            system_level_wcet(design, mapping, order)

    def test_simulator_refuses_a_schedule_missing_a_task(self):
        # a typed error, not a KeyError from inside the simulation loop
        func = FunctionBuilder("partial").build()
        htg = HierarchicalTaskGraph.from_edges(
            "partial",
            [Task(tid, TaskKind.BLOCK, Block()) for tid in ("a", "b")],
            {("a", "b"): TaskEdge("a", "b")},
        )
        platform = generic_predictable_multicore(cores=2)
        schedule = Schedule("partial", {"a": 0}, {0: ["a"]})
        program = ParallelProgram("partial_parallel", {}, {}, schedule, platform.name)
        with pytest.raises(ScheduleError, match="mapping covers 1 tasks"):
            simulate_parallel_program(program, htg, func, platform)

    @pytest.mark.parametrize("seed", range(6))
    def test_order_check_matches_a_cycle_search(self, seed):
        # the check refuses exactly the schedules whose dependences plus
        # core chains networkx finds a cycle in
        import networkx as nx

        rng = np.random.default_rng(500 + seed)
        n, cores = 12, 3
        tids = [f"t{i}" for i in range(n)]
        edges = [
            (tids[u], tids[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.2
        ]
        htg = HierarchicalTaskGraph.from_edges(
            "g",
            [Task(tid, TaskKind.BLOCK, Block()) for tid in tids],
            {pair: TaskEdge(*pair) for pair in edges},
        )
        verdicts = set()
        for _ in range(30):
            mapping = {tid: int(rng.integers(0, cores)) for tid in tids}
            order = {core: [t for t in tids if mapping[t] == core] for core in range(cores)}
            # disturb the topological order of one core: often a cycle
            core = int(rng.integers(0, cores))
            if len(order[core]) > 1 and rng.random() < 0.7:
                i, j = rng.choice(len(order[core]), size=2, replace=False)
                order[core][i], order[core][j] = order[core][j], order[core][i]
            graph = nx.DiGraph(edges)
            graph.add_nodes_from(tids)
            for chain in order.values():
                graph.add_edges_from(zip(chain, chain[1:]))
            try:
                Schedule("g", mapping, order).check_order(htg)
                refused = False
            except ScheduleError:
                refused = True
            assert refused == (not nx.is_directed_acyclic_graph(graph))
            verdicts.add(refused)
        assert verdicts == {True, False}

    def test_unanalysed_schedule_has_no_bound(self, case):
        model, htg, platform = case
        from repro.scheduling.schedule import Schedule

        schedule = Schedule(htg_name=htg.name, mapping={}, order={})
        with pytest.raises(ScheduleError):
            _ = schedule.wcet_bound
