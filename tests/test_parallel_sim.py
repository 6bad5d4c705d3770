"""Tests for the explicit parallel program model and the timing simulator."""

import dataclasses
import re

import numpy as np
import pytest

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline, run_pipeline
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.ir.interpreter import run_function
from repro.parallel import build_parallel_program, parallel_program_to_c
from repro.scheduling import WcetAwareListScheduler, sequential_schedule
from repro.sim import simulate_parallel_program
from repro.usecases import ALL_USECASES, build_polka_diagram, polka_test_inputs
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache


def build_case(platform, chunks=2):
    diagram = build_polka_diagram(pixels=32)
    model = compile_diagram(diagram)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    schedule = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
    return model, htg, schedule


@pytest.fixture(scope="module")
def platform():
    return generic_predictable_multicore(cores=4)


@pytest.fixture(scope="module")
def case(platform):
    return build_case(platform)


class TestParallelProgram:
    def test_build_and_validate(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        assert set(program.core_programs) == set(schedule.order)
        # every flag is both signalled and waited on
        ops = [op for cp in program.core_programs.values() for op in cp.sync_ops()]
        signals = {op.flag for op in ops if op.kind == "signal"}
        assert signals
        assert signals == {op.flag for op in ops if op.kind == "wait"}
        # each core runs its tasks in the schedule's (validated) order
        for core, cp in program.core_programs.items():
            assert cp.task_ids() == schedule.order[core]

    def test_cross_core_edges_have_sync(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        cross = [
            e for e in htg.edges
            if schedule.mapping[e.src] != schedule.mapping[e.dst]
        ]
        # one signal and one wait per cross-core edge
        assert program.num_sync_ops == 2 * len(cross)

    def test_memory_map_is_disjoint_and_within_capacity(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        regions = sorted(program.memory_map.values())
        for (a_start, a_size), (b_start, _) in zip(regions, regions[1:]):
            assert a_start + a_size <= b_start
        total = program.shared_footprint_bytes()
        assert total <= platform.shared_memory.size_bytes

    def test_codegen_contains_cores_and_sync(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        text = parallel_program_to_c(program, htg)
        assert "core0_main" in text
        assert "shared memory map" in text
        if program.num_sync_ops:
            assert "while (!" in text

    def test_sequential_program_has_no_sync(self, platform, case):
        model, htg, _ = case
        schedule = sequential_schedule(SystemDesign(htg, model.entry, platform))
        program = build_parallel_program(htg, model.entry, platform, schedule)
        assert program.num_sync_ops == 0


@pytest.mark.parametrize(
    "usecase, bound", [("egpws", 11183.0), ("polka", 21304.0), ("weaa", 8735.0)]
)
def test_use_cases_fit_a_small_shared_memory(usecase, bound):
    """The program communicates in place, so its memory map holds the
    shared declarations and one flag per cross-core edge: each use case
    builds, certifies and simulates within its bound on 8 KiB of shared
    SRAM, with the bound of the 1 MiB platform."""
    build, inputs_fn = ALL_USECASES[usecase]
    platform = generic_predictable_multicore(cores=4, shared_kib=8)
    pipeline = Pipeline(platform, ToolchainConfig(certify=True), WcetAnalysisCache())
    result = pipeline.run(build())
    assert result.system_wcet == bound
    program = result.parallel_program
    assert program.shared_footprint_bytes() <= platform.shared_memory.size_bytes
    for seed in range(2):
        assert pipeline.simulate(result, inputs_fn(seed=seed)).makespan <= bound


class TestSimulator:
    def test_functional_result_matches_reference(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        inputs = model.run_inputs(polka_test_inputs(pixels=32, seed=1))
        sim = simulate_parallel_program(program, htg, model.entry, platform, inputs)
        reference = run_function(model.entry, inputs)
        for name in model.outputs:
            ref_value = reference.env[name]
            sim_value = sim.env[name]
            np.testing.assert_allclose(np.asarray(sim_value), np.asarray(ref_value), rtol=1e-9)

    def test_measured_makespan_never_exceeds_bound(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        for seed in range(4):
            inputs = model.run_inputs(polka_test_inputs(pixels=32, seed=seed, stressed=seed % 2 == 0))
            sim = simulate_parallel_program(program, htg, model.entry, platform, inputs)
            assert sim.makespan <= schedule.wcet_bound + 1e-6

    def test_dynamic_contention_mode_runs(self, platform, case):
        model, htg, schedule = case
        program = build_parallel_program(htg, model.entry, platform, schedule)
        inputs = model.run_inputs(polka_test_inputs(pixels=32, seed=2))
        sim = simulate_parallel_program(
            program, htg, model.entry, platform, inputs, contention="dynamic"
        )
        assert sim.makespan > 0
        with pytest.raises(ValueError):
            simulate_parallel_program(program, htg, model.entry, platform, inputs, contention="nope")

    def test_static_contention_charges_the_platform_penalty(self, platform, case):
        """Each task pays its executed shared accesses times the platform's
        penalty for its analysed contender count: on a bus as fast alone
        but ten times as steep per contender, a task's duration grows by
        exactly its accesses times the penalty's growth."""
        model, htg, schedule = case
        steep = dataclasses.replace(
            platform, interconnect=dataclasses.replace(platform.interconnect, beat_latency=20)
        )
        inputs = model.run_inputs(polka_test_inputs(pixels=32, seed=1))
        stock_run, steep_run = (
            simulate_parallel_program(
                build_parallel_program(htg, model.entry, target, schedule),
                htg, model.entry, target, inputs,
            )
            for target in (platform, steep)
        )
        charged = 0
        for tid, contenders in schedule.result.task_contenders.items():
            growth = steep.shared_access_penalty(contenders) - platform.shared_access_penalty(
                contenders
            )
            extra = stock_run.task_shared_accesses[tid] * growth
            assert steep_run.task_durations[tid] - stock_run.task_durations[tid] == pytest.approx(
                extra
            )
            charged += extra > 0
        assert charged

    def test_noc_platform_end_to_end(self):
        platform = kit_leon3_inoc(mesh_width=2, mesh_height=2, cores_per_tile=1)
        model, htg, schedule = build_case(platform, chunks=2)
        program = build_parallel_program(htg, model.entry, platform, schedule)
        inputs = model.run_inputs(polka_test_inputs(pixels=32, seed=3))
        sim = simulate_parallel_program(program, htg, model.entry, platform, inputs)
        assert sim.makespan <= schedule.wcet_bound + 1e-6


class TestCodegenAnnotations:
    def test_task_comments_carry_the_mapped_core_wcet(self):
        # xentium's cores price differently, so the HTG's core-0 annotation
        # (Task.wcet) is wrong for tasks mapped elsewhere
        platform = recore_xentium_like()
        result = run_pipeline(
            build_polka_diagram(), platform,
            ToolchainConfig(granularity="block", scheduler="wcet_list"),
        )
        analysed = result.schedule.result
        text = parallel_program_to_c(result.parallel_program, result.htg)
        printed = {
            tid: int(cycles)
            for tid, cycles in re.findall(r"/\* task (\S+) \(.*, wcet (\d+) cycles\) \*/", text)
        }
        assert printed.keys() == analysed.task_base_wcet.keys()
        for tid, cycles in printed.items():
            assert cycles == round(analysed.task_base_wcet[tid]), tid
        assert any(
            round(result.htg.task(tid).wcet) != cycles for tid, cycles in printed.items()
        )
