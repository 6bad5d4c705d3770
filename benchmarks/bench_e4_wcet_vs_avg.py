"""E4: WCET-aware scheduling vs average-case-oriented scheduling.

Claim (paper Sections I, III-C): HPC-style parallelization optimises average
performance and ignores predictability, which leads to poor guaranteed WCET;
the ARGO flow optimises the worst case directly and "reduces the gap between
the worst-case and average-case execution time".  The two schedulers are run
as one in-process sweep (sharing the analysis cache), then both schedules
are simulated to compare the guaranteed bound with observed behaviour.
"""

import pytest

from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.core import Pipeline, SweepCase, ToolchainConfig, sweep
from repro.usecases import ALL_USECASES
from repro.utils.tables import Table


@pytest.mark.parametrize("usecase", ["egpws", "polka"])
def test_e4_wcet_vs_average_case_scheduling(benchmark, usecase):
    builder, inputs_fn = ALL_USECASES[usecase]
    platform = generic_predictable_multicore(cores=4)
    pipeline = Pipeline(platform)  # used for simulation only

    def compare():
        result = sweep(
            [
                SweepCase(
                    diagram=builder(),
                    platform=platform,
                    config=ToolchainConfig(loop_chunks=4, scheduler=scheduler),
                )
                for scheduler in ("wcet_list", "acet_list")
            ],
            keep_results=True,
        )
        assert result.ok, result.failures()
        wcet_result, acet_result = (outcome.result for outcome in result)
        wcet_sim = pipeline.simulate(wcet_result, inputs_fn()).makespan
        acet_sim = pipeline.simulate(acet_result, inputs_fn()).makespan
        return wcet_result, acet_result, wcet_sim, acet_sim

    wcet_result, acet_result, wcet_sim, acet_sim = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = Table(
        ["scheduler", "guaranteed WCET", "observed time", "gap (bound/observed)"],
        title=f"E4 WCET-aware vs average-case scheduling ({usecase})",
    )
    table.add_row(["wcet_list", wcet_result.system_wcet, wcet_sim, wcet_result.system_wcet / wcet_sim])
    table.add_row(["acet_list", acet_result.system_wcet, acet_sim, acet_result.system_wcet / acet_sim])
    emit(table)

    # the WCET-aware schedule never has a worse guaranteed bound
    assert wcet_result.system_wcet <= acet_result.system_wcet * 1.01
