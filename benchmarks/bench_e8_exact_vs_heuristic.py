"""E8: exact vs heuristic scheduling -- quality versus search cost.

Claim (paper Section III-C): fine-grain task decomposition makes the NP-hard
scheduling/mapping problem explode, motivating "a combination of exact
techniques and advanced heuristics".  The table compares the branch-and-bound
optimum against the list scheduler and simulated annealing on growing
synthetic task graphs.
"""

import time


from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling import (
    WcetAwareListScheduler,
    branch_and_bound_schedule,
    simulated_annealing_schedule,
)
from repro.usecases.workloads import synthetic_compiled_model
from repro.utils.tables import Table
from repro.wcet import HardwareCostModel, SystemDesign, WcetAnalysisCache

SIZES = [4, 6, 8]


def test_e8_exact_vs_heuristic(benchmark):
    platform = generic_predictable_multicore(cores=2)

    def sweep():
        rows = []
        for kernels in SIZES:
            model = synthetic_compiled_model(num_kernels=kernels, vector_size=32, seed=kernels)
            htg = extract_htg(model, ExtractionOptions(granularity="block"))
            WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
            t0 = time.perf_counter()
            heuristic = WcetAwareListScheduler().schedule(SystemDesign(htg, model.entry, platform))
            t_heuristic = time.perf_counter() - t0
            t0 = time.perf_counter()
            exact, stats = branch_and_bound_schedule(SystemDesign(htg, model.entry, platform))
            t_exact = time.perf_counter() - t0
            annealed = simulated_annealing_schedule(
                SystemDesign(htg, model.entry, platform), iterations=40, seed=1
            )
            rows.append(
                (
                    kernels,
                    exact.wcet_bound,
                    heuristic.wcet_bound,
                    annealed.wcet_bound,
                    heuristic.wcet_bound / exact.wcet_bound,
                    t_exact / max(t_heuristic, 1e-9),
                    stats.nodes_explored,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        ["tasks", "exact WCET", "list WCET", "SA WCET", "list/exact", "exact/list runtime", "B&B nodes"],
        title="E8 exact vs heuristic scheduling (2 cores, synthetic HTGs)",
    )
    for row in rows:
        table.add_row(list(row))
    emit(table)
    for row in rows:
        # the exact schedule is never worse, the heuristic stays close
        assert row[1] <= row[2] + 1e-6
        assert row[4] <= 1.5
