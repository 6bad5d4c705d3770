"""E6: WCET bounds are safe; measured execution never exceeds them.

Claim (paper Section I): "to be safe, WCET estimates have to be higher than
or equal to any possible execution time. In addition, to be useful they have
to be as close as possible to the actual WCET (tightness)."  The benchmark
simulates each use case on many random inputs and reports the worst observed
makespan against the guaranteed bound.
"""

import pytest

from benchmarks._common import emit, run_flow
from repro.usecases import ALL_USECASES
from repro.utils.tables import Table

RUNS = 8


@pytest.mark.parametrize("usecase", ["egpws", "weaa", "polka"])
def test_e6_bound_safety_and_tightness(benchmark, usecase):
    _, inputs_fn = ALL_USECASES[usecase]
    pipeline, result = run_flow(usecase, cores=4)

    def measure():
        observed = []
        for seed in range(RUNS):
            sim = pipeline.simulate(result, inputs_fn(seed=seed))
            observed.append(sim.makespan)
        return observed

    observed = benchmark.pedantic(measure, rounds=1, iterations=1)
    worst = max(observed)
    table = Table(
        ["use case", "guaranteed WCET", "worst observed", "mean observed", "tightness (bound/worst)"],
        title="E6 bound safety over random inputs",
    )
    table.add_row(
        [usecase, result.system_wcet, worst, sum(observed) / len(observed), result.system_wcet / worst]
    )
    emit(table)
    assert all(m <= result.system_wcet + 1e-6 for m in observed)
