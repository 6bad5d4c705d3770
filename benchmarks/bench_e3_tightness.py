"""E3: the MHP-based system-level bound is tighter than contention-oblivious.

Claim (paper Section II-D / III-C): without a high-level view of the parallel
program, a WCET analysis must assume maximal interference on every shared
access; the ARGO system-level analysis identifies which code snippets may
actually happen in parallel and is therefore tighter.
"""

import pytest

from benchmarks._common import emit, run_flow
from repro.utils.tables import Table
from repro.wcet.system_level import SystemDesign, contention_oblivious_bound


@pytest.mark.parametrize("usecase", ["egpws", "polka"])
def test_e3_tightness(benchmark, usecase):
    def analyse():
        _, result = run_flow(usecase, cores=4)
        schedule = result.schedule
        design = SystemDesign(result.htg, result.model.entry, schedule_platform(result))
        naive = contention_oblivious_bound(design, schedule.mapping, schedule.order)
        return result, naive

    def schedule_platform(result):
        from repro.adl.platforms import generic_predictable_multicore

        return generic_predictable_multicore(cores=4)

    result, naive = benchmark.pedantic(analyse, rounds=1, iterations=1)
    precise = result.system_wcet
    table = Table(
        ["use case", "contention-oblivious bound", "MHP-based bound", "tightness gain"],
        title="E3 system-level WCET tightness",
    )
    table.add_row([usecase, naive, precise, naive / precise if precise else 1.0])
    emit(table)
    assert naive >= precise - 1e-6
