"""E9: iterative cross-layer feedback improves the WCET over one-shot runs.

Claim (paper Section II-E): feeding WCET information back to the earlier
compilation stages ("iterative optimization through cross layer programming")
lets the flow refine granularity and contention handling; the guaranteed WCET
after feedback is never worse and often better than the one-shot result.
"""

import pytest

from benchmarks._common import emit
from repro.adl.platforms import generic_predictable_multicore
from repro.core import Pipeline, ToolchainConfig
from repro.core.feedback import CrossLayerFeedback
from repro.usecases import ALL_USECASES
from repro.utils.tables import Table


@pytest.mark.parametrize("usecase", ["egpws", "polka"])
def test_e9_feedback_iterations(benchmark, usecase):
    builder, _ = ALL_USECASES[usecase]
    platform = generic_predictable_multicore(cores=4)

    def optimize():
        one_shot = Pipeline(platform, ToolchainConfig(loop_chunks=2)).run(builder())
        pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=2, feedback_iterations=3))
        feedback = CrossLayerFeedback(pipeline)
        tuned = feedback.optimize(builder())
        return one_shot, tuned, feedback

    one_shot, tuned, feedback = benchmark.pedantic(optimize, rounds=1, iterations=1)
    table = Table(
        ["use case", "one-shot WCET", "after feedback", "improvement", "configs explored"],
        title="E9 cross-layer feedback",
    )
    table.add_row(
        [
            usecase,
            one_shot.system_wcet,
            tuned.system_wcet,
            f"{100 * (one_shot.system_wcet - tuned.system_wcet) / one_shot.system_wcet:.1f}%",
            len(feedback.history),
        ]
    )
    emit(table)
    assert tuned.system_wcet <= one_shot.system_wcet + 1e-6
    assert len(feedback.history) >= 2
