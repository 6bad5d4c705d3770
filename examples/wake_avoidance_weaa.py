"""Aerospace use case: Wake Encounter Avoidance and Advisory (WEAA).

Runs the wake-vortex prediction / conflict detection / evasion pipeline
through the ARGO flow, comparing the WCET-aware scheduler against the
average-case baseline and the sequential bound -- executed as one
design-space sweep over schedulers (``repro.core.sweep``) instead of a
hand-rolled loop -- then exercises the advisory logic on an encounter
scenario.

Run with:  python examples/wake_avoidance_weaa.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.adl.platforms import generic_predictable_multicore
from repro.core import Pipeline, SweepCase, ToolchainConfig, sweep
from repro.usecases import build_weaa_diagram, weaa_test_inputs
from repro.utils.tables import Table


def main() -> None:
    horizon = 24
    platform = generic_predictable_multicore(cores=4)
    schedulers = {
        "sequential": "sequential",
        "average-case list": "acet_list",
        "WCET-aware list": "wcet_list",
        "simulated annealing": "simulated_annealing",
    }

    # One in-process sweep over the scheduler axis; all candidate flows share
    # the analysis cache, and the full results are kept for simulation below.
    comparison = sweep(
        [
            SweepCase(
                diagram=build_weaa_diagram(horizon),
                platform=platform,
                config=ToolchainConfig(loop_chunks=4, scheduler=scheduler),
                label=label,
            )
            for label, scheduler in schedulers.items()
        ],
        keep_results=True,
    )
    table = Table(
        ["configuration", "guaranteed WCET", "speedup vs sequential"],
        title="WEAA scheduling comparison (4 cores)",
    )
    for outcome in comparison:
        table.add_row(
            [outcome.label, outcome.system_wcet, outcome.sequential_wcet / outcome.system_wcet]
        )
    print(table.render())
    print()

    wcet_outcome = next(o for o in comparison if o.label == "WCET-aware list")
    result = wcet_outcome.result
    pipeline = Pipeline(platform, result.config)
    for label, encounter in (("wake encounter ahead", True), ("clear air", False)):
        sim = pipeline.simulate(result, weaa_test_inputs(horizon, seed=5, encounter=encounter))
        conflict = sim.observed_value(result.model.output_key("conflict", "y"))
        severity = sim.observed_value(result.model.output_key("severity", "y"))
        command = sim.observed_value(result.model.output_key("evasion_cmd", "y"))
        print(
            f"{label:22s}: conflict={'YES' if conflict else 'no '}  severity={severity:5.2f}  "
            f"evasion command={command:+5.2f}  makespan={sim.makespan:.0f} cycles"
        )


if __name__ == "__main__":
    main()
