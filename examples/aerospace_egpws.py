"""Aerospace use case: Enhanced Ground Proximity Warning System (EGPWS).

Reproduces the paper's aerospace scenario: the EGPWS model is parallelized
for a 4-core predictable platform, its guaranteed WCET is reported, and the
alerting behaviour is demonstrated on a hazardous and a safe terrain profile.

Run with:  python examples/aerospace_egpws.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.adl.platforms import generic_predictable_multicore
from repro.core import Pipeline, ToolchainConfig, bottleneck_report
from repro.usecases import build_egpws_diagram, egpws_test_inputs


def main() -> None:
    lookahead = 32
    platform = generic_predictable_multicore(cores=4)
    pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=4, feedback_iterations=2))
    result = pipeline.run(build_egpws_diagram(lookahead))

    print(f"EGPWS on {platform.name}")
    print(f"  sequential WCET bound : {result.sequential_wcet:.0f} cycles")
    print(f"  parallel WCET bound   : {result.system_wcet:.0f} cycles")
    print(f"  guaranteed speed-up   : {result.wcet_speedup:.2f}x")
    at_100mhz_us = platform.cores[0].processor.cycles_to_seconds(result.system_wcet) * 1e6
    print(f"  worst-case period     : {at_100mhz_us:.1f} us at {platform.cores[0].processor.clock_mhz:.0f} MHz")
    stage_ms = ", ".join(f"{name} {1000 * s:.1f}ms" for name, s in result.timings.items())
    print(f"  pipeline stages       : {stage_ms}")
    print()
    print(bottleneck_report(result.htg, result.schedule))
    print()

    for scenario, hazardous in (("hazardous ridge ahead", True), ("safe cruise altitude", False)):
        inputs = egpws_test_inputs(lookahead, seed=7, hazardous=hazardous)
        sim = pipeline.simulate(result, inputs)
        alert = sim.observed_value(result.model.output_key("alert", "y"))
        clearance = sim.observed_value(result.model.output_key("min_clearance", "y"))
        print(
            f"scenario: {scenario:24s} alert={'RAISED' if alert else 'clear '} "
            f"min clearance={clearance:8.1f}  makespan={sim.makespan:.0f} cycles "
            f"(bound {result.system_wcet:.0f})"
        )


if __name__ == "__main__":
    main()
