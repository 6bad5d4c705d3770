"""Quickstart: run the complete ARGO flow on a small dataflow model.

Builds a tiny sensor-processing diagram from the standard block library,
runs it through the pipeline API (``repro.core.pipeline``) for a
4-core predictable platform, prints the guaranteed multi-core WCET with
per-stage timings, validates the bound against a simulated execution, and
finishes with a mini design-space sweep over schedulers.

Run with:  python examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from repro.adl.platforms import generic_predictable_multicore
from repro.core import Pipeline, SweepCase, ToolchainConfig, sweep, toolchain_summary
from repro.model import Diagram, library


def build_model() -> Diagram:
    """A small pipeline: scale -> smooth -> clamp -> peak detection."""
    d = Diagram("quickstart")
    d.add_block(library.gain("scale", 2.0, size=32))
    d.add_block(library.moving_average("smooth", 4, 32))
    d.add_block(library.saturation("clamp", 0.0, 100.0, size=32))
    d.add_block(library.scalar_max("peak", 32))
    d.connect("scale", "y", "smooth", "u")
    d.connect("smooth", "y", "clamp", "u")
    d.connect("clamp", "y", "peak", "u")
    d.mark_input("scale", "u")
    d.mark_output("peak", "y")
    return d


def main() -> None:
    diagram = build_model()

    # 1. validate the model at the dataflow level
    sample = {"scale.u": np.linspace(0.0, 10.0, 32)}
    print("model-level simulation:", diagram.simulate(steps=1, input_provider=sample)[0])

    # 2. run the flow as a pipeline of named stages
    #    (frontend -> transforms -> htg -> schedule -> parallel -> wcet)
    platform = generic_predictable_multicore(cores=4)
    pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=4))
    result = pipeline.run(diagram)
    print()
    print(toolchain_summary(result))
    print()
    print("stage timings:")
    for record in result.stage_records:
        print(f"  {record.name:10s} {1000 * record.seconds:7.2f} ms  {record.info}")

    # 3. check the guaranteed bound against a simulated execution
    sim = pipeline.simulate(result, sample)
    print()
    print(f"simulated makespan : {sim.makespan:.0f} cycles")
    print(f"guaranteed WCET    : {result.system_wcet:.0f} cycles")
    print(f"bound respected    : {sim.makespan <= result.system_wcet}")

    # 4. a mini design-space sweep: which scheduler wins on this model?
    schedulers = ("wcet_list", "acet_list", "sequential")
    comparison = sweep(
        [
            SweepCase(
                diagram=diagram,
                platform=platform,
                config=ToolchainConfig(loop_chunks=4, scheduler=scheduler),
            )
            for scheduler in schedulers
        ]
    )
    print()
    print(comparison.render("scheduler comparison (one sweep call)"))
    print(f"best: {comparison.best().scheduler}")


if __name__ == "__main__":
    main()
