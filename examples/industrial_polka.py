"""Industrial image-processing use case: POLKA glass-stress inspection.

Compiles the polarization-camera inspection pipeline for the two many-core
platform families of the paper (Recore Xentium-like and KIT Leon3 + iNoC)
as one design-space sweep over the platform axis (``repro.core.sweep``),
compares the guaranteed WCET on both, and runs the inspection on a stressed
and an unstressed synthetic container.

Run with:  python examples/industrial_polka.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.adl.platforms import kit_leon3_inoc, recore_xentium_like
from repro.core import Pipeline, SweepCase, ToolchainConfig, sweep
from repro.usecases import build_polka_diagram, polka_test_inputs
from repro.utils.tables import Table


def main() -> None:
    pixels = 64
    platforms = {
        "Recore Xentium-like": recore_xentium_like(dsp_cores=4, control_cores=0),
        "KIT Leon3 + iNoC 2x2": kit_leon3_inoc(mesh_width=2, mesh_height=2, cores_per_tile=1),
    }

    # One sweep over the platform axis; full results are kept so the best
    # configuration can be simulated afterwards.
    comparison = sweep(
        [
            SweepCase(
                diagram=build_polka_diagram(pixels),
                platform=platform,
                config=ToolchainConfig(loop_chunks=4),
                label=name,
            )
            for name, platform in platforms.items()
        ],
        keep_results=True,
    )
    table = Table(
        ["platform", "cores", "sequential WCET", "parallel WCET", "speedup", "line rate (lines/s)"],
        title=f"POLKA inspection, {pixels}-pixel line segments",
    )
    for outcome in comparison:
        platform = platforms[outcome.label]
        clock = platform.cores[0].processor
        period_s = clock.cycles_to_seconds(outcome.system_wcet)
        table.add_row(
            [
                outcome.label,
                platform.num_cores,
                outcome.sequential_wcet,
                outcome.system_wcet,
                outcome.wcet_speedup,
                f"{1.0 / period_s:,.0f}",
            ]
        )
    print(table.render())
    print()

    recore_outcome = next(o for o in comparison if o.label == "Recore Xentium-like")
    result = recore_outcome.result
    pipeline = Pipeline(platforms["Recore Xentium-like"], result.config)
    for label, stressed in (("stressed container", True), ("good container", False)):
        sim = pipeline.simulate(result, polka_test_inputs(pixels, seed=3, stressed=stressed))
        reject = sim.observed_value(result.model.output_key("reject", "y"))
        count = sim.observed_value(result.model.output_key("defect_count", "y"))
        print(
            f"{label:18s}: defect pixels={count:4.0f}  verdict={'REJECT' if reject else 'pass'}  "
            f"makespan={sim.makespan:.0f} <= bound {result.system_wcet:.0f}"
        )


if __name__ == "__main__":
    main()
