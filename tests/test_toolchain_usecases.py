"""End-to-end tests: the ARGO tool chain on the three paper use cases."""

import pytest

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.core import Pipeline, ToolchainConfig, ToolchainError, toolchain_summary
from repro.core.feedback import CrossLayerFeedback
from repro.core.reporting import bottleneck_report
from repro.usecases import (
    ALL_USECASES,
    build_egpws_diagram,
    build_polka_diagram,
    build_weaa_diagram,
    egpws_test_inputs,
    polka_test_inputs,
    weaa_test_inputs,
)
from repro.usecases.workloads import random_pipeline_diagram


@pytest.fixture(scope="module")
def platform():
    return generic_predictable_multicore(cores=4)


class TestUseCaseModels:
    def test_egpws_alerts_on_hazardous_terrain(self):
        d = build_egpws_diagram(lookahead=32)
        hazard = d.simulate(steps=1, input_provider=egpws_test_inputs(32, seed=1, hazardous=True))[0]
        assert hazard["alert.y"] == 1.0
        d.reset()
        safe = d.simulate(steps=1, input_provider=egpws_test_inputs(32, seed=1, hazardous=False))[0]
        assert safe["alert.y"] == 0.0
        assert safe["min_clearance.y"] > hazard["min_clearance.y"]

    def test_weaa_detects_encounter(self):
        d = build_weaa_diagram(horizon=16)
        conflict = d.simulate(steps=1, input_provider=weaa_test_inputs(16, seed=2, encounter=True))[0]
        assert conflict["conflict.y"] == 1.0
        assert abs(conflict["evasion_cmd.y"]) <= 1.0 + 1e-9
        d.reset()
        calm = d.simulate(steps=1, input_provider=weaa_test_inputs(16, seed=2, encounter=False))[0]
        assert calm["severity.y"] <= conflict["severity.y"]

    def test_polka_rejects_stressed_glass(self):
        d = build_polka_diagram(pixels=64)
        bad = d.simulate(steps=1, input_provider=polka_test_inputs(64, seed=3, stressed=True))[0]
        good_diagram = build_polka_diagram(pixels=64)
        good = good_diagram.simulate(
            steps=1, input_provider=polka_test_inputs(64, seed=3, stressed=False)
        )[0]
        assert bad["reject.y"] == 1.0
        assert good["reject.y"] == 0.0
        assert bad["defect_count.y"] > good["defect_count.y"]

    def test_usecase_registry_complete(self):
        assert set(ALL_USECASES) == {"egpws", "weaa", "polka"}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_egpws_diagram(lookahead=2)
        with pytest.raises(ValueError):
            build_weaa_diagram(horizon=2)
        with pytest.raises(ValueError):
            build_polka_diagram(pixels=2)


class TestToolchainEndToEnd:
    @pytest.mark.parametrize("usecase", ["egpws", "weaa", "polka"])
    def test_flow_produces_bound_and_speedup(self, platform, usecase):
        builder, inputs_fn = ALL_USECASES[usecase]
        pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=2))
        result = pipeline.run(builder())
        assert result.system_wcet > 0
        assert result.sequential_wcet > 0
        assert result.wcet_speedup >= 0.9  # parallel bound should not explode
        # simulated execution respects the bound and produces sane outputs
        sim = pipeline.simulate(result, inputs_fn())
        assert sim.makespan <= result.system_wcet + 1e-6

    def test_summary_and_bottleneck_report(self, platform):
        result = Pipeline(platform, ToolchainConfig(loop_chunks=2)).run(
            build_polka_diagram(pixels=32)
        )
        text = toolchain_summary(result)
        assert "parallel WCET" in text
        assert "bottleneck" in bottleneck_report(result.htg, result.schedule)

    def test_feedback_never_hurts(self, platform):
        diagram_a = build_egpws_diagram(lookahead=16)
        diagram_b = build_egpws_diagram(lookahead=16)
        once = Pipeline(platform, ToolchainConfig(loop_chunks=2)).run(diagram_a)
        tuned = Pipeline(
            platform, ToolchainConfig(loop_chunks=2, feedback_iterations=2)
        ).run(diagram_b)
        assert tuned.system_wcet <= once.system_wcet + 1e-6

    def test_feedback_history_recorded(self, platform):
        pipeline = Pipeline(platform, ToolchainConfig(loop_chunks=2, feedback_iterations=2))
        feedback = CrossLayerFeedback(pipeline)
        result = feedback.optimize(build_polka_diagram(pixels=32))
        assert result.system_wcet > 0
        assert len(feedback.history) >= 2
        assert "feedback history" in feedback.summary()

    def test_unpredictable_platform_rejected(self):
        from repro.adl import Core, Platform, ProcessorModel, RoundRobinBus
        from repro.adl.memory import scratchpad, shared_sram

        bad_proc = ProcessorModel("bad", dynamic_branch_prediction=True)
        bad = Platform(
            "bad", [Core(0, bad_proc, scratchpad("s"))], shared_sram(), RoundRobinBus()
        )
        with pytest.raises(ToolchainError):
            Pipeline(bad)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToolchainConfig(granularity="nope")
        with pytest.raises(ValueError):
            ToolchainConfig(scheduler="nope")
        with pytest.raises(ValueError):
            ToolchainConfig(loop_chunks=0)

    def test_alternative_schedulers_through_config(self, platform):
        for scheduler in ("sequential", "acet_list", "simulated_annealing"):
            result = Pipeline(
                platform, ToolchainConfig(loop_chunks=2, scheduler=scheduler)
            ).run(build_polka_diagram(pixels=32))
            assert result.system_wcet > 0

    def test_platform_retargeting(self):
        """The same model runs on all three platform families (E7)."""
        diagram_builder = lambda: build_polka_diagram(pixels=32)  # noqa: E731
        for platform in (
            generic_predictable_multicore(cores=4),
            recore_xentium_like(dsp_cores=4, control_cores=0),
            kit_leon3_inoc(mesh_width=2, mesh_height=2, cores_per_tile=1),
        ):
            result = Pipeline(platform, ToolchainConfig(loop_chunks=2)).run(diagram_builder())
            assert result.system_wcet > 0

    def test_synthetic_pipeline_through_flow(self, platform):
        diagram = random_pipeline_diagram(stages=3, width=2, vector_size=16, seed=5)
        result = Pipeline(platform, ToolchainConfig(loop_chunks=2)).run(diagram)
        assert result.system_wcet > 0
        assert len(result.htg.leaf_tasks()) >= 6
