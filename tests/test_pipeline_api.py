"""Tests for the pipeline API: registries, stages, feedback, sweep."""

import dataclasses
import re
from functools import partial

import pytest

from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.core import (
    CrossLayerFeedback,
    Pipeline,
    PipelineError,
    SweepCase,
    ToolchainConfig,
    run_pipeline,
    sweep,
    sweep_grid,
)
from repro.frontend import (
    compile_diagram,
    is_interface_signal,
    protected_signal_names,
)
from repro.scheduling import evaluate_mapping
from repro.scheduling.registry import (
    SchedulerRegistryError,
    available_schedulers,
    get_scheduler,
    register_scheduler,
    unregister_scheduler,
)
from repro.transforms.base import FunctionPass, PassReport
from repro.transforms.registry import (
    PassRegistryError,
    available_passes,
    get_pass,
    register_pass,
    unregister_pass,
)
from repro.usecases import build_egpws_diagram, build_polka_diagram
from repro.wcet.cache import WcetAnalysisCache


@pytest.fixture(scope="module")
def platform():
    return generic_predictable_multicore(cores=4)


SMALL = dict(loop_chunks=2)


class TestSchedulerRegistry:
    def test_builtin_schedulers_registered(self):
        assert available_schedulers() == (
            "acet_list",
            "bnb",
            "sequential",
            "simulated_annealing",
            "wcet_list",
        )
        # the genetic algorithm is gone: its name is an unknown scheduler
        with pytest.raises(ValueError, match=re.escape(f"schedulers {available_schedulers()}")):
            ToolchainConfig(scheduler="genetic")

    def test_lookup_returns_entry_with_description(self):
        entry = get_scheduler("wcet_list")
        assert entry.name == "wcet_list"
        assert entry.description

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(SchedulerRegistryError, match="wcet_list"):
            get_scheduler("does_not_exist")

    def test_duplicate_registration_rejected(self):
        @register_scheduler("dup_test")
        def first(htg, function, platform, config, cache):  # pragma: no cover
            raise AssertionError

        try:
            with pytest.raises(SchedulerRegistryError, match="already registered"):

                @register_scheduler("dup_test")
                def second(htg, function, platform, config, cache):  # pragma: no cover
                    raise AssertionError

        finally:
            unregister_scheduler("dup_test")
        assert "dup_test" not in available_schedulers()

    def test_third_party_scheduler_runs_through_config(self, platform):
        @register_scheduler("rr_test", description="round robin for tests")
        def round_robin(design, config):
            core_ids = design.core_ids[: config.max_cores]
            leaves = [t for t in design.htg.topological_tasks() if not t.is_synthetic]
            mapping = {
                t.task_id: core_ids[i % len(core_ids)] for i, t in enumerate(leaves)
            }
            return evaluate_mapping(design, mapping, scheduler="rr_test")

        try:
            config = ToolchainConfig(scheduler="rr_test", **SMALL)
            result = Pipeline(platform, config).run(build_polka_diagram(pixels=32))
            assert result.schedule.scheduler == "rr_test"
            assert result.system_wcet > 0
        finally:
            unregister_scheduler("rr_test")
        # once unregistered, the name is rejected at config-construction time
        with pytest.raises(ValueError):
            ToolchainConfig(scheduler="rr_test")


class TestPassRegistry:
    def test_builtin_passes_registered(self):
        assert {"constant_folding", "dead_code_elimination", "scratchpad_allocation"} <= set(
            available_passes()
        )

    def test_unknown_pass_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown transformation pass"):
            ToolchainConfig(passes=["constant_folding", "nope"])

    def test_unknown_pass_lookup_raises(self):
        with pytest.raises(PassRegistryError, match="constant_folding"):
            get_pass("nope")

    def test_ordered_pass_names_drive_the_transforms_stage(self, platform):
        class MarkerPass(FunctionPass):
            name = "marker_test"

            def run(self, function):
                return PassReport(
                    pass_name=self.name, function_name=function.name, changed=False
                )

        @register_pass("marker_test")
        def build_marker(context):
            return MarkerPass()

        try:
            config = ToolchainConfig(passes=["constant_folding", "marker_test"], **SMALL)
            result = Pipeline(platform, config).run(build_polka_diagram(pixels=32))
            assert [r.pass_name for r in result.pass_reports] == [
                "constant_folding",
                "marker_test",
            ]
        finally:
            unregister_pass("marker_test")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"granularity": "nope"},
            {"scheduler": "nope"},
            {"loop_chunks": 0},
            {"feedback_iterations": 0},
            {"max_cores": 0},
            {"max_cores": -2},
            {"contention_weight": -0.5},
            {"contention_weight": float("nan")},
            {"passes": ["nope"]},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ToolchainConfig(**kwargs)

    def test_valid_edge_values_accepted(self):
        ToolchainConfig(max_cores=1, contention_weight=0.0)


class TestPipelineStages:
    def test_stage_records_and_artifacts(self, platform):
        result = Pipeline(platform, ToolchainConfig(**SMALL)).run(
            build_polka_diagram(pixels=32)
        )
        assert [r.name for r in result.stage_records] == [
            "frontend",
            "transforms",
            "htg",
            "schedule",
            "parallel",
            "wcet",
            "certify",
        ]
        assert all(r.seconds >= 0 for r in result.stage_records)
        assert set(result.timings) == {
            "frontend", "transforms", "htg", "schedule", "parallel", "wcet",
            "certify",
        }
        # every stage's artifacts are retained, plus the platform
        assert set(result.artifacts) == {
            "platform", "model", "transformed_model", "pass_reports", "htg",
            "schedule", "parallel_program", "race_state", "sequential_bound",
            "certificates",
        }
        assert result.stage("schedule").info["scheduler"] == "wcet_list"
        assert result.stage("htg").info["tasks"] == len(result.htg.leaf_tasks())
        assert result.stage("transforms").info["passes"] == [
            "constant_folding", "dead_code_elimination", "scratchpad_allocation",
        ]
        assert result.cache_stats["misses"] >= 0


class TestToolchainShim:
    """Result fields and scheduler dispatch of ``Pipeline.run``."""

    def test_sequential_bound_is_constructor_field_with_compat_alias(self, platform):
        result = Pipeline(platform, ToolchainConfig(**SMALL)).run(
            build_polka_diagram(pixels=32)
        )
        assert result.sequential_bound == result.sequential_wcet

    def test_scheduler_dispatch_goes_through_registry(self, platform, monkeypatch):
        """Deleting the registry entry must break dispatch (no if/elif left)."""
        import repro.scheduling.registry as registry_module

        pipeline = Pipeline(platform, ToolchainConfig(scheduler="sequential", **SMALL))
        monkeypatch.delitem(registry_module._REGISTRY._entries, "sequential")
        with pytest.raises(SchedulerRegistryError):
            pipeline.run(build_polka_diagram(pixels=32))


class TestFeedbackThroughPipeline:
    """``Pipeline.run`` is the one entry point, feedback iterations included."""

    def test_run_honours_feedback_iterations(self, platform):
        config = ToolchainConfig(loop_chunks=4, feedback_iterations=3)
        cache = WcetAnalysisCache()
        via_run = Pipeline(platform, config, cache).run(build_egpws_diagram(32))
        via_helper = run_pipeline(build_egpws_diagram(32), platform, config, cache)
        one_pass = Pipeline(
            platform, dataclasses.replace(config, feedback_iterations=1), cache
        ).run(build_egpws_diagram(32))
        assert via_run.system_wcet == via_helper.system_wcet
        assert via_run.schedule.mapping == via_helper.schedule.mapping
        assert via_run.config == via_helper.config
        # the feedback loop ran: it found a better candidate than one pass
        assert via_run.system_wcet < one_pass.system_wcet

    def test_feedback_candidates_are_one_pass_runs(self, platform):
        pipeline = Pipeline(
            platform,
            ToolchainConfig(loop_chunks=2, feedback_iterations=2),
            WcetAnalysisCache(),
        )
        feedback = CrossLayerFeedback(pipeline)
        result = feedback.optimize(build_polka_diagram(pixels=32))
        configs = [entry.config for entry in feedback.history]
        # one candidate in the first round, four neighbours in the second
        assert len(configs) == 5
        assert len(set(map(repr, configs))) == 5
        assert all(config.feedback_iterations == 1 for config in configs)
        assert result.system_wcet == min(entry.system_wcet for entry in feedback.history)

    def test_run_incremental_rejects_feedback_configs(self, platform):
        config = ToolchainConfig(loop_chunks=2, feedback_iterations=2)
        cache = WcetAnalysisCache()
        prev = Pipeline(
            platform, dataclasses.replace(config, feedback_iterations=1), cache
        ).run(build_polka_diagram(pixels=32))
        with pytest.raises(PipelineError, match="feedback_iterations"):
            Pipeline(platform, config, cache).run_incremental(
                prev, build_polka_diagram(pixels=32)
            )


class TestProtectedSignals:
    def test_prefix_rules(self):
        assert is_interface_signal("sig_a_y")
        assert is_interface_signal("in_scale_u")
        assert is_interface_signal("out_peak_y")
        assert not is_interface_signal("st_block_acc")
        assert not is_interface_signal("p_block_gain")
        assert not is_interface_signal("signal")  # prefix, not substring rules

    def test_protected_names_of_a_compiled_model(self):
        model = compile_diagram(build_polka_diagram(pixels=32))
        protected = protected_signal_names(model.entry)
        assert protected  # inter-block signals exist
        assert all(is_interface_signal(name) for name in protected)
        declared = {decl.name for decl in model.entry.all_decls()}
        assert protected == {name for name in declared if is_interface_signal(name)}


class TestSweep:
    def test_parallel_sweep_matches_sequential_toolchain_loop(self):
        diagrams = [
            partial(build_egpws_diagram, lookahead=16),
            partial(build_polka_diagram, pixels=32),
        ]
        platforms = [
            partial(generic_predictable_multicore, cores=4),
            partial(recore_xentium_like, dsp_cores=4, control_cores=0),
        ]
        configs = [
            ToolchainConfig(scheduler="wcet_list", **SMALL),
            ToolchainConfig(scheduler="sequential", **SMALL),
        ]
        parallel = sweep(
            diagrams=diagrams, platforms=platforms, configs=configs, max_workers=2
        )
        assert parallel.max_workers > 1
        assert parallel.ok
        assert len(parallel) == 8
        # the equivalent hand-rolled sequential loop over Pipeline.run
        cases = sweep_grid(diagrams, platforms, configs)
        for case, outcome in zip(cases, parallel):
            diagram, platform = case.materialize()
            reference = Pipeline(platform, case.config).run(diagram)
            assert outcome.system_wcet == reference.system_wcet  # bit-identical
            assert outcome.sequential_wcet == reference.sequential_wcet
            assert outcome.diagram_name == diagram.name
            assert outcome.platform_name == platform.name

    def test_inline_sweep_keeps_results_and_shares_cache(self, platform):
        cache = WcetAnalysisCache()
        result = sweep(
            [
                SweepCase(
                    diagram=build_polka_diagram(pixels=32),
                    platform=platform,
                    config=ToolchainConfig(**SMALL),
                ),
                SweepCase(
                    diagram=build_polka_diagram(pixels=32),
                    platform=platform,
                    config=ToolchainConfig(scheduler="sequential", **SMALL),
                ),
            ],
            cache=cache,
            keep_results=True,
        )
        assert result.ok
        assert all(outcome.result is not None for outcome in result)
        # the second case re-used the first case's code-level analyses
        assert result[1].cache_stats["misses"] < result[0].cache_stats["misses"]
        assert result.best().system_wcet == min(o.system_wcet for o in result)

    def test_failing_case_is_reported_not_raised(self, platform):
        from repro.adl import Core, Platform, ProcessorModel, RoundRobinBus
        from repro.adl.memory import scratchpad, shared_sram

        bad_proc = ProcessorModel("bad", dynamic_branch_prediction=True)
        bad_platform = Platform(
            "bad", [Core(0, bad_proc, scratchpad("s"))], shared_sram(), RoundRobinBus()
        )
        result = sweep(
            [
                SweepCase(
                    diagram=build_polka_diagram(pixels=32),
                    platform=bad_platform,
                    config=ToolchainConfig(**SMALL),
                ),
                SweepCase(
                    diagram=build_polka_diagram(pixels=32),
                    platform=platform,
                    config=ToolchainConfig(**SMALL),
                ),
            ]
        )
        assert not result.ok
        assert len(result.failures()) == 1
        assert "predictability" in result[0].error
        # inline sweeps keep the original exception for callers (the
        # feedback loop re-raises it with type and traceback intact)
        from repro.core import ToolchainError

        assert isinstance(result[0].exception, ToolchainError)
        assert result[1].ok
        rendered = result.render()
        assert "ERROR" in rendered

    def test_sweep_rejects_conflicting_arguments(self, platform):
        case = SweepCase(
            diagram=build_polka_diagram(pixels=32),
            platform=platform,
            config=ToolchainConfig(**SMALL),
        )
        with pytest.raises(ValueError):
            sweep()
        with pytest.raises(ValueError):
            sweep([case], diagrams=[1])
        with pytest.raises(ValueError):
            sweep([case], max_workers=0)
        with pytest.raises(ValueError):
            sweep([case, case], max_workers=2, keep_results=True)

    def test_sweep_table_is_tabular(self, platform):
        result = sweep(
            [
                SweepCase(
                    diagram=build_polka_diagram(pixels=32),
                    platform=platform,
                    config=ToolchainConfig(**SMALL),
                )
            ]
        )
        rows = result.as_dicts()
        assert rows[0]["diagram"] == "polka"
        assert rows[0]["scheduler"] == "wcet_list"
        assert "parallel WCET" in result.render()
