"""Static interference pruning: relation, system-level wiring, certificates.

The load-bearing properties:

* pruning never loosens a bound (differential over every use case and
  seeded random workloads);
* ``static_pruning=False`` is bit-identical to the historical behaviour;
* the contention certificate checker refutes fabricated disjointness and
  dropped happens-before edges.
"""

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import (
    build_certificates,
    build_contention_certificate,
    build_fixed_point_certificate,
    check_contention_certificate,
    check_fixed_point_certificate,
)
from repro.analysis.static_mhp import compute_static_mhp
from repro.core.config import ToolchainConfig
from repro.core.pipeline import run_pipeline
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.expressions import ArrayRef, Const, Var
from repro.ir.statements import Assign, Block, For
from repro.ir.types import INT
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.wcet import HardwareCostModel, annotate_htg_wcets, system_level_wcet
from repro.wcet.cache import WcetAnalysisCache
from repro.wcet.system_level import mhp_options

USECASES = ["egpws", "polka", "weaa"]


def build_case(usecase, cores=4, chunks=2, seed=1):
    if usecase == "workloads":
        model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=seed)
    else:
        builder, _ = ALL_USECASES[usecase]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % platform.num_cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    order = default_core_order(htg, mapping)
    return model, htg, platform, mapping, order


def result_fingerprint(result):
    return (
        result.makespan,
        {tid: (iv.start, iv.end) for tid, iv in result.task_intervals.items()},
        result.task_effective_wcet,
        result.task_contenders,
        result.interference_cycles,
        result.communication_cycles,
        result.iterations,
        result.converged,
    )


# ---------------------------------------------------------------------- #
# hand-built fixtures
# ---------------------------------------------------------------------- #
def contending_pair():
    """Two cross-core, unordered tasks whose footprints provably overlap."""
    fb = FunctionBuilder("f")
    buf = fb.shared_array("buf", (8,))
    fb.assign(fb.at(buf, 0), 1.0)
    func = fb.build()
    htg = HierarchicalTaskGraph("h")
    i = Var("i", INT)
    for tid in ("t1", "t2"):
        stmts = Block(
            [For(index=i, lower=Const(0), upper=Const(8),
                 body=Block([Assign(ArrayRef("buf", (i,)), Const(1.0))]))]
        )
        task = htg.add_task(Task(tid, TaskKind.BLOCK, stmts, writes={"buf"}))
        task.shared_accesses = {"buf": 8}
        task.wcet = 100.0
    return func, htg


class TestStaticMhpRelation:
    def test_ordered_pairs_are_pruned(self):
        func, htg = contending_pair()
        htg.add_edge("t1", "t2")
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1})
        assert relation.pruned_ordered == 2
        assert relation.allowed == {"t1": (), "t2": ()}

    def test_same_core_pairs_are_pruned(self):
        func, htg = contending_pair()
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 0})
        assert relation.pruned_same_core == 2
        assert relation.kept_pairs == 0

    def test_overlapping_unordered_pair_is_kept(self):
        func, htg = contending_pair()
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1})
        assert relation.allowed == {"t1": ("t2",), "t2": ("t1",)}
        assert relation.kept_pairs == 2

    def test_disjoint_footprints_are_pruned(self):
        fb = FunctionBuilder("f")
        buf = fb.shared_array("buf", (8,))
        fb.assign(fb.at(buf, 0), 1.0)
        func = fb.build()
        htg = HierarchicalTaskGraph("h")
        i = Var("i", INT)
        for tid, (lo, hi) in (("t1", (0, 4)), ("t2", (4, 8))):
            stmts = Block(
                [For(index=i, lower=Const(lo), upper=Const(hi),
                     body=Block([Assign(ArrayRef("buf", (i,)), Const(1.0))]))]
            )
            task = htg.add_task(Task(tid, TaskKind.BLOCK, stmts, writes={"buf"}))
            task.shared_accesses = {"buf": 4}
            task.wcet = 100.0
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1})
        assert relation.pruned_disjoint == 2
        assert relation.allowed == {"t1": (), "t2": ()}

    def test_ordering_through_unmapped_task_is_not_trusted(self):
        # t1 -> mid -> t2 with mid unmapped: the timeline drops both edges,
        # so the relation must NOT treat (t1, t2) as ordered
        func, htg = contending_pair()
        htg.add_task(Task("mid", TaskKind.BLOCK, Block()))
        htg.add_edge("t1", "mid")
        htg.add_edge("mid", "t2")
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1})
        assert relation.pruned_ordered == 0
        assert relation.allowed == {"t1": ("t2",), "t2": ("t1",)}

    def test_footprints_can_be_disabled(self):
        func, htg = contending_pair()
        relation = compute_static_mhp(
            htg, func, {"t1": 0, "t2": 1}, use_footprints=False
        )
        assert relation.footprints == {}
        assert relation.pruned_disjoint == 0


# ---------------------------------------------------------------------- #
# system-level differential: pruned is never looser, off is bit-identical
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("usecase", USECASES)
class TestSystemLevelDifferential:
    def test_pruned_bound_is_never_looser(self, usecase):
        model, htg, platform, mapping, order = build_case(usecase)
        base = system_level_wcet(htg, model.entry, platform, mapping, order)
        pruned = system_level_wcet(
            htg, model.entry, platform, mapping, order, static_pruning=True
        )
        assert pruned.makespan <= base.makespan
        assert pruned.mhp_allowed is not None
        for tid, n in pruned.task_contenders.items():
            assert n <= base.task_contenders[tid]

    def test_pruning_off_is_bit_identical(self, usecase):
        model, htg, platform, mapping, order = build_case(usecase)
        default = system_level_wcet(htg, model.entry, platform, mapping, order)
        explicit_off = system_level_wcet(
            htg, model.entry, platform, mapping, order, static_pruning=False
        )
        assert result_fingerprint(default) == result_fingerprint(explicit_off)
        assert default.mhp_allowed is None and explicit_off.mhp_allowed is None


class TestSeededWorkloadsDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pruned_bound_is_never_looser(self, seed):
        model, htg, platform, mapping, order = build_case("workloads", seed=seed)
        base = system_level_wcet(htg, model.entry, platform, mapping, order)
        pruned = system_level_wcet(
            htg, model.entry, platform, mapping, order, static_pruning=True
        )
        assert pruned.makespan <= base.makespan


# ---------------------------------------------------------------------- #
# knob resolution: param > ambient > default
# ---------------------------------------------------------------------- #
class TestKnobResolution:
    def test_ambient_options_enable_pruning(self):
        model, htg, platform, mapping, order = build_case("weaa")
        with mhp_options(static_pruning=True):
            ambient = system_level_wcet(htg, model.entry, platform, mapping, order)
        assert ambient.mhp_allowed is not None
        # explicit False wins over the ambient True
        with mhp_options(static_pruning=True):
            off = system_level_wcet(
                htg, model.entry, platform, mapping, order, static_pruning=False
            )
        assert off.mhp_allowed is None

    def test_config_knobs_are_validated(self):
        with pytest.raises(ValueError):
            ToolchainConfig(static_pruning="yes")
        assert ToolchainConfig(static_pruning=True).static_pruning is True

    def test_ambient_scope_restores_on_exit(self):
        from repro.wcet.system_level import _MHP_OPTIONS

        before = dict(_MHP_OPTIONS)
        with mhp_options(static_pruning=True):
            assert _MHP_OPTIONS["static_pruning"] is True
        assert _MHP_OPTIONS == before


# ---------------------------------------------------------------------- #
# result cache round trip
# ---------------------------------------------------------------------- #
class TestResultCacheRoundTrip:
    def test_pruned_results_replay_with_skeleton(self):
        model, htg, platform, mapping, order = build_case("weaa")
        cache = WcetAnalysisCache()
        first = system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, static_pruning=True,
        )
        replay = system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, static_pruning=True,
        )
        assert result_fingerprint(first) == result_fingerprint(replay)
        assert replay.mhp_allowed == first.mhp_allowed

    def test_pruned_and_unpruned_entries_do_not_collide(self):
        model, htg, platform, mapping, order = build_case("weaa")
        cache = WcetAnalysisCache()
        base = system_level_wcet(
            htg, model.entry, platform, mapping, order, cache=cache
        )
        pruned = system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, static_pruning=True,
        )
        base_again = system_level_wcet(
            htg, model.entry, platform, mapping, order, cache=cache
        )
        assert base_again.mhp_allowed is None
        assert result_fingerprint(base_again) == result_fingerprint(base)
        assert pruned.makespan <= base.makespan

    def test_certified_replay_checks_the_contention_certificate(self):
        model, htg, platform, mapping, order = build_case("weaa")
        cache = WcetAnalysisCache()
        system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, static_pruning=True, certify=True,
        )
        replay = system_level_wcet(
            htg, model.entry, platform, mapping, order,
            cache=cache, static_pruning=True, certify=True,
        )
        assert replay.mhp_allowed is not None


# ---------------------------------------------------------------------- #
# contention certificate: accept honest, refute tampered
# ---------------------------------------------------------------------- #
class TestContentionCertificate:
    def test_honest_skeleton_is_accepted(self):
        for usecase in USECASES:
            model, htg, platform, mapping, order = build_case(usecase)
            result = system_level_wcet(
                htg, model.entry, platform, mapping, order, static_pruning=True
            )
            cert = build_contention_certificate(result, htg, model.entry)
            report = check_contention_certificate(cert, htg, model.entry)
            assert report.ok, report.summary()
            assert report.checked["exclusions_checked"] > 0

    def test_unpruned_result_cannot_be_certified(self):
        model, htg, platform, mapping, order = build_case("weaa")
        result = system_level_wcet(htg, model.entry, platform, mapping, order)
        with pytest.raises(ValueError):
            build_contention_certificate(result, htg, model.entry)

    def test_fabricated_disjointness_is_refuted(self):
        # the hand-built pair provably contends; a skeleton claiming the
        # exclusion anyway must be rejected
        func, htg = contending_pair()
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            htg, func, generic_predictable_multicore(cores=2), mapping,
            static_pruning=True,
        ).result
        cert = build_contention_certificate(result, htg, func)
        assert cert.allowed["t1"] == ["t2"]
        cert.allowed["t1"] = []  # fabricate: claim t2 never contends with t1
        report = check_contention_certificate(cert, htg, func)
        codes = [f.code for f in report.findings]
        assert "certify.contention.unjustified-exclusion" in codes
        assert report.count("error") >= 1

    def test_dropped_happens_before_edge_is_refuted(self):
        func, htg = contending_pair()
        htg.add_edge("t1", "t2")
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            htg, func, generic_predictable_multicore(cores=2), mapping,
            static_pruning=True,
        ).result
        cert = build_contention_certificate(result, htg, func)
        honest = check_contention_certificate(cert, htg, func)
        assert honest.ok, honest.summary()
        # tamper with the graph: drop the edge that justified the exclusion
        bare = HierarchicalTaskGraph(htg.name, dict(htg.tasks), [])
        report = check_contention_certificate(cert, bare, func)
        codes = [f.code for f in report.findings]
        assert "certify.contention.unjustified-exclusion" in codes

    def test_skeleton_naming_unknown_tasks_is_refuted(self):
        func, htg = contending_pair()
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            htg, func, generic_predictable_multicore(cores=2), mapping,
            static_pruning=True,
        ).result
        cert = build_contention_certificate(result, htg, func)
        cert.allowed["t1"] = ["ghost"]
        report = check_contention_certificate(cert, htg, func)
        assert [f.code for f in report.findings] == ["certify.contention.coverage"]

    def test_missing_allowed_entry_means_all_excluded(self):
        # dropping a task's entry wholesale claims every pair excluded and
        # must be refuted for a contending pair
        func, htg = contending_pair()
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            htg, func, generic_predictable_multicore(cores=2), mapping,
            static_pruning=True,
        ).result
        cert = build_contention_certificate(result, htg, func)
        del cert.allowed["t1"]
        report = check_contention_certificate(cert, htg, func)
        codes = [f.code for f in report.findings]
        assert "certify.contention.unjustified-exclusion" in codes

    def test_serialization_shape(self):
        func, htg = contending_pair()
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            htg, func, generic_predictable_multicore(cores=2), mapping,
            static_pruning=True,
        ).result
        cert = build_contention_certificate(result, htg, func)
        payload = cert.as_dict()
        assert payload["kind"] == "contention"
        assert payload["allowed"] == {"t1": ["t2"], "t2": ["t1"]}


class TestFixedPointCertificateWithSkeleton:
    def test_pruned_fixed_point_is_accepted(self):
        model, htg, platform, mapping, order = build_case("weaa")
        schedule = evaluate_mapping(
            htg, model.entry, platform, mapping, order, static_pruning=True
        )
        cert = build_fixed_point_certificate(
            schedule.result, schedule.order, platform, htg
        )
        assert cert.allowed is not None
        report = check_fixed_point_certificate(cert, htg, platform)
        assert report.ok, report.summary()

    def test_unpruned_cert_serialization_is_unchanged(self):
        model, htg, platform, mapping, order = build_case("weaa")
        schedule = evaluate_mapping(htg, model.entry, platform, mapping, order)
        cert = build_fixed_point_certificate(
            schedule.result, schedule.order, platform, htg
        )
        assert cert.allowed is None
        assert "allowed" not in cert.as_dict()

    def test_chain_includes_contention_certificate_when_pruned(self):
        model, htg, platform, mapping, order = build_case("weaa")
        pruned = evaluate_mapping(
            htg, model.entry, platform, mapping, order, static_pruning=True
        )
        chain = build_certificates(pruned, model.entry, htg, platform)
        assert chain.ok, [str(f) for f in chain.findings()]
        assert chain.contention is not None
        assert len(chain.reports) == 4
        unpruned = evaluate_mapping(htg, model.entry, platform, mapping, order)
        plain = build_certificates(unpruned, model.entry, htg, platform)
        assert plain.contention is None
        assert len(plain.reports) == 3


# ---------------------------------------------------------------------- #
# pipeline integration
# ---------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_static_pruning_config_tightens_or_matches(self):
        builder, _ = ALL_USECASES["weaa"]
        platform = generic_predictable_multicore()
        base = run_pipeline(builder(), platform, ToolchainConfig())
        pruned = run_pipeline(
            builder(), platform, ToolchainConfig(static_pruning=True)
        )
        assert pruned.schedule.result.makespan <= base.schedule.result.makespan
        assert pruned.schedule.result.mhp_allowed is not None
        assert base.schedule.result.mhp_allowed is None

    def test_pruned_run_certifies_end_to_end(self):
        builder, _ = ALL_USECASES["weaa"]
        platform = generic_predictable_multicore()
        result = run_pipeline(
            builder(), platform, ToolchainConfig(static_pruning=True, certify=True)
        )
        chain = result.artifacts["certificates"]
        assert chain is not None and chain.ok
        assert chain.contention is not None
