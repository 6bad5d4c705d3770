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
    build_schedule_certificate,
    check_contention_certificate,
    check_schedule_certificate,
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
from repro.wcet import HardwareCostModel, SystemDesign, system_level_wcet
from repro.wcet.cache import WcetAnalysisCache

USECASES = ["egpws", "polka", "weaa"]


def solve(model, htg, platform, mapping, order, cache=None, **design):
    """The system-level analysis of one design point (a fresh cache, so the
    fixed point runs, unless ``cache`` is given)."""
    cache = cache if cache is not None else WcetAnalysisCache()
    return system_level_wcet(
        SystemDesign(htg, model.entry, platform, cache, **design), mapping, order
    )


def build_case(usecase, cores=4, chunks=2, seed=1):
    if usecase == "workloads":
        model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=seed)
    else:
        builder, _ = ALL_USECASES[usecase]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
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
        task.wcet = 100.0
    return func, htg


#: both tasks of :func:`contending_pair` write the shared ``buf``
SHARERS = ["t1", "t2"]


class TestStaticMhpRelation:
    def test_ordered_pairs_are_pruned(self):
        func, htg = contending_pair()
        htg.add_edge("t1", "t2")
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1}, SHARERS)
        assert relation.pruned_ordered == 2
        assert relation.allowed == {"t1": (), "t2": ()}

    def test_same_core_pairs_are_pruned(self):
        func, htg = contending_pair()
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 0}, SHARERS)
        assert relation.pruned_same_core == 2
        assert relation.kept_pairs == 0

    def test_overlapping_unordered_pair_is_kept(self):
        func, htg = contending_pair()
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1}, SHARERS)
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
            task.wcet = 100.0
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1}, SHARERS)
        assert relation.pruned_disjoint == 2
        assert relation.allowed == {"t1": (), "t2": ()}

    def test_ordering_through_unmapped_task_is_not_trusted(self):
        # t1 -> mid -> t2 with mid unmapped: the timeline drops both edges,
        # so the relation must NOT treat (t1, t2) as ordered
        func, htg = contending_pair()
        htg.add_task(Task("mid", TaskKind.BLOCK, Block()))
        htg.add_edge("t1", "mid")
        htg.add_edge("mid", "t2")
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1}, SHARERS)
        assert relation.pruned_ordered == 0
        assert relation.allowed == {"t1": ("t2",), "t2": ("t1",)}


# ---------------------------------------------------------------------- #
# system-level differential: pruned is never looser, off is bit-identical
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("usecase", USECASES)
class TestSystemLevelDifferential:
    def test_pruned_bound_is_never_looser(self, usecase):
        model, htg, platform, mapping, order = build_case(usecase)
        base = solve(model, htg, platform, mapping, order)
        pruned = solve(model, htg, platform, mapping, order, static_pruning=True)
        assert pruned.makespan <= base.makespan
        assert pruned.mhp_allowed is not None
        for tid, n in pruned.task_contenders.items():
            assert n <= base.task_contenders[tid]

    def test_pruning_off_is_bit_identical(self, usecase):
        model, htg, platform, mapping, order = build_case(usecase)
        default = solve(model, htg, platform, mapping, order)
        explicit_off = solve(model, htg, platform, mapping, order, static_pruning=False)
        assert result_fingerprint(default) == result_fingerprint(explicit_off)
        assert default.mhp_allowed is None and explicit_off.mhp_allowed is None


class TestSeededWorkloadsDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_pruned_bound_is_never_looser(self, seed):
        model, htg, platform, mapping, order = build_case("workloads", seed=seed)
        base = solve(model, htg, platform, mapping, order)
        pruned = solve(model, htg, platform, mapping, order, static_pruning=True)
        assert pruned.makespan <= base.makespan


@pytest.mark.parametrize("usecase", USECASES)
def test_design_base_equals_a_fresh_relation(usecase):
    """The static-MHP base a design builds once serves every mapping: the
    relation it gives equals the one computed from a base built for that
    mapping in a fresh cache (same skeleton, counters and footprints).
    ``tests/test_pair_engine.py`` checks that relation against the double
    loop."""
    import random

    model, htg, platform, _, _ = build_case(usecase, cores=9, chunks=3)
    design = SystemDesign(htg, model.entry, platform, WcetAnalysisCache(), static_pruning=True)
    rng = random.Random(7)
    for _ in range(40):
        mapping = {tid: rng.choice(design.core_ids) for tid in design.leaf_ids}
        sharers = [tid for tid in design.leaf_ids if rng.random() < 0.7]
        kept = compute_static_mhp(htg, model.entry, mapping, sharers, base=design.mhp_base)
        fresh = compute_static_mhp(
            htg, model.entry, mapping, sharers, store=WcetAnalysisCache().footprints
        )
        assert kept == fresh


# ---------------------------------------------------------------------- #
# knob validation
# ---------------------------------------------------------------------- #
class TestKnobResolution:
    def test_config_knobs_are_validated(self):
        with pytest.raises(ValueError):
            ToolchainConfig(static_pruning="yes")
        assert ToolchainConfig(static_pruning=True).static_pruning is True


# ---------------------------------------------------------------------- #
# result cache round trip
# ---------------------------------------------------------------------- #
class TestResultCacheRoundTrip:
    def test_pruned_results_replay_with_skeleton(self):
        model, htg, platform, mapping, order = build_case("weaa")
        cache = WcetAnalysisCache()
        first = solve(model, htg, platform, mapping, order, cache=cache, static_pruning=True)
        replay = solve(model, htg, platform, mapping, order, cache=cache, static_pruning=True)
        assert result_fingerprint(first) == result_fingerprint(replay)
        assert replay.mhp_allowed == first.mhp_allowed

    def test_pruned_and_unpruned_entries_do_not_collide(self):
        model, htg, platform, mapping, order = build_case("weaa")
        cache = WcetAnalysisCache()
        base = solve(model, htg, platform, mapping, order, cache=cache)
        pruned = solve(model, htg, platform, mapping, order, cache=cache, static_pruning=True)
        base_again = solve(model, htg, platform, mapping, order, cache=cache)
        assert base_again.mhp_allowed is None
        assert result_fingerprint(base_again) == result_fingerprint(base)
        assert pruned.makespan <= base.makespan

    def test_certified_replay_checks_the_contention_certificate(self):
        builder, _ = ALL_USECASES["weaa"]
        platform = generic_predictable_multicore()
        config = ToolchainConfig(static_pruning=True, certify=True)
        cache = WcetAnalysisCache()
        run_pipeline(builder(), platform, config, wcet_cache=cache)
        replay = run_pipeline(builder(), platform, config, wcet_cache=cache)
        assert cache.system_results.stats.hits == 1
        chain = replay.artifacts["certificates"]
        assert replay.schedule.result.mhp_allowed is not None
        assert chain.ok and chain.contention is not None


# ---------------------------------------------------------------------- #
# contention certificate: accept honest, refute tampered
# ---------------------------------------------------------------------- #
class TestContentionCertificate:
    def test_honest_skeleton_is_accepted(self):
        for usecase in USECASES:
            model, htg, platform, mapping, order = build_case(usecase)
            result = solve(model, htg, platform, mapping, order, static_pruning=True)
            cert = build_contention_certificate(result, htg, model.entry)
            report = check_contention_certificate(cert, htg, model.entry)
            assert report.ok, report.summary()
            assert report.checked["exclusions_checked"] > 0

    def test_unpruned_result_cannot_be_certified(self):
        model, htg, platform, mapping, order = build_case("weaa")
        result = solve(model, htg, platform, mapping, order)
        with pytest.raises(ValueError):
            build_contention_certificate(result, htg, model.entry)

    def test_fabricated_disjointness_is_refuted(self):
        # the hand-built pair provably contends; a skeleton claiming the
        # exclusion anyway must be rejected
        func, htg = contending_pair()
        mapping = {"t1": 0, "t2": 1}
        result = evaluate_mapping(
            SystemDesign(htg, func, generic_predictable_multicore(cores=2), static_pruning=True),
            mapping,
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
            SystemDesign(htg, func, generic_predictable_multicore(cores=2), static_pruning=True),
            mapping,
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
            SystemDesign(htg, func, generic_predictable_multicore(cores=2), static_pruning=True),
            mapping,
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
            SystemDesign(htg, func, generic_predictable_multicore(cores=2), static_pruning=True),
            mapping,
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
            SystemDesign(htg, func, generic_predictable_multicore(cores=2), static_pruning=True),
            mapping,
        ).result
        cert = build_contention_certificate(result, htg, func)
        payload = cert.as_dict()
        assert payload["kind"] == "contention"
        assert payload["allowed"] == {"t1": ["t2"], "t2": ["t1"]}


class TestFixedPointCertificateWithSkeleton:
    """The fixed point a pruned run claims, as the schedule certificate
    carries it with the skeleton."""

    def test_pruned_fixed_point_is_accepted(self):
        model, htg, platform, mapping, order = build_case("weaa")
        schedule = evaluate_mapping(
            SystemDesign(htg, model.entry, platform, static_pruning=True), mapping, order
        )
        cert = build_schedule_certificate(schedule, htg, platform)
        assert cert.allowed is not None
        report = check_schedule_certificate(cert, htg, platform)
        assert report.ok, report.summary()

    def test_unpruned_cert_serialization_is_unchanged(self):
        model, htg, platform, mapping, order = build_case("weaa")
        schedule = evaluate_mapping(SystemDesign(htg, model.entry, platform), mapping, order)
        cert = build_schedule_certificate(schedule, htg, platform)
        assert cert.allowed is None
        assert "allowed" not in cert.as_dict()

    def test_chain_includes_contention_certificate_when_pruned(self):
        model, htg, platform, mapping, order = build_case("weaa")
        pruned = evaluate_mapping(
            SystemDesign(htg, model.entry, platform, static_pruning=True), mapping, order
        )
        chain = build_certificates(pruned, model.entry, htg, platform)
        assert chain.ok, [str(f) for f in chain.findings()]
        assert chain.contention is not None
        assert [r.analysis for r in chain.reports] == [
            "certify_schedule", "certify_contention", "certify_ipet",
        ]
        unpruned = evaluate_mapping(SystemDesign(htg, model.entry, platform), mapping, order)
        plain = build_certificates(unpruned, model.entry, htg, platform)
        assert plain.contention is None
        assert [r.analysis for r in plain.reports] == ["certify_schedule", "certify_ipet"]


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
