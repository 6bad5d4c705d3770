"""Adversarial certificates: every checker rejects a seeded tamper.

Each test forges exactly one plausible-looking corruption of a genuine
result -- a shifted start time, a bumped LP edge count, an understated
effective WCET, a hand-edited cache entry -- and asserts the matching
checker refutes it with the *named* finding, not a crash or a silent pass.
The schedule certificate witnesses the timeline and its interference
fixed point together, so both kinds of tamper meet the one schedule
checker.  It carries no prices, so an analysis that under-prices transfers
or interference is refuted through the timeline it claims.
"""

import dataclasses
import json

import pytest

from repro.adl.platforms import generic_predictable_multicore, kit_leon3_inoc
from repro.analysis.certify import (
    CertificationError,
    build_certificates,
    build_ipet_certificate,
    build_schedule_certificate,
    check_ipet_certificate,
    check_schedule_certificate,
)
from repro.analysis.wcet_facts import derive_flow_facts
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.htg.extraction import ExtractionOptions, extract_htg
from repro.ir import FunctionBuilder
from repro.ir.cfg import build_cfg
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.usecases.workloads import random_pipeline_diagram, synthetic_compiled_model
from repro.utils.intervals import Interval
from repro.wcet.cache import CACHE_SCHEMA_VERSION, WcetAnalysisCache
from repro.wcet.code_level import statement_wcet
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.ipet import FlowFacts, ipet_wcet
from repro.wcet.system_level import SystemDesign


def mapped_case(cores=3, seed=7):
    model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=seed)
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=2))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    return model, htg, platform, mapping, default_core_order(htg, mapping)


def priced_polka(monkeypatch=None, **patches):
    """Bound and chain-wide error codes of polka (loop x 4, generic4) run
    with ``patches`` applied to :class:`SystemDesign`'s prices."""
    from repro.usecases import build_polka_diagram

    for attr, patched in patches.items():
        monkeypatch.setattr(SystemDesign, attr, patched)
    platform = generic_predictable_multicore(cores=4)
    result = Pipeline(
        platform,
        ToolchainConfig(granularity="loop", loop_chunks=4),
        WcetAnalysisCache(),
    ).run(build_polka_diagram(pixels=32))
    chain = build_certificates(result.schedule, result.model.entry, result.htg, platform)
    return result.system_wcet, {f.code for f in chain.findings() if f.severity == "error"}


@pytest.fixture(scope="module")
def case():
    return mapped_case()


@pytest.fixture(scope="module")
def polka_bound():
    """The genuine bound of :func:`priced_polka`, which certifies clean."""
    bound, found = priced_polka()
    assert not found
    return bound


@pytest.fixture(scope="module")
def schedule(case):
    model, htg, platform, mapping, order = case
    return evaluate_mapping(SystemDesign(htg, model.entry, platform), mapping, order)


def codes(report):
    return {f.code for f in report.findings if f.severity == "error"}


# ---------------------------------------------------------------------- #
# schedule certificate
# ---------------------------------------------------------------------- #
class TestScheduleTamper:
    def test_genuine_schedule_accepted(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        assert check_schedule_certificate(cert, htg, platform).ok

    def test_shifted_start_time_rejected(self, case, schedule):
        """Pull the second task on some core into its predecessor's window."""
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        core, tids = next(
            (c, ts) for c, ts in cert.order.items() if len(ts) >= 2
        )
        victim = tids[1]
        length = cert.finishes[victim] - cert.starts[victim]
        cert.starts[victim] = cert.starts[tids[0]]  # overlap the predecessor
        cert.finishes[victim] = cert.starts[victim] + length
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.schedule.core-overlap" in codes(report)

    def test_shrunk_bound_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        cert.wcet_bound *= 0.9
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) == {"certify.schedule.bound-mismatch"}

    def test_cheapened_comm_delay_rejected(self, monkeypatch, polka_bound):
        """An analysis that prices every transfer at zero cycles."""
        bound, found = priced_polka(
            monkeypatch, delay=lambda self, payload, src, dst, contenders=None: 0.0
        )
        assert bound < polka_bound
        assert found == {"certify.schedule.precedence-violated"}

    def test_dropped_task_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        victim = next(iter(cert.mapping))
        del cert.mapping[victim]
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.schedule.mapping-coverage" in codes(report)

    def test_analysis_on_other_cores_than_the_mapping_rejected(self, case):
        """A result whose ``task_cores`` disagrees with the schedule's
        mapping: the contention certificate reads ``task_cores``."""
        model, htg, platform, mapping, order = case
        pruned = evaluate_mapping(
            SystemDesign(htg, model.entry, platform, static_pruning=True),
            mapping,
            order,
        )
        victim = next(iter(mapping))
        forged = dataclasses.replace(
            pruned,
            result=dataclasses.replace(
                pruned.result,
                task_cores={
                    **pruned.result.task_cores,
                    victim: (mapping[victim] + 1) % platform.num_cores,
                },
            ),
        )
        chain = build_certificates(forged, model.entry, htg, platform)
        assert not chain.ok
        assert chain.contention is not None
        assert "certify.schedule.mapping-mismatch" in codes(chain.reports[0])
        assert build_certificates(pruned, model.entry, htg, platform).ok


# ---------------------------------------------------------------------- #
# IPET certificate
# ---------------------------------------------------------------------- #
class TestIpetTamper:
    @pytest.fixture(scope="class")
    def ipet(self, case):
        model, _, platform, _, _ = case
        result = ipet_wcet(model.entry, HardwareCostModel(platform, 0))
        assert result.duals is not None
        return model.entry, result

    def test_genuine_solution_accepted(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        report = check_ipet_certificate(cert, function=function)
        assert report.ok, [str(f) for f in report.findings]

    def test_bumped_edge_count_rejected(self, ipet):
        """+1 on one LP count breaks conservation, not just the objective."""
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        key = max(cert.edge_counts, key=cert.edge_counts.get)
        cert.edge_counts[key] += 1.0
        report = check_ipet_certificate(cert, function=function)
        found = codes(report)
        assert found & {
            "certify.ipet.flow-conservation", "certify.ipet.unit-flow",
        }
        assert "certify.ipet.objective-mismatch" in found

    def test_inflated_wcet_rejected_by_objective_and_duality(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        cert.wcet *= 2.0
        report = check_ipet_certificate(cert, function=function)
        assert "certify.ipet.objective-mismatch" in codes(report)
        assert "certify.ipet.duality-gap" in codes(report)

    def test_consistent_suboptimal_witness_fails_duality(self, ipet):
        """Scale counts AND wcet consistently: feasibility checks pass, but
        the duals refute the doctored optimum -- this is exactly the attack
        the optimality witness exists for."""
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        # shrink the claimed bound and zero every count (a feasible flow of
        # zero paths is conservation-consistent except for unit flow, so
        # tamper only the bound while keeping the true counts)
        cert.wcet -= 10.0
        cert.duals = dict(cert.duals)
        report = check_ipet_certificate(cert, function=function)
        assert "certify.ipet.duality-gap" in codes(report)

    def test_negative_edge_count_rejected(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        key = min(cert.edge_counts, key=cert.edge_counts.get)
        cert.edge_counts[key] = -1.0
        assert "certify.ipet.negative-count" in codes(
            check_ipet_certificate(cert, function=function)
        )
        # a count a rounding error below zero is within the slack
        cert = build_ipet_certificate(result, function.name)
        cert.edge_counts[key] = -1e-12
        assert "certify.ipet.negative-count" not in codes(
            check_ipet_certificate(cert, function=function)
        )

    def test_back_edge_flow_over_the_bound_rejected(self, ipet):
        """One more trip on every back edge than its loop bound allows."""
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        cfg = build_cfg(function, allow_unbounded=True)
        back = [e.key for e in cfg.edges if e.kind == "back"]
        assert back, "case must contain loops"
        for key in back:
            header = key[1]
            entry = sum(
                cert.edge_counts[e.key] for e in cfg.edges
                if e.dst.bid == header and e.kind != "back"
            )
            cert.edge_counts[key] = cert.loop_bounds[header] * entry + 1.0
        assert "certify.ipet.loop-bound-violated" in codes(
            check_ipet_certificate(cert, function=function)
        )

    def test_dual_with_a_negative_reduced_cost_rejected(self, ipet):
        """Raising one interior block's flow dual makes the reduced cost of
        an edge into that block negative, however the objective reads."""
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        bid = next(iter(cert.duals["flow"]))
        cert.duals["flow"][bid] += 1000.0
        assert "certify.ipet.dual-infeasible" in codes(
            check_ipet_certificate(cert, function=function)
        )

    def test_forgotten_loop_bound_rejected(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        assert cert.loop_bounds, "case must contain loops"
        header = next(iter(cert.loop_bounds))
        del cert.loop_bounds[header]
        report = check_ipet_certificate(cert, function=function)
        assert "certify.ipet.unbounded-loop" in codes(report)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_sequential_bound_off_the_optimum_rejected(self, ipet, factor):
        """Without flow facts the reported sequential bound is the plain
        LP's optimum: half or twice it is refuted."""
        function, result = ipet
        cert = build_ipet_certificate(result, function.name, sequential_bound=result.wcet)
        assert check_ipet_certificate(cert, function=function).ok
        cert.sequential_bound = result.wcet * factor
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.sequential-bound-mismatch"}

    def test_sequential_bound_under_flow_facts_may_only_lie_above(self):
        """Facts that pin a dead branch tighten the LP below the structural
        bound the run reports: accepted above the optimum, refuted below."""
        fb = FunctionBuilder("dead_else")
        x = fb.input_array("x", (16,))
        y = fb.output_array("y", (16,))
        with fb.loop("i", 0, 16) as i:
            with fb.if_then(i < 32):
                fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
            with fb.orelse():
                fb.assign(fb.at(y, i), fb.call("sqrt", fb.call("exp", fb.at(x, i))))
        function = fb.build()
        model = HardwareCostModel(generic_predictable_multicore(), 0)
        facts, _ = derive_flow_facts(function)
        tightened = ipet_wcet(function, model, facts)
        structural = statement_wcet(function.body, function, model).total
        assert tightened.infeasible_edges and tightened.wcet < structural
        cert = build_ipet_certificate(tightened, function.name, sequential_bound=structural)
        assert check_ipet_certificate(cert, function=function).ok
        cert.sequential_bound = tightened.wcet - 1.0
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.sequential-bound-mismatch"}

    def test_edge_set_mismatch_short_circuits(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        cert.edge_counts[(9999, 9998, "jump")] = 1.0
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.edge-set-mismatch"}

    @pytest.fixture(scope="class")
    def cheap_arm(self):
        """An ``if`` with a cheap and a dear arm, then a 4-trip loop (104
        cycles on generic4 core 0), and a witness of the cheap arm with no
        loop iteration (21 cycles): the LP's optimum once facts pin the dear
        arm and the back edge."""
        fb = FunctionBuilder("cheap_or_dear")
        x = fb.input_array("x", (4,))
        y = fb.output_array("y", (4,))
        with fb.if_then(fb.at(x, 0) < 1.0):
            fb.assign(fb.at(y, 0), 1.0)
        with fb.orelse():
            fb.assign(fb.at(y, 0), fb.call("sqrt", fb.at(x, 0)))
        with fb.loop("i", 0, 4):
            fb.assign(fb.at(y, 0), 2.0)
        function = fb.build()
        model = HardwareCostModel(generic_predictable_multicore(), 0)
        honest = ipet_wcet(function, model)
        cfg = honest.cfg
        (header, tail), = cfg.back_edges.items()
        dear = max(
            (e for e in cfg.edges if e.src is cfg.entry),
            key=lambda e: honest.block_costs[e.dst.bid],
        )
        back = (tail, header, "back")
        cheap = ipet_wcet(
            function, model, FlowFacts(infeasible_edges=frozenset({dear.key, back}))
        )
        assert cheap.wcet < honest.wcet
        return function, cheap, header, back

    def test_witness_without_duals_rejected(self, cheap_arm):
        """A feasible cheap-arm flow, claimed without flow facts and with the
        run's sequential bound lowered to it, checks out on every primal
        count: only the missing optimality witness refutes it."""
        function, cheap, _, _ = cheap_arm
        cert = build_ipet_certificate(cheap, function.name, sequential_bound=cheap.wcet)
        cert.infeasible_edges = frozenset()
        cert.duals = None
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.dual-missing"}

    def test_positive_loop_dual_rejected(self, cheap_arm):
        """Claim only the back edge pinned: a positive loop dual adds
        ``bound x dual`` slack to the loop's entry edge (the pinned back edge,
        whose reduced cost it would break, is never priced), so shifting the
        flow duals before the loop down by that much keeps every reduced
        cost non-negative and the gap zero.  Only the dual's sign refutes
        the cheap claim."""
        function, cheap, header, back = cheap_arm
        cert = build_ipet_certificate(cheap, function.name, sequential_bound=cheap.wcet)
        cert.infeasible_edges = frozenset({back})
        cfg = cheap.cfg
        before = {e.dst.bid for e in cfg.edges if e.src is cfg.entry} | {
            e.src.bid for e in cfg.edges if e.dst.bid == header and e.kind != "back"
        }
        shift = cert.loop_bounds[header] * cheap.wcet
        duals = dict(cert.duals, loop={header: cheap.wcet})
        duals["flow"] = {
            bid: y - shift if bid in before else y for bid, y in duals["flow"].items()
        }
        cert.duals = duals
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.dual-sign"}

    @pytest.mark.parametrize("damage", ["malformed", "uncovered"])
    def test_incomplete_duals_rejected(self, ipet, damage):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        cert.duals = dict(cert.duals)
        if damage == "malformed":
            del cert.duals["entry"]
        else:
            cert.duals["flow"] = dict(list(cert.duals["flow"].items())[1:])
        report = check_ipet_certificate(cert, function=function)
        code = "certify.ipet.dual-" + ("malformed" if damage == "malformed" else "coverage")
        assert codes(report) == {code}


# ---------------------------------------------------------------------- #
# the fixed point behind the schedule certificate
# ---------------------------------------------------------------------- #
class TestFixedPointTamper:
    def test_genuine_fixed_point_accepted(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        report = check_schedule_certificate(cert, htg, platform)
        assert report.ok, [str(f) for f in report.findings]
        assert report.checked["equations_checked"] == len(cert.mapping)

    def test_understated_response_time_rejected(self, case, schedule):
        """Shave one task's effective WCET (and keep its window consistent):
        the re-applied interference equations must refute it."""
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        victim = next(t for t in cert.base if cert.base[t] > 2)
        cert.effective[victim] = cert.base[victim] - 1.0
        cert.finishes[victim] = cert.starts[victim] + cert.effective[victim]
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.fixed-point.effective-below-base" in codes(report)

    def test_shaved_interference_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        victim = next(
            (t for t in cert.effective if cert.effective[t] > cert.base[t]),
            None,
        )
        assert victim is not None, "case must have contended tasks"
        shaved = (cert.base[victim] + cert.effective[victim]) / 2.0
        cert.effective[victim] = shaved
        cert.finishes[victim] = cert.starts[victim] + shaved
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.fixed-point.not-post-fixed-point" in codes(report)

    def test_early_start_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        victim = max(cert.starts, key=cert.starts.get)
        assert cert.starts[victim] > 0
        length = cert.finishes[victim] - cert.starts[victim]
        cert.starts[victim] = 0.0
        cert.finishes[victim] = length
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) & {
            "certify.schedule.precedence-violated", "certify.schedule.core-overlap",
        }

    def test_understated_makespan_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        cert.wcet_bound *= 0.5
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) == {"certify.schedule.bound-mismatch"}

    def test_fall_back_may_overstate_contenders_only(self, case, schedule):
        """The all-contend fall-back claims more contenders than its windows
        give; it may never claim fewer."""
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        contended = next(t for t, k in cert.contenders.items() if k > 0)
        cert.converged = False
        cert.contenders = {tid: platform.num_cores - 1 for tid in cert.contenders}
        assert check_schedule_certificate(cert, htg, platform).ok
        cert.contenders[contended] = 0
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) == {"certify.fixed-point.contenders-mismatch"}

    def test_overstated_makespan_rejected(self, case, schedule):
        """A loose bound is an error too: the bound is the maximum finish."""
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        cert.wcet_bound *= 2.0
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) == {"certify.schedule.bound-mismatch"}

    def test_halved_penalties_rejected(self, monkeypatch, polka_bound):
        """An analysis that charges half the platform's interference."""
        penalty = SystemDesign.penalty.func
        bound, found = priced_polka(
            monkeypatch,
            penalty=property(lambda self: [p / 2.0 for p in penalty(self)]),
        )
        assert bound < polka_bound
        assert found == {"certify.fixed-point.not-post-fixed-point"}


# ---------------------------------------------------------------------- #
# every other finding code of the schedule checker
# ---------------------------------------------------------------------- #
def _first_task(cert):
    return next(iter(cert.mapping))


def _unknown_core(cert):
    cert.mapping[_first_task(cert)] = 99


def _short_core_order(cert):
    next(tids for tids in cert.order.values() if tids).pop()


def _task_ordered_on_another_core(cert):
    core, tids = next((c, ts) for c, ts in cert.order.items() if ts)
    other = next(c for c in cert.order if c != core)
    cert.order[other].append(tids.pop())


def _dropped_window(cert):
    del cert.starts[_first_task(cert)]


def _stray_window(cert):
    cert.starts["ghost"] = cert.finishes["ghost"] = 0.0


def _negative_window(cert):
    tid = _first_task(cert)
    cert.finishes[tid] = cert.starts[tid] - 5.0


def _skeleton_naming_a_non_sharer(cert):
    cert.allowed = {tid: ["ghost"] for tid in cert.mapping}


def _lowered_base(cert):
    """Converged, so the re-applied equation must meet the claim exactly."""
    assert cert.converged
    cert.base[_first_task(cert)] -= 1.0


def _understated_contenders(cert):
    """Converged, so the claimed count must be the re-derived one."""
    assert cert.converged
    cert.contenders[next(t for t, k in cert.contenders.items() if k > 0)] = 0


REMAINING_CHECKS = [
    ("certify.schedule.unknown-core", _unknown_core),
    ("certify.schedule.order-coverage", _short_core_order),
    ("certify.schedule.order-core-mismatch", _task_ordered_on_another_core),
    ("certify.schedule.missing-interval", _dropped_window),
    ("certify.schedule.stray-interval", _stray_window),
    ("certify.schedule.negative-duration", _negative_window),
    ("certify.fixed-point.allowed-unknown", _skeleton_naming_a_non_sharer),
    ("certify.fixed-point.effective-mismatch", _lowered_base),
    ("certify.fixed-point.contenders-mismatch", _understated_contenders),
]


@pytest.mark.parametrize(
    "code, tamper", [pytest.param(*check, id=check[0]) for check in REMAINING_CHECKS]
)
def test_each_remaining_check_refutes_its_tamper(case, schedule, code, tamper):
    """The merged checker keeps every check either former checker made."""
    _, htg, platform, _, _ = case
    cert = build_schedule_certificate(schedule, htg, platform)
    tamper(cert)
    report = check_schedule_certificate(cert, htg, platform)
    assert code in {f.code for f in report.findings}, report.summary()


def test_unknown_core_refuted_on_a_mesh():
    """A mesh prices a transfer by its cores' tiles, so it cannot price one
    from a core it lacks: the checker reports the core instead of raising."""
    model, htg, _, _, _ = mapped_case()
    platform = kit_leon3_inoc()
    mapping = {
        t.task_id: i % platform.num_cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    schedule = evaluate_mapping(
        SystemDesign(htg, model.entry, platform), mapping, default_core_order(htg, mapping)
    )
    cert = build_schedule_certificate(schedule, htg, platform)
    assert check_schedule_certificate(cert, htg, platform).ok
    sender = next(
        e.src for e in htg.edges if e.payload_bytes and e.src in mapping and e.dst in mapping
    )
    cert.mapping[sender] = 99
    report = check_schedule_certificate(cert, htg, platform)
    assert "certify.schedule.unknown-core" in codes(report)


# ---------------------------------------------------------------------- #
# cache certification: hand-edited entries are caught at replay
# ---------------------------------------------------------------------- #
class TestCacheTamper:
    """A result the cache's result tier replays meets the same certify
    stage as a freshly computed one."""

    @staticmethod
    def _pipeline(tmp_path, certify):
        return Pipeline(
            generic_predictable_multicore(cores=3),
            ToolchainConfig(certify=certify),
            WcetAnalysisCache.open(tmp_path / "cache"),
        )

    @staticmethod
    def _diagram():
        return random_pipeline_diagram(stages=3, width=2, vector_size=16, seed=11)

    def _run(self, tmp_path, certify):
        pipeline = self._pipeline(tmp_path, certify)
        result = pipeline.run(self._diagram())
        assert pipeline.wcet_cache.system_results.stats.disk_hits == 1  # replayed
        return result

    def _prime(self, tmp_path):
        pipeline = self._pipeline(tmp_path, certify=False)
        honest = pipeline.run(self._diagram())
        pipeline.wcet_cache.flush()
        return honest.schedule.result

    def _tamper_shard(self, tmp_path, mutate):
        vdir = tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}"
        shard = next(vdir.glob("sys-entries*.jsonl"))
        records = [json.loads(line) for line in shard.read_text().splitlines()]
        assert len(records) == 1
        mutate(records[0])
        shard.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    def test_untampered_replay_certifies_clean(self, tmp_path):
        honest = self._prime(tmp_path)
        replay = self._run(tmp_path, certify=True)
        assert replay.certificates.ok
        assert replay.schedule.result.makespan == honest.makespan

    def test_tampered_entry_raises_on_certified_replay(self, tmp_path):
        self._prime(tmp_path)

        def shave_response_time(record):
            tid = max(record["tasks"], key=lambda t: record["tasks"][t][1])
            row = record["tasks"][tid]
            row[1] -= 1.0  # finish 1 cycle early: length no longer matches
            record["makespan"] = max(r[1] for r in record["tasks"].values())

        self._tamper_shard(tmp_path, shave_response_time)
        with pytest.raises(CertificationError) as excinfo:
            self._run(tmp_path, certify=True)
        assert excinfo.value.report is not None
        assert "certify.fixed-point.interval-length" in codes(excinfo.value.report)

    def test_tampered_entry_is_silently_served_without_certify(self, tmp_path):
        """The certify stage is the only line of defence: document that a
        plain replay trusts the cache (this is why CI runs with certify)."""
        honest = self._prime(tmp_path)

        def understate_makespan(record):
            record["makespan"] = record["makespan"] * 0.5

        self._tamper_shard(tmp_path, understate_makespan)
        replay = self._run(tmp_path, certify=False)
        assert replay.schedule.result.makespan == honest.makespan * 0.5

    def test_halved_entry_function_wcet_refuted_on_certified_replay(self, tmp_path):
        """A code-level shard line of one region of polka's entry function
        with its ``total`` halved lowers the reported sequential bound (the
        sum of the region entries) on a warm run; the IPET checker refutes
        it.  The region is one no task shares an entry with."""
        from repro.usecases import build_polka_diagram

        platform = generic_predictable_multicore()

        def run(certify):
            cache = WcetAnalysisCache.open(tmp_path / "cache")
            return cache, Pipeline(platform, ToolchainConfig(certify=certify), cache).run(
                build_polka_diagram()
            )

        cache, honest = run(certify=False)
        cache.flush()
        entry = honest.model.entry
        model = HardwareCostModel(platform, 0)
        task_keys = {
            cache.entry_key(task.statements, entry, model)
            for task in honest.htg.leaf_tasks()
        }
        region = max(
            (block for _, block in honest.model.block_regions
             if cache.entry_key(block, entry, model) not in task_keys),
            key=lambda block: cache.region_wcet(block, entry, model).total,
        )
        key = cache.entry_key(region, entry, model)
        (shard,) = (tmp_path / "cache" / f"v{CACHE_SCHEMA_VERSION}").glob("entries-*.jsonl")
        records = [json.loads(line) for line in shard.read_text().splitlines()]
        (record,) = [r for r in records if r["key"] == key]
        halved = record["total"] / 2
        record["total"] = halved
        shard.write_text("\n".join(json.dumps(r) for r in records) + "\n")

        _, trusting = run(certify=False)
        assert trusting.sequential_bound < honest.sequential_bound
        assert trusting.sequential_bound == sum(
            halved if block is region else cache.region_wcet(block, entry, model).total
            for _, block in honest.model.block_regions
        )
        with pytest.raises(CertificationError) as excinfo:
            run(certify=True)
        assert codes(excinfo.value.report) == {"certify.ipet.sequential-bound-mismatch"}

    def test_understated_cached_makespan_caught(self, tmp_path):
        self._prime(tmp_path)
        self._tamper_shard(
            tmp_path, lambda record: record.update(makespan=record["makespan"] * 0.5)
        )
        with pytest.raises(CertificationError) as excinfo:
            self._run(tmp_path, certify=True)
        found = codes(excinfo.value.report)
        assert found == {"certify.schedule.bound-mismatch"}


# ---------------------------------------------------------------------- #
# tampering an analysed Schedule end to end
# ---------------------------------------------------------------------- #
class TestScheduleObjectTamper:
    def test_moved_interval_refutes_schedule_certify(self, case):
        model, htg, platform, mapping, order = case
        schedule = evaluate_mapping(SystemDesign(htg, model.entry, platform), mapping, order)
        victim = max(
            schedule.result.task_intervals,
            key=lambda t: schedule.result.task_intervals[t].start,
        )
        old = schedule.result.task_intervals[victim]
        schedule.result.task_intervals[victim] = Interval(
            0.0, old.end - old.start
        )
        report = schedule.certify(htg, platform)
        assert not report.ok
        assert codes(report)  # at least one error-severity refutation
