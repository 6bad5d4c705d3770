"""Adversarial certificates: every checker rejects a seeded tamper.

Each test forges exactly one plausible-looking corruption of a genuine
result -- a shifted start time, a bumped LP edge count, an understated
effective WCET, a hand-edited cache entry -- and asserts the matching
checker refutes it with the *named* finding, not a crash or a silent pass.
The schedule certificate witnesses the timeline and its interference
fixed point together, so both kinds of tamper meet the one schedule
checker.
"""

import dataclasses
import json

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import (
    CertificationError,
    build_certificates,
    build_ipet_certificate,
    build_schedule_certificate,
    check_ipet_certificate,
    check_schedule_certificate,
)
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline
from repro.htg.extraction import ExtractionOptions, extract_htg
from repro.scheduling.schedule import default_core_order, evaluate_mapping
from repro.usecases.workloads import random_pipeline_diagram, synthetic_compiled_model
from repro.utils.intervals import Interval
from repro.wcet.cache import CACHE_SCHEMA_VERSION, WcetAnalysisCache
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.ipet import ipet_wcet
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


@pytest.fixture(scope="module")
def case():
    return mapped_case()


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

    def test_cheapened_comm_delay_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        assert cert.edge_delays, "case must have at least one cross-core edge"
        key = next(k for k, v in cert.edge_delays.items() if v > 0)
        cert.edge_delays[key] = 0.0
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.schedule.comm-latency-mismatch" in codes(report)

    def test_dropped_task_rejected(self, case, schedule):
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        victim = next(iter(cert.mapping))
        del cert.mapping[victim]
        report = check_schedule_certificate(cert, htg, platform)
        assert "certify.schedule.mapping-coverage" in codes(report)

    def test_delay_on_a_same_core_edge_rejected(self, case, schedule):
        """A delay claimed where the platform prices no transfer."""
        _, htg, platform, _, _ = case
        cert = build_schedule_certificate(schedule, htg, platform)
        edge = next(
            e for e in htg.edges
            if e.src in cert.mapping and cert.mapping.get(e.dst) == cert.mapping[e.src]
        )
        cert.edge_delays[(edge.src, edge.dst)] = 0.0
        report = check_schedule_certificate(cert, htg, platform)
        assert codes(report) == {"certify.schedule.comm-latency-mismatch"}

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

    def test_forgotten_loop_bound_rejected(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        assert cert.loop_bounds, "case must contain loops"
        header = next(iter(cert.loop_bounds))
        del cert.loop_bounds[header]
        report = check_ipet_certificate(cert, function=function)
        assert "certify.ipet.unbounded-loop" in codes(report)

    def test_edge_set_mismatch_short_circuits(self, ipet):
        function, result = ipet
        cert = build_ipet_certificate(result, function.name)
        cert.edge_counts[(9999, 9998, "jump")] = 1.0
        report = check_ipet_certificate(cert, function=function)
        assert codes(report) == {"certify.ipet.edge-set-mismatch"}


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


def _cheapened_penalty_row(cert):
    next(iter(cert.penalty.values()))[1] -= 1.0


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
    ("certify.fixed-point.penalty-mismatch", _cheapened_penalty_row),
    ("certify.fixed-point.allowed-unknown", _skeleton_naming_a_non_sharer),
    ("certify.fixed-point.penalty-coverage", _unknown_core),
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
