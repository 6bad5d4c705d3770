"""Certificate chains: one bundle of proof-carrying results per run.

:func:`build_certificates` turns one analysed design point (schedule +
entry function + HTG + platform) into a :class:`CertificateChain`: the
schedule certificate (the analysed timeline and its interference fixed
point), the contention certificate when the run pruned its contender
derivation, and the IPET certificate of the entry function (which also
checks the run's sequential bound), each already re-validated by its
independent checker, with one
:class:`~repro.analysis.report.AnalysisReport` per checker attached.
:func:`certify_pipeline_result` is the pipeline-facing entry point working
straight off a :class:`~repro.core.pipeline.PipelineResult`.

A chain is *accepted* when no checker reported an error
(:attr:`CertificateChain.ok`).  Rejections surface as typed findings --
callers decide whether to raise (:class:`CertificationError`), gate a CI
job, or just report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.analysis.certify.contention_cert import (
    ContentionCertificate,
    build_contention_certificate,
    check_contention_certificate,
)
from repro.analysis.certify.ipet_cert import (
    IpetCertificate,
    build_ipet_certificate,
    check_ipet_certificate,
)
from repro.analysis.certify.schedule_cert import (
    ScheduleCertificate,
    build_schedule_certificate,
    check_schedule_certificate,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.core.exceptions import ToolchainError


class CertificationError(ToolchainError):
    """A certificate checker refuted a claimed result.

    Carries the refuting :class:`~repro.analysis.report.AnalysisReport` (or
    ``None`` for structural failures) so callers can surface the individual
    findings.
    """

    def __init__(self, message: str, report: AnalysisReport | None = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class CertificateChain:
    """The certificates of one analysed design point, with their verdicts."""

    schedule: ScheduleCertificate
    ipet: IpetCertificate
    reports: list[AnalysisReport] = field(default_factory=list)
    #: Present only when the certified run pruned its contender derivation
    #: (``static_pruning``): the pruned skeleton needs its own justification.
    contention: ContentionCertificate | None = None

    @property
    def ok(self) -> bool:
        """True when every checker accepted (no error-severity finding)."""
        return all(not report.count("error") for report in self.reports)

    def findings(self) -> list[Finding]:
        """All findings of all checkers, flattened."""
        return [finding for report in self.reports for finding in report.findings]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "certificates": [
                self.schedule.as_dict(),
                self.ipet.as_dict(),
                *([self.contention.as_dict()] if self.contention is not None else []),
            ],
            "reports": [report.as_dict() for report in self.reports],
        }


def _record_checker(name: str, started: float, report: AnalysisReport) -> None:
    """Fold one checker's verdict and wall time into the metrics registry."""
    registry = obs.metrics()
    registry.histogram(f"certify.{name}.seconds").observe(
        time.perf_counter() - started
    )
    if not report.count("error"):
        registry.counter(f"certify.{name}.ok").inc()
    registry.counter(f"certify.{name}.findings").inc(len(report.findings))


def build_certificates(
    schedule, function, htg, platform, flow_facts=None, sequential_bound=None, cache=None
) -> CertificateChain:
    """Build and check the full certificate chain of one design point.

    ``flow_facts`` optionally feeds the IPET re-computation (pass the facts
    the producing run used, e.g. from
    :func:`repro.analysis.wcet_facts.derive_flow_facts`); by default the
    plain IPET LP is certified, by one structured solve of the IPET LP and
    its checker, both linear in the CFG.  Without flow facts and with a
    ``cache`` (a :class:`~repro.wcet.cache.WcetAnalysisCache`), the witness
    comes from the cache's IPET witness memo
    (:meth:`~repro.wcet.cache.WcetAnalysisCache.ipet_witness`), so a sweep
    solves each (function, cost signature) once; the checker still checks
    it on every call, against a CFG it rebuilds from ``function``, and the
    certificate holds copies of the witness's containers.
    ``sequential_bound`` is the sequential bound the run reports for
    ``function`` on the platform's first core; given, the IPET checker
    compares it with the LP optimum.
    """
    from repro.wcet.hardware_model import HardwareCostModel
    from repro.wcet.ipet import ipet_wcet

    obs_on = obs.obs_enabled()

    started = time.perf_counter() if obs_on else 0.0
    with obs.span("certify.schedule"):
        schedule_cert = build_schedule_certificate(schedule, htg, platform)
        schedule_report = check_schedule_certificate(schedule_cert, htg, platform)
    if obs_on:
        _record_checker("schedule", started, schedule_report)

    contention_cert = None
    reports = [schedule_report]
    if getattr(schedule.result, "mhp_allowed", None) is not None:
        started = time.perf_counter() if obs_on else 0.0
        with obs.span("certify.contention"):
            contention_cert = build_contention_certificate(
                schedule.result, htg, function
            )
            contention_report = check_contention_certificate(
                contention_cert, htg, function
            )
        if obs_on:
            _record_checker("contention", started, contention_report)
        reports.append(contention_report)

    started = time.perf_counter() if obs_on else 0.0
    with obs.span("certify.ipet", function=function.name):
        model = HardwareCostModel(platform, platform.cores[0].core_id)
        if flow_facts is None and cache is not None:
            ipet_result = cache.ipet_witness(function, model)
        else:
            ipet_result = ipet_wcet(function, model, flow_facts)
        ipet_cert = build_ipet_certificate(ipet_result, function.name, sequential_bound)
        ipet_report = check_ipet_certificate(ipet_cert, function=function)
    if obs_on:
        _record_checker("ipet", started, ipet_report)
    reports.append(ipet_report)

    return CertificateChain(
        schedule=schedule_cert,
        ipet=ipet_cert,
        reports=reports,
        contention=contention_cert,
    )


def certify_pipeline_result(
    result, platform=None, derive_facts: bool = False
) -> CertificateChain:
    """Certify one :class:`~repro.core.pipeline.PipelineResult`.

    ``platform`` defaults to the run's own platform artifact.  With
    ``derive_facts`` the value-range analysis re-derives flow facts for the
    IPET certificate (stronger, costlier); the default certifies the plain
    LP.  Either way the IPET checker also checks the run's reported
    ``sequential_bound``.
    """
    if platform is None:
        platform = result.artifacts.get("platform")
    if platform is None:
        raise CertificationError(
            "pipeline result carries no platform artifact; pass platform= explicitly"
        )
    function = result.model.entry
    flow_facts = None
    if derive_facts:
        from repro.analysis.wcet_facts import derive_flow_facts

        flow_facts, _ = derive_flow_facts(function)
    return build_certificates(
        result.schedule,
        function,
        result.htg,
        platform,
        flow_facts=flow_facts,
        sequential_bound=result.sequential_bound,
    )
