"""Schedule certificates: witness + independent checker.

The producer side (:func:`build_schedule_certificate`) snapshots everything
an analysed :class:`~repro.scheduling.schedule.Schedule` claims -- the
mapping, the per-core orders, every task's start/finish time, the priced
cross-core communication delays and the reported WCET bound -- into a small
serializable :class:`ScheduleCertificate`.

The checker side (:func:`check_schedule_certificate`) re-validates those
claims **against the HTG and platform directly**, deliberately sharing no
code with :meth:`Schedule.validate` or the system-level timeline builder:
communication latencies are re-priced straight from
``platform.communication_latency``, precedence and per-core exclusivity are
checked by plain comparisons over the claimed times, and the bound is
re-derived as the maximum finish time.  One pass, linear in tasks + edges.

What this checker does *not* prove: that the per-task durations themselves
are correct (that is the fixed-point certificate's job, and the code-level
costs below it are the cost model's ground truth) and that the claimed
times are *tight* -- a schedule padded with slack passes, because slack is
sound for an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from repro.analysis.report import AnalysisReport, Finding

#: Relative tolerance absorbing producer/checker float-summation order
#: differences.  Real tampering moves numbers by whole cycles; the checkers
#: must never reject a bound over the last ulp of a different add order.
REL_EPS = 1e-9


def _tol(*values: float) -> float:
    """Comparison slack scaled to the magnitudes involved."""
    # plain loop, no genexpr: this runs a handful of times per task/edge
    bound = 1.0
    for v in values:
        if v < 0.0:
            v = -v
        if v > bound:
            bound = v
    return REL_EPS * bound


@dataclass
class ScheduleCertificate:
    """Serializable witness of one analysed schedule."""

    htg_name: str
    scheduler: str
    wcet_bound: float
    mapping: dict[str, int]
    order: dict[int, list[str]]
    starts: dict[str, float]
    finishes: dict[str, float]
    #: priced worst-case delay of every *cross-core* HTG edge, keyed
    #: ``(src task, dst task)``; same-core edges are delay-free by contract
    edge_delays: dict[tuple[str, str], float]

    def as_dict(self) -> dict:
        return {
            "kind": "schedule",
            "htg": self.htg_name,
            "scheduler": self.scheduler,
            "wcet_bound": self.wcet_bound,
            "mapping": dict(self.mapping),
            "order": {str(core): list(tids) for core, tids in self.order.items()},
            "starts": dict(self.starts),
            "finishes": dict(self.finishes),
            "edge_delays": {
                f"{src}->{dst}": delay
                for (src, dst), delay in sorted(self.edge_delays.items())
            },
        }


def build_schedule_certificate(schedule, htg, platform) -> ScheduleCertificate:
    """Snapshot an analysed schedule's claims into a certificate."""
    result = schedule.result
    if result is None:
        raise ValueError("cannot certify an unanalysed schedule (no timing result)")
    contenders = max(0, platform.num_cores - 1)
    delays: dict[tuple[str, str], float] = {}
    for edge in htg.edges:
        src_core = schedule.mapping.get(edge.src)
        dst_core = schedule.mapping.get(edge.dst)
        if src_core is None or dst_core is None or src_core == dst_core:
            continue
        delays[(edge.src, edge.dst)] = (
            0.0
            if edge.payload_bytes == 0
            else platform.communication_latency(
                edge.payload_bytes, src_core, dst_core, contenders
            )
        )
    return ScheduleCertificate(
        htg_name=schedule.htg_name,
        scheduler=schedule.scheduler,
        wcet_bound=result.makespan,
        mapping=dict(schedule.mapping),
        order={core: list(tids) for core, tids in schedule.order.items()},
        starts={tid: iv.start for tid, iv in result.task_intervals.items()},
        finishes={tid: iv.end for tid, iv in result.task_intervals.items()},
        edge_delays=delays,
    )


def check_schedule_certificate(
    certificate: ScheduleCertificate, htg, platform
) -> AnalysisReport:
    """Independently re-validate a schedule certificate against HTG + platform."""
    report = AnalysisReport("certify_schedule")
    cert = certificate
    name = cert.htg_name

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code, message=message, function=name, subject=subject,
                severity=severity,
            )
        )

    # -- structural coverage ------------------------------------------- #
    leaf_ids = {t.task_id for t in htg.leaf_tasks()}
    if set(cert.mapping) != leaf_ids:
        fail(
            "certify.schedule.mapping-coverage",
            f"mapping covers {len(cert.mapping)} tasks, HTG has {len(leaf_ids)}",
        )
    valid_cores = {c.core_id for c in platform.cores}
    for tid, core in sorted(cert.mapping.items()):
        if core not in valid_cores:
            fail(
                "certify.schedule.unknown-core",
                f"task mapped to core {core}, which the platform does not have",
                subject=tid,
            )
    ordered = [tid for tids in cert.order.values() for tid in tids]
    if sorted(ordered) != sorted(cert.mapping):
        fail(
            "certify.schedule.order-coverage",
            "core orders do not cover exactly the mapped tasks",
        )
    for core, tids in sorted(cert.order.items()):
        for tid in tids:
            if cert.mapping.get(tid) != core:
                fail(
                    "certify.schedule.order-core-mismatch",
                    f"task ordered on core {core} but mapped to "
                    f"{cert.mapping.get(tid)}",
                    subject=tid,
                )
    missing = sorted(
        tid for tid in cert.mapping
        if tid not in cert.starts or tid not in cert.finishes
    )
    if missing:
        fail(
            "certify.schedule.missing-interval",
            f"no claimed start/finish time for task(s) {', '.join(missing)}",
        )
        return report  # the timing checks below would KeyError
    for tid in sorted(cert.starts):
        if tid not in cert.mapping:
            fail(
                "certify.schedule.stray-interval",
                "claimed interval for a task absent from the mapping",
                subject=tid,
                severity="warning",
            )
        elif cert.finishes[tid] < cert.starts[tid] - _tol(cert.starts[tid]):
            fail(
                "certify.schedule.negative-duration",
                f"finish {cert.finishes[tid]} precedes start {cert.starts[tid]}",
                subject=tid,
            )
    report.bump("tasks_checked", len(cert.mapping))

    # -- per-core exclusivity and order consistency --------------------- #
    for core, tids in sorted(cert.order.items()):
        for prev, nxt in zip(tids, tids[1:]):
            if prev not in cert.finishes or nxt not in cert.starts:
                continue  # already reported as missing-interval/stray
            if cert.starts[nxt] < cert.finishes[prev] - _tol(cert.finishes[prev]):
                fail(
                    "certify.schedule.core-overlap",
                    f"core {core}: {nxt!r} starts at {cert.starts[nxt]} before "
                    f"{prev!r} finishes at {cert.finishes[prev]}",
                    subject=f"{prev}<->{nxt}",
                )
            report.bump("core_pairs_checked")

    # -- precedence edges with independently re-priced latencies -------- #
    # (a latency depends only on the payload and the core pair, so each one
    # is asked of the platform once per check -- never of the analysis)
    price = cache(partial(platform.communication_latency, contenders=platform.num_cores - 1))
    for edge in htg.edges:
        src_core = cert.mapping.get(edge.src)
        dst_core = cert.mapping.get(edge.dst)
        if src_core is None or dst_core is None:
            continue
        if src_core == dst_core or edge.payload_bytes == 0:
            delay = 0.0
        else:
            delay = price(edge.payload_bytes, src_core, dst_core)
        if src_core != dst_core:
            claimed = cert.edge_delays.get((edge.src, edge.dst))
            if claimed is None or abs(claimed - delay) > _tol(claimed or 0.0, delay):
                fail(
                    "certify.schedule.comm-latency-mismatch",
                    f"claimed cross-core delay {claimed} differs from the "
                    f"platform's worst-case latency {delay}",
                    subject=f"{edge.src}->{edge.dst}",
                )
        ready = cert.finishes[edge.src] + delay
        if cert.starts[edge.dst] < ready - _tol(ready):
            fail(
                "certify.schedule.precedence-violated",
                f"{edge.dst!r} starts at {cert.starts[edge.dst]} before its "
                f"dependency {edge.src!r} delivers at {ready}",
                subject=f"{edge.src}->{edge.dst}",
            )
        report.bump("edges_checked")

    # -- the reported bound is exactly the maximum finish time ----------- #
    max_finish = max(cert.finishes.values(), default=0.0)
    if abs(cert.wcet_bound - max_finish) > _tol(cert.wcet_bound, max_finish):
        fail(
            "certify.schedule.bound-mismatch",
            f"claimed wcet_bound {cert.wcet_bound} is not the maximum claimed "
            f"finish time {max_finish}",
        )
    return report
