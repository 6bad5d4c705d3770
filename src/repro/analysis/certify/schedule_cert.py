"""Schedule certificates: one witness of the analysed timeline + its checker.

The system-level analysis (:func:`repro.wcet.system_level.system_level_wcet`)
turns a mapping and per-core orders into a timeline and iterates the
interference equations over it to a fixed point (or to the all-contend
fall-back); that timeline's makespan is the reported WCET bound.  One
certificate witnesses the whole claim.

The producer side (:func:`build_schedule_certificate`) snapshots an
analysed :class:`~repro.scheduling.schedule.Schedule`: the mapping and the
analysis's own task -> core map, the per-core orders, every task's window,
effective WCET and contender count, the isolated (base) WCETs and
shared-access counts the equations start from, the static-MHP skeleton of
a pruned run, the ``converged`` flag and the bound.  It holds the
analysis's claims only: the prices those claims rest on (the shared-access
penalty and the cross-core transfer delays) are the platform's, and the
checker asks the platform for them itself.

The checker side (:func:`check_schedule_certificate`) re-validates those
claims **against the HTG and platform directly**, sharing no code with the
producer (:class:`~repro.wcet.system_level.SystemDesign`, its timeline
builder, the MHP kernels) or with :meth:`Schedule.validate`.  It makes
three passes:

1. structure: the mapping, orders and per-task state cover exactly the
   HTG's leaf tasks; the analysis placed every task where the mapping
   says; every window is as long as its effective WCET, which never dips
   below its base (interference only adds); the bound is exactly the
   maximum finish time;
2. the HTG edges and core orders: no task starts before its core
   predecessor finishes or a dependence delivers, each cross-core
   dependence after the delay ``platform.communication_latency`` prices
   for it (each distinct payload and core pair asked once; a dependence
   from or to a core the platform lacks, already refuted by pass 1, is
   not priced); slack is sound for an upper bound, starting early is not;
3. the interference equations, applied once: contenders are re-derived
   from the claimed windows (strict half-open overlap, distinct other
   cores, restricted to the skeleton when there is one) and
   ``base + shared x penalty(contenders)``, with
   ``platform.shared_access_penalty`` asked once per distinct contender
   count, must not exceed the claimed effective WCET; for a ``converged``
   result it must equal it.  A state is a sound post-fixed-point iff one
   application raises no component, so this is far cheaper than
   re-running the iteration.  The claimed contender counts must equal the
   re-derived ones for a ``converged`` result, and be at least as large
   for the all-contend fall-back.

What this checker does *not* prove: the base WCETs and shared-access
counts themselves (the code-level analysis' ground truth, carried
verbatim), that the fixed point is the *least* one (any sound
post-fixed-point upper-bounds it), that the claimed times are tight (a
timeline padded with slack passes), that a fall-back's contender counts
are tight (more is sound) and that the static-MHP skeleton is justified
(the contention certificate's job).
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
    """Comparison slack scaled to the magnitudes involved.

    The checks below compare exactly first and ask for the slack only when
    the exact comparison already fails, so an honest certificate rarely
    pays for this call.
    """
    bound = 1.0
    for v in values:
        if v < 0.0:
            v = -v
        if v > bound:
            bound = v
    return REL_EPS * bound


def _pricer(platform):
    """Worst-case delay of one transfer, asked of the platform once per
    distinct (payload, source core, destination core)."""
    return cache(
        partial(platform.communication_latency, contenders=max(0, platform.num_cores - 1))
    )


@dataclass
class ScheduleCertificate:
    """Serializable witness of one analysed schedule and its fixed point."""

    htg_name: str
    scheduler: str
    wcet_bound: float
    converged: bool
    mapping: dict[str, int]
    #: the task -> core map the analysis itself reports; the contention
    #: certificate reads it, so it must equal ``mapping``
    task_cores: dict[str, int]
    order: dict[int, list[str]]
    starts: dict[str, float]
    finishes: dict[str, float]
    effective: dict[str, float]
    contenders: dict[str, int]
    base: dict[str, float]
    shared: dict[str, int]
    #: static-MHP contender skeleton of the claimed result (``None`` for
    #: unpruned results).  The checker restricts its fresh MHP derivation to
    #: the listed sharers per task; a task *missing* from the skeleton is
    #: derived unrestricted, which can only refute, never falsely accept.
    #: Whether the skeleton itself is justified is the contention
    #: certificate's job (:mod:`~repro.analysis.certify.contention_cert`).
    allowed: dict[str, list[str]] | None = None

    def as_dict(self) -> dict:
        extra = (
            {"allowed": {tid: list(o) for tid, o in sorted(self.allowed.items())}}
            if self.allowed is not None
            else {}
        )
        return {
            "kind": "schedule",
            "htg": self.htg_name,
            "scheduler": self.scheduler,
            "wcet_bound": self.wcet_bound,
            "converged": self.converged,
            "mapping": dict(self.mapping),
            "task_cores": dict(self.task_cores),
            "order": {str(core): list(tids) for core, tids in self.order.items()},
            "starts": dict(self.starts),
            "finishes": dict(self.finishes),
            "effective": dict(self.effective),
            "contenders": dict(self.contenders),
            "base": dict(self.base),
            "shared": dict(self.shared),
            **extra,
        }


def build_schedule_certificate(schedule, htg, platform) -> ScheduleCertificate:
    """Snapshot an analysed schedule's claims into a certificate.

    Results built by hand (tests) may lack the base-WCET witness; those
    degrade to ``base == effective, shared == 0``, which the checker treats
    as "no interference claimed" rather than rejecting.
    """
    result = schedule.result
    if result is None:
        raise ValueError("cannot certify an unanalysed schedule (no timing result)")
    mapping = dict(schedule.mapping)
    effective = dict(result.task_effective_wcet)
    return ScheduleCertificate(
        htg_name=schedule.htg_name,
        scheduler=schedule.scheduler,
        wcet_bound=result.makespan,
        converged=result.converged,
        mapping=mapping,
        task_cores=dict(result.task_cores),
        order={core: list(tids) for core, tids in schedule.order.items()},
        starts={tid: iv.start for tid, iv in result.task_intervals.items()},
        finishes={tid: iv.end for tid, iv in result.task_intervals.items()},
        effective=effective,
        contenders=dict(result.task_contenders),
        base={tid: result.task_base_wcet.get(tid, eff) for tid, eff in effective.items()},
        shared={tid: result.task_shared_accesses.get(tid, 0) for tid in effective},
        allowed=(
            {tid: list(others) for tid, others in result.mhp_allowed.items()}
            if result.mhp_allowed is not None
            else None
        ),
    )


def check_schedule_certificate(
    certificate: ScheduleCertificate, htg, platform
) -> AnalysisReport:
    """Independently re-validate a schedule certificate against HTG + platform."""
    report = AnalysisReport("certify_schedule")
    cert = certificate
    name = cert.htg_name
    mapping = cert.mapping
    starts, finishes = cert.starts, cert.finishes
    effective, base, shared = cert.effective, cert.base, cert.shared

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code, message=message, function=name, subject=subject,
                severity=severity,
            )
        )

    # -- 1. structure ---------------------------------------------------- #
    leaf_ids = {t.task_id for t in htg.leaf_tasks()}
    if mapping.keys() != leaf_ids:
        fail(
            "certify.schedule.mapping-coverage",
            f"mapping covers {len(mapping)} tasks, HTG has {len(leaf_ids)}",
        )
    if cert.task_cores != mapping:
        for tid in sorted(mapping.keys() | cert.task_cores.keys()):
            if cert.task_cores.get(tid) != mapping.get(tid):
                fail(
                    "certify.schedule.mapping-mismatch",
                    f"the analysis placed the task on core "
                    f"{cert.task_cores.get(tid)}, the mapping on {mapping.get(tid)}",
                    subject=tid,
                )
    valid_cores = {c.core_id for c in platform.cores}
    for tid in sorted(tid for tid, core in mapping.items() if core not in valid_cores):
        fail(
            "certify.schedule.unknown-core",
            f"task mapped to core {mapping[tid]}, which the platform does not have",
            subject=tid,
        )
    ordered = [tid for tids in cert.order.values() for tid in tids]
    if len(ordered) != len(mapping) or mapping.keys() != set(ordered):
        fail(
            "certify.schedule.order-coverage",
            "core orders do not cover exactly the mapped tasks",
        )
    for core, tids in sorted(cert.order.items()):
        for tid in tids:
            if mapping.get(tid) != core:
                fail(
                    "certify.schedule.order-core-mismatch",
                    f"task ordered on core {core} but mapped to {mapping.get(tid)}",
                    subject=tid,
                )
    missing = sorted(
        tid for tid in mapping
        if tid not in starts or tid not in finishes
        or tid not in effective or tid not in base
    )
    if missing:
        fail(
            "certify.schedule.missing-interval",
            f"no claimed window or WCET state for task(s) {', '.join(missing)}",
        )
        return report  # the checks below would KeyError
    for tid in sorted(starts.keys() - mapping.keys()):
        fail(
            "certify.schedule.stray-interval",
            "claimed interval for a task absent from the mapping",
            subject=tid,
            severity="warning",
        )
    for tid in mapping:
        start, finish, eff = starts[tid], finishes[tid], effective[tid]
        if finish < start and finish < start - _tol(start):
            fail(
                "certify.schedule.negative-duration",
                f"finish {finish} precedes start {start}",
                subject=tid,
            )
        length = finish - start
        if length != eff and abs(length - eff) > _tol(length, eff):
            fail(
                "certify.fixed-point.interval-length",
                f"window length {length} differs from the claimed effective "
                f"WCET {eff}",
                subject=tid,
            )
        if eff < base[tid] and eff < base[tid] - _tol(base[tid]):
            fail(
                "certify.fixed-point.effective-below-base",
                f"effective WCET {eff} is below the isolated WCET {base[tid]}: "
                "interference can only add time",
                subject=tid,
            )
    report.bump("tasks_checked", len(mapping))
    max_finish = max(finishes.values(), default=0.0)
    bound = cert.wcet_bound
    if bound != max_finish and abs(bound - max_finish) > _tol(bound, max_finish):
        fail(
            "certify.schedule.bound-mismatch",
            f"claimed wcet_bound {bound} is not the maximum claimed "
            f"finish time {max_finish}",
        )

    # -- 2. core orders and HTG edges, latencies priced ------------------ #
    pairs = 0
    for core, tids in sorted(cert.order.items()):
        for prev, nxt in zip(tids, tids[1:]):
            if prev not in finishes or nxt not in starts:
                continue  # already reported as order-coverage
            start, finish = starts[nxt], finishes[prev]
            if start < finish and start < finish - _tol(finish):
                fail(
                    "certify.schedule.core-overlap",
                    f"core {core}: {nxt!r} starts at {start} before "
                    f"{prev!r} finishes at {finish}",
                    subject=f"{prev}<->{nxt}",
                )
            pairs += 1
    report.bump("core_pairs_checked", pairs)

    price = _pricer(platform)
    edges = 0
    for edge in htg.edges:
        src, dst = edge.src, edge.dst
        src_core = mapping.get(src)
        dst_core = mapping.get(dst)
        if src_core not in valid_cores or dst_core not in valid_cores:
            continue  # unmapped, or on a core reported as unknown (a mesh cannot price it)
        delay = 0.0
        if src_core != dst_core and edge.payload_bytes:
            delay = price(edge.payload_bytes, src_core, dst_core)
        ready = finishes[src] + delay
        if starts[dst] < ready and starts[dst] < ready - _tol(ready):
            fail(
                "certify.schedule.precedence-violated",
                f"{dst!r} starts at {starts[dst]} before its dependency "
                f"{src!r} delivers at {ready}",
                subject=f"{src}->{dst}",
            )
        edges += 1
    report.bump("edges_checked", edges)

    # -- 3. one fresh application of the interference equations ---------- #
    # per-sharer windows keyed by id so a claimed static-MHP skeleton can
    # restrict the derivation per task
    sharer_windows = {
        tid: (mapping[tid], starts[tid], finishes[tid])
        for tid in mapping if shared.get(tid, 0) > 0
    }
    allowed = cert.allowed
    if allowed is not None:
        unknown = sorted(
            {o for others in allowed.values() for o in others} - sharer_windows.keys()
        )
        if unknown:
            fail(
                "certify.fixed-point.allowed-unknown",
                "static-MHP skeleton names non-sharer task(s) "
                f"{', '.join(unknown)}; they cannot contend and are ignored",
                severity="warning",
            )
    all_windows = list(sharer_windows.values())
    penalty = cache(platform.shared_access_penalty)
    equations = 0
    for tid, own_core in mapping.items():
        own_start, own_finish = starts[tid], finishes[tid]
        if allowed is not None and tid in allowed:
            candidates = [
                sharer_windows[o] for o in allowed[tid] if o in sharer_windows
            ]
        else:
            candidates = all_windows  # no skeleton entry: unrestricted
        contending_cores = set()
        for core, start, finish in candidates:
            if core != own_core and own_start < finish and start < own_finish:
                contending_cores.add(core)
        contenders = len(contending_cores)
        # the all-contend fall-back may claim more contenders, never fewer
        claimed = cert.contenders.get(tid)
        if claimed is None or claimed < contenders or (
            cert.converged and claimed != contenders
        ):
            fail(
                "certify.fixed-point.contenders-mismatch",
                f"claims {claimed} contending cores; the claimed windows give "
                f"{contenders}",
                subject=tid,
            )
        eff = effective[tid]
        reapplied = base[tid] + shared.get(tid, 0) * penalty(contenders)
        if reapplied > eff and reapplied > eff + _tol(reapplied, eff):
            fail(
                "certify.fixed-point.not-post-fixed-point",
                f"re-applying the interference equations raises the effective "
                f"WCET to {reapplied}, above the claimed {eff}: the claimed "
                "state is not a sound fixed point",
                subject=tid,
            )
        elif cert.converged and reapplied != eff and (
            abs(reapplied - eff) > _tol(reapplied, eff)
        ):
            fail(
                "certify.fixed-point.effective-mismatch",
                f"result claims convergence but re-applying the equations "
                f"yields {reapplied}, not the claimed {eff}",
                subject=tid,
            )
        equations += 1
    report.bump("equations_checked", equations)
    return report
