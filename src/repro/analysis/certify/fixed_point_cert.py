"""Fixed-point certificates: interference-equation witness + checker.

:func:`repro.wcet.system_level.system_level_wcet` iterates the interference
equations to a fixed point (or to the all-contend fall-back).  Re-running
the iteration would duplicate the producer; re-*checking* a fixed point is
much cheaper and independent: a state is a valid post-fixed-point iff
applying the equations **once** does not increase any component.

:func:`build_fixed_point_certificate` snapshots the claimed state -- per
task the start/finish window, effective WCET, contender count, isolated
(base) WCET and shared-access count, plus the platform's interference
penalty table and the priced cross-core edge delays.
:func:`check_fixed_point_certificate` then re-validates, sharing none of
the producer's loop:

* every window's length equals the claimed effective WCET, and no
  effective WCET dips below its base (interference only adds);
* contenders are re-derived from the claimed windows by a fresh MHP pass
  (strict half-open overlap, distinct other cores), and the re-applied
  equation ``base + shared x penalty(contenders)`` must not exceed the
  claimed effective WCET; for a ``converged`` result it must *equal* it;
* every start time is late enough for its core predecessor and all HTG
  dependences (slack is sound for an upper bound, starting early is not);
* the makespan is at least the maximum claimed finish time; and
* when the live platform is at hand, the penalty table and the cross-core
  delays are re-priced and compared.

What this checker does *not* prove: the base WCETs and shared-access
counts themselves (the code-level analysis' ground truth, carried
verbatim) and that the fixed point is the *least* one -- any sound
post-fixed-point upper-bounds the least fixed point, which is all an upper
WCET bound needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

from repro.analysis.report import AnalysisReport, Finding

#: Same exact-arithmetic tolerance story as the schedule checker.
REL_EPS = 1e-9


def _tol(*values: float) -> float:
    bound = 1.0
    for v in values:
        if v < 0.0:
            v = -v
        if v > bound:
            bound = v
    return REL_EPS * bound


@dataclass
class FixedPointCertificate:
    """Serializable witness of one system-level fixed-point state."""

    htg_name: str
    makespan: float
    converged: bool
    num_cores: int
    mapping: dict[str, int]
    order: dict[int, list[str]]
    starts: dict[str, float]
    finishes: dict[str, float]
    effective: dict[str, float]
    contenders: dict[str, int]
    base: dict[str, float]
    shared: dict[str, int]
    #: per-core interference penalty table, indexed by contender count
    penalty: dict[int, list[float]] = field(default_factory=dict)
    #: priced worst-case delay of every cross-core HTG edge
    edge_delays: dict[tuple[str, str], float] = field(default_factory=dict)
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
            "kind": "fixed_point",
            "htg": self.htg_name,
            "makespan": self.makespan,
            "converged": self.converged,
            "num_cores": self.num_cores,
            "mapping": dict(self.mapping),
            "order": {str(core): list(tids) for core, tids in self.order.items()},
            "starts": dict(self.starts),
            "finishes": dict(self.finishes),
            "effective": dict(self.effective),
            "contenders": dict(self.contenders),
            "base": dict(self.base),
            "shared": dict(self.shared),
            "penalty": {str(core): list(row) for core, row in self.penalty.items()},
            "edge_delays": {
                f"{src}->{dst}": delay
                for (src, dst), delay in sorted(self.edge_delays.items())
            },
            **extra,
        }


def build_fixed_point_certificate(
    result, order: dict[int, list[str]], platform, htg
) -> FixedPointCertificate:
    """Snapshot a :class:`~repro.wcet.system_level.SystemWcetResult`.

    Results built by hand (old caches, tests) may lack the base-WCET
    witness; those degrade to ``base == effective, shared == 0``, which the
    checker treats as "no interference claimed" rather than rejecting.
    """
    from repro.wcet.hardware_model import HardwareCostModel

    mapping = dict(result.task_cores)
    base = {
        tid: result.task_base_wcet.get(tid, result.task_effective_wcet[tid])
        for tid in mapping
    }
    shared = {tid: result.task_shared_accesses.get(tid, 0) for tid in mapping}
    num_cores = platform.num_cores
    penalty = {
        core.core_id: [
            HardwareCostModel(platform, core.core_id).shared_access_penalty(k)
            for k in range(num_cores)
        ]
        for core in platform.cores
    }
    contenders = max(0, num_cores - 1)
    delays: dict[tuple[str, str], float] = {}
    for edge in htg.edges:
        src_core = mapping.get(edge.src)
        dst_core = mapping.get(edge.dst)
        if src_core is None or dst_core is None or src_core == dst_core:
            continue
        delays[(edge.src, edge.dst)] = (
            0.0
            if edge.payload_bytes == 0
            else platform.communication_latency(
                edge.payload_bytes, src_core, dst_core, contenders
            )
        )
    return FixedPointCertificate(
        htg_name=htg.name,
        makespan=result.makespan,
        converged=result.converged,
        num_cores=num_cores,
        mapping=mapping,
        order={core: list(tids) for core, tids in order.items()},
        starts={tid: iv.start for tid, iv in result.task_intervals.items()},
        finishes={tid: iv.end for tid, iv in result.task_intervals.items()},
        effective=dict(result.task_effective_wcet),
        contenders=dict(result.task_contenders),
        base=base,
        shared=shared,
        penalty=penalty,
        edge_delays=delays,
        allowed=(
            {tid: list(others) for tid, others in result.mhp_allowed.items()}
            if getattr(result, "mhp_allowed", None) is not None
            else None
        ),
    )


def check_fixed_point_certificate(
    certificate: FixedPointCertificate, htg, platform=None
) -> AnalysisReport:
    """Re-validate a fixed-point certificate in one pass.

    ``platform`` is optional: without it the penalty table and edge delays
    carried by the certificate are trusted (offline replay); with it both
    are re-priced from the live model first.
    """
    report = AnalysisReport("certify_fixed_point")
    cert = certificate
    name = cert.htg_name

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code, message=message, function=name, subject=subject,
                severity=severity,
            )
        )

    tids = sorted(cert.mapping)
    missing = [
        tid for tid in tids
        if tid not in cert.starts
        or tid not in cert.finishes
        or tid not in cert.effective
        or tid not in cert.base
    ]
    if missing:
        fail(
            "certify.fixed-point.coverage",
            f"certificate lacks timing/WCET state for task(s) {', '.join(missing)}",
        )
        return report

    # -- live re-pricing when the platform is at hand -------------------- #
    penalty = cert.penalty
    edge_delays = cert.edge_delays
    if platform is not None:
        from repro.wcet.hardware_model import HardwareCostModel

        num_cores = platform.num_cores
        live_penalty = {
            core.core_id: [
                HardwareCostModel(platform, core.core_id).shared_access_penalty(k)
                for k in range(num_cores)
            ]
            for core in platform.cores
        }
        for core in sorted(cert.penalty):
            claimed_row = cert.penalty[core]
            live_row = live_penalty.get(core)
            if live_row is None or any(
                abs(a - b) > _tol(a, b) for a, b in zip(claimed_row, live_row)
            ) or len(claimed_row) != len(live_row):
                fail(
                    "certify.fixed-point.penalty-mismatch",
                    "claimed interference penalty table differs from the "
                    "platform's",
                    subject=f"core {core}",
                )
        penalty = live_penalty
        # each (payload, core pair) is asked of the platform once per check
        price = cache(partial(platform.communication_latency, contenders=num_cores - 1))
        live_delays: dict[tuple[str, str], float] = {}
        for edge in htg.edges:
            src_core = cert.mapping.get(edge.src)
            dst_core = cert.mapping.get(edge.dst)
            if src_core is None or dst_core is None or src_core == dst_core:
                continue
            live_delays[(edge.src, edge.dst)] = (
                0.0 if edge.payload_bytes == 0 else price(edge.payload_bytes, src_core, dst_core)
            )
        for key in sorted(set(cert.edge_delays) | set(live_delays)):
            claimed = cert.edge_delays.get(key)
            live = live_delays.get(key)
            if claimed is None or live is None or abs(claimed - live) > _tol(claimed, live):
                fail(
                    "certify.fixed-point.comm-delay-mismatch",
                    f"claimed cross-core delay {claimed} differs from the "
                    f"platform's worst-case latency {live}",
                    subject=f"{key[0]}->{key[1]}",
                )
        edge_delays = live_delays

    # -- window arithmetic ---------------------------------------------- #
    for tid in tids:
        length = cert.finishes[tid] - cert.starts[tid]
        if abs(length - cert.effective[tid]) > _tol(length, cert.effective[tid]):
            fail(
                "certify.fixed-point.interval-length",
                f"window length {length} differs from the claimed effective "
                f"WCET {cert.effective[tid]}",
                subject=tid,
            )
        if cert.effective[tid] < cert.base[tid] - _tol(cert.base[tid]):
            fail(
                "certify.fixed-point.effective-below-base",
                f"effective WCET {cert.effective[tid]} is below the isolated "
                f"WCET {cert.base[tid]}: interference can only add time",
                subject=tid,
            )
    report.bump("tasks_checked", len(tids))

    # -- one fresh application of the interference equations ------------- #
    # per-sharer windows keyed by id so a claimed static-MHP skeleton can
    # restrict the derivation per task; distinct-core counting is identical
    # to the old grouped-by-core scan
    sharer_windows: dict[str, tuple[int, float, float]] = {}
    for tid in tids:
        if cert.shared.get(tid, 0) > 0:
            sharer_windows[tid] = (
                cert.mapping[tid], cert.starts[tid], cert.finishes[tid]
            )
    if cert.allowed is not None:
        unknown = sorted(
            {o for others in cert.allowed.values() for o in others}
            - set(sharer_windows)
        )
        if unknown:
            fail(
                "certify.fixed-point.allowed-unknown",
                "static-MHP skeleton names non-sharer task(s) "
                f"{', '.join(unknown)}; they cannot contend and are ignored",
                severity="warning",
            )
    all_windows = list(sharer_windows.values())
    for tid in tids:
        own_core = cert.mapping[tid]
        own_start = cert.starts[tid]
        own_finish = cert.finishes[tid]
        if cert.allowed is not None and tid in cert.allowed:
            candidates = [
                sharer_windows[o]
                for o in cert.allowed[tid]
                if o in sharer_windows
            ]
        else:
            # no skeleton entry: derive unrestricted (refutation-safe)
            candidates = all_windows
        contending_cores = set()
        for core, start, finish in candidates:
            if core == own_core:
                continue
            if own_start < finish and start < own_finish:
                contending_cores.add(core)
        derived_contenders = len(contending_cores)
        row = penalty.get(cert.mapping[tid])
        if row is None or derived_contenders >= len(row):
            fail(
                "certify.fixed-point.penalty-coverage",
                f"no penalty entry for {derived_contenders} contenders on "
                f"core {cert.mapping[tid]}",
                subject=tid,
            )
            continue
        reapplied = cert.base[tid] + cert.shared.get(tid, 0) * row[derived_contenders]
        if reapplied > cert.effective[tid] + _tol(reapplied, cert.effective[tid]):
            fail(
                "certify.fixed-point.not-post-fixed-point",
                f"re-applying the interference equations raises the effective "
                f"WCET to {reapplied}, above the claimed {cert.effective[tid]}: "
                "the claimed state is not a sound fixed point",
                subject=tid,
            )
        elif cert.converged and abs(reapplied - cert.effective[tid]) > _tol(
            reapplied, cert.effective[tid]
        ):
            fail(
                "certify.fixed-point.effective-mismatch",
                f"result claims convergence but re-applying the equations "
                f"yields {reapplied}, not the claimed {cert.effective[tid]}",
                subject=tid,
            )
        report.bump("equations_checked")

    # -- start times respect core order and dependences ------------------ #
    core_prev: dict[str, str] = {}
    for tids_on_core in cert.order.values():
        for prev, nxt in zip(tids_on_core, tids_on_core[1:]):
            core_prev[nxt] = prev
    for tid in tids:
        ready = 0.0
        prev = core_prev.get(tid)
        if prev is not None and prev in cert.finishes:
            ready = cert.finishes[prev]
        for pred in htg.predecessors(tid):
            if pred not in cert.mapping or pred not in cert.finishes:
                continue
            delay = (
                0.0
                if cert.mapping[pred] == cert.mapping[tid]
                else edge_delays.get((pred, tid), 0.0)
            )
            ready = max(ready, cert.finishes[pred] + delay)
        if cert.starts[tid] < ready - _tol(ready):
            fail(
                "certify.fixed-point.start-inconsistent",
                f"claimed start {cert.starts[tid]} precedes the earliest "
                f"sound start {ready}",
                subject=tid,
            )

    # -- makespan -------------------------------------------------------- #
    max_finish = max(cert.finishes.values(), default=0.0)
    if max_finish > cert.makespan + _tol(max_finish, cert.makespan):
        fail(
            "certify.fixed-point.makespan-understated",
            f"claimed makespan {cert.makespan} is below the maximum claimed "
            f"finish time {max_finish}",
        )
    elif cert.makespan > max_finish + _tol(max_finish, cert.makespan):
        fail(
            "certify.fixed-point.makespan-overstated",
            f"claimed makespan {cert.makespan} exceeds the maximum finish "
            f"time {max_finish} (sound but loose)",
            severity="warning",
        )
    return report
