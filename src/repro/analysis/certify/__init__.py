"""Proof-carrying results: certificates + independent checkers.

Every expensive claim of the flow -- a schedule's WCET bound with the
interference fixed point behind it, a static-MHP pruning, an IPET LP
optimum -- is paired with a small serializable **certificate** holding
enough witness data for a cheap **independent checker** to re-validate it.
Producer and checker deliberately share no code: the schedule checker
works off the HTG and platform directly (not :meth:`Schedule.validate` or
the system-level analysis), re-prices every cross-core delay, and
re-applies the interference equations once, rejecting any state they can
still increase; the contention checker re-proves every pruned pair; the
IPET checker rebuilds the CFG and re-verifies feasibility *and*
optimality from the LP witness of the structured solve (flow
conservation, loop bounds, objective, duality).

The trust argument: a bug in a producer must now be *matched* by a
compensating bug in its checker to slip through, and the pipeline's
``certify`` stage checks a result the cache's result tier replayed exactly
like a freshly computed one, so corrupt, stale or hand-edited cache entries
are detected instead of silently trusted.

Entry points: :func:`certify_pipeline_result` for a finished
:class:`~repro.core.pipeline.PipelineResult` (this is what the pipeline's
``certify`` stage and ``python -m repro certify`` call) and
:func:`build_certificates` for a bare design point.  Rejections carry
typed :class:`~repro.analysis.report.Finding` objects under the
``certify.*`` code namespace; :class:`CertificationError` is raised where
a refuted result must stop the flow.
"""

from repro.analysis.certify.chain import (
    CertificateChain,
    CertificationError,
    build_certificates,
    certify_pipeline_result,
)
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

__all__ = [
    "CertificateChain",
    "CertificationError",
    "ContentionCertificate",
    "IpetCertificate",
    "ScheduleCertificate",
    "build_certificates",
    "build_contention_certificate",
    "build_ipet_certificate",
    "build_schedule_certificate",
    "certify_pipeline_result",
    "check_contention_certificate",
    "check_ipet_certificate",
    "check_schedule_certificate",
]
