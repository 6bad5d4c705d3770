"""Static analyses over the IR, the CFG and scheduled task graphs.

This package is the always-on trust layer of the flow: it verifies the
inputs the WCET machinery takes on faith (loop bounds, branch feasibility),
proves schedules race-free before code generation, and lints the IR the
front-end and the transformation passes produce.  Everything reports
through the typed :class:`~repro.analysis.report.Finding` /
:class:`~repro.analysis.report.AnalysisReport` model consumed by
``python -m repro lint`` and the pipeline gates.

Analysis contract
=================

**Framework.**  :mod:`repro.analysis.dataflow` solves monotone dataflow
problems over :class:`repro.ir.cfg.ControlFlowGraph` with a FIFO worklist.
An analysis declares a direction, a boundary state, a bottom state, a
``join`` (least upper bound), a per-block ``transfer`` and an optional
per-edge ``edge_transfer``.  Facts in a :class:`DataflowResult` are keyed
by block id in *program order*: ``entry[bid]`` holds before the block,
``exit[bid]`` after, for both directions.

**Lattices and termination.**

* *Reaching definitions* (:mod:`~repro.analysis.reaching_defs`): maps
  variable names to frozensets of defining statement ids (sentinels:
  ``-1`` = defined before the function runs, ``-2`` = uninitialised
  local).  Join is per-variable union.  The lattice is finite (statements
  are finite), so the fixed point terminates without widening.
* *Liveness* (:mod:`~repro.analysis.liveness`): backward, frozensets of
  names, join is union; finite lattice, terminates.
* *Value ranges* (:mod:`~repro.analysis.value_range`): maps names to
  closed intervals with infinite endpoints; missing name = top, ``None``
  environment = unreachable (bottom).  Join is the interval hull (names
  missing from either side drop to top).  The lattice has infinite
  ascending chains, so termination comes from jump-to-infinity widening
  after ``widen_after`` re-entries of a block; the solver additionally
  caps per-block visits and flags ``converged=False`` if ever hit, and
  consumers must then discard the states (an unfinished iterate is *not*
  an over-approximation).

**Soundness caveats.**  Array contents are not tracked (element reads are
top, element writes update the whole array weakly); the domains are
non-relational; shared/state variables are top at function entry because
other cores and earlier activations may have written them; float
comparisons refine without the one-integer shrink applied to ``int``-typed
operands.  Within those limits every reported fact is an
over-approximation of the concrete semantics implemented by
:mod:`repro.ir.interpreter`.

**Memory footprints and static interference**
(:mod:`~repro.analysis.footprints`, :mod:`~repro.analysis.static_mhp`).
Per-task footprints bound which *elements* of the shared arrays a task may
touch: first-dimension index intervals evaluated in the loop-nest
environment, endpoint-truncated exactly like the interpreter truncates
indices, with anything unprovable (symbolic strides, reassigned indices,
declared-but-unwalked names) widening to the whole array.  Footprints
answer two different questions and the distinction is load-bearing:

* *conflict-freedom* (no write-write / write-read element overlap) is what
  the race checker needs -- read-read overlap is fine;
* *address-disjointness* (no overlap of any kind, reads included) is what
  interference pruning needs -- two readers of one bank still collide on
  the interconnect.

What footprints do **not** prove: per-element orderings within an
overlapping region, anything about scalars for address-disjointness (the
shared-access counters are array-only by construction), or multi-dim
disjointness beyond the first index.  The historical *assumption* that
sibling loop chunks of a split loop write disjoint slices is retired: the
race checker now *proves* chunk disjointness from footprints and degrades
to a ``race.chunk-overlap-unproven`` warning when it cannot -- never a
silent pass.  The static-MHP relation built on top
(:func:`~repro.analysis.static_mhp.compute_static_mhp`) excludes
dependence-ordered pairs (count-preserving, pure speedup) and
address-disjoint pairs (tightening, models banked arbitration; opt-in via
``static_pruning``), and every exclusion is re-provable by the independent
:class:`~repro.analysis.certify.ContentionCertificate` checker.

**Flow-fact format** (:class:`repro.wcet.ipet.FlowFacts`): infeasible
edges are stable CFG edge keys ``(src bid, dst bid, kind)`` pinned to
``x_e = 0`` in the IPET LP; derived loop bounds map loop-header block ids
to trip counts merged as ``min(declared, derived)``.  Facts only ever add
constraints to a maximisation problem, so the tightened bound is provably
no looser than the plain one.

**Race checking** (:mod:`~repro.analysis.races`): happens-before is the
transitive closure of HTG dependence edges plus per-core program order;
every cross-task conflict (write-write or read-write on a declaration in
``SHARED`` / ``INPUT`` / ``OUTPUT`` storage) must be ordered, else a
``race.*`` finding is produced before codegen.

**Pair sets as bitsets.**  Static MHP, the race check and the schedule
validators never enumerate task pairs.  Reachability is one
:class:`~repro.utils.graphs.Reachability` (a Python-int bitset of
descendants and of ancestors per task, exact on cyclic graphs too), the
HTG memoizes its own, and a per-task pair set is a mask expression over
it: cross-core sharers minus ordered tasks intersected with the address
overlaps of :func:`~repro.analysis.footprints.address_overlaps` (a
sort-and-sweep per array) for static MHP, unordered partners intersected
with per-name reader/writer masks for the race check.  Per-pair code runs
only on the pairs that can yield a finding or a kept contender, and the
counters are popcounts.  ``tests/test_pair_engine.py`` keeps the former
pairwise loops as oracles and requires bit-identical relations, counters
and finding order.

Incremental re-analysis contract
================================

:mod:`repro.analysis.incremental` records, per finished run, a small
**reuse summary** (the per-region code fingerprints).  Every stage of
``Pipeline.run_incremental`` runs; the front end reuses the regions of the
blocks its cache has lowered before (the cache's lowering memo, which every
run reads), and every other stage reuses the previous run only through
``context.prev`` and the memos on those regions.  The rules:

* **A handed-over region keeps its decomposition.**  HTG extraction reads
  each region's task decomposition from the cache's region memo, keyed by
  granularity and loop-chunk count, so it decomposes only the regions the
  cache has not decomposed at the run's knobs.  Extraction reads no
  platform, so a platform change, fingerprintable or not, reuses them.
* **Code-level facts key on the function fingerprint.**  The dataflow /
  lint / flow-facts analyses are pure functions of one IR function's
  content, so ``python -m repro diff`` replays the old function's reports
  through :func:`~repro.analysis.incremental.mark_reused` (every finding's
  provenance set to ``reused``, see
  :data:`~repro.analysis.report.PROVENANCES`) when the old and new entry
  functions have the same fingerprint.
* **Race pairs re-check only changed endpoints.**
  :func:`~repro.analysis.races.incremental_race_check` reuses the
  happens-before reachability when the happens-before relation and task
  universe are equal, and re-scans only pairs with a changed endpoint; clean-pair
  findings are replayed as ``reused``.  Any guard mismatch falls back to
  the full scan.
* **The fixed point never starts warm.**  A schedule stage that runs
  iterates the system-level fixed point from the cold state, so an
  incremental run lands on exactly the fixed point a cold run finds.
* **Bit-identity is the acceptance bar.**  ``Pipeline.run_incremental``
  must produce results bit-identical to a cold run of the edited model;
  the property tests drive random edit scripts
  (:mod:`repro.usecases.workloads`) to enforce exactly that.

``python -m repro diff <old> <new>`` runs the old model cold and the new
one incrementally, and prints the region diff and what each stage reused.

Certificate contract (proof-carrying results)
=============================================

:mod:`repro.analysis.certify` pairs each expensive claim of the flow with
a serializable **certificate** and an **independent checker** that shares
no code with the producer.  Certificate formats (all expose ``as_dict``
for serialization):

* :class:`~repro.analysis.certify.ScheduleCertificate` -- the analysed
  timeline and its interference fixed point: mapping (and the analysis's
  own ``task_cores``), per-core orders, per-task windows, effective/base
  WCETs, shared-access and contender counts, the ``converged`` flag, the
  claimed WCET bound, plus the pruned contender skeleton (``allowed``)
  when the run used ``static_pruning``: the analysis's claims, not the
  platform's prices.  The checker works directly against the HTG and
  platform in three passes: structure (coverage, ``task_cores ==
  mapping``, window lengths, effective >= base, ``wcet_bound == max
  finish``); core orders and HTG edges (per-core exclusivity, precedence
  with communication latencies it asks the platform for); and one
  re-application of the interference equations, with the shared-access
  penalty it asks the platform for, over contention re-derived from the
  claimed windows (restricted to the skeleton when present), where any
  component they can still increase refutes the claimed fixed point.
* :class:`~repro.analysis.certify.IpetCertificate` -- the LP primal
  solution (per-edge counts), block costs, effective loop bounds, pinned
  infeasible edges and semantic dual values, all from the structured solve
  of the IPET LP.  The checker rebuilds the CFG and re-verifies flow
  conservation, unit entry/exit flow, loop bounds, flow-fact pins and the
  recomputed objective; from the duals it also proves *optimality*
  (non-positive loop duals, reduced-cost feasibility, a zero duality gap),
  and a witness without them is an error.
* :class:`~repro.analysis.certify.ContentionCertificate` -- the static-MHP
  skeleton itself.  The checker re-proves every excluded cross-core
  sharer pair ordered (its own reachability search over the HTG edges) or
  address-disjoint (its own footprint walker and interval arithmetic);
  a fabricated disjointness claim or a dropped happens-before edge is a
  ``certify.contention.unjustified-exclusion`` refutation.  To stay
  independent of the producer it shares nothing with the pair engine
  above: it keeps its own search for reachability masks and its own
  sort-and-sweep for the pairs whose windows touch, and it refutes an
  excluded pair exactly when that pair is unordered and touching (or has
  no windows).  An access whose bounds truncate to an empty window counts
  as a whole-array access.

What the checkers do **not** prove: the ground-truth inputs they carry
verbatim (per-block cycle costs, isolated WCETs, shared-access counts --
the hardware model's and code-level analysis' contract), tightness (slack
is sound for upper bounds), and the soundness of declared loop bounds
(:mod:`~repro.analysis.wcet_facts`' job).  The trust argument is
fault-*independence*: a producer bug must be matched by a compensating
checker bug to go unnoticed.  ``python -m repro certify`` and the
pipeline's ``certify`` stage (``ToolchainConfig.certify``) gate on these
checkers; the stage checks a result the cache replayed like a fresh one.
"""

from repro.analysis.certify import (
    CertificateChain,
    CertificationError,
    ContentionCertificate,
    IpetCertificate,
    ScheduleCertificate,
    build_certificates,
    certify_pipeline_result,
)
from repro.analysis.footprints import (
    FootprintStore,
    TaskFootprint,
    footprints_address_disjoint,
    footprints_conflict_free,
    task_footprint,
    task_footprints,
)
from repro.analysis.dataflow import (
    DataflowAnalysis,
    DataflowResult,
    run_dataflow,
)
from repro.analysis.incremental import (
    FingerprintDiff,
    IncrementalReport,
    diff_summaries,
    summarize_result,
)
from repro.analysis.liveness import Liveness, dead_stores, liveness
from repro.analysis.races import (
    RaceCheckState,
    check_races,
    check_schedule_races,
    incremental_race_check,
)
from repro.analysis.reaching_defs import (
    DEF_EXTERNAL,
    DEF_UNINIT,
    ReachingDefinitions,
    definitely_uninitialized_uses,
    reaching_definitions,
)
from repro.analysis.report import (
    SEVERITIES,
    AnalysisReport,
    Finding,
    severity_at_least,
)
from repro.analysis.static_mhp import StaticMhpRelation, compute_static_mhp
from repro.analysis.value_range import (
    ValueRange,
    ValueRangeAnalysis,
    assume,
    eval_range,
    truth,
    value_ranges,
)
from repro.analysis.verifier import IRVerifierPass, verify_function
from repro.analysis.wcet_facts import derive_flow_facts, tightened_ipet_wcet

__all__ = [
    "AnalysisReport",
    "CertificateChain",
    "CertificationError",
    "ContentionCertificate",
    "DataflowAnalysis",
    "DataflowResult",
    "DEF_EXTERNAL",
    "DEF_UNINIT",
    "Finding",
    "FingerprintDiff",
    "FootprintStore",
    "IRVerifierPass",
    "IncrementalReport",
    "IpetCertificate",
    "Liveness",
    "RaceCheckState",
    "ReachingDefinitions",
    "SEVERITIES",
    "ScheduleCertificate",
    "StaticMhpRelation",
    "TaskFootprint",
    "ValueRange",
    "ValueRangeAnalysis",
    "assume",
    "build_certificates",
    "certify_pipeline_result",
    "check_races",
    "check_schedule_races",
    "compute_static_mhp",
    "dead_stores",
    "definitely_uninitialized_uses",
    "derive_flow_facts",
    "diff_summaries",
    "eval_range",
    "footprints_address_disjoint",
    "footprints_conflict_free",
    "incremental_race_check",
    "liveness",
    "reaching_definitions",
    "run_dataflow",
    "severity_at_least",
    "summarize_result",
    "task_footprint",
    "task_footprints",
    "tightened_ipet_wcet",
    "truth",
    "value_ranges",
    "verify_function",
]
