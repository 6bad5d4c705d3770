"""Code-level and system-level WCET analysis (paper Section II-D).

* :mod:`repro.wcet.hardware_model` turns the ADL description into per-access
  and per-operation worst-case costs.
* :mod:`repro.wcet.code_level` computes the isolated (contention-free) WCET of
  IR fragments / HTG tasks, either structurally or through the IPET
  longest-path formulation of :mod:`repro.wcet.ipet`.
* :mod:`repro.wcet.system_level` adds shared-resource interference based on a
  may-happen-in-parallel analysis of the scheduled parallel program and the
  platform's interconnect cost model, iterated to a fixed point (one MHP
  contender kernel per mode: a per-core bisect pass for unpruned runs, a
  loop over the static-MHP skeleton for pruned ones).  Its
  :class:`~repro.wcet.system_level.SystemDesign` is the one handle of a
  design point: the inputs, cache and MHP mode every analysis of it reads,
  and the integer-indexed pricing table the list scheduler, the
  per-mapping solve and the result key share.
* :mod:`repro.wcet.cache` memoizes code-level results so the schedulers, the
  system-level fixed point and the cross-layer feedback loop analyse each
  distinct (code region, core cost signature) pair exactly once --
  per process, or across processes when the cache is disk-backed -- and,
  in the same cache, whole system-level results and task footprints.

Cache-invalidation contract
---------------------------
:class:`~repro.wcet.cache.WcetAnalysisCache` entries are **content
addressed** (region context + region fingerprint, hardware *cost
signature*, average/worst flag), so a cache can safely be shared across schedulers,
analyses, toolchain runs, feedback iterations and -- when disk-backed --
across processes: changed IR or a different platform simply produces
different keys, and unchanged IR hits the cache.  The cost signature is
derived from the numbers the code-level analysis can observe (operation cost
table, branch/loop overheads, scratchpad and uncontended shared-memory
latencies, storage overrides), never from object identities, so identical
cores share entries even on heterogeneous platforms and across platform
rebuilds.  IR is never mutated once the front end has built it (the
transformation passes work copy-on-write on a copy of the entry function),
so its identity-keyed fingerprint memos cannot go stale.  Only one situation
requires explicit action from callers:

* **Platform, processor or cost-model objects mutated in place** require
  ``cache.clear()`` -- their cost signatures are memoized per object.  The
  supported style is to build fresh objects instead, which needs no
  invalidation at all.

Since schema **v4**, code-level entry keys embed the region's *context*
(:meth:`~repro.wcet.cache.WcetAnalysisCache.region_context`): the storage
class and declared type of every name the region references, looked up in
the function's declarations, instead of a digest of the whole declaration table
(v3) or of the whole function (v2).  A region's WCET reads the enclosing
function only through those names, so editing one region -- or inserting
or deleting a block, which adds or removes declarations -- leaves every
region that does not reference a touched name addressable.  Task
footprints (:attr:`~repro.wcet.cache.WcetAnalysisCache.footprints`) are
keyed the same way, with the task's declared read/write names added to the
context.  The :data:`~repro.wcet.cache.CACHE_SCHEMA_VERSION` bump (3 → 4)
retires the old on-disk entries by the ordinary versioning rule.

System-level / result tiers
---------------------------
The same contract extends to the other two tiers of a cache, which exist
only inside one: the **system-level result tier**
(:class:`~repro.wcet.cache.SystemResultCache`, reached through
``cache.system_results`` and consulted by
:func:`~repro.wcet.system_level.system_level_wcet`) and the **footprint
tier** (:class:`~repro.analysis.footprints.FootprintStore`, reached through
``cache.footprints``).  Result keys embed the
function/region fingerprints, the edge payloads, the mapping and per-core
order, the per-core cost signatures, the shared-access penalty tables, the
priced worst-case delay of every payload between every core pair and what
steers the fixed point (its iteration cap
:data:`~repro.wcet.system_level.MAX_ITERATIONS`, core count, pruning), so
entries can never go stale and need no invalidation either.  The caller-cooperation
rule above applies unchanged (the fingerprints and cost signatures are the
same memos); additionally:

* Every tier keeps its entries in one
  :class:`~repro.wcet.cache.MemoStore`, which counts hits, first-use disk
  hits and misses in the tier's ``stats``
  (:class:`~repro.wcet.cache.CacheStats`) and bounds the entries by LRU:
  the code-level tier is unbounded, the result tier holds
  :data:`~repro.wcet.cache.MAX_SYSTEM_RESULTS` (2,048) results and the
  footprint tier :data:`~repro.analysis.footprints.MAX_FOOTPRINTS` (4,096)
  footprints.
* Every system-level analysis consults the result tier of its design's
  cache; code that must *re-run* the fixed point (differential tests,
  kernel timing) clears ``cache.system_results.store`` first or analyses
  through a fresh cache.
* Keys are derived from a :class:`~repro.wcet.system_level.SystemDesign`,
  the one handle of a design point (``result_key(design, mapping,
  order)``) that the pipeline's ``schedule`` stage builds and every
  scheduler search shares across its candidates.  Since schema **v5** a
  key is the digest of a per-design prefix, derived once per design, plus
  the mapping vector in sorted-task order, the core orders, the iteration
  cap and the pruning flag, instead of one JSON payload of every priced
  edge per call (the 4 → 5 bump retires v4 result and code-level entries
  alike).
* An edit round (:meth:`repro.core.pipeline.Pipeline.run_incremental`)
  follows the same rule: every stage runs, and the HTG stage hands over a
  region's previous tasks and WCET annotations only under an equal region
  fingerprint and an equal :func:`~repro.wcet.cache.platform_signature`;
  a platform that cannot be fingerprinted is never reused.

On-disk format and versioning
-----------------------------
A disk-backed cache (``WcetAnalysisCache.open(dir)`` /
``cache.load(dir)`` / ``cache.flush()``, or the process-wide
:func:`~repro.wcet.cache.shared_cache` with the ``REPRO_WCET_CACHE_DIR``
environment variable) persists entries under a **version-stamped**
subdirectory ``<dir>/v<CACHE_SCHEMA_VERSION>/``:

* ``entries-<pid>-<token>.jsonl`` shards hold one JSON object per entry:
  the content key plus the five
  :class:`~repro.wcet.code_level.WcetBreakdown` fields.  Every cache
  instance owns exactly one shard and rewrites it atomically on flush
  (tempfile + ``os.replace``), so concurrent flushes -- e.g. the worker
  processes of ``repro.core.sweep.sweep`` -- can never corrupt the
  directory.  ``load`` merges every ``entries*.jsonl`` file (including a
  legacy append-only ``entries.jsonl``), oldest first; duplicate keys
  across shards are harmless (the key fully determines the value) and
  malformed lines are skipped.  Because keys are content addressed, on-disk entries can never
  go stale and need no invalidation, ever.
* ``stats-<pid>-<token>.jsonl`` shards accumulate one hit/disk-hit/miss
  delta record per flush (single writer, append-only);
  :func:`~repro.wcet.cache.read_cache_dir_stats` aggregates all
  ``stats*.jsonl`` files across processes (``benchmarks/run_all.py
  --cache-dir`` reports them in its ``BENCH_*.json`` records).
* the system-level tier persists ``sys-entries-*.jsonl`` /
  ``sys-stats-*.jsonl`` shards to the *same* version directory, written
  and read by the same :class:`~repro.wcet.cache.MemoStore` code; one entry
  is a whole serialized :class:`~repro.wcet.cache.SystemResultCache`
  record (the fixed-point outcome), and its stats ``misses`` count the
  fixed points actually run.  ``load`` reads every tier's shards oldest
  first by modification time and applies the tier's bound as it goes, so
  a directory written by many processes loads only the newest
  :data:`~repro.wcet.cache.MAX_SYSTEM_RESULTS` results.  Footprints are
  never persisted.

**Eviction:** shared directories are bounded, not pruned by staleness
(nothing ever goes stale): :meth:`~repro.wcet.cache.WcetAnalysisCache.evict`
-- exposed as ``python -m repro cache evict`` and
``benchmarks/run_all.py --cache-evict-*`` -- compacts the current schema
version's shards down to entry-count / byte / age bounds, keeping entries
used by the running process first.  Other schema versions are never
touched.

**Versioning rule:** bump
:data:`~repro.wcet.cache.CACHE_SCHEMA_VERSION` whenever the *meaning* of a
cached number can change -- the code-level cost semantics, the C-printer
rendering behind the fingerprints, the cost-signature composition, the
``WcetBreakdown`` fields, or the system-level result record.  Old versions
are simply ignored (each lives in its own ``v<N>`` directory); never
reinterpret them in place.

Certification contract (proof-carrying results)
-----------------------------------------------
Two producers in this package emit witnesses for the independent checkers
of :mod:`repro.analysis.certify`:

* :func:`~repro.wcet.ipet.ipet_wcet` keeps its full LP solution on the
  :class:`~repro.wcet.ipet.IpetResult` -- primal edge counts, block costs,
  effective loop bounds, pinned infeasible edges and, when the solver
  exposes marginals, *semantic* dual values (keyed by block id, never by
  matrix row order).  The checker re-verifies feasibility against a
  freshly rebuilt CFG and, with duals, optimality (reduced costs + zero
  duality gap).  It does **not** re-derive the per-block cycle costs; those
  remain the hardware model's ground truth.
* :func:`~repro.wcet.system_level.system_level_wcet` carries the
  per-task isolated WCETs and shared-access counts on the
  :class:`~repro.wcet.system_level.SystemWcetResult`, so the schedule
  certificate -- one witness of the analysed timeline -- lets its checker
  re-apply the interference equations once to the reported state: a valid
  post-fixed-point cannot increase.  The base WCETs themselves are the
  code-level analysis' contract, not re-proved.

Content addressing makes cache entries immune to *staleness*, but not to
*corruption* (bit rot, hand edits, a writer bug).  The pipeline's
``certify`` stage (``ToolchainConfig.certify``) closes that gap: it runs
the schedule and (for pruned runs) contention checkers on
the schedule's result whether the fixed point computed it or the result
tier replayed it, and a refuted result raises
:class:`~repro.analysis.certify.CertificationError` instead of being
silently trusted.
"""

from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    SystemResultCache,
    WcetAnalysisCache,
    platform_signature,
    read_cache_dir_stats,
    reset_shared_cache,
    shared_cache,
)
from repro.wcet.code_level import analyze_function_wcet, analyze_task_wcet
from repro.wcet.ipet import ipet_wcet
from repro.wcet.system_level import (
    SystemDesign,
    SystemWcetResult,
    contention_oblivious_bound,
    system_level_wcet,
)

__all__ = [
    "HardwareCostModel",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "SystemResultCache",
    "WcetAnalysisCache",
    "platform_signature",
    "read_cache_dir_stats",
    "reset_shared_cache",
    "shared_cache",
    "analyze_function_wcet",
    "analyze_task_wcet",
    "ipet_wcet",
    "SystemDesign",
    "SystemWcetResult",
    "contention_oblivious_bound",
    "system_level_wcet",
]
