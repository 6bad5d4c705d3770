"""Code-level and system-level WCET analysis (paper Section II-D).

* :mod:`repro.wcet.hardware_model` turns the ADL description into per-access
  and per-operation worst-case costs, and states the one cost semantics --
  what each construct costs in cycles and shared accesses -- that the
  analyses and the simulator read.
* :mod:`repro.wcet.code_level` computes the isolated (contention-free) WCET
  and worst-case shared-access count of IR fragments / HTG tasks
  structurally; the structured solve of the IPET LP in
  :mod:`repro.wcet.ipet` (a longest-path pass over the CFG's loop
  structure, no LP solver) equals it without flow facts and can be tighter
  with them.
* :mod:`repro.wcet.system_level` adds shared-resource interference based on a
  may-happen-in-parallel analysis of the scheduled parallel program and the
  platform's interconnect cost model, iterated to a fixed point (one MHP
  contender kernel per mode: a per-core bisect pass for unpruned runs, a
  loop over the static-MHP skeleton for pruned ones).  Its
  :class:`~repro.wcet.system_level.SystemDesign` is the one handle of a
  design point: the inputs, cache and MHP mode every analysis of it reads,
  and the integer-indexed pricing table the list scheduler and the solve
  share.
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
latencies), never from object identities, so identical cores share entries
even on heterogeneous platforms and across platform rebuilds.  IR is never
mutated once the front end has built it (the transformation passes work
copy-on-write on a copy of the entry function), so its identity-keyed
fingerprint memos cannot go stale.  Only one situation
requires explicit action from callers:

* **Platform, processor or cost-model objects mutated in place** require
  ``cache.clear()`` -- their cost signatures are memoized per object.  The
  supported style is to build fresh objects instead, which needs no
  invalidation at all.

The cache also holds the front end's **lowering memo**
(:attr:`~repro.wcet.cache.WcetAnalysisCache.lowerings`): per block name,
the latest reusable lowering a compile on this cache made -- region
objects, declared temporaries, and the inputs it was made from (name,
behaviour text, bindings, copy-outs).  A compile reuses an entry only
under equal inputs, so it cannot go stale; every design point of a sweep
and every edit round on one cache therefore lowers only the blocks the
cache has not seen, and the reused regions keep their memos.  The memo
lives in memory as long as the cache and is never flushed or loaded;
``cache.clear()`` empties it with the other memos, so the next compile
lowers every block.  The region memo also holds each region's task
decompositions (one per granularity and chunk count; they never hold the
region, so they die with it), and the cache's **IPET witness memo**
(:meth:`~repro.wcet.cache.WcetAnalysisCache.ipet_witness`) keeps the
latest witness per (function name, cost signature), tagged with the
function's fingerprint: in memory only, never flushed, emptied by
``cache.clear()``.

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

The cost signature once also digested the cost model's storage overrides,
which nothing set; dropping that element changed every code-level key with
**no schema bump**: a key derived the new way cannot equal one derived the
old way, so older v6 entries are never looked up again and
:meth:`~repro.wcet.cache.WcetAnalysisCache.evict` ages them out;
:data:`~repro.wcet.cache.CACHE_SCHEMA_VERSION` stays 6.

Loop chunks share their loop's body object, and so does the cold
analysis: the body of each top-level loop of a region (the region itself,
or a ``for`` reached through blocks only) carries a **body memo** in the
cache's region memo, read by the region and by every chunk over it.  It
holds the names the body references, its text as rendered inside its loop
(the regions' fingerprints compose their own lines around it, byte for
byte ``to_c``), and its prices: ``statement_wcet`` of the body keyed by the
body's region context, the cost signature and the average flag, which the
``for`` rule of :func:`~repro.wcet.code_level.statement_wcet` reads on the
cached path only (the uncached analysis walks every body).  The context
names the declarations the body reads, so one body reached from two
functions that declare its names differently is priced once for each.
The memo dies with its body and ``cache.clear()`` empties it.  A design
thus prices, renders and walks each body once, whatever ``loop_chunks``
is, with every entry, key and fingerprint byte-identical, so this came
with **no schema bump**.  Region contexts are memoized per referenced
name set, so the chunks of one loop share one.

A function's sequential bound
(:meth:`~repro.wcet.cache.WcetAnalysisCache.function_wcet`, what
:func:`~repro.wcet.code_level.analyze_function_wcet` reads through a
cache) is the sum of the *region entries* of its body's top-level
statements, added in body order: the same float additions the
whole-body analysis performs, so the bound is bit-identical, and an edit
round analyses only the regions it changed.  A region entry is an
ordinary code-level entry under the existing key (a block-granularity
task of the same region shares it), so this came with **no schema
bump**: the whole-body entries older runs wrote are never looked up
again, and :meth:`~repro.wcet.cache.WcetAnalysisCache.evict` ages them
out.

System-level / result tiers
---------------------------
The same contract extends to the other two tiers of a cache, which exist
only inside one: the **system-level result tier**
(:class:`~repro.wcet.cache.SystemResultCache`, reached through
``cache.system_results`` and consulted by
:func:`~repro.wcet.system_level.system_level_wcet`) and the **footprint
tier** (:class:`~repro.analysis.footprints.FootprintStore`, reached through
``cache.footprints``).  Result keys embed the
function/region fingerprints, the edge payloads, the platform's content
digest, the mapping and per-core order and what steers the fixed point
(its iteration cap :data:`~repro.wcet.system_level.MAX_ITERATIONS`,
pruning), so entries can never go stale and need no invalidation either.
The caller-cooperation rule above applies unchanged (the fingerprints,
cost signatures and platform digests are the same memos); additionally:

* **One name per platform.**  A result key names the hardware by
  :func:`~repro.wcet.cache.platform_signature`, the content digest of the
  whole ADL description, computed once per platform object and memoized
  on the cache (:meth:`~repro.wcet.cache.WcetAnalysisCache.platform_digest`).
  The digest pins every
  price the fixed point reads, so a key prices nothing and its cost does
  not grow with the core count.  It names every component class by
  ``module.qualname``: same-named classes of different scopes never
  collide, but two classes made by one factory function share a qualified
  name, so platforms built from them must not share a cache.  A platform
  with a component the digest cannot describe (a non-dataclass model)
  gets no result key: its results and searches are never memoized.
  Platforms that differ only in name,
  description or clock rate share no results, which costs sharing, never
  soundness.  Code-level keys keep their per-core cost signature
  (identical cores of different platforms share entries), which also
  names the processor's and the cost model's classes by ``module.qualname``.
* These key changes came with **no schema bump**: a key derived the new
  way cannot equal one derived the old way, so older v6 records are never
  looked up and :meth:`~repro.wcet.cache.WcetAnalysisCache.evict` ages
  them out; :data:`~repro.wcet.cache.CACHE_SCHEMA_VERSION` stays 6.
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
* Schema **v6** changes no key: an ``if``'s shared-access count became the
  larger of its arms' counts (v5 kept the count of the arm with more
  cycles, which can be lower), so v5 code-level entries and the result
  records built on them may carry an unsafe count and are retired.
* The annealer and branch and bound price their candidates with
  :meth:`~repro.wcet.system_level.SystemDesign.bound`, outside the tier.
  The annealer keeps one **search record** per search in the result tier's
  store (:meth:`~repro.wcet.cache.SystemResultCache.memoized_search`): the
  winning mapping, or a mark that the start schedule won, under a key
  digesting the start schedule's result key, the design's task and
  topological orders, and the search's name and parameters (the platform
  digest inside the start key pins the core order).  A
  warm identical search replays its winner, a result hit, and solves no
  fixed point.  Search records share the results' bound, shards and
  eviction; a malformed one is dropped on load, one whose winner does not
  map the design's tasks to the cores the search may use is searched again
  and overwritten, and :meth:`~repro.wcet.cache.SystemResultCache.get`
  never returns one.  Search records came with no bump: a v6 directory
  without them replays as before.
* An edit round (:meth:`repro.core.pipeline.Pipeline.run_incremental`)
  follows the same rule: every stage runs.  HTG extraction reads no
  platform: it decomposes only the regions without a memoized
  decomposition at the run's granularity and chunk count, whatever the
  platform, fingerprintable or not.

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
  record (the fixed-point outcome) or a search record, and its stats
  ``misses`` count the analysed schedules whose fixed point ran and the
  searches that ran.  ``load`` reads every tier's shards oldest
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
``WcetBreakdown`` fields, the system-level result record, or the algorithm
of a search that keeps a search record (its record names a winner only
that algorithm would pick).  Old versions are simply ignored (each lives in
its own ``v<N>`` directory); never reinterpret them in place.

Certification contract (proof-carrying results)
-----------------------------------------------
Two producers in this package emit witnesses for the independent checkers
of :mod:`repro.analysis.certify`:

* :func:`~repro.wcet.ipet.ipet_wcet`, a structured solve of the IPET LP,
  keeps its full LP solution on the :class:`~repro.wcet.ipet.IpetResult`
  -- primal edge counts, block costs, effective loop bounds, pinned
  infeasible edges and *semantic* dual values (keyed by block id, never by
  a row order).  The checker re-verifies feasibility against a freshly
  rebuilt CFG and, from the duals, optimality (non-positive loop duals,
  reduced costs, zero duality gap); a witness without duals is refuted.  It does **not** re-derive the per-block cycle costs; those
  remain the hardware model's ground truth.  Because the block costs follow
  the structural analysis's rules, the optimum without flow facts *is* the
  sequential bound the pipeline reports, and the checker compares the two:
  the reported bound must equal the optimum (within the checker's tolerance), or,
  when flow facts tightened the LP, must not lie below it
  (``certify.ipet.sequential-bound-mismatch``).
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
tier replayed it, and the IPET checker on the sequential bound whether the
code-level analysis computed it or a code-level entry replayed it, and on
the IPET witness whether it was solved or the witness memo replayed it; a
refuted result raises
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
