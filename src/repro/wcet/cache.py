"""Content-addressed result caching shared across the whole flow.

This module is the flow's **result cache**, in three tiers:

* the *code-level* tier (:class:`WcetAnalysisCache`) memoizes isolated task /
  region WCET analyses,
* the *system-level* tier (:class:`SystemResultCache`, reachable as
  ``cache.system_results``) memoizes entire
  :class:`~repro.wcet.system_level.SystemWcetResult` objects -- the outcome
  of the contention-aware fixed point -- for repeated identical
  (mapped tasks, mapping, platform, config) combinations, so a warm sweep
  over a previously analysed design point skips the fixed point entirely,
  and
* the *footprint* tier (:class:`~repro.analysis.footprints.FootprintStore`,
  reachable as ``cache.footprints``) memoizes the per-task shared-memory
  footprints the static MHP analysis and the race check read.

Every tier keeps its entries in one :class:`MemoStore`, which counts hits,
first-use disk hits and misses (:class:`CacheStats`), drops the least
recently used entry past the tier's bound, and, for a tier that persists,
reads and writes the tier's shard files.  The code-level tier is unbounded;
the other bounds are module constants (:data:`MAX_SYSTEM_RESULTS` here,
:data:`~repro.analysis.footprints.MAX_FOOTPRINTS` next to the footprint
tier).  Tiers exist only inside a :class:`WcetAnalysisCache`, whose
identity memos they share so their keys are cheap to derive.  The
code-level and system-level tiers persist; footprints stay in memory.

Every layer of the ARGO flow re-derives the same isolated task WCETs: the
list scheduler analyses each (task, candidate core) pair during placement,
the system-level fixed point re-analyses the mapped tasks, and the
metaheuristic / branch-and-bound mappers re-evaluate thousands of complete
mappings.  :class:`WcetAnalysisCache` memoizes those code-level results so
each distinct analysis is performed exactly once per process -- and, when the
cache is disk-backed, exactly once across *all* processes sharing one cache
directory.

Code-level cache keys are **content addressed**: an entry is keyed by

* the region's *context*: a digest of the storage class and declared type
  (hence array-ness) of every name the analysed region references, looked
  up in the enclosing function's declarations (a name the function does
  not declare keys as undeclared) -- everything the analysis reads through
  the function, and nothing about the function's other regions or
  declarations,
* the fingerprint of the analysed statement region (a task's statements or
  the function body, rendered through the C printer),
* the *cost signature* of the hardware model -- the processor's operation
  cost table, branch and loop overheads, the core's scratchpad latencies
  and the platform's uncontended shared-memory latencies, and
* the average/worst-case flag.

The cost signature is derived purely from the numbers that determine
code-level costs, never from object identities.  Any two cores with the same
cost parameters therefore share entries: all cores of a homogeneous
platform, identical-type cores of a heterogeneous platform (even when their
:class:`~repro.adl.processor.ProcessorModel` objects are distinct), and the
"same" core rebuilt in a different process against a fresh ``Platform``.

Because entries are content addressed they can never go stale: changing the
IR or analysing a different platform simply produces different keys.

System-level result tier
------------------------
:class:`SystemResultCache` keys a full system-level analysis on

* the fingerprints of the function and of every leaf task's statement
  region (the region fingerprints are the ones the code-level tier uses),
  and every edge between leaf tasks with its payload,
* the platform's content digest (:func:`platform_signature`), computed once
  per platform object (:meth:`WcetAnalysisCache.platform_digest`): it pins
  every price the fixed point reads -- cost signatures, the shared-access
  penalty row, transfer delays -- without pricing anything,
* the mapping and the per-core ordering, and
* what steers the fixed point itself (its iteration cap, static pruning).

All but the mapping, the ordering, the cap and the pruning flag depend
only on the design point, so they are digested once per design into a key
prefix.  A platform that cannot be fingerprinted gives no key, so its
results are never memoized.

The same store also holds one *search record* per annealer search: the
winning mapping, or a mark that the start schedule won, under
:meth:`SystemResultCache.search_key`.  The annealer prices its candidates
without the tier, so a warm replay reads the record and analyses the
winner only, which is itself a result hit.  Branch and bound prices its
leaves without the tier too, but keeps no search record: its statistics
could not be replayed from one, so each search leaves one result, its
winner's.

Disk persistence
----------------
A cache becomes disk-backed through :meth:`WcetAnalysisCache.load` (or the
:meth:`WcetAnalysisCache.open` constructor).  Entries live under a
version-stamped subdirectory, ``<cache_dir>/v<CACHE_SCHEMA_VERSION>/``:

* ``entries-<pid>-<token>.jsonl`` -- one *shard* per cache instance: one
  JSON object per line, ``{"key": <content key>, "total": .., "compute": ..,
  "memory": .., "control": .., "shared_accesses": ..}``.  Every instance
  writes only its own shard, and each :meth:`flush` rewrites that shard
  atomically (tempfile + ``os.replace``), so any number of processes -- e.g.
  the workers of a :func:`repro.core.sweep.sweep` -- can flush to the same
  directory concurrently without corrupting it.  :meth:`load` merges every
  ``entries*.jsonl`` file (including the legacy single ``entries.jsonl``
  written by older versions), oldest shard first by modification time;
  duplicate keys across shards are harmless (the content key fully
  determines the value) and malformed lines are skipped.
* ``stats-<pid>-<token>.jsonl`` -- one JSON object per :meth:`flush`,
  recording the hit/disk-hit/miss deltas of the flushing instance
  (single-writer, append-only).  Aggregated together with any legacy
  ``stats.jsonl`` by :func:`read_cache_dir_stats` so drivers like
  ``benchmarks/run_all.py`` can report cache effectiveness across
  subprocesses.

The system-level tier persists to the same version directory through its own
``sys-entries-*.jsonl`` / ``sys-stats-*.jsonl`` shards, written and read by
the same :class:`MemoStore` code; :meth:`WcetAnalysisCache.load`,
:meth:`~WcetAnalysisCache.flush` and :meth:`~WcetAnalysisCache.clear` always
cover both tiers.  Its bound holds on load too: a directory written by many
processes loads only the :data:`MAX_SYSTEM_RESULTS` newest results.

:meth:`flush` persists every entry not yet on disk and is cheap when there
is nothing new.  Other schema versions in the same directory are ignored, so
bumping :data:`CACHE_SCHEMA_VERSION` (see the invalidation contract in
:mod:`repro.wcet`) invalidates old on-disk entries without deleting them.

Eviction
--------
Content addressing means entries never go *stale*, but shared directories do
grow without bound.  :meth:`WcetAnalysisCache.evict` bounds the current
schema version's shards by entry count, serialized bytes and/or shard age:
entries used in this process rank highest (they are never age-evicted),
everything else ranks newest-shard-first, and the survivors are compacted
into this instance's own shards.  Other schema versions are never touched.
``python -m repro cache evict`` and ``benchmarks/run_all.py --cache-evict``
expose the policy for shared cache directories.

:func:`shared_cache` returns the process-wide cache every toolchain,
scheduler and mapper uses by default.  When the ``REPRO_WCET_CACHE_DIR``
environment variable is set, the shared cache is disk-backed at that
directory and flushed automatically at interpreter exit.

Invalidation contract
---------------------
The only mutable state is the set of *memos* mapping live ``Function`` /
statement / model objects (by identity) to their fingerprints, per-region
facts (:mod:`repro.ir.facts`: referenced names, what the built-in passes
read and rewrite, and each region's task decompositions), the *body memo*
of each top-level loop body, region contexts (per function and referenced
name set) and cost signatures, which avoids re-rendering and re-walking the
IR and re-digesting declarations and cost tables on every query, plus the
front end's *lowering memo* (:attr:`WcetAnalysisCache.lowerings`) and the
*IPET witness memo* (:meth:`WcetAnalysisCache.ipet_witness`).  The memos
rely on those objects never changing once fingerprinted:

* **IR** is never mutated after the front end builds it: transformation
  passes run on a working copy of the entry function and rewrite its
  statements copy-on-write (:mod:`repro.transforms`), so a transformed
  function is a new object and its unchanged regions are the very objects
  the front end built, with still-valid memos.  Nothing needs
  invalidating.
* **The lowering memo** keeps, per block name, the latest reusable
  lowering a compile on this cache made (its region objects, declared
  temporaries and lowering inputs; see
  :class:`~repro.frontend.codegen.BlockLowering`).  A later compile of a
  block with equal inputs -- any later design point of a sweep, any edit
  round -- reuses those region objects, so they keep their memos too.  It
  lives in memory as long as the cache, holds its regions alive (their
  identity memos with them), is never flushed, and :meth:`clear` empties
  it, after which the next compile lowers every block.
* **Task decompositions** are per-region facts
  (:func:`~repro.htg.extraction.region_decomposition`), keyed by
  granularity and loop-chunk count in the region's fact memo: the
  statement blocks of the region's tasks (pre, loop chunks, post), their
  read/write sets and the outcome of the parallel-loop test.  A
  decomposition never holds its region (a one-task region is marked as
  "the region"), so it lives exactly as long as the region and dies with
  it; a region handed over to a later design point or edit round is not
  decomposed again at the same knobs, and its chunk blocks keep their
  fingerprints.  No platform enters a decomposition.
* **Loop bodies** are shared: a loop chunk task is
  ``Block([For(i, Const(lo), Const(hi), body)])`` over its loop's one
  ``body`` object.  The body of each *top-level* loop of a region (the
  region itself, or a ``for`` reached through blocks only) has a region
  memo of its own, which every region around it reads -- the region and
  each of its chunks: the names it references (a fact), its text as
  rendered inside its loop (so a region's fingerprint is the digest of its
  own lines around that text, byte for byte ``to_c(region)``), and its
  prices, :func:`~repro.wcet.code_level.statement_wcet` of the body keyed
  by (the body's :meth:`~WcetAnalysisCache.region_context`, the cost
  signature, the average flag).  The key names the declarations the body
  reads, not the function object, so one body reached from two functions
  that declare its names differently is priced once for each.  The body
  memo lives exactly as long as the body object (it dies with it, as every
  region memo does), is never flushed, and :meth:`clear` empties it.  A
  design therefore prices, renders and walks each body once however many
  chunks share it; the code-level entries, their keys and every
  fingerprint are unchanged.
* **The IPET witness memo** keeps, per (function name, cost signature),
  the latest IPET witness solved without flow facts, tagged with the
  function's fingerprint; a lookup under another fingerprint solves again
  and replaces the entry, so it cannot go stale, and it holds one witness
  per function name and cost signature.  It lives in memory as long as
  the cache, is never flushed or loaded, and :meth:`clear` empties it.
  The certify stage checks every witness the memo hands out, so a wrong
  entry is refuted, not trusted.
* **Platform, processor and cost-model objects** are treated as immutable
  too (their cost signatures and platform digests are memoized per
  object).  Mutating one in place requires
  :meth:`WcetAnalysisCache.clear`; building fresh objects is the supported
  style and needs no invalidation at all.

Everything else -- new functions, new platforms, feedback iterations that
recompile the model -- is handled transparently: unchanged IR hits the
cache, changed IR misses it.
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import tempfile
import time
import uuid
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, Callable, Collection, Generic, Iterator, TypeVar

from repro import obs
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task
from repro.ir.analysis import referenced_names, shared_names
from repro.ir.printer import function_to_c, loop_body_to_c, region_to_c
from repro.ir.program import Function
from repro.ir.statements import Block, Stmt
from repro.utils.intervals import Interval
from repro.wcet.code_level import WcetBreakdown, statement_wcet
from repro.wcet.hardware_model import HardwareCostModel
from repro.wcet.ipet import IpetResult, ipet_wcet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adl.architecture import Platform
    from repro.analysis.footprints import FootprintStore
    from repro.frontend.codegen import BlockLowering
    from repro.wcet.system_level import SystemDesign, SystemWcetResult

#: Version of the on-disk entry format *and* of the cost-model semantics the
#: cached numbers were produced under.  Bump it whenever the code-level
#: analysis, the printer rendering used for fingerprints, or the meaning of a
#: :class:`WcetBreakdown` field changes; old versions are simply ignored on
#: disk (each lives in its own ``v<N>`` subdirectory).
#: v2: system-level task rows grew from 4 to 6 elements (isolated base WCET
#: and shared-access count appended, needed by certificate checking).
#: v3: code-level keys embed the function's declaration-table fingerprint
#: instead of the whole-function fingerprint.
#: v4: code-level keys embed the region context (the declarations of the
#: names the region references) instead of the whole declaration table.
#: v5: system-level result keys digest a per-design prefix plus the mapping
#: and order vectors instead of one JSON payload of every priced edge.
#: v6: an ``if``'s shared-access count is the larger of its arms' counts
#: (v5 kept the count of the arm with more cycles, which can be lower).
CACHE_SCHEMA_VERSION = 6

#: Environment variable naming the cache directory of the process-wide
#: shared cache (see :func:`shared_cache`).
CACHE_DIR_ENV_VAR = "REPRO_WCET_CACHE_DIR"

#: In-memory bound of the system-level result tier (results and search
#: records together): a long sweep analyses many design points, and keeping
#: every full result alive would trade one scaling problem for another.
MAX_SYSTEM_RESULTS = 2048

#: Shard-file prefix of each persisted tier: ``<prefix>entries*.jsonl``
#: shards hold the tier's entries and ``<prefix>stats*.jsonl`` its
#: per-flush counters.
_SHARD_PREFIXES = {"system": "sys-", "code": ""}

_ENTRY_FIELDS = ("total", "compute", "memory", "control", "shared_accesses")

V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss counters of one cache tier.

    ``misses`` counts actual re-analyses.  ``disk_hits`` counts the *first*
    lookup of each entry that came from a cache directory -- i.e. the number
    of distinct analyses this process avoided thanks to the disk; every
    repeat lookup of the same entry is an ordinary in-process ``hit``
    (regardless of where the entry originally came from), so hot entries
    cannot inflate the disk-hit rate.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return (self.hits + self.disk_hits) / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.hits} hits + {self.disk_hits} disk hits / "
            f"{self.misses} misses ({self.hit_rate:.1%})"
        )


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class _EntryRef(weakref.ref):
    """A weak reference to one memoized object, owned by its cache
    (:meth:`WcetAnalysisCache._remember`): when the object dies it drops
    the object's entry (``key``, the object's id) from ``memo`` and itself
    from the cache's ``refs``.

    One GC-tracked object per entry, and nothing global: a cache dropped
    with its memos takes its references along, so they never fire and
    nothing outside the cache keeps its memos alive.
    """

    __slots__ = ("memo", "key", "refs")

    def __new__(cls, obj, memo: dict, refs: dict) -> "_EntryRef":
        return super().__new__(cls, obj, _drop_entry)

    def __init__(self, obj, memo: dict, refs: dict) -> None:
        super().__init__(obj, _drop_entry)
        self.memo = memo
        self.key = id(obj)
        self.refs = refs


def _drop_entry(ref: _EntryRef) -> None:
    # the object is being collected, so its id is not reused yet
    ref.memo.pop(ref.key, None)
    ref.refs.pop(id(ref), None)


class _RegionMemo:
    """What the flow derived from one statement region: its fingerprint,
    rendered on first use, and its per-region facts (the memo of
    :class:`~repro.ir.facts.RegionFacts`; key contexts read the names the
    region references from it too).

    The body of a region's top-level loop has a memo of its own, shared by
    every region around it (the region itself and each of its loop
    chunks): the names it references (a fact), its text as rendered inside
    its loop (``body_text``) and its prices (``body_prices``: (body
    context, cost signature, average flag) -> its
    :func:`~repro.wcet.code_level.statement_wcet`).
    """

    __slots__ = ("fingerprint", "facts", "body_text", "body_prices")

    def __init__(self) -> None:
        self.fingerprint: str | None = None
        self.facts: dict = {}
        self.body_text: str | None = None
        self.body_prices: dict[tuple[str, str, bool], WcetBreakdown] | None = None


class _DeclarationMemo:
    """What region-scoped keys have read through one function."""

    __slots__ = ("contexts", "rows", "shared")

    def __init__(self) -> None:
        #: referenced name set -> its context (see :meth:`context_of`)
        self.contexts: dict[frozenset[str], str] = {}
        #: name -> its encoded row (see :meth:`context_of`)
        self.rows: dict[str, str] = {}
        #: see :meth:`WcetAnalysisCache.shared_names`
        self.shared: tuple[frozenset[str], frozenset[str]] | None = None

    def context_of(self, function: Function, names: Collection[str]) -> str:
        """Digest of what an analysis can learn about ``names`` from ``function``.

        One JSON row per name, in sorted order: its storage class and
        declared type (which says whether it is an array), or just the name
        when ``function`` does not declare it.  The type also covers the
        integer typing of the IR nodes that use a declared name, which the
        interval rule for ``%`` reads and the C rendering behind region
        fingerprints does not show.
        """
        rows = self.rows
        encoded = []
        for name in sorted(names):
            row = rows.get(name)
            if row is None:
                decl = function.lookup(name)
                row = rows[name] = json.dumps(
                    [name] if decl is None else [name, decl.storage.name, str(decl.type)]
                )
            encoded.append(row)
        return _digest("[" + ",".join(encoded) + "]")


# ---------------------------------------------------------------------- #
# the memo store behind every tier
# ---------------------------------------------------------------------- #
def _version_dir(cache_dir: Path) -> Path:
    return cache_dir / f"v{CACHE_SCHEMA_VERSION}"


def _shards_oldest_first(vdir: Path, kind: str) -> list[tuple[float, Path]]:
    """``(mtime, path)`` of every ``<kind>*.jsonl`` shard, oldest first."""
    shards = []
    for path in vdir.glob(f"{kind}*.jsonl"):
        try:
            shards.append((path.stat().st_mtime, path))
        except OSError:  # racing a concurrent evict/flush: skip
            continue
    return sorted(shards)


def _iter_shard_lines(path: Path) -> Iterator[tuple[str, str, dict]]:
    """Yield ``(key, raw line, record without its key)`` for every
    well-formed line.

    Torn lines and foreign content are skipped, never raised -- the shard
    files are a cache, not a database.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:  # pragma: no cover - racing deletion is fine
        return
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict) or not isinstance(record.get("key"), str):
            continue
        yield record.pop("key"), line, record


def _replace_shard(final_path: Path, lines: list[str]) -> None:
    """Atomically rewrite one shard file (tempfile + ``os.replace``)."""
    fd, tmp_name = tempfile.mkstemp(dir=final_path.parent, prefix=".shard-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp_name, final_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


class MemoStore(Generic[V]):
    """The entries of one cache tier, with their counters, bound and shards.

    :meth:`get` counts every lookup in :attr:`stats`: a miss, the first use
    of an entry loaded from disk (a disk hit), or an in-process hit.
    ``max_entries`` bounds the entries: every insert, loads included, drops
    the least recently used entry past it (``None`` keeps every entry).

    A store given a shard ``prefix`` persists to a cache directory attached
    by :meth:`load`: ``encode`` turns a value into the fields of its shard
    line and ``decode`` turns those fields back into a value, or ``None``
    for a record to skip.  The store writes only its own
    ``<prefix>entries-<pid>-<token>.jsonl`` shard and appends one counter
    record per :meth:`flush` to its own ``<prefix>stats-...`` shard (see
    the module docstring).
    """

    def __init__(
        self,
        max_entries: int | None = None,
        prefix: str | None = None,
        encode: Callable[[V], dict] | None = None,
        decode: Callable[[dict], V | None] | None = None,
    ) -> None:
        self.stats = CacheStats()
        self.max_entries = max_entries
        #: content key -> value; insertion order is LRU order when bounded
        self.entries: dict[str, V] = {}
        #: the attached directory, or ``None`` for a memory-only store
        self.cache_dir: Path | None = None
        self._prefix = prefix
        self._encode = encode
        self._decode = decode
        #: keys loaded from disk and not looked up since (a disk hit awaits)
        self._loaded: set[str] = set()
        #: keys already present in any on-disk shard (loaded or flushed)
        self._persisted: set[str] = set()
        #: serialized content of this store's own shard (survives clear();
        #: rewritten wholesale on every flush so the replace is atomic)
        self._own_lines: dict[str, str] = {}
        #: stats snapshot at the last flush, for per-flush delta records
        self._flushed_stats = (0, 0, 0)
        #: makes the shard file name unique even when two stores in one
        #: process share a directory
        self._token = uuid.uuid4().hex[:8]

    def get(self, key: str | None) -> V | None:
        """The entry under ``key``, or ``None`` (counted as a miss; ``None``
        is never a key, so a lookup without one misses)."""
        value = self.entries.get(key) if key is not None else None
        if value is None:
            self.stats.misses += 1
            return None
        if key in self._loaded:
            # only the *first* use of a loaded entry is a disk hit; repeat
            # lookups are in-process hits (see the CacheStats docstring)
            self._loaded.discard(key)
            self.stats.disk_hits += 1
        else:
            self.stats.hits += 1
        if self.max_entries is not None:
            # LRU touch: re-insertion moves the key to the newest position
            del self.entries[key]
            self.entries[key] = value
        return value

    def put(self, key: str, value: V) -> None:
        """Memoize ``value`` as the newest entry (the oldest drops past the bound)."""
        entries = self.entries
        entries.pop(key, None)
        entries[key] = value
        if self.max_entries is not None and len(entries) > self.max_entries:
            oldest = next(iter(entries))
            del entries[oldest]
            self._loaded.discard(oldest)

    def clear(self) -> None:
        """Drop every in-memory entry (stats and on-disk shards are kept)."""
        self.entries.clear()
        self._loaded.clear()

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------ #
    # shard files
    # ------------------------------------------------------------------ #
    def _shard_path(self, kind: str) -> Path:
        assert self.cache_dir is not None
        # The pid is resolved at write time, not at construction: a cache
        # inherited through fork() then gets its own shard file in the
        # child process instead of racing the parent for one.
        name = f"{self._prefix}{kind}-{os.getpid()}-{self._token}.jsonl"
        return _version_dir(self.cache_dir) / name

    def load(self, cache_dir: Path) -> int:
        """Attach the store to ``cache_dir`` and merge its entry shards.

        Reads shards oldest first by modification time, so past the bound
        the newest entries survive, and returns the number of entries
        added.  Re-attaching to a *different* directory forgets what was
        persisted where: every in-memory entry becomes flushable to the new
        directory (so switching directories cannot silently drop entries).
        """
        assert self._prefix is not None and self._decode is not None
        if self.cache_dir is not None and cache_dir != self.cache_dir:
            self._persisted.clear()
            self._loaded.clear()
            self._own_lines.clear()
        self.cache_dir = cache_dir
        vdir = _version_dir(cache_dir)
        vdir.mkdir(parents=True, exist_ok=True)
        added = 0
        for _mtime, path in _shards_oldest_first(vdir, f"{self._prefix}entries"):
            for key, _line, record in _iter_shard_lines(path):
                value = self._decode(record)
                if value is None:
                    continue  # torn line or foreign content: skip, never fail
                self._persisted.add(key)
                if key not in self.entries:
                    self._loaded.add(key)
                    self.put(key, value)
                    added += 1
        return added

    def flush(self) -> int:
        """Persist every not-yet-persisted entry to this store's own shard.

        Returns the number of new entries written (0 when no directory is
        attached).  Also appends one hit/miss delta record to the store's
        stats shard; a flush with nothing to record does not touch the
        directory at all.
        """
        if self.cache_dir is None:
            return 0
        assert self._encode is not None
        fresh = {key: value for key, value in self.entries.items() if key not in self._persisted}
        snapshot = (self.stats.hits, self.stats.disk_hits, self.stats.misses)
        own = self._shard_path("entries")
        # self-heal: a concurrent evict() in another process deletes every
        # shard it does not own, including this live store's -- restore our
        # own flushed entries rather than silently losing them
        clobbered = bool(self._own_lines) and not own.exists()
        if not fresh and not clobbered and snapshot == self._flushed_stats:
            return 0
        own.parent.mkdir(parents=True, exist_ok=True)
        if fresh or clobbered:
            for key, value in fresh.items():
                self._own_lines[key] = json.dumps(
                    {"key": key, **self._encode(value)}, separators=(",", ":")
                )
            self._persisted.update(fresh)
            # the own-shard buffer obeys the same bound as the entries:
            # without this, every flush of a long-lived driver would accrete
            # more lines forever
            if self.max_entries is not None:
                while len(self._own_lines) > self.max_entries:
                    oldest = next(iter(self._own_lines))
                    del self._own_lines[oldest]
                    self._persisted.discard(oldest)
            _replace_shard(own, list(self._own_lines.values()))
        delta = tuple(now - then for now, then in zip(snapshot, self._flushed_stats))
        if fresh or any(delta):
            record = {
                "pid": os.getpid(),
                "hits": delta[0],
                "disk_hits": delta[1],
                "misses": delta[2],
                "flushed": len(fresh),
            }
            # single writer per shard: a plain append is safe here
            with self._shard_path("stats").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._flushed_stats = snapshot
        return len(fresh)

    def hot_keys(self) -> set[str]:
        """Keys used in this process (computed, or looked up at least once)."""
        return set(self.entries) - self._loaded

    def disk_lines(self) -> dict[str, tuple[float, str]]:
        """Every on-disk entry of the attached directory: key -> (shard
        mtime, line), the newest shard winning duplicate keys."""
        assert self.cache_dir is not None
        per_key: dict[str, tuple[float, str]] = {}
        vdir = _version_dir(self.cache_dir)
        for mtime, path in _shards_oldest_first(vdir, f"{self._prefix}entries"):
            for key, line, _record in _iter_shard_lines(path):
                per_key[key] = (mtime, line)
        return per_key

    def compact(self, kept: dict[str, str]) -> None:
        """Rewrite the on-disk entries as this store's own shard of ``kept``
        (key -> line), deleting every other entry shard of the tier."""
        own = self._shard_path("entries")
        for path in own.parent.glob(f"{self._prefix}entries*.jsonl"):
            if path != own:
                path.unlink(missing_ok=True)
        if kept:
            _replace_shard(own, list(kept.values()))
        else:
            own.unlink(missing_ok=True)
        self._persisted = set(kept)
        self._loaded &= set(kept)
        self._own_lines = dict(kept)


def _breakdown_fields(entry: WcetBreakdown) -> dict:
    return {name: getattr(entry, name) for name in _ENTRY_FIELDS}


def _breakdown_of(record: dict) -> WcetBreakdown | None:
    try:
        return WcetBreakdown(
            total=float(record["total"]),
            compute=float(record["compute"]),
            memory=float(record["memory"]),
            control=float(record["control"]),
            shared_accesses=int(record["shared_accesses"]),
        )
    except (ValueError, KeyError, TypeError):
        return None


class WcetAnalysisCache:
    """Shared memo of code-level WCET analyses (see module docstring)."""

    def __init__(self) -> None:
        #: content key -> analysed breakdown (never stale; see module docstring)
        self.store: MemoStore[WcetBreakdown] = MemoStore(
            prefix=_SHARD_PREFIXES["code"], encode=_breakdown_fields, decode=_breakdown_of
        )
        #: id(Function) -> fingerprint (each entry of these identity memos
        #: is dropped by its :class:`_EntryRef` when its object is collected)
        self._function_fps: dict[int, str] = {}
        #: id(Block) -> the region's memo: its fingerprint, its facts and,
        #: for a top-level loop body, its text and prices (the body memo)
        self._region_fps: dict[int, _RegionMemo] = {}
        #: id(Function) -> what region keys read through it (see ``region_context``)
        self._declarations: dict[int, _DeclarationMemo] = {}
        #: id(HardwareCostModel) -> its cost-signature digest
        self._model_sigs: dict[int, str] = {}
        #: id(Platform) -> its :func:`platform_signature` (``None`` included)
        self._platform_digests: dict[int, str | None] = {}
        #: id(ref) -> the :class:`_EntryRef` watching one identity-memo entry
        self._refs: dict[int, _EntryRef] = {}
        #: objects that could not be weakref'd, pinned so their ids stay valid
        self._pins: list = []
        #: the system-level result tier: shares these memos (so keys are
        #: cheap to derive) and this cache's directory, and :meth:`flush` /
        #: :meth:`clear` / :meth:`evict` cover it
        self.system_results = SystemResultCache(self)
        #: lazily created task-footprint tier (see :attr:`footprints`)
        self._footprints: "FootprintStore | None" = None
        #: the front end's lowering memo: block name -> the latest reusable
        #: :class:`~repro.frontend.codegen.BlockLowering` of a block of that
        #: name, read and updated by every
        #: :func:`~repro.frontend.codegen.compile_diagram` the pipeline runs
        #: on this cache; in memory only (see the invalidation contract)
        self.lowerings: dict[str, "BlockLowering"] = {}
        #: the IPET witness memo: (function name, cost signature) -> the
        #: function fingerprint and the latest witness solved for it (see
        #: :meth:`ipet_witness`); in memory only
        self._ipet_witnesses: dict[tuple[str, str], tuple[str, IpetResult]] = {}

    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters of the code-level tier."""
        return self.store.stats

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def _remember(self, memo: dict, obj, value):
        """Memoize ``value`` under ``id(obj)`` without leaking the object.

        A weak reference the cache owns (:class:`_EntryRef`) drops the memo
        entry when the object is collected (at which point its id may be
        reused); objects that do not support weak references are pinned
        instead so their ids stay valid.
        """
        memo[id(obj)] = value
        try:
            ref = _EntryRef(obj, memo, self._refs)
        except TypeError:  # pragma: no cover - all memoized types are weakref-able
            self._pins.append(obj)
        else:
            self._refs[id(ref)] = ref
        return value

    def _function_fingerprint(self, function: Function) -> str:
        cached = self._function_fps.get(id(function))
        if cached is None:
            # the signature and declarations as C, then the region memo of
            # each top-level statement: an edit re-renders only its regions
            header = function_to_c(dataclasses.replace(function, body=Block()))
            regions = (self._fingerprint(self._region(stmt), stmt) for stmt in function.body.stmts)
            cached = self._remember(
                self._function_fps, function, _digest("\n".join((header, *regions)))
            )
        return cached

    def _region(self, region: Stmt) -> _RegionMemo:
        memo = self._region_fps.get(id(region))
        if memo is None:
            memo = self._remember(self._region_fps, region, _RegionMemo())
        return memo

    def _fingerprint(self, memo: _RegionMemo, region: Stmt) -> str:
        """The digest of ``to_c(region)``, each top-level loop body's text
        read from the body's memo (see :func:`~repro.ir.printer.region_to_c`)."""
        if memo.fingerprint is None:
            memo.fingerprint = _digest(region_to_c(region, self._body_text))
        return memo.fingerprint

    def _body_text(self, body: Block) -> str:
        memo = self._region(body)
        if memo.body_text is None:
            memo.body_text = loop_body_to_c(body)
        return memo.body_text

    def _names(self, memo: _RegionMemo, region: Stmt) -> frozenset[str]:
        """The names ``region`` references (a per-region fact), each
        top-level loop body's names read from the body's memo."""
        names = memo.facts.get(referenced_names)
        if names is None:
            names = memo.facts[referenced_names] = referenced_names(region, self._body_names)
        return names

    def _body_names(self, body: Block) -> frozenset[str]:
        facts = self._region(body).facts
        names = facts.get(referenced_names)
        if names is None:
            names = facts[referenced_names] = referenced_names(body)
        return names

    def _body_wcet(
        self, body: Block, function: Function, model: HardwareCostModel, average: bool
    ) -> WcetBreakdown:
        """``statement_wcet`` of a top-level loop body, once per (body
        context, cost signature, average flag) in the body's memo.

        The context digests the declarations of the names the body
        references, looked up in ``function``, so one body reached from two
        functions that declare its names differently is priced once for
        each.  The entry is shared: callers must not mutate it.
        """
        key = (
            self._context(function, self._body_names(body)),
            self.model_signature_digest(model),
            average,
        )
        memo = self._region(body)
        prices = memo.body_prices
        if prices is None:
            prices = memo.body_prices = {}
        price = prices.get(key)
        if price is None:
            price = prices[key] = statement_wcet(body, function, model, average)
        return price

    def region_facts(self, region: Stmt) -> dict:
        """The per-region fact memo of ``region``: what a
        :class:`~repro.ir.facts.RegionFacts` built on this method memoizes.

        It lives as long as the region object and goes with its other
        memos, so a region an edit round hands over keeps its facts.
        """
        return self._region(region).facts

    def _declaration_memo(self, function: Function) -> _DeclarationMemo:
        memo = self._declarations.get(id(function))
        if memo is None:
            memo = self._remember(self._declarations, function, _DeclarationMemo())
        return memo

    def region_context(
        self, region: Block, function: Function, extra_names: Collection[str] = ()
    ) -> str:
        """Digest of everything an analysis of ``region`` reads *through*
        ``function``: the storage class and declared type of every name the
        region references, plus ``extra_names``.

        The code-level analysis consults the function only for the storage
        class of the arrays a region accesses, and the footprint walker
        only for the shared-ness of the names it sees, so a region's result
        is a pure function of its statements, this context and (for WCET)
        the cost model -- not of the other regions' code or declarations.
        Adding or removing a block therefore re-keys only the regions that
        reference a name it declares.  Memoized per function and referenced
        name set, so regions that reference the same names share a digest
        (every chunk of one loop does); ``extra_names`` the region references
        anyway (a task's declared read/write sets, as extracted) add
        nothing.
        """
        return self._region_context(self._region(region), region, function, extra_names)

    def _region_context(
        self,
        memo: _RegionMemo,
        region: Block,
        function: Function,
        extra_names: Collection[str] = (),
    ) -> str:
        names = self._names(memo, region)
        if extra_names and not names.issuperset(extra_names):
            names = names.union(extra_names)
        return self._context(function, names)

    def _context(self, function: Function, names: frozenset[str]) -> str:
        """:meth:`_DeclarationMemo.context_of`, memoized per function and
        name set."""
        declarations = self._declaration_memo(function)
        context = declarations.contexts.get(names)
        if context is None:
            context = declarations.contexts[names] = declarations.context_of(function, names)
        return context

    def shared_names(self, function: Function) -> tuple[frozenset[str], frozenset[str]]:
        """Memoized :func:`~repro.ir.analysis.shared_names` of a function."""
        memo = self._declaration_memo(function)
        if memo.shared is None:
            memo.shared = shared_names(function)
        return memo.shared

    def function_fingerprint(self, function: Function) -> str:
        """Memoized content fingerprint of a whole function (public API)."""
        return self._function_fingerprint(function)

    def region_fingerprint(self, region: Block) -> str:
        """Memoized content fingerprint of one statement region (public API)."""
        return self._fingerprint(self._region(region), region)

    def model_signature_digest(self, model: HardwareCostModel) -> str:
        """Digest of a hardware model's cost-relevant identity, by *content*
        (what entry keys embed).

        Covers every number the code-level analysis can observe through the
        model: the processor's operation cost table and control overheads,
        the core's scratchpad latencies and the platform's uncontended
        shared-memory latencies.  It also names the processor's class and
        the cost model's class (by ``module.qualname``, as
        :func:`platform_signature` names every component), whose methods
        turn that table into prices: a subclass overriding
        ``cycles_for_op`` never shares the base class's entries.
        Identical cores therefore share entries regardless of object
        identity, platform instance or process -- which is what makes
        heterogeneous platforms with repeated core types, and disk-backed
        sharing, work.
        """
        cached = self._model_sigs.get(id(model))
        if cached is None:
            platform = model.platform
            core = platform.core(model.core_id)
            proc = core.processor
            signature = (
                _qualified_name(type(proc)),
                _qualified_name(type(model)),
                tuple(sorted((op, float(c)) for op, c in proc.op_cycles.items())),
                float(proc.branch_cycles),
                float(proc.loop_overhead_cycles),
                float(core.scratchpad.read_latency),
                float(core.scratchpad.write_latency),
                float(platform.shared_read_latency(0)),
                float(platform.shared_write_latency(0)),
            )
            cached = self._remember(
                self._model_sigs, model, _digest(json.dumps(signature, separators=(",", ":")))
            )
        return cached

    def platform_digest(self, platform: "Platform") -> str | None:
        """Memoized :func:`platform_signature` of ``platform`` (``None`` when
        it cannot be fingerprinted): the one name of a platform's content
        that result keys read."""
        memo = self._platform_digests
        if id(platform) in memo:
            return memo[id(platform)]
        return self._remember(memo, platform, platform_signature(platform))

    def entry_key(
        self,
        region: Block,
        function: Function,
        model: HardwareCostModel,
        average: bool = False,
    ) -> str:
        """The stable content key of one analysis (also the on-disk key).

        Keyed by the region's :meth:`region_context` (the declarations of
        the names it references, not the whole function), the region's
        content, the cost signature and the average/worst-case flag.
        Editing, inserting or deleting a block therefore leaves every
        region that does not reference one of its names addressable -- the
        property the incremental re-analysis engine relies on.
        """
        memo = self._region(region)
        return "|".join(
            (
                self._region_context(memo, region, function),
                self._fingerprint(memo, region),
                self.model_signature_digest(model),
                "avg" if average else "wc",
            )
        )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def region_wcet(
        self,
        region: Block,
        function: Function,
        model: HardwareCostModel,
        average: bool = False,
    ) -> WcetBreakdown:
        """Memoized :func:`~repro.wcet.code_level.statement_wcet` of a region."""
        # hand out a copy so callers can never corrupt the cached entry
        return replace(self._entry(region, function, model, average))

    def _entry(
        self, region: Stmt, function: Function, model: HardwareCostModel, average: bool
    ) -> WcetBreakdown:
        key = self.entry_key(region, function, model, average)
        entry = self.store.get(key)
        if entry is None:
            entry = statement_wcet(
                region,
                function,
                model,
                average,
                lambda body: self._body_wcet(body, function, model, average),
            )
            self.store.put(key, entry)
        return entry

    def task_wcet(
        self,
        task: Task,
        function: Function,
        model: HardwareCostModel,
        average: bool = False,
    ) -> WcetBreakdown:
        """Memoized isolated WCET of one HTG task."""
        return self.region_wcet(task.statements, function, model, average)

    def function_wcet(
        self, function: Function, model: HardwareCostModel, average: bool = False
    ) -> WcetBreakdown:
        """Isolated WCET of a whole function body, from region entries.

        The entries of the body's top-level statements (one per block
        region in a compiled model) summed in body order: the very float
        additions :func:`~repro.wcet.code_level.statement_wcet` of the body
        performs, so the sum equals the whole-body analysis bit for bit,
        and an edit round analyses only the regions it changed.
        """
        total = WcetBreakdown()
        for stmt in function.body.stmts:
            total.add(self._entry(stmt, function, model, average))
        return total

    def ipet_witness(self, function: Function, model: HardwareCostModel) -> IpetResult:
        """The IPET witness of ``function`` on ``model``, without flow facts.

        Keeps the latest witness per (function name, cost signature),
        tagged with the function's fingerprint, and solves
        (:func:`~repro.wcet.ipet.ipet_wcet`) only when the memo holds none
        under this fingerprint.  A sweep over one cache therefore solves
        each distinct (function, cost signature) pair once, unless two
        functions of one name alternate on one cost signature; an edit
        round, whose function changed, replaces the entry.  The witness is
        shared: callers must not mutate it (the certificate copies its
        containers), and the certificate checker checks every use against
        the function.
        """
        key = (function.name, self.model_signature_digest(model))
        fingerprint = self._function_fingerprint(function)
        memo = self._ipet_witnesses.get(key)
        if memo is not None and memo[0] == fingerprint:
            return memo[1]
        witness = ipet_wcet(function, model)
        self._ipet_witnesses[key] = (fingerprint, witness)
        return witness

    def annotate_htg(
        self, htg: HierarchicalTaskGraph, function: Function, model: HardwareCostModel
    ) -> None:
        """Fill in ``task.wcet`` on ``model`` for every task of the HTG.

        No product path calls this: the pipeline leaves ``Task.wcet`` at 0,
        and every scheduler prices tasks through
        :meth:`~repro.wcet.system_level.SystemDesign.cost`.  Tests and
        benchmarks that schedule a hand-extracted HTG annotate it here.
        """
        for task in htg.tasks.values():
            if task.is_synthetic:
                task.wcet = 0.0
                continue
            task.wcet = self.task_wcet(task, function, model).total

    # ------------------------------------------------------------------ #
    # disk persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, cache_dir: str | Path) -> "WcetAnalysisCache":
        """A fresh cache pre-loaded from (and flushing to) ``cache_dir``."""
        cache = cls()
        cache.load(cache_dir)
        return cache

    @property
    def cache_dir(self) -> Path | None:
        """The backing directory, or ``None`` for a memory-only cache."""
        return self.store.cache_dir

    def load(self, cache_dir: str | Path) -> int:
        """Attach both persisted tiers to ``cache_dir`` and pull in their entries.

        Creates the version-stamped subdirectory if needed, merges every
        well-formed line of every shard (duplicates and torn lines are
        skipped; see :meth:`MemoStore.load`) and returns the number of
        code-level entries added.  Entries from other schema versions are
        ignored.
        """
        cache_dir = Path(cache_dir)
        self.system_results.store.load(cache_dir)
        return self.store.load(cache_dir)

    def flush(self) -> int:
        """Persist every not-yet-persisted entry of both persisted tiers.

        Each tier rewrites its own shard through a tempfile and
        ``os.replace`` (see :meth:`MemoStore.flush`), so a concurrent reader
        never sees a torn file and concurrent flushes from other processes
        (which own different shards) cannot interleave.  Returns the number
        of new *code-level* entries written (0 for a memory-only cache, so
        it is always safe to call).
        """
        self.system_results.store.flush()
        return self.store.flush()

    @property
    def footprints(self) -> "FootprintStore":
        """The task-footprint tier of this cache (created on first use).

        Shares this instance's region memos, so a footprint lookup renders
        nothing a WCET lookup of the same region already rendered.
        In-memory only.
        """
        if self._footprints is None:
            from repro.analysis.footprints import FootprintStore

            self._footprints = FootprintStore(self)
        return self._footprints

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #
    def evict(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
    ) -> dict:
        """Bound the attached cache directory (current schema version only).

        Ranks every on-disk entry of *both* persisted tiers -- code-level
        analyses and system-level results -- and drops the lowest-ranked
        ones until the configured bounds hold:

        * entries used in this process since :meth:`load` rank highest and
          are exempt from ``max_age_seconds``, so eviction can never throw
          away an entry that was just used;
        * all other entries rank by the mtime of the shard holding them,
          newest first; ``max_age_seconds`` drops those whose shard is older;
        * ``max_entries`` bounds the total entry count across both tiers and
          ``max_bytes`` the total serialized entry bytes.

        In-memory entries are untouched (an entry evicted from disk but
        still in memory simply becomes flushable again).  Survivors are
        compacted into this instance's own shard files and every other entry
        shard of the *current* schema version is deleted; other schema
        versions are never touched (they are invalidated by the versioning
        rule, not by this policy).  Stats shards are only pruned by
        ``max_age_seconds``.  Pending entries are flushed first, so calling
        this at the end of a run cannot lose fresh results.  Evicting while
        *other* processes are mid-run is safe but best-effort: a live
        writer whose shard was deleted restores its own flushed entries on
        its next :meth:`flush` (so nothing a running process produced is
        ever lost), which may push the directory back over the bound until
        the next eviction.  Returns a report dict with kept/evicted counts
        per tier.
        """
        if self.cache_dir is None:
            raise ValueError("evict() requires a disk-backed cache; call load() first")
        self.flush()
        vdir = _version_dir(self.cache_dir)
        if not vdir.is_dir():  # nothing was ever flushed
            return {"kept": 0, "evicted": 0, "kept_bytes": 0, "tiers": {}}
        now = time.time()
        #: rank order at equal age: one system-level result replaces an
        #: entire fixed point, so the system tier must never be starved by
        #: the (far more numerous, individually cheaper) code entries that
        #: the same flush wrote moments later
        stores: dict[str, MemoStore] = {"system": self.system_results.store, "code": self.store}
        tier_rank = {name: rank for rank, name in enumerate(stores)}
        candidates: list[tuple[bool, float, str, str, str]] = []
        for tier_name, store in stores.items():
            hot = store.hot_keys()
            for key, (mtime, line) in store.disk_lines().items():
                is_hot = key in hot
                candidates.append((is_hot, now if is_hot else mtime, tier_name, key, line))
        # hot entries first, then newest at whole-second granularity (both
        # tiers of one flush land in the same bucket, where the system tier
        # ranks first); ties broken by key for determinism
        candidates.sort(
            key=lambda c: (not c[0], -int(c[1]), tier_rank[c[2]], c[3])
        )
        kept: dict[str, dict[str, str]] = {name: {} for name in stores}
        kept_count = 0
        kept_bytes = 0
        evicted = 0
        budget_full = False
        for is_hot, mtime, tier_name, key, line in candidates:
            size = len(line.encode("utf-8")) + 1  # newline included
            if max_age_seconds is not None and not is_hot and now - mtime > max_age_seconds:
                evicted += 1
                continue
            if max_entries is not None and kept_count >= max_entries:
                evicted += 1
                continue
            if budget_full or (max_bytes is not None and kept_bytes + size > max_bytes):
                # rank-monotonic cutoff: once the byte budget refuses an
                # entry, nothing ranked lower may be kept either -- packing
                # smaller cold entries around a dropped hot one would break
                # the "just-used entries survive first" guarantee
                budget_full = True
                evicted += 1
                continue
            kept[tier_name][key] = line
            kept_count += 1
            kept_bytes += size
        for tier_name, store in stores.items():
            store.compact(kept[tier_name])
        stats_shards_removed = 0
        if max_age_seconds is not None:
            for prefix in _SHARD_PREFIXES.values():
                for path in vdir.glob(f"{prefix}stats*.jsonl"):
                    try:
                        aged = now - path.stat().st_mtime > max_age_seconds
                    except OSError:  # pragma: no cover - racing deletion
                        continue
                    if aged:
                        path.unlink(missing_ok=True)
                        stats_shards_removed += 1
        if obs.obs_enabled():
            registry = obs.metrics()
            registry.counter("cache.evictions").inc()
            registry.counter("cache.evicted_entries").inc(evicted)
            registry.counter("cache.kept_entries").inc(kept_count)
        return {
            "kept": kept_count,
            "evicted": evicted,
            "kept_bytes": kept_bytes,
            "stats_shards_removed": stats_shards_removed,
            "tiers": {name: len(kept[name]) for name in stores},
        }

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every in-memory entry and memo of every tier -- the region
        memos with the loop-body memos among them -- the lowering memo and
        the IPET witness memo (stats are kept), so the next compile lowers
        every block, the next analysis prices every loop body and the next
        certificate solves its witness.

        On-disk entries are *not* deleted: the backing directory stays
        attached and can be re-read with :meth:`load`, and already-persisted
        keys are remembered so a later :meth:`flush` does not duplicate them.
        """
        self.store.clear()
        self._function_fps.clear()
        self._region_fps.clear()
        self._declarations.clear()
        self._model_sigs.clear()
        self._platform_digests.clear()
        self._refs.clear()
        self._pins.clear()
        self.system_results.store.clear()
        if self._footprints is not None:
            self._footprints.store.clear()
        self.lowerings.clear()
        self._ipet_witnesses.clear()

    def __len__(self) -> int:
        return len(self.store)

    def __bool__(self) -> bool:
        """An empty cache is still a cache (``len`` would make it falsy)."""
        return True


# ---------------------------------------------------------------------- #
# the system-level result tier
# ---------------------------------------------------------------------- #
class SystemResultCache:
    """Content-addressed memo of whole system-level analysis results.

    The second tier of the flow's result cache (see the module docstring):
    one entry is a complete :class:`~repro.wcet.system_level.SystemWcetResult`
    keyed by everything the fixed point can observe -- the function and
    per-task region fingerprints, the edge payloads, the platform's content
    digest, the mapping, the per-core ordering, the iteration cap and the
    pruning flag (see :meth:`result_key`).  Identical design points
    therefore share entries across schedulers, processes and (when
    disk-backed) machines, and a warm lookup skips the fixed point *and*
    the per-task code-level analyses.  A design on a platform that cannot
    be fingerprinted has no key and is never memoized.

    The tier lives inside a cache, as :attr:`WcetAnalysisCache.system_results`:
    it derives keys through that cache's fingerprint memos, and its
    :attr:`store` holds at most :data:`MAX_SYSTEM_RESULTS` records in memory
    and persists them to ``sys-entries*.jsonl`` / ``sys-stats*.jsonl``
    shards of the cache's directory.  The records include one search
    record per metaheuristic search (:meth:`memoized_search`), which
    :meth:`get` never returns as a result.
    """

    def __init__(self, fingerprints: WcetAnalysisCache) -> None:
        #: the owning cache, whose identity memos make keys cheap to derive
        self._fingerprints = fingerprints
        #: content key -> serializable record (see :meth:`_record_of`)
        self.store: MemoStore[dict] = MemoStore(
            MAX_SYSTEM_RESULTS, _SHARD_PREFIXES["system"], encode=dict, decode=_checked_record
        )

    @property
    def stats(self) -> CacheStats:
        """Hit/miss counters of the result tier: a miss is an analysed schedule
        whose fixed point ran, or a metaheuristic search that ran."""
        return self.store.stats

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def result_key(
        self,
        design: "SystemDesign",
        mapping: dict[str, int],
        order: dict[int, list[str]],
    ) -> str | None:
        """The stable content key of one system-level analysis of ``design``,
        or ``None`` when its platform cannot be fingerprinted.

        The digest of two parts.  The per-design prefix is derived once per
        design point and kept in ``design.key_prefix``: the function
        fingerprint, each leaf task's region fingerprint (sorted by task
        id), every edge between leaf tasks with its payload, and the
        platform's content digest (:meth:`WcetAnalysisCache.platform_digest`,
        one per platform object), which pins every price the fixed point
        reads -- cost signatures, the shared-access penalty row, transfer
        delays -- and the core ids and their order.  A call adds the mapping vector in
        sorted-task order, the non-empty core orders sorted by core, the
        fixed point's iteration cap
        (:data:`~repro.wcet.system_level.MAX_ITERATIONS`) and
        ``design.static_pruning``; dict insertion order never enters the
        key.

        A key prices nothing, so its cost does not grow with the core
        count.  On the 60 use-case design points (three use cases on
        generic2/4/8, ``recore_xentium_like`` and ``kit_leon3_inoc``, block
        and loop x 2/3/4, their ``wcet_list`` schedules, one shared cache)
        a fresh design's first key takes a median of 155-190 us, against
        890-950 us while the prefix priced every payload on every ordered
        core pair and a penalty row per core; the design's first solve,
        which fills the pricing tables it reads, takes 420-530 us (5
        passes).  A new polka loop x 4 design's first key on
        ``recore_xentium_like``, with the platform digest memoized, takes
        0.35, 0.38 and 0.41 ms at 9, 65 and 129 cores, against 1.3, 32 and
        110 ms priced (medians of 7, shared 2-vCPU x86 host).

        An unfingerprintable platform (see :func:`platform_signature`) gets
        no key: a ``None`` digest in the prefix would let every such
        platform share keys.  :meth:`get` treats ``None`` as a miss and
        :meth:`put` stores nothing under it, so such a design's results
        are never memoized, as its regions are never reused.

        A mapping the analysis would refuse raises
        :class:`~repro.wcet.system_level.SystemWcetError`.
        """
        from repro.wcet import system_level

        cores_of = design.mapping_vector(mapping)
        prefix = design.key_prefix
        if prefix is None:
            fp, ids = self._fingerprints, design.leaf_ids
            platform = fp.platform_digest(design.platform)
            if platform is None:
                return None
            parts = {
                "function": fp.function_fingerprint(design.function),
                "tasks": [
                    (ids[i], fp.region_fingerprint(design.tasks[i].statements))
                    for i in design.by_name
                ],
                "edges": sorted((ids[s], ids[d], payload) for s, d, payload in design.leaf_edges),
                "platform": platform,
            }
            prefix = design.key_prefix = _digest(json.dumps(parts, separators=(",", ":"), sort_keys=True))
        call = [
            list(map(cores_of.__getitem__, design.by_name)),
            sorted((core, list(tids)) for core, tids in order.items() if tids),
            system_level.MAX_ITERATIONS,
            design.static_pruning,
        ]
        return _digest(prefix + json.dumps(call, separators=(",", ":")))

    def search_key(
        self,
        design: "SystemDesign",
        mapping: dict[str, int],
        order: dict[int, list[str]],
        search: str,
        params: dict,
    ) -> str | None:
        """The content key of one metaheuristic search of ``design`` that
        starts from the schedule ``(mapping, order)``, or ``None`` when the
        start schedule has no :meth:`result_key`.

        The digest of the start schedule's :meth:`result_key` (which pins
        every input of the fixed point, the core ids and their order
        included, through the platform digest), the task and topological
        orders of the design (the search's random draws index tasks in the
        first, and every candidate runs in the second), the search's name
        and its ``params``.  A change to a search's algorithm must bump
        :data:`CACHE_SCHEMA_VERSION`, as a change to the analysis does.
        """
        start_key = self.result_key(design, mapping, order)
        if start_key is None:
            return None
        parts = [start_key, design.leaf_ids, design.topological, search, params]
        return _digest(json.dumps(parts, separators=(",", ":"), sort_keys=True))

    def memoized_search(
        self,
        key: str | None,
        run: Callable[[], "dict[str, int] | None"],
        tasks: Collection[str],
        cores: Collection[int],
    ) -> "dict[str, int] | None":
        """The winning mapping of the search under ``key`` (``None``: its
        start schedule won), replayed from the search record or found by
        ``run()`` and recorded.

        The record lives in :attr:`store` next to the results, so it shares
        their counters, bound, shards and eviction: the lookup counts as a
        hit or a miss like a result lookup.  It holds the winner only; the
        caller analyses it (a result-tier hit on a warm cache).  A replayed
        winner must map exactly ``tasks``, each to one of ``cores``; one
        that does not (a record from a foreign or damaged cache directory)
        is searched again and overwritten, though its lookup counted as a
        hit.  A search without a key (``None``) is a miss: it runs and
        leaves no record.
        """
        record = self.store.get(key)
        if record is not None and "search" in record:
            winner = record["winner"]
            if winner is None:
                return None
            winner = {tid: int(core) for tid, core in winner.items()}
            if winner.keys() == set(tasks) and set(cores).issuperset(winner.values()):
                return winner
        winner = run()
        if key is not None:
            self.store.put(key, {"search": True, "winner": winner})
        return winner

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_of(result: "SystemWcetResult") -> dict:
        return {
            "makespan": result.makespan,
            "iterations": result.iterations,
            "converged": bool(result.converged),
            # convergence evidence (optional key: pre-PR-10 records default
            # to 0.0 on replay; ``iteration_deltas`` is diagnostic-only and
            # deliberately not serialized)
            "final_delta": getattr(result, "final_delta", 0.0),
            "interference": result.interference_cycles,
            "communication": result.communication_cycles,
            "tasks": {
                tid: [
                    interval.start,
                    interval.end,
                    result.task_effective_wcet[tid],
                    result.task_contenders[tid],
                    # base WCET / shared accesses feed the schedule
                    # certificate's equation check on replay; hand-built
                    # results without them degrade to base == effective,
                    # shared == 0 (every certificate check stays sound,
                    # some lose teeth)
                    result.task_base_wcet.get(tid, result.task_effective_wcet[tid]),
                    result.task_shared_accesses.get(tid, 0),
                ]
                for tid, interval in result.task_intervals.items()
            },
            # kept separately: the mapping may cover tasks beyond the
            # analysed timeline, and round-trips must be exact
            "cores": dict(result.task_cores),
            **(
                {
                    "allowed": {
                        tid: list(others)
                        for tid, others in result.mhp_allowed.items()
                    }
                }
                if getattr(result, "mhp_allowed", None) is not None
                else {}
            ),
        }

    @staticmethod
    def _result_of(record: dict) -> "SystemWcetResult":
        from repro.wcet.system_level import SystemWcetResult

        # coerce explicitly: _checked_record only checks *convertibility*, so
        # a foreign shard carrying numeric strings must still rebuild into a
        # result with real numbers (float(float) is the identity, so records
        # this module wrote round-trip bit-exactly)
        tasks = record["tasks"]
        return SystemWcetResult(
            makespan=float(record["makespan"]),
            task_intervals={
                tid: Interval(float(row[0]), float(row[1])) for tid, row in tasks.items()
            },
            task_cores={tid: int(core) for tid, core in record["cores"].items()},
            task_effective_wcet={tid: float(row[2]) for tid, row in tasks.items()},
            task_contenders={tid: int(row[3]) for tid, row in tasks.items()},
            interference_cycles=float(record["interference"]),
            communication_cycles=float(record["communication"]),
            iterations=int(record["iterations"]),
            converged=bool(record["converged"]),
            task_base_wcet={tid: float(row[4]) for tid, row in tasks.items()},
            task_shared_accesses={tid: int(row[5]) for tid, row in tasks.items()},
            mhp_allowed=(
                {
                    tid: tuple(str(o) for o in others)
                    for tid, others in record["allowed"].items()
                }
                if "allowed" in record
                else None
            ),
            final_delta=float(record.get("final_delta", 0.0)),
        )

    def get(self, key: str | None) -> "SystemWcetResult | None":
        """The cached result under ``key`` (a fresh object), or ``None``.

        A ``None`` return counts as a miss -- the caller is expected to run
        the analysis and :meth:`put` the outcome.  A design without a key
        (``key`` ``None``, see :meth:`result_key`) always misses.
        """
        record = self.store.get(key)
        return None if record is None or "search" in record else self._result_of(record)

    def put(self, key: str | None, result: "SystemWcetResult") -> None:
        """Memoize ``result`` under ``key`` (oldest entries drop past the
        bound); a ``None`` key stores nothing."""
        if key is not None:
            self.store.put(key, self._record_of(result))

    def __len__(self) -> int:
        return len(self.store)

    def __bool__(self) -> bool:
        return True


def _checked_record(record: dict) -> dict | None:
    """``record`` when it can rebuild a result (see ``_result_of``) or is a
    well-formed search record (see ``memoized_search``), else ``None``."""
    if "search" in record:
        return _checked_search_record(record)
    try:
        tasks = record["tasks"]
        cores = record["cores"]
        if not isinstance(tasks, dict) or not isinstance(cores, dict):
            return None
        for row in tasks.values():
            if len(row) != 6:
                return None
            float(row[0]), float(row[1]), float(row[2]), int(row[3])
            float(row[4]), int(row[5])
        for core in cores.values():
            int(core)
        allowed = record.get("allowed")
        if allowed is not None:
            if not isinstance(allowed, dict):
                return None
            for others in allowed.values():
                if not isinstance(others, list) or not all(
                    isinstance(o, str) for o in others
                ):
                    return None
        float(record["makespan"])
        float(record["interference"])
        float(record["communication"])
        float(record.get("final_delta", 0.0))
        int(record["iterations"])
        return record if isinstance(record["converged"], bool) else None
    except (KeyError, TypeError, ValueError):
        return None


def _checked_search_record(record: dict) -> dict | None:
    """``record`` when its winner is a mapping of task ids to cores or
    ``None`` (the start schedule won), else ``None``."""
    winner = record.get("winner", False)
    if winner is None:
        return record
    if not isinstance(winner, dict):
        return None
    try:
        for core in winner.values():
            int(core)
    except (TypeError, ValueError):
        return None
    return record


class _Unfingerprintable(Exception):
    """A platform component content addressing cannot describe."""


def _qualified_name(cls: type) -> str:
    """``module.qualname`` of a class: how content digests name a type."""
    return f"{cls.__module__}.{cls.__qualname__}"


def _component_json(obj, memo: dict[int, str]) -> str:
    """The JSON text of one platform component's content description.

    Every dataclass level records its concrete type by ``module.qualname``
    under ``"__type__"``, so a subclass that overrides behaviour while
    keeping the base fields (a custom processor model, say) can never
    digest identically to the base, nor to a same-named class defined at
    module level or in another scope.  The rule names a class, not its
    code: two classes made by one factory function share a qualified name,
    so platforms built from them must not share a cache.  Anything that is
    neither a dataclass, a plain container nor a scalar is refused -- a
    ``str()`` fallback would happily bake an address-bearing ``repr`` into
    the digest and defeat content addressing.

    The text is what ``json.dumps(description, sort_keys=True)`` prints
    for the description (members sorted by key, ``", "`` and ``": "``
    separators, the encoder's spelling of each scalar), composed piecewise
    so that each distinct dataclass object -- the one processor model all
    cores of a type share, say -- is described once per digest (``memo``,
    by object id, lives for one :func:`platform_signature` call).
    """
    field_names = _dataclass_field_names(type(obj))
    if field_names is not None:
        text = memo.get(id(obj))
        if text is None:
            members = {"__type__": _json_str(_qualified_name(type(obj)))}
            for name in field_names:
                members[name] = _component_json(getattr(obj, name), memo)
            text = memo[id(obj)] = _json_object(members)
        return text
    # the scalar branches follow the JSON encoder: str and int subclasses
    # (enums among them) are spelled as their base type
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, dict):
        return _json_object({str(key): _component_json(value, memo) for key, value in obj.items()})
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_component_json(item, memo) for item in obj]) + "]"
    if isinstance(obj, enum.Enum):
        return _json_str(f"{_qualified_name(type(obj))}.{obj.name}")
    raise _Unfingerprintable(type(obj).__name__)


@functools.lru_cache(maxsize=256)
def _dataclass_field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of dataclass ``cls``, ``None`` for any other type
    (a dataclass *class* itself, whose type is ``type``, included)."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field_.name for field_ in dataclasses.fields(cls))


def _json_object(members: dict[str, str]) -> str:
    """JSON text of an object whose member values are already JSON text,
    members sorted by key as ``json.dumps(..., sort_keys=True)`` sorts them."""
    return (
        "{"
        + ", ".join([f"{_json_str(key)}: {members[key]}" for key in sorted(members)])
        + "}"
    )


def platform_signature(platform: "Platform") -> str | None:
    """Content digest of everything a platform contributes to flow results.

    The one name of a platform in the flow's keys: system-level result
    keys embed it, through the per-object memo
    :meth:`WcetAnalysisCache.platform_digest`, so results are keyed by
    platform *content* rather than object identity.
    The digest covers the full ADL description -- cores (processor timing
    models, scratchpads, tiles), the shared memory, the interconnect and
    the optional NoC -- including the qualified type of every nested
    component (see :func:`_component_json`), and also names, descriptions
    and clock rates that no analysis reads: platforms differing only in
    those share nothing, which costs sharing, never soundness.  Each
    distinct component object is described once, so the cost grows with
    the distinct components, not with how many cores share one.  Returns
    ``None`` when any component cannot be introspected (a custom
    non-dataclass model), in which case callers must treat the platform as
    unfingerprintable rather than risk a stale reuse.
    """
    try:
        text = _component_json(platform, {})
    except _Unfingerprintable:
        return None
    return _digest(text)


def read_cache_dir_stats(cache_dir: str | Path, count_entries: bool = True) -> dict:
    """Aggregate the stats records of a cache directory.

    Sums every record of every ``stats*.jsonl`` shard (one record per flush,
    across all processes) and, with ``count_entries``, also counts the
    distinct persisted entries (a full scan of every ``entries*.jsonl``
    shard -- pass ``False`` when diffing snapshots in a loop).  The
    system-level result tier is aggregated the same way from its
    ``sys-stats*.jsonl`` / ``sys-entries*.jsonl`` shards into the nested
    ``"system"`` dict; its ``misses`` count the analysed schedules whose
    fixed point ran and the metaheuristic searches that ran.
    Returns zeros for a missing or empty directory, so callers can diff
    before/after snapshots without special cases.
    """
    counter_keys = ("hits", "disk_hits", "misses", "flushed")
    totals: dict = dict.fromkeys((*counter_keys, "entries"), 0)
    totals["system"] = dict.fromkeys((*counter_keys, "entries"), 0)
    vdir = _version_dir(Path(cache_dir))
    if not vdir.is_dir():
        return totals
    for tier, prefix in _SHARD_PREFIXES.items():
        into = totals if tier == "code" else totals[tier]
        for stats_path in sorted(vdir.glob(f"{prefix}stats*.jsonl")):
            for line in stats_path.read_text(encoding="utf-8").splitlines():
                try:
                    record = json.loads(line)
                    for key in counter_keys:
                        into[key] += int(record.get(key, 0))
                except (ValueError, TypeError, AttributeError):
                    continue
        if count_entries:
            keys: set[str] = set()
            for entries_path in vdir.glob(f"{prefix}entries*.jsonl"):
                keys.update(key for key, _line, _record in _iter_shard_lines(entries_path))
            into["entries"] = len(keys)
    return totals


# ---------------------------------------------------------------------- #
# the process-wide shared cache
# ---------------------------------------------------------------------- #
_shared: WcetAnalysisCache | None = None
_atexit_registered = False


def _flush_shared_at_exit() -> None:  # pragma: no cover - interpreter teardown
    if _shared is not None:
        _shared.flush()


def shared_cache() -> WcetAnalysisCache:
    """The process-wide analysis cache used by every flow entry point.

    Toolchains, schedulers and mappers that are not handed an explicit cache
    all share this one, so a session running several mappers (or the same
    flow repeatedly) pays each distinct code-level analysis exactly once.
    When the :data:`CACHE_DIR_ENV_VAR` environment variable is set at first
    use, the shared cache is disk-backed at that directory and flushed
    automatically at interpreter exit, extending the "exactly once" to every
    process pointed at the same directory.
    """
    global _shared, _atexit_registered
    if _shared is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV_VAR)
        if cache_dir:
            _shared = WcetAnalysisCache.open(cache_dir)
            if not _atexit_registered:
                # one hook flushing whichever instance is current at exit,
                # so resets never stack stale callbacks
                atexit.register(_flush_shared_at_exit)
                _atexit_registered = True
        else:
            _shared = WcetAnalysisCache()
    return _shared


def reset_shared_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the environment.

    Flushes a disk-backed shared cache first.  Intended for tests and
    long-running drivers that change :data:`CACHE_DIR_ENV_VAR` mid-process.
    """
    global _shared
    if _shared is not None:
        _shared.flush()
    _shared = None
