"""Content-addressed result caching shared across the whole flow.

This module is the flow's **two-tier result cache**:

* the *code-level* tier (:class:`WcetAnalysisCache`) memoizes isolated task /
  region WCET analyses, and
* the *system-level* tier (:class:`SystemResultCache`, reachable as
  ``cache.system_results``) memoizes entire
  :class:`~repro.wcet.system_level.SystemWcetResult` objects -- the outcome
  of the contention-aware fixed point -- for repeated identical
  (mapped tasks, mapping, platform, config) combinations, so a warm sweep
  over a previously analysed design point skips the fixed point entirely.

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
  cost table, branch and loop overheads, the core's scratchpad latencies,
  the platform's uncontended shared-memory latencies and any storage
  overrides, and
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

* the fingerprints of the function and of every mapped task's statement
  region (the region fingerprints are the ones the code-level tier uses),
* the mapping and the per-core ordering,
* the platform's *contention signature*: the per-core cost signatures, each
  used core's shared-access penalty table for every possible contender
  count, and the worst-case priced delay of every edge between mapped
  tasks (which captures the interconnect/NoC transfer model), and
* the knobs that steer the fixed point itself (``max_iterations``,
  the number of cores).

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
  written by older versions); duplicate keys across shards are harmless (the
  content key fully determines the value) and malformed lines are skipped.
* ``stats-<pid>-<token>.jsonl`` -- one JSON object per :meth:`flush`,
  recording the hit/disk-hit/miss deltas of the flushing instance
  (single-writer, append-only).  Aggregated together with any legacy
  ``stats.jsonl`` by :func:`read_cache_dir_stats` so drivers like
  ``benchmarks/run_all.py`` can report cache effectiveness across
  subprocesses.

The system-level tier persists to the same version directory through its own
``sys-entries-*.jsonl`` / ``sys-stats-*.jsonl`` shards, following exactly the
same atomic-rewrite and merge-on-load rules; :meth:`WcetAnalysisCache.load`,
:meth:`~WcetAnalysisCache.flush` and :meth:`~WcetAnalysisCache.clear` always
cover both tiers.

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
statement / model objects (by identity) to their fingerprints, referenced
names, region contexts and cost signatures, which avoids re-rendering the
IR and re-digesting declarations and cost tables on every query.
Situations requiring cooperation from the caller:

1. **In-place IR mutation.**  If a function -- its body, a task's statement
   block, or its declarations (a storage class changed in place, a
   declaration appended) -- is mutated after it has been analysed, e.g. by
   running an IR transform, call
   :meth:`WcetAnalysisCache.invalidate_function` (or
   :meth:`~WcetAnalysisCache.invalidate_fingerprints` for a block outside
   the body) so the memoized fingerprints and contexts are recomputed.
   The toolchain invalidates after its transforms, before the first
   analysis.
2. **In-place platform / processor / cost-model mutation.**  Platform,
   processor and :class:`~repro.wcet.hardware_model.HardwareCostModel`
   objects are treated as immutable (their cost signature is memoized per
   object).  Mutating one in place requires
   :meth:`WcetAnalysisCache.clear` (or simply building fresh objects, which
   is the supported style and needs no invalidation at all).

Everything else -- new functions, new platforms, new storage overrides,
feedback iterations that recompile the model -- is handled transparently:
unchanged IR hits the cache, changed IR misses it.
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
import uuid
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection, Iterator

from repro import obs
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task
from repro.ir.analysis import referenced_names, shared_names
from repro.ir.printer import function_to_c, to_c
from repro.ir.program import Function
from repro.ir.statements import Block
from repro.utils.intervals import Interval
from repro.wcet.code_level import WcetBreakdown, statement_wcet
from repro.wcet.hardware_model import HardwareCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adl.architecture import Platform
    from repro.analysis.footprints import FootprintStore
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
CACHE_SCHEMA_VERSION = 4

#: Environment variable naming the cache directory of the process-wide
#: shared cache (see :func:`shared_cache`).
CACHE_DIR_ENV_VAR = "REPRO_WCET_CACHE_DIR"

_ENTRY_FIELDS = ("total", "compute", "memory", "control", "shared_accesses")


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


class _RegionMemo:
    """One statement region's fingerprint and, once a key needs them, the
    names it references."""

    __slots__ = ("fingerprint", "names")

    def __init__(self, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self.names: frozenset[str] | None = None


class _DeclarationMemo:
    """What region-scoped keys have read through one function."""

    __slots__ = ("contexts", "rows", "shared")

    def __init__(self) -> None:
        #: region fingerprint (with any extra names) -> region context
        self.contexts: dict[object, str] = {}
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


@dataclass
class _KeyParts:
    """One design point's mapping-invariant result-key parts (see ``result_key``)."""

    function: str
    #: (task, region fingerprint), sorted by task
    regions: list[tuple[str, str]]
    #: every HTG edge as (src, dst), sorted
    edges: list[tuple[str, str]]
    #: core -> (core, cost-signature digest, shared-access penalty table)
    models: dict[int, tuple] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# shard-file primitives shared by both cache tiers
# ---------------------------------------------------------------------- #
def _iter_shard_lines(path: Path) -> Iterator[tuple[str, str, dict]]:
    """Yield ``(key, raw line, parsed record)`` for every well-formed line.

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
            key = record["key"]
        except (ValueError, KeyError, TypeError):
            continue
        if not isinstance(key, str):
            continue
        yield key, line, record


def _replace_shard(vdir: Path, final_path: Path, lines: list[str]) -> None:
    """Atomically rewrite one shard file (tempfile + ``os.replace``)."""
    fd, tmp_name = tempfile.mkstemp(dir=vdir, prefix=".shard-", suffix=".tmp")
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


class _ShardBackedTier:
    """Shared shard-file plumbing of the two cache tiers.

    Expects the concrete tier to provide ``_cache_dir`` (``Path | None``),
    ``_shard_token`` (``str``), ``_entries`` / ``_loaded`` / ``_persisted``
    and ``_own_lines`` attributes following the semantics documented on
    :class:`WcetAnalysisCache`.
    """

    _cache_dir: Path | None
    _shard_token: str
    _entries: dict[str, Any]
    _loaded: set[str]
    _persisted: set[str]
    _own_lines: dict[str, str]

    def _version_dir(self) -> Path:
        assert self._cache_dir is not None
        return self._cache_dir / f"v{CACHE_SCHEMA_VERSION}"

    def _shard_path(self, vdir: Path, kind: str) -> Path:
        # The pid is resolved at write time, not at construction: a cache
        # instance inherited through fork() then gets its own shard file in
        # the child process instead of racing the parent for one.
        return vdir / f"{kind}-{os.getpid()}-{self._shard_token}.jsonl"

    def _hot_keys(self) -> set[str]:
        """Keys used in this process (computed, or looked up at least once)."""
        return set(self._entries) - self._loaded

    def _rewrite_disk_entries(self, vdir: Path, kind: str, kept: dict[str, str]) -> None:
        """Compact this tier's on-disk shards down to ``kept`` (key -> line)."""
        own = self._shard_path(vdir, kind)
        for path in vdir.glob(f"{kind}*.jsonl"):
            if path != own:
                path.unlink(missing_ok=True)
        if kept:
            _replace_shard(vdir, own, list(kept.values()))
        else:
            own.unlink(missing_ok=True)
        self._persisted = set(kept)
        self._loaded &= set(kept)
        self._own_lines = dict(kept)


@dataclass
class WcetAnalysisCache(_ShardBackedTier):
    """Shared memo of code-level WCET analyses (see module docstring)."""

    stats: CacheStats = field(default_factory=CacheStats)
    #: content-key -> analysed breakdown (never stale; see module docstring)
    _entries: dict[str, WcetBreakdown] = field(default_factory=dict, repr=False)
    #: id(Function) -> fingerprint (dropped via weakref.finalize on GC)
    _function_fps: dict[int, str] = field(default_factory=dict, repr=False)
    #: id(Block) -> the region's fingerprint and referenced names
    _region_fps: dict[int, "_RegionMemo"] = field(default_factory=dict, repr=False)
    #: id(Function) -> what region keys read through it (see ``region_context``)
    _declarations: dict[int, "_DeclarationMemo"] = field(default_factory=dict, repr=False)
    #: id(HardwareCostModel) -> (signature tuple, digest)
    _model_sigs: dict[int, tuple[tuple, str]] = field(default_factory=dict, repr=False)
    #: objects that could not be weakref'd, pinned so their ids stay valid
    _pins: list = field(default_factory=list, repr=False)
    #: keys of entries loaded from disk (they count as ``disk_hits``)
    _loaded: set[str] = field(default_factory=set, repr=False)
    #: keys already present in any on-disk shard (loaded or flushed)
    _persisted: set[str] = field(default_factory=set, repr=False)
    #: serialized content of this instance's own shard file (survives
    #: clear(); rewritten wholesale on every flush so the replace is atomic)
    _own_lines: dict[str, str] = field(default_factory=dict, repr=False)
    #: lazily created system-level result tier (see :attr:`system_results`)
    _system: "SystemResultCache | None" = field(default=None, repr=False)
    #: lazily created task-footprint memo (see :attr:`footprints`)
    _footprints: "FootprintStore | None" = field(default=None, repr=False)
    #: per-instance token making the shard file name unique even when two
    #: caches in one process share a directory
    _shard_token: str = field(default_factory=lambda: uuid.uuid4().hex[:8], repr=False)
    #: stats snapshot at the last flush, for per-flush delta records
    _flushed_stats: tuple[int, int, int] = field(default=(0, 0, 0), repr=False)
    _cache_dir: Path | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def _remember(self, memo: dict, obj, value):
        """Memoize ``value`` under ``id(obj)`` without leaking the object.

        A finalizer drops the memo entry when the object is collected (at
        which point its id may be reused); objects that do not support weak
        references are pinned instead so their ids stay valid.
        """
        memo[id(obj)] = value
        try:
            weakref.finalize(obj, memo.pop, id(obj), None)
        except TypeError:  # pragma: no cover - all memoized types are weakref-able
            self._pins.append(obj)
        return value

    def _function_fingerprint(self, function: Function) -> str:
        cached = self._function_fps.get(id(function))
        if cached is None:
            cached = self._remember(
                self._function_fps, function, _digest(function_to_c(function))
            )
        return cached

    def _region(self, region: Block) -> _RegionMemo:
        memo = self._region_fps.get(id(region))
        if memo is None:
            memo = self._remember(self._region_fps, region, _RegionMemo(_digest(to_c(region))))
        return memo

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
        reference a name it declares.  Memoized per function and region
        content; ``extra_names`` the region references anyway (a task's
        declared read/write sets, as extracted) share the region's entry.
        """
        return self._region_context(self._region(region), region, function, extra_names)

    def _region_context(
        self,
        memo: _RegionMemo,
        region: Block,
        function: Function,
        extra_names: Collection[str] = (),
    ) -> str:
        declarations = self._declaration_memo(function)
        names = memo.names
        if names is None:
            names = memo.names = referenced_names(region)
        key: object = memo.fingerprint
        if extra_names and not names.issuperset(extra_names):
            names = names.union(extra_names)
            key = (memo.fingerprint, names)
        context = declarations.contexts.get(key)
        if context is None:
            context = declarations.contexts[key] = declarations.context_of(function, names)
        return context

    def shared_names(self, function: Function) -> tuple[frozenset[str], frozenset[str]]:
        """Memoized :func:`~repro.ir.analysis.shared_names` of a function."""
        memo = self._declaration_memo(function)
        if memo.shared is None:
            memo.shared = shared_names(function)
        return memo.shared

    def model_signature(self, model: HardwareCostModel) -> tuple:
        """Cost-relevant identity of a hardware model, by *content*.

        Collects every number the code-level analysis can observe through the
        model: the processor's operation cost table and control overheads,
        the core's scratchpad latencies, the platform's uncontended
        shared-memory latencies and the storage overrides.  Identical cores
        therefore share entries regardless of object identity, platform
        instance or process -- which is what makes heterogeneous platforms
        with repeated core types, and disk-backed sharing, work.
        """
        return self._model_signature(model)[0]

    def function_fingerprint(self, function: Function) -> str:
        """Memoized content fingerprint of a whole function (public API)."""
        return self._function_fingerprint(function)

    def region_fingerprint(self, region: Block) -> str:
        """Memoized content fingerprint of one statement region (public API)."""
        return self._region(region).fingerprint

    def model_signature_digest(self, model: HardwareCostModel) -> str:
        """Digest of :meth:`model_signature` (what entry keys embed)."""
        return self._model_signature(model)[1]

    def _model_signature(self, model: HardwareCostModel) -> tuple[tuple, str]:
        cached = self._model_sigs.get(id(model))
        if cached is None:
            platform = model.platform
            core = platform.core(model.core_id)
            proc = core.processor
            override = tuple(
                sorted((name, storage.name) for name, storage in model.storage_override.items())
            )
            signature = (
                tuple(sorted((op, float(c)) for op, c in proc.op_cycles.items())),
                float(proc.branch_cycles),
                float(proc.loop_overhead_cycles),
                float(core.scratchpad.read_latency),
                float(core.scratchpad.write_latency),
                float(platform.shared_read_latency(0)),
                float(platform.shared_write_latency(0)),
                override,
            )
            digest = _digest(json.dumps(signature, separators=(",", ":")))
            cached = self._remember(self._model_sigs, model, (signature, digest))
        return cached

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
                memo.fingerprint,
                self._model_signature(model)[1],
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
        key = self.entry_key(region, function, model, average)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = statement_wcet(region, function, model, average)
            self._entries[key] = entry
        elif key in self._loaded:
            # only the *first* use of a loaded entry is a disk hit; repeat
            # lookups are in-process hits (see the CacheStats docstring)
            self._loaded.discard(key)
            self.stats.disk_hits += 1
        else:
            self.stats.hits += 1
        # hand out a copy so callers can never corrupt the cached entry
        return replace(entry)

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
        """Memoized isolated WCET of a whole function body."""
        return self.region_wcet(function.body, function, model, average)

    def annotate_htg(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        model: HardwareCostModel,
        acet_model: HardwareCostModel | None = None,
        only: "Collection[str] | None" = None,
    ) -> None:
        """Cached counterpart of :func:`~repro.wcet.code_level.annotate_htg_wcets`.

        With ``only`` set, just the named tasks are (re)annotated; the
        caller asserts every other task already carries a valid
        ``wcet``/``acet`` for ``model`` (the incremental pipeline passes the
        re-extracted task ids here -- reused tasks are copies of previously
        annotated ones and the platform signature is proven unchanged).
        """
        for task in htg.tasks.values():
            if only is not None and task.task_id not in only and not task.is_synthetic:
                continue
            if task.is_synthetic:
                task.wcet = 0.0
                task.acet = 0.0
                continue
            task.wcet = self.task_wcet(task, function, model).total
            acet = self.task_wcet(task, function, acet_model or model, average=True).total
            task.acet = min(acet, task.wcet)

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
        return self._cache_dir

    def load(self, cache_dir: str | Path) -> int:
        """Attach the cache to ``cache_dir`` and pull in its entries.

        Creates the version-stamped subdirectory if needed, merges every
        well-formed line of every ``entries*.jsonl`` shard (duplicates and
        torn lines are skipped) and returns the number of entries added.
        Entries from other schema versions are ignored.

        Re-attaching to a *different* directory forgets what was persisted
        where: every in-memory entry becomes flushable to the new directory
        (so switching directories cannot silently drop entries).
        """
        cache_dir = Path(cache_dir)
        if self._cache_dir is not None and cache_dir != self._cache_dir:
            self._persisted.clear()
            self._loaded.clear()
            self._own_lines.clear()
        self._cache_dir = cache_dir
        vdir = self._version_dir()
        vdir.mkdir(parents=True, exist_ok=True)
        loaded = 0
        for entries_path in sorted(vdir.glob("entries*.jsonl")):
            for key, _line, record in _iter_shard_lines(entries_path):
                try:
                    entry = WcetBreakdown(
                        total=float(record["total"]),
                        compute=float(record["compute"]),
                        memory=float(record["memory"]),
                        control=float(record["control"]),
                        shared_accesses=int(record["shared_accesses"]),
                    )
                except (ValueError, KeyError, TypeError):
                    continue  # torn line or foreign content: skip, never fail
                self._persisted.add(key)
                if key not in self._entries:
                    self._entries[key] = entry
                    self._loaded.add(key)
                    loaded += 1
        if self._system is not None:
            self._system.load(cache_dir)
        return loaded

    def flush(self) -> int:
        """Persist every not-yet-persisted entry to this instance's shard.

        Returns the number of new entries written (0 for a memory-only
        cache, so it is always safe to call).  The shard file is rewritten
        through a tempfile and ``os.replace``, so a concurrent reader never
        sees a torn file and concurrent flushes from other processes (which
        own different shards) cannot interleave.  Also appends one hit/miss
        delta record to this instance's stats shard so cache effectiveness
        can be aggregated across processes by :func:`read_cache_dir_stats`.

        The system-level result tier (when it has been used) is flushed
        along; the return value counts *code-level* entries only.
        """
        if self._system is not None:
            self._system.flush()
        if self._cache_dir is None:
            return 0
        fresh = {
            key: entry for key, entry in self._entries.items() if key not in self._persisted
        }
        snapshot = (self.stats.hits, self.stats.disk_hits, self.stats.misses)
        # self-heal: a concurrent evict() in another process deletes every
        # shard it does not own, including this live instance's -- restore
        # our own flushed entries rather than silently losing them
        clobbered = bool(self._own_lines) and not self._shard_path(
            self._version_dir(), "entries"
        ).exists()
        if not fresh and not clobbered and snapshot == self._flushed_stats:
            return 0  # nothing to record: do not even touch the directory
        vdir = self._version_dir()
        vdir.mkdir(parents=True, exist_ok=True)
        if fresh or clobbered:
            for key, entry in fresh.items():
                self._own_lines[key] = json.dumps(
                    {"key": key, **{f: getattr(entry, f) for f in _ENTRY_FIELDS}},
                    separators=(",", ":"),
                )
            _replace_shard(vdir, self._shard_path(vdir, "entries"), list(self._own_lines.values()))
            self._persisted.update(fresh)
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
            with self._shard_path(vdir, "stats").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._flushed_stats = snapshot
        return len(fresh)

    # ------------------------------------------------------------------ #
    # the system-level result tier
    # ------------------------------------------------------------------ #
    @property
    def system_results(self) -> "SystemResultCache":
        """The system-level tier of this cache (created on first use).

        Shares this instance's fingerprint memos (so keys are cheap to
        derive) and its backing directory: when the cache is disk-backed the
        tier is loaded from the same version directory, and
        :meth:`flush` / :meth:`clear` / :meth:`evict` cover it.
        """
        if self._system is None:
            self._system = SystemResultCache(fingerprints=self)
            if self._cache_dir is not None:
                self._system.load(self._cache_dir)
        return self._system

    @property
    def footprints(self) -> "FootprintStore":
        """The task-footprint memo keyed through this cache (created on first use).

        Shares this instance's region memos, so a footprint lookup renders
        nothing a WCET lookup of the same region already rendered, and
        :meth:`invalidate_function` / :meth:`clear` cover its keys.
        In-memory only.
        """
        if self._footprints is None:
            from repro.analysis.footprints import FootprintStore

            self._footprints = FootprintStore(wcet_cache=self)
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

        Ranks every on-disk entry of *both* tiers -- code-level analyses and
        system-level results -- and drops the lowest-ranked ones until the
        configured bounds hold:

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
        if self._cache_dir is None:
            raise ValueError("evict() requires a disk-backed cache; call load() first")
        self.flush()
        system = self.system_results
        vdir = self._version_dir()
        if not vdir.is_dir():  # nothing was ever flushed
            return {"kept": 0, "evicted": 0, "kept_bytes": 0, "tiers": {}}
        now = time.time()
        #: rank order at equal age: one system-level result replaces an
        #: entire fixed point, so the system tier must never be starved by
        #: the (far more numerous, individually cheaper) code entries that
        #: the same flush wrote moments later
        tiers: dict[str, tuple] = {
            "system": (system, "sys-entries"),
            "code": (self, "entries"),
        }
        tier_rank = {name: rank for rank, name in enumerate(tiers)}
        candidates: list[tuple[bool, float, str, str, str]] = []
        for tier_name, (tier, kind) in tiers.items():
            hot = tier._hot_keys()
            per_key: dict[str, tuple[float, str]] = {}
            shard_mtimes: dict[Path, float] = {}
            for path in vdir.glob(f"{kind}*.jsonl"):
                try:
                    shard_mtimes[path] = path.stat().st_mtime
                except OSError:  # racing a concurrent evict/flush: skip
                    continue
            # oldest first, so the newest shard wins duplicate keys
            for path, mtime in sorted(shard_mtimes.items(), key=lambda kv: kv[1]):
                for key, line, _record in _iter_shard_lines(path):
                    per_key[key] = (mtime, line)
            for key, (mtime, line) in per_key.items():
                is_hot = key in hot
                candidates.append((is_hot, now if is_hot else mtime, tier_name, key, line))
        # hot entries first, then newest at whole-second granularity (both
        # tiers of one flush land in the same bucket, where the system tier
        # ranks first); ties broken by key for determinism
        candidates.sort(
            key=lambda c: (not c[0], -int(c[1]), tier_rank[c[2]], c[3])
        )
        kept: dict[str, dict[str, str]] = {name: {} for name in tiers}
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
        for tier_name, (tier, kind) in tiers.items():
            tier._rewrite_disk_entries(vdir, kind, kept[tier_name])
        stats_shards_removed = 0
        if max_age_seconds is not None:
            for kind in ("stats", "sys-stats"):
                for path in vdir.glob(f"{kind}*.jsonl"):
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
            "tiers": {name: len(kept[name]) for name in tiers},
        }

    # ------------------------------------------------------------------ #
    def invalidate_function(self, function: Function) -> None:
        """Forget memoized fingerprints after an in-place IR mutation.

        Drops the function's fingerprint, every region context and shared
        name set derived from its declarations, and the fingerprints and
        referenced names of the blocks of its body.  Content-addressed
        entries themselves stay valid (the mutated IR will simply produce
        new keys): after a storage class changes in place, exactly the
        regions that reference that name get new keys.
        """
        self._function_fps.pop(id(function), None)
        self._declarations.pop(id(function), None)
        self._region_fps.pop(id(function.body), None)
        for stmt in function.body.walk():
            if isinstance(stmt, Block):
                self._region_fps.pop(id(stmt), None)

    def invalidate_fingerprints(self, obj: object) -> None:
        """Forget every memoized fingerprint/signature derived from ``obj``.

        The fingerprint memos are keyed by ``id(obj)``: cheap, but blind to
        in-place mutation.  **Mutating an object after this cache has
        fingerprinted it, without calling this method, is undefined
        behaviour** -- the stale memo would keep addressing the pre-mutation
        analysis results.  Callers that mutate IR, tasks or cost models in
        place (transform passes, the incremental re-analysis engine, edit
        scripts) must invalidate first; content-addressed entries themselves
        stay valid because the re-rendered object simply produces new keys.

        Accepts a :class:`~repro.ir.program.Function`, a statement
        :class:`~repro.ir.statements.Block`, a :class:`~repro.htg.task.Task`,
        a whole :class:`~repro.htg.graph.HierarchicalTaskGraph` or a
        :class:`~repro.wcet.hardware_model.HardwareCostModel`.
        """
        if isinstance(obj, Function):
            self.invalidate_function(obj)
        elif isinstance(obj, Block):
            self._region_fps.pop(id(obj), None)
            for stmt in obj.walk():
                if isinstance(stmt, Block):
                    self._region_fps.pop(id(stmt), None)
        elif isinstance(obj, Task):
            self.invalidate_fingerprints(obj.statements)
        elif isinstance(obj, HierarchicalTaskGraph):
            for task in obj.tasks.values():
                self.invalidate_fingerprints(task.statements)
        elif isinstance(obj, HardwareCostModel):
            self._model_sigs.pop(id(obj), None)
        else:
            raise TypeError(
                "invalidate_fingerprints expects a Function, Block, Task, "
                f"HierarchicalTaskGraph or HardwareCostModel, got {type(obj).__name__}"
            )

    def clear(self) -> None:
        """Drop every in-memory entry and memo (stats are kept).

        On-disk entries are *not* deleted: the backing directory stays
        attached and can be re-read with :meth:`load`, and already-persisted
        keys are remembered so a later :meth:`flush` does not duplicate them.
        """
        self._entries.clear()
        self._function_fps.clear()
        self._region_fps.clear()
        self._declarations.clear()
        self._model_sigs.clear()
        self._pins.clear()
        self._loaded.clear()
        self._footprints = None
        if self._system is not None:
            self._system.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        """An empty cache is still a cache (``len`` would make it falsy)."""
        return True


# ---------------------------------------------------------------------- #
# the system-level result tier
# ---------------------------------------------------------------------- #
class SystemResultCache(_ShardBackedTier):
    """Content-addressed memo of whole system-level analysis results.

    The second tier of the flow's result cache (see the module docstring):
    one entry is a complete :class:`~repro.wcet.system_level.SystemWcetResult`
    keyed by everything the fixed point can observe -- the function and
    per-task region fingerprints, the mapping, the per-core ordering, the
    per-core cost signatures and shared-access penalty tables, the priced
    worst-case delay of every edge between mapped tasks, the core count and
    ``max_iterations``.  Identical design points therefore share entries
    across schedulers, processes and (when disk-backed) machines, and a warm
    lookup skips the fixed point *and* the per-task code-level analyses.

    The in-memory side is a bounded LRU (``max_memory_entries``): mapper
    metaheuristics evaluate thousands of distinct mappings, and keeping all
    of their full results alive would trade one scaling problem for another.
    Disk persistence follows the exact shard scheme of the code-level tier,
    under ``sys-entries*.jsonl`` / ``sys-stats*.jsonl`` in the same
    version-stamped directory.

    Instances are usually reached through
    :attr:`WcetAnalysisCache.system_results`, which shares the code-level
    tier's fingerprint memos and backing directory.
    """

    def __init__(
        self,
        fingerprints: WcetAnalysisCache | None = None,
        max_memory_entries: int | None = 2048,
    ) -> None:
        self.stats = CacheStats()
        self.max_memory_entries = max_memory_entries
        #: fingerprint/memo provider (identity memos shared with the owning
        #: code-level tier so keys are cheap to derive)
        self._fingerprints = fingerprints if fingerprints is not None else WcetAnalysisCache()
        #: content key -> serializable record (insertion order = LRU order)
        self._entries: dict[str, dict] = {}
        self._loaded: set[str] = set()
        self._persisted: set[str] = set()
        self._own_lines: dict[str, str] = {}
        self._shard_token = uuid.uuid4().hex[:8]
        self._flushed_stats: tuple[int, int, int] = (0, 0, 0)
        self._cache_dir: Path | None = None

    # ------------------------------------------------------------------ #
    # content addressing
    # ------------------------------------------------------------------ #
    def result_key(
        self,
        htg: HierarchicalTaskGraph,
        function: Function,
        platform: "Platform",
        mapping: dict[str, int],
        order: dict[int, list[str]],
        storage_override=None,
        max_iterations: int = 25,
        static_pruning: bool = False,
        design: "SystemDesign | None" = None,
    ) -> str:
        """The stable content key of one system-level analysis.

        The mapping-invariant parts -- the function fingerprint, each task's
        region fingerprint, the sorted edge list and each core's cost
        signature digest and shared-access penalty table -- are derived once
        per design point and kept in ``design.key_parts``; a call adds what
        its mapping picks, and edges are priced through the design.  Where
        the parts come from never changes the payload, so keys stay
        addressable across versions.  ``design`` is the
        :class:`~repro.wcet.system_level.SystemDesign` of these inputs that
        a scheduler search shares across its candidates; ``None`` builds a
        one-shot design.
        """
        if design is None:
            from repro.wcet.system_level import SystemDesign

            design = SystemDesign(htg, function, platform, storage_override)
        else:
            design.check(htg, function, platform, storage_override)
        fp = self._fingerprints
        parts: _KeyParts | None = design.key_parts
        if parts is None:
            parts = design.key_parts = _KeyParts(
                function=fp.function_fingerprint(function),
                regions=[
                    (tid, fp.region_fingerprint(htg.task(tid).statements))
                    for tid in sorted(design.leaf_ids)
                ],
                edges=sorted(design.edges),
            )
        models = parts.models
        cores = sorted({mapping[tid] for tid in design.leaf_ids if tid in mapping})
        for core in cores:
            if core not in models:
                digest = fp.model_signature_digest(design.model(core))
                models[core] = (core, digest, design.penalties(core))
        payload = {
            "function": parts.function,
            "tasks": [(tid, region, mapping.get(tid, -1)) for tid, region in parts.regions],
            "order": sorted((core, list(tids)) for core, tids in order.items()),
            "models": [models[core] for core in cores],
            "edges": [
                (
                    src,
                    dst,
                    0.0
                    if mapping[src] == mapping[dst]
                    else design.edge_delay(src, dst, mapping[src], mapping[dst]),
                )
                for src, dst in parts.edges
                if src in mapping and dst in mapping
            ],
            "num_cores": design.num_cores,
            "max_iterations": max_iterations,
        }
        if static_pruning:
            # added only when pruning is on: unpruned keys stay byte-identical
            # to every earlier schema (old disk entries remain addressable and
            # the opt-out path is bit-identical), while pruned results live
            # under keys unpruned code never derives
            payload["static_pruning"] = True
        return _digest(json.dumps(payload, separators=(",", ":"), sort_keys=True))

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
                    # base WCET / shared accesses feed the fixed-point
                    # certificate checker on replay; hand-built results
                    # without them degrade to base == effective, shared == 0
                    # (every certificate check stays sound, some lose teeth)
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

        # coerce explicitly: _valid_record only checks *convertibility*, so
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

    @staticmethod
    def _valid_record(record: dict) -> bool:
        try:
            tasks = record["tasks"]
            cores = record["cores"]
            if not isinstance(tasks, dict) or not isinstance(cores, dict):
                return False
            for row in tasks.values():
                if len(row) != 6:
                    return False
                float(row[0]), float(row[1]), float(row[2]), int(row[3])
                float(row[4]), int(row[5])
            for core in cores.values():
                int(core)
            allowed = record.get("allowed")
            if allowed is not None:
                if not isinstance(allowed, dict):
                    return False
                for others in allowed.values():
                    if not isinstance(others, list) or not all(
                        isinstance(o, str) for o in others
                    ):
                        return False
            float(record["makespan"])
            float(record["interference"])
            float(record["communication"])
            float(record.get("final_delta", 0.0))
            int(record["iterations"])
            return isinstance(record["converged"], bool)
        except (KeyError, TypeError, ValueError):
            return False

    def get(self, key: str) -> "SystemWcetResult | None":
        """The cached result under ``key`` (a fresh object), or ``None``.

        A ``None`` return counts as a miss -- the caller is expected to run
        the analysis and :meth:`put` the outcome.
        """
        record = self._entries.get(key)
        if record is None:
            self.stats.misses += 1
            return None
        if key in self._loaded:
            self._loaded.discard(key)
            self.stats.disk_hits += 1
        else:
            self.stats.hits += 1
        # LRU touch: re-insertion moves the key to the newest position
        del self._entries[key]
        self._entries[key] = record
        return self._result_of(record)

    def put(self, key: str, result: "SystemWcetResult") -> None:
        """Memoize ``result`` under ``key`` (oldest entries drop past the LRU bound)."""
        self._entries.pop(key, None)
        self._entries[key] = self._record_of(result)
        if self.max_memory_entries is not None:
            while len(self._entries) > self.max_memory_entries:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._loaded.discard(oldest)

    # ------------------------------------------------------------------ #
    # disk persistence (same shard scheme as the code-level tier)
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, cache_dir: str | Path) -> "SystemResultCache":
        """A fresh standalone tier pre-loaded from (and flushing to) ``cache_dir``."""
        cache = cls()
        cache.load(cache_dir)
        return cache

    @property
    def cache_dir(self) -> Path | None:
        return self._cache_dir

    def load(self, cache_dir: str | Path) -> int:
        """Attach to ``cache_dir`` and merge its ``sys-entries*.jsonl`` shards."""
        cache_dir = Path(cache_dir)
        if self._cache_dir is not None and cache_dir != self._cache_dir:
            self._persisted.clear()
            self._loaded.clear()
            self._own_lines.clear()
        self._cache_dir = cache_dir
        vdir = self._version_dir()
        vdir.mkdir(parents=True, exist_ok=True)
        loaded = 0
        for entries_path in sorted(vdir.glob("sys-entries*.jsonl")):
            for key, _line, record in _iter_shard_lines(entries_path):
                record.pop("key", None)
                if not self._valid_record(record):
                    continue
                self._persisted.add(key)
                if key not in self._entries:
                    self._entries[key] = record
                    self._loaded.add(key)
                    loaded += 1
        return loaded

    def flush(self) -> int:
        """Persist every not-yet-persisted result to this instance's shard."""
        if self._cache_dir is None:
            return 0
        fresh = {
            key: record for key, record in self._entries.items() if key not in self._persisted
        }
        snapshot = (self.stats.hits, self.stats.disk_hits, self.stats.misses)
        # self-heal after a concurrent evict() deleted this shard (see the
        # code-level tier's flush for the rationale)
        clobbered = bool(self._own_lines) and not self._shard_path(
            self._version_dir(), "sys-entries"
        ).exists()
        if not fresh and not clobbered and snapshot == self._flushed_stats:
            return 0
        vdir = self._version_dir()
        vdir.mkdir(parents=True, exist_ok=True)
        if fresh or clobbered:
            for key, record in fresh.items():
                self._own_lines[key] = json.dumps(
                    {"key": key, **record}, separators=(",", ":")
                )
            self._persisted.update(fresh)
            # the own-shard buffer obeys the same bound as the LRU: without
            # this, every flush of a long-lived driver would accrete more
            # multi-KB result lines forever and the "bounded in-memory
            # side" promise would only hold for _entries
            if self.max_memory_entries is not None:
                while len(self._own_lines) > self.max_memory_entries:
                    oldest = next(iter(self._own_lines))
                    del self._own_lines[oldest]
                    self._persisted.discard(oldest)
            _replace_shard(
                vdir, self._shard_path(vdir, "sys-entries"), list(self._own_lines.values())
            )
        delta = tuple(now - then for now, then in zip(snapshot, self._flushed_stats))
        if fresh or any(delta):
            record = {
                "pid": os.getpid(),
                "hits": delta[0],
                "disk_hits": delta[1],
                "misses": delta[2],
                "flushed": len(fresh),
            }
            with self._shard_path(vdir, "sys-stats").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._flushed_stats = snapshot
        return len(fresh)

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every in-memory result (stats and on-disk shards are kept)."""
        self._entries.clear()
        self._loaded.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return True


class _Unfingerprintable(Exception):
    """A platform component content addressing cannot describe."""


def _describe_component(obj):
    """JSON-able content description of one platform component.

    Every dataclass level records its concrete type name, so a subclass
    that overrides behaviour while keeping the base fields (a custom
    processor model, say) can never digest identically to the base.
    Anything that is neither a dataclass, a plain container nor a scalar is
    refused -- a ``str()`` fallback would happily bake an address-bearing
    ``repr`` into the digest and defeat content addressing.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        described = {"__type__": type(obj).__name__}
        for field_ in dataclasses.fields(obj):
            described[field_.name] = _describe_component(getattr(obj, field_.name))
        return described
    if isinstance(obj, dict):
        return {str(key): _describe_component(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_describe_component(item) for item in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    raise _Unfingerprintable(type(obj).__name__)


def platform_signature(platform: "Platform") -> str | None:
    """Content digest of everything a platform contributes to flow results.

    Used as the pipeline's ``platform`` run fingerprint, so stage replay is
    keyed by platform *content* rather than object identity.  The digest
    covers the full ADL description -- cores (processor timing models,
    scratchpads, tiles), the shared memory, the interconnect and the
    optional NoC -- including the concrete type of every nested component.
    Returns ``None`` when any component cannot be introspected (a custom
    non-dataclass model), in which case callers must treat the platform as
    unfingerprintable rather than risk a stale replay.
    """
    try:
        payload = _describe_component(platform)
    except _Unfingerprintable:
        return None
    return _digest(json.dumps(payload, sort_keys=True))


def read_cache_dir_stats(cache_dir: str | Path, count_entries: bool = True) -> dict:
    """Aggregate the stats records of a cache directory.

    Sums every record of every ``stats*.jsonl`` shard (one record per flush,
    across all processes) and, with ``count_entries``, also counts the
    distinct persisted entries (a full scan of every ``entries*.jsonl``
    shard -- pass ``False`` when diffing snapshots in a loop).  The
    system-level result tier is aggregated the same way from its
    ``sys-stats*.jsonl`` / ``sys-entries*.jsonl`` shards into the nested
    ``"system"`` dict; its ``misses`` count the fixed points actually run.
    Returns zeros for a missing or empty directory, so callers can diff
    before/after snapshots without special cases.
    """
    counter_keys = ("hits", "disk_hits", "misses", "flushed")
    totals = {key: 0 for key in counter_keys}
    totals["entries"] = 0
    totals["system"] = {key: 0 for key in counter_keys}
    totals["system"]["entries"] = 0
    vdir = Path(cache_dir) / f"v{CACHE_SCHEMA_VERSION}"
    if not vdir.is_dir():
        return totals

    def _aggregate(stats_pattern: str, entries_pattern: str, into: dict) -> None:
        for stats_path in sorted(vdir.glob(stats_pattern)):
            for line in stats_path.read_text(encoding="utf-8").splitlines():
                try:
                    record = json.loads(line)
                    for key in counter_keys:
                        into[key] += int(record.get(key, 0))
                except (ValueError, TypeError):
                    continue
        if count_entries:
            keys = set()
            for entries_path in sorted(vdir.glob(entries_pattern)):
                for key, _line, _record in _iter_shard_lines(entries_path):
                    keys.add(key)
            into["entries"] = len(keys)

    _aggregate("stats*.jsonl", "entries*.jsonl", totals)
    _aggregate("sys-stats*.jsonl", "sys-entries*.jsonl", totals["system"])
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
