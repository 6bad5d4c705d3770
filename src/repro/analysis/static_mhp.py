"""Schedule-independent static may-happen-in-parallel pruning.

The system-level fixed point re-derives contender sets from the task
windows on *every* iteration, treating any pair of time-overlapping tasks
on distinct cores as interfering.  Two classes of pairs can be excluded
once, statically, before the iteration starts:

* **Ordered pairs.**  A transitive HTG dependence forces ``finish(u) <=
  start(v)`` in every timeline the builder can produce (edge delays are
  non-negative), so the half-open windows can never overlap.  Excluding
  these pairs cannot change any contender count -- it is a pure speedup.
* **Address-disjoint pairs.**  Tasks whose shared-array footprints
  (:mod:`repro.analysis.footprints`) touch no common element generate no
  interference on an address-sensitive interconnect.  Excluding them can
  only *lower* contender counts, so the pruned bound is never looser than
  the unpruned one -- it models banked/address-aware arbitration, which is
  why pruning is opt-in (``static_pruning``) and the unpruned pass remains
  the differential oracle.

The relation is *schedule-independent*: it uses only the dependence
closure and the footprints, never the candidate timeline, so one relation
serves every fixed-point iteration of a design point.  Same-core pairs are also excluded from the skeleton -- the MHP
passes skip them anyway, so the pruned pair list starts strictly smaller.

Soundness of the ordering argument requires that every dependence the
closure uses is actually enforced by the timeline builder, which drops
edges touching unmapped tasks; the relation therefore falls back to the
closure of the mapped-task-induced subgraph whenever any edge endpoint is
unmapped (with its own :class:`~repro.utils.graphs.Reachability`).

Of the relation's inputs, only the sharers and the cores come from the
mapping: the enforced reachability, the footprints and their address
overlaps depend on which tasks are mapped, not where.  They are
:class:`StaticMhpBase`, which a search builds once per design point
(:attr:`~repro.wcet.system_level.SystemDesign.mhp_base`) so a candidate
applies only the sharer and same-core masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from repro.analysis.footprints import (
    FootprintStore,
    TaskFootprint,
    address_overlaps,
)
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.program import Function
from repro.utils.graphs import Reachability
from repro.wcet.cache import shared_cache


@dataclass(frozen=True)
class StaticMhpRelation:
    """Pruned contender skeleton: per task, the sharers that may contend.

    ``allowed[tid]`` lists the cross-core, unordered, non-address-disjoint
    sharers of ``tid`` -- the only tasks any MHP pass needs to test against
    ``tid``'s window.  Every leaf task has an entry (possibly empty).
    """

    allowed: dict[str, tuple[str, ...]]
    candidate_pairs: int
    pruned_same_core: int
    pruned_ordered: int
    pruned_disjoint: int
    kept_pairs: int
    footprints: dict[str, TaskFootprint] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "candidate_pairs": self.candidate_pairs,
            "pruned_same_core": self.pruned_same_core,
            "pruned_ordered": self.pruned_ordered,
            "pruned_disjoint": self.pruned_disjoint,
            "kept_pairs": self.kept_pairs,
        }


def _enforced_reachability(
    htg: HierarchicalTaskGraph, mapped: dict[str, None]
) -> Reachability[str]:
    """Dependence reachability restricted to orderings the timeline enforces."""
    if all(e.src in mapped and e.dst in mapped for e in htg.edges):
        return htg.reachability()
    return Reachability(
        mapped,
        [(e.src, e.dst) for e in htg.edges if e.src in mapped and e.dst in mapped],
    )


@dataclass(frozen=True)
class StaticMhpBase:
    """What the static-MHP relation of one set of mapped tasks does not take
    from the mapping: the enforced reachability, each task's footprint, and
    per task its reachability bit, the mask of the tasks it is ordered
    with and the mask of the tasks whose footprints overlap its own."""

    reach: Reachability[str]
    #: the mapped leaf tasks, in the HTG's leaf order
    task_ids: list[str]
    #: task id -> its footprint (read-only: every relation shares it)
    footprints: dict[str, TaskFootprint]
    #: task id -> (its bit, ordered-with mask, address-overlap mask)
    masks: dict[str, tuple[int, int, int]]

    def relation(self, mapping: dict[str, int], sharers: list[str]) -> StaticMhpRelation:
        """The relation of ``mapping`` (over exactly this base's tasks) and
        its ``sharers``: each task's kept sharers are cross-core sharers,
        minus ordered ones, intersected with its address overlaps."""
        reach = self.reach
        sharer_mask = 0
        sharers_on: dict[int, int] = {}
        for sid in sharers:
            bit = 1 << reach.index[sid]
            sharer_mask |= bit
            sharers_on[mapping[sid]] = sharers_on.get(mapping[sid], 0) | bit

        allowed: dict[str, tuple[str, ...]] = {}
        candidate = same_core = pruned_ordered = pruned_disjoint = kept = 0
        for tid in self.task_ids:
            bit, ordered, overlapping = self.masks[tid]
            others = sharer_mask & ~bit
            same = sharers_on.get(mapping[tid], 0) & ~bit
            cross = others & ~same
            unordered = cross & ~ordered
            keep = unordered & overlapping
            candidate += others.bit_count()
            same_core += same.bit_count()
            pruned_ordered += cross.bit_count() - unordered.bit_count()
            pruned_disjoint += unordered.bit_count() - keep.bit_count()
            kept += keep.bit_count()
            allowed[tid] = tuple(sorted(reach.members(keep)))
        return StaticMhpRelation(
            allowed=allowed,
            candidate_pairs=candidate,
            pruned_same_core=same_core,
            pruned_ordered=pruned_ordered,
            pruned_disjoint=pruned_disjoint,
            kept_pairs=kept,
            footprints=self.footprints,
        )


def static_mhp_base(
    htg: HierarchicalTaskGraph,
    function: Function,
    mapped: Collection[str],
    store: FootprintStore | None = None,
) -> StaticMhpBase:
    """The :class:`StaticMhpBase` of the tasks in ``mapped`` (the keys of a
    mapping, say), their footprints memoized via ``store`` (by default the
    footprint tier of :func:`~repro.wcet.cache.shared_cache`)."""
    store = store if store is not None else shared_cache().footprints
    members = dict.fromkeys(mapped)
    task_ids = [t.task_id for t in htg.leaf_tasks() if t.task_id in members]
    reach = _enforced_reachability(htg, members)
    footprints = {tid: store.footprint(function, htg.task(tid)) for tid in task_ids}
    overlaps = address_overlaps(footprints)
    masks = {}
    for tid in task_ids:
        i = reach.index[tid]
        masks[tid] = (
            1 << i,
            reach.descendants[i] | reach.ancestors[i],
            reach.mask(overlaps[tid]),
        )
    return StaticMhpBase(reach, task_ids, footprints, masks)


def compute_static_mhp(
    htg: HierarchicalTaskGraph,
    function: Function,
    mapping: dict[str, int],
    sharers: list[str],
    store: FootprintStore | None = None,
    base: StaticMhpBase | None = None,
) -> StaticMhpRelation:
    """Compute the pruned contender skeleton for one design point.

    ``sharers`` are the mapped leaf tasks that make shared accesses: those
    with a non-zero code-level count on their core (the system-level
    analysis passes its own; for an analysed schedule, the tasks with
    ``result.task_shared_accesses > 0``).  ``base`` is the
    :class:`StaticMhpBase` of ``mapping``'s tasks when the caller keeps one
    (built from ``store`` here otherwise).

    Each task's kept sharers are one mask expression over the reachability
    bitsets -- cross-core sharers, minus ordered ones, intersected with the
    address overlaps of :func:`address_overlaps` -- and every counter is a
    popcount, so no code runs per candidate pair.
    """
    if base is None:
        base = static_mhp_base(htg, function, mapping, store)
    return base.relation(mapping, sharers)
