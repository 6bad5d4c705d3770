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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    htg: HierarchicalTaskGraph, mapping: dict[str, int]
) -> Reachability[str]:
    """Dependence reachability restricted to orderings the timeline enforces."""
    if all(e.src in mapping and e.dst in mapping for e in htg.edges):
        return htg.reachability()
    return Reachability(
        mapping,
        [(e.src, e.dst) for e in htg.edges if e.src in mapping and e.dst in mapping],
    )


def compute_static_mhp(
    htg: HierarchicalTaskGraph,
    function: Function,
    mapping: dict[str, int],
    sharers: "list[str] | None" = None,
    store: FootprintStore | None = None,
    use_footprints: bool = True,
) -> StaticMhpRelation:
    """Compute the pruned contender skeleton for one design point.

    ``sharers`` defaults to every mapped leaf task with a non-zero declared
    shared-access count; the system-level analysis passes its code-level
    derivation instead so the two agree exactly.  ``use_footprints=False``
    restricts pruning to the (count-preserving) ordered pairs.

    Each task's kept sharers are one mask expression over the reachability
    bitsets -- cross-core sharers, minus ordered ones, intersected with the
    address overlaps of :func:`address_overlaps` -- and every counter is a
    popcount, so no code runs per candidate pair.
    """
    store = store if store is not None else shared_cache().footprints
    leaf_ids = [t.task_id for t in htg.leaf_tasks() if t.task_id in mapping]
    if sharers is None:
        sharers = [
            t.task_id
            for t in htg.leaf_tasks()
            if t.task_id in mapping and t.total_shared_accesses > 0
        ]
    reach = _enforced_reachability(htg, mapping)
    footprints: dict[str, TaskFootprint] = {}
    overlaps: dict[str, set[str]] = {}
    if use_footprints:
        for tid in leaf_ids:
            footprints[tid] = store.footprint(function, htg.task(tid))
        overlaps = address_overlaps(footprints)

    sharer_mask = 0
    sharers_on: dict[int, int] = {}
    for sid in sharers:
        bit = 1 << reach.index[sid]
        sharer_mask |= bit
        sharers_on[mapping[sid]] = sharers_on.get(mapping[sid], 0) | bit

    allowed: dict[str, tuple[str, ...]] = {}
    candidate = same_core = pruned_ordered = pruned_disjoint = kept = 0
    for tid in leaf_ids:
        i = reach.index[tid]
        others = sharer_mask & ~(1 << i)
        same = sharers_on.get(mapping[tid], 0) & ~(1 << i)
        cross = others & ~same
        unordered = cross & ~(reach.descendants[i] | reach.ancestors[i])
        keep = unordered & reach.mask(overlaps[tid]) if use_footprints else unordered
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
        footprints=footprints,
    )
