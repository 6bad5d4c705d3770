"""Incremental re-analysis: what an edit round reuses from the previous run.

The paper's flow is re-run each time the engineer edits the model and
reads the WCET feedback (Section II-E).  The content-addressed caches make
*identical* analyses free; this module makes a *lightly edited* model
cheap.  It records, per pipeline run, a small **reuse summary** -- the code
fingerprint of every top-level region -- and diffs two of them.

The consumers are layered:

* :meth:`repro.core.pipeline.PipelineResult.artifact_summary` records the
  summary of a finished run (via :func:`summarize_result`);
* :meth:`repro.core.pipeline.Pipeline.run_incremental` runs the stage code
  of a cold run on warm caches: the front end lowers only changed blocks
  (through the cache's lowering memo), and HTG extraction decomposes only
  changed regions and the race check walks only their tasks' footprints
  (through the cache's region memo); the previous run feeds only
  :func:`diff_summaries`, which names the changed, added and removed
  regions for the run's :class:`IncrementalReport`;
* ``python -m repro diff <old> <new>`` prints that report and, when the
  old and new entry functions have the same fingerprint, replays the old
  code-level :class:`~repro.analysis.report.AnalysisReport` findings
  through :func:`mark_reused` (provenance ``reused``).

What each stage reuses (the reuse contract)
-------------------------------------------

Every stage runs, and no stage reads the previous run: every stage
reuses only through the cache.  The front end reuses through the cache's
lowering memo (:attr:`~repro.wcet.cache.WcetAnalysisCache.lowerings`),
which every run of the cache reads and updates, cold runs included.  The
regions the front end reuses carry the rest: a reused region object keeps
every memo keyed by it, its fingerprint and its per-region facts
(:mod:`repro.ir.facts`, in the cache's region memo; its task
decompositions, and the footprints of its tasks' blocks, among them)
included, so the stages after it recompute only the facts of the regions
the edit changed.

================  ====================================================
stage             what it reuses
================  ====================================================
``frontend``      from the cache's lowering memo: the region objects
                  and declared temporaries of every block whose
                  lowering inputs (name, behaviour text, bindings,
                  copy-outs) equal the memo's entry
                  (:class:`~repro.frontend.codegen.BlockLowering`);
                  only the other blocks are lowered, and the entry
                  function is validated from per-region facts
``transforms``    through the handed-over regions: each built-in pass
                  folds per-region facts and rewrites memoized on them,
                  so the passes re-run only on new regions (a pass
                  the run configures anew, for another platform say,
                  folds the same facts into its decision)
``htg``           through the handed-over regions: each region's task
                  decomposition (its tasks' statement blocks,
                  read/write sets and the parallel-loop test) is a
                  per-region fact keyed by granularity and loop-chunk
                  count, so only regions without one at the run's
                  knobs are decomposed, on any platform (extraction
                  reads none); the tasks are fresh objects and the
                  edges are re-derived
``schedule``      nothing: the fixed point starts cold; the code-level
                  and system-result cache tiers answer what the edit
                  left unchanged (the result tier never answers on an
                  unfingerprintable platform: such a design has no
                  result key)
``parallel``      nothing: the race check scans every pair; the
                  footprints of the handed-over regions' task blocks
                  answer from the region memo, so it walks only the
                  blocks of changed regions
``wcet``          the code-level entries of the unchanged regions: the
                  sequential bound is the sum of the body's region
                  entries, so only changed regions are analysed
``certify``       nothing: the checkers always run
================  ====================================================

Every reuse is guarded by content fingerprints or by the identity of IR
that is never mutated, so an incremental run is bit-identical to a cold
run of the edited model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.analysis.report import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineResult, StageRecord
    from repro.wcet.cache import WcetAnalysisCache

#: Version stamp of the :func:`summarize_result` dict layout (and of the
#: fingerprints it records).  v5: the region fingerprints and the platform
#: signature, and nothing else.  v6: the region fingerprints only (no
#: stage read the platform signature).
SUMMARY_VERSION = 6


def summarize_result(
    result: "PipelineResult", cache: "WcetAnalysisCache | None" = None
) -> dict[str, Any]:
    """The reuse summary of a finished run, as a JSON-able dict.

    Records the code fingerprint of every top-level region, read from the
    cache's region memos.  :func:`diff_summaries` compares them.
    """
    from repro.wcet.cache import shared_cache

    cache = cache if cache is not None else shared_cache()
    return {
        "version": SUMMARY_VERSION,
        "regions": {
            name: cache.region_fingerprint(block)
            for name, block in result.model.block_regions
        },
    }


@dataclass(frozen=True)
class FingerprintDiff:
    """Which regions changed between two runs' reuse summaries."""

    changed_regions: tuple[str, ...]
    added_regions: tuple[str, ...]
    removed_regions: tuple[str, ...]
    unchanged_regions: tuple[str, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "changed_regions": list(self.changed_regions),
            "added_regions": list(self.added_regions),
            "removed_regions": list(self.removed_regions),
            "unchanged_regions": len(self.unchanged_regions),
        }


def diff_summaries(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> FingerprintDiff:
    """The region diff between two summaries: regions present in both whose
    code fingerprints differ, and regions only one of them has."""
    old_regions = dict(old.get("regions", {}))
    new_regions = dict(new.get("regions", {}))
    common = set(old_regions) & set(new_regions)
    return FingerprintDiff(
        changed_regions=tuple(
            sorted(name for name in common if old_regions[name] != new_regions[name])
        ),
        added_regions=tuple(sorted(set(new_regions) - set(old_regions))),
        removed_regions=tuple(sorted(set(old_regions) - set(new_regions))),
        unchanged_regions=tuple(
            sorted(name for name in common if old_regions[name] == new_regions[name])
        ),
    )


# ---------------------------------------------------------------------- #
# code-level report replay
# ---------------------------------------------------------------------- #
def mark_reused(report: AnalysisReport) -> AnalysisReport:
    """A copy of ``report`` with every finding's provenance set to ``reused``."""
    checked = dict(report.checked)
    checked["reused"] = 1
    return AnalysisReport(
        analysis=report.analysis,
        findings=[replace(f, provenance="reused") for f in report.findings],
        checked=checked,
    )


# ---------------------------------------------------------------------- #
# per-run reuse accounting
# ---------------------------------------------------------------------- #
@dataclass
class IncrementalReport:
    """What one :meth:`Pipeline.run_incremental` call reused vs recomputed."""

    #: stage name -> ``"incremental"`` (part of its work answered from the
    #: cache's region memos, where an earlier run left it) or
    #: ``"recomputed"``.
    stages: dict[str, str] = field(default_factory=dict)
    diff: FingerprintDiff | None = None
    #: Blocks the front end lowered (the others kept their regions).
    blocks_lowered: int = 0
    #: Regions a built-in transformation pass computed on (the others
    #: kept the results memoized on them).
    regions_transformed: int = 0
    #: Regions whose task decomposition HTG extraction read from the
    #: region memo, and regions it decomposed.
    regions_reused: int = 0
    regions_recomputed: int = 0

    @classmethod
    def from_records(cls, records: "Iterable[StageRecord]") -> "IncrementalReport":
        """The reuse accounting of one incremental run's stage records.

        ``info["incremental"]`` is each stage's status.  The counts come
        from the info keys the built-in stages record: ``blocks_lowered``
        (the front end), ``regions_transformed`` (the transforms) and
        ``regions_reused`` / ``regions_recomputed`` (HTG extraction).
        """
        report = cls()
        for record in records:
            info = record.info
            report.stages[record.name] = info["incremental"]
            report.blocks_lowered += info.get("blocks_lowered", 0)
            report.regions_transformed += info.get("regions_transformed", 0)
            report.regions_reused += info.get("regions_reused", 0)
            report.regions_recomputed += info.get("regions_recomputed", 0)
        return report

    @property
    def stages_reused(self) -> int:
        """Always 0: every stage of an incremental run runs.  Kept while
        perfbench's layer report reads it."""
        return 0

    @property
    def stages_recomputed(self) -> int:
        return len(self.stages)

    def as_dict(self) -> dict[str, Any]:
        return {
            "stages": dict(self.stages),
            "stages_recomputed": self.stages_recomputed,
            "diff": self.diff.as_dict() if self.diff is not None else None,
            "blocks_lowered": self.blocks_lowered,
            "regions_transformed": self.regions_transformed,
            "regions_reused": self.regions_reused,
            "regions_recomputed": self.regions_recomputed,
        }

    def render(self) -> str:
        """Human-readable reuse report for the ``diff`` CLI."""
        lines = []
        if self.diff is not None:
            d = self.diff
            lines.append(
                "changed functions: "
                + (", ".join(d.changed_regions) if d.changed_regions else "(none)")
            )
            if d.added_regions:
                lines.append("added functions: " + ", ".join(d.added_regions))
            if d.removed_regions:
                lines.append("removed functions: " + ", ".join(d.removed_regions))
            lines.append(f"unchanged functions: {len(d.unchanged_regions)}")
        for stage, status in self.stages.items():
            lines.append(f"stage {stage:<10} {status}")
        lines.append(
            f"front end: {self.blocks_lowered} block(s) lowered; "
            f"passes re-ran on {self.regions_transformed} region(s)"
        )
        lines.append(
            f"facts: {self.regions_reused} region(s) reused, "
            f"{self.regions_recomputed} recomputed"
        )
        return "\n".join(lines)
