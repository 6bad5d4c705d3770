"""Incremental re-analysis: what an edit round reuses from the previous run.

The paper's flow is re-run each time the engineer edits the model and
reads the WCET feedback (Section II-E).  The content-addressed caches make
*identical* analyses free; this module makes a *lightly edited* model
cheap.  It records, per pipeline run, a small **reuse summary** -- the code
fingerprint of every top-level region plus the platform signature -- and
diffs two of them.

The consumers are layered:

* :meth:`repro.core.pipeline.PipelineResult.artifact_summary` records the
  summary of a finished run (via :func:`summarize_result`);
* :meth:`repro.core.pipeline.Pipeline.run_incremental` runs every stage,
  each seeing the previous run as ``context.prev``: HTG extraction
  re-extracts only changed regions and the race check re-checks only pairs
  with a changed endpoint; :func:`diff_summaries` names the changed,
  added and removed regions for the run's :class:`IncrementalReport`;
* ``python -m repro diff <old> <new>`` prints that report and, when the
  old and new entry functions have the same fingerprint, replays the old
  code-level :class:`~repro.analysis.report.AnalysisReport` findings
  through :func:`mark_reused` (provenance ``reused``).

What each stage reuses (the reuse contract)
-------------------------------------------

There is one reuse mechanism: a stage that runs reads ``context.prev``.

================  ====================================================
stage             what it reuses from ``context.prev``
================  ====================================================
``frontend``      nothing: the diagram is compiled again
``transforms``    nothing: the passes run again on the new IR
``htg``           the tasks and WCET annotations of every region whose
                  code fingerprint equals the summary's, when the
                  previous run had the same platform signature (an
                  unfingerprintable platform never matches),
                  granularity and loop-chunk count; else it extracts
                  cold
``schedule``      nothing: the fixed point starts cold; the code-level
                  and system-result cache tiers answer what the edit
                  left unchanged
``parallel``      the race check's state (happens-before reachability,
                  per-pair findings): only pairs with a changed
                  endpoint are re-checked
``wcet``          nothing: the code-level cache answers an unchanged
                  entry function
``certify``       nothing: the checkers always run
================  ====================================================

Every reuse is guarded by content fingerprints, so an incremental run is
bit-identical to a cold run of the edited model; custom stages added
through :meth:`~repro.core.pipeline.Pipeline.with_stage` run on every
incremental run and may read ``context.prev`` the same way.
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
#: signature, and nothing else.
SUMMARY_VERSION = 5


def summarize_result(
    result: "PipelineResult", cache: "WcetAnalysisCache | None" = None
) -> dict[str, Any]:
    """The reuse summary of a finished run, as a JSON-able dict.

    Records the code fingerprint of every top-level region and the
    platform's signature (``None`` when it cannot be fingerprinted):
    everything :func:`diff_summaries` and the HTG stage of a later
    :meth:`~repro.core.pipeline.Pipeline.run_incremental` compare.
    """
    from repro.wcet.cache import platform_signature, shared_cache

    cache = cache if cache is not None else shared_cache()
    platform = result.artifacts.get("platform")
    return {
        "version": SUMMARY_VERSION,
        "platform": platform_signature(platform) if platform is not None else None,
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

    #: stage name -> ``"incremental"`` (reused part of the previous run) or
    #: ``"recomputed"``.
    stages: dict[str, str] = field(default_factory=dict)
    diff: FingerprintDiff | None = None
    #: Regions whose task decomposition / code-level facts were reused.
    regions_reused: int = 0
    regions_recomputed: int = 0
    #: Race-check pair accounting (when the parallel stage ran).
    race_pairs_reused: int = 0
    race_pairs_checked: int = 0

    @classmethod
    def from_records(cls, records: "Iterable[StageRecord]") -> "IncrementalReport":
        """The reuse accounting of one incremental run's stage records.

        ``info["incremental"]`` is each stage's status.  The counts come
        from the info keys the built-in stages record: ``regions_reused`` /
        ``regions_recomputed`` (HTG extraction) and ``race_pairs_reused`` /
        ``race_pairs_checked`` (the race check).
        """
        report = cls()
        for record in records:
            info = record.info
            report.stages[record.name] = info["incremental"]
            report.regions_reused += info.get("regions_reused", 0)
            report.regions_recomputed += info.get("regions_recomputed", 0)
            report.race_pairs_reused += info.get("race_pairs_reused", 0)
            report.race_pairs_checked += info.get("race_pairs_checked", 0)
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
            "regions_reused": self.regions_reused,
            "regions_recomputed": self.regions_recomputed,
            "race_pairs_reused": self.race_pairs_reused,
            "race_pairs_checked": self.race_pairs_checked,
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
            f"facts: {self.regions_reused} region(s) reused, "
            f"{self.regions_recomputed} recomputed; "
            f"race pairs {self.race_pairs_reused} reused, "
            f"{self.race_pairs_checked} rechecked"
        )
        return "\n".join(lines)
