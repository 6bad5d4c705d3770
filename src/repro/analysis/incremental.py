"""Incremental re-analysis engine: fingerprint-keyed dependency tracking.

The PR 1/4 caches make *identical* inputs free; this module makes *nearly
identical* inputs nearly free.  It records, per pipeline run, an **analysis
dependency graph**: which content-addressed artifacts every stage consumed
(function/region fingerprints, the HTG structure digest, the platform cost
signature, the config digest) and which facts it produced.  Given a second
model, it computes a fingerprint diff and the minimal invalidation set by
walking that graph -- a stage is dirty exactly when its *replay key* (its
input frontier's digests plus the identity of its implementation) changed.

The consumers are layered:

* :meth:`repro.core.pipeline.PipelineResult.artifact_summary` serializes the
  graph of a finished run (via :func:`summarize_result`);
* :meth:`repro.core.pipeline.Pipeline.run_incremental` replays stages whose
  replay key is unchanged; of the stages that run, HTG extraction
  re-extracts only changed regions and the race check re-checks only pairs
  with a changed endpoint;
* :class:`IncrementalAnalysisStore` replays code-level
  :class:`~repro.analysis.report.AnalysisReport` findings for functions whose
  fingerprints are unchanged, with provenance marked ``reused``;
* ``python -m repro diff <old> <new>`` prints the invalidation frontier.

What dirties what (the dependency contract)
-------------------------------------------

Each :class:`~repro.core.pipeline.Stage` declares its frontier: the run
fingerprints (:data:`repro.core.pipeline.FINGERPRINTS`) its outputs depend
on.  Each :class:`~repro.core.pipeline.StageRecord` carries what its key
covers, so the summary of a run with custom stages has their keys too.  The
built-in stages declare:

================  ====================================================
stage             input frontier (a change to any entry dirties it)
================  ====================================================
``frontend``      diagram fingerprint, platform sig, config digest
``transforms``    diagram fingerprint, platform sig, config digest
``htg``           function fingerprint, extraction knobs, platform sig
``schedule``      function fp, HTG digest, platform sig, config digest,
                  scheduler implementation identity
``parallel``      function fp, HTG digest, schedule digest, platform
                  sig, config digest
``wcet``          function fp, platform sig, config digest, schedule
                  digest
``certify``       function fp, HTG digest, schedule digest, platform
                  sig, config digest
================  ====================================================

``frontend`` and ``transforms`` share one key: no fingerprint digests the
untransformed ``model`` artifact that joins them, so nothing proves a
re-run front end's model equal to the one the previous transforms read.
The frontiers deliberately over-approximate (the whole
config digest stands in for the knobs a stage actually reads), so a key
match *proves* the stage's inputs unchanged while a mismatch merely re-runs
work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.analysis.report import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineResult, StageRecord
    from repro.model.diagram import Diagram
    from repro.wcet.cache import WcetAnalysisCache

#: Version stamp of the :func:`summarize_result` dict layout (and of the
#: fingerprints it records).  v3: :func:`diagram_fingerprint` digests array
#: values by dtype, shape and bytes.  v4: the ``function`` fingerprint
#: digests the declarations plus each top-level region's fingerprint.
SUMMARY_VERSION = 4


def _digest(payload: Any) -> str:
    return hashlib.sha1(
        json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def _value_digest(value: Any) -> Any:
    """A JSON-able encoding of one block parameter or state value.

    Arrays are encoded by dtype, shape and a digest of their bytes: their
    ``str`` elides every element but the first and last three once an array
    has more than 1,000 of them, so two different arrays could print alike.
    """
    if isinstance(value, np.ndarray):
        data = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["array", value.dtype.str, list(value.shape), data]
    return str(value)


def diagram_fingerprint(diagram: "Diagram") -> str:
    """Content fingerprint of a model diagram.

    Covers everything :func:`repro.frontend.compile_diagram` reads: block
    names, kinds, port shapes, numeric parameters, behaviour scripts and
    initial state, plus the connection list and the external port marks.
    Array-valued parameters and state are digested by value (see
    :func:`_value_digest`), so editing one FIR tap changes the fingerprint.
    """
    blocks = []
    for name in sorted(diagram.blocks):
        block = diagram.blocks[name]
        blocks.append(
            [
                name,
                block.kind,
                [[p.name, list(p.shape)] for p in block.inputs],
                [[p.name, list(p.shape)] for p in block.outputs],
                sorted((k, _value_digest(v)) for k, v in block.params.items()),
                block.behavior,
                sorted((k, _value_digest(v)) for k, v in block.state.items()),
            ]
        )
    payload = [
        blocks,
        sorted(
            [c.src_block, c.src_port, c.dst_block, c.dst_port]
            for c in diagram.connections
        ),
        sorted(diagram.external_inputs),
        sorted(diagram.external_outputs),
    ]
    return _digest(payload)


def summarize_result(
    result: "PipelineResult", cache: "WcetAnalysisCache | None" = None
) -> dict[str, Any]:
    """The analysis dependency graph of a finished run, as a JSON-able dict.

    Records the global content fingerprints, the per-region code
    fingerprints, each stage's replay key (``frontiers``) and what each
    stage declared/consumed/produced -- everything :func:`diff_summaries`
    and :meth:`~repro.core.pipeline.Pipeline.run_incremental` need to decide
    what a second model invalidates.
    """
    from repro.core.pipeline import FINGERPRINTS, replay_key, run_fingerprint
    from repro.wcet.cache import shared_cache

    cache = cache if cache is not None else shared_cache()
    regions = {
        name: cache.region_fingerprint(block)
        for name, block in result.model.block_regions
    }
    fingerprints = {
        name: run_fingerprint(name, result.artifacts, cache) for name in FINGERPRINTS
    }
    stages = []
    for record in result.stage_records:
        stages.append(
            {
                "name": record.name,
                "seconds": record.seconds,
                "produced": list(record.produced),
                "frontier": list(record.frontier) if record.frontier is not None else None,
                "info": {
                    k: v
                    for k, v in record.info.items()
                    if isinstance(v, (str, int, float, bool))
                },
            }
        )
    return {
        "version": SUMMARY_VERSION,
        "diagram_name": result.diagram_name,
        "platform_name": result.platform_name,
        "fingerprints": fingerprints,
        "regions": regions,
        "frontiers": {
            record.name: replay_key(
                record.frontier, record.implementation, fingerprints.get
            )
            for record in result.stage_records
        },
        "stages": stages,
    }


@dataclass(frozen=True)
class FingerprintDiff:
    """What changed between two runs' artifact summaries."""

    #: Global fingerprint keys whose values differ (or are uncomparable).
    changed_globals: tuple[str, ...]
    changed_regions: tuple[str, ...]
    added_regions: tuple[str, ...]
    removed_regions: tuple[str, ...]
    unchanged_regions: tuple[str, ...]
    #: Stages whose replay key changed (minimal invalidation set).
    dirty_stages: tuple[str, ...]
    clean_stages: tuple[str, ...]

    @property
    def nothing_changed(self) -> bool:
        return not self.dirty_stages and not self.changed_globals

    @property
    def everything_changed(self) -> bool:
        return not self.clean_stages

    def as_dict(self) -> dict[str, Any]:
        return {
            "changed_globals": list(self.changed_globals),
            "changed_regions": list(self.changed_regions),
            "added_regions": list(self.added_regions),
            "removed_regions": list(self.removed_regions),
            "unchanged_regions": len(self.unchanged_regions),
            "dirty_stages": list(self.dirty_stages),
            "clean_stages": list(self.clean_stages),
        }


def diff_summaries(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> FingerprintDiff:
    """Fingerprint diff + minimal invalidation set between two summaries.

    Walks the dependency graph: a stage of either run lands in
    ``dirty_stages`` exactly when its replay key differs between the two
    runs (a missing or ``None`` key on either side counts as different --
    unfingerprintable inputs can never prove reuse valid).
    """
    old_fp = dict(old.get("fingerprints", {}))
    new_fp = dict(new.get("fingerprints", {}))
    changed_globals = tuple(
        sorted(
            key
            for key in set(old_fp) | set(new_fp)
            if old_fp.get(key) is None
            or new_fp.get(key) is None
            or old_fp.get(key) != new_fp.get(key)
        )
    )
    old_regions = dict(old.get("regions", {}))
    new_regions = dict(new.get("regions", {}))
    changed = tuple(
        sorted(
            name
            for name in set(old_regions) & set(new_regions)
            if old_regions[name] != new_regions[name]
        )
    )
    added = tuple(sorted(set(new_regions) - set(old_regions)))
    removed = tuple(sorted(set(old_regions) - set(new_regions)))
    unchanged = tuple(
        sorted(
            name
            for name in set(old_regions) & set(new_regions)
            if old_regions[name] == new_regions[name]
        )
    )
    old_frontiers = dict(old.get("frontiers", {}))
    new_frontiers = dict(new.get("frontiers", {}))
    dirty = []
    clean = []
    for stage in dict.fromkeys([*new_frontiers, *old_frontiers]):
        a, b = old_frontiers.get(stage), new_frontiers.get(stage)
        if a is None or b is None or a != b:
            dirty.append(stage)
        else:
            clean.append(stage)
    return FingerprintDiff(
        changed_globals=changed_globals,
        changed_regions=changed,
        added_regions=added,
        removed_regions=removed,
        unchanged_regions=unchanged,
        dirty_stages=tuple(dirty),
        clean_stages=tuple(clean),
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


class IncrementalAnalysisStore:
    """Function-fingerprint-keyed store of code-level analysis reports.

    The dataflow/lint/flow-facts analyses are pure functions of one IR
    function's content, so their reports can be replayed verbatim for any
    function whose fingerprint is unchanged.  ``reports_for`` returns the
    stored reports with provenance marked ``reused``; a miss returns
    ``None`` and the caller re-analyses (then calls :meth:`record`).
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, list[AnalysisReport]] = {}

    def record(self, fingerprint: str, reports: Iterable[AnalysisReport]) -> None:
        self._entries[fingerprint] = list(reports)
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    def reports_for(self, fingerprint: str) -> list[AnalysisReport] | None:
        stored = self._entries.get(fingerprint)
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return [mark_reused(report) for report in stored]

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------- #
# per-run reuse accounting
# ---------------------------------------------------------------------- #
@dataclass
class IncrementalReport:
    """What one :meth:`Pipeline.run_incremental` call reused vs recomputed."""

    #: stage name -> ``"reused"`` (replayed from the previous run),
    #: ``"incremental"`` (re-ran with sub-stage reuse) or ``"recomputed"``.
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
        ``race_pairs_checked`` (the race check).  A replayed stage reused
        all of its regions and checked no pairs.
        """
        report = cls()
        for record in records:
            info = record.info
            status = report.stages[record.name] = info["incremental"]
            reused = info.get("regions_reused", 0)
            recomputed = info.get("regions_recomputed", 0)
            if status == "reused":
                report.regions_reused += reused + recomputed
                continue
            report.regions_reused += reused
            report.regions_recomputed += recomputed
            report.race_pairs_reused += info.get("race_pairs_reused", 0)
            report.race_pairs_checked += info.get("race_pairs_checked", 0)
        return report

    @property
    def stages_reused(self) -> int:
        return sum(1 for v in self.stages.values() if v == "reused")

    @property
    def stages_recomputed(self) -> int:
        return sum(1 for v in self.stages.values() if v != "reused")

    def as_dict(self) -> dict[str, Any]:
        return {
            "stages": dict(self.stages),
            "stages_reused": self.stages_reused,
            "stages_recomputed": self.stages_recomputed,
            "diff": self.diff.as_dict() if self.diff is not None else None,
            "regions_reused": self.regions_reused,
            "regions_recomputed": self.regions_recomputed,
            "race_pairs_reused": self.race_pairs_reused,
            "race_pairs_checked": self.race_pairs_checked,
        }

    def render(self) -> str:
        """Human-readable invalidation frontier for the ``diff`` CLI."""
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
