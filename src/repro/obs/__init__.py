"""``repro.obs`` -- process-wide observability: span tracing + metrics.

The toolchain's internals (fixed-point convergence, MHP pruning, IPET solves,
cache tiers, certificate checkers, scheduler search) compute rich telemetry
and used to discard it.  This package collects it behind one ambient switch.

Observability contract
======================

**What is recorded.**  When enabled, instrumented call sites emit

* *spans* (Chrome ``X`` events): ``pipeline.run`` > ``stage.<name>`` >
  solver internals (``fixed_point`` with nested ``fixed_point.iteration``
  spans, ``ipet.solve``, ``schedule.list`` / ``schedule.bnb``,
  ``certify.<checker>`` for the ``schedule``, ``contention`` and ``ipet``
  checkers, ``sweep.case``);
* *counter tracks* (Chrome ``C`` events): ``fixed_point.max_delta`` per
  iteration -- the convergence curve;
* *metrics* in the process-wide :class:`~repro.obs.metrics.MetricsRegistry`:
  ``fixed_point.runs`` / ``.iterations`` / ``.not_converged`` /
  ``.final_delta`` / ``mhp.pairs_candidate`` / ``.pairs_kept`` /
  ``.pairs_pruned`` / ``.pairs_tested`` (every solve of the fixed point,
  the candidates the annealer and branch and bound price outside the
  result tier included), ``system_cache.hits`` / ``.misses`` (one per
  ``system_level_wcet`` call: an analysed schedule, never a priced
  candidate; search-record lookups count only in the tier's ``stats``),
  ``wcet_cache.hits`` / ``.disk_hits`` / ``.misses`` per pipeline run,
  ``cache.evicted_*``, ``ipet.solves`` / ``.vars`` / ``.constraints``
  (one per structured solve of the IPET LP; the size of the LP it solves:
  edge count variables, and flow plus loop-bound rows),
  ``certify.<checker>.seconds`` / ``.ok`` / ``.findings`` (same
  checkers),
  ``scheduler.ready_set_max``, ``bnb.nodes`` / ``.leaves`` / ``.pruned``,
  ``incremental.stages_recomputed`` / ``.regions_reused`` /
  ``.regions_recomputed`` / ``.race_pairs_reused``.

**Name stability.**  Span and metric names above are a reporting API:
renames are breaking changes (dashboards, ``run_all.py --trace`` records
and the CI trace smoke test key on them) and belong in CHANGES.md.  New
names may be added freely.

**Overhead budget.**  Disabled (the default), the entire surface is a
module-global flag check plus a shared no-op span -- budgeted at <1% of
end-to-end wall clock and enforced by ``benchmarks/bench_e17_obs_overhead``.
Enabled, recording must stay under 5% on fixed-point-heavy workloads
(same benchmark) and must never change any analysis result: traced and
untraced runs produce bit-identical bounds.  Hot loops therefore guard on
:func:`obs_enabled` *once* and batch their recording (e.g. the list
scheduler tracks its max ready-set size locally and records one value).

**Enabling.**  Three equivalent switches:

* ``ToolchainConfig(trace=True)`` -- per ``Pipeline.run`` (restored after);
* :func:`set_enabled` / :func:`observed` -- ambient, process-wide;
* ``REPRO_TRACE`` -- process-wide from the environment: ``1``/``true``
  just enables; any other value is a *directory* into which each process
  dumps ``trace-<pid>.json`` + ``metrics-<pid>.json`` at exit.

**Multiprocessing.**  Trace buffers and the metrics registry are per
process and are never pickled.  ``ProcessPoolExecutor`` sweep workers
(a) inherit the enabled flag on fork or re-read ``REPRO_TRACE`` on spawn,
(b) reset inherited buffers in ``os.register_at_fork`` so a fork never
duplicates parent events, (c) return their per-case metrics snapshot
through ``SweepOutcome.telemetry`` (merged in the parent, the same
discipline as cache-stat deltas), and (d) with the directory form of
``REPRO_TRACE``, write their own per-pid trace/metrics files at exit --
the exporters compose by *files per pid*, not by shared buffers.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.tracer import (
    Tracer,
    chrome_trace_document,
    validate_trace_events,
    validate_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "TRACE_ENV_VAR",
    "chrome_trace_document",
    "counter",
    "gauge",
    "histogram",
    "merge_snapshots",
    "metrics",
    "metrics_snapshot",
    "obs_enabled",
    "observed",
    "reset",
    "set_enabled",
    "snapshot_delta",
    "span",
    "trace_complete",
    "trace_counter",
    "tracer",
    "validate_trace_events",
    "validate_trace_file",
]

TRACE_ENV_VAR = "REPRO_TRACE"

_ENABLED = False
_TRACER = Tracer()
_METRICS = MetricsRegistry()


def obs_enabled() -> bool:
    """The ambient switch; hot paths check this once per operation."""
    return _ENABLED


def set_enabled(active: bool) -> bool:
    """Set the ambient switch, returning the previous value (for restore)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(active)
    return previous


@contextmanager
def observed(active: bool = True) -> Iterator[None]:
    """Ambiently enable observability for a block (never disables an
    already-enabled process; restores the previous state on exit)."""
    previous = set_enabled(_ENABLED or bool(active))
    try:
        yield
    finally:
        set_enabled(previous)


def tracer() -> Tracer:
    return _TRACER


def metrics() -> MetricsRegistry:
    return _METRICS


def metrics_snapshot() -> dict[str, Any]:
    return _METRICS.snapshot()


def counter(name: str) -> Counter:
    return _METRICS.counter(name)


def gauge(name: str) -> Gauge:
    return _METRICS.gauge(name)


def histogram(name: str) -> Histogram:
    return _METRICS.histogram(name)


def reset(disable: bool = True) -> None:
    """Drop all buffered telemetry (and by default the enabled flag)."""
    _TRACER.clear()
    _METRICS.reset()
    if disable:
        set_enabled(False)


class _NullSpan:
    """Shared do-nothing span handed out while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: dict[str, Any]) -> None:
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def set(self, **attrs: Any) -> "_Span":
        self.args.update(attrs)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end = time.perf_counter()
        if exc_type is not None:
            self.args.setdefault("error", getattr(exc_type, "__name__", "error"))
        _TRACER.record_complete(self.name, self._start, end - self._start, self.args or None)
        return False


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Context manager recording one complete (``X``) event on exit.

    Near-free when disabled: returns a shared no-op singleton.  ``.set()``
    attaches attributes discovered mid-span (e.g. iteration counts).
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _Span(name, attrs)


def trace_complete(
    name: str, start: float, duration: float, args: dict[str, Any] | None = None
) -> None:
    """Record a pre-timed span (hot loops time locally, then call once)."""
    if _ENABLED:
        _TRACER.record_complete(name, start, duration, args)


def trace_counter(name: str, values: dict[str, float]) -> None:
    if _ENABLED:
        _TRACER.record_counter(name, values)


# --- environment activation -------------------------------------------------


def _dump_to_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        if len(_TRACER):
            _TRACER.export_chrome(out_dir / f"trace-{pid}.json")
        if not _METRICS.is_empty():
            (out_dir / f"metrics-{pid}.json").write_text(
                json.dumps(_METRICS.snapshot(), indent=2, sort_keys=True)
            )
    except OSError:
        # never let telemetry flushing turn a clean exit into a crash
        pass


def _reset_after_fork() -> None:
    # a forked worker starts with its own clean buffers; without this the
    # inherited parent events would be dumped/merged twice
    _TRACER.clear()
    _METRICS.reset()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _activate_from_env() -> None:
    raw = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not raw or raw.lower() in {"0", "false", "off", "no"}:
        return
    set_enabled(True)
    if raw.lower() in {"1", "true", "on", "yes"}:
        return
    atexit.register(_dump_to_dir, Path(raw))


_activate_from_env()
