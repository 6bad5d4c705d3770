"""Loop information and loop-bound analysis on the structured IR.

Every loop must have a statically-known worst-case trip count; ``for`` loops
with constant (or constant-foldable) bounds get it computed automatically,
otherwise the ``max_trip_count`` annotation must be present.  This mirrors
the flow-fact requirements of industrial WCET analyzers (aiT) that the ARGO
flow builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.expressions import try_evaluate_constant
from repro.ir.statements import Block, For, Stmt, While

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.facts import RegionFacts


class LoopBoundError(ValueError):
    """Raised when a loop's worst-case trip count cannot be determined."""


def loop_trip_count(loop: For | While) -> int:
    """Worst-case number of iterations of ``loop``.

    For counted loops with constant bounds the exact trip count
    ``ceil((upper - lower) / step)`` is returned (clamped to >= 0).  When the
    bounds are not compile-time constants the ``max_trip_count`` annotation is
    used; if it is missing a :class:`LoopBoundError` is raised.
    """
    if isinstance(loop, While):
        return loop.max_trip_count
    lower = try_evaluate_constant(loop.lower)
    upper = try_evaluate_constant(loop.upper)
    if lower is not None and upper is not None:
        span = float(upper) - float(lower)
        if span <= 0:
            exact = 0
        else:
            exact = int(math.ceil(span / abs(loop.step)))
        if loop.max_trip_count is not None:
            return min(exact, loop.max_trip_count)
        return exact
    if loop.max_trip_count is not None:
        return loop.max_trip_count
    raise LoopBoundError(
        f"loop over {loop.index.name!r} has non-constant bounds and no "
        "max_trip_count annotation"
    )


@dataclass
class LoopInfo:
    """A loop together with its nesting context."""

    loop: For | While
    depth: int
    trip_count: int
    parent: "LoopInfo | None" = None
    children: list["LoopInfo"] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        """Trip count multiplied over all enclosing loops."""
        total = self.trip_count
        node = self.parent
        while node is not None:
            total *= node.trip_count
            node = node.parent
        return total


def loop_forest(stmt: Stmt) -> list[LoopInfo]:
    """Build the loop nesting forest of the subtree rooted at ``stmt``."""

    def visit(node: Stmt, parent: LoopInfo | None, depth: int) -> list[LoopInfo]:
        infos: list[LoopInfo] = []
        if isinstance(node, (For, While)):
            info = LoopInfo(node, depth, loop_trip_count(node), parent)
            if parent is not None:
                parent.children.append(info)
            infos.append(info)
            for child in node.children():
                visit(child, info, depth + 1)
            return infos
        for child in node.children():
            infos.extend(visit(child, parent, depth))
        return infos

    roots: list[LoopInfo] = []
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            roots.extend(visit(child, None, 0))
    else:
        roots.extend(visit(stmt, None, 0))
    return roots


def all_loops(stmt: Stmt) -> list[LoopInfo]:
    """Flatten :func:`loop_forest` into a pre-order list of all loops."""
    result: list[LoopInfo] = []

    def collect(info: LoopInfo) -> None:
        result.append(info)
        for child in info.children:
            collect(child)

    for root in loop_forest(stmt):
        collect(root)
    return result


def max_loop_depth(stmt: Stmt) -> int:
    """Maximum loop nesting depth in the subtree (0 when loop-free)."""
    loops = all_loops(stmt)
    if not loops:
        return 0
    return max(info.depth for info in loops) + 1


def check_all_loops_bounded(stmt: Stmt) -> None:
    """Raise :class:`LoopBoundError` if any loop lacks a derivable bound."""
    for info in all_loops(stmt):
        # loop_forest already calls loop_trip_count, so reaching here means
        # every loop is bounded; this function exists for explicit validation
        # call sites and re-checks defensively.
        loop_trip_count(info.loop)


def unbounded_loops(stmt: Stmt) -> tuple[str, ...]:
    """``"<loop>: <reason>"`` for every loop of the subtree at ``stmt``
    without a derivable worst-case trip count, in pre-order.

    Uses :func:`repro.ir.statements.collect_loops` (not the loop forest,
    whose construction itself raises on the first unbounded loop).
    """
    from repro.ir.statements import collect_loops

    problems = []
    for loop in collect_loops(stmt):
        try:
            loop_trip_count(loop)
        except LoopBoundError as exc:
            where = (
                f"loop over {loop.index.name!r}" if isinstance(loop, For) else "while loop"
            )
            problems.append(f"{where}: {exc}")
    return tuple(problems)


def describe_unbounded_loops(function, facts: "RegionFacts | None" = None) -> list[str]:
    """Human-readable diagnostics for every unbounded loop of ``function``.

    Unlike :func:`check_all_loops_bounded` this never raises and names the
    function and the loop in each message, so front-end gates can report all
    problems at once instead of failing later inside IPET with an opaque
    error.  A fold over :func:`unbounded_loops` of each top-level
    statement, read through ``facts`` (see :mod:`repro.ir.facts`; ``None``
    computes them afresh).
    """
    from repro.ir.facts import RegionFacts

    facts = facts or RegionFacts()
    return [
        f"function {function.name!r}, {problem}"
        for stmt in function.body.stmts
        for problem in facts(stmt, unbounded_loops)
    ]
