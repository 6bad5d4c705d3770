"""Per-region facts: whole-function walks as folds over the body's regions.

A function body is a sequence of top-level statements -- in a compiled
model, one labelled region per dataflow block.  Every whole-function walk
of the flow that an edit round repeats (declaration checking, the
unbounded-loop gate, and what the built-in transformation passes read) is
a fold over one *fact* per top-level statement, where a fact is a pure
function of the statement's content.  :class:`RegionFacts` computes the
facts, and memoizes each one per statement object when it is given a memo
(the code-level cache's region memo,
:meth:`repro.wcet.cache.WcetAnalysisCache.region_facts`): IR is never
mutated, so a region the front end hands over unchanged keeps its facts,
and an edit round computes only those of the regions it changed.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.ir.statements import For, Stmt


class RegionFacts:
    """Computes per-region facts, memoized per statement object.

    ``facts(stmt, fn, *args)`` is ``fn(stmt, *args)``.  ``fn`` must be a
    pure function of the statement's content and of ``args`` (which must
    be hashable), and its value must not hold ``stmt`` itself, since the
    memo lives exactly as long as the statement: a rewrite returns
    ``None`` for "unchanged".  Callers must not mutate a fact.

    With ``memo`` (a statement -> its fact dict), each fact is computed once
    per statement object; without one, every call computes afresh, which
    is the same code with nothing to reuse.  :attr:`computed` holds the ids
    of the statements this instance computed at least one fact on.
    """

    def __init__(self, memo: Callable[[Stmt], dict] | None = None) -> None:
        self._memo = memo
        self.computed: set[int] = set()

    def __call__(self, stmt: Stmt, fn: Callable[..., Any], *args: Any) -> Any:
        key = (fn, *args) if args else fn
        facts = None
        if self._memo is not None:
            facts = self._memo(stmt)
            if key in facts:
                return facts[key]
        value = fn(stmt, *args)
        self.computed.add(id(stmt))
        if facts is not None:
            facts[key] = value
        return value


def loop_indices(stmt: Stmt) -> frozenset[str]:
    """Index names of the ``for`` loops in the subtree at ``stmt``: the
    names a function declares implicitly."""
    return frozenset(node.index.name for node in stmt.walk() if isinstance(node, For))
