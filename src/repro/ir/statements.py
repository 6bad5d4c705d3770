"""Statement nodes of the C-subset IR.

The IR is fully structured: blocks, two-armed conditionals, counted ``for``
loops and bounded ``while`` loops.  There is no unstructured control flow,
which is what makes exact structural WCET computation possible (paper
Section II-D relies on a program representation exposing this information).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.ir.expressions import ArrayRef, Expr, Var

_STMT_IDS = itertools.count(1)


def _next_stmt_id() -> int:
    return next(_STMT_IDS)


class Stmt:
    """Base class for all IR statements."""

    #: Unique id used to key per-statement analysis results.
    sid: int

    def children(self) -> Sequence["Stmt"]:
        return ()

    def walk(self) -> Iterator["Stmt"]:
        """Pre-order traversal of the statement tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def expressions(self) -> Sequence[Expr]:
        """Expressions evaluated directly by this statement (not children)."""
        return ()

    def variables_read(self) -> set[str]:
        names: set[str] = set()
        for expr in self.expressions():
            names |= expr.variables_read()
        return names

    def variables_written(self) -> set[str]:
        return set()


@dataclass
class Assign(Stmt):
    """``target = value`` where target is a scalar variable or array element."""

    target: Var | ArrayRef
    value: Expr
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def expressions(self) -> Sequence[Expr]:
        exprs: list[Expr] = [self.value]
        if isinstance(self.target, ArrayRef):
            exprs.extend(self.target.indices)
        return exprs

    def variables_written(self) -> set[str]:
        if isinstance(self.target, ArrayRef):
            return {self.target.array}
        return {self.target.name}

    def __str__(self) -> str:
        return f"{self.target} = {self.value};"


@dataclass
class Block(Stmt):
    """A sequence of statements.

    ``label`` names a model-level region: the front end labels each
    top-level block of an entry function with the dataflow block it was
    compiled from (see :attr:`repro.frontend.CompiledModel.block_regions`).
    It is metadata only -- the C printer does not render it, so it never
    enters a fingerprint -- and transformations keep it on rebuilt blocks.
    """

    stmts: list[Stmt] = field(default_factory=list)
    label: str | None = field(default=None, compare=False)
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def children(self) -> Sequence[Stmt]:
        return tuple(self.stmts)

    def append(self, stmt: Stmt) -> None:
        self.stmts.append(stmt)

    def __len__(self) -> int:
        return len(self.stmts)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)


@dataclass
class If(Stmt):
    """A two-armed conditional; the else branch may be empty."""

    cond: Expr
    then_body: Block
    else_body: Block = field(default_factory=Block)
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def children(self) -> Sequence[Stmt]:
        return (self.then_body, self.else_body)

    def expressions(self) -> Sequence[Expr]:
        return (self.cond,)


@dataclass
class For(Stmt):
    """A counted loop ``for (i = lower; i < upper; i += step) body``.

    ``lower``/``upper`` are expressions; when they are compile-time constants
    the loop-bound analysis derives the exact trip count, otherwise the
    ``max_trip_count`` annotation must be supplied (mirroring the flow
    annotations WCET tools such as aiT require).
    """

    index: Var
    lower: Expr
    upper: Expr
    body: Block
    step: int = 1
    max_trip_count: int | None = None
    #: Set by transformations that want the HTG extractor to treat every
    #: iteration (or chunk of iterations) as a parallel task candidate.
    parallelizable: bool = False
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.step == 0:
            raise ValueError("for-loop step must be non-zero")

    def children(self) -> Sequence[Stmt]:
        return (self.body,)

    def expressions(self) -> Sequence[Expr]:
        return (self.lower, self.upper)

    def variables_written(self) -> set[str]:
        return {self.index.name}


@dataclass
class While(Stmt):
    """A condition-controlled loop; ``max_trip_count`` is mandatory.

    Unbounded loops are rejected by the WCET analysis, matching the
    requirement that every loop carries a flow bound.
    """

    cond: Expr
    body: Block
    max_trip_count: int = 1
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_trip_count < 0:
            raise ValueError("while-loop max_trip_count must be non-negative")

    def children(self) -> Sequence[Stmt]:
        return (self.body,)

    def expressions(self) -> Sequence[Expr]:
        return (self.cond,)


@dataclass
class Return(Stmt):
    """Return from the enclosing function, optionally with a value."""

    value: Expr | None = None
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def expressions(self) -> Sequence[Expr]:
        return (self.value,) if self.value is not None else ()


@dataclass
class ExprStmt(Stmt):
    """Evaluate an expression for effect (kept for completeness)."""

    expr: Expr
    sid: int = field(default_factory=_next_stmt_id, init=False, compare=False)

    def expressions(self) -> Sequence[Expr]:
        return (self.expr,)


def count_statements(stmt: Stmt) -> int:
    """Number of statement nodes in the subtree rooted at ``stmt``."""
    return sum(1 for _ in stmt.walk())


def collect_loops(stmt: Stmt) -> list[For | While]:
    """All loops in the subtree rooted at ``stmt`` in pre-order."""
    return [s for s in stmt.walk() if isinstance(s, (For, While))]
