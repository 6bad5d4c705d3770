"""Transformation pass infrastructure."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import Function


@dataclass
class PassReport:
    """What a pass did to a function (for the cross-layer report)."""

    pass_name: str
    function_name: str
    changed: bool
    details: dict[str, float | int | str] = field(default_factory=dict)


class FunctionPass:
    """Base class: a transformation applied to one IR function.

    In the flow a pass runs on the ``transforms`` stage's working copy of
    the entry function, which shares its statements and declarations with
    the front end's.  A pass may rebind the copy's ``body`` and its
    ``params`` / ``decls`` lists; it must not mutate statements or
    declarations (rewrite with the copy-on-write
    :class:`~repro.ir.visitors.StatementTransformer`, replace a
    declaration instead of changing it).

    A pass that reads whole-function facts, or rewrites one top-level
    statement at a time, can take them from the per-region memo: its
    factory receives the run's :class:`~repro.ir.facts.RegionFacts` as
    :attr:`PassContext.facts <repro.transforms.registry.PassContext.facts>`,
    and a fold over per-region facts read through it computes only those
    of the regions an edit round changed.  The built-in clean-up and
    scratchpad passes work this way; the others walk the whole function.
    """

    name = "pass"

    def run(self, function: Function) -> PassReport:
        raise NotImplementedError


@dataclass
class PassManager:
    """Applies an ordered list of passes and collects their reports."""

    passes: list[FunctionPass] = field(default_factory=list)

    def add(self, pass_: FunctionPass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, function: Function) -> list[PassReport]:
        reports = []
        for pass_ in self.passes:
            reports.append(pass_.run(function))
        return reports
