"""Top-level IR containers: variable declarations, functions, programs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.statements import Block
from repro.ir.types import IRType, is_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.facts import RegionFacts


class Storage(enum.Enum):
    """Where a variable lives on the target platform.

    The scratchpad-allocation transformation moves arrays from ``SHARED`` to
    ``SCRATCHPAD``; the WCET memory model charges different access latencies
    per storage class, and the system-level analysis only counts ``SHARED``
    accesses as interference-prone.
    """

    LOCAL = "local"          # scalar register / stack data, private to a core
    SCRATCHPAD = "scratchpad"  # core-private scratchpad memory
    SHARED = "shared"        # shared on-chip or external memory
    INPUT = "input"          # function input (read-only shared buffer)
    OUTPUT = "output"        # function output (write shared buffer)


@dataclass
class VarDecl:
    """A declared variable with its type and storage class."""

    name: str
    type: IRType
    storage: Storage = Storage.LOCAL
    #: Optional initial value (scalar) used by the interpreter.
    initial: float | int | None = None

    @property
    def is_array(self) -> bool:
        return is_array(self.type)

    @property
    def size_bytes(self) -> int:
        return self.type.size_bytes

    def __str__(self) -> str:
        return f"{self.storage.value} {self.type} {self.name}"


@dataclass
class Function:
    """A single-entry, single-exit IR function.

    ``params`` are treated as inputs, ``decls`` as local/shared state, and the
    body is a structured statement block.
    """

    name: str
    params: list[VarDecl] = field(default_factory=list)
    decls: list[VarDecl] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    #: Free-form annotations carried through the flow (e.g. originating block).
    annotations: dict[str, object] = field(default_factory=dict)
    #: name -> first declaration with that name (see :meth:`lookup`), plus
    #: the ``params`` / ``decls`` lists and lengths it was built from.
    _index: "tuple[list, int, list, int, dict[str, VarDecl]] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def all_decls(self) -> list[VarDecl]:
        return list(self.params) + list(self.decls)

    def _decl_index(self) -> dict[str, VarDecl]:
        """The name -> declaration index, brought up to date.

        The front end and :mod:`repro.ir.builder` append to ``params`` and
        ``decls`` directly, so the index checks the two lists it was built
        from: appended declarations are indexed on the next lookup, and a
        replaced list or a changed parameter list rebuilds it.  Replacing an
        element of either list in place is not seen.
        """
        params, decls = self.params, self.decls
        state = self._index
        if state is not None and state[0] is params and state[2] is decls:
            _, n_params, _, n_decls, index = state
            if n_params == len(params):
                if n_decls == len(decls):
                    return index
                if n_decls < len(decls):
                    for decl in decls[n_decls:]:
                        index.setdefault(decl.name, decl)
                    self._index = (params, n_params, decls, len(decls), index)
                    return index
        index = {}
        for decl in params:
            index.setdefault(decl.name, decl)
        for decl in decls:
            index.setdefault(decl.name, decl)
        self._index = (params, len(params), decls, len(decls), index)
        return index

    def lookup(self, name: str) -> VarDecl | None:
        """The first declaration named ``name`` (parameters before locals)."""
        return self._decl_index().get(name)

    def declare(self, decl: VarDecl) -> VarDecl:
        existing = self.lookup(decl.name)
        if existing is not None:
            if existing.type != decl.type:
                raise ValueError(
                    f"conflicting declaration for {decl.name!r}: "
                    f"{existing.type} vs {decl.type}"
                )
            return existing
        self.decls.append(decl)  # indexed by the next lookup
        return decl

    def arrays(self) -> list[VarDecl]:
        return [d for d in self.all_decls() if d.is_array]

    def statements(self):
        """Iterate over every statement in the body (pre-order)."""
        return self.body.walk()

    def validate(self, facts: "RegionFacts | None" = None) -> None:
        """Check that every referenced variable is declared.

        Raises ``ValueError`` listing the undeclared names otherwise.  The
        loop index variables of ``for`` statements are declared implicitly.
        A fold over two facts of each top-level statement, the names it
        references and its loop indices, read through ``facts`` (see
        :mod:`repro.ir.facts`; ``None`` computes them afresh).
        """
        from repro.ir.analysis import referenced_names
        from repro.ir.facts import RegionFacts, loop_indices

        facts = facts or RegionFacts()
        declared = {d.name for d in self.all_decls()}
        referenced: set[str] = set()
        for stmt in self.body.stmts:
            declared.update(facts(stmt, loop_indices))
            referenced.update(facts(stmt, referenced_names))
        missing = referenced - declared
        if missing:
            raise ValueError(
                f"function {self.name!r} references undeclared variables: "
                f"{sorted(missing)}"
            )


@dataclass
class Program:
    """A collection of functions plus program-wide shared declarations."""

    name: str
    functions: list[Function] = field(default_factory=list)

    def add(self, function: Function) -> Function:
        if any(f.name == function.name for f in self.functions):
            raise ValueError(f"duplicate function name {function.name!r}")
        self.functions.append(function)
        return function

    def lookup(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise KeyError(f"no function named {name!r} in program {self.name!r}")

    @property
    def entry(self) -> Function:
        """The entry function: ``main`` if present, otherwise the first one."""
        for function in self.functions:
            if function.name == "main":
                return function
        if not self.functions:
            raise ValueError(f"program {self.name!r} has no functions")
        return self.functions[0]
