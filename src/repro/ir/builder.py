"""Fluent construction helpers for IR functions.

The front end (model-to-IR code generation), the use-case kernels and the
tests all build IR through :class:`FunctionBuilder`, which removes most of
the boilerplate of creating declarations and nested blocks by hand.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import Assign, Block, For, If, Stmt
from repro.ir.types import FLOAT, INT, ArrayType, ScalarType


def as_expr(value: Expr | float | int | bool) -> Expr:
    """Coerce Python scalars to :class:`Const` nodes."""
    if isinstance(value, Expr):
        return value
    return Const(value)


@dataclass
class FunctionBuilder:
    """Incrementally builds a :class:`Function`.

    >>> fb = FunctionBuilder("saxpy")
    >>> x = fb.input_array("x", (16,))
    >>> y = fb.output_array("y", (16,))
    >>> a = fb.scalar_input("a")
    >>> with fb.loop("i", 0, 16) as i:
    ...     fb.assign(fb.at(y, i), fb.at(x, i) * a)
    >>> func = fb.build()
    >>> func.name
    'saxpy'
    """

    name: str
    _function: Function = field(init=False)
    _blocks: list[Block] = field(init=False)

    def __post_init__(self) -> None:
        self._function = Function(self.name)
        self._blocks = [self._function.body]

    # ------------------------------------------------------------------ #
    # declarations
    # ------------------------------------------------------------------ #
    def scalar_input(self, name: str, scalar: ScalarType = FLOAT) -> Var:
        self._function.params.append(VarDecl(name, scalar, Storage.INPUT))
        return Var(name, scalar)

    def input_array(self, name: str, shape: tuple[int, ...], scalar: ScalarType = FLOAT) -> Var:
        ty = ArrayType(scalar, shape)
        self._function.params.append(VarDecl(name, ty, Storage.INPUT))
        return Var(name, ty)

    def output_array(self, name: str, shape: tuple[int, ...], scalar: ScalarType = FLOAT) -> Var:
        ty = ArrayType(scalar, shape)
        self._function.params.append(VarDecl(name, ty, Storage.OUTPUT))
        return Var(name, ty)

    def local(self, name: str, scalar: ScalarType = FLOAT, initial: float | int | None = None) -> Var:
        self._function.declare(VarDecl(name, scalar, Storage.LOCAL, initial=initial))
        return Var(name, scalar)

    def local_array(self, name: str, shape: tuple[int, ...], scalar: ScalarType = FLOAT) -> Var:
        ty = ArrayType(scalar, shape)
        self._function.declare(VarDecl(name, ty, Storage.LOCAL))
        return Var(name, ty)

    def shared_array(self, name: str, shape: tuple[int, ...], scalar: ScalarType = FLOAT) -> Var:
        ty = ArrayType(scalar, shape)
        self._function.declare(VarDecl(name, ty, Storage.SHARED))
        return Var(name, ty)

    # ------------------------------------------------------------------ #
    # expression helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def at(array: Var, *indices: Expr | int) -> ArrayRef:
        """Element access into ``array`` (which must have an array type)."""
        if not isinstance(array.type, ArrayType):
            raise TypeError(f"{array.name} is not an array")
        return ArrayRef(
            array.name,
            tuple(as_expr(i) for i in indices),
            array.type.element,
        )

    @staticmethod
    def binop(op: str, left: Expr | float, right: Expr | float) -> BinOp:
        return BinOp(op, as_expr(left), as_expr(right))

    @staticmethod
    def call(func: str, *args: Expr | float) -> Call:
        return Call(func, tuple(as_expr(a) for a in args))

    @staticmethod
    def neg(value: Expr | float) -> UnOp:
        return UnOp("-", as_expr(value))

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    @property
    def current_block(self) -> Block:
        return self._blocks[-1]

    def emit(self, stmt: Stmt) -> Stmt:
        self.current_block.append(stmt)
        return stmt

    def assign(self, target: Var | ArrayRef, value: Expr | float | int) -> Assign:
        stmt = Assign(target, as_expr(value))
        self.emit(stmt)
        return stmt

    @contextlib.contextmanager
    def loop(
        self,
        index: str,
        lower: Expr | int,
        upper: Expr | int,
        step: int = 1,
        max_trip_count: int | None = None,
        parallelizable: bool = False,
    ) -> Iterator[Var]:
        """Open a counted loop; statements emitted inside land in its body."""
        body = Block()
        var = Var(index, INT)
        stmt = For(
            index=var,
            lower=as_expr(lower),
            upper=as_expr(upper),
            body=body,
            step=step,
            max_trip_count=max_trip_count,
            parallelizable=parallelizable,
        )
        self.emit(stmt)
        self._blocks.append(body)
        try:
            yield var
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def if_then(self, cond: Expr) -> Iterator[None]:
        """Open an if statement; only the then-branch receives statements."""
        stmt = If(cond, Block(), Block())
        self.emit(stmt)
        self._blocks.append(stmt.then_body)
        try:
            yield
        finally:
            self._blocks.pop()

    @contextlib.contextmanager
    def orelse(self) -> Iterator[None]:
        """Open the else branch of the most recently emitted if statement."""
        last = self.current_block.stmts[-1] if self.current_block.stmts else None
        if not isinstance(last, If):
            raise ValueError("orelse() must directly follow an if_then() block")
        self._blocks.append(last.else_body)
        try:
            yield
        finally:
            self._blocks.pop()

    # ------------------------------------------------------------------ #
    def build(self, validate: bool = True) -> Function:
        if validate:
            self._function.validate()
        return self._function


# Operator sugar on expressions -------------------------------------------- #
def _make_binop(op: str):
    def method(self: Expr, other):
        return BinOp(op, self, as_expr(other))

    return method


def _make_rbinop(op: str):
    def method(self: Expr, other):
        return BinOp(op, as_expr(other), self)

    return method


# Attach arithmetic/comparison operator overloads to Expr so builder code can
# write ``x[i] * a + 1`` naturally.
Expr.__add__ = _make_binop("+")
Expr.__radd__ = _make_rbinop("+")
Expr.__sub__ = _make_binop("-")
Expr.__rsub__ = _make_rbinop("-")
Expr.__mul__ = _make_binop("*")
Expr.__rmul__ = _make_rbinop("*")
Expr.__truediv__ = _make_binop("/")
Expr.__rtruediv__ = _make_rbinop("/")
Expr.__mod__ = _make_binop("%")
Expr.__lt__ = _make_binop("<")
Expr.__le__ = _make_binop("<=")
Expr.__gt__ = _make_binop(">")
Expr.__ge__ = _make_binop(">=")
Expr.__neg__ = lambda self: UnOp("-", self)  # noqa: E731
