"""Expression nodes of the C-subset IR.

Expressions are immutable trees.  Each node knows how to report the scalar
operations it performs and the variables it reads, which is the information
the WCET hardware model and the HTG dependence analysis consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.ir.types import BOOL, FLOAT, INT, IRType, ScalarKind, ScalarType

#: Binary operators supported by the IR, grouped by cost class.
ARITH_OPS = ("+", "-", "*", "/", "%", "min", "max")
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")
LOGIC_OPS = ("&&", "||")
BINARY_OPS = ARITH_OPS + COMPARE_OPS + LOGIC_OPS

UNARY_OPS = ("-", "!", "abs", "sqrt", "exp", "log", "sin", "cos", "atan2", "floor")

#: Call intrinsics understood by the interpreter and the timing model.
INTRINSICS = (
    "min",
    "max",
    "abs",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "atan2",
    "floor",
    "ceil",
    "pow",
    "hypot",
    "clamp",
)


class Expr:
    """Base class for all IR expressions."""

    type: IRType

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def variables_read(self) -> set[str]:
        """Names of scalar variables and arrays read by this expression."""
        names: set[str] = set()
        for node in self.walk():
            if isinstance(node, Var):
                names.add(node.name)
            elif isinstance(node, ArrayRef):
                names.add(node.array)
        return names

    def operation_count(self) -> dict[str, int]:
        """Histogram of scalar operations performed by this expression."""
        counts: dict[str, int] = {}
        for node in self.walk():
            if isinstance(node, BinOp):
                counts[node.op] = counts.get(node.op, 0) + 1
            elif isinstance(node, UnOp):
                counts[node.op] = counts.get(node.op, 0) + 1
            elif isinstance(node, Call):
                counts[node.func] = counts.get(node.func, 0) + 1
        return counts

    def array_reads(self) -> list["ArrayRef"]:
        """All array element reads occurring in this expression."""
        return [node for node in self.walk() if isinstance(node, ArrayRef)]


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant."""

    value: float | int | bool
    type: ScalarType = field(default=FLOAT)

    def __post_init__(self) -> None:
        if isinstance(self.value, bool):
            object.__setattr__(self, "type", BOOL)
        elif isinstance(self.value, int) and self.type == FLOAT:
            # Integer literals default to INT unless a float type was forced
            # by constructing with an explicit non-default scalar type.
            object.__setattr__(self, "type", INT)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a scalar variable (or a whole array when passed around)."""

    name: str
    type: IRType = field(default=FLOAT)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    @property
    def type(self) -> IRType:  # type: ignore[override]
        if self.op in COMPARE_OPS or self.op in LOGIC_OPS:
            return BOOL
        left_t = self.left.type
        right_t = self.right.type
        if isinstance(left_t, ScalarType) and isinstance(right_t, ScalarType):
            if ScalarKind.FLOAT in (left_t.kind, right_t.kind):
                return FLOAT
            return INT
        return FLOAT

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation ``op operand``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {self.op!r}")

    @property
    def type(self) -> IRType:  # type: ignore[override]
        if self.op == "!":
            return BOOL
        return self.operand.type

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class ArrayRef(Expr):
    """An element access ``array[idx0][idx1]...`` into a named array."""

    array: str
    indices: tuple[Expr, ...]
    element_type: ScalarType = field(default=FLOAT)

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("ArrayRef requires at least one index expression")
        object.__setattr__(self, "indices", tuple(self.indices))

    @property
    def type(self) -> IRType:  # type: ignore[override]
        return self.element_type

    def children(self) -> Sequence[Expr]:
        return self.indices

    def __str__(self) -> str:
        idx = "".join(f"[{i}]" for i in self.indices)
        return f"{self.array}{idx}"


@dataclass(frozen=True)
class Call(Expr):
    """A call to a pure intrinsic function (sqrt, sin, min, ...)."""

    func: str
    args: tuple[Expr, ...]
    type: ScalarType = field(default=FLOAT)

    def __post_init__(self) -> None:
        if self.func not in INTRINSICS:
            raise ValueError(f"unknown intrinsic {self.func!r}; known: {INTRINSICS}")
        object.__setattr__(self, "args", tuple(self.args))

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


def const(value: float | int | bool) -> Const:
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Return ``expr`` with scalar variable reads replaced per ``mapping``.

    Array names are left untouched (only whole-variable reads are replaced);
    index expressions are rewritten recursively.
    """
    if isinstance(expr, Var) and expr.name in mapping:
        return mapping[expr.name]
    if isinstance(expr, Const) or isinstance(expr, Var):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, substitute(expr.operand, mapping))
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.array,
            tuple(substitute(i, mapping) for i in expr.indices),
            expr.element_type,
        )
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute(a, mapping) for a in expr.args), expr.type)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def try_evaluate_constant(expr: Expr) -> float | int | bool | None:
    """Evaluate ``expr`` when it only involves constants, else return None."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, BinOp):
        left = try_evaluate_constant(expr.left)
        right = try_evaluate_constant(expr.right)
        if left is None or right is None:
            return None
        try:
            return _apply_binop(expr.op, left, right)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
    if isinstance(expr, UnOp):
        val = try_evaluate_constant(expr.operand)
        if val is None:
            return None
        try:
            return _apply_unop(expr.op, val)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
    if isinstance(expr, Call):
        args = [try_evaluate_constant(a) for a in expr.args]
        if any(a is None for a in args):
            return None
        try:
            return _apply_intrinsic(expr.func, args)  # type: ignore[arg-type]
        except (ValueError, OverflowError, ZeroDivisionError):
            return None
    return None


def _apply_binop(op: str, left, right):
    import math

    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ZeroDivisionError("division by zero in constant expression")
        if isinstance(left, int) and isinstance(right, int):
            return int(math.trunc(left / right))
        return left / right
    if op == "%":
        return left % right
    if op == "min":
        return min(left, right)
    if op == "max":
        return max(left, right)
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "&&":
        return bool(left) and bool(right)
    if op == "||":
        return bool(left) or bool(right)
    raise ValueError(f"unknown binary operator {op!r}")


def _apply_unop(op: str, value):
    import math

    if op == "-":
        return -value
    if op == "!":
        return not bool(value)
    if op == "abs":
        return abs(value)
    if op == "sqrt":
        return math.sqrt(value)
    if op == "exp":
        return math.exp(value)
    if op == "log":
        return math.log(value)
    if op == "sin":
        return math.sin(value)
    if op == "cos":
        return math.cos(value)
    if op == "floor":
        return math.floor(value)
    raise ValueError(f"unknown unary operator {op!r}")


def _apply_intrinsic(func: str, args):
    import math

    if func == "min":
        return min(args)
    if func == "max":
        return max(args)
    if func == "abs":
        return abs(args[0])
    if func == "sqrt":
        return math.sqrt(args[0])
    if func == "exp":
        return math.exp(args[0])
    if func == "log":
        return math.log(args[0])
    if func == "sin":
        return math.sin(args[0])
    if func == "cos":
        return math.cos(args[0])
    if func == "tan":
        return math.tan(args[0])
    if func == "atan2":
        return math.atan2(args[0], args[1])
    if func == "floor":
        return math.floor(args[0])
    if func == "ceil":
        return math.ceil(args[0])
    if func == "pow":
        return math.pow(args[0], args[1])
    if func == "hypot":
        return math.hypot(args[0], args[1])
    if func == "clamp":
        lo, hi = args[1], args[2]
        return min(max(args[0], lo), hi)
    raise ValueError(f"unknown intrinsic {func!r}")
