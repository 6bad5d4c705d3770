"""Lowering of mini-Scilab behaviour scripts to the C-subset IR.

The lowering maps:

* 1-based Scilab indexing to 0-based IR array indexing;
* inclusive ``for i = a:b`` ranges to counted IR loops;
* Scilab builtins to IR intrinsics;
* unbound assigned names to function-local temporaries (prefixed per block so
  several block regions can coexist in one IR function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ir.builder import FunctionBuilder
from repro.ir.expressions import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    UnOp,
    Var,
    try_evaluate_constant,
)
from repro.ir.program import VarDecl
from repro.ir.types import INT, ArrayType
from repro.model.scilab import ast


class ScilabLoweringError(ValueError):
    """Raised when a behaviour uses a construct outside the compilable subset."""


#: Scilab builtin -> IR intrinsic name.
_BUILTIN_MAP = {
    "sin": "sin",
    "cos": "cos",
    "tan": "tan",
    "sqrt": "sqrt",
    "exp": "exp",
    "log": "log",
    "abs": "abs",
    "floor": "floor",
    "ceil": "ceil",
    "atan2": "atan2",
    "hypot": "hypot",
    "pow": "pow",
    "min": "min",
    "max": "max",
}


@dataclass
class LoweringContext:
    """Name environment for one block region."""

    builder: FunctionBuilder
    #: Name -> IR expression (Var for ports/arrays, Const for scalar params).
    bindings: dict[str, Expr] = field(default_factory=dict)
    #: Prefix applied to locally created temporaries (usually the block name).
    temp_prefix: str = ""
    #: Names of loop index variables currently in scope.
    _loop_vars: set[str] = field(default_factory=set)
    #: Temporaries this context declared.
    created: set[str] = field(default_factory=set)
    #: Whether a temporary resolved to a declaration this context did not
    #: create (a name another region declared, by a clash of mangled names).
    foreign: bool = False

    def lookup(self, name: str) -> Expr | None:
        if name in self._loop_vars:
            return Var(self._temp_name(name) if False else name, INT)
        return self.bindings.get(name)

    def _temp_name(self, name: str) -> str:
        return f"{self.temp_prefix}{name}" if self.temp_prefix else name

    def declared_temp(self, mangled: str) -> VarDecl | None:
        """The function's declaration of temporary ``mangled``, if any."""
        decl = self.builder._function.lookup(mangled)
        if decl is not None and mangled not in self.created:
            self.foreign = True
        return decl

    def get_or_create_local(self, name: str) -> Var:
        """Local temporary for an unbound assigned name."""
        mangled = self._temp_name(name)
        existing = self.declared_temp(mangled)
        if existing is None:
            self.created.add(mangled)
            return self.builder.local(mangled)
        return Var(mangled, existing.type)


def _to_zero_based(index: Expr) -> Expr:
    """Convert a 1-based Scilab index expression to a 0-based IR index."""
    folded = try_evaluate_constant(index)
    if folded is not None:
        return Const(int(folded) - 1)
    return BinOp("-", index, Const(1))


def lower_expression(expr: ast.Expression, ctx: LoweringContext) -> Expr:
    """Lower a Scilab expression to an IR expression."""
    if isinstance(expr, ast.Number):
        value = expr.value
        if float(value).is_integer():
            return Const(int(value))
        return Const(float(value))
    if isinstance(expr, ast.Identifier):
        if expr.name == "pi":
            return Const(math.pi)
        if expr.name in ctx._loop_vars:
            return Var(expr.name, INT)
        bound = ctx.bindings.get(expr.name)
        if bound is not None:
            return bound
        mangled = ctx._temp_name(expr.name)
        decl = ctx.declared_temp(mangled)
        if decl is not None:
            return Var(mangled, decl.type)
        raise ScilabLoweringError(f"read of unbound variable {expr.name!r}")
    if isinstance(expr, ast.BinaryOp):
        left = lower_expression(expr.left, ctx)
        right = lower_expression(expr.right, ctx)
        if expr.op == "^":
            return Call("pow", (left, right))
        return BinOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        return UnOp(expr.op, lower_expression(expr.operand, ctx))
    if isinstance(expr, ast.FunctionCall):
        return _lower_call(expr, ctx)
    if isinstance(expr, ast.VectorLiteral):
        raise ScilabLoweringError(
            "vector literals are only supported as block parameters, not "
            "inside compiled behaviours"
        )
    raise ScilabLoweringError(f"unsupported expression {type(expr).__name__}")


def _lower_call(expr: ast.FunctionCall, ctx: LoweringContext) -> Expr:
    bound = ctx.bindings.get(expr.name)
    if bound is not None and isinstance(bound, Var) and isinstance(bound.type, ArrayType):
        indices = tuple(_to_zero_based(lower_expression(a, ctx)) for a in expr.args)
        if len(indices) != bound.type.ndim:
            raise ScilabLoweringError(
                f"array {expr.name!r} has {bound.type.ndim} dimensions but was "
                f"indexed with {len(indices)} indices"
            )
        return ArrayRef(bound.name, indices, bound.type.element)
    if expr.name in _BUILTIN_MAP:
        args = tuple(lower_expression(a, ctx) for a in expr.args)
        return Call(_BUILTIN_MAP[expr.name], args)
    raise ScilabLoweringError(
        f"{expr.name!r} is neither a bound array nor a supported builtin"
    )


def _lower_assignment(stmt: ast.Assignment, ctx: LoweringContext) -> None:
    value = lower_expression(stmt.value, ctx)
    if stmt.is_indexed:
        bound = ctx.bindings.get(stmt.target)
        if bound is None or not isinstance(bound, Var) or not isinstance(bound.type, ArrayType):
            raise ScilabLoweringError(
                f"indexed assignment to {stmt.target!r}, which is not a bound array"
            )
        indices = tuple(_to_zero_based(lower_expression(i, ctx)) for i in stmt.indices)
        ctx.builder.assign(ArrayRef(bound.name, indices, bound.type.element), value)
        return
    bound = ctx.bindings.get(stmt.target)
    if bound is not None:
        if isinstance(bound, Var) and not isinstance(bound.type, ArrayType):
            ctx.builder.assign(bound, value)
            return
        if isinstance(bound, Var) and isinstance(bound.type, ArrayType):
            raise ScilabLoweringError(
                f"whole-array assignment to {stmt.target!r} is not supported; "
                "assign elements in a loop"
            )
        raise ScilabLoweringError(f"assignment to read-only parameter {stmt.target!r}")
    target = ctx.get_or_create_local(stmt.target)
    ctx.builder.assign(target, value)


def _lower_for(stmt: ast.ForLoop, ctx: LoweringContext) -> None:
    start = lower_expression(stmt.range.start, ctx)
    stop = lower_expression(stmt.range.stop, ctx)
    step_value = 1
    if stmt.range.step is not None:
        folded = try_evaluate_constant(lower_expression(stmt.range.step, ctx))
        if folded is None:
            raise ScilabLoweringError("for-loop steps must be compile-time constants")
        step_value = int(folded)
        if step_value <= 0:
            raise ScilabLoweringError("only positive for-loop steps are supported")
    # Scilab ranges are inclusive of the stop value.
    stop_const = try_evaluate_constant(stop)
    upper: Expr = Const(int(stop_const) + 1) if stop_const is not None else BinOp("+", stop, Const(1))
    if stmt.var in ctx._loop_vars:
        raise ScilabLoweringError(f"nested reuse of loop variable {stmt.var!r}")
    with ctx.builder.loop(stmt.var, start, upper, step=step_value):
        ctx._loop_vars.add(stmt.var)
        try:
            for inner in stmt.body:
                _lower_statement(inner, ctx)
        finally:
            ctx._loop_vars.discard(stmt.var)


def _lower_statement(stmt: ast.Statement, ctx: LoweringContext) -> None:
    if isinstance(stmt, ast.Assignment):
        _lower_assignment(stmt, ctx)
        return
    if isinstance(stmt, ast.IfStatement):
        cond = lower_expression(stmt.condition, ctx)
        with ctx.builder.if_then(cond):
            for inner in stmt.then_body:
                _lower_statement(inner, ctx)
        if stmt.else_body:
            with ctx.builder.orelse():
                for inner in stmt.else_body:
                    _lower_statement(inner, ctx)
        return
    if isinstance(stmt, ast.ForLoop):
        _lower_for(stmt, ctx)
        return
    raise ScilabLoweringError(f"unsupported statement {type(stmt).__name__}")


def lower_script(
    script: ast.Script,
    builder: FunctionBuilder,
    bindings: dict[str, Expr],
    temp_prefix: str = "",
) -> bool:
    """Lower ``script`` into the builder's current block.

    ``bindings`` maps Scilab names (ports, parameters, state variables) to IR
    expressions; names assigned but not bound become function-local
    temporaries prefixed with ``temp_prefix``.  Returns whether the
    lowering read nothing from the function but the temporaries it
    declared itself: only then is its output a function of ``script``,
    ``bindings`` and ``temp_prefix`` alone.
    """
    ctx = LoweringContext(builder=builder, bindings=dict(bindings), temp_prefix=temp_prefix)
    for stmt in script.statements:
        _lower_statement(stmt, ctx)
    return not ctx.foreign
