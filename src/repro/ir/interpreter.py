"""Reference interpreter for the IR.

The interpreter serves two purposes in the reproduction:

* functional validation -- the model-level simulation of a dataflow diagram
  and the execution of its generated IR must agree (tested);
* execution traces -- it counts what a run on a given input actually
  executes (operations, array reads and writes, ``if`` branches, scalar
  assignments, loop iterations), which the multi-core simulator
  (:mod:`repro.sim.executor`) prices by the cost semantics of
  :mod:`repro.wcet.hardware_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.ir.expressions import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    UnOp,
    Var,
    _apply_binop,
    _apply_intrinsic,
    _apply_unop,
)
from repro.ir.program import Function
from repro.ir.statements import (
    Assign,
    Block,
    ExprStmt,
    For,
    If,
    Return,
    Stmt,
    While,
)
from repro.ir.types import ArrayType, ScalarKind, ScalarType


class InterpreterError(RuntimeError):
    """Raised on runtime errors (unbound variables, bound violations...)."""


@dataclass
class ExecutionStats:
    """Dynamic counts collected while interpreting a function."""

    operations: dict[str, int] = field(default_factory=dict)
    array_reads: dict[str, int] = field(default_factory=dict)
    array_writes: dict[str, int] = field(default_factory=dict)
    #: ``if`` statements executed (each takes one branch)
    branches: int = 0
    #: assignments to scalars (loop indices are loop overhead, not counted)
    scalar_assigns: int = 0
    loop_iterations: int = 0

    def record_op(self, op: str) -> None:
        self.operations[op] = self.operations.get(op, 0) + 1

    def record_read(self, array: str) -> None:
        self.array_reads[array] = self.array_reads.get(array, 0) + 1

    def record_write(self, array: str) -> None:
        self.array_writes[array] = self.array_writes.get(array, 0) + 1


@dataclass
class ExecutionResult:
    """Final environment and statistics after interpreting a function."""

    env: dict[str, Any]
    stats: ExecutionStats
    return_value: Any = None

    def array(self, name: str) -> np.ndarray:
        value = self.env[name]
        if not isinstance(value, np.ndarray):
            raise KeyError(f"{name!r} is not an array in the final environment")
        return value

    def scalar(self, name: str) -> float:
        value = self.env[name]
        if isinstance(value, np.ndarray):
            raise KeyError(f"{name!r} is an array, not a scalar")
        return value


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class Interpreter:
    """Executes IR functions over concrete (numpy-backed) environments."""

    def __init__(self, max_loop_violation: bool = True) -> None:
        #: When True, executing more iterations than a loop's declared
        #: ``max_trip_count`` raises; this is how tests assert bound safety.
        self.check_loop_bounds = max_loop_violation

    # ------------------------------------------------------------------ #
    def run(self, function: Function, inputs: Mapping[str, Any] | None = None) -> ExecutionResult:
        """Interpret ``function`` with the given input bindings."""
        env = self._initial_environment(function, dict(inputs or {}))
        stats = ExecutionStats()
        return_value = None
        try:
            self._exec_block(function.body, env, stats)
        except _ReturnSignal as signal:
            return_value = signal.value
        return ExecutionResult(env=env, stats=stats, return_value=return_value)

    def run_statements(self, block: Block, env: dict[str, Any]) -> ExecutionStats:
        """Execute a statement block against an existing environment.

        Used by the multi-core simulator, which executes one HTG task region
        at a time while sharing a single global memory environment.
        """
        stats = ExecutionStats()
        try:
            self._exec_block(block, env, stats)
        except _ReturnSignal:
            pass
        return stats

    def initial_environment(self, function: Function, inputs: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Public wrapper building the starting environment of a function."""
        return self._initial_environment(function, dict(inputs or {}))

    # ------------------------------------------------------------------ #
    def _initial_environment(self, function: Function, inputs: dict[str, Any]) -> dict[str, Any]:
        env: dict[str, Any] = {}
        for decl in function.all_decls():
            if decl.name in inputs:
                value = inputs.pop(decl.name)
                env[decl.name] = self._coerce(decl.type, value)
            elif isinstance(decl.type, ArrayType):
                dtype = np.float64 if decl.type.element.kind is ScalarKind.FLOAT else np.int64
                env[decl.name] = np.zeros(decl.type.shape, dtype=dtype)
            else:
                env[decl.name] = decl.initial if decl.initial is not None else 0
        if inputs:
            raise InterpreterError(
                f"inputs {sorted(inputs)} do not match any declaration of "
                f"function {function.name!r}"
            )
        return env

    @staticmethod
    def _coerce(ty, value: Any) -> Any:
        if isinstance(ty, ArrayType):
            arr = np.asarray(value, dtype=np.float64 if ty.element.kind is ScalarKind.FLOAT else np.int64)
            if arr.shape != ty.shape:
                arr = np.reshape(arr, ty.shape)
            return arr.copy()
        if isinstance(ty, ScalarType) and ty.kind is ScalarKind.INT:
            return int(value)
        if isinstance(ty, ScalarType) and ty.kind is ScalarKind.BOOL:
            return bool(value)
        return float(value)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _exec_block(self, block: Block, env: dict[str, Any], stats: ExecutionStats) -> None:
        for stmt in block.stmts:
            self._exec_stmt(stmt, env, stats)

    def _exec_stmt(self, stmt: Stmt, env: dict[str, Any], stats: ExecutionStats) -> None:
        if isinstance(stmt, Assign):
            value = self._eval(stmt.value, env, stats)
            self._store(stmt.target, value, env, stats)
            return
        if isinstance(stmt, Block):
            self._exec_block(stmt, env, stats)
            return
        if isinstance(stmt, If):
            cond = self._eval(stmt.cond, env, stats)
            stats.branches += 1
            if cond:
                self._exec_block(stmt.then_body, env, stats)
            else:
                self._exec_block(stmt.else_body, env, stats)
            return
        if isinstance(stmt, For):
            lower = int(self._eval(stmt.lower, env, stats))
            upper = int(self._eval(stmt.upper, env, stats))
            iterations = 0
            index = lower
            while (index < upper) if stmt.step > 0 else (index > upper):
                if self.check_loop_bounds and stmt.max_trip_count is not None:
                    if iterations >= stmt.max_trip_count:
                        raise InterpreterError(
                            f"loop over {stmt.index.name!r} exceeded its declared "
                            f"bound of {stmt.max_trip_count} iterations"
                        )
                env[stmt.index.name] = index
                self._exec_block(stmt.body, env, stats)
                index += stmt.step
                iterations += 1
                stats.loop_iterations += 1
            return
        if isinstance(stmt, While):
            iterations = 0
            while self._eval(stmt.cond, env, stats):
                if iterations >= stmt.max_trip_count:
                    if self.check_loop_bounds:
                        raise InterpreterError(
                            "while loop exceeded its declared bound of "
                            f"{stmt.max_trip_count} iterations"
                        )
                    break
                self._exec_block(stmt.body, env, stats)
                iterations += 1
                stats.loop_iterations += 1
            return
        if isinstance(stmt, Return):
            value = self._eval(stmt.value, env, stats) if stmt.value is not None else None
            raise _ReturnSignal(value)
        if isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, env, stats)
            return
        raise InterpreterError(f"unsupported statement {type(stmt).__name__}")

    def _store(self, target: Var | ArrayRef, value: Any, env: dict[str, Any], stats: ExecutionStats) -> None:
        if isinstance(target, Var):
            env[target.name] = value
            stats.scalar_assigns += 1
            return
        array = env.get(target.array)
        if not isinstance(array, np.ndarray):
            raise InterpreterError(f"assignment to unknown array {target.array!r}")
        indices = tuple(int(self._eval(i, env, stats)) for i in target.indices)
        try:
            array[_checked(indices)] = value
        except IndexError as exc:
            raise InterpreterError(
                f"out-of-bounds write {target.array}{list(indices)} "
                f"(shape {array.shape})"
            ) from exc
        stats.record_write(target.array)

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def _eval(self, expr: Expr, env: dict[str, Any], stats: ExecutionStats) -> Any:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in env:
                raise InterpreterError(f"unbound variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, env, stats)
            right = self._eval(expr.right, env, stats)
            stats.record_op(expr.op)
            try:
                return _apply_binop(expr.op, left, right)
            except ZeroDivisionError as exc:
                raise InterpreterError(str(exc)) from exc
        if isinstance(expr, UnOp):
            value = self._eval(expr.operand, env, stats)
            stats.record_op(expr.op)
            try:
                return _apply_unop(expr.op, value)
            except ValueError as exc:
                raise InterpreterError(str(exc)) from exc
        if isinstance(expr, ArrayRef):
            array = env.get(expr.array)
            if not isinstance(array, np.ndarray):
                raise InterpreterError(f"read from unknown array {expr.array!r}")
            indices = tuple(int(self._eval(i, env, stats)) for i in expr.indices)
            try:
                value = array[_checked(indices)]
            except IndexError as exc:
                raise InterpreterError(
                    f"out-of-bounds read {expr.array}{list(indices)} "
                    f"(shape {array.shape})"
                ) from exc
            stats.record_read(expr.array)
            return float(value) if array.dtype.kind == "f" else int(value)
        if isinstance(expr, Call):
            args = [self._eval(a, env, stats) for a in expr.args]
            stats.record_op(expr.func)
            try:
                return _apply_intrinsic(expr.func, args)
            except (ValueError, OverflowError) as exc:
                raise InterpreterError(str(exc)) from exc
        raise InterpreterError(f"unsupported expression {type(expr).__name__}")


def _checked(indices: tuple[int, ...]) -> tuple[int, ...]:
    """``indices`` unchanged, or :class:`IndexError` on a negative one:
    numpy would wrap it around to the end, the modelled memory does not."""
    if min(indices) < 0:
        raise IndexError(f"negative index in {list(indices)}")
    return indices


def run_function(function: Function, inputs: Mapping[str, Any] | None = None) -> ExecutionResult:
    """Convenience wrapper: interpret ``function`` with default settings."""
    return Interpreter().run(function, inputs)
