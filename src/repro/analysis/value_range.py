"""Interval (value-range) analysis over IR expressions.

Abstract domain: each scalar variable maps to a closed interval
``[lo, hi]`` with infinite endpoints allowed; a variable absent from the
environment is unconstrained (top), and the environment value ``None``
denotes the unreachable state (bottom).  The lattice has infinite height,
so the dataflow solver applies :meth:`ValueRangeAnalysis.widen` (classic
jump-to-infinity widening) after a few re-entries of a block.

Branch refinement happens on CFG edges: the ``taken`` / ``fallthrough``
edges of an ``if`` assume the condition true / false, the ``taken`` /
``exit`` edges of a loop header constrain the index (``for``) or assume the
condition (``while``).  When an assumption contradicts the incoming
environment the edge state becomes ``None`` -- the edge is statically
infeasible, which the WCET tightener turns into an ``x_e = 0`` IPET
constraint.

Soundness caveats: arrays are not tracked (element reads are top), there is
no relational information (``x < y`` only refines against the other
operand's current interval), and float comparisons are refined without the
one-ulp shrink applied to integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.dataflow import DataflowAnalysis, DataflowResult, run_dataflow
from repro.ir.cfg import BasicBlock, CFGEdge, ControlFlowGraph, build_cfg
from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from repro.ir.program import Function, Storage
from repro.ir.statements import Assign, For, While
from repro.ir.types import ScalarKind, ScalarType

INF = float("inf")


@dataclass(frozen=True)
class ValueRange:
    """A closed interval ``[lo, hi]``; endpoints may be infinite."""

    lo: float = -INF
    hi: float = INF

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_top(self) -> bool:
        return self.lo == -INF and self.hi == INF

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    def hull(self, other: "ValueRange") -> "ValueRange":
        return ValueRange(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "ValueRange") -> "ValueRange | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return ValueRange(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


TOP = ValueRange()

#: A variable-range environment; ``None`` is the unreachable state.
Env = dict[str, ValueRange]


def _safe(value: float, fallback: float) -> float:
    """Replace the NaNs of indeterminate infinity arithmetic."""
    return fallback if math.isnan(value) else value


def _mul(a: ValueRange, b: ValueRange) -> ValueRange:
    corners = [
        _safe(x * y, 0.0) for x in (a.lo, a.hi) for y in (b.lo, b.hi)
    ]
    return ValueRange(min(corners), max(corners))


def _div(a: ValueRange, b: ValueRange) -> ValueRange:
    """Interval quotient hull; the caller guarantees ``0`` is outside ``b``.

    ``inf/inf`` corners are indeterminate and dropped: the divisor keeps a
    constant sign, so the matching ``x/inf -> 0`` and ``inf/y -> inf``
    corners already close the hull on both sides of the dropped one.
    """
    corners = [x / y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    determinate = [q for q in corners if not math.isnan(q)]
    if not determinate:
        return TOP
    return ValueRange(min(determinate), max(determinate))


def _bool_range(value: "bool | None") -> ValueRange:
    if value is True:
        return ValueRange(1.0, 1.0)
    if value is False:
        return ValueRange(0.0, 0.0)
    return ValueRange(0.0, 1.0)


def eval_range(expr: Expr, env: Env) -> ValueRange:
    """Interval of the possible values of ``expr`` under ``env``."""
    if isinstance(expr, Const):
        v = float(expr.value)
        return ValueRange(v, v)
    if isinstance(expr, Var):
        return env.get(expr.name, TOP)
    if isinstance(expr, ArrayRef):
        return TOP
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return _bool_range(truth(expr, env))
        a = eval_range(expr.left, env)
        b = eval_range(expr.right, env)
        if op == "+":
            return ValueRange(_safe(a.lo + b.lo, -INF), _safe(a.hi + b.hi, INF))
        if op == "-":
            return ValueRange(_safe(a.lo - b.hi, -INF), _safe(a.hi - b.lo, INF))
        if op == "*":
            return _mul(a, b)
        if op == "/":
            if b.lo > 0 or b.hi < 0:
                return _div(a, b)
            # divisor range contains zero: any quotient is possible
            return TOP
        if op == "%":
            if a.lo >= 0 and b.lo > 0 and b.hi < INF:
                # x % b < b, and only integers stay at or below b - 1
                integral = _is_int(expr.left) and _is_int(expr.right)
                return ValueRange(0.0, min(a.hi, b.hi - 1 if integral else b.hi))
            return TOP
        if op == "min":
            return ValueRange(min(a.lo, b.lo), min(a.hi, b.hi))
        if op == "max":
            return ValueRange(max(a.lo, b.lo), max(a.hi, b.hi))
        return TOP
    if isinstance(expr, UnOp):
        op = expr.op
        if op == "!":
            return _bool_range(truth(expr, env))
        a = eval_range(expr.operand, env)
        if op == "-":
            return ValueRange(-a.hi, -a.lo)
        if op == "abs":
            if a.lo >= 0:
                return a
            if a.hi <= 0:
                return ValueRange(-a.hi, -a.lo)
            return ValueRange(0.0, max(-a.lo, a.hi))
        if op == "floor":
            return ValueRange(
                math.floor(a.lo) if a.lo > -INF else -INF,
                math.floor(a.hi) if a.hi < INF else INF,
            )
        if op == "sqrt":
            if a.hi < 0:
                return TOP
            lo = math.sqrt(a.lo) if a.lo > 0 else 0.0
            return ValueRange(lo, math.sqrt(a.hi) if a.hi < INF else INF)
        if op in ("sin", "cos"):
            return ValueRange(-1.0, 1.0)
        return TOP
    if isinstance(expr, Call):
        func = expr.func
        args = [eval_range(a, env) for a in expr.args]
        if func == "min":
            return ValueRange(min(a.lo for a in args), min(a.hi for a in args))
        if func == "max":
            return ValueRange(max(a.lo for a in args), max(a.hi for a in args))
        if func == "abs":
            return eval_range(UnOp("abs", expr.args[0]), env)
        if func == "clamp":
            x, lo, hi = args
            return ValueRange(
                min(max(x.lo, lo.lo), hi.hi), min(max(x.hi, lo.hi), hi.hi)
            )
        if func in ("sin", "cos"):
            return ValueRange(-1.0, 1.0)
        if func == "atan2":
            return ValueRange(-math.pi, math.pi)
        if func in ("floor", "ceil"):
            a = args[0]
            rnd = math.floor if func == "floor" else math.ceil
            return ValueRange(
                rnd(a.lo) if a.lo > -INF else -INF,
                rnd(a.hi) if a.hi < INF else INF,
            )
        if func == "sqrt":
            return eval_range(UnOp("sqrt", expr.args[0]), env)
        if func == "hypot":
            return ValueRange(0.0, INF)
        return TOP
    return TOP


def truth(cond: Expr, env: Env) -> "bool | None":
    """Tri-state evaluation of a boolean condition under ``env``."""
    if isinstance(cond, Const):
        return bool(cond.value)
    if isinstance(cond, UnOp) and cond.op == "!":
        t = truth(cond.operand, env)
        return None if t is None else not t
    if isinstance(cond, BinOp):
        op = cond.op
        if op == "&&":
            a, b = truth(cond.left, env), truth(cond.right, env)
            if a is False or b is False:
                return False
            if a is True and b is True:
                return True
            return None
        if op == "||":
            a, b = truth(cond.left, env), truth(cond.right, env)
            if a is True or b is True:
                return True
            if a is False and b is False:
                return False
            return None
        if op in ("<", "<=", ">", ">=", "==", "!="):
            a = eval_range(cond.left, env)
            b = eval_range(cond.right, env)
            if op == "<":
                if a.hi < b.lo:
                    return True
                if a.lo >= b.hi:
                    return False
            elif op == "<=":
                if a.hi <= b.lo:
                    return True
                if a.lo > b.hi:
                    return False
            elif op == ">":
                if a.lo > b.hi:
                    return True
                if a.hi <= b.lo:
                    return False
            elif op == ">=":
                if a.lo >= b.hi:
                    return True
                if a.hi < b.lo:
                    return False
            elif op == "==":
                if a.is_constant and b.is_constant and a.lo == b.lo:
                    return True
                if a.hi < b.lo or a.lo > b.hi:
                    return False
            elif op == "!=":
                if a.hi < b.lo or a.lo > b.hi:
                    return True
                if a.is_constant and b.is_constant and a.lo == b.lo:
                    return False
            return None
    return None


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _is_int(expr: Expr) -> bool:
    t = getattr(expr, "type", None)
    return isinstance(t, ScalarType) and t.kind in (ScalarKind.INT, ScalarKind.BOOL)


def _refine_var(env: Env, name: str, constraint: ValueRange) -> "Env | None":
    cur = env.get(name, TOP)
    refined = cur.intersect(constraint)
    if refined is None:
        return None
    out = dict(env)
    out[name] = refined
    return out


def assume(cond: Expr, value: bool, env: Env) -> "Env | None":
    """Refine ``env`` under the assumption ``cond == value``.

    Returns ``None`` when the assumption contradicts the environment (the
    program point is unreachable).  Refinement is best-effort: conditions
    the analysis cannot decompose leave ``env`` unchanged, which is sound.
    """
    t = truth(cond, env)
    if t is not None:
        return env if t == value else None
    if isinstance(cond, UnOp) and cond.op == "!":
        return assume(cond.operand, not value, env)
    if isinstance(cond, BinOp):
        op = cond.op
        if op == "&&" and value:
            left = assume(cond.left, True, env)
            return None if left is None else assume(cond.right, True, left)
        if op == "||" and not value:
            left = assume(cond.left, False, env)
            return None if left is None else assume(cond.right, False, left)
        if op in _NEGATED:
            if not value:
                return assume(BinOp(_NEGATED[op], cond.left, cond.right), True, env)
            left, right = cond.left, cond.right
            # integer comparisons shrink strict bounds by one
            if isinstance(left, Var):
                b = eval_range(right, env)
                eps = 1.0 if _is_int(left) else 0.0
                if op == "<" and b.hi < INF:
                    return _refine_var(env, left.name, ValueRange(-INF, b.hi - eps))
                if op == "<=" and b.hi < INF:
                    return _refine_var(env, left.name, ValueRange(-INF, b.hi))
                if op == ">" and b.lo > -INF:
                    return _refine_var(env, left.name, ValueRange(b.lo + eps, INF))
                if op == ">=" and b.lo > -INF:
                    return _refine_var(env, left.name, ValueRange(b.lo, INF))
                if op == "==" and not b.is_top:
                    return _refine_var(env, left.name, b)
            if isinstance(right, Var):
                a = eval_range(left, env)
                eps = 1.0 if _is_int(right) else 0.0
                if op == "<" and a.lo > -INF:  # a < x  =>  x > a
                    return _refine_var(env, right.name, ValueRange(a.lo + eps, INF))
                if op == "<=" and a.lo > -INF:
                    return _refine_var(env, right.name, ValueRange(a.lo, INF))
                if op == ">" and a.hi < INF:
                    return _refine_var(env, right.name, ValueRange(-INF, a.hi - eps))
                if op == ">=" and a.hi < INF:
                    return _refine_var(env, right.name, ValueRange(-INF, a.hi))
                if op == "==" and not a.is_top:
                    return _refine_var(env, right.name, a)
    return env


class ValueRangeAnalysis(DataflowAnalysis):
    """Forward interval analysis with widening and branch refinement."""

    direction = "forward"
    widen_after = 3

    def __init__(self, function: Function, cfg: ControlFlowGraph) -> None:
        self.function = function
        self.cfg = cfg

    def boundary(self, cfg: ControlFlowGraph) -> Env:
        # Only per-activation locals with a declared initial value start
        # constrained; everything else (parameters, shared buffers,
        # persistent state) can hold anything on entry.
        env: Env = {}
        for decl in self.function.all_decls():
            if (
                decl.storage is Storage.LOCAL
                and not decl.is_array
                and decl.initial is not None
            ):
                v = float(decl.initial)
                env[decl.name] = ValueRange(v, v)
        return env

    def initial(self, cfg: ControlFlowGraph) -> "Env | None":
        return None

    def join(self, states: "list[Env | None]") -> "Env | None":
        live = [s for s in states if s is not None]
        if not live:
            return None
        merged = dict(live[0])
        for state in live[1:]:
            for name in list(merged):
                if name in state:
                    merged[name] = merged[name].hull(state[name])
                else:
                    del merged[name]  # absent = top
        return merged

    def transfer(self, block: BasicBlock, state: "Env | None") -> "Env | None":
        if state is None:
            return None
        env = dict(state)
        header_stmt = self.cfg.loop_stmts.get(block.bid)
        if isinstance(header_stmt, For):
            env[header_stmt.index.name] = self._header_index_range(header_stmt, env)
        for stmt in block.statements:
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
                env[stmt.target.name] = eval_range(stmt.value, env)
        return env

    def _header_index_range(self, stmt: For, env: Env) -> ValueRange:
        """All values the index can hold when control reaches the header.

        The interpreter evaluates the index over integers: it starts at
        ``lower`` and steps by ``step`` while ``index < upper`` (step > 0)
        or ``index > upper`` (step < 0); the last header visit therefore
        overshoots ``upper`` by less than one step.
        """
        lo_r = eval_range(stmt.lower, env)
        up_r = eval_range(stmt.upper, env)
        step = abs(stmt.step)
        if stmt.step > 0:
            hi = max(lo_r.hi, up_r.hi + step - 1) if up_r.hi < INF else INF
            return ValueRange(lo_r.lo, max(hi, lo_r.lo) if hi < INF else INF)
        lo = min(lo_r.lo, up_r.lo - step + 1) if up_r.lo > -INF else -INF
        return ValueRange(min(lo, lo_r.hi) if lo > -INF else -INF, lo_r.hi)

    def edge_transfer(self, edge: CFGEdge, state: "Env | None") -> "Env | None":
        if state is None:
            return None
        src = edge.src
        header_stmt = self.cfg.loop_stmts.get(src.bid)
        if header_stmt is not None:
            if isinstance(header_stmt, While):
                if edge.kind == "taken":
                    return assume(header_stmt.cond, True, state)
                if edge.kind == "exit":
                    return assume(header_stmt.cond, False, state)
                return state
            if isinstance(header_stmt, For):
                name = header_stmt.index.name
                up_r = eval_range(header_stmt.upper, state)
                if header_stmt.step > 0:
                    if edge.kind == "taken" and up_r.hi < INF:
                        # index < upper over integers
                        return _refine_var(state, name, ValueRange(-INF, up_r.hi - 1))
                    if edge.kind == "exit" and up_r.lo > -INF:
                        return _refine_var(state, name, ValueRange(up_r.lo, INF))
                else:
                    if edge.kind == "taken" and up_r.lo > -INF:
                        return _refine_var(state, name, ValueRange(up_r.lo + 1, INF))
                    if edge.kind == "exit" and up_r.hi < INF:
                        return _refine_var(state, name, ValueRange(-INF, up_r.hi))
                return state
        if src.conditions and edge.kind in ("taken", "fallthrough"):
            cond = src.conditions[0]
            return assume(cond, edge.kind == "taken", state)
        return state

    def widen(self, old: "Env | None", new: "Env | None") -> "Env | None":
        if old is None or new is None:
            return new
        out: Env = {}
        for name, rng in new.items():
            prev = old.get(name)
            if prev is None:
                continue  # newly constrained after instability: drop to top
            lo = rng.lo if rng.lo >= prev.lo else -INF
            hi = rng.hi if rng.hi <= prev.hi else INF
            out[name] = ValueRange(lo, hi)
        return out


def value_ranges(function: Function, cfg: ControlFlowGraph | None = None) -> DataflowResult:
    """Run value-range analysis on ``function`` and return the fixed point."""
    cfg = cfg if cfg is not None else build_cfg(function, allow_unbounded=True)
    return run_dataflow(cfg, ValueRangeAnalysis(function, cfg))
