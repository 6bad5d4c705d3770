"""Contention certificates: static-MHP pruning witness + checker.

A design with ``static_pruning`` on (see
:func:`repro.wcet.system_level.system_level_wcet`) excludes task pairs from the
MHP contender derivation when the static interference analysis proves them
dependence-ordered or shared-footprint-disjoint.  An unsound exclusion
silently *lowers* the WCET bound, so the claim needs its own certificate:
the checker re-derives, for **every** cross-core (task, sharer) pair the
skeleton excludes, an independent proof that the exclusion was justified
-- its own reachability search over the HTG edges and its own footprint
walker with its own interval arithmetic, sharing no code with
:mod:`repro.analysis.static_mhp` / :mod:`repro.analysis.footprints` or
the :class:`~repro.utils.graphs.Reachability` engine they use.  Pairs are
bitsets here too, but built by the checker's own search and its own
sort-and-sweep over the windows, so only the excluded pairs that are
unordered *and* touching are visited one by one.

A pair the checker can prove neither ordered nor address-disjoint is a
typed refutation (``certify.contention.unjustified-exclusion``); a
fabricated disjointness claim or a dropped happens-before edge therefore
cannot survive checking.  What the checker does *not* prove, mirroring the
fixed-point certificate's trust boundary: the shared-access counts carried
verbatim (they decide who is a sharer) and the HTG edge set itself -- the
checker proves the skeleton consistent with the graph it is handed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.analysis.report import AnalysisReport, Finding
from repro.ir.expressions import ArrayRef, BinOp, Call, Const, UnOp, Var
from repro.ir.program import Storage
from repro.ir.statements import Assign, Block, ExprStmt, For, If, Return, While
from repro.ir.types import ScalarKind

_INF = float("inf")
_UNBOUNDED = (-_INF, _INF)


@dataclass
class ContentionCertificate:
    """Serializable witness of one static-MHP pruned contender skeleton."""

    htg_name: str
    function_name: str
    mapping: dict[str, int]
    #: per-task worst-case shared-access counts (who is a sharer)
    shared: dict[str, int]
    #: per-task allowed contenders -- everything *not* listed is claimed
    #: excluded and must be re-proved by the checker
    allowed: dict[str, list[str]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "kind": "contention",
            "htg": self.htg_name,
            "function": self.function_name,
            "mapping": dict(self.mapping),
            "shared": dict(self.shared),
            "allowed": {tid: list(o) for tid, o in sorted(self.allowed.items())},
        }


def build_contention_certificate(result, htg, function) -> ContentionCertificate:
    """Snapshot the pruning claim of a ``SystemWcetResult``.

    Requires ``result.mhp_allowed`` (i.e. a run with ``static_pruning`` on).
    """
    allowed = result.mhp_allowed
    if allowed is None:
        raise ValueError(
            "result carries no static-MHP skeleton (static_pruning was off)"
        )
    return ContentionCertificate(
        htg_name=htg.name,
        function_name=function.name,
        mapping=dict(result.task_cores),
        shared=dict(result.task_shared_accesses),
        allowed={tid: list(others) for tid, others in allowed.items()},
    )


# ---------------------------------------------------------------------- #
# independent interval arithmetic (deliberately NOT value_range.py)
# ---------------------------------------------------------------------- #
def _corners(xs, ys, op):
    vals = []
    for x in xs:
        for y in ys:
            v = op(x, y)
            if not math.isnan(v):
                vals.append(v)
    if not vals:
        return _UNBOUNDED
    return (min(vals), max(vals))


def _eval_bounds(expr, env: dict) -> tuple[float, float]:
    if isinstance(expr, Const):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, Var):
        return env.get(expr.name, _UNBOUNDED)
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
            return (0.0, 1.0)
        alo, ahi = _eval_bounds(expr.left, env)
        blo, bhi = _eval_bounds(expr.right, env)
        if op == "+":
            return (alo + blo, ahi + bhi)
        if op == "-":
            return (alo - bhi, ahi - blo)
        if op == "*":
            return _corners(
                (alo, ahi), (blo, bhi), lambda x, y: 0.0 if math.isnan(x * y) else x * y
            )
        if op == "/":
            if blo > 0 or bhi < 0:
                return _corners((alo, ahi), (blo, bhi), lambda x, y: x / y)
            return _UNBOUNDED
        if op == "%":
            if alo >= 0 and blo > 0 and bhi < _INF:
                # the remainder stays below the divisor; it stays at or
                # below divisor - 1 only when both operands are integers
                integral = all(
                    getattr(getattr(side, "type", None), "kind", None)
                    in (ScalarKind.INT, ScalarKind.BOOL)
                    for side in (expr.left, expr.right)
                )
                return (0.0, min(ahi, bhi - 1 if integral else bhi))
            return _UNBOUNDED
        if op == "min":
            return (min(alo, blo), min(ahi, bhi))
        if op == "max":
            return (max(alo, blo), max(ahi, bhi))
        return _UNBOUNDED
    if isinstance(expr, UnOp):
        lo, hi = _eval_bounds(expr.operand, env)
        if expr.op == "-":
            return (-hi, -lo)
        if expr.op == "abs":
            if lo >= 0:
                return (lo, hi)
            if hi <= 0:
                return (-hi, -lo)
            return (0.0, max(-lo, hi))
        if expr.op == "floor":
            return (
                math.floor(lo) if lo > -_INF else -_INF,
                math.floor(hi) if hi < _INF else _INF,
            )
        return _UNBOUNDED
    if isinstance(expr, ArrayRef):
        return _UNBOUNDED
    if isinstance(expr, Call):
        args = [_eval_bounds(a, env) for a in expr.args]
        if expr.func == "min":
            return (min(a[0] for a in args), min(a[1] for a in args))
        if expr.func == "max":
            return (max(a[0] for a in args), max(a[1] for a in args))
        return _UNBOUNDED
    return _UNBOUNDED


def _itrunc(x: float) -> float:
    """The interpreter's ``int()`` truncation, endpoint-wise (monotone)."""
    if x == _INF or x == -_INF:
        return x
    return float(math.trunc(x))


def _loop_values(stmt, env: dict) -> "tuple[float, float] | None":
    """Bounds of the index values the loop *body* observes, or ``None``
    when the loop provably never runs (``int``-truncated like the
    interpreter's loop protocol)."""
    llo, lhi = _eval_bounds(stmt.lower, env)
    ulo, uhi = _eval_bounds(stmt.upper, env)
    if stmt.step > 0:
        lo = _itrunc(llo)
        hi = _itrunc(uhi) - 1 if uhi < _INF else _INF
    else:
        lo = _itrunc(ulo) + 1 if ulo > -_INF else -_INF
        hi = _itrunc(lhi)
    if lo > hi:
        return None
    return (lo, hi)


def _window(lo: float, hi: float) -> tuple[float, float]:
    """The truncated index window of an access with value bounds ``lo..hi``.

    An access that runs has at least one index, so bounds that truncate to
    an empty window (the integer ``%`` rule's ``bhi - 1`` with an
    integer-typed modulus below one) are not trusted: the window becomes
    the whole array.
    """
    lo, hi = _itrunc(lo), _itrunc(hi)
    if lo > hi:
        return _UNBOUNDED
    return (lo, hi)


# ---------------------------------------------------------------------- #
# independent footprint derivation (deliberately NOT footprints.py)
# ---------------------------------------------------------------------- #
def _shared_array_names(function) -> set[str]:
    return {
        d.name
        for d in function.all_decls()
        if d.is_array and d.storage in (Storage.SHARED, Storage.INPUT, Storage.OUTPUT)
    }


def _collect_accesses(
    stmt, env: dict, shared: set, acc: dict
) -> None:
    def record_expr(expr):
        for node in expr.walk():
            if isinstance(node, ArrayRef) and node.array in shared:
                lo, hi = _eval_bounds(node.indices[0], env)
                acc.setdefault(node.array, []).append(_window(lo, hi))

    if isinstance(stmt, Assign):
        for expr in stmt.expressions():
            record_expr(expr)
        if isinstance(stmt.target, ArrayRef):
            if stmt.target.array in shared:
                lo, hi = _eval_bounds(stmt.target.indices[0], env)
                acc.setdefault(stmt.target.array, []).append(_window(lo, hi))
        else:
            env.pop(stmt.target.name, None)
        return
    if isinstance(stmt, (Return, ExprStmt)):
        for expr in stmt.expressions():
            record_expr(expr)
        return
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _collect_accesses(child, env, shared, acc)
        return
    if isinstance(stmt, If):
        record_expr(stmt.cond)
        _collect_accesses(stmt.then_body, env, shared, acc)
        _collect_accesses(stmt.else_body, env, shared, acc)
        return
    if isinstance(stmt, For):
        for expr in stmt.expressions():
            record_expr(expr)
        values = _loop_values(stmt, env)
        if values is None:
            return
        name = stmt.index.name
        saved = env.get(name)
        env[name] = values
        _collect_accesses(stmt.body, env, shared, acc)
        if saved is None:
            env.pop(name, None)
        else:
            env[name] = saved
        return
    if isinstance(stmt, While):
        record_expr(stmt.cond)
        _collect_accesses(stmt.body, env, shared, acc)
        return


def _task_access_bounds(function, task, shared: set) -> dict:
    """Per shared array, the first-index windows ``task`` may access."""
    acc: dict[str, list[tuple[float, float]]] = {}
    _collect_accesses(task.statements, {}, shared, acc)
    # declared-but-unseen shared arrays count as whole-array accesses
    for name in set(task.reads) | set(task.writes):
        if name in shared and name not in acc:
            acc[name] = [_UNBOUNDED]
    return acc


def _touching_tasks(windows: dict[str, dict]) -> dict[str, set[str]]:
    """Per task, the other tasks whose windows touch its own on some array.

    ``windows`` maps task ids to :func:`_task_access_bounds` results.  One
    sort-and-sweep per array over closed windows, so ``[0, 3]`` and
    ``[3, 7]`` touch.  A window leaves the active heap once its upper end
    falls below the current lower end, so every window still active
    touches the current one (no window is inverted, see :func:`_window`).
    """
    by_array: dict[str, list[tuple[float, float, str]]] = {}
    for tid, per_array in windows.items():
        for name, spans in per_array.items():
            for lo, hi in spans:
                by_array.setdefault(name, []).append((lo, hi, tid))
    touching: dict[str, set[str]] = {tid: set() for tid in windows}
    for spans in by_array.values():
        spans.sort(key=lambda span: span[0])
        active: list[tuple[float, str]] = []
        for lo, hi, tid in spans:
            while active and active[0][0] < lo:
                heapq.heappop(active)
            for _, other in active:
                if other != tid:
                    touching[tid].add(other)
                    touching[other].add(tid)
            heapq.heappush(active, (hi, tid))
    return touching


def _reach_masks(
    adjacent: dict[str, list[str]], roots: list[str], bit: dict[str, int]
) -> dict[str, int]:
    """Per root, the mask of nodes reachable by one or more edges, by search.

    A search that meets a node whose mask is already known takes that mask
    instead of expanding it, so every mask is exact in any root order; with
    successors searched first each root costs only its own edges.
    """
    reach: dict[str, int] = {}
    for root in roots:
        mask = 0
        frontier = list(adjacent.get(root, ()))
        while frontier:
            node = frontier.pop()
            if mask & bit[node]:
                continue
            mask |= bit[node]
            known = reach.get(node)
            if known is None:
                frontier.extend(adjacent.get(node, ()))
            else:
                mask |= known
        reach[root] = mask
    return reach


def _ordered_masks(htg, mapping: dict) -> tuple[dict[str, int], dict[str, int]]:
    """Bit per mapped task, and per mapped task the tasks ordered with it.

    Dependence runs over mapped-task-induced edges only, mirroring what the
    timeline builder enforces: an edge touching an unmapped task constrains
    nothing.
    """
    bit = {tid: 1 << i for i, tid in enumerate(mapping)}
    succs: dict[str, list[str]] = {}
    preds: dict[str, list[str]] = {}
    for edge in htg.edges:
        if edge.src in mapping and edge.dst in mapping:
            succs.setdefault(edge.src, []).append(edge.dst)
            preds.setdefault(edge.dst, []).append(edge.src)
    # HTG task order is program order, so searching it backwards meets
    # successors first (the masks are exact in any order)
    roots = [tid for tid in htg.tasks if tid in mapping]
    roots += [tid for tid in mapping if tid not in htg.tasks]
    later = _reach_masks(succs, roots[::-1], bit)
    earlier = _reach_masks(preds, roots, bit)
    return bit, {tid: later[tid] | earlier[tid] for tid in mapping}


def _mask(tids, bit: dict[str, int]) -> int:
    out = 0
    for tid in tids:
        out |= bit[tid]
    return out


def _bit_positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def check_contention_certificate(
    certificate: ContentionCertificate, htg, function
) -> AnalysisReport:
    """Re-prove every excluded contender pair ordered or address-disjoint.

    Per task, the excluded cross-core sharers form one bitset.  Ordered
    ones are justified by the checker's own reachability search.  Of the
    rest, only those whose windows touch the task's own (found by the
    checker's own sweep) or that have no windows at all can be refuted, so
    only they are visited one by one.
    """
    report = AnalysisReport("certify_contention")
    cert = certificate

    def fail(code: str, message: str, subject: str = "", severity: str = "error"):
        report.add(
            Finding(
                code=code,
                message=message,
                function=cert.function_name,
                subject=subject,
                severity=severity,
            )
        )

    if function.name != cert.function_name:
        fail(
            "certify.contention.coverage",
            f"certificate was built for function {cert.function_name!r}, "
            f"checked against {function.name!r}",
        )
        return report
    unknown = sorted(
        {o for others in cert.allowed.values() for o in others} - set(cert.mapping)
    )
    if unknown:
        fail(
            "certify.contention.coverage",
            f"skeleton names unmapped task(s) {', '.join(unknown)}",
        )
        return report

    bit, ordered_with = _ordered_masks(htg, cert.mapping)
    shared_names = _shared_array_names(function)
    windows = {
        tid: _task_access_bounds(function, htg.task(tid), shared_names)
        for tid in cert.mapping
        if tid in htg.tasks
    }
    touching = _touching_tasks(windows)
    # a mapped task missing from the HTG has no windows: nothing proves it
    # disjoint from anyone
    windowless = _mask((tid for tid in cert.mapping if tid not in windows), bit)
    sharers = 0
    sharers_on: dict = {}
    for tid, core in cert.mapping.items():
        if cert.shared.get(tid, 0) > 0:
            sharers |= bit[tid]
            sharers_on[core] = sharers_on.get(core, 0) | bit[tid]
    names = list(cert.mapping)

    pairs_checked = exclusions = 0
    for tid in sorted(cert.mapping):
        if tid not in windows:
            fail(
                "certify.contention.coverage",
                f"mapped task {tid!r} is not in the HTG",
                subject=tid,
            )
            continue
        cross = sharers & ~sharers_on.get(cert.mapping[tid], 0)
        excluded = cross & ~_mask(cert.allowed.get(tid, ()), bit)
        unordered = excluded & ~ordered_with[tid]
        refutable = unordered & (windowless | _mask(touching[tid], bit))
        pairs_checked += cross.bit_count()
        exclusions += excluded.bit_count()
        n_ordered = excluded.bit_count() - unordered.bit_count()
        if n_ordered:
            report.bump("exclusions_ordered", n_ordered)
        n_disjoint = unordered.bit_count() - refutable.bit_count()
        if n_disjoint:
            report.bump("exclusions_disjoint", n_disjoint)
        for other in sorted(names[i] for i in _bit_positions(refutable)):
            fail(
                "certify.contention.unjustified-exclusion",
                f"the skeleton excludes sharer {other!r} from task {tid!r}'s "
                "contenders, but the pair is neither dependence-ordered nor "
                "provably footprint-disjoint",
                subject=f"{tid}<->{other}",
            )
    report.bump("pairs_checked", pairs_checked)
    report.bump("exclusions_checked", exclusions)
    return report
