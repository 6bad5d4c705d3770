"""C-like pretty printer for the IR.

The printed text is what the ARGO flow would hand to a downstream C compiler
(paper Section II-C: "generate C code following the WCET-aware programming
model").  It is also invaluable for debugging and for golden tests.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.expressions import ArrayRef, BinOp, Call, Const, Expr, UnOp, Var
from repro.ir.program import Function, Program, Storage, VarDecl
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
from repro.ir.types import ArrayType

_INDENT = "    "


def expr_to_c(expr: Expr) -> str:
    """Render an expression as C source text."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return "1" if expr.value else "0"
        if isinstance(expr.value, float):
            return repr(float(expr.value))
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinOp):
        if expr.op in ("min", "max"):
            return f"{expr.op}({expr_to_c(expr.left)}, {expr_to_c(expr.right)})"
        return f"({expr_to_c(expr.left)} {expr.op} {expr_to_c(expr.right)})"
    if isinstance(expr, UnOp):
        if expr.op in ("-", "!"):
            return f"{expr.op}({expr_to_c(expr.operand)})"
        return f"{expr.op}({expr_to_c(expr.operand)})"
    if isinstance(expr, ArrayRef):
        idx = "".join(f"[{expr_to_c(i)}]" for i in expr.indices)
        return f"{expr.array}{idx}"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(expr_to_c(a) for a in expr.args)})"
    raise TypeError(f"cannot print expression {type(expr).__name__}")


def _decl_to_c(decl: VarDecl) -> str:
    qualifier = {
        Storage.LOCAL: "",
        Storage.SCRATCHPAD: "__spm ",
        Storage.SHARED: "__shared ",
        Storage.INPUT: "const __shared ",
        Storage.OUTPUT: "__shared ",
    }[decl.storage]
    if isinstance(decl.type, ArrayType):
        dims = "".join(f"[{d}]" for d in decl.type.shape)
        return f"{qualifier}{decl.type.element} {decl.name}{dims}"
    init = f" = {decl.initial}" if decl.initial is not None else ""
    return f"{qualifier}{decl.type} {decl.name}{init}"


def _stmt_to_c(
    stmt: Stmt, indent: int, body_text: Callable[[Block], str] | None = None
) -> list[str]:
    """The lines of ``stmt`` at ``indent``.  ``body_text`` (see
    :func:`region_to_c`) renders the body of each ``for`` reached through
    blocks only, which is then at indent 0."""
    pad = _INDENT * indent
    if isinstance(stmt, Assign):
        return [f"{pad}{expr_to_c(stmt.target)} = {expr_to_c(stmt.value)};"]
    if isinstance(stmt, Return):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {expr_to_c(stmt.value)};"]
    if isinstance(stmt, ExprStmt):
        return [f"{pad}{expr_to_c(stmt.expr)};"]
    if isinstance(stmt, Block):
        lines: list[str] = []
        for child in stmt.stmts:
            lines.extend(_stmt_to_c(child, indent, body_text))
        return lines
    if isinstance(stmt, If):
        lines = [f"{pad}if ({expr_to_c(stmt.cond)}) {{"]
        lines.extend(_stmt_to_c(stmt.then_body, indent + 1))
        if stmt.else_body.stmts:
            lines.append(f"{pad}}} else {{")
            lines.extend(_stmt_to_c(stmt.else_body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, For):
        idx = stmt.index.name
        step = f"{idx} += {stmt.step}" if stmt.step != 1 else f"{idx}++"
        header = (
            f"{pad}for (int {idx} = {expr_to_c(stmt.lower)}; "
            f"{idx} < {expr_to_c(stmt.upper)}; {step}) {{"
        )
        lines = []
        if stmt.max_trip_count is not None:
            lines.append(f"{pad}/* loop bound: {stmt.max_trip_count} */")
        if stmt.parallelizable:
            lines.append(f"{pad}/* parallelizable */")
        lines.append(header)
        if body_text is None:
            lines.extend(_stmt_to_c(stmt.body, indent + 1))
        else:
            text = body_text(stmt.body)
            if text:
                lines.append(text)
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, While):
        lines = [
            f"{pad}/* loop bound: {stmt.max_trip_count} */",
            f"{pad}while ({expr_to_c(stmt.cond)}) {{",
        ]
        lines.extend(_stmt_to_c(stmt.body, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot print statement {type(stmt).__name__}")


def loop_body_to_c(body: Block) -> str:
    """The text of a loop body as :func:`to_c` renders it inside a ``for``
    at indent 0: one level deep."""
    return "\n".join(_stmt_to_c(body, 1))


def region_to_c(region: Stmt, body_text: Callable[[Block], str]) -> str:
    """``to_c(region)``, character for character, with the body of each
    top-level ``for`` -- ``region`` itself or one reached through blocks
    only -- rendered by ``body_text``, which must return
    :func:`loop_body_to_c` of it.  The code-level cache passes its memo of
    that text, so the loop chunks that share one body render it once."""
    return "\n".join(_stmt_to_c(region, 0, body_text))


def function_to_c(function: Function) -> str:
    """Render a function as C source text."""
    params = ", ".join(_decl_to_c(p) for p in function.params)
    lines = [f"void {function.name}({params})", "{"]
    for decl in function.decls:
        lines.append(f"{_INDENT}{_decl_to_c(decl)};")
    if function.decls:
        lines.append("")
    lines.extend(_stmt_to_c(function.body, 1))
    lines.append("}")
    return "\n".join(lines)


def to_c(obj: Program | Function | Stmt | Expr) -> str:
    """Render any IR object (program, function, statement, expression) as C."""
    if isinstance(obj, Program):
        return "\n\n".join(function_to_c(f) for f in obj.functions)
    if isinstance(obj, Function):
        return function_to_c(obj)
    if isinstance(obj, Stmt):
        return "\n".join(_stmt_to_c(obj, 0))
    if isinstance(obj, Expr):
        return expr_to_c(obj)
    raise TypeError(f"cannot print object of type {type(obj).__name__}")
