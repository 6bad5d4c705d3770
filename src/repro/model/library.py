"""Standard block library (the Xcos palette equivalent).

Every factory returns a :class:`~repro.model.blocks.Block` whose behaviour is
written in the mini-Scilab subset that both the interpreter and the IR
lowering understand.  Vector blocks loop explicitly over their elements so
that the generated IR has countable loops (a WCET requirement).
"""

from __future__ import annotations

import numpy as np

from repro.model.blocks import Block, BlockError, Port


def constant(name: str, value: float) -> Block:
    """A scalar constant source."""
    return Block(
        name=name,
        kind="constant",
        outputs=[Port("y")],
        params={"value": float(value)},
        behavior="y = value",
    )


def vector_source(name: str, size: int, values: np.ndarray | None = None) -> Block:
    """A constant vector source (terrain rows, filter taps, test stimuli)."""
    data = np.zeros(size) if values is None else np.asarray(values, dtype=float)
    if data.shape != (size,):
        raise BlockError(f"values must have shape ({size},)")
    return Block(
        name=name,
        kind="vector_source",
        outputs=[Port("y", (size,))],
        params={"n": size, "data": data},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = data(i)\n"
            "end"
        ),
    )


def gain(name: str, k: float, size: int = 1) -> Block:
    """Multiply a signal by a constant gain (scalar or elementwise)."""
    if size == 1:
        return Block(
            name=name,
            kind="gain",
            inputs=[Port("u")],
            outputs=[Port("y")],
            params={"k": float(k)},
            behavior="y = k * u",
        )
    return Block(
        name=name,
        kind="gain",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"k": float(k), "n": size},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = k * u(i)\n"
            "end"
        ),
    )


def add(name: str, size: int = 1, sign_b: float = 1.0) -> Block:
    """Sum (or difference when ``sign_b = -1``) of two signals."""
    if size == 1:
        return Block(
            name=name,
            kind="add",
            inputs=[Port("a"), Port("b")],
            outputs=[Port("y")],
            params={"sb": float(sign_b)},
            behavior="y = a + sb * b",
        )
    return Block(
        name=name,
        kind="add",
        inputs=[Port("a", (size,)), Port("b", (size,))],
        outputs=[Port("y", (size,))],
        params={"n": size, "sb": float(sign_b)},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = a(i) + sb * b(i)\n"
            "end"
        ),
    )


def product(name: str, size: int = 1) -> Block:
    """Elementwise product of two signals."""
    if size == 1:
        return Block(
            name=name,
            kind="product",
            inputs=[Port("a"), Port("b")],
            outputs=[Port("y")],
            behavior="y = a * b",
        )
    return Block(
        name=name,
        kind="product",
        inputs=[Port("a", (size,)), Port("b", (size,))],
        outputs=[Port("y", (size,))],
        params={"n": size},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = a(i) * b(i)\n"
            "end"
        ),
    )


def saturation(name: str, lower: float, upper: float, size: int = 1) -> Block:
    """Clamp a signal into ``[lower, upper]``."""
    if size == 1:
        return Block(
            name=name,
            kind="saturation",
            inputs=[Port("u")],
            outputs=[Port("y")],
            params={"lo": float(lower), "hi": float(upper)},
            behavior=(
                "y = u\n"
                "if u < lo then\n"
                "  y = lo\n"
                "end\n"
                "if u > hi then\n"
                "  y = hi\n"
                "end"
            ),
        )
    return Block(
        name=name,
        kind="saturation",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"lo": float(lower), "hi": float(upper), "n": size},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = u(i)\n"
            "  if u(i) < lo then\n"
            "    y(i) = lo\n"
            "  end\n"
            "  if u(i) > hi then\n"
            "    y(i) = hi\n"
            "  end\n"
            "end"
        ),
    )


def threshold(name: str, level: float, size: int = 1) -> Block:
    """Binary comparator: ``y = 1`` where the input exceeds ``level``."""
    if size == 1:
        return Block(
            name=name,
            kind="threshold",
            inputs=[Port("u")],
            outputs=[Port("y")],
            params={"level": float(level)},
            behavior=(
                "y = 0\n"
                "if u > level then\n"
                "  y = 1\n"
                "end"
            ),
        )
    return Block(
        name=name,
        kind="threshold",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"level": float(level), "n": size},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = 0\n"
            "  if u(i) > level then\n"
            "    y(i) = 1\n"
            "  end\n"
            "end"
        ),
    )


def unit_delay(name: str, size: int = 1) -> Block:
    """One-sample delay; the block that legally breaks feedback cycles."""
    if size == 1:
        return Block(
            name=name,
            kind="unit_delay",
            inputs=[Port("u")],
            outputs=[Port("y")],
            state={"z": 0.0},
            behavior=(
                "y = z\n"
                "z = u"
            ),
        )
    return Block(
        name=name,
        kind="unit_delay",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"n": size},
        state={"z": np.zeros(size)},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = z(i)\n"
            "end\n"
            "for i = 1:n\n"
            "  z(i) = u(i)\n"
            "end"
        ),
    )


def discrete_integrator(name: str, dt: float = 1.0) -> Block:
    """Forward-Euler discrete integrator with internal accumulator state."""
    return Block(
        name=name,
        kind="integrator",
        inputs=[Port("u")],
        outputs=[Port("y")],
        params={"dt": float(dt)},
        state={"acc": 0.0},
        behavior=(
            "acc = acc + dt * u\n"
            "y = acc"
        ),
    )


def fir_filter(name: str, taps: np.ndarray, size: int) -> Block:
    """FIR filter applied along a signal vector (zero-padded at the left)."""
    taps = np.asarray(taps, dtype=float)
    if taps.ndim != 1 or taps.size == 0:
        raise BlockError(f"FIR {name!r} needs a non-empty 1-D tap vector, got shape {taps.shape}")
    ntaps = taps.shape[0]
    return Block(
        name=name,
        kind="fir",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"h": taps, "nt": ntaps, "n": size},
        behavior=(
            "for i = 1:n\n"
            "  acc = 0\n"
            "  for k = 1:nt\n"
            "    j = i - k + 1\n"
            "    if j >= 1 then\n"
            "      acc = acc + h(k) * u(j)\n"
            "    end\n"
            "  end\n"
            "  y(i) = acc\n"
            "end"
        ),
    )


def moving_average(name: str, window: int, size: int) -> Block:
    """Moving average over a window (a common smoothing stage)."""
    if window < 1:
        raise BlockError(f"moving average {name!r} needs a window of at least 1, got {window}")
    return fir_filter(name, np.full(window, 1.0 / window), size)


def dot_product(name: str, size: int) -> Block:
    """Inner product of two vectors producing a scalar."""
    return Block(
        name=name,
        kind="dot",
        inputs=[Port("a", (size,)), Port("b", (size,))],
        outputs=[Port("y")],
        params={"n": size},
        behavior=(
            "acc = 0\n"
            "for i = 1:n\n"
            "  acc = acc + a(i) * b(i)\n"
            "end\n"
            "y = acc"
        ),
    )


def vector_norm(name: str, size: int) -> Block:
    """Euclidean norm of a vector."""
    return Block(
        name=name,
        kind="norm",
        inputs=[Port("u", (size,))],
        outputs=[Port("y")],
        params={"n": size},
        behavior=(
            "acc = 0\n"
            "for i = 1:n\n"
            "  acc = acc + u(i) * u(i)\n"
            "end\n"
            "y = sqrt(acc)"
        ),
    )


def matrix_vector(name: str, rows: int, cols: int) -> Block:
    """Dense matrix-vector product ``y = A * x``."""
    return Block(
        name=name,
        kind="matvec",
        inputs=[Port("A", (rows, cols)), Port("x", (cols,))],
        outputs=[Port("y", (rows,))],
        params={"nr": rows, "nc": cols},
        behavior=(
            "for i = 1:nr\n"
            "  acc = 0\n"
            "  for j = 1:nc\n"
            "    acc = acc + A(i, j) * x(j)\n"
            "  end\n"
            "  y(i) = acc\n"
            "end"
        ),
    )


def elementwise(name: str, func: str, size: int = 1) -> Block:
    """Apply a unary math builtin (``sqrt``, ``sin``, ``abs`` ...) elementwise."""
    allowed = {"sqrt", "sin", "cos", "tan", "exp", "log", "abs", "floor", "ceil"}
    if func not in allowed:
        raise BlockError(f"unsupported elementwise function {func!r}")
    if size == 1:
        return Block(
            name=name,
            kind=f"elementwise_{func}",
            inputs=[Port("u")],
            outputs=[Port("y")],
            behavior=f"y = {func}(u)",
        )
    return Block(
        name=name,
        kind=f"elementwise_{func}",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"n": size},
        behavior=(
            "for i = 1:n\n"
            f"  y(i) = {func}(u(i))\n"
            "end"
        ),
    )


def lookup_1d(name: str, table: np.ndarray, size: int = 1) -> Block:
    """Nearest-entry 1-D lookup table indexed by a bounded integer signal."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 1 or table.size == 0:
        raise BlockError(f"lookup {name!r} needs a non-empty 1-D table, got shape {table.shape}")
    nt = table.shape[0]
    clamp_script = (
        "idx = floor(u) + 1\n"
        "if idx < 1 then\n"
        "  idx = 1\n"
        "end\n"
        f"if idx > {nt} then\n"
        f"  idx = {nt}\n"
        "end\n"
        "y = tbl(idx)"
    )
    if size == 1:
        return Block(
            name=name,
            kind="lookup1d",
            inputs=[Port("u")],
            outputs=[Port("y")],
            params={"tbl": table},
            behavior=clamp_script,
        )
    body = (
        "for i = 1:n\n"
        "  idx = floor(u(i)) + 1\n"
        "  if idx < 1 then\n"
        "    idx = 1\n"
        "  end\n"
        f"  if idx > {nt} then\n"
        f"    idx = {nt}\n"
        "  end\n"
        "  y(i) = tbl(idx)\n"
        "end"
    )
    return Block(
        name=name,
        kind="lookup1d",
        inputs=[Port("u", (size,))],
        outputs=[Port("y", (size,))],
        params={"tbl": table, "n": size},
        behavior=body,
    )


def switch(name: str, size: int = 1) -> Block:
    """Select between two inputs based on a scalar control signal."""
    if size == 1:
        return Block(
            name=name,
            kind="switch",
            inputs=[Port("ctrl"), Port("a"), Port("b")],
            outputs=[Port("y")],
            behavior=(
                "y = b\n"
                "if ctrl > 0.5 then\n"
                "  y = a\n"
                "end"
            ),
        )
    return Block(
        name=name,
        kind="switch",
        inputs=[Port("ctrl"), Port("a", (size,)), Port("b", (size,))],
        outputs=[Port("y", (size,))],
        params={"n": size},
        behavior=(
            "for i = 1:n\n"
            "  y(i) = b(i)\n"
            "  if ctrl > 0.5 then\n"
            "    y(i) = a(i)\n"
            "  end\n"
            "end"
        ),
    )


def scalar_max(name: str, size: int) -> Block:
    """Maximum element of a vector (alarm aggregation)."""
    return Block(
        name=name,
        kind="reduce_max",
        inputs=[Port("u", (size,))],
        outputs=[Port("y")],
        params={"n": size},
        behavior=(
            "best = u(1)\n"
            "for i = 2:n\n"
            "  if u(i) > best then\n"
            "    best = u(i)\n"
            "  end\n"
            "end\n"
            "y = best"
        ),
    )


def window_min(name: str, size: int) -> Block:
    """Minimum element of a vector (e.g. closest obstacle distance)."""
    return Block(
        name=name,
        kind="reduce_min",
        inputs=[Port("u", (size,))],
        outputs=[Port("y")],
        params={"n": size},
        behavior=(
            "best = u(1)\n"
            "for i = 2:n\n"
            "  if u(i) < best then\n"
            "    best = u(i)\n"
            "  end\n"
            "end\n"
            "y = best"
        ),
    )
