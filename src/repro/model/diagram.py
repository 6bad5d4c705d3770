"""Dataflow diagrams: blocks, connections, validation and simulation.

A :class:`Diagram` is the Xcos model equivalent.  It supports:

* structural validation (shape compatibility, single driver per input,
  no algebraic loops -- cycles must pass through a stateful delay block);
* model-level simulation, executing block behaviours in dataflow order for a
  number of steps (Section III-A: model validation before implementation);
* export of its external inputs/outputs, used by the front end when
  generating the IR entry function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.model.blocks import Block
from repro.utils.graphs import topological_order


class DiagramValidationError(ValueError):
    """Raised when a diagram is structurally invalid."""


@dataclass(frozen=True)
class Connection:
    """A directed signal link from an output port to an input port."""

    src_block: str
    src_port: str
    dst_block: str
    dst_port: str

    def __str__(self) -> str:
        return f"{self.src_block}.{self.src_port} -> {self.dst_block}.{self.dst_port}"


@dataclass
class Diagram:
    """A dataflow model: named blocks plus directed connections."""

    name: str
    blocks: dict[str, Block] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)
    #: Input ports of the whole diagram: (block, port) pairs fed externally.
    external_inputs: list[tuple[str, str]] = field(default_factory=list)
    #: Output ports of the whole diagram observed by the environment.
    external_outputs: list[tuple[str, str]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_block(self, block: Block) -> Block:
        if block.name in self.blocks:
            raise DiagramValidationError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        return block

    def connect(self, src: str, src_port: str, dst: str, dst_port: str) -> Connection:
        """Connect ``src.src_port`` to ``dst.dst_port`` with shape checking."""
        if src not in self.blocks:
            raise DiagramValidationError(f"unknown source block {src!r}")
        if dst not in self.blocks:
            raise DiagramValidationError(f"unknown destination block {dst!r}")
        out_port = self.blocks[src].output_port(src_port)
        in_port = self.blocks[dst].input_port(dst_port)
        if out_port.shape != in_port.shape:
            raise DiagramValidationError(
                f"shape mismatch on {src}.{src_port} ({out_port.shape}) -> "
                f"{dst}.{dst_port} ({in_port.shape})"
            )
        for conn in self.connections:
            if conn.dst_block == dst and conn.dst_port == dst_port:
                raise DiagramValidationError(
                    f"input {dst}.{dst_port} already driven by {conn.src_block}.{conn.src_port}"
                )
        connection = Connection(src, src_port, dst, dst_port)
        self.connections.append(connection)
        return connection

    def mark_input(self, block: str, port: str) -> None:
        """Declare ``block.port`` as an external input of the diagram."""
        self.blocks[block].input_port(port)
        self.external_inputs.append((block, port))

    def mark_output(self, block: str, port: str) -> None:
        """Declare ``block.port`` as an external output of the diagram."""
        self.blocks[block].output_port(port)
        self.external_outputs.append((block, port))

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def dataflow_edges(self, cut_stateful: bool = True) -> list[tuple[str, str]]:
        """Block-level dependence edges.

        When ``cut_stateful`` is True, edges leaving stateful (delay) blocks
        are dropped: their outputs depend on the *previous* step, so they do
        not create a same-step dependence.  This is the graph used both for
        execution ordering and for cycle detection.
        """
        edges = []
        for conn in self.connections:
            if cut_stateful and self.blocks[conn.src_block].is_stateful():
                continue
            edges.append((conn.src_block, conn.dst_block))
        return edges

    def execution_order(self) -> list[str]:
        """Topological execution order of the blocks (delay edges cut)."""
        try:
            return [
                str(b)
                for b in topological_order(self.blocks.keys(), self.dataflow_edges())
            ]
        except ValueError as exc:
            raise DiagramValidationError(
                f"diagram {self.name!r} contains an algebraic loop (a cycle "
                "without a delay block)"
            ) from exc

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Full structural validation of the diagram."""
        if not self.blocks:
            raise DiagramValidationError(f"diagram {self.name!r} has no blocks")
        driven = {(c.dst_block, c.dst_port) for c in self.connections}
        external = set(self.external_inputs)
        for block in self.blocks.values():
            block.validate()
            for port in block.inputs:
                key = (block.name, port.name)
                if key not in driven and key not in external:
                    raise DiagramValidationError(
                        f"input {block.name}.{port.name} is neither connected "
                        "nor marked as an external input"
                    )
        for block_name, port_name in self.external_inputs:
            if (block_name, port_name) in driven:
                raise DiagramValidationError(
                    f"external input {block_name}.{port_name} is also driven "
                    "by a connection"
                )
        # raises on algebraic loops
        self.execution_order()

    # ------------------------------------------------------------------ #
    # model-level simulation
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        steps: int = 1,
        input_provider: Callable[[int], Mapping[str, Any]] | Mapping[str, Any] | None = None,
    ) -> list[dict[str, Any]]:
        """Run the diagram for ``steps`` synchronous steps.

        ``input_provider`` either maps external input names
        (``"block.port"``) to values for every step, or is a callable
        ``step_index -> mapping``.  Returns one dict per step mapping
        external output names to values.
        """
        self.validate()
        order = self.execution_order()
        results: list[dict[str, Any]] = []
        for step in range(steps):
            if callable(input_provider):
                step_inputs = dict(input_provider(step))
            else:
                step_inputs = dict(input_provider or {})
            signal_values: dict[tuple[str, str], Any] = {}
            block_outputs: dict[str, dict[str, Any]] = {}
            for block_name in order:
                block = self.blocks[block_name]
                inputs: dict[str, Any] = {}
                for port in block.inputs:
                    key = (block_name, port.name)
                    driver = next(
                        (c for c in self.connections if (c.dst_block, c.dst_port) == key),
                        None,
                    )
                    if driver is not None:
                        src_key = (driver.src_block, driver.src_port)
                        if src_key in signal_values:
                            inputs[port.name] = signal_values[src_key]
                        else:
                            # Source is a stateful block evaluated later this
                            # step (feedback): read its previous-step output,
                            # i.e. its current state contribution.
                            inputs[port.name] = self._delayed_output(driver)
                    else:
                        external_name = f"{block_name}.{port.name}"
                        if external_name not in step_inputs:
                            raise DiagramValidationError(
                                f"simulation step {step}: missing external input "
                                f"{external_name!r}"
                            )
                        inputs[port.name] = step_inputs[external_name]
                outputs = block.evaluate(inputs)
                block_outputs[block_name] = outputs
                for port_name, value in outputs.items():
                    signal_values[(block_name, port_name)] = value
            step_result = {
                f"{b}.{p}": block_outputs[b][p] for b, p in self.external_outputs
            }
            results.append(step_result)
        return results

    def _delayed_output(self, connection: Connection) -> Any:
        """Previous-step output of a stateful source block (its state)."""
        block = self.blocks[connection.src_block]
        if not block.is_stateful():
            raise DiagramValidationError(
                f"algebraic loop through {connection.src_block!r}"
            )
        # Unit-delay style blocks expose their state under key 'z' / 'acc'.
        state_value = next(iter(block.state.values()))
        if isinstance(state_value, np.ndarray):
            return np.array(state_value, copy=True)
        return float(state_value)

    def reset(self) -> None:
        """Reset the state of every stateful block."""
        for block in self.blocks.values():
            if block.is_stateful():
                block.reset_state()

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable structure summary used by reports."""
        lines = [f"diagram {self.name}: {len(self.blocks)} blocks, {len(self.connections)} links"]
        for name in self.execution_order():
            block = self.blocks[name]
            lines.append(
                f"  {name} ({block.kind}) in={len(block.inputs)} out={len(block.outputs)}"
            )
        return "\n".join(lines)
