"""Dataflow blocks with mini-Scilab behaviours.

A :class:`Block` is the Xcos component equivalent: named input/output ports
with static shapes, numeric parameters, optional internal state (for delays /
integrators) and a behaviour script written in the mini-Scilab subset.  The
behaviour is the single source of truth: the model-level simulation runs it
through :class:`~repro.model.scilab.ScilabInterpreter`, and the front end
compiles the very same script to IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.model.scilab import ScilabInterpreter, parse_script
from repro.model.scilab.ast import Script, assigned_names


@dataclass(frozen=True)
class Port:
    """A typed block port; ``shape == ()`` denotes a scalar signal."""

    name: str
    shape: tuple[int, ...] = ()

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    @property
    def num_elements(self) -> int:
        result = 1
        for dim in self.shape:
            result *= dim
        return result


class BlockError(ValueError):
    """Raised for ill-formed blocks or evaluation failures."""


@dataclass
class Block:
    """A dataflow block.

    Parameters
    ----------
    name:
        Unique instance name within a diagram.
    kind:
        Library kind (``"gain"``, ``"fir"``, ...), used in reports.
    inputs / outputs:
        Port lists.  Port names are the variable names the behaviour script
        uses.
    params:
        Numeric parameters (scalars or numpy arrays) bound as read-only
        variables in the behaviour.
    behavior:
        Mini-Scilab source text.
    state:
        Initial values of state variables (arrays or scalars); the behaviour
        may read and assign them, and the new values persist across steps.
    """

    name: str
    kind: str
    inputs: list[Port] = field(default_factory=list)
    outputs: list[Port] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    behavior: str = ""
    state: dict[str, Any] = field(default_factory=dict)
    #: Estimated worst-case iterations hint for data-dependent loops (rare).
    annotations: dict[str, Any] = field(default_factory=dict)

    #: the parse of ``_parsed_text``, the behaviour text it was parsed from
    _parsed: Script | None = field(default=None, repr=False, compare=False)
    _parsed_text: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise BlockError("block name cannot be empty")
        port_names = [p.name for p in self.inputs] + [p.name for p in self.outputs]
        if len(set(port_names)) != len(port_names):
            raise BlockError(f"block {self.name!r}: duplicate port names")
        clash = set(port_names) & set(self.params)
        if clash:
            raise BlockError(f"block {self.name!r}: params shadow ports: {sorted(clash)}")

    # ------------------------------------------------------------------ #
    @property
    def script(self) -> Script:
        """The parsed behaviour, cached until ``behavior`` is assigned
        another text."""
        if self._parsed is None or self._parsed_text != self.behavior:
            self._parsed = parse_script(self.behavior)
            self._parsed_text = self.behavior
        return self._parsed

    def input_port(self, name: str) -> Port:
        for port in self.inputs:
            if port.name == name:
                return port
        raise KeyError(f"block {self.name!r} has no input port {name!r}")

    def output_port(self, name: str) -> Port:
        for port in self.outputs:
            if port.name == name:
                return port
        raise KeyError(f"block {self.name!r} has no output port {name!r}")

    def is_stateful(self) -> bool:
        return bool(self.state)

    def validate(self) -> None:
        """Check that the behaviour assigns every output port."""
        assigned = assigned_names(self.script)
        missing = [p.name for p in self.outputs if p.name not in assigned]
        if missing:
            raise BlockError(
                f"block {self.name!r}: behaviour never assigns outputs {missing}"
            )

    # ------------------------------------------------------------------ #
    def evaluate(self, inputs: Mapping[str, Any]) -> dict[str, Any]:
        """Run the behaviour once and return the output port values.

        ``inputs`` maps input port names to scalars / arrays.  Internal state
        is updated in place on the block instance.
        """
        env: dict[str, Any] = {}
        for key, value in self.params.items():
            env[key] = value
        for key, value in self.state.items():
            env[key] = np.array(value, dtype=float) if not np.isscalar(value) else float(value)
        for port in self.inputs:
            if port.name not in inputs:
                raise BlockError(f"block {self.name!r}: missing input {port.name!r}")
            env[port.name] = inputs[port.name]
        for port in self.outputs:
            env[port.name] = 0.0 if port.is_scalar else np.zeros(port.shape)

        result = ScilabInterpreter().run(self.script, env)

        outputs: dict[str, Any] = {}
        for port in self.outputs:
            value = result[port.name]
            outputs[port.name] = float(value) if port.is_scalar else np.asarray(value, dtype=float)
        for key in self.state:
            self.state[key] = result[key]
        return outputs

    def reset_state(self, initial: Mapping[str, Any] | None = None) -> None:
        """Reset internal state to the provided (or zero) values."""
        for key, value in self.state.items():
            if initial and key in initial:
                self.state[key] = initial[key]
            elif np.isscalar(value):
                self.state[key] = 0.0
            else:
                self.state[key] = np.zeros_like(np.asarray(value, dtype=float))
