"""Compilation of dataflow diagrams into the C-subset IR.

``compile_diagram`` produces one IR entry function representing a single
synchronous step of the diagram.  The function body is a sequence of
per-block regions (one ``ir.Block`` per dataflow block, in execution order,
labelled with the block's name); inter-block signals become shared buffers,
diagram inputs/outputs become function parameters, array-valued block
parameters become constant input arrays, and block state becomes persistent
shared storage.

The labelled regions (:attr:`CompiledModel.block_regions`) are what the HTG
extractor uses to name tasks after the originating blocks.  They are read
from the entry function's body, so a transformed model's regions are the
transformed code.

A compile given a lowering memo (``lowerings``, a dict the caller keeps)
records there what each block emitted (:class:`BlockLowering`), one entry
per block name, and reuses the regions of every block whose lowering
inputs equal its entry's instead of lowering it again.  The pipeline's
front end passes the memo of its
:class:`~repro.wcet.cache.WcetAnalysisCache`
(:attr:`~repro.wcet.cache.WcetAnalysisCache.lowerings`), so every design
point of a sweep after the first, and every edit round, lowers only the
blocks it has not seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ir.builder import FunctionBuilder
from repro.ir.expressions import Const, Expr, Var
from repro.ir.facts import RegionFacts
from repro.ir.printer import to_c
from repro.ir.program import Function, Program, Storage, VarDecl
from repro.ir.statements import Block as IRBlock
from repro.ir.types import FLOAT, ArrayType
from repro.frontend.lowering import ScilabLoweringError, lower_script
from repro.model.blocks import Port
from repro.model.diagram import Connection, Diagram


#: Prefixes of the declarations that carry data across task boundaries:
#: inter-block signals (``sig_``) and the model's external interface
#: (``in_``/``out_``).  They are how cores exchange data, so they must stay
#: in shared memory -- passes that privatise storage (e.g. scratchpad
#: allocation) must leave them alone.
INTERFACE_SIGNAL_PREFIXES = ("sig_", "in_", "out_")


def is_interface_signal(name: str) -> bool:
    """Whether ``name`` names an inter-task signal or external port buffer."""
    return name.startswith(INTERFACE_SIGNAL_PREFIXES)


def protected_signal_names(function) -> set[str]:
    """Declarations of ``function`` that must stay in shared memory.

    These are the inter-task communication buffers produced by the front end
    (see :data:`INTERFACE_SIGNAL_PREFIXES`); only block-internal state is
    eligible for privatising transformations such as scratchpad allocation.
    """
    return {decl.name for decl in function.all_decls() if is_interface_signal(decl.name)}


def _signal_name(connection: Connection) -> str:
    return f"sig_{connection.src_block}_{connection.src_port}"


def _input_name(block: str, port: str) -> str:
    return f"in_{block}_{port}"


def _output_name(block: str, port: str) -> str:
    return f"out_{block}_{port}"


def _param_name(block: str, param: str) -> str:
    return f"p_{block}_{param}"


def _state_name(block: str, state: str) -> str:
    return f"st_{block}_{state}"


class ModelCompilationError(ValueError):
    """Raised when a diagram cannot be compiled to IR, or when a model's
    entry body holds a statement outside its labelled block regions."""


@dataclass
class CompiledModel:
    """Result of compiling a diagram: IR program plus binding metadata."""

    diagram_name: str
    program: Program
    entry_name: str
    #: External input parameter name -> (block, port, shape).
    inputs: dict[str, tuple[str, str, tuple[int, ...]]] = field(default_factory=dict)
    #: External output parameter name -> (block, port, shape).
    outputs: dict[str, tuple[str, str, tuple[int, ...]]] = field(default_factory=dict)
    #: Constant array parameters that must be passed on every invocation.
    parameter_values: dict[str, np.ndarray] = field(default_factory=dict)
    #: Initial values for persistent state variables.
    state_values: dict[str, Any] = field(default_factory=dict)
    #: How many blocks this compile lowered (the others it reused).
    blocks_lowered: int = 0

    @property
    def entry(self) -> Function:
        return self.program.lookup(self.entry_name)

    @property
    def block_regions(self) -> tuple[tuple[str, IRBlock], ...]:
        """Ordered (block name, IR region) pairs composing the entry function body.

        A view of the labelled top-level blocks of ``entry.body``; any other
        top-level statement raises :class:`ModelCompilationError`, since
        no region (hence no task) would carry it.
        """
        regions = []
        for position, stmt in enumerate(self.entry.body.stmts):
            if not isinstance(stmt, IRBlock) or stmt.label is None:
                first_line = to_c(stmt).split("\n", 1)[0]
                raise ModelCompilationError(
                    f"top-level statement {position} of {self.entry_name!r} is not a "
                    f"labelled block region: {type(stmt).__name__} {first_line!r}"
                )
            regions.append((stmt.label, stmt))
        return tuple(regions)

    def run_inputs(self, external: dict[str, Any] | None = None) -> dict[str, Any]:
        """Build a full input binding for the IR interpreter.

        Combines constant parameters, (initial) state values and the caller's
        external inputs keyed either by parameter name or ``block.port``.
        """
        bindings: dict[str, Any] = dict(self.parameter_values)
        bindings.update(self.state_values)
        external = external or {}
        for param_name, (block, port, shape) in self.inputs.items():
            for key in (param_name, f"{block}.{port}"):
                if key in external:
                    bindings[param_name] = external[key]
                    break
            else:
                bindings[param_name] = 0.0 if shape == () else np.zeros(shape)
        return bindings

    def output_key(self, block: str, port: str) -> str:
        return _output_name(block, port)


def _declare_port_var(
    fb: FunctionBuilder, name: str, port: Port, storage: Storage
) -> Var:
    if port.is_scalar:
        if storage is Storage.INPUT:
            return fb.scalar_input(name)
        fb._function.declare(VarDecl(name, FLOAT, storage))
        return Var(name, FLOAT)
    ty = ArrayType(FLOAT, port.shape)
    if storage is Storage.INPUT:
        fb._function.params.append(VarDecl(name, ty, Storage.INPUT))
    else:
        fb._function.declare(VarDecl(name, ty, storage))
    return Var(name, ty)


@dataclass(frozen=True)
class BlockLowering:
    """What compiling one block emitted, for a later compile to reuse.

    ``inputs`` is everything the emitted code depends on besides the
    block's name: its behaviour text (so matching a stored lowering needs
    no parse of the script), its bindings (frozen IR expressions) and the
    (port, shape, signal, output) quadruples of its copy-out regions.
    ``regions`` are the block's region and its copy-out regions, in
    emission order, and ``decls`` the temporaries its lowering declared, in
    declaration order.  ``reusable`` is false when the lowering resolved a
    temporary to a declaration it did not make (a clash of mangled names
    with another block), which makes its output depend on that block too.
    """

    inputs: tuple
    regions: tuple[IRBlock, ...]
    decls: tuple[VarDecl, ...]
    reusable: bool


def _lower_block(fb: FunctionBuilder, block, inputs: tuple) -> BlockLowering:
    """Lower ``block`` (its script with the bindings in ``inputs``) and its
    copy-out regions, declaring its temporaries in ``fb``'s function."""
    _, bindings, copies = inputs
    decls = fb._function.decls
    first_decl = len(decls)
    region = IRBlock(label=block.name)
    fb._blocks.append(region)
    try:
        reusable = lower_script(
            block.script, fb, dict(bindings), temp_prefix=f"{block.name}__"
        )
    except ScilabLoweringError as exc:
        raise ModelCompilationError(f"block {block.name!r} ({block.kind}): {exc}") from exc
    finally:
        fb._blocks.pop()
    regions = [region]
    for port_name, shape, src, dst in copies:
        copy_region = IRBlock(label=f"{block.name}__copyout")
        fb._blocks.append(copy_region)
        try:
            if not shape:
                fb.assign(dst, src)
            else:
                with fb.loop(f"cp_{block.name}_{port_name}", 0, shape[0]) as i:
                    fb.assign(fb.at(dst, i), fb.at(src, i))
        finally:
            fb._blocks.pop()
        regions.append(copy_region)
    return BlockLowering(inputs, tuple(regions), tuple(decls[first_decl:]), reusable)


def compile_diagram(
    diagram: Diagram,
    entry_name: str | None = None,
    lowerings: dict[str, BlockLowering] | None = None,
    facts: RegionFacts | None = None,
) -> CompiledModel:
    """Compile ``diagram`` to an IR program (one synchronous step).

    ``lowerings`` is a lowering memo, block name -> the latest reusable
    :class:`BlockLowering` of a block of that name, which the compile reads
    and updates.  Every block whose lowering inputs equal its entry's --
    same name, behaviour text, bindings and copy-outs -- gets the entry's
    region objects and the temporaries its lowering declared instead of
    being lowered again, and keeps every memo keyed by those regions; every
    block lowered afresh replaces its entry (when its lowering is
    reusable).  The result is the same IR a compile without a memo builds.
    The entry function is validated through ``facts`` (see
    :meth:`~repro.ir.program.Function.validate`; ``None`` computes every
    fact afresh).
    """
    diagram.validate()
    entry_name = entry_name or f"{diagram.name}_step"
    fb = FunctionBuilder(entry_name)
    model = CompiledModel(diagram_name=diagram.name, program=Program(diagram.name), entry_name=entry_name)

    # --- declare signals, external I/O, parameters and state -------------- #
    signal_vars: dict[tuple[str, str], Var] = {}
    for conn in diagram.connections:
        key = (conn.src_block, conn.src_port)
        if key in signal_vars:
            continue
        port = diagram.blocks[conn.src_block].output_port(conn.src_port)
        signal_vars[key] = _declare_port_var(fb, _signal_name(conn), port, Storage.SHARED)

    input_vars: dict[tuple[str, str], Var] = {}
    for block_name, port_name in diagram.external_inputs:
        port = diagram.blocks[block_name].input_port(port_name)
        name = _input_name(block_name, port_name)
        input_vars[(block_name, port_name)] = _declare_port_var(fb, name, port, Storage.INPUT)
        model.inputs[name] = (block_name, port_name, port.shape)

    output_vars: dict[tuple[str, str], Var] = {}
    for block_name, port_name in diagram.external_outputs:
        port = diagram.blocks[block_name].output_port(port_name)
        name = _output_name(block_name, port_name)
        output_vars[(block_name, port_name)] = _declare_port_var(fb, name, port, Storage.OUTPUT)
        model.outputs[name] = (block_name, port_name, port.shape)

    param_vars: dict[tuple[str, str], Expr] = {}
    for block in diagram.blocks.values():
        for pname, pvalue in block.params.items():
            if np.isscalar(pvalue):
                param_vars[(block.name, pname)] = Const(
                    int(pvalue) if float(pvalue).is_integer() else float(pvalue)
                )
            else:
                arr = np.asarray(pvalue, dtype=float)
                var_name = _param_name(block.name, pname)
                ty = ArrayType(FLOAT, arr.shape)
                fb._function.params.append(VarDecl(var_name, ty, Storage.INPUT))
                param_vars[(block.name, pname)] = Var(var_name, ty)
                model.parameter_values[var_name] = arr

    state_vars: dict[tuple[str, str], Var] = {}
    for block in diagram.blocks.values():
        for sname, svalue in block.state.items():
            var_name = _state_name(block.name, sname)
            if np.isscalar(svalue):
                fb._function.declare(VarDecl(var_name, FLOAT, Storage.SHARED, initial=float(svalue)))
                state_vars[(block.name, sname)] = Var(var_name, FLOAT)
                model.state_values[var_name] = float(svalue)
            else:
                arr = np.asarray(svalue, dtype=float)
                ty = ArrayType(FLOAT, arr.shape)
                fb._function.declare(VarDecl(var_name, ty, Storage.SHARED))
                state_vars[(block.name, sname)] = Var(var_name, ty)
                model.state_values[var_name] = arr

    # --- lower each block in execution order ------------------------------ #
    driver_of: dict[tuple[str, str], Connection] = {
        (c.dst_block, c.dst_port): c for c in diagram.connections
    }
    memo = lowerings if lowerings is not None else {}
    function = fb._function
    for block_name in diagram.execution_order():
        block = diagram.blocks[block_name]
        bindings: dict[str, Expr] = {}
        for port in block.inputs:
            key = (block_name, port.name)
            if key in driver_of:
                conn = driver_of[key]
                bindings[port.name] = signal_vars[(conn.src_block, conn.src_port)]
            elif key in input_vars:
                bindings[port.name] = input_vars[key]
            else:  # pragma: no cover - caught by diagram.validate()
                raise ModelCompilationError(
                    f"input {block_name}.{port.name} has no driver"
                )
        for port in block.outputs:
            key = (block_name, port.name)
            if key in signal_vars:
                bindings[port.name] = signal_vars[key]
            elif key in output_vars:
                bindings[port.name] = output_vars[key]
            else:
                # Unobserved output: still needs storage for the behaviour.
                var = _declare_port_var(
                    fb, f"unused_{block_name}_{port.name}", port, Storage.LOCAL
                )
                bindings[port.name] = var
        for pname in block.params:
            bindings[pname] = param_vars[(block_name, pname)]
        for sname in block.state:
            bindings[sname] = state_vars[(block_name, sname)]
        # an output port both connected and externally observed is copied
        # from the signal buffer into the external output after the block
        copies = tuple(
            (port.name, port.shape, signal_vars[key], output_vars[key])
            for port in block.outputs
            if (key := (block_name, port.name)) in signal_vars and key in output_vars
        )

        inputs = (block.behavior, tuple(bindings.items()), copies)
        lowering = memo.get(block_name)
        if (
            lowering is None
            or lowering.inputs != inputs
            # a temporary's name now declared elsewhere would resolve to
            # that declaration, as it did not when the block was lowered
            or any(function.lookup(decl.name) is not None for decl in lowering.decls)
        ):
            lowering = _lower_block(fb, block, inputs)
            model.blocks_lowered += 1
        else:
            function.decls.extend(lowering.decls)
        for region in lowering.regions:
            fb.emit(region)
        if lowering.reusable:
            memo[block_name] = lowering

    function = fb.build(validate=False)
    function.validate(facts)
    function.annotations["diagram"] = diagram.name
    model.program.add(function)
    return model
