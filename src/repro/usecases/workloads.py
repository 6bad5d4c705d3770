"""Synthetic workload generators for scalability and scheduler studies.

Two generators are provided:

* :func:`random_pipeline_diagram` builds a random dataflow diagram from the
  standard block library (fan-out / fan-in stages of vector kernels), used to
  stress the whole flow;
* :func:`synthetic_compiled_model` builds a random multi-kernel IR function
  directly (bypassing the model level) and wraps it as a
  :class:`~repro.frontend.codegen.CompiledModel`, which is the cheapest way to
  produce HTGs of a given size for scheduler benchmarks (E8).

The seeded *edit scripts* (:func:`edit_block_param`,
:func:`insert_gain_block`, :func:`delete_block`,
:func:`random_edit_script`, :func:`tweak_platform_costs`) perturb a
diagram or platform deterministically; the incremental re-analysis
engine's property tests and the E15 benchmark replay them to assert that
:meth:`~repro.core.pipeline.Pipeline.run_incremental` matches a cold run
bit for bit.
"""

from __future__ import annotations

from repro.frontend.codegen import CompiledModel
from repro.ir.builder import FunctionBuilder
from repro.ir.program import Program
from repro.ir.statements import Block as IRBlock
from repro.model import Diagram, library
from repro.utils.rng import make_rng


def random_pipeline_diagram(
    stages: int = 4,
    width: int = 2,
    vector_size: int = 32,
    seed: int | None = None,
) -> Diagram:
    """A random layered diagram: ``stages`` layers of ``width`` vector kernels.

    Each kernel reads the output of one random kernel in the previous layer;
    the final layer is reduced to scalar outputs.  All blocks come from the
    standard library, so the diagram exercises exactly the same code paths as
    the hand-written use cases.
    """
    if stages < 2 or width < 1:
        raise ValueError("need at least 2 stages and width >= 1")
    rng = make_rng(seed)
    d = Diagram(f"synthetic_s{stages}w{width}")
    kinds = ["gain", "saturation", "fir", "elementwise"]
    previous: list[str] = []
    for layer in range(stages):
        current: list[str] = []
        for lane in range(width):
            name = f"b{layer}_{lane}"
            kind = kinds[int(rng.integers(0, len(kinds)))]
            if kind == "gain":
                block = library.gain(name, float(rng.uniform(0.5, 2.0)), size=vector_size)
            elif kind == "saturation":
                block = library.saturation(name, -5.0, 5.0, size=vector_size)
            elif kind == "fir":
                taps = rng.uniform(0.1, 0.5, size=3)
                block = library.fir_filter(name, taps, size=vector_size)
            else:
                block = library.elementwise(name, "abs", size=vector_size)
            d.add_block(block)
            if layer == 0:
                d.mark_input(name, "u")
            else:
                source = previous[int(rng.integers(0, len(previous)))]
                d.connect(source, "y", name, "u")
            current.append(name)
        previous = current
    for lane, name in enumerate(previous):
        reducer = library.scalar_max(f"reduce_{lane}", vector_size)
        d.add_block(reducer)
        d.connect(name, "y", reducer.name, "u")
        d.mark_output(reducer.name, "y")
    d.validate()
    return d


def synthetic_compiled_model(
    num_kernels: int = 8,
    vector_size: int = 64,
    dependency_probability: float = 0.35,
    seed: int | None = None,
) -> CompiledModel:
    """A random multi-kernel IR function wrapped as a compiled model.

    Kernel ``k`` reads a subset of the output buffers of earlier kernels (per
    ``dependency_probability``) plus its own input buffer, and writes its own
    output buffer; each kernel is one block region, so the HTG extractor sees
    a random DAG with realistic WCETs and shared-access counts.
    """
    if num_kernels < 1:
        raise ValueError("need at least one kernel")
    rng = make_rng(seed)
    name = f"synthetic_k{num_kernels}"
    fb = FunctionBuilder(f"{name}_step")

    inputs = []
    outputs = []
    for k in range(num_kernels):
        inputs.append(fb.input_array(f"in_k{k}", (vector_size,)))
        outputs.append(fb.shared_array(f"buf_k{k}", (vector_size,)))

    for k in range(num_kernels):
        region = IRBlock(label=f"kernel{k}")
        fb._blocks.append(region)
        try:
            sources = [inputs[k]]
            for j in range(k):
                if rng.random() < dependency_probability:
                    sources.append(outputs[j])
            work = int(rng.integers(1, 4))
            with fb.loop("i", 0, vector_size) as i:
                acc = None
                for src in sources:
                    term = fb.at(src, i)
                    acc = term if acc is None else acc + term
                for _ in range(work):
                    acc = fb.call("sqrt", fb.call("abs", acc)) + acc
                fb.assign(fb.at(outputs[k], i), acc)
        finally:
            fb._blocks.pop()
        fb.emit(region)

    function = fb.build()
    model = CompiledModel(diagram_name=name, program=Program(name), entry_name=function.name)
    model.program.add(function)
    for k in range(num_kernels):
        model.inputs[f"in_k{k}"] = (f"kernel{k}", "u", (vector_size,))
    return model


# ---------------------------------------------------------------------- #
# seeded edit scripts (for the incremental re-analysis engine, E15)
# ---------------------------------------------------------------------- #
def edit_block_param(diagram: Diagram, seed: int | None = None) -> str:
    """Change one numeric block parameter in place (a "single-task edit").

    Picks a random ``gain`` or ``saturation`` block and perturbs its scalar
    parameter(s) -- the smallest edit that changes exactly one code region's
    fingerprint.  Returns the edited block's name.
    """
    rng = make_rng(seed)
    candidates = [
        diagram.blocks[name]
        for name in sorted(diagram.blocks)
        if diagram.blocks[name].kind in ("gain", "saturation")
    ]
    if not candidates:
        raise ValueError("diagram has no gain/saturation block to edit")
    block = candidates[int(rng.integers(0, len(candidates)))]
    if block.kind == "gain":
        block.params["k"] = float(block.params["k"]) * float(rng.uniform(1.1, 3.0))
    else:
        shift = float(rng.uniform(0.5, 2.0))
        block.params["lo"] = float(block.params["lo"]) - shift
        block.params["hi"] = float(block.params["hi"]) + shift
    return block.name


def insert_gain_block(diagram: Diagram, seed: int | None = None) -> str:
    """Splice a new unity-ish gain block into one random connection.

    A task-insertion edit: one region is added and the producer/consumer
    regions keep their code.  Returns the new block's name.
    """
    rng = make_rng(seed)
    if not diagram.connections:
        raise ValueError("diagram has no connection to splice into")
    index = int(rng.integers(0, len(diagram.connections)))
    conn = diagram.connections[index]
    shape = diagram.blocks[conn.src_block].output_port(conn.src_port).shape
    name = f"ins_gain_{len(diagram.blocks)}"
    while name in diagram.blocks:
        name += "x"
    block = library.gain(
        name, float(rng.uniform(0.5, 2.0)), size=shape[0] if shape else 1
    )
    diagram.connections.pop(index)
    diagram.add_block(block)
    diagram.connect(conn.src_block, conn.src_port, name, "u")
    diagram.connect(name, "y", conn.dst_block, conn.dst_port)
    diagram.validate()
    return name


def delete_block(diagram: Diagram, seed: int | None = None) -> str:
    """Remove one random pass-through block, rewiring its consumers.

    A task-deletion edit: only shape-preserving single-input/single-output
    blocks that are not external ports qualify, so the diagram stays valid.
    Returns the removed block's name.
    """
    rng = make_rng(seed)
    marked = {name for name, _ in diagram.external_inputs}
    marked |= {name for name, _ in diagram.external_outputs}
    candidates = []
    for name in sorted(diagram.blocks):
        block = diagram.blocks[name]
        if name in marked:
            continue
        if [p.name for p in block.inputs] != ["u"]:
            continue
        if [p.name for p in block.outputs] != ["y"]:
            continue
        if block.input_port("u").shape != block.output_port("y").shape:
            continue
        drivers = [c for c in diagram.connections if c.dst_block == name]
        if len(drivers) != 1:
            continue
        candidates.append((name, drivers[0]))
    if not candidates:
        raise ValueError("diagram has no removable pass-through block")
    name, driver = candidates[int(rng.integers(0, len(candidates)))]
    consumers = [c for c in diagram.connections if c.src_block == name]
    diagram.connections[:] = [
        c for c in diagram.connections if name not in (c.src_block, c.dst_block)
    ]
    del diagram.blocks[name]
    for consumer in consumers:
        diagram.connect(
            driver.src_block, driver.src_port, consumer.dst_block, consumer.dst_port
        )
    diagram.validate()
    return name


#: The edit kinds :func:`random_edit_script` draws from.
EDIT_KINDS = ("param", "insert", "delete")


def random_edit_script(
    diagram: Diagram, num_edits: int = 1, seed: int | None = None
) -> list[tuple[str, str]]:
    """Apply ``num_edits`` random seeded edits to ``diagram`` in place.

    Each step uniformly picks a parameter edit, a block insertion or a block
    deletion (falling back to a parameter edit when the structural edit has
    no candidate).  Returns the applied ``(kind, block name)`` pairs; the
    same seed replays the same script.
    """
    rng = make_rng(seed)
    applied: list[tuple[str, str]] = []
    for _ in range(max(0, num_edits)):
        kind = EDIT_KINDS[int(rng.integers(0, len(EDIT_KINDS)))]
        sub_seed = int(rng.integers(0, 2**31 - 1))
        try:
            if kind == "insert":
                applied.append(("insert", insert_gain_block(diagram, seed=sub_seed)))
            elif kind == "delete":
                applied.append(("delete", delete_block(diagram, seed=sub_seed)))
            else:
                applied.append(("param", edit_block_param(diagram, seed=sub_seed)))
        except ValueError:
            applied.append(("param", edit_block_param(diagram, seed=sub_seed)))
    diagram.validate()
    return applied


def tweak_platform_costs(platform, seed: int | None = None, delta: int = 2):
    """A copy of ``platform`` with one random operation cost bumped everywhere.

    A platform-cost edit: the model is untouched but every base WCET can
    move, so the incremental engine must re-run the timing stages.
    """
    from dataclasses import replace

    rng = make_rng(seed)
    ops = sorted(platform.cores[0].processor.op_cycles)
    op = ops[int(rng.integers(0, len(ops)))]
    cores = []
    for core in platform.cores:
        op_cycles = dict(core.processor.op_cycles)
        op_cycles[op] = int(op_cycles.get(op, 1)) + int(delta)
        cores.append(
            replace(core, processor=replace(core.processor, op_cycles=op_cycles))
        )
    return replace(platform, cores=cores)
