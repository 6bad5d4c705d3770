"""The benchmark's workloads: seeded inputs, timed operations, oracles.

Every workload is a sequential closed loop in one process: one operation
(a cold design point, or one incremental edit round) starts only after the
previous one finished and was checked.  The seed fixes every input -- the
block parameters of the models, the values each edit writes, the sweep
order and the simulated input vectors.  Model *structure* (which fixes the
task graph, and with it the analysis work and the WCET bounds), the blocks
each edit touches and the annealing seed of each design point do not
depend on the seed, so runs with different seeds do the same work, their
bounds agree exactly and their spread measures the code, not the draw.  The amount of work per run is derived from
``--seconds`` by a fixed rate, never from the clock, so every run of one
seed does the same work and its bounds repeat exactly.

The oracles (:meth:`Workload.check`) never run inside a timed section and
never reuse the flow's own results as the reference: outputs come from the
model-level :meth:`~repro.model.diagram.Diagram.simulate`, which does not
use the compiler, and incremental rounds are compared with a fresh cold
run in a fresh cache.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.adl.platforms import (
    generic_predictable_multicore,
    kit_leon3_inoc,
    recore_xentium_like,
)
from repro.core.config import ToolchainConfig
from repro.core.pipeline import Pipeline, PipelineResult
from repro.model.diagram import Diagram
from repro.sim import simulate_parallel_program
from repro.usecases import (
    build_egpws_diagram,
    build_polka_diagram,
    build_weaa_diagram,
    egpws_test_inputs,
    polka_test_inputs,
    weaa_test_inputs,
)
from repro.usecases.workloads import (
    EDIT_KINDS,
    delete_block,
    edit_block_param,
    insert_gain_block,
    random_pipeline_diagram,
)
from repro.utils.rng import make_rng
from repro.wcet.cache import WcetAnalysisCache

#: use case -> (diagram builder, seeded input builder)
USECASES: dict[str, tuple[Callable[[], Diagram], Callable[[int, bool], dict]]] = {
    "egpws": (build_egpws_diagram, lambda s, f: egpws_test_inputs(seed=s, hazardous=f)),
    "polka": (build_polka_diagram, lambda s, f: polka_test_inputs(seed=s, stressed=f)),
    "weaa": (build_weaa_diagram, lambda s, f: weaa_test_inputs(seed=s, encounter=f)),
}

PLATFORMS: dict[str, Callable[[], Any]] = {
    "generic2": lambda: generic_predictable_multicore(cores=2),
    "generic4": lambda: generic_predictable_multicore(cores=4),
    "generic8": lambda: generic_predictable_multicore(cores=8),
    "recore_xentium": recore_xentium_like,
    "kit_leon3_inoc": kit_leon3_inoc,
}

#: (granularity, loop_chunks) design axis of the use-case sweep
EXTRACTION = (("block", 1), ("loop", 2), ("loop", 3), ("loop", 4))
#: Two cheap list schedulers to one annealer: the per-op median then falls
#: inside the list cluster instead of in the gap between two equal clusters.
SCHEDULERS = ("wcet_list", "acet_list", "simulated_annealing")

#: Model sizes: "full" is what the benchmark measures, "tiny" what its
#: self-tests run.
SIZES: dict[str, dict[str, int]] = {
    "full": {"stages": 26, "width": 8, "vector_size": 48},
    "tiny": {"stages": 3, "width": 2, "vector_size": 8},
}

#: Operations per measured second (work is fixed per run; see module doc).
OPS_PER_SECOND = {"dse-usecases": 9.0, "synthetic-1000": 0.15, "edit-incremental": 0.4}
#: Fixes the blocks the edit chain touches (the workload seed only redraws
#: the values the edits write).
EDIT_STRUCTURE = 0
#: Edit rounds per run also compared with a cold run (each comparison
#: costs more than the round it checks); every round is simulated.
COLD_COMPARED_EDITS = 2

EDITS: dict[str, Callable[..., str]] = {
    "param": edit_block_param,
    "insert": insert_gain_block,
    "delete": delete_block,
}


def _child_seed(*parts: int) -> int:
    """A seed derived from the workload seed and an op index (and salt)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0] >> 1)


@dataclass
class Op:
    """One timed operation plus what its oracle needs."""

    label: str
    diagram: Diagram
    #: untouched copy of ``diagram`` for the model-level reference
    reference: Diagram
    platform: Any
    config: ToolchainConfig
    inputs: dict[str, Any]
    cache: WcetAnalysisCache
    #: also compare with a cold run (a seeded subset of edit rounds)
    compare_cold: bool = False


class Workload:
    """Base class: ``setup`` builds inputs, ``ops`` yields the plan."""

    name = ""
    #: Collect garbage before every op: keeps peak memory a property of the
    #: code, not of collector timing.  Worth its untimed cost only where ops
    #: are few and heaps large.
    collect_between_ops = True

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.num_ops = max(2, round(seconds * OPS_PER_SECOND[self.name]))

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> PipelineResult:
        return Pipeline(op.platform, op.config, op.cache).run(op.diagram)

    def accept(self, op: Op, result: PipelineResult) -> None:
        """Called after a successful op, outside the timed section."""

    # ------------------------------------------------------------------ #
    def check(self, op: Op, result: PipelineResult) -> list[str]:
        """Oracle: every problem found with ``result`` (empty = correct)."""
        problems: list[str] = []
        if op.config.certify:
            chain = result.certificates
            if chain is None or not chain.ok:
                problems.append("certificate chain missing or refuted")
        sim = simulate_parallel_program(
            result.parallel_program,
            result.htg,
            result.model.entry,
            op.platform,
            result.model.run_inputs(dict(op.inputs)),
        )
        bound = result.system_wcet
        if not sim.makespan <= bound * (1 + 1e-12):
            problems.append(f"simulated makespan {sim.makespan} exceeds bound {bound}")
        expected = op.reference.simulate(steps=1, input_provider=op.inputs)[0]
        for key, want in expected.items():
            block, _, port = key.partition(".")
            got = sim.env.get(result.model.output_key(block, port))
            if got is None or np.shape(got) != np.shape(want) or not np.allclose(
                got, want, rtol=1e-9, atol=1e-12
            ):
                problems.append(f"output {key}: parallel {got!r} != model {want!r}")
        return problems


def _compare_with_cold(op: Op, result: PipelineResult) -> list[str]:
    cold = Pipeline(op.platform, op.config, WcetAnalysisCache()).run(
        copy.deepcopy(op.reference)
    )
    inc, ref = result.schedule, cold.schedule
    fields = {
        "bound": (inc.wcet_bound, ref.wcet_bound),
        "sequential bound": (result.sequential_bound, cold.sequential_bound),
        "mapping": (inc.mapping, ref.mapping),
        "order": (inc.order, ref.order),
        "task intervals": (inc.result.task_intervals, ref.result.task_intervals),
        "effective wcets": (
            inc.result.task_effective_wcet,
            ref.result.task_effective_wcet,
        ),
    }
    return [
        f"incremental {name} differs from a cold run"
        for name, (a, b) in fields.items()
        if a != b
    ]


def _seeded_model(structure: int, seed: int, size: dict[str, int]) -> Diagram:
    """A random pipeline model whose block parameters are re-drawn from
    ``seed``; ``structure`` fixes the blocks and wiring."""
    diagram = random_pipeline_diagram(**size, seed=structure)
    rng = make_rng(seed)
    for name in sorted(diagram.blocks):
        _draw_params(diagram.blocks[name].params, rng)
    return diagram


def _draw_params(params: dict[str, Any], rng: np.random.Generator) -> None:
    """Re-draw a block's numeric parameters (never its shapes or loops)."""
    if "k" in params:
        params["k"] = float(rng.uniform(0.5, 2.0))
    if "lo" in params:
        params["lo"], params["hi"] = -float(rng.uniform(4, 6)), float(rng.uniform(4, 6))
    if "h" in params:
        params["h"] = rng.uniform(0.1, 0.5, size=len(params["h"]))


def _random_inputs(diagram: Diagram, seed: int) -> dict[str, Any]:
    rng = make_rng(seed)
    values = {}
    for block, port in diagram.external_inputs:
        shape = diagram.blocks[block].input_port(port).shape
        values[f"{block}.{port}"] = rng.uniform(-2.0, 2.0, size=shape) if shape else float(
            rng.uniform(-2.0, 2.0)
        )
    return values


# ---------------------------------------------------------------------- #
class DseUsecases(Workload):
    """The paper's design-space exploration over its three use cases."""

    name = "dse-usecases"
    collect_between_ops = False

    def setup(self) -> None:
        self.platforms = {name: build() for name, build in PLATFORMS.items()}
        # (grid index, point): the index seeds the annealer, so a design
        # point does the same work whatever the workload seed or sweep order
        grid = list(enumerate(itertools.product(USECASES, PLATFORMS, EXTRACTION, SCHEDULERS)))
        order = make_rng(self.seed).permutation(len(grid))
        self.grid = [grid[i] for i in order][: self.num_ops]
        # warm-up: one small design in its own cache, so lazy imports and
        # first-call costs stay out of the sweep
        builder, inputs = USECASES["egpws"]
        warm = Op(
            "warm-up", builder(), builder(), self.platforms["generic2"],
            ToolchainConfig(scheduler="simulated_annealing", certify=True),
            inputs(self.seed, True), WcetAnalysisCache(),
        )
        self.check(warm, self.run(warm))
        # one in-memory cache shared by the whole grid, as sweep(max_workers=1)
        self.cache = WcetAnalysisCache()

    def ops(self) -> Iterator[Op]:
        for index, (point, (usecase, platform, (granularity, chunks), scheduler)) in enumerate(
            self.grid
        ):
            builder, inputs = USECASES[usecase]
            config = ToolchainConfig(
                granularity=granularity,
                loop_chunks=chunks,
                scheduler=scheduler,
                certify=True,
                seed=point,
            )
            yield Op(
                f"{usecase}/{platform}/{granularity}{chunks}/{scheduler}",
                builder(),
                builder(),
                self.platforms[platform],
                config,
                inputs(_child_seed(self.seed, index, 1), index % 2 == 0),
                self.cache,
            )


class Synthetic1000(Workload):
    """Cold designs of ~1000-task random models (fixed structures, seeded
    parameters), each in a fresh cache."""

    name = "synthetic-1000"

    def setup(self) -> None:
        self.platform = generic_predictable_multicore(cores=4)
        self.config = ToolchainConfig(
            granularity="loop", loop_chunks=6, static_pruning=True, certify=True
        )
        warm_diagram = random_pipeline_diagram(**SIZES["tiny"], seed=self.seed)
        warm = Op(
            "warm-up", warm_diagram, copy.deepcopy(warm_diagram), self.platform,
            self.config, _random_inputs(warm_diagram, self.seed), WcetAnalysisCache(),
        )
        self.check(warm, self.run(warm))

    def ops(self) -> Iterator[Op]:
        for index in range(self.num_ops):
            seed = _child_seed(self.seed, index)
            diagram = _seeded_model(index, seed, self.size)
            yield Op(
                f"synthetic model {index}",
                diagram,
                copy.deepcopy(diagram),
                self.platform,
                self.config,
                _random_inputs(diagram, seed),
                WcetAnalysisCache(),
            )


class EditIncremental(Workload):
    """A seeded chain of single-step edits, each re-analysed incrementally."""

    name = "edit-incremental"

    def setup(self) -> None:
        self.platform = generic_predictable_multicore(cores=4)
        self.config = ToolchainConfig(granularity="loop", loop_chunks=6)
        self.current = _seeded_model(0, self.seed, self.size)
        self.pipeline = Pipeline(self.platform, self.config, WcetAnalysisCache())
        self.prev = self.pipeline.run(copy.deepcopy(self.current))
        # a long-lived session holds its previous run's summary
        self.prev.artifact_summary(self.pipeline.wcet_cache)
        rng = make_rng(_child_seed(self.seed, 1))
        self.compared = set(
            rng.choice(self.num_ops, size=min(COLD_COMPARED_EDITS, self.num_ops), replace=False)
        )

    def ops(self) -> Iterator[Op]:
        for index in range(self.num_ops):
            # kinds rotate and targets are fixed, so every seed makes the same
            # structural edits; the seed redraws the values they write
            kind = EDIT_KINDS[index % len(EDIT_KINDS)]
            edited = copy.deepcopy(self.current)
            where = _child_seed(EDIT_STRUCTURE, index)
            try:
                target = EDITS[kind](edited, seed=where)
            except ValueError:  # no candidate for a structural edit
                kind, target = "param", edit_block_param(edited, seed=where)
            if target in edited.blocks:
                rng = make_rng(_child_seed(self.seed, index))
                _draw_params(edited.blocks[target].params, rng)
            yield Op(
                f"edit {index}: {kind} {target}",
                edited,
                copy.deepcopy(edited),
                self.platform,
                self.config,
                _random_inputs(edited, _child_seed(self.seed, index, 1)),
                self.pipeline.wcet_cache,
                compare_cold=index in self.compared,
            )

    def run(self, op: Op) -> PipelineResult:
        return self.pipeline.run_incremental(self.prev, op.diagram)

    def accept(self, op: Op, result: PipelineResult) -> None:
        self.prev, self.current = result, op.diagram

    def check(self, op: Op, result: PipelineResult) -> list[str]:
        problems = super().check(op, result)
        if op.compare_cold:
            problems += _compare_with_cold(op, result)
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (DseUsecases, Synthetic1000, EditIncremental)
}
