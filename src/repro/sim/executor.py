"""Execution of an explicit parallel program on the platform model.

The simulation is task-granular and time-compositional, mirroring the
execution model the WCET analysis assumes:

* every core executes its task sequence in order;
* a task starts when its same-core predecessor has finished and every
  cross-core dependence has been signalled (plus the worst-case communication
  latency for the transferred payload);
* a task's duration is its executed trace (obtained by interpreting its IR
  with the concrete input data) priced by the cost semantics of
  :mod:`repro.wcet.hardware_model`, the rules the analysis applies to the
  worst case: operations, array reads and writes, scalar assignments, one
  ``branch_cycles`` per executed ``if`` and ``loop_overhead_cycles`` per
  executed loop iteration;
* shared-memory accesses are charged the arbitration penalty for the number
  of contending cores the system-level analysis budgeted for that task
  (``contention="static"``, the default, models a platform whose arbiter
  enforces the analysed reservation and guarantees measured <= bound), or the
  concurrency observed during simulation (``contention="dynamic"``).

Because an executed trace never costs more than the analysed worst case
under the same prices, and the start rules are the analysis' rules, the
measured makespan is a lower bound on the system WCET -- the tightness ratio
measured by experiment E6 -- and a code-level analysis that under-counts
shows up as a task whose simulated duration exceeds its analysed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.adl.architecture import Platform
from repro.htg.graph import HierarchicalTaskGraph
from repro.ir.interpreter import ExecutionStats, Interpreter
from repro.ir.program import Function
from repro.parallel.model import ParallelProgram
from repro.utils.intervals import Interval
from repro.wcet.hardware_model import HardwareCostModel


@dataclass
class SimulationResult:
    """Timing and functional outcome of one simulated execution."""

    makespan: float
    task_intervals: dict[str, Interval]
    task_durations: dict[str, float]
    env: dict[str, Any]
    #: shared accesses each task's executed trace made
    task_shared_accesses: dict[str, int]
    per_core_busy: dict[int, float]

    def observed_value(self, name: str) -> Any:
        return self.env[name]


def _trace_cost(
    stats: ExecutionStats,
    function: Function,
    model: HardwareCostModel,
) -> tuple[float, int]:
    """Cycles the cost semantics charges for an executed trace, plus the
    number of shared accesses it made."""
    cycles = (
        stats.branches * model.branch_cycles
        + stats.loop_iterations * model.loop_overhead_cycles
        + stats.scalar_assigns * model.scalar_assign_cycles
    )
    for op, count in stats.operations.items():
        cycles += model.op_cycles(op) * count
    shared_accesses = 0
    for name, count in stats.array_reads.items():
        cycles += model.read_cycles(function, name) * count
        if model.is_shared(function, name):
            shared_accesses += count
    for name, count in stats.array_writes.items():
        cycles += model.write_cycles(function, name) * count
        if model.is_shared(function, name):
            shared_accesses += count
    return cycles, shared_accesses


def simulate_parallel_program(
    program: ParallelProgram,
    htg: HierarchicalTaskGraph,
    function: Function,
    platform: Platform,
    inputs: Mapping[str, Any] | None = None,
    contention: str = "static",
) -> SimulationResult:
    """Simulate one synchronous step of the parallel program."""
    if contention not in ("static", "dynamic"):
        raise ValueError("contention must be 'static' or 'dynamic'")
    schedule = program.schedule
    mapping = schedule.mapping
    interpreter = Interpreter()
    env = interpreter.initial_environment(function, inputs)

    models = {
        core: HardwareCostModel(platform, core)
        for core in {mapping[tid] for tid in mapping}
    }

    # Execute tasks in dependence-consistent order while computing the
    # timeline; data must be produced before consumers run, so functional
    # execution follows the same order as the timing computation.
    order = schedule.order
    position = {tid: (core, idx) for core, tids in order.items() for idx, tid in enumerate(tids)}
    finish: dict[str, float] = {}
    start: dict[str, float] = {}
    durations: dict[str, float] = {}
    shared_by_task: dict[str, int] = {}
    pending = {t.task_id for t in htg.leaf_tasks()}
    comm_contenders = max(0, platform.num_cores - 1)

    analysed_contenders = schedule.result.task_contenders if schedule.result else {}

    guard = 0
    while pending:
        guard += 1
        if guard > len(position) ** 2 + 10:
            raise RuntimeError("simulation could not make progress; inconsistent schedule")
        for tid in sorted(pending, key=lambda t: (position[t][0], position[t][1])):
            core, idx = position[tid]
            preds = htg.predecessors(tid)
            if any(p in pending for p in preds):
                continue
            if idx > 0 and order[core][idx - 1] in pending:
                continue
            # functional execution with dynamic accounting
            stats = interpreter.run_statements(htg.task(tid).statements, env)
            base_cycles, shared_accesses = _trace_cost(stats, function, models[core])
            shared_by_task[tid] = shared_accesses

            ready_core = finish[order[core][idx - 1]] if idx > 0 else 0.0
            ready_deps = 0.0
            for p in preds:
                delay = 0.0
                if mapping[p] != core:
                    edge = htg.edge(p, tid)
                    payload = edge.payload_bytes if edge else 0
                    if payload:
                        delay = platform.communication_latency(payload, mapping[p], core, comm_contenders)
                ready_deps = max(ready_deps, finish[p] + delay)
            task_start = max(ready_core, ready_deps)

            if contention == "static":
                contenders = analysed_contenders.get(tid, 0)
            else:
                window = Interval(task_start, task_start + max(base_cycles, 1e-9))
                contenders = len(
                    {
                        mapping[other]
                        for other, iv in zip(start.keys(), (Interval(start[o], finish[o]) for o in start))
                        if mapping[other] != core and iv.overlaps(window) and shared_by_task.get(other, 0) > 0
                    }
                )
            duration = base_cycles + shared_accesses * platform.shared_access_penalty(contenders)
            start[tid] = task_start
            finish[tid] = task_start + duration
            durations[tid] = duration
            pending.discard(tid)
            break
        else:
            continue

    intervals = {tid: Interval(start[tid], finish[tid]) for tid in start}
    makespan = max((iv.end for iv in intervals.values()), default=0.0)
    per_core_busy: dict[int, float] = {}
    for tid, duration in durations.items():
        per_core_busy[mapping[tid]] = per_core_busy.get(mapping[tid], 0.0) + duration
    return SimulationResult(
        makespan=makespan,
        task_intervals=intervals,
        task_durations=durations,
        env=env,
        task_shared_accesses=shared_by_task,
        per_core_busy=per_core_busy,
    )
