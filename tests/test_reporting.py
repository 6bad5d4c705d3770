"""Direct unit tests for :mod:`repro.core.reporting`.

The reports are user-facing plain text consumed by the CLI and the
cross-layer feedback loop; these tests pin the edge cases the end-to-end
use-case tests never hit -- unanalysed schedules, empty HTGs -- and the
structure of the fixed-point convergence section.
"""

from repro.adl.platforms import generic_predictable_multicore, recore_xentium_like
from repro.core import Pipeline, ToolchainConfig
from repro.core.reporting import bottleneck_report, fixed_point_report, toolchain_summary
from repro.htg.graph import HierarchicalTaskGraph
from repro.htg.task import Task, TaskKind
from repro.ir.statements import Block
from repro.scheduling.schedule import Schedule
from repro.usecases import build_egpws_diagram, build_polka_diagram
from repro.utils.intervals import Interval
from repro.wcet.system_level import SystemWcetResult


def _empty_result(**overrides):
    base = dict(
        makespan=0.0,
        task_intervals={},
        task_cores={},
        task_effective_wcet={},
        task_contenders={},
        interference_cycles=0.0,
        communication_cycles=0.0,
        iterations=1,
        converged=True,
    )
    base.update(overrides)
    return SystemWcetResult(**base)


class TestBottleneckReport:
    def test_unanalysed_schedule(self):
        schedule = Schedule(htg_name="g", mapping={}, order={})
        assert bottleneck_report(HierarchicalTaskGraph("g"), schedule) == (
            "(schedule not analysed)"
        )

    def test_empty_htg_renders_headers_only(self):
        htg = HierarchicalTaskGraph("empty")
        schedule = Schedule(htg_name="empty", mapping={}, order={}, result=_empty_result())
        text = bottleneck_report(htg, schedule)
        assert "bottleneck tasks" in text
        assert "effective" in text
        # no task rows: nothing below the header rule
        assert text.rstrip().splitlines()[-1].startswith("-")

    def test_ranks_by_effective_wcet_and_caps_at_top(self):
        htg = HierarchicalTaskGraph("g")
        for tid, wcet in (("a", 10.0), ("b", 5.0), ("c", 1.0)):
            htg.add_task(Task(tid, TaskKind.BLOCK, Block(), origin=f"blk_{tid}", wcet=wcet))
        result = _empty_result(
            makespan=30.0,
            task_intervals={t: Interval(0.0, 10.0) for t in "abc"},
            task_cores={"a": 0, "b": 1, "c": 0},
            task_effective_wcet={"a": 12.0, "b": 20.0, "c": 1.0},
            task_contenders={t: 0 for t in "abc"},
            task_base_wcet={"a": 10.0, "b": 5.0, "c": 1.0},
            task_shared_accesses={"a": 2, "b": 37, "c": 0},
        )
        schedule = Schedule(
            htg_name="g",
            mapping={"a": 0, "b": 1, "c": 0},
            order={0: ["a", "c"], 1: ["b"]},
            result=result,
        )
        text = bottleneck_report(htg, schedule, top=2)
        lines = text.splitlines()
        assert "c" not in {line.split("|")[0].strip() for line in lines}
        # highest effective WCET first, interference = effective - isolated
        b_line = next(line for line in lines if line.split("|")[0].strip() == "b")
        a_line = next(line for line in lines if line.split("|")[0].strip() == "a")
        assert lines.index(b_line) < lines.index(a_line)
        assert "15" in b_line and "blk_b" in b_line
        # the shared-access column is the count the equation multiplied
        assert b_line.split("|")[-1].strip() == "37"

    def test_interference_is_measured_on_the_mapped_core(self):
        """polka on a platform whose ARM control core (id 8) is slower than
        the Xentium core 0 the HTG is annotated on: the isolated WCET must be
        the mapped core's, or tasks on core 8 show negative interference."""
        result = Pipeline(
            recore_xentium_like(), ToolchainConfig(granularity="block")
        ).run(build_polka_diagram())
        schedule = result.schedule
        assert 8 in schedule.mapping.values()
        text = bottleneck_report(result.htg, schedule, top=len(schedule.mapping))
        rows = [line.split("|") for line in text.splitlines()[3:]]
        assert len(rows) == len(schedule.mapping)
        for row in rows:
            tid = row[0].strip()
            base, effective, interference = (float(cell) for cell in row[3:6])
            assert base == schedule.result.task_base_wcet[tid]
            assert interference >= 0.0
            assert interference == effective - base


class TestFixedPointReport:
    def test_unanalysed_schedule(self):
        schedule = Schedule(htg_name="g", mapping={}, order={})
        assert fixed_point_report(schedule) == "(schedule not analysed)"

    def test_converged_without_curve(self):
        schedule = Schedule(
            htg_name="g",
            mapping={},
            order={},
            result=_empty_result(iterations=3, converged=True, final_delta=0.0),
        )
        text = fixed_point_report(schedule)
        assert "iterations : 3" in text
        assert "converged  : yes" in text
        assert "final delta: 0 cycles" in text
        assert "delta curve" not in text

    def test_cap_hit_with_curve(self):
        schedule = Schedule(
            htg_name="g",
            mapping={},
            order={},
            result=_empty_result(
                iterations=2,
                converged=False,
                final_delta=4.5,
                iteration_deltas=(96.0, 4.5),
            ),
        )
        text = fixed_point_report(schedule)
        assert "NO (iteration cap hit)" in text
        assert "final delta: 4.5 cycles" in text
        assert "delta curve: [96, 4.5]" in text


class TestToolchainSummary:
    def test_summary_includes_fixed_point_section(self):
        pipeline = Pipeline(
            generic_predictable_multicore(cores=2), ToolchainConfig(loop_chunks=2)
        )
        result = pipeline.run(build_egpws_diagram(lookahead=8))
        text = toolchain_summary(result)
        assert "parallel WCET" in text
        assert "system fixed point" in text
        assert "converged  : yes" in text
        # the fixed-point section precedes the bottleneck table
        assert text.index("system fixed point") < text.index("bottleneck tasks")
