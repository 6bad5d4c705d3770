"""System-level fixed point: MHP kernel equivalence and the safety fallback.

Covers the convergence flag, the safety fallback and the two MHP kernels:

* ``SystemWcetResult.converged`` must be truthful (the seed reported
  ``converged or True``, hiding the safety fallback from every caller);
* the fallback must report contender counts consistent with the worst-case
  effective WCETs it charges;
* the unpruned kernel (the per-core bisect pass) must match the pruned
  kernel (the skeleton pair loop) bit-for-bit on every use case, end to
  end, when the skeleton keeps every cross-core sharer pair.
"""

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.scheduling.schedule import default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import synthetic_compiled_model
from repro.wcet import (
    HardwareCostModel,
    analyze_task_wcet,
    annotate_htg_wcets,
    system_level_wcet,
)
from repro.wcet import system_level
from repro.wcet.system_level import (
    contention_oblivious_bound,
    mhp_contenders,
    mhp_contenders_pruned,
)

USECASES = ["egpws", "polka", "weaa", "workloads"]


def build_case(usecase, cores=4, chunks=2):
    if usecase == "workloads":
        model = synthetic_compiled_model(num_kernels=6, vector_size=32, seed=1)
    else:
        builder, _ = ALL_USECASES[usecase]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = {
        t.task_id: i % platform.num_cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }
    order = default_core_order(htg, mapping)
    return model, htg, platform, mapping, order


def full_skeleton(leaf_ids, sharers, mapping):
    """Every cross-core sharer of every task: a skeleton that prunes nothing."""
    return {
        tid: tuple(sid for sid in sharers if mapping[sid] != mapping[tid])
        for tid in leaf_ids
    }


def pair_loop_on_full_skeleton(leaf_ids, sharers, mapping, intervals):
    """The pruned kernel standing in for the unpruned one."""
    skeleton = full_skeleton(leaf_ids, sharers, mapping)
    return mhp_contenders_pruned(leaf_ids, skeleton, mapping, intervals)


def result_fingerprint(result):
    return (
        result.makespan,
        {tid: (iv.start, iv.end) for tid, iv in result.task_intervals.items()},
        result.task_effective_wcet,
        result.task_contenders,
        result.interference_cycles,
        result.communication_cycles,
        result.iterations,
        result.converged,
    )


@pytest.mark.parametrize("usecase", USECASES)
class TestMhpBackendsIdentical:
    """The bisect kernel and the pair loop over a full skeleton agree."""

    def test_end_to_end_bit_for_bit(self, usecase, monkeypatch):
        model, htg, platform, mapping, order = build_case(usecase)
        bisect = system_level_wcet(htg, model.entry, platform, mapping, order)
        monkeypatch.setattr(system_level, "mhp_contenders", pair_loop_on_full_skeleton)
        pair_loop = system_level_wcet(htg, model.entry, platform, mapping, order)
        assert result_fingerprint(bisect) == result_fingerprint(pair_loop)

    def test_contender_pass_bit_for_bit(self, usecase):
        """The raw MHP passes agree on the converged timeline too."""
        model, htg, platform, mapping, order = build_case(usecase)
        result = system_level_wcet(htg, model.entry, platform, mapping, order)
        leaf_ids = [t.task_id for t in htg.leaf_tasks()]
        sharers = [
            t.task_id for t in htg.leaf_tasks() if t.total_shared_accesses > 0
        ]
        args = (leaf_ids, sharers, mapping, result.task_intervals)
        assert mhp_contenders(*args) == pair_loop_on_full_skeleton(*args)


class TestNonConvergenceFallback:
    """A contention-heavy HTG whose interference keeps shifting windows.

    The fixture needs 4 fixed-point iterations to settle (inflating a task
    moves its successors' windows, which keeps changing the contention sets),
    so capping the iteration count exercises the all-cores-contend fallback.
    """

    @pytest.fixture(scope="class")
    def case(self):
        model = synthetic_compiled_model(
            num_kernels=60, vector_size=32, dependency_probability=0.03, seed=1
        )
        htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=1))
        platform = generic_predictable_multicore(cores=8)
        annotate_htg_wcets(htg, model.entry, HardwareCostModel(platform, 0))
        mapping = {
            t.task_id: i % 8
            for i, t in enumerate(htg.topological_tasks())
            if not t.is_synthetic
        }
        order = default_core_order(htg, mapping)
        return model, htg, platform, mapping, order

    def test_fixture_contention_keeps_changing(self, case):
        model, htg, platform, mapping, order = case
        settled = system_level_wcet(htg, model.entry, platform, mapping, order)
        assert settled.converged is True
        # every iteration before the fixed point saw a different contention
        # state, otherwise the loop would have stopped earlier
        assert settled.iterations >= 4

    def test_converged_flag_is_truthful(self, case):
        model, htg, platform, mapping, order = case
        capped = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        assert capped.converged is False
        assert capped.iterations == 2

    def test_fallback_contenders_consistent_with_wcets(self, case):
        model, htg, platform, mapping, order = case
        capped = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        worst_contenders = platform.num_cores - 1
        models = {
            core: HardwareCostModel(platform, core) for core in set(mapping.values())
        }
        for tid, reported in capped.task_contenders.items():
            assert reported == worst_contenders
            breakdown = analyze_task_wcet(htg.task(tid), model.entry, models[mapping[tid]])
            expected = breakdown.total + breakdown.shared_accesses * models[
                mapping[tid]
            ].shared_access_penalty(worst_contenders)
            assert capped.task_effective_wcet[tid] == expected

    def test_fallback_bound_dominates_converged_bound(self, case):
        model, htg, platform, mapping, order = case
        settled = system_level_wcet(htg, model.entry, platform, mapping, order)
        capped = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        assert capped.makespan >= settled.makespan
        for tid in settled.task_effective_wcet:
            assert capped.task_effective_wcet[tid] >= settled.task_effective_wcet[tid]

    def test_fallback_identical_across_backends(self, case, monkeypatch):
        model, htg, platform, mapping, order = case
        bisect = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        monkeypatch.setattr(system_level, "mhp_contenders", pair_loop_on_full_skeleton)
        pair_loop = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        assert result_fingerprint(bisect) == result_fingerprint(pair_loop)

    def test_fallback_equals_oblivious_bound(self, case):
        """The fallback assumes maximal contention -- exactly the
        contention-oblivious model.  Both bounds price edges through the
        shared helper, so their makespans must coincide byte-for-byte."""
        model, htg, platform, mapping, order = case
        capped = system_level_wcet(
            htg, model.entry, platform, mapping, order, max_iterations=2
        )
        oblivious = contention_oblivious_bound(htg, model.entry, platform, mapping, order)
        assert capped.makespan == oblivious
