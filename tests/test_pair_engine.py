"""The bitset pair engine against the pairwise loops it replaced.

Reachability, static MHP, the race check and the contention checker used
to enumerate every task pair against a materialised networkx closure.
They now work on per-task bitsets and run per-pair code only where a
finding or a kept contender can come out.  The old pairwise loops live on
here as reference oracles, and every result must be bit-identical to
theirs: relations, counters, and findings in the same order.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis.certify import (
    ContentionCertificate,
    build_contention_certificate,
    check_contention_certificate,
)
from repro.analysis.certify.contention_cert import (
    _shared_array_names,
    _task_access_bounds,
)
from repro.analysis.footprints import (
    address_overlaps,
    footprints_address_disjoint,
    footprints_conflict_free,
    task_footprint,
)
from repro.analysis.races import incremental_race_check
from repro.analysis.report import AnalysisReport, Finding
from repro.analysis.static_mhp import compute_static_mhp
from repro.frontend import compile_diagram
from repro.htg import extract_htg
from repro.htg.extraction import ExtractionOptions
from repro.htg.graph import HierarchicalTaskGraph, TaskEdge
from repro.htg.task import Task, TaskKind
from repro.ir import FunctionBuilder
from repro.ir.facts import RegionFacts
from repro.ir.expressions import ArrayRef, BinOp, Const, Var
from repro.ir.program import Storage
from repro.ir.statements import Assign, Block, For
from repro.ir.types import INT
from repro.scheduling.schedule import Schedule, ScheduleError, default_core_order
from repro.usecases import ALL_USECASES
from repro.usecases.workloads import (
    random_edit_script,
    random_pipeline_diagram,
    synthetic_compiled_model,
)
from repro.utils.graphs import Reachability
from repro.wcet import (
    HardwareCostModel,
    SystemDesign,
    WcetAnalysisCache,
    system_level_wcet,
)

from graph_reference import transitive_closure

USECASES = ["egpws", "polka", "weaa"]
CASES = USECASES + ["synthetic-1", "synthetic-2", "synthetic-3"]


# ---------------------------------------------------------------------- #
# the pairwise oracles
# ---------------------------------------------------------------------- #
def static_mhp_oracle(htg, function, mapping, sharers):
    """``compute_static_mhp`` as a double loop over a networkx closure, with
    every footprint walked afresh."""
    leaf_ids = [t.task_id for t in htg.leaf_tasks() if t.task_id in mapping]
    if all(e.src in mapping and e.dst in mapping for e in htg.edges):
        ordered = transitive_closure(htg.tasks.keys(), htg.edge_pairs())
    else:
        ordered = transitive_closure(
            set(mapping),
            [(e.src, e.dst) for e in htg.edges if e.src in mapping and e.dst in mapping],
        )
    footprints = {tid: task_footprint(function, htg.task(tid)) for tid in leaf_ids}
    allowed = {}
    counts = dict.fromkeys(
        ("candidate_pairs", "pruned_same_core", "pruned_ordered", "pruned_disjoint",
         "kept_pairs"), 0,
    )
    for tid in leaf_ids:
        keep = []
        for other in sorted(sharers):
            if other == tid:
                continue
            counts["candidate_pairs"] += 1
            if mapping[other] == mapping[tid]:
                counts["pruned_same_core"] += 1
                continue
            if (tid, other) in ordered or (other, tid) in ordered:
                counts["pruned_ordered"] += 1
                continue
            if footprints_address_disjoint(footprints[tid], footprints[other]):
                counts["pruned_disjoint"] += 1
                continue
            keep.append(other)
        counts["kept_pairs"] += len(keep)
        allowed[tid] = tuple(keep)
    return allowed, counts


SHARED_STORAGE = (Storage.SHARED, Storage.INPUT, Storage.OUTPUT)


def _scan_pair(a, b, ordered, shared_names, mapping, function, report, footprint_of):
    report.bump("pairs_checked")
    if (a.task_id, b.task_id) in ordered or (b.task_id, a.task_id) in ordered:
        report.bump("pairs_ordered")
        return
    write_write = a.writes & b.writes & shared_names
    write_read = (a.writes & b.reads | a.reads & b.writes) & shared_names
    if not write_write and not write_read:
        report.bump("pairs_disjoint")
        return
    conflict = sorted(write_write | write_read)
    siblings = (
        a.kind is TaskKind.LOOP_CHUNK
        and b.kind is TaskKind.LOOP_CHUNK
        and a.parent is not None
        and a.parent == b.parent
    )
    if siblings:
        if footprints_conflict_free(footprint_of(a), footprint_of(b)):
            report.bump("chunk_pairs_proved_disjoint")
            return
        report.add(
            Finding(
                code="race.chunk-overlap-unproven",
                message=(
                    f"sibling loop chunks {a.task_id!r} and {b.task_id!r} "
                    f"conflict on shared variable(s) {', '.join(conflict)} "
                    "and the footprint analysis cannot prove the accessed "
                    "index slices disjoint"
                ),
                function=function.name,
                subject=f"{a.task_id}<->{b.task_id}",
                severity="warning",
            )
        )
        return
    kind = "write-write" if write_write else "write-read"
    report.add(
        Finding(
            code=f"race.{kind}",
            message=(
                f"tasks {a.task_id!r} (core {mapping[a.task_id]}) and "
                f"{b.task_id!r} (core {mapping[b.task_id]}) access shared "
                f"variable(s) {', '.join(conflict)} without a "
                "happens-before ordering"
            ),
            function=function.name,
            subject=f"{a.task_id}<->{b.task_id}",
        )
    )


def race_oracle(htg, mapping, order, function):
    """``incremental_race_check``'s report as a pair scan over a networkx
    closure, with every footprint walked afresh."""
    report = AnalysisReport("race_checker")
    shared_names = frozenset(
        d.name for d in function.all_decls() if d.storage in SHARED_STORAGE
    )

    def footprint_of(task):
        return task_footprint(function, task)

    tasks = [t for t in htg.leaf_tasks() if t.task_id in mapping]
    report.bump("tasks", len(tasks))
    report.bump("shared_variables", len(shared_names))
    happens_before = set(htg.edge_pairs())
    for core_tasks in order.values():
        happens_before.update(zip(core_tasks, core_tasks[1:]))
    ordered = frozenset(transitive_closure(htg.tasks.keys(), happens_before))
    args = (ordered, shared_names, mapping, function, report, footprint_of)
    for i, a in enumerate(tasks):
        for b in tasks[i + 1:]:
            _scan_pair(a, b, *args)
    return report


def contention_oracle(cert, htg, function):
    """``check_contention_certificate`` as a test of every excluded pair."""
    report = AnalysisReport("certify_contention")

    def fail(code, message, subject=""):
        report.add(Finding(code=code, message=message,
                           function=cert.function_name, subject=subject))

    if function.name != cert.function_name:
        fail(
            "certify.contention.coverage",
            f"certificate was built for function {cert.function_name!r}, "
            f"checked against {function.name!r}",
        )
        return report
    unknown = sorted(
        {o for others in cert.allowed.values() for o in others} - set(cert.mapping)
    )
    if unknown:
        fail(
            "certify.contention.coverage",
            f"skeleton names unmapped task(s) {', '.join(unknown)}",
        )
        return report
    succs = {}
    for edge in htg.edges:
        if edge.src in cert.mapping and edge.dst in cert.mapping:
            succs.setdefault(edge.src, []).append(edge.dst)
    ordered = set()
    for root in cert.mapping:
        frontier, seen = list(succs.get(root, ())), set()
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                ordered.add((root, node))
                frontier.extend(succs.get(node, ()))
    shared_names = _shared_array_names(function)
    sharers = sorted(tid for tid in cert.mapping if cert.shared.get(tid, 0) > 0)

    def bounds_of(tid):
        if tid not in htg.tasks:
            return None
        return _task_access_bounds(function, htg.task(tid), shared_names)

    def disjoint(a, b):
        return not any(
            alo <= bhi and blo <= ahi
            for name, windows_a in a.items()
            for alo, ahi in windows_a
            for blo, bhi in b.get(name, ())
        )

    pairs_checked = exclusions = 0
    for tid in sorted(cert.mapping):
        if tid not in htg.tasks:
            fail("certify.contention.coverage",
                 f"mapped task {tid!r} is not in the HTG", subject=tid)
            continue
        allowed_here = set(cert.allowed.get(tid, ()))
        for other in sharers:
            if other == tid or cert.mapping[other] == cert.mapping[tid]:
                continue
            pairs_checked += 1
            if other in allowed_here:
                continue
            exclusions += 1
            if (tid, other) in ordered or (other, tid) in ordered:
                report.bump("exclusions_ordered")
                continue
            fa, fb = bounds_of(tid), bounds_of(other)
            if fa is not None and fb is not None and disjoint(fa, fb):
                report.bump("exclusions_disjoint")
                continue
            fail(
                "certify.contention.unjustified-exclusion",
                f"the skeleton excludes sharer {other!r} from task {tid!r}'s "
                "contenders, but the pair is neither dependence-ordered nor "
                "provably footprint-disjoint",
                subject=f"{tid}<->{other}",
            )
    report.bump("pairs_checked", pairs_checked)
    report.bump("exclusions_checked", exclusions)
    return report


def order_violation_oracle(dependent, sequence):
    for i, a in enumerate(sequence):
        for b in sequence[i + 1:]:
            if (b, a) in dependent:
                return a, b
    return None


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def build_case(case, cores=4, chunks=3):
    if case.startswith("synthetic-"):
        seed = int(case.split("-")[1])
        model = synthetic_compiled_model(num_kernels=7, vector_size=24, seed=seed)
    else:
        builder, _ = ALL_USECASES[case]
        model = compile_diagram(builder())
    htg = extract_htg(model, ExtractionOptions(granularity="loop", loop_chunks=chunks))
    platform = generic_predictable_multicore(cores=cores)
    WcetAnalysisCache().annotate_htg(htg, model.entry, HardwareCostModel(platform, 0))
    mapping = round_robin(htg, platform.num_cores)
    return model, htg, platform, mapping


def code_level_sharers(htg, function, platform, mapping):
    """The mapped tasks with shared accesses by the code-level count on
    their core (what the system-level analysis passes)."""
    design = SystemDesign(htg, function, platform, WcetAnalysisCache())
    return [
        tid
        for i, tid in enumerate(design.leaf_ids)
        if tid in mapping and design.cost(i, mapping[tid])[1] > 0
    ]


def round_robin(htg, cores):
    return {
        t.task_id: i % cores
        for i, t in enumerate(htg.topological_tasks())
        if not t.is_synthetic
    }


def thinned(htg, drop_every=3):
    """A copy of ``htg`` without every ``drop_every``-th edge (races appear)."""
    edges = [e for i, e in enumerate(htg.edges) if i % drop_every]
    return HierarchicalTaskGraph(htg.name, dict(htg.tasks), edges)


def finding_keys(report):
    return [(f.code, f.subject, f.severity, f.message, f.provenance) for f in report.findings]


def assert_same_report(report, oracle):
    assert finding_keys(report) == finding_keys(oracle)
    assert report.checked == oracle.checked


def random_graph(rng, n, p, acyclic):
    edges = []
    for u in range(n):
        for v in range(n):
            if (u < v or not acyclic) and rng.random() < p:
                edges.append((u, v))
    return edges


# ---------------------------------------------------------------------- #
# reachability
# ---------------------------------------------------------------------- #
class TestReachability:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_dags_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = random_graph(rng, n, float(rng.uniform(0.02, 0.3)), acyclic=True)
        nodes = [f"n{i}" for i in rng.permutation(n)]
        named = [(f"n{u}", f"n{v}") for u, v in edges]
        reach = Reachability(nodes, named)
        closure = transitive_closure(nodes, named)
        assert reach.pairs() == closure
        for u in nodes:
            for v in nodes:
                assert reach.reaches(u, v) == ((u, v) in closure)
                assert reach.ordered(u, v) == ((u, v) in closure or (v, u) in closure)

    @pytest.mark.parametrize("seed", range(12))
    def test_cyclic_graphs_match_networkx(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 25))
        edges = random_graph(rng, n, float(rng.uniform(0.03, 0.2)), acyclic=False)
        edges.append((n - 1, 0))  # at least one back edge
        reach = Reachability(range(n), edges)
        # diagonal included: a node on a cycle reaches itself, as in networkx
        assert reach.pairs() == transitive_closure(range(n), edges)

    def test_self_loop_and_two_cycle(self):
        reach = Reachability(["a", "b", "c"], [("a", "a"), ("b", "c"), ("c", "b")])
        assert reach.reaches("a", "a")
        assert reach.reaches("b", "b") and reach.reaches("c", "b")
        assert not reach.reaches("a", "b")
        assert reach.pairs() == transitive_closure(
            ["a", "b", "c"], [("a", "a"), ("b", "c"), ("c", "b")]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_to_unlisted_nodes(self, seed):
        # edge endpoints missing from ``nodes`` (unmapped or synthetic
        # tasks) join the graph, exactly as networkx adds them
        rng = np.random.default_rng(200 + seed)
        n = 20
        edges = random_graph(rng, n, 0.15, acyclic=True)
        listed = [i for i in range(n) if i % 3]
        reach = Reachability(listed, edges)
        assert reach.pairs() == transitive_closure(listed, edges)
        assert reach.nodes[: len(listed)] == listed

    @pytest.mark.parametrize("case", CASES)
    def test_htg_closure_matches_networkx(self, case):
        _, htg, _, _ = build_case(case)
        assert htg.reachability().pairs() == transitive_closure(
            htg.tasks.keys(), htg.edge_pairs()
        )

    def test_htg_memo_is_invalidated_by_growth(self):
        _, htg, _, _ = build_case("weaa")
        first = htg.reachability()
        assert htg.reachability() is first
        htg.add_task(Task("late", TaskKind.BLOCK, Block()))
        sink = htg.leaf_tasks()[0].task_id
        htg.add_edge(sink, "late")
        assert htg.reachability() is not first
        assert htg.reachability().reaches(sink, "late")

    @pytest.mark.parametrize("seed", range(8))
    def test_order_violation_matches_pairwise_scan(self, seed):
        # the schedule check needs no closure: one acyclicity pass over the
        # dependences plus the core chain refuses a one-core order exactly
        # when a pairwise scan over the closure finds a task placed before
        # one it depends on
        rng = np.random.default_rng(300 + seed)
        n = 15
        edges = [(str(u), str(v)) for u, v in random_graph(rng, n, 0.2, acyclic=True)]
        nodes = [str(i) for i in range(n)]
        dependent = transitive_closure(nodes, edges)
        htg = HierarchicalTaskGraph.from_edges(
            "g",
            [Task(tid, TaskKind.BLOCK, Block()) for tid in nodes],
            {pair: TaskEdge(*pair) for pair in edges},
        )
        verdicts = set()
        for _ in range(20):
            sequence = [str(x) for x in rng.permutation(n)[: int(rng.integers(0, n))]]
            sequence.append("99")  # a task outside the graph orders nothing
            schedule = Schedule("g", {tid: 0 for tid in sequence}, {0: sequence})
            try:
                schedule.check_order(htg)
                refused = False
            except ScheduleError:
                refused = True
            violated = order_violation_oracle(dependent, sequence) is not None
            assert refused == violated
            verdicts.add(refused)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------- #
# static MHP
# ---------------------------------------------------------------------- #
class TestStaticMhpDifferential:
    @pytest.mark.parametrize("case", CASES)
    def test_relation_matches_oracle(self, case):
        model, htg, platform, mapping = build_case(case)
        sharers = code_level_sharers(htg, model.entry, platform, mapping)
        relation = compute_static_mhp(htg, model.entry, mapping, sharers)
        allowed, counts = static_mhp_oracle(htg, model.entry, mapping, sharers)
        assert relation.allowed == allowed
        assert relation.as_dict() == counts

    @pytest.mark.parametrize("case", USECASES)
    def test_system_level_skeleton_matches_oracle(self, case):
        model, htg, platform, mapping = build_case(case)
        result = system_level_wcet(
            SystemDesign(htg, model.entry, platform, static_pruning=True),
            mapping,
            default_core_order(htg, mapping),
        )
        sharers = [t for t, n in result.task_shared_accesses.items() if n > 0]
        allowed, _ = static_mhp_oracle(htg, model.entry, mapping, sharers=sharers)
        assert result.mhp_allowed == allowed

    @pytest.mark.parametrize("case", ["weaa", "synthetic-2"])
    def test_partial_mapping_uses_mapped_only_closure(self, case):
        model, htg, platform, mapping = build_case(case)
        dropped = {tid for i, tid in enumerate(mapping) if i % 5 == 2}
        partial = {tid: core for tid, core in mapping.items() if tid not in dropped}
        sharers = code_level_sharers(htg, model.entry, platform, partial)
        relation = compute_static_mhp(htg, model.entry, partial, sharers)
        allowed, counts = static_mhp_oracle(htg, model.entry, partial, sharers)
        assert relation.allowed == allowed
        assert relation.as_dict() == counts

    @pytest.mark.parametrize("case", CASES)
    def test_overlap_sweep_equals_pairwise_disjointness(self, case):
        model, htg, _, _ = build_case(case)
        fps = {t.task_id: task_footprint(model.entry, t) for t in htg.leaf_tasks()}
        overlaps = address_overlaps(fps)
        for a in fps:
            for b in fps:
                if a != b:
                    assert (b in overlaps[a]) == (
                        not footprints_address_disjoint(fps[a], fps[b])
                    ), (a, b)

    def test_mapped_only_fallback_is_used_for_unmapped_endpoints(self):
        # t1 -> mid -> t2 with mid unmapped: the timeline drops both edges,
        # so (t1, t2) stays a contender even though the HTG closure -- memoized
        # beforehand -- orders it; the direct mapped edge t1 -> t3 still prunes
        func, htg = contending_tasks(("t1", "t2", "t3"))
        htg.add_task(Task("mid", TaskKind.BLOCK, Block()))
        htg.add_edge("t1", "mid")
        htg.add_edge("mid", "t2")
        htg.add_edge("t1", "t3")
        assert htg.reachability().reaches("t1", "t2")
        mapping = {"t1": 0, "t2": 1, "t3": 1}
        sharers = ["t1", "t2", "t3"]
        relation = compute_static_mhp(htg, func, mapping, sharers)
        assert relation.allowed == {"t1": ("t2",), "t2": ("t1",), "t3": ()}
        assert relation.pruned_ordered == 2
        allowed, counts = static_mhp_oracle(htg, func, mapping, sharers)
        assert relation.allowed == allowed
        assert relation.as_dict() == counts


# ---------------------------------------------------------------------- #
# race check
# ---------------------------------------------------------------------- #
def race_scenarios(case):
    """(htg, mapping, order): honest, with dropped edges, and contradicted."""
    model, htg, _, mapping = build_case(case)
    order = default_core_order(htg, mapping)
    # core 0 runs backwards: happens-before gets cycles through its edges
    contradicted = {core: tids[::-1] if core == 0 else tids for core, tids in order.items()}
    return model, [
        (htg, mapping, order),
        (thinned(htg), mapping, order),
        (htg, mapping, contradicted),
        (thinned(htg, 2), mapping, contradicted),
    ]


class TestRaceDifferential:
    @pytest.mark.parametrize("case", CASES)
    def test_cold_check_matches_oracle(self, case):
        model, scenarios = race_scenarios(case)
        for htg, mapping, order in scenarios:
            report, _ = incremental_race_check(htg, mapping, order, model.entry)
            assert_same_report(report, race_oracle(htg, mapping, order, model.entry))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_edit_rounds_match_oracle(self, seed):
        # every edit round is checked cold, on one cache whose footprint
        # memo the edit hands blocks over through
        options = ExtractionOptions(granularity="loop", loop_chunks=3)
        diagram = random_pipeline_diagram(stages=4, width=3, vector_size=16, seed=seed)
        cache = WcetAnalysisCache()
        for round_ in range(4):
            if round_:
                random_edit_script(diagram, num_edits=1, seed=seed * 10 + round_)
            model = compile_diagram(diagram, lowerings=cache.lowerings)
            full = extract_htg(model, options, RegionFacts(cache.region_facts))
            htg = thinned(full)
            mapping = round_robin(full, 3)
            order = default_core_order(full, mapping)
            report, _ = incremental_race_check(
                htg, mapping, order, model.entry, store=cache.footprints
            )
            assert_same_report(report, race_oracle(htg, mapping, order, model.entry))

    def test_contradicting_core_order_matches_networkx_closure(self):
        # t1 -> t2 is an HTG edge, but core 0 runs t2 before t1: the
        # happens-before graph has the cycle t1 -> t2 -> t1.  t3 (core 1)
        # reaches t2 by an edge, hence t1 through the cycle, so only the
        # cyclic closure orders the conflicting pair (t3, t1).
        func, htg = contending_tasks(("t1", "t2", "t3", "t4"))
        htg.add_edge("t1", "t2")
        htg.add_edge("t3", "t2")
        mapping = {"t1": 0, "t2": 0, "t3": 1, "t4": 2}
        order = {0: ["t2", "t1"], 1: ["t3"], 2: ["t4"]}
        report, _ = incremental_race_check(htg, mapping, order, func)
        assert_same_report(report, race_oracle(htg, mapping, order, func))
        subjects = {f.subject for f in report.findings}
        assert "t1<->t3" not in subjects
        assert {"t1<->t4", "t2<->t4", "t3<->t4"} <= subjects


# ---------------------------------------------------------------------- #
# contention checker
# ---------------------------------------------------------------------- #
def contention_variants(case):
    """Honest and tampered certificates with the graph each is checked on."""
    model, htg, platform, mapping = build_case(case)
    result = system_level_wcet(
        SystemDesign(htg, model.entry, platform, static_pruning=True),
        mapping,
        default_core_order(htg, mapping),
    )
    honest = build_contention_certificate(result, htg, model.entry)
    emptied = replace(honest, allowed={t: [] for t in honest.allowed})
    halved = replace(honest, allowed={t: o[::2] for t, o in honest.allowed.items()})
    ghost = replace(
        honest,
        mapping={**honest.mapping, "ghost": 0},
        shared={**honest.shared, "ghost": 4},
    )
    return model, [
        (honest, htg),
        (emptied, htg),
        (halved, htg),
        (emptied, thinned(htg)),
        (emptied, HierarchicalTaskGraph(htg.name, dict(htg.tasks), [])),
        (ghost, htg),
    ]


class TestContentionDifferential:
    @pytest.mark.parametrize("case", CASES)
    def test_checker_matches_oracle(self, case):
        model, variants = contention_variants(case)
        for cert, graph in variants:
            report = check_contention_certificate(cert, graph, model.entry)
            oracle = contention_oracle(cert, graph, model.entry)
            assert_same_report(report, oracle)
        honest, htg = variants[0]
        assert check_contention_certificate(honest, htg, model.entry).ok

    def test_touching_endpoint_exclusion_is_refuted(self):
        # windows [0, 3] and [3, 7] share only index 3: closed intervals touch
        func, htg = contending_tasks(("t1", "t2"), spans={"t1": (0, 4), "t2": (3, 8)})
        relation = compute_static_mhp(htg, func, {"t1": 0, "t2": 1}, ["t1", "t2"])
        assert relation.kept_pairs == 2
        cert = fabricated_exclusion(func, htg)
        report = check_contention_certificate(cert, htg, func)
        assert [f.subject for f in report.findings] == ["t1<->t2", "t2<->t1"]
        assert_same_report(report, contention_oracle(cert, htg, func))
        # one index apart the same exclusion is justified
        func, htg = contending_tasks(("t1", "t2"), spans={"t1": (0, 3), "t2": (3, 8)})
        cert = fabricated_exclusion(func, htg)
        report = check_contention_certificate(cert, htg, func)
        assert report.ok and report.checked["exclusions_disjoint"] == 2

    def test_whole_array_window_exclusion_is_refuted(self):
        # t2 declares a write to buf its statements never show: the
        # checker must take the whole array (TOP) as its window
        func, htg = contending_tasks(("t1", "t2"), spans={"t1": (0, 2), "t2": None})
        cert = fabricated_exclusion(func, htg)
        report = check_contention_certificate(cert, htg, func)
        assert [f.code for f in report.findings] == [
            "certify.contention.unjustified-exclusion"
        ] * 2
        assert_same_report(report, contention_oracle(cert, htg, func))

    def test_empty_window_counts_as_whole_array(self):
        # t1 writes buf[5] (i % 0.25 is 0), but the integer interval rule
        # for a modulus below one (an ill-typed integer constant 0.25) gives
        # the empty bounds [5, 3]; t2 writes buf[4..5], so excluding
        # t1<->t2 must be refuted like t1<->t3
        func, htg = contending_tasks(("t1", "t2", "t3"), spans={"t2": (4, 6)})
        i = Var("i", INT)
        mod = BinOp("%", i, Const(0.25, INT))
        index = BinOp("+", BinOp("+", mod, mod), Const(5))
        htg.tasks["t1"].statements = Block(
            [For(index=i, lower=Const(0), upper=Const(4),
                 body=Block([Assign(ArrayRef("buf", (index,)), Const(1.0))]))]
        )
        windows = _task_access_bounds(func, htg.task("t1"), {"buf"})
        assert windows == {"buf": [(-float("inf"), float("inf"))]}
        cert = ContentionCertificate(
            htg_name=htg.name,
            function_name=func.name,
            mapping={"t1": 0, "t2": 1, "t3": 2},
            shared={"t1": 4, "t2": 4, "t3": 4},
            allowed={"t1": [], "t2": [], "t3": []},
        )
        report = check_contention_certificate(cert, htg, func)
        assert_same_report(report, contention_oracle(cert, htg, func))
        assert {f.subject for f in report.findings} == {
            "t1<->t2", "t2<->t1", "t1<->t3", "t3<->t1", "t2<->t3", "t3<->t2",
        }


def test_non_integer_modulus_window_covers_every_index():
    # ((i + 0.5) % 3) * 2 for i in [0, 3] writes buf[5] at i = 2; the
    # integer rule's [0, 2] remainder would end the window at buf[4]
    func, htg = contending_tasks(("t1",))
    i = Var("i", INT)
    index = BinOp("*", BinOp("%", BinOp("+", i, Const(0.5)), Const(3)), Const(2))
    htg.tasks["t1"].statements = Block(
        [For(index=i, lower=Const(0), upper=Const(4),
             body=Block([Assign(ArrayRef("buf", (index,)), Const(1.0))]))]
    )
    [(lo, hi)] = _task_access_bounds(func, htg.task("t1"), {"buf"})["buf"]
    written = {int(((k + 0.5) % 3) * 2) for k in range(4)}
    assert 5 in written
    assert all(lo <= w <= hi for w in written)


def contending_tasks(tids, spans=None):
    """Tasks writing ``buf[lo:hi]`` (default the whole of it), no edges.

    A span of ``None`` declares the write without statements that show it.
    """
    spans = spans or {}
    fb = FunctionBuilder("f")
    buf = fb.shared_array("buf", (8,))
    fb.assign(fb.at(buf, 0), 1.0)
    func = fb.build()
    htg = HierarchicalTaskGraph("h")
    i = Var("i", INT)
    for tid in tids:
        span = spans.get(tid, (0, 8))
        body = Block()
        if span is not None:
            lo, hi = span
            body = Block([For(index=i, lower=Const(lo), upper=Const(hi),
                              body=Block([Assign(ArrayRef("buf", (i,)), Const(1.0))]))])
        task = htg.add_task(Task(tid, TaskKind.BLOCK, body, writes={"buf"}))
        task.wcet = 100.0
    return func, htg


def fabricated_exclusion(func, htg):
    """A certificate claiming the two cross-core tasks never contend."""
    return ContentionCertificate(
        htg_name=htg.name,
        function_name=func.name,
        mapping={"t1": 0, "t2": 1},
        shared={"t1": 4, "t2": 4},
        allowed={"t1": [], "t2": []},
    )
