"""Tests for repro.utils (rng, tables, intervals, graph helpers)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.frontend import compile_diagram
from repro.htg.extraction import ExtractionOptions, extract_htg
from repro.usecases import ALL_USECASES
from repro.utils import (
    Interval,
    Table,
    intervals_overlap,
    is_acyclic,
    make_rng,
    topological_order,
)
from repro.utils.intervals import total_busy_time
from repro.utils.rng import derive_rng

from graph_reference import lexicographic_topological_order, transitive_closure


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = make_rng().integers(0, 1000, size=10)
        b = make_rng().integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_explicit_seed_changes_stream(self):
        a = make_rng(1).integers(0, 1000, size=10)
        b = make_rng(2).integers(0, 1000, size=10)
        assert not np.array_equal(a, b)

    def test_derive_rng_is_deterministic(self):
        a = derive_rng(make_rng(7), salt=3).integers(0, 1000, size=5)
        b = derive_rng(make_rng(7), salt=3).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_derive_rng_differs_by_salt(self):
        parent = make_rng(7)
        a = derive_rng(parent, salt=1).integers(0, 1000, size=5)
        parent = make_rng(7)
        b = derive_rng(parent, salt=2).integers(0, 1000, size=5)
        assert not np.array_equal(a, b)


class TestTable:
    def test_render_contains_headers_and_rows(self):
        table = Table(["app", "cores", "wcet"], title="E2")
        table.add_row(["egpws", 4, 123.456])
        text = table.render()
        assert "E2" in text
        assert "app" in text and "cores" in text
        assert "egpws" in text
        assert "123.456" in text

    def test_row_arity_mismatch_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_alignment_is_stable(self):
        table = Table(["name", "x"])
        table.add_row(["longer-name", 1])
        table.add_row(["s", 22])
        lines = table.render().splitlines()
        # all data/header lines have the separator at the same position
        positions = {line.index("|") for line in lines if "|" in line}
        assert len(positions) == 1


class TestInterval:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 1.0)

    def test_overlap_basic(self):
        assert intervals_overlap(Interval(0, 10), Interval(5, 15))
        assert not intervals_overlap(Interval(0, 10), Interval(10, 20))

    def test_intersection(self):
        inter = Interval(0, 10).intersection(Interval(5, 15))
        assert inter == Interval(5, 10)
        assert Interval(0, 5).intersection(Interval(5, 10)) is None

    def test_shift_and_contains(self):
        iv = Interval(1, 3).shifted(2)
        assert iv == Interval(3, 5)
        assert iv.contains(3) and not iv.contains(5)

    def test_total_busy_time_merges_overlaps(self):
        busy = total_busy_time([Interval(0, 5), Interval(3, 8), Interval(10, 12)])
        assert busy == pytest.approx(10.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.floats(0, 100)).map(
                lambda t: Interval(min(t), max(t))
            ),
            max_size=20,
        )
    )
    def test_busy_time_bounded_by_sum_and_span(self, intervals):
        busy = total_busy_time(intervals)
        assert busy <= sum(iv.length for iv in intervals) + 1e-9
        if intervals:
            span = max(iv.end for iv in intervals) - min(iv.start for iv in intervals)
            assert busy <= span + 1e-9


class TestGraphs:
    def test_topological_order_respects_edges(self):
        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("b", "c"), ("a", "d")]
        order = topological_order(nodes, edges)
        assert order.index("a") < order.index("b") < order.index("c")
        assert order.index("a") < order.index("d")

    def test_topological_order_rejects_cycles(self):
        with pytest.raises(ValueError):
            topological_order(["a", "b"], [("a", "b"), ("b", "a")])

    def test_is_acyclic(self):
        assert is_acyclic([("a", "b"), ("b", "c")])
        assert not is_acyclic([("a", "b"), ("b", "a")])

    def test_transitive_closure(self):
        closure = transitive_closure(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert ("a", "c") in closure
        assert ("c", "a") not in closure


class TestTopologicalOrderMatchesNetworkx:
    """The heap-based Kahn pass against ``networkx``'s lexicographic sort."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dags(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        # odd seeds mix ints and strings whose str() collide ("3" and 3), so
        # first-seen order must break the tie as in networkx
        pool = [f"t{i}" for i in range(n)] if seed % 2 == 0 else [
            str(i) if i % 3 else i for i in range(n)
        ]
        names = [pool[int(i)] for i in rng.permutation(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.08
        ]
        edges += edges[: len(edges) // 3]  # a pair listed twice is one edge
        listed = names[: n // 2]  # the rest join through their edges
        assert topological_order(listed, edges) == lexicographic_topological_order(
            listed, edges
        )

    def test_tied_strings_keep_first_seen_order(self):
        nodes = ["10", 10, "2", 1, "1"]
        assert topological_order(nodes, []) == lexicographic_topological_order(nodes, [])
        assert topological_order(nodes, []) == [1, "1", "10", 10, "2"]

    @pytest.mark.parametrize("usecase", sorted(ALL_USECASES))
    def test_shipped_diagrams_and_htgs(self, usecase):
        diagram = ALL_USECASES[usecase][0]()
        edges = diagram.dataflow_edges()
        assert topological_order(diagram.blocks, edges) == (
            lexicographic_topological_order(diagram.blocks, edges)
        )
        model = compile_diagram(diagram)
        for granularity, chunks in (("block", 1), ("loop", 2), ("loop", 3), ("loop", 4)):
            htg = extract_htg(
                model, ExtractionOptions(granularity=granularity, loop_chunks=chunks)
            )
            pairs = htg.edge_pairs()
            assert topological_order(htg.tasks, pairs) == (
                lexicographic_topological_order(htg.tasks, pairs)
            ), (usecase, granularity, chunks)

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(ValueError):
            topological_order(["a"], [("a", "a")])
        assert not is_acyclic([("a", "a")])

