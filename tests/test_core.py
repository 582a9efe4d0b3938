import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degmatch
from degmatch import (
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    Matching,
    SpanningFactor,
    SwitchMove,
    build_graph,
    canonical_h_factor,
    canonical_matching,
    degree_sequences,
    doublestar_check,
    eg_check,
    graph_from_text,
    graph_to_text,
    perfect_matchings,
    phi,
    star_check,
)
from oracles import assert_validated_matching


class TestDegreeSequence:
    def test_valid(self):
        s = DegreeSequence((3, 2, 2, 1))
        assert s.n == 4
        assert s.total() == 8
        assert s.decremented() == (2, 1, 1, 0)

    @pytest.mark.parametrize(
        "entries",
        [(), (1, 2), (4, 3, 2, 1), (0, 0), (2, 2, 2, 0)],
    )
    def test_invalid(self, entries):
        with pytest.raises(InvalidInput):
            DegreeSequence(entries)


class TestBuildGraph:
    def test_matching_graph(self):
        g = build_graph(4, [(1, 2), (3, 4)])
        assert g.degree_vector() == (1, 1, 1, 1)

    def test_loop_rejected(self):
        with pytest.raises(InvalidInput):
            build_graph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidInput):
            build_graph(4, [(1, 2), (1, 2)])

    def test_reversed_duplicate_rejected(self):
        with pytest.raises(InvalidInput):
            build_graph(4, [(1, 2), (2, 1)])

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            build_graph(3, [(1, 4)])


# One row per single fault and constructor; each message names the fault.
# build_graph and graph_from_text report a pair in i < j order, after
# normalization, and a vertex count below 1 before any edge.
_VALIDATION_MESSAGES = [
    ("build_graph-loop", lambda: build_graph(3, [(2, 2)]), "loop at vertex 2"),
    ("build_graph-label-0", lambda: build_graph(3, [(0, 2)]), "edge (0,2) out of range for n=3"),
    ("build_graph-label-n+1", lambda: build_graph(3, [(1, 4)]), "edge (1,4) out of range for n=3"),
    ("build_graph-reversed", lambda: build_graph(3, [(4, 1)]), "edge (1,4) out of range for n=3"),
    ("build_graph-duplicate", lambda: build_graph(3, [(1, 2), (2, 1)]), "duplicate edge (1, 2)"),
    ("build_graph-n-below-1", lambda: build_graph(0, [(1, 2)]), "graph needs at least one vertex"),
    ("graph_from_text-loop", lambda: graph_from_text("3\n2 2\n"), "loop at vertex 2"),
    (
        "graph_from_text-label-0",
        lambda: graph_from_text("3\n0 2\n"),
        "edge (0,2) out of range for n=3",
    ),
    (
        "graph_from_text-label-n+1",
        lambda: graph_from_text("3\n1 4\n"),
        "edge (1,4) out of range for n=3",
    ),
    (
        "graph_from_text-reversed",
        lambda: graph_from_text("3\n4 1\n"),
        "edge (1,4) out of range for n=3",
    ),
    (
        "graph_from_text-duplicate",
        lambda: graph_from_text("3\n1 2\n2 1\n"),
        "duplicate edge (1, 2)",
    ),
    (
        "graph_from_text-n-below-1",
        lambda: graph_from_text("0\n1 2\n"),
        "graph needs at least one vertex",
    ),
    ("Matching-loop", lambda: Matching(4, {(2, 2)}), "loop at vertex 2"),
    ("Matching-label-0", lambda: Matching(4, {(0, 2)}), "edge (0,2) out of range for n=4"),
    ("Matching-label-n+1", lambda: Matching(4, {(1, 5)}), "edge (1,5) out of range for n=4"),
    ("Matching-reversed", lambda: Matching(4, {(5, 1)}), "edge (1,5) out of range for n=4"),
    (
        "Matching-overlap",
        lambda: Matching(4, {(1, 2), (2, 3)}),
        "edge (1,2) overlaps another matching edge",
    ),
    ("Matching-n-below-1", lambda: Matching(0, set()), "matching needs at least one vertex"),
    ("SpanningFactor-loop", lambda: SpanningFactor(3, 2, {(2, 2)}), "loop at vertex 2"),
    (
        "SpanningFactor-label-0",
        lambda: SpanningFactor(3, 1, {(0, 2)}),
        "edge (0,2) out of range for n=3",
    ),
    (
        "SpanningFactor-label-n+1",
        lambda: SpanningFactor(3, 1, {(1, 4)}),
        "edge (1,4) out of range for n=3",
    ),
    (
        "SpanningFactor-reversed",
        lambda: SpanningFactor(3, 1, {(4, 1)}),
        "edge (1,4) out of range for n=3",
    ),
    ("SpanningFactor-n-0", lambda: SpanningFactor(0, 1, set()), "factor needs at least one vertex"),
    (
        "SpanningFactor-n-below-1",
        lambda: SpanningFactor(-3, 2, set()),
        "factor needs at least one vertex",
    ),
    (
        "SpanningFactor-degree",
        lambda: SpanningFactor(4, 1, {(1, 2)}),
        "not 1-regular: vertices [3, 4] have wrong degree",
    ),
]


@pytest.mark.parametrize(
    "build, message",
    [row[1:] for row in _VALIDATION_MESSAGES],
    ids=[row[0] for row in _VALIDATION_MESSAGES],
)
def test_validation_messages(build, message):
    with pytest.raises(InvalidInput) as exc:
        build()
    assert str(exc.value) == message


class TestLabeledGraph:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(2, 2)], "loop at vertex 2"),
            ([(1, 5)], "edge (1,5) out of range for n=4"),
            ([(0, 3)], "edge (0,3) out of range for n=4"),
            ([(3, 1)], "edge (3,1) out of range for n=4"),
        ],
    )
    def test_rejection_messages(self, edges, message):
        for given_edges in (frozenset(edges), edges):
            with pytest.raises(InvalidInput) as exc:
                LabeledGraph(4, given_edges)
            assert str(exc.value) == message

    def test_edges_become_int_pairs_in_a_frozenset(self):
        np = pytest.importorskip("numpy")
        pairs = [(1, 2), (2, 3), (1, 4)]
        for given_edges in (
            frozenset((np.int64(a), np.int64(b)) for a, b in pairs),
            [(np.int64(a), b) for a, b in pairs],
            iter(pairs),
            {(a, b) for a, b in pairs},
            [[a, b] for a, b in pairs],
        ):
            g = LabeledGraph(4, given_edges)
            assert type(g.edges) is frozenset and g.edges == frozenset(pairs)
            assert {type(x) for e in g.edges for x in e} == {int}
            assert {type(e) for e in g.edges} == {tuple}

    def test_int_frozenset_is_kept(self):
        edges = frozenset({(1, 2), (3, 4)})
        assert LabeledGraph(4, edges).edges is edges

    def test_degree_vector_counts_neighbors(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 30)
            p = rng.random()
            edges = frozenset(
                (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p
            )
            g = LabeledGraph(n, edges)
            assert g.degree_vector() == tuple(len(g.neighbors(v)) for v in range(1, n + 1))


class TestCanonicalMatchings:
    def test_plus_minus_on_four(self):
        assert canonical_matching(4, "plus").sorted_edges() == [(1, 2), (3, 4)]
        assert canonical_matching(4, "minus").sorted_edges() == [(1, 4), (2, 3)]

    def test_two_vertices_coincide(self):
        assert canonical_matching(2, "plus") == canonical_matching(2, "minus")

    def test_odd_rejected(self):
        with pytest.raises(InvalidInput):
            canonical_matching(5, "plus")

    def test_matching_overlap_rejected(self):
        with pytest.raises(InvalidInput):
            Matching(4, {(1, 2), (2, 3)})


class TestCanonicalFactor:
    def test_two_triangles(self):
        f = canonical_h_factor(6, 2)
        assert f.edge_list() == [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]

    def test_h1_is_plus_matching(self):
        for n in (2, 4, 8, 12):
            assert canonical_h_factor(n, 1).edges == canonical_matching(n, "plus").edges

    def test_single_block_is_complete(self):
        assert len(canonical_h_factor(4, 3).edges) == 6

    def test_divisibility(self):
        with pytest.raises(InvalidInput):
            canonical_h_factor(8, 2)

    def test_regularity_enforced(self):
        with pytest.raises(InvalidInput):
            SpanningFactor(4, 2, {(1, 2), (3, 4)})


class TestPhi:
    def test_plus_on_four(self):
        assert phi(canonical_matching(4, "plus")) == 136

    def test_minus_on_four_collides(self):
        # both edges have endpoint sum 5; the value must be a sum, not an or
        assert phi(canonical_matching(4, "minus")) == 64

    def test_crossing(self):
        assert phi(Matching(4, {(1, 3), (2, 4)})) == 80

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_extremal_over_all_matchings(self, n):
        lo = phi(canonical_matching(n, "minus"))
        hi = phi(canonical_matching(n, "plus"))
        for m in perfect_matchings(n):
            assert lo <= phi(m) <= hi


class TestSwitchMoveTables:
    def test_type_tables(self):
        mv = SwitchMove(1, 2, 3, 4, 1)
        assert set(mv.removed()) == {(1, 2), (3, 4)}
        assert set(mv.added()) == {(1, 3), (2, 4)}
        mv = SwitchMove(1, 2, 3, 4, 2)
        assert set(mv.removed()) == {(1, 3), (2, 4)}
        assert set(mv.added()) == {(1, 4), (2, 3)}
        mv = SwitchMove(1, 2, 3, 4, 3)
        assert set(mv.removed()) == {(1, 2), (3, 4)}
        assert set(mv.added()) == {(1, 4), (2, 3)}

    def test_bad_moves(self):
        with pytest.raises(InvalidInput):
            SwitchMove(2, 1, 3, 4, 1)
        with pytest.raises(InvalidInput):
            SwitchMove(1, 2, 3, 4, 4)

    def test_apply(self):
        m = canonical_matching(4, "plus")
        out = m.apply_move(SwitchMove(1, 2, 3, 4, 3))
        assert out == canonical_matching(4, "minus")
        assert_validated_matching(out)
        with pytest.raises(InvalidInput):
            out.apply_move(SwitchMove(1, 2, 3, 4, 3))

    def test_apply_rejection_messages(self):
        m = Matching(6, {(1, 4), (2, 3), (5, 6)})
        with pytest.raises(
            InvalidInput, match=r"^move switch1\(1,2,3,5\) removes edges not in the matching$"
        ):
            m.apply_move(SwitchMove(1, 2, 3, 5, 1))
        # A move whose added edges are present cannot have its removed edges
        # present too (both pairings cover the same four labels), so the
        # removal check answers first.
        with pytest.raises(
            InvalidInput, match=r"^move switch3\(1,2,3,4\) removes edges not in the matching$"
        ):
            m.apply_move(SwitchMove(1, 2, 3, 4, 3))

    def test_numpy_labels_become_ints(self):
        np = pytest.importorskip("numpy")
        move = SwitchMove(*np.array([1, 3, 6, 8], dtype=np.int64), np.int64(1))
        assert all(
            type(getattr(move, name)) is int for name in ("w", "x", "y", "z", "kind")
        )
        out = Matching(8, {(1, 3), (2, 4), (5, 7), (6, 8)}).apply_move(move)
        assert out == Matching(8, {(1, 6), (3, 8), (2, 4), (5, 7)})
        assert_validated_matching(out)


class TestEnumerators:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
    def test_matching_counts(self, n, count):
        seen = list(perfect_matchings(n))
        assert len(seen) == count
        assert len(set(seen)) == count
        for m in seen:
            assert_validated_matching(m)

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 15), (5, 56)])
    def test_sequence_counts(self, n, count):
        # weakly decreasing vectors over {1..n-1}: C(2n-2, n)
        assert len(list(degree_sequences(n))) == count


class TestSerialization:
    def test_round_trip_examples(self):
        g = build_graph(4, [(3, 4), (1, 2)])
        text = graph_to_text(g)
        assert text == "4\n1 2\n3 4\n"
        assert graph_from_text(text) == g

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 12)
            pool = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            edges = rng.sample(pool, rng.randint(0, len(pool)))
            g = LabeledGraph(n, frozenset(edges))
            assert graph_from_text(graph_to_text(g)) == g

    def test_bad_text(self):
        with pytest.raises(InvalidInput):
            graph_from_text("")
        with pytest.raises(InvalidInput):
            graph_from_text("3\n1 2 3\n")
        with pytest.raises(InvalidInput):
            graph_from_text("3\n1 1\n")
        with pytest.raises(InvalidInput):
            graph_from_text("3\n1 x\n")


@st.composite
def _head_and_tail(draw, lo: int, hi: int) -> DegreeSequence:
    """`head` copies of `top`, then n - head entries drawn from [1, low].

    Covers regular, uniform and split shapes, which pass, fail at an early
    row, fail late, or fail on parity alone.
    """
    n = draw(st.integers(lo, hi))
    top = draw(st.integers(1, n - 1))
    low = draw(st.integers(1, top))
    head = draw(st.integers(0, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tail = sorted((rng.randint(1, low) for _ in range(n - head)), reverse=True)
    return DegreeSequence((top,) * head + tuple(tail))


def _report(seq: DegreeSequence, h: int):
    if h == 0:
        return eg_check(seq)
    if h == 1:
        return star_check(seq)
    return doublestar_check(seq, h)


class TestCheckReport:
    @settings(max_examples=60, deadline=None)
    @given(seq=_head_and_tail(20, 2000), h=st.integers(0, 3))
    def test_verdict_first_equals_rows(self, seq, h):
        rows_first, verdict_first = _report(seq, h), _report(seq, h)
        rows = rows_first.rows
        verdict, first_fail_k = verdict_first.verdict, verdict_first.first_fail_k
        assert verdict_first.rows == rows
        assert (rows_first.verdict, rows_first.first_fail_k) == (verdict, first_fail_k)
        for report in (rows_first, verdict_first):
            fails = report.failing_ks
            assert report.verdict == (
                report.parity_ok and report.structural_ok and all(r.slack >= 0 for r in rows)
            )
            assert report.first_fail_k == (fails[0] if fails else None)
        assert rows_first.as_dict() == verdict_first.as_dict()

    def test_verdict_builds_no_rows(self):
        report = star_check(DegreeSequence((99,) + (1,) * 99))
        assert not report.verdict and report.first_fail_k == 1
        assert "rows" not in report.__dict__
        assert report.row(1).slack < 0  # reading a row builds them
        assert "rows" in report.__dict__

    def test_odd_sum_scans_no_rows(self):
        report = eg_check(DegreeSequence((2, 2, 2, 2, 2, 1)))
        assert not report.verdict
        assert "first_fail_k" not in report.__dict__ and "rows" not in report.__dict__


def test_import_pulls_in_no_numpy():
    src = os.path.dirname(os.path.dirname(degmatch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import degmatch, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
