import itertools
import random

import pytest

from degmatch import (
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    Matching,
    NotGraphicError,
    build_graph,
    complete_graph,
    degree_sequences,
    eg_check,
    f_factor,
    hh_realize,
    lovasz_pm_check,
    max_matching,
)
from degmatch.switches import realize_matching_oracle
from degmatch.core import canonical_matching, perfect_matchings

from oracles import (
    f_factor_exists_brute,
    graphic_by_search,
    has_perfect_matching_brute,
    max_matching_size_brute,
    realization_with_edges_exists,
)


class TestEgCheck:
    def test_k4_minus_edge_is_graphic(self):
        seq = DegreeSequence((3, 3, 2, 2))
        assert graphic_by_search(seq.entries)  # the independent route
        assert eg_check(seq).verdict

    def test_331_not_graphic(self):
        seq = DegreeSequence((3, 3, 3, 1))
        assert not graphic_by_search(seq.entries)
        report = eg_check(seq)
        assert not report.verdict
        assert report.first_fail_k == 2
        assert (report.row(2).lhs, report.row(2).rhs) == (6, 5)

    def test_odd_sum(self):
        report = eg_check(DegreeSequence((2, 2, 2, 2, 2, 1)))
        assert not report.verdict
        assert not report.parity_ok
        assert report.first_fail_k is None  # parity failure, not an inequality one

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_exhaustive_search(self, n):
        for seq in degree_sequences(n):
            expect = graphic_by_search(seq.entries)
            assert eg_check(seq).verdict == expect
            if expect:
                g = hh_realize(seq)
                assert g.degree_vector() == seq.entries
            else:
                with pytest.raises(NotGraphicError):
                    hh_realize(seq)


class TestHhRealize:
    def test_triangle(self):
        assert hh_realize(DegreeSequence((2, 2, 2))).edge_list() == [(1, 2), (1, 3), (2, 3)]

    def test_k4(self):
        assert len(hh_realize(DegreeSequence((3, 3, 3, 3))).edges) == 6

    def test_deterministic_tie_break(self):
        g = hh_realize(DegreeSequence((3, 3, 2, 2)))
        assert g.edge_list() == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        assert g == hh_realize(DegreeSequence((3, 3, 2, 2)))


class TestLovasz:
    @pytest.mark.parametrize(
        "entries,expect",
        [((3, 3, 2, 2), True), ((3, 2, 2, 1), True), ((2, 1, 1, 1, 1), False)],
    )
    def test_examples(self, entries, expect):
        assert lovasz_pm_check(DegreeSequence(entries)) is expect

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_exhaustive_against_realization_search(self, n):
        for seq in degree_sequences(n):
            expect = any(
                realization_with_edges_exists(seq.entries, m.edges)
                for m in perfect_matchings(n)
            )
            assert lovasz_pm_check(seq) == expect

    def test_n8_against_oracle_route(self):
        minus = canonical_matching(8, "minus")
        for seq in degree_sequences(8):
            assert lovasz_pm_check(seq) == (
                realize_matching_oracle(seq, minus) is not None
            )


def _petersen() -> LabeledGraph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (6, 9)]
    return build_graph(10, outer + spokes + inner)


class TestMaxMatching:
    def test_even_cycle(self):
        c6 = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        assert len(max_matching(c6).edges) == 3

    def test_triangle(self):
        tri = build_graph(3, [(1, 2), (1, 3), (2, 3)])
        assert len(max_matching(tri).edges) == 1

    def test_petersen(self):
        g = _petersen()
        assert has_perfect_matching_brute(g)
        assert len(max_matching(g).edges) == 5

    def test_structured_blossoms(self):
        # two triangles joined by a path: odd components force contraction
        g = build_graph(7, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)])
        assert len(max_matching(g).edges) == max_matching_size_brute(g)

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(2, 9)
            pool = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            edges = rng.sample(pool, rng.randint(0, len(pool)))
            g = LabeledGraph(n, frozenset(edges))
            got = max_matching(g)
            assert len({v for e in got.edges for v in e}) == 2 * len(got.edges)
            assert got.edges <= g.edges
            assert len(got.edges) == max_matching_size_brute(g)


def _is_matching_of(m, g: LabeledGraph) -> bool:
    return m.edges <= g.edges and len({v for e in m.edges for v in e}) == 2 * len(m.edges)


def _triangle_chain(k: int) -> LabeledGraph:
    """k triangles, each joined to the next by one edge."""
    edges = []
    for t in range(k):
        a, b, c = 3 * t + 1, 3 * t + 2, 3 * t + 3
        edges += [(a, b), (a, c), (b, c)]
        if t:
            edges.append((3 * t, a))
    return build_graph(3 * k, edges)


def _odd_cycles_on_a_path(lengths: list[int], path: int) -> LabeledGraph:
    """Odd cycles, consecutive ones joined by a path of `path` edges."""
    edges, nxt, prev = [], 1, None
    for length in lengths:
        cycle = list(range(nxt, nxt + length))
        nxt += length
        edges += [(cycle[i], cycle[(i + 1) % length]) for i in range(length)]
        if prev is not None:
            inner = list(range(nxt, nxt + path - 1))
            nxt += path - 1
            walk = [prev] + inner + [cycle[0]]
            edges += list(zip(walk, walk[1:]))
        prev = cycle[-1]
    return build_graph(nxt - 1, edges)


def _petersen_copies(k: int) -> LabeledGraph:
    """k Petersen graphs, copy t joined to copy t+1 by one edge."""
    base = _petersen().edge_list()
    edges = [(u + 10 * t, v + 10 * t) for t in range(k) for u, v in base]
    edges += [(10 * t + 1, 10 * t + 16) for t in range(k - 1)]
    return build_graph(10 * k, edges)


class TestMaxMatchingAgainstNetworkx:
    """Blossom matching size against networkx's independent implementation."""

    @staticmethod
    def _check(g: LabeledGraph, relabellings: int = 8) -> None:
        """Check g and seeded random relabellings of it.

        Relabelling moves the greedy start away from the optimum, so the
        blossom search has augmenting paths through odd cycles to find.
        """
        nx = pytest.importorskip("networkx")
        rng = random.Random(g.n)
        for r in range(relabellings + 1):
            perm = list(range(1, g.n + 1))
            if r:
                rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edge_list()])
            ref = nx.Graph()
            ref.add_nodes_from(range(1, h.n + 1))
            ref.add_edges_from(h.edge_list())
            got = max_matching(h)
            assert _is_matching_of(got, h)
            assert len(got.edges) == len(nx.max_weight_matching(ref, maxcardinality=True))

    @pytest.mark.parametrize("n", [20, 31, 45, 64, 90, 120])
    def test_random_graphs(self, n):
        rng = random.Random(n)
        for p in (1.5 / n, 3.0 / n, 0.1, 0.4):
            pool = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            self._check(LabeledGraph(n, frozenset(e for e in pool if rng.random() < p)))

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 33])
    def test_triangle_chains(self, k):
        self._check(_triangle_chain(k))

    @pytest.mark.parametrize("lengths,path", [
        ([3, 5], 1), ([3, 3, 3], 2), ([5, 7, 9, 3], 3), ([7] * 6, 4), ([3, 9, 5, 11, 3], 1),
    ])
    def test_odd_cycles_joined_by_a_path(self, lengths, path):
        self._check(_odd_cycles_on_a_path(lengths, path))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_petersen_copies(self, k):
        self._check(_petersen_copies(k))


class TestFFactor:
    def test_k4_perfect_matching(self):
        out = f_factor(complete_graph(4), (1, 1, 1, 1))
        assert out is not None and out.degree_vector() == (1, 1, 1, 1)

    def test_forced_cycle(self):
        c4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert f_factor(c4, (2, 2, 2, 2)) == c4

    def test_k4_minus_edge_deterministic(self):
        host = build_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        out = f_factor(host, (1, 1, 1, 1))
        assert out.edges in (
            frozenset({(1, 3), (2, 4)}),
            frozenset({(1, 4), (2, 3)}),
        )
        assert out == f_factor(host, (1, 1, 1, 1))  # deterministic

    def test_odd_sum_path(self):
        p3 = build_graph(3, [(1, 2), (2, 3)])
        assert f_factor(p3, (1, 1, 1)) is None

    def test_malformed_targets(self):
        g = complete_graph(3)
        with pytest.raises(InvalidInput):
            f_factor(g, (1, 1))
        with pytest.raises(InvalidInput):
            f_factor(g, (-1, 1, 0))
        with pytest.raises(InvalidInput):
            f_factor(g, (3, 1, 0))

    def test_all_four_vertex_hosts_exhaustively(self):
        pool = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        for bits in range(1 << 6):
            host = LabeledGraph(4, frozenset(e for i, e in enumerate(pool) if bits >> i & 1))
            degs = host.degree_vector()
            for f in itertools.product(*(range(d + 1) for d in degs)):
                got = f_factor(host, f)
                expect = f_factor_exists_brute(host, f)
                assert (got is not None) == expect
                if got is not None:
                    assert got.degree_vector() == f
                    assert got.edges <= host.edges

    def test_random_hosts_up_to_16_edges(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(3, 8)
            pool = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            edges = rng.sample(pool, min(len(pool), rng.randint(0, 16)))
            host = LabeledGraph(n, frozenset(edges))
            degs = host.degree_vector()
            f = tuple(rng.randint(0, d) for d in degs)
            assert (f_factor(host, f) is not None) == f_factor_exists_brute(host, f)

    def test_oracle_all_half_at_n80(self):
        # a size regression: the blossom search here once took about 30 s
        n = 80
        rng = random.Random(80)
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        m = Matching(n, frozenset(zip(labels[::2], labels[1::2])))
        seq = DegreeSequence((n // 2,) * n)
        g = realize_matching_oracle(seq, m)
        assert g is not None
        assert m.edges <= g.edges
        assert g.degree_vector() == seq.entries
