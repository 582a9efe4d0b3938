import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degmatch import (
    DegreeSequence,
    InvalidInput,
    InvariantViolation,
    LabeledGraph,
    Matching,
    NotGraphicError,
    build_graph,
    complete_graph,
    degree_sequences,
    eg_check,
    f_factor,
    graph_to_text,
    hh_realize,
    lovasz_pm_check,
)
from degmatch import graphic
from degmatch.switches import realize_matching_oracle
from degmatch.core import canonical_matching, perfect_matchings

from oracles import (
    f_factor_exists_brute,
    gnp_sequence,
    graphic_by_search,
    has_perfect_matching_brute,
    hh_realize_sorted,
    max_matching,
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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(20, 200),
        percent=st.integers(10, 90),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_graphs_beyond_exhaustive_range(self, n, percent, seed):
        seq = gnp_sequence(random.Random(seed), n, percent / 100)
        assume(seq is not None)
        g = hh_realize(seq)
        assert g.degree_vector() == seq.entries
        assert graph_to_text(hh_realize(seq)) == graph_to_text(g)


class TestHhRealizeReference:
    """The bucketed hh_realize builds the graph the full-sort version builds."""

    @staticmethod
    def _check(seq: DegreeSequence) -> None:
        assert graph_to_text(hh_realize(seq)) == graph_to_text(hh_realize_sorted(seq)), seq

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_graphic_sequence(self, n):
        for seq in degree_sequences(n):
            if eg_check(seq).verdict:
                self._check(seq)

    @staticmethod
    def _random_graphic(rng: random.Random, shape: str, n: int) -> DegreeSequence | None:
        if shape == "gnp":
            p = rng.uniform(0.05, 0.95)
            deg = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    deg[i] += 1
                    deg[j] += 1
        elif shape == "regular":
            d = rng.randrange(1, n)
            deg = [d - (n * d) % 2] * n
        elif shape == "threshold":
            # vertices join dominating (adjacent to all earlier ones) or isolated
            dom = [rng.random() < 0.5 for _ in range(n - 1)] + [True]
            later = list(itertools.accumulate(reversed(dom)))[::-1]
            deg = [later[v] - dom[v] + (v if dom[v] else 0) for v in range(n)]
        else:  # two values
            hi = rng.randrange(2, n)
            lo = rng.randrange(1, hi)
            a = rng.randrange(1, n)
            deg = [hi] * a + [lo] * (n - a)
        seq = DegreeSequence(tuple(sorted(deg, reverse=True))) if min(deg) else None
        return seq if seq is not None and eg_check(seq).verdict else None

    @pytest.mark.parametrize("shape", ["gnp", "regular", "threshold", "two-valued"])
    def test_random_large(self, shape):
        rng = random.Random(shape)
        checked = 0
        while checked < 38:
            n = int(64 * (600 / 64) ** rng.random())
            seq = self._random_graphic(rng, shape, n)
            if seq is not None:
                self._check(seq)
                checked += 1


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


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _odd_components(adj: list[list[int]], removed: set[int]) -> int:
    """Odd components of G - removed by union-find, apart from the checker's BFS."""
    root = list(range(len(adj)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for v, nbrs in enumerate(adj):
        if v not in removed:
            for w in nbrs:
                if w not in removed:
                    root[find(v)] = find(w)
    sizes: dict[int, int] = {}
    for v in range(len(adj)):
        if v not in removed:
            sizes[find(v)] = sizes.get(find(v), 0) + 1
    return sum(size % 2 for size in sizes.values())


class TestTutteBarrier:
    """The early-stopping perfect-matching search and its independent check."""

    def test_every_no_in_the_oracle_corpus_carries_a_checked_barrier(self, monkeypatch):
        from test_golden import ORACLE_DIGEST, _digest, _oracle_lines

        searches = []
        search = graphic._perfect_matching

        def recording(adj):
            match, barrier = search(adj)
            searches.append((adj, match, barrier))
            return match, barrier

        monkeypatch.setattr(graphic, "_perfect_matching", recording)
        assert _digest(_oracle_lines()) == ORACLE_DIGEST
        barriers = 0
        for adj, match, barrier in searches:
            if barrier is None:
                assert all(match[match[v]] == v and match[v] in adj[v] for v in range(len(adj)))
                continue
            barriers += 1
            assert len(set(barrier)) == len(barrier)
            assert _odd_components(adj, set(barrier)) > len(barrier)
            graphic._check_tutte_barrier(adj, barrier)  # must not raise
        assert (len(searches), barriers) == (87, 20)

    def test_a_search_that_gives_up_is_caught(self, monkeypatch):
        # a perfect matching exists, but the greedy start on this gadget is
        # not perfect, so the search must run
        assert f_factor(complete_graph(4), (1, 1, 1, 1)) is not None
        calls = []

        def gives_up(n, adj, match, root):
            calls.append(root)
            return [v == root for v in range(n)]  # a tree of the root alone

        monkeypatch.setattr(graphic, "_find_and_augment", gives_up)
        with pytest.raises(InvariantViolation, match="Tutte barrier"):
            f_factor(complete_graph(4), (1, 1, 1, 1))
        assert calls

    def test_checker_is_tutte_theorem_on_small_graphs(self):
        # no U passes on a graph with a perfect matching; some U passes on
        # every even-order graph without one
        rng = random.Random(1947)
        for _ in range(60):
            n = rng.choice((4, 6, 8))
            pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = [e for e in pool if rng.random() < 0.35]
            adj = _adjacency(n, edges)
            accepted = 0
            for bits in range(1 << n):
                try:
                    graphic._check_tutte_barrier(adj, [v for v in range(n) if bits >> v & 1])
                    accepted += 1
                except InvariantViolation:
                    pass
            g = LabeledGraph(n, frozenset((u + 1, v + 1) for u, v in edges))
            assert (accepted == 0) == has_perfect_matching_brute(g)

    @pytest.mark.parametrize("n", [10, 22, 40, 76])
    def test_barrier_exactly_when_networkx_finds_no_perfect_matching(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for p in (1.0 / n, 2.0 / n, 4.0 / n, 0.2):
            for _ in range(5):
                pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
                edges = [e for e in pool if rng.random() < p]
                adj = _adjacency(n, edges)
                ref = nx.Graph()
                ref.add_nodes_from(range(n))
                ref.add_edges_from(edges)
                perfect = 2 * len(nx.max_weight_matching(ref, maxcardinality=True)) == n
                match, barrier = graphic._perfect_matching(adj)
                assert (barrier is None) == perfect
                if barrier is None:
                    assert all(match[match[v]] == v for v in range(n))
                else:
                    assert _odd_components(adj, set(barrier)) > len(barrier)
