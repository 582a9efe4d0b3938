import itertools
import random

import pytest

import degmatch
from degmatch import (
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    Matching,
    PreconditionError,
    ResourceLimitError,
    SpanningFactor,
    build_graph,
    canonical_h_factor,
    common_realizable_two_factors,
    complete_graph,
    degree_sequences,
    disjoint_pms,
    doublestar_check,
    enumerate_realizations,
    enumerate_two_factors,
    canonical_matching,
    hfactor_oracle,
    lovasz_pm_check,
    merge_cliques_with_witness,
    near_one_factorization,
    star_check,
    star_product,
    two_factor_realizable,
)
from degmatch.hfactor import _witness_pair_pms, _round_robin_even


class TestDoublestarCheck:
    def test_two_triangles_tight(self):
        report = doublestar_check(DegreeSequence((2,) * 6), 2)
        assert report.verdict
        assert [report.row(k).slack for k in (1, 2, 3)] == [0, 0, 0]

    def test_residual_degree_failure(self):
        report = doublestar_check(DegreeSequence((5, 5, 2, 2, 2, 2)), 2)
        assert not report.verdict
        assert (report.row(2).lhs, report.row(2).rhs) == (10, 4)

    def test_divisibility(self):
        report = doublestar_check(DegreeSequence((2, 2, 2, 2)), 2)
        assert not report.structural_ok and not report.verdict

    @pytest.mark.parametrize("n", range(2, 9))
    def test_h1_specializes_row_for_row(self, n):
        for seq in degree_sequences(n):
            a = star_check(seq)
            b = doublestar_check(seq, 1)
            assert a.verdict == b.verdict
            assert [(r.k, r.lhs, r.rhs) for r in a.rows] == [
                (r.k, r.lhs, r.rhs) for r in b.rows
            ]

    def test_bad_h(self):
        with pytest.raises(InvalidInput):
            doublestar_check(DegreeSequence((2, 2, 2)), 0)


class TestHfactorOracle:
    def test_zero_residual(self):
        out = hfactor_oracle(DegreeSequence((2,) * 6), 2)
        assert out is not None
        assert out.edges == canonical_h_factor(6, 2).edges

    def test_k4_full(self):
        assert hfactor_oracle(DegreeSequence((3,) * 4), 3) == complete_graph(4)

    def test_residual_infeasible(self):
        assert hfactor_oracle(DegreeSequence((5, 5, 2, 2, 2, 2)), 2) is None

    def test_min_degree_short_circuit(self):
        assert hfactor_oracle(DegreeSequence((2, 2, 2, 2, 1, 1)), 2) is None

    def test_divisibility_precondition(self):
        with pytest.raises(PreconditionError):
            hfactor_oracle(DegreeSequence((2, 2, 2, 2)), 2)

    @pytest.mark.parametrize("h,n", [(2, 6), (3, 8)])
    def test_forward_direction_exhaustive_supergraphs(self, h, n):
        """Sorted-degree graphs containing the factor always pass the family."""
        factor = canonical_h_factor(n, h)
        free = sorted(complete_graph(n).edges - factor.edges)
        base = [h] * (n + 1)
        for bits in range(1 << len(free)):
            degs = base[1:]
            for i, (u, v) in enumerate(free):
                if bits >> i & 1:
                    degs[u - 1] += 1
                    degs[v - 1] += 1
            if any(degs[i] < degs[i + 1] for i in range(n - 1)):
                continue
            assert doublestar_check(DegreeSequence(tuple(degs)), h).verdict

    def test_forward_direction_randomized_larger(self):
        rng = random.Random(77)
        for h, n in ((2, 12), (4, 10), (3, 12)):
            factor = canonical_h_factor(n, h)
            for _ in range(150):
                degs = [h] * (n + 1)
                pool = sorted(complete_graph(n).edges - factor.edges)
                rng.shuffle(pool)
                for u, v in pool[: rng.randint(0, len(pool))]:
                    probe = degs[1:]
                    probe[u - 1] += 1
                    probe[v - 1] += 1
                    if all(probe[i] >= probe[i + 1] for i in range(n - 1)):
                        degs[u] += 1
                        degs[v] += 1
                assert doublestar_check(DegreeSequence(tuple(degs[1:])), h).verdict


class TestNearOneFactorization:
    def test_m3(self):
        classes = near_one_factorization(3)
        assert [sorted(c.edges) for c in classes] == [[(2, 3)], [(1, 3)], [(1, 2)]]

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_partition_properties(self, m):
        classes = near_one_factorization(m)
        assert len(classes) == m
        union: set = set()
        for r, cls in enumerate(classes, start=1):
            covered = {v for e in cls.edges for v in e}
            assert covered == set(range(1, m + 1)) - {r}  # class r misses r
            assert len(cls.edges) == (m - 1) // 2
            assert not (union & cls.edges)
            union |= cls.edges
        assert len(union) == m * (m - 1) // 2

    def test_even_rejected(self):
        with pytest.raises(InvalidInput):
            near_one_factorization(4)


class TestStarProduct:
    def test_six_cycle(self):
        g = star_product({1, 2, 3}, {4, 5, 6}, [(1, 2)], [(4, 5)])
        assert g.edges == frozenset(
            [(1, 3), (2, 3), (4, 6), (5, 6), (1, 4), (2, 5)]
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_regularity(self, k):
        m = 2 * k + 1
        a = tuple(range(1, m + 1))
        b = tuple(range(m + 1, 2 * m + 1))
        m1 = near_one_factorization(m)[0].edges
        m2 = {(u + m, v + m) for u, v in near_one_factorization(m)[2].edges}
        g = star_product(a, b, m1, m2)
        assert all(g.degree(v) == 2 * k for v in range(1, 2 * m + 1))

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            star_product({1, 2, 3}, {4, 5, 6, 7, 8}, [(1, 2)], [(4, 5), (6, 7)])

    @pytest.mark.parametrize("m1", [[(1, 2, 3)], [(2,)]])
    def test_pair_of_wrong_length_rejected(self, m1):
        with pytest.raises(InvalidInput):
            star_product({1, 2, 3}, {4, 5, 6}, m1, [(4, 5)])


class TestMergeCliques:
    def test_two_triangles_single_switch(self):
        g = build_graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        out, witness = merge_cliques_with_witness(g, (1, 2, 3), (4, 5, 6))
        assert witness.switches == 1
        c6 = {(1, 3), (2, 3), (4, 6), (5, 6), (1, 4), (2, 5)}
        assert c6 <= out.edges
        assert out.degree_vector() == g.degree_vector()

    def test_existing_cross_matching_needs_no_switch(self):
        g = build_graph(
            6,
            [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5)],
        )
        out, witness = merge_cliques_with_witness(g, (1, 2, 3), (4, 5, 6))
        assert witness.switches == 0
        assert out == g

    def test_outside_edges_untouched(self):
        rng = random.Random(5)
        for _ in range(40):
            n = 14
            a, b = (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)
            edges = set(itertools.combinations(a, 2)) | set(itertools.combinations(b, 2))
            pool = [
                e
                for e in itertools.combinations(range(1, n + 1), 2)
                if e not in edges
                and not (e[0] in a and e[1] in a)
                and not (e[0] in b and e[1] in b)
            ]
            edges |= set(rng.sample(pool, rng.randint(0, len(pool) // 2)))
            g = LabeledGraph(n, frozenset(edges))
            out = merge_cliques_with_witness(g, a, b)[0]
            inside = set(a) | set(b)
            assert out.degree_vector() == g.degree_vector()
            assert {e for e in g.edges if not set(e) <= inside} == {
                e for e in out.edges if not set(e) <= inside
            }

    def test_incomplete_clique_rejected(self):
        g = build_graph(6, [(1, 2), (1, 3), (4, 5), (4, 6), (5, 6)])
        with pytest.raises(PreconditionError):
            merge_cliques_with_witness(g, (1, 2, 3), (4, 5, 6))

    def test_wrapper_without_witness_is_gone(self):
        assert not hasattr(degmatch, "merge_cliques")
        assert not hasattr(degmatch.hfactor, "merge_cliques")

    def test_witness_factorizes(self):
        g = LabeledGraph(
            10,
            frozenset(
                itertools.combinations((1, 2, 3, 4, 5), 2)
            )
            | frozenset(itertools.combinations((6, 7, 8, 9, 10), 2)),
        )
        out, witness = merge_cliques_with_witness(g, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
        pms = _witness_pair_pms(witness)
        assert len(pms) == 4
        seen: set = set()
        for pm in pms:
            m = Matching(10, frozenset(pm))
            assert m.is_perfect
            assert m.edges <= out.edges
            assert not (m.edges & seen)
            seen |= m.edges


class TestRoundRobin:
    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_factorizes_even_clique(self, m):
        rounds = _round_robin_even(range(1, m + 1))
        assert len(rounds) == m - 1
        union: set = set()
        for pairs in rounds:
            covered = {v for e in pairs for v in e}
            assert covered == set(range(1, m + 1))
            assert not (union & set(pairs))
            union |= set(pairs)
        assert len(union) == m * (m - 1) // 2


class TestDisjointPms:
    def test_six_vertex_two_factor(self):
        g, pms = disjoint_pms(DegreeSequence((2,) * 6), 2)
        assert [str(m) for m in pms] == ["1-4,2-3,5-6", "1-3,2-5,4-6"]
        for m in pms:
            assert m.edges <= g.edges

    def test_k4_three_matchings(self):
        g, pms = disjoint_pms(DegreeSequence((3,) * 4), 3)
        assert len(pms) == 3
        assert set().union(*(m.edges for m in pms)) == g.edges

    def test_ten_vertex_four_regular(self):
        seq = DegreeSequence((4,) * 10)
        g, pms = disjoint_pms(seq, 4)
        assert g.degree_vector() == seq.entries
        assert len(pms) == 4
        for m1, m2 in itertools.combinations(pms, 2):
            assert not (m1.edges & m2.edges)
        for m in pms:
            assert m.is_perfect and m.edges <= g.edges

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            disjoint_pms(DegreeSequence((5, 5, 2, 2, 2, 2)), 2)  # family fails
        with pytest.raises(PreconditionError):
            disjoint_pms(DegreeSequence((2, 2, 2, 2, 2, 2, 2, 2, 2)), 2)  # odd n

    def test_h1_is_exact_and_uses_the_nested_matching(self):
        # result (1): a perfect matching in some realization <=> the nested
        # matching in some realization; lovasz_pm_check decides the former
        for n in (2, 4, 6, 8):
            nested = canonical_matching(n, "minus")
            for seq in degree_sequences(n):
                if not lovasz_pm_check(seq):
                    with pytest.raises(PreconditionError):
                        disjoint_pms(seq, 1)
                    continue
                g, pms = disjoint_pms(seq, 1)
                assert pms == [nested]
                assert g.degree_vector() == seq.entries and nested.edges <= g.edges

    def test_h1_off_the_star_family(self):
        # (3,2,2,1) fails STAR, so the canonical 1-factor route does not apply
        seq = DegreeSequence((3, 2, 2, 1))
        assert not star_check(seq).verdict
        g, pms = disjoint_pms(seq, 1)
        assert [str(m) for m in pms] == ["1-4,2-3"]
        assert g.edge_list() == [(1, 2), (1, 3), (1, 4), (2, 3)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_h_below_1_is_invalid_before_parity(self, n):
        with pytest.raises(InvalidInput) as info:
            disjoint_pms(DegreeSequence((2,) * n), 0)
        assert not isinstance(info.value, PreconditionError)


class TestEnumerateRealizations:
    def test_unique_forced_example(self):
        seq = DegreeSequence((11, 11, 9, 9, 7, 7, 6, 6, 4, 4, 2, 2))
        graphs = enumerate_realizations(seq)
        assert len(graphs) == 1

    def test_triangle_unique(self):
        assert len(enumerate_realizations(DegreeSequence((2, 2, 2)))) == 1

    def test_single_edge(self):
        assert len(enumerate_realizations(DegreeSequence((1, 1)))) == 1

    def test_counts_match_naive_search(self):
        from oracles import realizations_by_search

        for n in range(2, 7):
            for seq in degree_sequences(n):
                got = {g.edges for g in enumerate_realizations(seq)}
                expect = set(realizations_by_search(seq.entries))
                assert got == expect

    def test_size_guard(self):
        with pytest.raises(InvalidInput):
            enumerate_realizations(DegreeSequence((1,) * 14))

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_realizations(DegreeSequence((5,) * 12), node_budget=50)


class TestEnumerateTwoFactors:
    def test_cycle_is_its_own(self):
        c6 = build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
        factors = enumerate_two_factors(c6)
        assert len(factors) == 1 and factors[0].edges == c6.edges

    def test_k4_has_three(self):
        assert len(enumerate_two_factors(complete_graph(4))) == 3

    def test_forced_example_three_squares(self):
        seq = DegreeSequence((11, 11, 9, 9, 7, 7, 6, 6, 4, 4, 2, 2))
        (g,) = enumerate_realizations(seq)
        factors = enumerate_two_factors(g)
        expected = frozenset(
            [
                (1, 11), (1, 12), (2, 11), (2, 12),
                (3, 9), (3, 10), (4, 9), (4, 10),
                (5, 7), (5, 8), (6, 7), (6, 8),
            ]
        )
        assert len(factors) == 1 and factors[0].edges == expected


class TestConjectureScan:
    def test_clean_at_h2_n6(self):
        from degmatch import conjecture_scan

        records = conjecture_scan(2, 6)
        assert len(records) == 210
        assert all(r["doublestar"] == r["oracle"] for r in records)

    def test_findings_annotated_at_h2_n9(self):
        from degmatch import conjecture_scan

        findings = [
            r for r in conjecture_scan(2, 9) if r["doublestar"] and not r["oracle"]
        ]
        assert findings  # the family cannot see the min-degree condition
        assert all(r["note"] == "min degree below h" for r in findings)
        assert all(r["sequence"][-1] < 2 for r in findings)

    def test_forward_direction_never_violated(self):
        from degmatch import conjecture_scan

        for h, n in ((2, 6), (3, 4), (3, 8)):
            assert not [
                r for r in conjecture_scan(h, n) if r["oracle"] and not r["doublestar"]
            ]


STATED_2C6 = frozenset(
    [
        (1, 11), (1, 12), (2, 10), (2, 12), (3, 10), (3, 11),
        (4, 8), (4, 9), (5, 7), (5, 9), (6, 7), (6, 8),
    ]
)

EX_B_SEQUENCES = (
    DegreeSequence((11, 11, 10, 8, 8, 7, 6, 6, 5, 3, 3, 2)),
    DegreeSequence((11, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2)),
    DegreeSequence((11, 11, 10, 8, 6, 6, 6, 5, 5, 3, 3, 2)),
)


class TestCommonTwoFactors:
    def test_stated_double_hexagon_realizable_by_each(self):
        factor = SpanningFactor(12, 2, STATED_2C6)
        for seq in EX_B_SEQUENCES:
            assert two_factor_realizable(seq, factor)

    def test_intersection_contains_the_stated_factor(self):
        # the first sequence is the most constrained; its realizations seed
        # the candidate pool
        common = common_realizable_two_factors(EX_B_SEQUENCES)
        assert any(tf.edges == STATED_2C6 for tf in common)
        # reported, not asserted: the intersection is in fact a singleton
        assert len(common) >= 1
