import random
from fractions import Fraction

import pytest

from degmatch import (
    DegreeSequence,
    InvalidInput,
    PreconditionError,
    binding_number,
    build_graph,
    complete_graph,
    degree_sequences,
    eg_check,
    pack,
    pack_report,
)
from degmatch.packing import INCONCLUSIVE_NOTE, OVERFULL_NOTE

from oracles import binding_number_brute


class TestBindingNumber:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graphs(self, n):
        result = binding_number(complete_graph(n))
        assert result.value == Fraction(n - 1)
        assert len(result.witness) == 1

    def test_four_cycle(self):
        c4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        result = binding_number(c4)
        assert result.value == Fraction(1)
        assert result.witness == frozenset({1, 3})

    def test_claw(self):
        star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
        result = binding_number(star)
        assert result.value == Fraction(1, 3)
        assert result.witness == frozenset({2, 3, 4})

    def test_matches_definition_on_random_graphs(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(2, 10)
            p = rng.random()
            edges = [
                (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p
            ]
            g = build_graph(n, edges)
            result = binding_number(g)
            assert (result.value, result.witness) == binding_number_brute(g), edges

    def test_size_guard(self):
        with pytest.raises(InvalidInput):
            binding_number(complete_graph(25))


class TestPack:
    def test_two_matchings_in_k4(self):
        g1, g2 = pack(DegreeSequence((1, 1, 1, 1)), DegreeSequence((1, 1, 1, 1)))
        assert not (g1.edges & g2.edges)
        assert g1.degree_vector() == g2.degree_vector() == (1, 1, 1, 1)

    @pytest.mark.parametrize("n", [9, 10])
    def test_two_cycles(self, n):
        seq = DegreeSequence((2,) * n)
        g1, g2 = pack(seq, seq)
        assert not (g1.edges & g2.edges)
        assert g1.degree_vector() == g2.degree_vector() == seq.entries

    def test_output_order_follows_arguments(self):
        s1 = DegreeSequence((1, 1, 1, 1, 1, 1, 1, 1))
        s2 = DegreeSequence((2, 2, 2, 2, 2, 2, 1, 1))
        g1, g2 = pack(s1, s2)
        assert g1.degree_vector() == s1.entries
        assert g2.degree_vector() == s2.entries

    def test_all_ones_second_gives_complement_matching(self):
        s1 = DegreeSequence((2, 2, 1, 1, 1, 1, 1, 1))
        ones = DegreeSequence((1,) * 8)
        g1, g2 = pack(s1, ones)
        assert g2.degree_vector() == ones.entries
        assert len(g2.edges) == 4
        assert not (g1.edges & g2.edges)

    def test_non_graphic_rejected(self):
        with pytest.raises(PreconditionError):
            pack(DegreeSequence((3, 3, 3, 1)), DegreeSequence((1, 1, 1, 1)))

    def test_too_small(self):
        with pytest.raises(PreconditionError):
            pack(DegreeSequence((1, 1)), DegreeSequence((1, 1)))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_hypothesis_sweep_small(self, n):
        graphic = [s for s in degree_sequences(n) if eg_check(s).verdict]
        for s1 in graphic:
            for s2 in graphic:
                if 2 * s1.entries[0] * s2.entries[0] >= n:
                    continue
                g1, g2 = pack(s1, s2)
                assert not (g1.edges & g2.edges)
                assert g1.degree_vector() == s1.entries
                assert g2.degree_vector() == s2.entries

    def test_report_success(self):
        report = pack_report(DegreeSequence((1, 1, 1, 1)), DegreeSequence((1, 1, 1, 1)))
        assert report["hypothesis"] and report["success"]
        assert report["edges1"] and report["edges2"]

    def test_report_inconclusive(self):
        # no vertex is overfull, and the two sequences do pack (see
        # tests/test_cli.py), but not around the greedy first realization
        report = pack_report(DegreeSequence((2, 2, 2, 2, 2)), DegreeSequence((2, 2, 2, 1, 1)))
        assert not report["hypothesis"] and not report["success"]
        assert report["note"] == INCONCLUSIVE_NOTE

    def test_report_overfull_is_proven(self):
        report = pack_report(DegreeSequence((3, 3, 3, 3)), DegreeSequence((3, 3, 3, 3)))
        assert not report["hypothesis"] and not report["success"]
        assert report["note"] == OVERFULL_NOTE

    @pytest.mark.parametrize("n", range(3, 7))
    def test_report_note_is_overfull_exactly_on_overfull_misses(self, n):
        graphic = [s for s in degree_sequences(n) if eg_check(s).verdict]
        for s1 in graphic:
            for s2 in graphic:
                report = pack_report(s1, s2)
                overfull = any(a + b > n - 1 for a, b in zip(s1.entries, s2.entries))
                if overfull:
                    assert report["note"] == OVERFULL_NOTE
                elif not report["success"]:
                    assert report["note"] == INCONCLUSIVE_NOTE
