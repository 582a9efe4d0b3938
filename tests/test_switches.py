import random
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import degmatch.switches
from degmatch import (
    DegreeSequence,
    InvalidInput,
    InvariantViolation,
    LabeledGraph,
    Matching,
    ResourceLimitError,
    SwitchMove,
    all_switches,
    build_graph,
    canonical_matching,
    classify_switch,
    complete_graph,
    degree_sequences,
    graph_to_text,
    lift_switch,
    lovasz_pm_check,
    matching_from_text,
    perfect_matchings,
    phi,
    realize_matching_oracle,
    realize_matching_switchwise,
    star_check,
    switch_path,
    switch_step,
)
from degmatch.preorder import _relabel_matching
from oracles import assert_validated_matching, gnp_sequence

M3 = canonical_matching(4, "plus")
M1 = canonical_matching(4, "minus")
M2 = Matching(4, {(1, 3), (2, 4)})


class TestClassify:
    def test_canonical_examples(self):
        assert classify_switch(M3, M2) == 1
        assert classify_switch(M2, M1) == 2
        assert classify_switch(M3, M1) == 3

    def test_identity_and_reversals(self):
        assert classify_switch(M2, M2) is None
        assert classify_switch(M2, M3) is None  # switches are directional
        assert classify_switch(M1, M3) is None

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            classify_switch(M3, canonical_matching(6, "plus"))

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_consistent_with_enumeration(self, n):
        for m in perfect_matchings(n):
            for nm, move in all_switches(m):
                assert classify_switch(m, nm) == move.kind
                assert_validated_matching(nm)


class TestSwitchStep:
    def test_plus_is_up_terminal(self):
        assert switch_step(canonical_matching(4, "plus"), "up") is None

    def test_plus_steps_down_by_type3(self):
        new, move = switch_step(M3, "down")
        assert new == M1 and move.kind == 3

    def test_nested_steps_up_by_reverse_type3(self):
        new, move = switch_step(M1, "up")
        assert new == M3 and move.kind == 3

    def test_crossing_steps_down_by_type2(self):
        new, move = switch_step(M2, "down")
        assert new == M1 and move.kind == 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_terminal_characterizations(self, n):
        plus, minus = canonical_matching(n, "plus"), canonical_matching(n, "minus")
        for m in perfect_matchings(n):
            down, up = switch_step(m, "down"), switch_step(m, "up")
            assert (down is None) == (m == minus)
            assert (up is None) == (m == plus)
            for step in (down, up):
                if step is not None:
                    assert_validated_matching(step[0])

    def test_down_prefers_disjoint_pair(self):
        m = Matching(6, {(1, 3), (2, 4), (5, 6)})
        _, move = switch_step(m, "down")
        assert move.kind == 3  # the disjoint pair (1,3),(5,6) wins over the crossing


class TestTrustedMatchings:
    """Matchings derived without re-validation equal the validated ones.

    The n <= 10 switches and steps are checked in TestClassify and TestSwitchStep.
    """

    def test_all_switches_random_n40(self):
        rng = random.Random(40)
        for _ in range(200):
            verts = list(range(1, 41))
            rng.shuffle(verts)
            m = Matching(40, zip(verts[0::2], verts[1::2]))
            for nm, _ in all_switches(m):
                assert_validated_matching(nm)

    def test_relabel_adjacent_transpositions_n8(self):
        for m in perfect_matchings(8):
            for i in range(1, 8):
                out = _relabel_matching(m, i, i + 1)
                assert_validated_matching(out)
                assert _relabel_matching(out, i, i + 1) == m


class TestSwitchPath:
    def test_trivial(self):
        assert switch_path(canonical_matching(4, "plus"), "plus") == []

    def test_single_moves(self):
        assert [m.kind for m in switch_path(M1, "plus")] == [3]
        assert [m.kind for m in switch_path(M2, "minus")] == [2]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_walks_terminate_at_canonical(self, n):
        for m in perfect_matchings(n):
            down = switch_path(m, "minus")
            up = switch_path(m, "plus")
            assert len(down) <= comb(n // 2, 2) and len(up) <= comb(n // 2, 2)
            # replay the down walk forward
            cur = m
            for move in down:
                cur = cur.apply_move(move)
            assert cur == canonical_matching(n, "minus")
            # replay the up walk in reverse from the top
            cur = canonical_matching(n, "plus")
            for move in reversed(up):
                cur = cur.apply_move(move)
            assert cur == m

    def test_walk_past_n_squared_steps_is_refused(self, monkeypatch):
        move = SwitchMove(1, 2, 3, 4, 1)
        monkeypatch.setattr(degmatch.switches, "_step", lambda edges, d: move)
        with pytest.raises(ResourceLimitError):
            switch_path(M3, "minus")

    def test_walk_ending_off_the_canonical_matching_is_caught(self, monkeypatch):
        monkeypatch.setattr(degmatch.switches, "_step", lambda edges, d: None)
        for m, target in ((M2, "minus"), (M2, "plus"), (M3, "minus"), (M1, "plus")):
            with pytest.raises(InvariantViolation, match=f"ended at {m}$"):
                switch_path(m, target)
        assert switch_path(M1, "minus") == [] and switch_path(M3, "plus") == []


class TestPhiLemma:
    @pytest.mark.parametrize("n", [4, 6])
    def test_exhaustive(self, n):
        for m in perfect_matchings(n):
            for nm, move in all_switches(m):
                assert phi(nm) < phi(m)

    def test_randomized_n40(self):
        rng = random.Random(314)
        done = 0
        while done < 1500:
            verts = list(range(1, 41))
            rng.shuffle(verts)
            m = Matching(40, frozenset(
                (verts[2 * i], verts[2 * i + 1]) for i in range(20)
            ))
            options = all_switches(m)
            if not options:
                continue
            nm, _ = rng.choice(options)
            assert phi(nm) < phi(m)
            done += 1


class TestLiftSwitch:
    def test_neither_new_edge_present(self):
        g = build_graph(4, [(1, 2), (1, 3), (2, 4)])
        h = lift_switch(g, M2, SwitchMove(1, 2, 3, 4, 2))
        assert h.edge_list() == [(1, 2), (1, 4), (2, 3)]
        assert h.degree_vector() == (2, 2, 1, 1)

    def test_both_new_edges_present(self):
        k4 = complete_graph(4)
        for nm, move in all_switches(M3):
            assert lift_switch(k4, M3, move) == k4

    def test_matching_not_contained(self):
        g = build_graph(4, [(1, 3)])
        with pytest.raises(InvalidInput):
            lift_switch(g, M3, SwitchMove(1, 2, 3, 4, 1))

    @pytest.mark.parametrize("n", [4, 6])
    def test_exhaustive_supergraph_audit(self, n):
        """Monotone-degree hosts must lift; others may refuse, never lie."""
        full = complete_graph(n).edges
        for m in perfect_matchings(n):
            free = sorted(full - m.edges)
            switches = all_switches(m)
            cap = 1 << len(free) if n == 4 else 2048
            rng = random.Random(n)
            masks = (
                range(1 << len(free))
                if n == 4
                else (rng.randrange(1 << len(free)) for _ in range(cap))
            )
            for bits in masks:
                g = LabeledGraph(n, m.edges | {e for i, e in enumerate(free) if bits >> i & 1})
                degs = g.degree_vector()
                monotone = all(degs[i] >= degs[i + 1] for i in range(n - 1))
                for nm, move in switches:
                    try:
                        h = lift_switch(g, m, move)
                    except InvariantViolation:
                        assert not monotone
                        continue
                    assert h.degree_vector() == degs
                    assert nm.edges <= h.edges


class TestRealizeSwitchwise:
    def test_cycle_degrees_with_nested_matching(self):
        g = realize_matching_switchwise(DegreeSequence((2, 2, 2, 2)), M1)
        assert g.degree_vector() == (2, 2, 2, 2)
        assert M1.edges <= g.edges

    def test_forced_matching(self):
        g = realize_matching_switchwise(DegreeSequence((1, 1, 1, 1)), M2)
        assert g.edges == M2.edges

    def test_k4(self):
        g = realize_matching_switchwise(DegreeSequence((3, 3, 3, 3)), M1)
        assert g == complete_graph(4)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cross_validation_with_oracle(self, n):
        for seq in degree_sequences(n):
            passes = star_check(seq).verdict
            for m in perfect_matchings(n):
                witness = realize_matching_oracle(seq, m)
                if passes:
                    g = realize_matching_switchwise(seq, m)
                    assert g.degree_vector() == seq.entries
                    assert m.edges <= g.edges
                    assert witness is not None
                if witness is not None:
                    assert witness.degree_vector() == seq.entries
                    assert m.edges <= witness.edges

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 60).map(lambda half: 2 * half),
        percent=st.integers(10, 90),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=120, percent=50, seed=0)
    def test_random_graphs_and_matchings(self, n, percent, seed):
        rng = random.Random(seed)
        seq = gnp_sequence(rng, n, percent / 100)
        assume(seq is not None and star_check(seq).verdict)
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        m = Matching(n, zip(verts[0::2], verts[1::2]))
        g = realize_matching_switchwise(seq, m)
        assert g.degree_vector() == seq.entries
        assert m.edges <= g.edges
        assert graph_to_text(realize_matching_switchwise(seq, m)) == graph_to_text(g)


class TestOracle:
    def test_cannot_realize_plus(self):
        assert realize_matching_oracle(DegreeSequence((2, 2, 1, 1)), M3) is None

    def test_witness_for_minus(self):
        g = realize_matching_oracle(DegreeSequence((3, 2, 2, 1)), M1)
        assert g is not None
        assert g.degree_vector() == (3, 2, 2, 1)
        assert M1.edges <= g.edges

    def test_forced(self):
        assert realize_matching_oracle(DegreeSequence((1, 1, 1, 1)), M2).edges == M2.edges

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(10, 16).map(lambda half: 2 * half),
        percent=st.integers(10, 90),
        leaves=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=24, percent=30, leaves=8, seed=1)  # fails STAR, has a perfect matching
    @example(n=32, percent=50, leaves=10, seed=0)  # no perfect matching
    def test_random_graphs_beyond_exhaustive_range(self, n, percent, leaves, seed):
        # G(n, p) sequences alone pass STAR; pendant leaves on the top vertex
        # of a G(n - leaves, p) sample bring both verdicts of both checks
        rng = random.Random(seed)
        core = gnp_sequence(rng, n - leaves, percent / 100)
        assume(core is not None)
        top, *rest = core.entries
        seq = DegreeSequence((top + leaves, *rest) + (1,) * leaves)
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        plus, minus = canonical_matching(n, "plus"), canonical_matching(n, "minus")
        m = Matching(n, zip(verts[0::2], verts[1::2]))
        witnesses = {mm: realize_matching_oracle(seq, mm) for mm in (plus, minus, m)}
        # the main theorem, and result (1): a perfect matching iff the nested one
        assert (witnesses[plus] is not None) == star_check(seq).verdict
        assert (witnesses[minus] is not None) == lovasz_pm_check(seq)
        for mm, g in witnesses.items():
            if g is not None:
                assert g.degree_vector() == seq.entries
                assert mm.edges <= g.edges
        assert str(realize_matching_oracle(seq, m)) == str(witnesses[m])


class TestMatchingText:
    def test_round_trip(self):
        m = Matching(6, {(1, 6), (2, 4), (3, 5)})
        assert matching_from_text(str(m)) == m

    def test_format(self):
        assert str(M1) == "1-4,2-3"

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInput):
            matching_from_text("1-2,2-3")

    def test_malformed(self):
        with pytest.raises(InvalidInput):
            matching_from_text("1-2-3")
        with pytest.raises(InvalidInput):
            matching_from_text("")
