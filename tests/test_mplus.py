import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degmatch import (
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    PreconditionError,
    canonical_matching,
    corollary_bound_holds,
    degree_sequences,
    eg_check,
    graph_to_text,
    realize_mplus,
    realize_mplus_trace,
    star_check,
    tightness_instance,
    tightness_scan,
)
from degmatch.core import _family_holds
from degmatch.mplus import _terminal_edges
from degmatch.switches import realize_matching_oracle
from oracles import gnp_sequence, realize_mplus_trace_bisect


class TestStarCheck:
    def test_square_passes(self):
        assert star_check(DegreeSequence((2, 2, 2, 2))).verdict

    def test_3221_fails_at_one(self):
        report = star_check(DegreeSequence((3, 2, 2, 1)))
        assert not report.verdict
        assert report.first_fail_k == 1
        assert (report.row(1).lhs, report.row(1).rhs) == (3, 2)

    def test_3322_fails_at_two(self):
        report = star_check(DegreeSequence((3, 3, 2, 2)))
        assert not report.verdict
        assert 2 in report.failing_ks
        assert (report.row(2).lhs, report.row(2).rhs) == (6, 4)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_all_ones_pass(self, n):
        report = star_check(DegreeSequence((1,) * n))
        assert report.verdict
        assert len(report.rows) == n  # every k carries a computed slack

    def test_odd_n_fails_structurally(self):
        report = star_check(DegreeSequence((2, 2, 2)))
        assert not report.verdict and not report.structural_ok

    def test_star_implies_eg_up_to_n12(self):
        # The verdicts of star_check and eg_check, without building reports:
        # STAR needs even n, an even sum and its rows; EG then needs its rows.
        for n in range(2, 13):
            for seq in degree_sequences(n):
                e = seq.entries
                if n % 2 == 0 and sum(e) % 2 == 0 and _family_holds(e, 1):
                    assert _family_holds(e, 0), seq

    @settings(max_examples=80, deadline=None)
    @given(
        half=st.integers(10, 100),
        top=st.floats(0.0, 1.0),
        low=st.floats(0.0, 1.0),
        head=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_star_implies_eg(self, half, top, low, head, seed):
        # head copies of a top degree over a uniform tail: split shapes that
        # pass STAR and fail EG would show here, beyond the exhaustive range
        n = 2 * half
        top = 1 + round(top * (n - 2))
        low = 1 + round(low * (top - 1))
        heads = round(head * n)
        rng = random.Random(seed)
        tail = sorted((rng.randint(1, low) for _ in range(n - heads)), reverse=True)
        seq = DegreeSequence((top,) * heads + tuple(tail))
        if star_check(seq).verdict:
            assert eg_check(seq).verdict, seq


class TestRealize:
    def test_base_case(self):
        assert realize_mplus(DegreeSequence((1, 1, 1, 1))).edge_list() == [(1, 2), (3, 4)]

    def test_square_terminal(self):
        g = realize_mplus(DegreeSequence((2, 2, 2, 2)))
        assert g.edge_list() == [(1, 2), (1, 3), (2, 4), (3, 4)]

    def test_k4(self):
        assert len(realize_mplus(DegreeSequence((3, 3, 3, 3))).edges) == 6

    def test_rejects_failing_sequence(self):
        with pytest.raises(PreconditionError):
            realize_mplus(DegreeSequence((3, 2, 2, 1)))

    def test_terminal_patterns_fire(self):
        assert realize_mplus_trace(DegreeSequence((2, 2, 2, 2))).terminal == "a"
        assert realize_mplus_trace(DegreeSequence((3, 3, 3, 3))).terminal == "c"
        assert realize_mplus_trace(DegreeSequence((1, 1, 1, 1))).terminal is None

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_exhaustive_audits(self, n):
        plus = canonical_matching(n, "plus")
        for seq in degree_sequences(n):
            if not star_check(seq).verdict:
                continue
            trace = realize_mplus_trace(seq)
            g = trace.graph
            assert g.degree_vector() == seq.entries
            assert plus.edges <= g.edges
            # each descent step sheds exactly one degree pair
            stop_total = seq.total() - 2 * trace.steps
            assert stop_total >= n
            if trace.terminal is None:
                assert stop_total == n

    def test_medium_regular_instance(self):
        seq = DegreeSequence((25,) * 50)
        trace = realize_mplus_trace(seq)
        assert trace.graph.degree_vector() == seq.entries
        assert canonical_matching(50, "plus").edges <= trace.graph.edges
        assert 0 < trace.steps <= (seq.total() - 50) // 2


class TestDescentStop:
    """realize_mplus stops at a terminal shape instead of rechecking the
    family: a shape must match exactly when the next decrement fails."""

    @staticmethod
    def _walk(seq: DegreeSequence) -> tuple[int, str | None]:
        """Walk the descent, checking the stop lemma at every state."""
        n = seq.n
        d = list(seq.entries)
        total = sum(d)
        steps = 0
        while total > n:
            p = max(i for i, x in enumerate(d) if x >= 2)
            j = next((i for i, x in enumerate(d) if x < d[0]), n)
            t = p - 1 if j > p else j - 1
            nxt = list(d)
            nxt[t] -= 1
            nxt[p] -= 1
            hit = _terminal_edges(d, total)
            assert (hit is not None) == (not _family_holds(nxt, 1)), (seq, d)
            if hit is not None:
                return steps, hit[1]
            d, total, steps = nxt, total - 2, steps + 1
        return steps, None

    def _check(self, seq: DegreeSequence) -> None:
        trace = realize_mplus_trace(seq)
        assert self._walk(seq) == (trace.steps, trace.terminal), seq

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exhaustive(self, n):
        for seq in degree_sequences(n):
            if star_check(seq).verdict:
                self._check(seq)

    def test_random_graphs(self):
        rng = random.Random(16)
        checked = 0
        while checked < 200:
            seq = gnp_sequence(rng, rng.randrange(16, 81, 2), rng.uniform(0.1, 0.9))
            if seq is not None and star_check(seq).verdict:
                self._check(seq)
                checked += 1


class TestDescentReference:
    """The O(1)-per-step descent equals the bisect-per-step one: same steps,
    same terminal shape, same edge set."""

    @staticmethod
    def _check(seq: DegreeSequence) -> None:
        assert realize_mplus_trace(seq) == realize_mplus_trace_bisect(seq), seq

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_exhaustive(self, n):
        for seq in degree_sequences(n):
            if star_check(seq).verdict:
                self._check(seq)

    def test_random_graphs(self):
        rng = random.Random(512)
        checked = 0
        while checked < 12:
            seq = gnp_sequence(rng, rng.randrange(128, 513, 2), rng.uniform(0.1, 0.9))
            if seq is not None and star_check(seq).verdict:
                self._check(seq)
                checked += 1

    @pytest.mark.parametrize(
        "entries",
        [
            (500,) * 1000,
            (200,) * 201 + (2,) + (1,) * 98,  # terminal shape (a) with k = 200
            (201,) * 201 + (5,) * 50 + (1,) * 49,  # terminal shape (c) with k = 200
        ],
    )
    def test_large_instances(self, entries):
        self._check(DegreeSequence(entries))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(10, 100).map(lambda half: 2 * half),
    percent=st.integers(10, 90),
    seed=st.integers(0, 2**32 - 1),
)
def test_realize_mplus_random_graphs(n, percent, seed):
    seq = gnp_sequence(random.Random(seed), n, percent / 100)
    assume(seq is not None and star_check(seq).verdict)
    g = realize_mplus_trace(seq).graph
    assert g.degree_vector() == seq.entries
    assert canonical_matching(n, "plus").edges <= g.edges
    assert graph_to_text(realize_mplus(seq)) == graph_to_text(g)


class TestNecessityDirection:
    """Any graph containing the consecutive matching with a weakly decreasing
    labelled degree vector must pass the inequality family."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_exhaustive_supergraphs(self, n):
        plus = canonical_matching(n, "plus")
        free = sorted(
            {(i, j) for i in range(1, n) for j in range(i + 1, n + 1)} - plus.edges
        )
        for bits in range(1 << len(free)):
            extra = {e for i, e in enumerate(free) if bits >> i & 1}
            g = LabeledGraph(n, plus.edges | extra)
            degs = g.degree_vector()
            if any(degs[i] < degs[i + 1] for i in range(n - 1)):
                continue
            assert star_check(DegreeSequence(degs)).verdict, degs

    @pytest.mark.parametrize("n", [8, 12])
    def test_random_supergraphs(self, n):
        rng = random.Random(500 + n)
        plus = canonical_matching(n, "plus")
        for _ in range(400):
            edges = set(plus.edges)
            pool = [
                (i, j)
                for i in range(1, n)
                for j in range(i + 1, n + 1)
                if (i, j) not in edges
            ]
            rng.shuffle(pool)
            degs = [1] * (n + 1)
            for u, v in pool[: rng.randint(0, len(pool))]:
                # keep the labelled degree vector weakly decreasing
                du, dv = degs[u] + 1, degs[v] + 1
                probe = degs[1:]
                probe[u - 1] += 1
                probe[v - 1] += 1
                if all(probe[i] >= probe[i + 1] for i in range(n - 1)):
                    degs[u], degs[v] = du, dv
                    edges.add((u, v))
            g = LabeledGraph(n, frozenset(edges))
            assert star_check(DegreeSequence(g.degree_vector())).verdict


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_star_iff_oracle(self, n):
        plus = canonical_matching(n, "plus")
        for seq in degree_sequences(n):
            assert star_check(seq).verdict == (
                realize_matching_oracle(seq, plus) is not None
            )


class TestCorollaryBound:
    def test_boundary_square(self):
        assert corollary_bound_holds(DegreeSequence((2, 2, 2, 2)))

    def test_k4_misses_bound_but_realizes(self):
        seq = DegreeSequence((3, 3, 3, 3))
        assert not corollary_bound_holds(seq)
        assert star_check(seq).verdict  # the bound is only sufficient

    def test_near_extremal_22(self):
        seq = DegreeSequence((19,) * 15 + (11,) * 7)
        assert not corollary_bound_holds(seq)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            corollary_bound_holds(DegreeSequence((2, 2, 1, 1)))  # min degree
        with pytest.raises(PreconditionError):
            corollary_bound_holds(DegreeSequence((2, 2, 2)))  # odd n

    @settings(max_examples=80, deadline=None)
    @given(
        half=st.integers(10, 100),
        top=st.floats(0.0, 1.0),
        low=st.floats(0.0, 1.0),
        head=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half=11, top=0.8, low=0.0, head=15 / 22, seed=0)  # (19^15, 11^7) fails STAR
    def test_bound_implies_star(self, half, top, low, head, seed):
        # minimum degree >= n/2, the bound's precondition, and an even sum;
        # head copies of a top degree over n/2's is the tightness shape
        n = 2 * half
        top = half + round(top * (half - 1))
        low = half + round(low * (top - half))
        heads = round(head * n)
        rng = random.Random(seed)
        tail = sorted((rng.randint(half, low) for _ in range(n - heads)), reverse=True)
        d = [top] * heads + tail
        if sum(d) % 2:
            if d[0] < n - 1:
                d[0] += 1
            else:
                d[d.count(d[0]) - 1] -= 1
        seq = DegreeSequence(tuple(d))
        assume(eg_check(seq).verdict)
        if corollary_bound_holds(seq):
            assert star_check(seq).verdict, seq

    def test_exact_integers_no_floats(self):
        # the crossing point for n=4 is S=4: S=4 holds, S=5 cannot occur with
        # integral degrees, S=6 fails
        assert (4 * 4 + 16) ** 2 == 8 * 4**4 - 16 * 4**3


class TestTightness:
    def test_n22(self):
        t = tightness_instance(22)
        assert (t.d_star, t.k_star) == (19, 15)
        assert t.sequence.entries == (19,) * 15 + (11,) * 7
        assert t.is_graphic and t.sum_parity_even and t.alpha_le_quarter
        assert t.fails_star_at_k_star
        assert (t.star_report.row(15).lhs, t.star_report.row(15).rhs) == (285, 281)

    def test_n12_not_in_regime(self):
        t = tightness_instance(12)
        assert (t.d_star, t.k_star) == (9, 8)
        assert t.sequence.entries == (9,) * 8 + (6,) * 4
        assert t.is_graphic and not t.alpha_le_quarter
        assert t.star_report.verdict
        assert t.star_report.row(8).slack == 4

    def test_n10_parity_anomaly_reported(self):
        t = tightness_instance(10)
        assert t.alpha_le_quarter  # in the regime ...
        assert not t.sum_parity_even  # ... but the degree sum is odd
        assert not t.is_graphic

    def test_n4(self):
        t = tightness_instance(4)
        assert (t.d_star, t.k_star) == (2, 2)
        assert t.sequence.entries == (2, 2, 2, 2)
        assert t.is_graphic and t.star_report.verdict

    def test_floor_identity_and_lower_bounds(self):
        for n in range(4, 60, 2):
            t = tightness_instance(n)
            root = math.isqrt(2 * n * n)
            assert t.d_star == root - 1 - n // 2
            assert t.d_star >= n // 2 and t.k_star >= n // 2

    def test_scan_includes_22_as_full_counterexample(self):
        rows = {
            t.n: (t.alpha_le_quarter, t.sum_parity_even, t.is_graphic, t.fails_star_at_k_star)
            for t in tightness_scan(22)
        }
        assert rows[22] == (True, True, True, True)
        assert rows[10][0] and not rows[10][1]  # regime hit, parity broken

    def test_odd_rejected(self):
        with pytest.raises(InvalidInput):
            tightness_instance(9)
