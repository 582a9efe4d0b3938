"""The three seeded workloads: input generators, operations and their audits.

An operation is one closed-loop request: `run` makes the program calls that
are timed, and `audit` re-checks the output outside the timed region against
the independent references in reference.py.  The inputs of an operation
are generated from (seed, workload, round, position) alone, just before the
operation and outside its timing, so any prefix of a run is reproducible.

Operations come in rounds.  A round runs every item of the workload, a
(kind, size) pair, once, in a seeded order, and a run is a whole number of
rounds.  So every seed gives the same mix of kinds and sizes; the seed
changes the order and the random structure of each input.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import degmatch as dm
import reference as ref

SEQ_BATCH = 500  # sequences per seq-batch operation
SEQ_BATCHES = 12  # seq-batch operations per round
MATCHING_BATCH = 135  # 945 = 7 * 135: each round is one pass over the n=10 matchings
SWITCH_BATCH = 10  # random n=40 matchings per switch-batch operation
SEQUENCES_N_LE_10 = 46_987  # weakly decreasing sequences, even n in 2..10
MATCHINGS_N10 = 945  # (10-1)!!


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    audit: Callable[[object], str | None]  # failure message, or None


@dataclass
class Workload:
    items: list[tuple[str, object]]  # one round: (maker name, parameter)
    makers: dict[str, Callable[[np.random.Generator, object, int, float], Op]]
    seed: int
    key: int

    def op(self, i: int) -> Op:
        """Operation i: round i // len(items), in that round's seeded order.

        Each item also gets a position u in [0, 1) that starts at a seeded
        offset and steps by the golden ratio every round, so that over a run
        the sizes drawn inside one slice are spread evenly, not clumped.
        """
        rnd, pos = divmod(i, len(self.items))
        order = np.random.default_rng([self.seed, self.key, rnd]).permutation(len(self.items))
        item = order[pos]
        offset = np.random.default_rng([self.seed, self.key]).random(len(self.items))[item]
        u = (offset + rnd * GOLDEN) % 1.0
        maker, param = self.items[item]
        rng = np.random.default_rng([self.seed, self.key, rnd, pos])
        return self.makers[maker](rng, param, rnd, u)


# --- generators ---------------------------------------------------------------


STRATA = 8  # size slices per kind in realize-large


GOLDEN = (5**0.5 - 1) / 2


def _stratum(u: float, j: int, lo: int, hi: int, step: int) -> int:
    """The size at position u of slice j of [lo, hi] on a log scale, a multiple of step.

    Sizes inside slices, not at fixed points, keep the latency distribution
    free of gaps, so its percentiles move smoothly.
    """
    x = (j + u) / STRATA
    return max(lo, int(lo * (hi / lo) ** x) // step * step)


# densities paired with the size slices, in a fixed shuffled order
DENSITIES = (0.35, 0.65, 0.5, 0.4, 0.6, 0.45, 0.55, 0.3)


def _sequence(d) -> dm.DegreeSequence:
    return dm.DegreeSequence(tuple(int(v) for v in d))


def _random_graph_degrees(rng, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, 1)
    return np.sort(upper.sum(axis=0) + upper.sum(axis=1))[::-1]


def _star_graph_degrees(rng, n: int, p: float) -> np.ndarray:
    """Degrees of a random graph G(n, p) that pass the consecutive-pairs family."""
    while True:
        d = _random_graph_degrees(rng, n, p)
        if d[-1] >= 1 and ref.family_verdicts(d[None, :], 1)[0]:
            return d


def _random_perfect_matching(rng, n: int) -> frozenset:
    perm = rng.permutation(np.arange(1, n + 1))
    return frozenset(
        (int(min(a, b)), int(max(a, b))) for a, b in zip(perm[0::2], perm[1::2])
    )


def _threshold_graph(rng, n: int, min_degree: int):
    """A random threshold graph, labelled by decreasing degree.

    Vertices join one at a time, half of them dominating (adjacent to all
    earlier vertices) and the rest isolated; the last `min_degree` join
    dominating.  A threshold sequence has exactly one labelled realization,
    so whether a matching or factor fits in this graph is the exact answer.
    """
    dom = np.zeros(n, dtype=bool)
    dom[rng.choice(n - min_degree, n // 2 - min_degree, replace=False)] = True
    dom[n - min_degree :] = True
    later = np.cumsum(dom[::-1])[::-1] - dom  # dominating vertices after v
    deg = later + np.where(dom, np.arange(n), 0)
    order = np.argsort(-deg, kind="stable")
    label = np.empty(n, dtype=np.int64)
    label[order] = np.arange(1, n + 1)
    edges = {
        (int(min(label[u], label[v])), int(max(label[u], label[v])))
        for v in range(n)
        if dom[v]
        for u in range(v)
    }
    return deg[order], edges


def _factor_graph(rng, n: int, h: int):
    """A threshold graph plus the canonical h-factor, if still degree-sorted.

    Labels keep decreasing degree, so the canonical factor of consecutive
    K_{h+1} blocks lies in a realization and the exact answer is yes.
    Rejection needs only a few draws.
    """
    factor = ref.block_factor_edges(n, h)
    while True:
        _, edges = _threshold_graph(rng, n, 1)
        edges |= factor
        deg = ref.degree_vector(n, edges)
        if all(a >= b for a, b in zip(deg, deg[1:])):
            return np.array(deg), edges


def _bounded_graph_degrees(rng, n: int, cap: int) -> np.ndarray:
    """Degrees of a random graph with every degree in [1, cap]."""
    deg = np.zeros(n, dtype=np.int64)
    edges = set()
    perm = rng.permutation(n)
    pairs = list(zip(perm[0::2], perm[1::2]))
    if n % 2:
        pairs.append((perm[-1], perm[0]))
    for _ in range(3 * n * cap):
        pairs.append(tuple(rng.integers(0, n, 2)))
    for u, v in pairs:
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < cap and deg[v] < cap:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return np.sort(deg)[::-1]


# --- audits --------------------------------------------------------------------


def _audit_reports(seq: dm.DegreeSequence, reports: dict) -> str | None:
    """Kernel verdicts against the reference, plus STAR => EG."""
    row = np.asarray(seq.entries)[None, :]
    for h, report in reports.items():
        if report.verdict != bool(ref.family_verdicts(row, h)[0]):
            return f"family h={h} verdict differs from the reference on n={seq.n}"
    if reports[1].verdict and not reports[0].verdict:
        return f"STAR passed but EG failed on n={seq.n}"
    return None


def _audit_witness(seq, graph, contained, expected: bool) -> str | None:
    if (graph is not None) != expected:
        return f"verdict {graph is not None} differs from the reference {expected} at n={seq.n}"
    if graph is None:
        return None
    return ref.audit_realization(seq.n, graph.edges, seq.entries, contained)


def _audit_all_switches(m_edges: frozenset, out) -> str | None:
    if len(out) != ref.switch_count(m_edges):
        return "all_switches returned the wrong number of moves"
    before = ref.phi(m_edges)
    for after, move in out:
        expect = ref.apply_switch(m_edges, (move.w, move.x, move.y, move.z), move.kind)
        if expect is None or after.edges != expect:
            return f"all_switches result does not match {move}"
        if not ref.phi(after.edges) < before:
            return f"phi did not drop under {move}"
    return None


def _audit_walk(m_edges: frozenset, n: int, to_plus, to_minus) -> str | None:
    """Replay both switch paths with the reference switch table."""
    cur = m_edges
    for move in to_minus:
        nxt = ref.apply_switch(cur, (move.w, move.x, move.y, move.z), move.kind)
        if nxt is None or not ref.phi(nxt) < ref.phi(cur):
            return f"switch path to minus has a bad move {move}"
        cur = nxt
    if cur != ref.minus_edges(n):
        return "switch path to minus does not end at the nested matching"
    cur = frozenset(ref.plus_edges(n))
    for move in reversed(to_plus):
        nxt = ref.apply_switch(cur, (move.w, move.x, move.y, move.z), move.kind)
        if nxt is None or not ref.phi(nxt) < ref.phi(cur):
            return f"switch path to plus has a bad move {move}"
        cur = nxt
    if cur != m_edges:
        return "switch path to plus does not lead back to the matching"
    return None


# --- realize-large ---------------------------------------------------------------


def _check_op(rng, j, rnd, u) -> Op:
    n = _stratum(u, j, 2004, 50000, 6)  # 6 | n: STAR and DOUBLESTAR(2) can pass
    d = np.minimum(np.sort(rng.integers(1, int(rng.uniform(0.1, 1.1) * n), n))[::-1], n - 1)
    if d.sum() % 2:  # lower the last copy of the maximum: stays sorted, sum turns even
        d[np.searchsorted(-d, -d[0], side="right") - 1] -= 1
    seq = _sequence(d)

    def run():
        return {0: dm.eg_check(seq), 1: dm.star_check(seq), 2: dm.doublestar_check(seq, 2)}

    return Op("check", run, lambda out: _audit_reports(seq, out))


def _mplus_op(rng, param, rnd, u) -> Op:
    j, p = param
    n = _stratum(u, j, 64, 512, 2)
    seq = _sequence(_star_graph_degrees(rng, n, p))

    def audit(trace):
        return ref.audit_realization(n, trace.graph.edges, seq.entries, ref.plus_edges(n))

    return Op("realize-mplus", lambda: dm.realize_mplus_trace(seq), audit)


def _greedy_op(rng, param, rnd, u) -> Op:
    j, p = param
    n = _stratum(u, j, 64, 512, 1)
    d = _random_graph_degrees(rng, n, p)
    while d[-1] < 1:
        d = _random_graph_degrees(rng, n, p)
    seq = _sequence(d)
    return Op(
        "greedy",
        lambda: dm.hh_realize(seq),
        lambda g: ref.audit_realization(n, g.edges, seq.entries),
    )


def _switchwise_op(rng, param, rnd, u) -> Op:
    j, p = param
    n = _stratum(u, j, 16, 96, 2)
    seq = _sequence(_star_graph_degrees(rng, n, p))
    edges = _random_perfect_matching(rng, n)
    m = dm.Matching(n, edges)
    return Op(
        "switchwise",
        lambda: dm.realize_matching_switchwise(seq, m),
        lambda g: ref.audit_realization(n, g.edges, seq.entries, edges),
    )


# --- decide-exact ----------------------------------------------------------------


def _oracle_yes_op(rng, n, rnd, u) -> Op:
    # STAR passes, so even the consecutive-pairs matching is realizable, and
    # with it every perfect matching: the exact answer is yes.
    seq = _sequence(_star_graph_degrees(rng, n, 0.5))
    edges = _random_perfect_matching(rng, n)
    m = dm.Matching(n, edges)
    return Op(
        "matching-oracle",
        lambda: dm.realize_matching_oracle(seq, m),
        lambda g: _audit_witness(seq, g, edges, True),
    )


def _oracle_no_op(rng, n, rnd, u) -> Op:
    deg, graph = _threshold_graph(rng, n, 1)
    seq = _sequence(deg)
    edges = _random_perfect_matching(rng, n)
    m = dm.Matching(n, edges)
    expected = edges <= graph
    return Op(
        "matching-oracle",
        lambda: dm.realize_matching_oracle(seq, m),
        lambda g: _audit_witness(seq, g, edges, expected),
    )


def _hfactor_op(yes: bool):
    def make(rng, param, rnd, u) -> Op:
        h, n = param
        deg, graph = _factor_graph(rng, n, h) if yes else _threshold_graph(rng, n, h)
        seq = _sequence(deg)
        factor = ref.block_factor_edges(n, h)
        expected = factor <= graph

        def audit(g):
            return _audit_witness(seq, g, factor, expected)

        return Op("hfactor-oracle", lambda: dm.hfactor_oracle(seq, h), audit)

    return make


def _pack_op(rng, n, rnd, u) -> Op:
    # the largest degree caps the hypothesis 2 * c1 * c2 < n allows; odd n
    # cannot have every degree equal to 1
    low = 1 + n % 2
    caps = [(a, b) for a in range(low, n) for b in range(low, a + 1) if 2 * a * b < n]
    c1, c2 = max(caps, key=lambda c: (c[0] * c[1], c[1]))
    s1 = _sequence(_bounded_graph_degrees(rng, n, c1))
    s2 = _sequence(_bounded_graph_degrees(rng, n, c2))

    def audit(out):
        if out is None:
            return f"pack found nothing under the degree-product hypothesis at n={n}"
        g1, g2 = out
        if g1.edges & g2.edges:
            return "packed graphs share an edge"
        return ref.audit_realization(n, g1.edges, s1.entries) or ref.audit_realization(
            n, g2.edges, s2.entries
        )

    return Op("pack", lambda: dm.pack(s1, s2), audit)


# --- sweep-small ---------------------------------------------------------------


class _Sweep:
    """Exhaustive desk-scale inputs, shuffled once per seed and cut into batches."""

    def __init__(self, seed: int, key: int):
        rng = np.random.default_rng([seed, key])
        tuples = [
            t
            for n in range(2, 11, 2)
            for t in itertools.combinations_with_replacement(range(n - 1, 0, -1), n)
        ]
        self.totals_ok = len(tuples) == SEQUENCES_N_LE_10
        # reference verdicts: EG, STAR, DOUBLESTAR(2), and Lovasz's test that
        # d and d-1 are both graphic
        verdicts = {}
        for n in range(2, 11, 2):
            ts = [t for t in tuples if len(t) == n]
            rows = np.array(ts)
            eg = ref.family_verdicts(rows, 0)
            lovasz = eg & ref.family_verdicts(rows - 1, 0)
            table = np.stack(
                [eg, ref.family_verdicts(rows, 1), ref.family_verdicts(rows, 2), lovasz], axis=1
            )
            verdicts.update(zip(ts, map(tuple, table.tolist())))
        order = rng.permutation(len(tuples))
        self.seqs = [dm.DegreeSequence(tuples[i]) for i in order]
        self.verdicts = [verdicts[tuples[i]] for i in order]

        matchings = _perfect_matchings(10)
        self.totals_ok &= len(matchings) == MATCHINGS_N10 == math.prod(range(1, 10, 2))
        self.matchings = [dm.Matching(10, matchings[i]) for i in rng.permutation(len(matchings))]

    def seq_batch(self, rng, slot, rnd, u) -> Op:
        size = len(self.seqs)
        first = (rnd * SEQ_BATCHES + slot) * SEQ_BATCH
        idx = [(first + j) % size for j in range(SEQ_BATCH)]
        batch = [self.seqs[i] for i in idx]

        def run():
            return [
                (dm.eg_check(s), dm.star_check(s), dm.lovasz_pm_check(s), dm.doublestar_check(s, 2))
                for s in batch
            ]

        def audit(out):
            for i, s, (eg, star, lov, ds) in zip(idx, batch, out):
                if (eg.verdict, star.verdict, ds.verdict, lov) != self.verdicts[i]:
                    return f"kernel verdict differs from the reference at {s}"
                if star.verdict and not eg.verdict:
                    return f"STAR passed but EG failed at {s}"
            return None

        return Op("seq-batch", run, audit)

    def matching_batch(self, rng, slot, rnd, u) -> Op:
        batch = self.matchings[slot * MATCHING_BATCH : (slot + 1) * MATCHING_BATCH]

        def run():
            return [
                (dm.switch_path(m, "plus"), dm.switch_path(m, "minus"), dm.all_switches(m))
                for m in batch
            ]

        def audit(out):
            for m, (up, down, moves) in zip(batch, out):
                err = _audit_walk(m.edges, 10, up, down) or _audit_all_switches(m.edges, moves)
                if err:
                    return err
            return None

        return Op("matching-batch", run, audit)


def _perfect_matchings(n: int) -> list[frozenset]:
    out = []

    def rec(free, acc):
        if not free:
            out.append(frozenset(acc))
            return
        for j in range(1, len(free)):
            rec(free[1:j] + free[j + 1 :], acc + [(free[0], free[j])])

    rec(list(range(1, n + 1)), [])
    return out


def _switch_batch_op(rng, slot, rnd, u) -> Op:
    batch = [dm.Matching(40, _random_perfect_matching(rng, 40)) for _ in range(SWITCH_BATCH)]

    def audit(out):
        for m, moves in zip(batch, out):
            err = _audit_all_switches(m.edges, moves)
            if err:
                return err
        return None

    return Op("switch-batch", lambda: [dm.all_switches(m) for m in batch], audit)


def _preorder_op(rng, n, rnd, u) -> Op:
    plus, minus = ref.plus_edges(n), ref.minus_edges(n)
    tuples = list(itertools.combinations_with_replacement(range(n - 1, 0, -1), n))
    rows = np.array(tuples)
    lovasz = ref.family_verdicts(rows, 0) & ref.family_verdicts(rows - 1, 0)
    feasible = [t for t, ok in zip(tuples, lovasz) if ok]
    star = {t: bool(v) for t, v in zip(tuples, ref.family_verdicts(rows, 1))}

    def run():
        table = dm.build_preorder(n)
        return table, dm.check_conjectures(table)

    def audit(out):
        table, report = out
        if len(table.matchings) != 15 or [s.entries for s in table.sequences] != feasible:
            return "preorder table has the wrong matchings or sequences"
        if table.matchings[table.plus_index].edges != plus or table.matchings[table.minus_index].edges != minus:
            return "preorder table misplaces the canonical matchings"
        p, q = table.plus_index, table.minus_index
        for s, row in zip(table.sequences, table.realizable):
            if row[p] != star[s.entries] or (row[p] and not all(row)) or (any(row) and not row[q]):
                return f"realizability row of {s} contradicts the STAR reference"
        size = len(table.matchings)
        if not all(table.leq[i][i] and table.leq[i][p] and table.leq[q][i] for i in range(size)):
            return "preorder is not reflexive with the canonical extremes"
        if not (report.antisymmetry_holds and report.switch_converse_holds):
            return "conjecture scan found a counterexample at n=6"
        return None

    return Op("preorder", run, audit)


def _binding_op(rng, n, rnd, u) -> Op:
    upper = np.triu(rng.random((n, n)) < 0.35, 1)
    edges = frozenset((int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(upper)))
    g = dm.LabeledGraph(n, edges)

    def audit(out):
        return ref.audit_binding(n, edges, out.value, out.witness)

    return Op("binding", lambda: dm.binding_number(g), audit)


# --- registry ----------------------------------------------------------------------

WHY = {
    "realize-large": "inequality kernels and constructive realizers at large n; the exact oracle is never called",
    "decide-exact": "exact f-factor oracle (gadget build plus blossom search) on matching, h-factor and packing queries; one third answer no",
    "sweep-small": "exhaustive desk-scale sweeps of tiny inputs, where per-call overhead and core value validation dominate",
}


def build(name: str, seed: int) -> tuple[Workload, bool]:
    """The named workload and whether its known input totals came out right."""
    key = list(WHY).index(name)
    if name == "realize-large":
        # The two largest slices of check and realize-mplus appear twice, so
        # the 90th percentile falls inside a tier of alike operations.  Slice
        # 1 of check and slice 3 of realize-mplus, both near 40 ms, appear
        # three times, so the median does too.
        slices = range(STRATA)
        top = (STRATA - 2, STRATA - 1)
        items = (
            [("check", j) for j in (*slices, *top, 1, 1)]
            + [
                ("realize-mplus", param)
                for param in zip((*slices, *top, 3, 3), DENSITIES + (0.5, 0.5, 0.4, 0.4))
            ]
            + [("greedy", param) for param in zip(slices, DENSITIES[::-1])]
            + [("switchwise", param) for param in zip(slices, DENSITIES)]
            + [("switchwise", param) for param in zip(slices, DENSITIES[::-1])]
        )
        makers = {
            "check": _check_op,
            "realize-mplus": _mplus_op,
            "greedy": _greedy_op,
            "switchwise": _switchwise_op,
        }
        return Workload(items, makers, seed, key), True
    if name == "decide-exact":
        # Sizes are tiered so that both percentiles sit among many alike
        # operations whose cost varies little from input to input: `pack`
        # at n 19-21 (cost varies ~12%) holds the median, and "yes"
        # oracle calls at n=30 (~19%) hold the 90th percentile.  "No" oracle
        # calls vary 30-50% and stay one per size.  The ends of the ranges
        # still appear in every round.
        oracle_yes = (12, 16, 18, 20, 20, 22, 22, 24, 26, 28, 30, 30, 30, 30, 32)
        oracle_no = (12, 16, 18, 20, 20, 22, 22, 24, 26, 28, 28, 32)
        factor_yes = ((2, 12), (3, 16), (2, 21), (3, 20), (2, 24), (3, 24), (2, 27), (2, 27))
        items = (
            [("oracle-yes", n) for n in oracle_yes]
            + [("oracle-no", n) for n in oracle_no]
            + [("hfactor-yes", hn) for hn in factor_yes]
            + [("hfactor-no", hn) for hn in ((2, 18), (3, 20), (2, 24), (3, 28))]
            + [("pack", n) for n in (12, 14, 16, 18, 19, 19, 19, 20, 21, 21, 21, 22, 23, 24)]
        )
        makers = {
            "oracle-yes": _oracle_yes_op,
            "oracle-no": _oracle_no_op,
            "hfactor-yes": _hfactor_op(True),
            "hfactor-no": _hfactor_op(False),
            "pack": _pack_op,
        }
        return Workload(items, makers, seed, key), True
    sweep = _Sweep(seed, key)
    items = (
        [("seq-batch", slot) for slot in range(SEQ_BATCHES)]
        + [("matching-batch", slot) for slot in range(MATCHINGS_N10 // MATCHING_BATCH)]
        + [("switch-batch", slot) for slot in range(4)]
        + [("preorder", 6)]
        + [("binding", n) for n in (10, 12, 14, 16)]
    )
    makers = {
        "seq-batch": sweep.seq_batch,
        "matching-batch": sweep.matching_batch,
        "switch-batch": _switch_batch_op,
        "preorder": _preorder_op,
        "binding": _binding_op,
    }
    return Workload(items, makers, seed, key), sweep.totals_ok
