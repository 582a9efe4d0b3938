"""Spanning h-regular factors: feasibility, realization, and matching packing.

doublestar_check generalizes the star inequality family from perfect
matchings (h=1) to the canonical h-factor made of consecutive K_{h+1}
blocks; hfactor_oracle decides realizability exactly via the f-factor
kernel.  merge_cliques_with_witness and the star product turn two odd clique
blocks into a 1-factorable merged graph, which disjoint_pms uses to extract
h pairwise disjoint perfect matchings from one realization.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    CheckReport,
    DegreeSequence,
    LabeledGraph,
    Matching,
    SpanningFactor,
    _family_holds,
    _normalize_edge,
    canonical_h_factor,
    canonical_matching,
    degree_sequences,
)
from .errors import (
    InvalidInput,
    InvariantViolation,
    PreconditionError,
    ResourceLimitError,
)
from .graphic import _realize_containing, lovasz_pm_check


def doublestar_check(seq: DegreeSequence, h: int) -> CheckReport:
    """Inequality family for realizing the canonical h-factor.

    For each k let s = k mod (h+1).  The row reads

      sum(d_i, i<=k) <= k(k-1) + sum(min(d_i - h + s, k), i in (k, k+1+h-s])
                                + sum(min(d_i - h, k),     i in (k+1+h-s, n])

    with ranges clamped to n; negative min-arguments are used as-is.  For
    h=1 this reproduces the perfect-matching family row for row.
    """
    if h < 1:
        raise InvalidInput(f"regularity h must be >= 1, got {h}")
    return CheckReport(
        family="DOUBLESTAR",
        entries=seq.entries,
        kernel_h=h,
        parity_ok=seq.total() % 2 == 0,
        structural_ok=seq.n % (h + 1) == 0,
        h=h,
    )


def hfactor_oracle(seq: DegreeSequence, h: int) -> LabeledGraph | None:
    """A realization of seq containing the canonical h-factor, or None.

    Exact decision: the complete graph minus the factor must admit a
    spanning subgraph with degrees d_i - h.
    """
    n = seq.n
    if h < 1:
        raise InvalidInput(f"regularity h must be >= 1, got {h}")
    if n % (h + 1):
        raise PreconditionError(f"(h+1)={h + 1} must divide n={n}")
    return _realize_containing(seq, canonical_h_factor(n, h).edges, h)


def near_one_factorization(m: int) -> list[Matching]:
    """Round-robin split of the complete graph on [m] (m odd) into m near-matchings.

    Class r = {(i,j) : i + j = 2r mod m}; it misses exactly vertex r, and the
    classes partition the edge set.
    """
    if m < 3 or m % 2 == 0:
        raise InvalidInput(f"near-one-factorization needs odd m >= 3, got {m}")
    classes = []
    for r in range(1, m + 1):
        edges = {
            (i, j)
            for i, j in itertools.combinations(range(1, m + 1), 2)
            if (i + j) % m == (2 * r) % m
        }
        classes.append(Matching(m, frozenset(edges)))
    return classes


def _coerce_pairs(pairs: Iterable[tuple[int, int]] | Matching) -> list[tuple[int, int]]:
    raw = pairs.edges if isinstance(pairs, Matching) else pairs
    try:
        return sorted(_normalize_edge(*e) for e in raw)
    except TypeError:
        raise InvalidInput("matching pairs must be (u, v) vertex pairs") from None


def _near_matching_missed(vertices: tuple[int, ...], pairs: list[tuple[int, int]]) -> int:
    covered = {v for e in pairs for v in e}
    if not covered <= set(vertices):
        raise InvalidInput("matching leaves its vertex set")
    if len(covered) != 2 * len(pairs) or len(covered) != len(vertices) - 1:
        raise InvalidInput("expected a near-perfect matching (misses one vertex)")
    (missed,) = set(vertices) - covered
    return missed


def _near_classes_with(
    vertices: tuple[int, ...], pairs: list[tuple[int, int]], missed: int
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Near-one-factorization of the clique on `vertices` having `pairs` as a class.

    Returns (missed_vertex, class_pairs) for every class; relabels the
    round-robin classes so the prescribed near-matching is the class missing
    `missed`.
    """
    m = len(vertices)
    sigma: dict[int, int] = {missed: m}
    for idx, (a, b) in enumerate(sorted(pairs), start=1):
        sigma[a] = idx
        sigma[b] = m - idx
    inv = {canon: v for v, canon in sigma.items()}
    # class r of near_one_factorization misses vertex r
    return [
        (inv[r], sorted(_normalize_edge(inv[i], inv[j]) for i, j in cls.edges))
        for r, cls in enumerate(near_one_factorization(m), start=1)
    ]


def star_product(
    a_vertices: Iterable[int],
    b_vertices: Iterable[int],
    m1: Iterable[tuple[int, int]] | Matching,
    m2: Iterable[tuple[int, int]] | Matching,
    n: int | None = None,
) -> LabeledGraph:
    """Merge two odd cliques: delete a near-matching from each, wire the pairs.

    Pair j of m1 (sorted order) is joined to pair j of m2 by two edges
    min-to-min and max-to-max.  The result is 2k-regular on the union (with
    |A| = |B| = 2k+1) and decomposes into 2k perfect matchings.
    """
    a = tuple(sorted(a_vertices))
    b = tuple(sorted(b_vertices))
    if len(a) != len(b) or len(a) % 2 == 0 or len(a) < 3:
        raise InvalidInput("vertex sets must share an odd size >= 3")
    if set(a) & set(b):
        raise InvalidInput("vertex sets must be disjoint")
    p1 = _coerce_pairs(m1)
    p2 = _coerce_pairs(m2)
    _near_matching_missed(a, p1)
    _near_matching_missed(b, p2)
    size = max(a[-1], b[-1]) if n is None else n
    edges = set(itertools.combinations(a, 2)) - set(p1)
    edges |= set(itertools.combinations(b, 2)) - set(p2)
    for (a1, b1), (a2, b2) in zip(p1, p2):
        edges.add(_normalize_edge(a1, a2))
        edges.add(_normalize_edge(b1, b2))
    return LabeledGraph(size, frozenset(edges))


@dataclass(frozen=True)
class MergeWitness:
    """How two cliques were merged: consumed pairs, their cross wiring, switches."""

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    pairs: tuple[
        tuple[tuple[int, int], tuple[int, int], tuple[tuple[int, int], tuple[int, int]]],
        ...,
    ]
    missed: tuple[int, int]
    switches: int

    def m1_pairs(self) -> list[tuple[int, int]]:
        return [p[0] for p in self.pairs]

    def m2_pairs(self) -> list[tuple[int, int]]:
        return [p[1] for p in self.pairs]


def merge_cliques_with_witness(
    g: LabeledGraph, a_vertices: Iterable[int], b_vertices: Iterable[int]
) -> tuple[LabeledGraph, MergeWitness]:
    """Degree-preserving switches making the two cliques contain a star product.

    Recursively (here iteratively) inspects the three smallest remaining
    vertices on each side: an existing cross matching of size two consumes a
    pair from each side for free, otherwise an empty 2x2 cross block is
    rewired by one switch.  Only edges inside the union of the two cliques
    ever change.
    """
    a = tuple(sorted(a_vertices))
    b = tuple(sorted(b_vertices))
    if len(a) != len(b) or len(a) % 2 == 0 or len(a) < 3:
        raise PreconditionError("cliques must share an odd size >= 3")
    if set(a) & set(b):
        raise PreconditionError("cliques must be vertex-disjoint")
    for vs in (a, b):
        for u, v in itertools.combinations(vs, 2):
            if not g.has_edge(u, v):
                raise PreconditionError(f"induced subgraph on {vs} is not complete")

    edges = set(g.edges)

    def has(u: int, v: int) -> bool:
        return _normalize_edge(u, v) in edges

    rem_a = list(a)
    rem_b = list(b)
    witness_pairs = []
    switches = 0
    while len(rem_a) >= 3:
        tri_a = rem_a[:3]
        tri_b = rem_b[:3]
        cross = [(v, u) for v in tri_a for u in tri_b if has(v, u)]
        picked = None
        for i in range(len(cross)):
            for j in range(i + 1, len(cross)):
                (v1, u1), (v2, u2) = cross[i], cross[j]
                if v1 != v2 and u1 != u2:
                    picked = (v1, u1, v2, u2)
                    break
            if picked:
                break
        if picked is None:
            # no cross matching of size 2: an all-absent 2x2 block exists
            swap = None
            for v1, v2 in itertools.combinations(tri_a, 2):
                for u1, u2 in itertools.combinations(tri_b, 2):
                    if not any(
                        has(v, u) for v in (v1, v2) for u in (u1, u2)
                    ):
                        swap = (v1, v2, u1, u2)
                        break
                if swap:
                    break
            if swap is None:
                raise InvariantViolation(
                    "neither a cross matching nor an empty 2x2 block exists"
                )
            v1, v2, u1, u2 = swap
            edges.remove((v1, v2))
            edges.remove((u1, u2))
            edges.add(_normalize_edge(v1, u1))
            edges.add(_normalize_edge(v2, u2))
            switches += 1
            picked = (v1, u1, v2, u2)
        v1, u1, v2, u2 = picked
        witness_pairs.append(
            (
                _normalize_edge(v1, v2),
                _normalize_edge(u1, u2),
                (_normalize_edge(v1, u1), _normalize_edge(v2, u2)),
            )
        )
        for v in (v1, v2):
            rem_a.remove(v)
        for u in (u1, u2):
            rem_b.remove(u)

    out = LabeledGraph(g.n, frozenset(edges))
    if out.degree_vector() != g.degree_vector():
        raise InvariantViolation("clique merge changed the degree vector")
    witness = MergeWitness(
        a_vertices=a,
        b_vertices=b,
        pairs=tuple(witness_pairs),
        missed=(rem_a[0], rem_b[0]),
        switches=switches,
    )
    return out, witness


def _witness_pair_pms(witness: MergeWitness) -> list[list[tuple[int, int]]]:
    """The 2k perfect matchings of the merged pair, from the merge witness.

    Each matching is a near-matching class of the A clique, the cross edge at
    its missed vertex, and the B class missing that edge's other endpoint.
    """
    a, b = witness.a_vertices, witness.b_vertices
    classes_a = _near_classes_with(a, witness.m1_pairs(), witness.missed[0])
    classes_b = _near_classes_with(b, witness.m2_pairs(), witness.missed[1])
    class_b_at = {missed: pairs for missed, pairs in classes_b}
    cross_at: dict[int, tuple[int, int]] = {}
    for _, _, (e1, e2) in witness.pairs:
        for e in (e1, e2):
            ea = e[0] if e[0] in set(a) else e[1]
            cross_at[ea] = e
    pms = []
    for missed_a, pairs_a in sorted(classes_a):
        if missed_a == witness.missed[0]:
            continue  # this class is the deleted near-matching
        e = cross_at[missed_a]
        other = e[1] if e[0] == missed_a else e[0]
        pms.append(sorted(pairs_a + [e] + class_b_at[other]))
    return pms


def _round_robin_even(vertices: Sequence[int]) -> list[list[tuple[int, int]]]:
    """1-factorization of an even clique; the highest label is the fixed hub.

    Round r is class r of near_one_factorization on the lower labels, plus the
    edge from the hub to the vertex r that class misses.
    """
    *rest, hub = sorted(vertices)
    if len(rest) % 2 == 0:
        raise InvalidInput("even clique expected")
    if len(rest) == 1:
        return [[(rest[0], hub)]]
    return [
        sorted([(rest[r - 1], hub)] + [(rest[i - 1], rest[j - 1]) for i, j in cls.edges])
        for r, cls in enumerate(near_one_factorization(len(rest)), 1)
    ]


def disjoint_pms(seq: DegreeSequence, h: int) -> tuple[LabeledGraph, list[Matching]]:
    """A realization of seq together with h pairwise disjoint perfect matchings.

    h = 1 is exact: lovasz_pm_check decides it, and the nested matching is
    realizable whenever any perfect matching is (the paper's result (1)).
    Otherwise the doublestar family must pass and the canonical h-factor be
    realizable.  Odd h: each K_{h+1} block 1-factorizes directly.  Even h:
    consecutive blocks are merged pairwise into 1-factorable star products.
    """
    n = seq.n
    if h < 1:
        raise InvalidInput(f"regularity h must be >= 1, got {h}")
    if h == 1:
        if not lovasz_pm_check(seq):
            raise PreconditionError(f"no realization of {seq} has a perfect matching")
        m = canonical_matching(n, "minus")
        g = _realize_containing(seq, m.edges, 1)
        if g is None:
            raise InvariantViolation(f"{seq} has a perfect matching but cannot realize {m}")
        return g, [m]
    if n % 2:
        raise PreconditionError("disjoint perfect matchings need even n")
    if seq.entries[-1] < h:
        raise PreconditionError(f"minimum degree must be at least h={h}")
    if not doublestar_check(seq, h).verdict:
        raise PreconditionError(f"{seq} fails the h-factor inequality family")
    g = hfactor_oracle(seq, h)
    if g is None:
        raise PreconditionError(f"{seq} cannot realize the canonical {h}-factor")

    blocks = [tuple(range(s, s + h + 1)) for s in range(1, n + 1, h + 1)]
    per_part: list[list[list[tuple[int, int]]]] = []
    if h % 2:
        for block in blocks:
            per_part.append(_round_robin_even(block))
    else:
        if len(blocks) % 2:
            raise InvariantViolation("even h must produce an even block count")
        for i in range(0, len(blocks), 2):
            g, witness = merge_cliques_with_witness(g, blocks[i], blocks[i + 1])
            per_part.append(_witness_pair_pms(witness))

    matchings = []
    for i in range(h):
        union: set[tuple[int, int]] = set()
        for part in per_part:
            union.update(part[i])
        m = Matching(n, frozenset(union))
        if not m.is_perfect:
            raise InvariantViolation("assembled matching is not perfect")
        if not m.edges <= g.edges:
            raise InvariantViolation("assembled matching is not inside the realization")
        matchings.append(m)
    for m1, m2 in itertools.combinations(matchings, 2):
        if m1.edges & m2.edges:
            raise InvariantViolation("assembled matchings are not edge-disjoint")
    return g, matchings


def enumerate_realizations(
    seq: DegreeSequence, node_budget: int = 5_000_000
) -> list[LabeledGraph]:
    """All labelled graphs realizing seq, by pruned backtracking (n <= 12).

    Vertices are processed in label order; vertex u picks each feasible set
    of higher-labelled neighbours.  A branch survives only if the residual
    degree sequence on the untouched suffix is itself graphic, which makes
    the search exact and keeps it small at desk scale.
    """
    n = seq.n
    if n > 12:
        raise InvalidInput(f"realization enumeration is limited to n <= 12, got {n}")
    out: list[LabeledGraph] = []
    residual = list(seq.entries)
    edges: list[tuple[int, int]] = []
    budget = node_budget

    def rec(u: int) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceLimitError("realization enumeration budget exceeded")
        if u > n:
            out.append(LabeledGraph(n, frozenset(edges)))
            return
        need = residual[u - 1]
        cands = [v for v in range(u + 1, n + 1) if residual[v - 1] > 0]
        if need > len(cands):
            return
        for chosen in itertools.combinations(cands, need):
            for v in chosen:
                residual[v - 1] -= 1
            residual[u - 1] = 0
            tail = sorted((residual[v - 1] for v in range(u + 1, n + 1)), reverse=True)
            if sum(tail) % 2 == 0 and _family_holds(tail, 0):
                edges.extend((u, v) for v in chosen)
                rec(u + 1)
                del edges[len(edges) - need :]
            for v in chosen:
                residual[v - 1] += 1
            residual[u - 1] = need

    rec(1)
    return out


def enumerate_two_factors(g: LabeledGraph) -> list[SpanningFactor]:
    """All spanning 2-regular subgraphs of g, by backtracking."""
    n = g.n
    need = [0] + [2] * n
    edges: list[tuple[int, int]] = []
    out: list[SpanningFactor] = []

    def rec(u: int) -> None:
        if u > n:
            out.append(SpanningFactor(n, 2, frozenset(edges)))
            return
        k = need[u]
        if k == 0:
            rec(u + 1)
            return
        cands = [v for v in sorted(g.neighbors(u)) if v > u and need[v] > 0]
        if k > len(cands):
            return
        for chosen in itertools.combinations(cands, k):
            for v in chosen:
                need[v] -= 1
            need[u] = 0
            edges.extend((u, v) for v in chosen)
            rec(u + 1)
            del edges[len(edges) - k :]
            for v in chosen:
                need[v] += 1
            need[u] = k

    rec(1)
    return out


def two_factor_realizable(seq: DegreeSequence, factor: SpanningFactor) -> bool:
    """Whether some realization of seq contains the given labelled 2-factor."""
    if factor.n != seq.n:
        raise InvalidInput("factor and sequence sizes differ")
    return _realize_containing(seq, factor.edges, 2) is not None


def common_realizable_two_factors(seqs: Sequence[DegreeSequence]) -> list[SpanningFactor]:
    """2-factors realizable by every sequence in seqs.

    The candidate pool is the union of 2-factors over all realizations of
    seqs[0] (pass the most constrained sequence first); the rest are filtered
    by the exact realizability oracle.
    """
    if not seqs:
        raise InvalidInput("need at least one sequence")
    pool: dict[frozenset[tuple[int, int]], SpanningFactor] = {}
    for g in enumerate_realizations(seqs[0]):
        for tf in enumerate_two_factors(g):
            pool[tf.edges] = tf
    keep = [
        tf
        for tf in pool.values()
        if all(two_factor_realizable(s, tf) for s in seqs[1:])
    ]
    return sorted(keep, key=lambda tf: tf.edge_list())


def conjecture_scan(h: int, n: int) -> list[dict]:
    """Per-sequence comparison of the inequality family with the exact oracle.

    One JSON-ready record per weakly decreasing sequence of length n:
    {"sequence", "doublestar", "oracle", "note"}.  A sequence passing the
    family without a realization of the canonical factor is a finding; the
    note marks the explainable ones (minimum degree below h, which no row
    of the family can express).
    """
    records = []
    for seq in degree_sequences(n):
        family = doublestar_check(seq, h).verdict
        oracle = hfactor_oracle(seq, h) is not None
        record = {
            "sequence": list(seq.entries),
            "doublestar": family,
            "oracle": oracle,
        }
        if family and not oracle:
            record["note"] = (
                "min degree below h" if seq.entries[-1] < h else "unexplained"
            )
        records.append(record)
    return records
