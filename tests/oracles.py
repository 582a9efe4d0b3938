"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: existence by exhaustive wiring,
matchings by recursion over vertex subsets, f-factors by scanning edge
subsets.  None of it shares logic with the library's inequality families,
greedy realizers, gadget reductions or blossom search.

The two reference realizers are the straightforward versions of
hh_realize (a full sort of the vertices at every step) and of the
realize_mplus descent (two bisections and a shape test at every step).  The
library's versions must build byte-identical graphs.

max_matching is not independent: it runs the library's own blossom search
(graphic._greedy_matching and graphic._find_and_augment) to completion,
then a Berge certification pass.  The library only needs perfect matchings;
this maximum-matching loop lets the brute-force and networkx size checks
and the ORACLE_DIGEST stream test the shared search on graphs without one.

At the end, assert_validated_matching holds a Matching built without
validation against the validating constructor, and gnp_sequence draws the
random-graph degree sequences of the property tests.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from operator import neg

from degmatch import DegreeSequence, LabeledGraph, Matching, canonical_matching, eg_check, graphic
from degmatch.errors import InvariantViolation, NotGraphicError, PreconditionError
from degmatch.mplus import RealizeTrace, _terminal_edges, star_check


@lru_cache(maxsize=None)
def graphic_by_search(entries: tuple[int, ...]) -> bool:
    """Is the multiset realizable by a simple graph?  Exhaustive wiring.

    The largest-degree vertex is connected to every possible subset of the
    others; memoization on the sorted residual makes this cheap for n <= 9.
    """
    d = tuple(sorted((x for x in entries if x > 0), reverse=True))
    if not d:
        return True
    first, rest = d[0], list(d[1:])
    if first > len(rest):
        return False
    for chosen in itertools.combinations(range(len(rest)), first):
        residual = list(rest)
        ok = True
        for i in chosen:
            residual[i] -= 1
            if residual[i] < 0:
                ok = False
                break
        if ok and graphic_by_search(tuple(sorted(residual, reverse=True))):
            return True
    return False


def realizations_by_search(entries: tuple[int, ...], limit: int | None = None) -> list[frozenset]:
    """All labelled edge sets realizing the degree vector (no smart pruning)."""
    n = len(entries)
    out: list[frozenset] = []
    residual = list(entries)
    edges: list[tuple[int, int]] = []

    def rec(u: int) -> bool:
        if limit is not None and len(out) >= limit:
            return True
        if u > n:
            out.append(frozenset(edges))
            return False
        need = residual[u - 1]
        cands = [v for v in range(u + 1, n + 1) if residual[v - 1] > 0]
        if need > len(cands):
            return False
        for chosen in itertools.combinations(cands, need):
            for v in chosen:
                residual[v - 1] -= 1
            residual[u - 1] = 0
            edges.extend((u, v) for v in chosen)
            stop = rec(u + 1)
            del edges[len(edges) - need:]
            for v in chosen:
                residual[v - 1] += 1
            residual[u - 1] = need
            if stop:
                return True
        return False

    rec(1)
    return out


def realization_with_edges_exists(
    entries: tuple[int, ...], forced: frozenset[tuple[int, int]]
) -> bool:
    """Is there a realization of the degree vector containing all forced edges?"""
    n = len(entries)
    residual = list(entries)
    for i, j in forced:
        residual[i - 1] -= 1
        residual[j - 1] -= 1
    if any(r < 0 for r in residual):
        return False

    def rec(u: int) -> bool:
        if u > n:
            return True
        need = residual[u - 1]
        cands = [
            v
            for v in range(u + 1, n + 1)
            if residual[v - 1] > 0 and (u, v) not in forced
        ]
        if need > len(cands):
            return False
        for chosen in itertools.combinations(cands, need):
            for v in chosen:
                residual[v - 1] -= 1
            residual[u - 1] = 0
            if rec(u + 1):
                return True
            for v in chosen:
                residual[v - 1] += 1
            residual[u - 1] = need
        return False

    return rec(1)


def max_matching_size_brute(g: LabeledGraph) -> int:
    """Maximum matching cardinality by recursion on the lowest free vertex."""

    @lru_cache(maxsize=None)
    def best(free: frozenset) -> int:
        if not free:
            return 0
        v = min(free)
        rest = free - {v}
        top = best(rest)  # leave v unmatched
        for u in g.neighbors(v):
            if u in rest:
                top = max(top, 1 + best(rest - {u}))
        return top

    return best(frozenset(range(1, g.n + 1)))


def has_perfect_matching_brute(g: LabeledGraph) -> bool:
    def rec(free: frozenset) -> bool:
        if not free:
            return True
        v = min(free)
        return any(
            rec(free - {v, u}) for u in g.neighbors(v) if u in free
        )

    if g.n % 2:
        return False
    return rec(frozenset(range(1, g.n + 1)))


def f_factor_exists_brute(host: LabeledGraph, f: tuple[int, ...]) -> bool:
    """Scan all edge subsets of the host (meant for <= 16 edges)."""
    edges = host.edge_list()
    for bits in range(1 << len(edges)):
        deg = [0] * (host.n + 1)
        for i, (u, v) in enumerate(edges):
            if bits >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if tuple(deg[1:]) == f:
            return True
    return False


def binding_number_brute(g: LabeledGraph) -> tuple[Fraction, frozenset[int]] | None:
    """min |N(X)| / |X| over non-empty vertex sets X with N(X) != V.

    Returns the value and, of the sets attaining it, the one with the smallest
    mask sum(2^(v-1)); None when N(X) = V for every X.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for size in range(1, g.n + 1):
        for xs in itertools.combinations(adj, size):
            reach = set().union(*(adj[v] for v in xs))
            if len(reach) == g.n:
                continue
            key = (Fraction(len(reach), size), sum(1 << (v - 1) for v in xs), xs)
            if best is None or key < best:
                best = key
    return None if best is None else (best[0], frozenset(best[2]))


def hh_realize_sorted(seq: DegreeSequence) -> LabeledGraph:
    """Deterministic Havel-Hakimi realization, re-sorting all n vertices per step.

    Repeatedly exhausts the vertex with the largest residual degree by
    connecting it to the vertices with the next-largest residuals; all ties
    break towards the smallest label, so the output edge set is a function
    of the input sequence alone.
    """
    report = eg_check(seq)
    if not report.verdict:
        raise NotGraphicError(f"{seq} is not graphic")
    n = seq.n
    residual = list(seq.entries)
    edges: set[tuple[int, int]] = set()
    for _ in range(n):
        # order: largest residual first, then smallest label
        order = sorted(range(1, n + 1), key=lambda v: (-residual[v - 1], v))
        u = order[0]
        need = residual[u - 1]
        if need == 0:
            break
        targets = [v for v in order[1:] if residual[v - 1] > 0][:need]
        if len(targets) < need:
            raise InvariantViolation(
                f"Havel-Hakimi ran out of targets for {seq}"
            )
        residual[u - 1] = 0
        for v in targets:
            residual[v - 1] -= 1
            edges.add((u, v) if u < v else (v, u))
    if any(residual):
        raise InvariantViolation(f"Havel-Hakimi left residual degrees for {seq}")
    g = LabeledGraph(n, frozenset(edges))
    if g.degree_vector() != seq.entries:
        raise InvariantViolation("Havel-Hakimi degree audit failed")
    return g


def realize_mplus_trace_bisect(seq: DegreeSequence) -> RealizeTrace:
    """realize_mplus_trace with two bisections and a shape test at every step."""
    report = star_check(seq)
    if not report.verdict:
        raise PreconditionError(
            f"{seq} cannot realize the consecutive-pairs matching "
            f"(first failing k: {report.first_fail_k})"
        )
    n = seq.n
    d = list(seq.entries)
    total = sum(d)
    # Descent: repeatedly decrement the degree pair (t, p), where p is the
    # last entry >= 2 and t the first strict descent before it (so that
    # d_1 = ... = d_t, which the pattern-narrowing argument relies on); with
    # no descent before p, t = p - 1.  The decrement breaks the inequality
    # family exactly when the sequence has a terminal shape (checked at every
    # step by tests/test_mplus.py::TestDescentStop), so the descent stops
    # there and builds that shape directly instead of rechecking the family.
    stack: list[tuple[int, int]] = []
    terminal: str | None = None
    edges: set[tuple[int, int]]
    while total > n:
        hit = _terminal_edges(d, total)
        if hit is not None:
            edges, terminal = hit
            break
        p0 = bisect_right(d, -2, key=neg) - 1  # last entry >= 2
        j = bisect_left(d, 1 - d[0], key=neg)  # first entry <= d[0] - 1
        t0 = p0 - 1 if j > p0 else j - 1
        d[t0] -= 1
        d[p0] -= 1
        total -= 2
        stack.append((t0 + 1, p0 + 1))
    else:
        # base case: the matching itself realizes the all-ones residue
        edges = {(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)}

    # Ascent over bitset adjacency: either the decremented edge is simply
    # re-added, or a degree-preserving square exchange makes room for it.
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    partner = [0] * (n + 2)
    for i in range(1, n + 1, 2):
        partner[i] = i + 1
        partner[i + 1] = i
    for t, p in reversed(stack):
        if not (adj[t] >> p) & 1:
            adj[t] |= 1 << p
            adj[p] |= 1 << t
            continue
        mask_le_p = (1 << (p + 1)) - 2  # vertices 1..p
        xc = ~adj[t] & mask_le_p & ~(1 << t)
        if not xc:
            raise InvariantViolation(f"no square partner x for (t={t}, p={p})")
        x = (xc & -xc).bit_length() - 1
        yc = adj[x] & ~adj[p] & ~(1 << p) & ~(1 << partner[x])
        if not yc:
            raise InvariantViolation(f"no square partner y for (t={t}, p={p}, x={x})")
        y = (yc & -yc).bit_length() - 1
        adj[x] &= ~(1 << y)
        adj[y] &= ~(1 << x)
        adj[x] |= 1 << t
        adj[t] |= 1 << x
        adj[y] |= 1 << p
        adj[p] |= 1 << y

    out_edges = set()
    for v in range(1, n + 1):
        higher = adj[v] >> (v + 1)
        u = v + 1
        while higher:
            if higher & 1:
                out_edges.add((v, u))
            higher >>= 1
            u += 1
    graph = LabeledGraph(n, frozenset(out_edges))
    if graph.degree_vector() != seq.entries:
        raise InvariantViolation(f"degree audit failed for {seq}")
    if not canonical_matching(n, "plus").edges <= graph.edges:
        raise InvariantViolation(f"matching containment audit failed for {seq}")
    return RealizeTrace(graph=graph, steps=len(stack), terminal=terminal)


def _max_matching_raw(n: int, adj: list[list[int]]) -> list[int]:
    match = [-1] * n
    graphic._greedy_matching(adj, match)
    for v in range(n):
        if match[v] < 0:
            graphic._find_and_augment(n, adj, match, v)
    # certification pass: one more scan over every exposed vertex must find
    # no augmenting path, which by Berge's lemma certifies maximality
    for v in range(n):
        if match[v] < 0 and graphic._find_and_augment(n, adj, match, v) is None:
            raise InvariantViolation("matching was not maximum after main loop")
    return match


def max_matching(g: LabeledGraph) -> Matching:
    """A maximum-cardinality matching of g (deterministic)."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edge_list():
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    match = _max_matching_raw(n, adj)
    edges = frozenset(
        (v + 1, match[v] + 1) for v in range(n) if match[v] > v
    )
    return Matching(n, edges)


def assert_validated_matching(m: Matching) -> None:
    """m equals and hashes as Matching(m.n, m.edges), with only int labels."""
    ref = Matching(m.n, m.edges)
    assert m == ref and hash(m) == hash(ref), m
    assert type(m.edges) is frozenset
    assert all(type(v) is int for e in m.edges for v in e), m


def gnp_sequence(rng: random.Random, n: int, p: float) -> DegreeSequence | None:
    """Sorted degree sequence of one G(n, p) sample; None if a vertex is isolated."""
    deg = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                deg[i] += 1
                deg[j] += 1
    deg.sort(reverse=True)
    return DegreeSequence(tuple(deg)) if deg[-1] else None
