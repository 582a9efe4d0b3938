"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: existence by exhaustive wiring,
matchings by recursion over vertex subsets, f-factors by scanning edge
subsets.  None of it shares logic with the library's inequality families,
greedy realizers, gadget reductions or blossom search.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from degmatch import LabeledGraph


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
