"""Classical feasibility checks and the matching/f-factor kernel.

This module powers every independent oracle in the package: the
Erdos-Gallai inequality test, a deterministic Havel-Hakimi realizer, the
Lovasz perfect-matching feasibility test, an unweighted blossom maximum
matching, and exact f-factor search via the vertex-gadget reduction to
perfect matching.
"""
from __future__ import annotations

from collections import deque
from itertools import accumulate, starmap
from typing import Iterator, Sequence

from .core import CheckReport, CheckRow, DegreeSequence, LabeledGraph, Matching
from .errors import InvalidInput, InvariantViolation, NotGraphicError


def _family_rows(entries: Sequence[int], h: int) -> Iterator[tuple[int, int, int]]:
    """Rows (k, lhs, rhs) of the h-factor family on weakly decreasing entries.

    h=0 is Erdos-Gallai and h=1 the consecutive-pairs family.  With
    e_i = d_i - h and s = k mod (h+1), row k reads

      sum(d_i, i<=k) <= k(k-1) + sum(min(e_i, k), i>k)
                     + sum(min(e_i + s, k) - min(e_i, k), i in (k, k+1+h-s])

    with ranges clamped to n; negative e_i are used as-is.
    """
    n = len(entries)
    e = [d - h for d in entries]
    suffix = list(accumulate(reversed(e), initial=0))[::-1]  # suffix[i] = sum(e[i:])
    ge = n  # #{i : e_i >= k}; only shrinks as k grows
    lhs = 0
    for k in range(1, n + 1):
        lhs += entries[k - 1]
        while ge and e[ge - 1] < k:
            ge -= 1
        if ge > k:
            rhs = k * (k - 1) + k * (ge - k) + suffix[ge]
        else:
            rhs = k * (k - 1) + suffix[k]
        s = k % (h + 1)
        if s:
            for x in e[k : k + 1 + h - s]:
                if x < k:
                    rhs += min(x + s, k) - x
        yield k, lhs, rhs


def _family_holds(entries: Sequence[int], h: int) -> bool:
    """Whether every row of _family_rows(entries, h) holds; parity is not checked."""
    return all(lhs <= rhs for _, lhs, rhs in _family_rows(entries, h))


def eg_check(seq: DegreeSequence) -> CheckReport:
    """Erdos-Gallai test: graphic iff the degree sum is even and every row holds."""
    return CheckReport(
        family="EG",
        rows=tuple(starmap(CheckRow, _family_rows(seq.entries, 0))),
        parity_ok=seq.total() % 2 == 0,
        structural_ok=True,
    )


def hh_realize(seq: DegreeSequence) -> LabeledGraph:
    """Deterministic Havel-Hakimi realization.

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


def lovasz_pm_check(seq: DegreeSequence) -> bool:
    """Whether some realization of the sequence contains a perfect matching.

    True iff n is even and both the sequence and its pointwise decrement are
    graphic.  The decremented sequence may contain zeros; the Erdos-Gallai
    test applies to it verbatim.
    """
    if seq.n % 2:
        return False
    return all(
        sum(e) % 2 == 0 and _family_holds(e, 0) for e in (seq.entries, seq.decremented())
    )


# ---------------------------------------------------------------------------
# Unweighted maximum matching in general graphs (blossom contraction).
# Array-based BFS formulation; all scratch state is per-invocation.
# A contraction costs O(|blossom|) plus the two tree paths it walks: only
# the members of the marked bases are relabelled.  Their newly reached
# nodes are enqueued in ascending index order, the order of a full scan
# over all nodes, so the search and its output are byte-identical to it.
# ---------------------------------------------------------------------------


def _greedy_matching(adj: list[list[int]], match: list[int]) -> None:
    for v in range(len(adj)):
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break


def _find_and_augment(n: int, adj: list[list[int]], match: list[int], root: int) -> bool:
    """Grow an alternating tree from `root`; augment if an exposed vertex is hit."""
    parent = [-1] * n
    base = list(range(n))
    members: dict[int, list[int]] = {}  # base -> its blossom's nodes, once contracted
    used = [False] * n
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen: set[int] = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, marked: set[int]) -> None:
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom at the common base
                cur_base = lca(v, to)
                marked: set[int] = set()
                mark_path(v, cur_base, to, marked)
                mark_path(to, cur_base, v, marked)
                blossom = members.pop(cur_base, [cur_base])
                reached = []
                for b in marked:
                    for i in members.pop(b, (b,)):
                        base[i] = cur_base
                        blossom.append(i)
                        if not used[i]:
                            used[i] = True
                            reached.append(i)
                members[cur_base] = blossom
                reached.sort()
                queue.extend(reached)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment along the alternating path back to the root
                    u = to
                    while u != -1:
                        pv = parent[u]
                        nxt = match[pv]
                        match[u] = pv
                        match[pv] = u
                        u = nxt
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _max_matching_raw(n: int, adj: list[list[int]]) -> list[int]:
    match = [-1] * n
    _greedy_matching(adj, match)
    for v in range(n):
        if match[v] < 0:
            _find_and_augment(n, adj, match, v)
    # certification pass: one more scan over every exposed vertex must find
    # no augmenting path, which by Berge's lemma certifies maximality
    for v in range(n):
        if match[v] < 0 and _find_and_augment(n, adj, match, v):
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


# ---------------------------------------------------------------------------
# Exact f-factor via the classical vertex-gadget reduction.
# ---------------------------------------------------------------------------


def f_factor(host: LabeledGraph, f: Sequence[int]) -> LabeledGraph | None:
    """A spanning subgraph of `host` with degree exactly f(v) at every v, or None.

    Each vertex v becomes deg(v) edge-ports plus deg(v)-f(v) core-ports with
    a complete bipartite gadget between them; every host edge joins one port
    of each endpoint.  Perfect matchings of the gadget correspond one-to-one
    to f-factors.  Ports are numbered along the sorted edge list, so the
    output is deterministic.
    """
    n = host.n
    if len(f) != n:
        raise InvalidInput(f"f has length {len(f)}, expected {n}")
    degs = host.degree_vector()
    for v in range(1, n + 1):
        fv = f[v - 1]
        if fv < 0 or fv > degs[v - 1]:
            raise InvalidInput(
                f"target degree f({v})={fv} outside [0, deg={degs[v - 1]}]"
            )
    if sum(f) % 2:
        return None  # odd degree total: no subgraph can realize it

    edge_list = host.edge_list()
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for e in edge_list:
        incident[e[0]].append(e)
        incident[e[1]].append(e)

    # port ids: for each vertex, edge-ports in sorted-edge order, then cores
    edge_port: dict[tuple[tuple[int, int], int], int] = {}
    port_ranges: list[tuple[int, int]] = [(0, 0)] * (n + 1)
    core_ranges: list[tuple[int, int]] = [(0, 0)] * (n + 1)
    node_count = 0
    for v in range(1, n + 1):
        start = node_count
        for e in incident[v]:
            edge_port[(e, v)] = node_count
            node_count += 1
        port_ranges[v] = (start, node_count)
        cstart = node_count
        node_count += degs[v - 1] - f[v - 1]
        core_ranges[v] = (cstart, node_count)

    adj: list[list[int]] = [[] for _ in range(node_count)]
    for v in range(1, n + 1):
        ps, pe = port_ranges[v]
        cs, ce = core_ranges[v]
        for p in range(ps, pe):
            for c in range(cs, ce):
                adj[p].append(c)
                adj[c].append(p)
    for e in edge_list:
        pu, pv = edge_port[(e, e[0])], edge_port[(e, e[1])]
        adj[pu].append(pv)
        adj[pv].append(pu)

    match = _max_matching_raw(node_count, adj)
    if any(m < 0 for m in match):
        return None
    chosen = frozenset(
        e for e in edge_list if match[edge_port[(e, e[0])]] == edge_port[(e, e[1])]
    )
    out = LabeledGraph(n, chosen)
    if out.degree_vector() != tuple(f):
        raise InvariantViolation("f-factor gadget produced wrong degrees")
    return out


def _realize_containing(
    seq: DegreeSequence, fixed_edges: frozenset[tuple[int, int]], h: int
) -> LabeledGraph | None:
    """A realization of seq containing the fixed h-regular spanning edges, or None.

    Exact: the complement of the fixed edges must have a spanning subgraph
    with degrees d_i - h; its union with them is the audited witness.
    """
    if seq.entries[-1] < h:
        return None
    rest = f_factor(LabeledGraph(seq.n, fixed_edges).complement(), seq.decremented(h))
    if rest is None:
        return None
    out = LabeledGraph(seq.n, rest.edges | fixed_edges)
    if out.degree_vector() != seq.entries:
        raise InvariantViolation("fixed-subgraph oracle witness degree audit failed")
    return out
