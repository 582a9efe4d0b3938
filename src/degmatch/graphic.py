"""Classical feasibility checks and the matching/f-factor kernel.

This module powers every independent oracle in the package: the
Erdos-Gallai inequality test, a deterministic Havel-Hakimi realizer, the
Lovasz perfect-matching feasibility test, and exact f-factor search via
the vertex-gadget reduction to perfect matching.  The package has one
blossom search loop: the perfect-matching search of that reduction, whose
"no" carries a checked Tutte barrier.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

from .core import CheckReport, DegreeSequence, LabeledGraph, _all_pairs, _family_holds
from .errors import InvalidInput, InvariantViolation, NotGraphicError


def eg_check(seq: DegreeSequence) -> CheckReport:
    """Erdos-Gallai test: graphic iff the degree sum is even and every row holds."""
    return CheckReport(
        family="EG",
        entries=seq.entries,
        kernel_h=0,
        parity_ok=seq.total() % 2 == 0,
        structural_ok=True,
    )


def hh_realize(seq: DegreeSequence) -> LabeledGraph:
    """Deterministic Havel-Hakimi realization.

    Repeatedly exhausts the vertex with the largest residual degree by
    connecting it to the vertices with the next-largest residuals; all ties
    break towards the smallest label, so the output edge set is a function
    of the input sequence alone.

    The residuals live in buckets: buckets[r] lists the vertices of residual
    r in ascending label order.  The vertex exhausted next is the head of
    the top non-empty bucket, and its targets are bucket prefixes taken from
    the top down.  A decremented prefix of bucket r merges into bucket r-1
    in label order; both runs are sorted, so sorted() merges them in O(len).
    No step sorts all n vertices.
    """
    if not eg_check(seq).verdict:
        raise NotGraphicError(f"{seq} is not graphic")
    n = seq.n
    top = seq.entries[0]
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v, d in enumerate(seq.entries, 1):
        buckets[d].append(v)
    edges: list[tuple[int, int]] = []
    while top:
        u = buckets[top].pop(0)
        need = top
        taken: list[tuple[int, list[int]]] = []
        r = top
        while need:
            while r and not buckets[r]:
                r -= 1
            if not r:
                raise InvariantViolation(f"Havel-Hakimi ran out of targets for {seq}")
            bucket = buckets[r]
            prefix, buckets[r] = bucket[:need], bucket[need:]
            taken.append((r, prefix))
            need -= len(prefix)
            r -= 1
        for r, prefix in taken:
            edges.extend((u, v) if u < v else (v, u) for v in prefix)
            if r > 1:
                buckets[r - 1] = sorted(buckets[r - 1] + prefix)
        while top and not buckets[top]:
            top -= 1
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
# Perfect matching in general graphs (blossom contraction).
# Array-based BFS formulation; all scratch state is per-invocation.
# A contraction costs O(|blossom|) plus the two tree paths it walks: only
# the members of the marked bases are relabelled.  Their newly reached
# nodes are enqueued in ascending index order, the order of a full scan
# over all nodes, so the search and its output are byte-identical to it.
#
# A search that fails ends in a frustrated tree (Edmonds 1965): every edge
# that leaves an outer vertex ends at an inner vertex or inside the same
# blossom.  The inner vertices U then leave the |U| + 1 outer blossoms as
# odd components of G - U, so by Tutte (1947) G has no perfect matching.
# The search therefore stops at its first failed search and returns U;
# _check_tutte_barrier recounts the odd components of G - U by its own BFS,
# so no "no" rests on the search alone.  On a "yes" no search fails: the
# path of M xor P from the root augments for any perfect matching P.
# ---------------------------------------------------------------------------


def _greedy_matching(adj: list[list[int]], match: list[int]) -> None:
    for v in range(len(adj)):
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[v] = u
                    match[u] = v
                    break


def _find_and_augment(
    n: int, adj: list[list[int]], match: list[int], root: int
) -> list[bool] | None:
    """Grow an alternating tree from `root`; augment if an exposed vertex is hit.

    Returns None after augmenting, else the outer marks of the frustrated tree.
    """
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
                    return None
                used[match[to]] = True
                queue.append(match[to])
    return used


def _perfect_matching(adj: list[list[int]]) -> tuple[list[int], list[int] | None]:
    """(match, None) with a perfect match, or (partial match, Tutte barrier U).

    A greedy start, then one search per exposed vertex, stopped at the
    first failed search.
    U is the tree's inner vertices: the mates of its outer vertices that are
    not outer themselves (the exposed root has no mate).
    """
    n = len(adj)
    match = [-1] * n
    _greedy_matching(adj, match)
    for v in range(n):
        if match[v] < 0:
            outer = _find_and_augment(n, adj, match, v)
            if outer is not None:
                inner = [m for u, m in enumerate(match) if outer[u] and m >= 0 and not outer[m]]
                return match, inner
    return match, None


def _check_tutte_barrier(adj: list[list[int]], barrier: Sequence[int]) -> None:
    """Raise InvariantViolation unless G - U has more than |U| odd components.

    Such a U proves by Tutte's theorem that G has no perfect matching.  The
    count is a plain BFS over adj and reads nothing of the search behind U.
    """
    removed = set(barrier)
    seen = [v in removed for v in range(len(adj))]
    odd = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        queue = deque([s])
        size = 0
        while queue:
            v = queue.popleft()
            size += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        odd += size % 2
    if odd <= len(removed):
        raise InvariantViolation(
            f"claimed Tutte barrier of {len(removed)} vertices leaves {odd} odd components"
        )


# ---------------------------------------------------------------------------
# Exact f-factor via the classical vertex-gadget reduction.
# ---------------------------------------------------------------------------


def f_factor(host: LabeledGraph, f: Sequence[int]) -> LabeledGraph | None:
    """A spanning subgraph of `host` with degree exactly f(v) at every v, or None.

    Each vertex v becomes deg(v) edge-ports plus deg(v)-f(v) core-ports with
    a complete bipartite gadget between them; every host edge joins one port
    of each endpoint.  Perfect matchings of the gadget correspond one-to-one
    to f-factors.  Ports are numbered along the sorted edge list, so the
    output is deterministic.  Every None is proved: by an odd degree total,
    or by a Tutte barrier of the gadget that _check_tutte_barrier recounted.
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
    # the k-th edge (u, v), u < v, has its port at u in slot 2k, at v in 2k + 1
    slots: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (u, v) in enumerate(edge_list):
        slots[u].append(2 * k)
        slots[v].append(2 * k + 1)

    # node ids: for each vertex, edge-ports in sorted-edge order, then cores.
    # A port lists its cores ascending, then its edge partner; a core lists
    # its ports ascending.  The partner of the port in slot 2k + 1 is the
    # already numbered port in slot 2k.
    port = [0] * (2 * len(edge_list))
    adj: list[list[int]] = []
    for v in range(1, n + 1):
        ps = len(adj)
        cs = ps + degs[v - 1]
        cores = range(cs, cs + degs[v - 1] - f[v - 1])
        for slot in slots[v]:
            p = port[slot] = len(adj)
            adj.append(list(cores))
            if slot % 2:
                adj[p].append(port[slot - 1])
                adj[port[slot - 1]].append(p)
        adj.extend(list(range(ps, cs)) for _ in cores)
    edge_ports = list(zip(port[0::2], port[1::2]))

    match, barrier = _perfect_matching(adj)
    if barrier is not None:
        _check_tutte_barrier(adj, barrier)
        return None
    chosen = frozenset(
        e for e, (pu, pv) in zip(edge_list, edge_ports) if match[pu] == pv
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
    with degrees d_i - h; its union with them is the audited witness.  An odd
    total of d_i - h answers None before the O(n^2) complement is built.
    """
    if seq.entries[-1] < h or (seq.total() - h * seq.n) % 2:
        return None
    rest = f_factor(LabeledGraph(seq.n, _all_pairs(seq.n) - fixed_edges), seq.decremented(h))
    if rest is None:
        return None
    out = LabeledGraph(seq.n, rest.edges | fixed_edges)
    if out.degree_vector() != seq.entries:
        raise InvariantViolation("fixed-subgraph oracle witness degree audit failed")
    return out
