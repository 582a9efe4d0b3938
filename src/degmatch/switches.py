"""The switch calculus on perfect matchings.

classify_switch / switch_step / switch_path walk any perfect matching to the
consecutive-pairs maximum or the nested minimum; lift_switch transports a
switch to a degree-preserving edit of a host graph, which yields the
switchwise realizer for arbitrary labelled matchings.  An independent
f-factor oracle decides realizability of any matching for cross-validation.
"""
from __future__ import annotations

from .core import (
    DegreeSequence,
    LabeledGraph,
    Matching,
    SwitchMove,
    canonical_matching,
)
from .errors import InvalidInput, InvariantViolation, PreconditionError, ResourceLimitError
from .graphic import _realize_containing
from .mplus import realize_mplus


def matching_from_text(text: str, n: int | None = None) -> Matching:
    """Parse 'i-j,k-l' matching text; overlapping endpoints are rejected."""
    pairs = []
    for part in text.replace(" ", "").split(","):
        if not part:
            continue
        try:
            u, v = map(int, part.split("-"))
        except ValueError as exc:
            raise InvalidInput(f"malformed matching edge {part!r}") from exc
        pairs.append((u, v))
    if not pairs:
        raise InvalidInput("empty matching text")
    size = n if n is not None else max(max(p) for p in pairs)
    return Matching(size, frozenset(pairs))


def classify_switch(m: Matching, n: Matching) -> int | None:
    """Type (1, 2 or 3) of the move m -> n, or None if n is not a switch of m.

    A switch exists exactly when the symmetric difference is a single
    4-cycle on vertices w < x < y < z matching one of the type tables.
    """
    if m.n != n.n:
        raise InvalidInput(f"matchings live on different vertex sets: {m.n} vs {n.n}")
    gone = m.edges - n.edges
    new = n.edges - m.edges
    if len(gone) != 2 or len(new) != 2:
        return None
    verts = sorted({v for e in gone | new for v in e})
    if len(verts) != 4:
        return None
    w, x, y, z = verts
    for kind in (1, 2, 3):
        move = SwitchMove(w, x, y, z, kind)
        if set(move.removed()) == gone and set(move.added()) == new:
            return kind
    return None


def _interval_relation(e1: tuple[int, int], e2: tuple[int, int]) -> str:
    """'disjoint', 'nested' or 'crossing' for vertex-disjoint intervals e1 < e2."""
    a, b = e1
    c, d = e2
    if b < c:
        return "disjoint"
    if d < b:
        return "nested"
    return "crossing"


def switch_step(
    m: Matching, direction: str
) -> tuple[Matching, SwitchMove] | None:
    """One canonical step towards the nested ('down') or consecutive ('up') matching.

    down: the lexicographically smallest disjoint edge pair is rewired by a
    type-3 switch; failing that, the smallest crossing pair by a type-2
    switch.  None is returned exactly on the nested matching.

    up: mirrored with nested pairs (reversing type 3) preferred over crossing
    pairs (reversing type 1); None exactly on the consecutive-pairs matching.
    The returned move maps the *new* matching forward onto the input.
    """
    if not m.is_perfect:
        raise PreconditionError("switch steps are defined on perfect matchings")
    if direction not in ("down", "up"):
        raise InvalidInput(f"direction must be 'down' or 'up', got {direction!r}")
    edges = m.sorted_edges()
    preferred, fallback = (
        ("disjoint", "crossing") if direction == "down" else ("nested", "crossing")
    )
    for wanted in (preferred, fallback):
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[j]
                if _interval_relation(e1, e2) != wanted:
                    continue
                a, b = e1
                c, d = e2
                if direction == "down":
                    if wanted == "disjoint":  # (w,x),(y,z) -> type 3
                        move = SwitchMove(a, b, c, d, 3)
                    else:  # crossing (w,y),(x,z) -> type 2
                        move = SwitchMove(a, c, b, d, 2)
                    return m.apply_move(move), move
                # up: the new matching carries {(w,x),(y,z)}
                if wanted == "nested":  # m has (w,z),(x,y): reverse type 3
                    move = SwitchMove(a, c, d, b, 3)
                else:  # m has (w,y),(x,z): reverse type 1
                    move = SwitchMove(a, c, b, d, 1)
                prev = Matching(
                    m.n,
                    (m.edges - {e1, e2}) | set(move.removed()),
                )
                if prev.apply_move(move) != m:
                    raise InvariantViolation("up-step reversal check failed")
                return prev, move
    return None


def _walk(m: Matching, direction: str) -> list[SwitchMove]:
    """Moves of switch_step iterated from m to the canonical end of `direction`.

    Measured walks are at most C(n/2, 2) steps (exhaustively for n <= 12, and
    plus to minus up to n = 96); past n^2 steps ResourceLimitError is raised.
    """
    guard = m.n * m.n
    current = m
    moves: list[SwitchMove] = []
    while True:
        step = switch_step(current, direction)
        if step is None:
            break
        current, move = step
        moves.append(move)
        if len(moves) > guard:
            raise ResourceLimitError(f"switch walk from {m} exceeded n^2 = {guard} steps")
    expected = canonical_matching(m.n, "minus" if direction == "down" else "plus")
    if current != expected:
        raise InvariantViolation(f"switch walk from {m} ended at {current}")
    return moves


def switch_path(m: Matching, target: str) -> list[SwitchMove]:
    """Moves walking m to the canonical matching ('plus' or 'minus').

    For 'minus' the moves apply forward in order starting from m.  For
    'plus' the list is ordered along the walk; applying the moves forward in
    *reverse* order starting from the consecutive-pairs matching returns to m.
    """
    if target not in ("plus", "minus"):
        raise InvalidInput(f"target must be 'plus' or 'minus', got {target!r}")
    return _walk(m, "down" if target == "minus" else "up")


def all_switches(m: Matching) -> list[tuple[Matching, SwitchMove]]:
    """Every matching obtainable from m by a single switch, with its move.

    For each pair of matching edges on vertices w < x < y < z, the pairing
    {(w,x),(y,z)} admits switches of types 1 and 3, the crossing pairing
    {(w,y),(x,z)} admits type 2, and the nested pairing admits none.
    """
    out: list[tuple[Matching, SwitchMove]] = []
    edges = m.sorted_edges()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            rel = _interval_relation(edges[i], edges[j])
            a, b = edges[i]
            c, d = edges[j]
            if rel == "disjoint":
                for kind in (1, 3):
                    move = SwitchMove(a, b, c, d, kind)
                    out.append((m.apply_move(move), move))
            elif rel == "crossing":
                move = SwitchMove(a, c, b, d, 2)
                out.append((m.apply_move(move), move))
    return out


def _swap(adj: list[set[int]], gone, new) -> None:
    """Remove the present edges `gone`, then add the absent edges `new`."""
    for u, v in gone:
        adj[u].remove(v)
        adj[v].remove(u)
    for u, v in new:
        if v in adj[u]:
            raise InvariantViolation(f"lift would add the existing edge ({u},{v})")
        adj[u].add(v)
        adj[v].add(u)


def _lift(adj: list[set[int]], move: SwitchMove) -> None:
    """Carry one switch through the adjacency in place, keeping every degree.

    A type-3 switch is lifted as type 1, then type 2.  Otherwise, let t(v)
    be the partner of v in the removed matching edges.  If both added edges
    are present nothing changes; if both are missing, the removed edges are
    swapped for them.  If one added edge is missing, name its endpoints so
    that p < t = t(s), take q the smallest neighbour of p outside N[t], and
    turn (s,t),(p,q) into (p,s),(t,q).  Weakly decreasing degrees guarantee
    q; its absence raises InvariantViolation.
    """
    if move.kind == 3:
        for kind in (1, 2):
            _lift(adj, SwitchMove(move.w, move.x, move.y, move.z, kind))
        return
    removed = move.removed()
    if any(v not in adj[u] for u, v in removed):
        raise PreconditionError(f"{move} removes an edge absent from the host graph")
    missing = [(a, b) for a, b in move.added() if b not in adj[a]]
    if not missing:
        return
    if len(missing) == 2:
        _swap(adj, removed, missing)
        return
    (a, b), = missing
    partner = {u: v for e in removed for u, v in (e, e[::-1])}  # t(v)
    p, s = (a, b) if a < partner[b] else (b, a)
    t = partner[s]
    q = min((v for v in adj[p] if v != t and v not in adj[t]), default=None)
    if q is None:
        raise InvariantViolation(f"no repair vertex for {move} at {p}")
    _swap(adj, ((s, t), (p, q)), ((p, s), (t, q)))


def _adjacency(g: LabeledGraph) -> list[set[int]]:
    return [set()] + [set(g.neighbors(v)) for v in range(1, g.n + 1)]


def _graph(adj: list[set[int]]) -> LabeledGraph:
    return LabeledGraph(
        len(adj) - 1,
        frozenset((u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v),
    )


def lift_switch(g: LabeledGraph, m: Matching, move: SwitchMove) -> LabeledGraph:
    """Transport the switch m -> n to the host graph, preserving all degrees.

    Requires m to be contained in g and (for the existence of the repair
    vertex q) the degree vector of g to be weakly decreasing in the labels.
    Returns a graph with the identical labelled degree vector containing the
    switched matching; raises InvariantViolation if no repair vertex exists,
    which the counting argument rules out for weakly decreasing degrees.
    """
    if not m.edges <= g.edges:
        raise PreconditionError("matching is not contained in the host graph")
    n_match = m.apply_move(move)
    adj = _adjacency(g)
    _lift(adj, move)
    out = _graph(adj)
    if out.degree_vector() != g.degree_vector():
        raise InvariantViolation(f"lift of {move} changed the degree vector")
    if not n_match.edges <= out.edges:
        raise InvariantViolation(f"lift of {move} lost the target matching")
    return out


def realize_matching_switchwise(seq: DegreeSequence, m: Matching) -> LabeledGraph:
    """A realization of seq containing the arbitrary perfect matching m.

    Builds the consecutive-pairs realization first, then replays the switch
    walk from m upwards in reverse, lifting each switch through one mutable
    adjacency; the result is audited once at the end.
    """
    if m.n != seq.n:
        raise InvalidInput("matching and sequence sizes differ")
    if not m.is_perfect:
        raise PreconditionError("target matching must be perfect")
    adj = _adjacency(realize_mplus(seq))
    for move in reversed(_walk(m, "up")):
        _lift(adj, move)
    g = _graph(adj)
    if not m.edges <= g.edges:
        raise InvariantViolation(f"switchwise realization lost {m}")
    if g.degree_vector() != seq.entries:
        raise InvariantViolation("switchwise realization degree audit failed")
    return g


def realize_matching_oracle(
    seq: DegreeSequence, m: Matching
) -> LabeledGraph | None:
    """Exact independent decision: a realization of seq containing m, or None.

    m is realizable under seq iff the complete graph minus m has a spanning
    subgraph hitting degree d_i - 1 at every vertex; the union of m with such
    a subgraph is the witness.
    """
    if m.n != seq.n:
        raise InvalidInput("matching and sequence sizes differ")
    if not m.is_perfect:
        raise PreconditionError("oracle target matching must be perfect")
    return _realize_containing(seq, m.edges, 1)
