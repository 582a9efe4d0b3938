"""The switch calculus on perfect matchings.

A switch replaces two matching edges on vertices w < x < y < z by another
pairing of the same four vertices: disjoint {(w,x),(y,z)}, crossing
{(w,y),(x,z)} or nested {(w,z),(x,y)}.  Type 1 goes disjoint -> crossing,
type 2 crossing -> nested and type 3 disjoint -> nested (core._SWITCH_KINDS).

classify_switch / all_switches read that table.  A walk step rewires the
smallest edge pair in the far pairing, else the smallest crossing pair, into
the target pairing: down to the nested minimum the far pairing is disjoint
and the target nested; up to the consecutive-pairs maximum, the reverse.
switch_path walks on one sorted edge list.  lift_switch transports a switch
to a degree-preserving edit of a host graph, which yields the switchwise
realizer for arbitrary labelled matchings.  An independent f-factor oracle
decides realizability of any matching for cross-validation.
"""
from __future__ import annotations

from bisect import insort
from itertools import combinations

from .core import (
    _SWITCH_KINDS,
    DegreeSequence,
    LabeledGraph,
    Matching,
    SwitchMove,
    _pairs_text,
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


def _pairing(e1: tuple[int, int], e2: tuple[int, int]) -> int:
    """Pairing index of vertex-disjoint edges e1 < e2: 0 disjoint, 1 crossing, 2 nested."""
    b, (c, d) = e1[1], e2
    return 0 if b < c else 2 if d < b else 1


# (source pairing, target pairing) -> switch type
_KIND_OF = {pairs: kind for kind, pairs in _SWITCH_KINDS.items()}


def classify_switch(m: Matching, n: Matching) -> int | None:
    """Type (1, 2 or 3) of the move m -> n, or None if n is not a switch of m.

    A switch exists exactly when m and n differ in two edges on the same
    four vertices, and the pairing of m's edges goes to the pairing of n's
    edges as one of the switch types prescribes.
    """
    if m.n != n.n:
        raise InvalidInput(f"matchings live on different vertex sets: {m.n} vs {n.n}")
    gone = sorted(m.edges - n.edges)
    new = sorted(n.edges - m.edges)
    if len(gone) != 2 or len(new) != 2:
        return None
    if {v for e in gone for v in e} != {v for e in new for v in e}:
        return None
    return _KIND_OF.get((_pairing(*gone), _pairing(*new)))


def _step(edges: list[tuple[int, int]], direction: str) -> SwitchMove | None:
    """One canonical walk step on a sorted perfect-matching edge list, in place.

    The step rewires the smallest edge pair in the far pairing, else the
    smallest crossing pair, into the target pairing: down, far = disjoint and
    target = nested (types 3 and 2); up, far = nested and target = disjoint
    (types 3 and 1, read in reverse).  Returns the move, which maps the old
    list forward onto the new one going down and the new onto the old going
    up, or None when no such pair is left.
    """
    down = direction == "down"
    far, target = (0, 2) if down else (2, 0)
    crossing = None
    for pair in combinations(edges, 2):
        source = _pairing(*pair)
        if source == far:
            break
        if source == 1 and crossing is None:
            crossing = pair
    else:
        if crossing is None:
            return None
        pair, source = crossing, 1
    kind = _KIND_OF[(source, target) if down else (target, source)]
    move = SwitchMove(*sorted(pair[0] + pair[1]), kind)
    gone, new = (move.removed(), move.added()) if down else (move.added(), move.removed())
    for e in gone:
        if e not in edges:
            raise InvariantViolation(f"walk step {move} misses the edge {e}")
        edges.remove(e)
    for e in new:
        insort(edges, e)
    return move


def switch_step(
    m: Matching, direction: str
) -> tuple[Matching, SwitchMove] | None:
    """One canonical step towards the nested ('down') or consecutive ('up') matching.

    down: the smallest disjoint edge pair is rewired to nested by a type-3
    switch; failing that, the smallest crossing pair by a type-2 switch.
    None is returned exactly on the nested matching.

    up: the smallest nested pair is rewired to disjoint (reversing type 3);
    failing that, the smallest crossing pair (reversing type 1).  None is
    returned exactly on the consecutive-pairs matching.  The returned move
    maps the *new* matching forward onto the input.
    """
    if not m.is_perfect:
        raise PreconditionError("switch steps are defined on perfect matchings")
    if direction not in ("down", "up"):
        raise InvalidInput(f"direction must be 'down' or 'up', got {direction!r}")
    edges = m.sorted_edges()
    move = _step(edges, direction)
    if move is None:
        return None
    return Matching(m.n, frozenset(edges)), move


def _walk(m: Matching, direction: str) -> list[SwitchMove]:
    """Moves of _step iterated from m to the canonical end of `direction`.

    Measured walks are at most C(n/2, 2) steps (exhaustively for n <= 12, and
    plus to minus up to n = 96); past n^2 steps ResourceLimitError is raised.
    """
    if not m.is_perfect:
        raise PreconditionError("switch steps are defined on perfect matchings")
    guard = m.n * m.n
    edges = m.sorted_edges()
    moves: list[SwitchMove] = []
    while (move := _step(edges, direction)) is not None:
        moves.append(move)
        if len(moves) > guard:
            raise ResourceLimitError(f"switch walk from {m} exceeded n^2 = {guard} steps")
    expected = canonical_matching(m.n, "minus" if direction == "down" else "plus")
    if edges != expected.sorted_edges():
        raise InvariantViolation(f"switch walk from {m} ended at {_pairs_text(edges)}")
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


def _moves(m: Matching) -> list[SwitchMove]:
    """Every single switch of m, in all_switches order.

    Each pair of matching edges admits the switch types whose source is its
    pairing: disjoint admits types 1 and 3, crossing type 2, nested none.
    """
    out: list[SwitchMove] = []
    for e1, e2 in combinations(m.sorted_edges(), 2):
        source = _pairing(e1, e2)
        for kind, (src, _) in _SWITCH_KINDS.items():
            if src == source:
                out.append(SwitchMove(*sorted(e1 + e2), kind))
    return out


def all_switches(m: Matching) -> list[tuple[Matching, SwitchMove]]:
    """Every matching obtainable from m by a single switch, with its move."""
    return [(m.apply_move(move), move) for move in _moves(m)]


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
