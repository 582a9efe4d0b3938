"""The switch calculus on perfect matchings.

classify_switch / switch_step / switch_path walk any perfect matching to the
consecutive-pairs maximum or the nested minimum; lift_switch transports a
switch to a degree-preserving edit of a host graph, which yields the
switchwise realizer for arbitrary labelled matchings.  An independent
f-factor oracle decides realizability of any matching for cross-validation.
"""
from __future__ import annotations

import logging

from .core import (
    DegreeSequence,
    LabeledGraph,
    Matching,
    SwitchMove,
    canonical_matching,
    complete_graph,
)
from .errors import InvalidInput, InvariantViolation, PreconditionError
from .graphic import f_factor
from .mplus import realize_mplus

logger = logging.getLogger(__name__)


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


def _walk(m: Matching, direction: str) -> tuple[Matching, list[tuple[Matching, SwitchMove]]]:
    """Iterate switch_step to exhaustion; returns (final matching, step log)."""
    guard = m.n * m.n
    current = m
    log: list[tuple[Matching, SwitchMove]] = []
    while True:
        step = switch_step(current, direction)
        if step is None:
            return current, log
        current, move = step
        log.append((current, move))
        if len(log) == guard + 1:
            logger.warning(
                "switch path from %s exceeded the empirical n^2 guard (%d steps)",
                m,
                guard,
            )


def switch_path(m: Matching, target: str) -> list[SwitchMove]:
    """Moves walking m to the canonical matching ('plus' or 'minus').

    For 'minus' the moves apply forward in order starting from m.  For
    'plus' the list is ordered along the walk; applying the moves forward in
    *reverse* order starting from the consecutive-pairs matching returns to m.
    """
    if target not in ("plus", "minus"):
        raise InvalidInput(f"target must be 'plus' or 'minus', got {target!r}")
    direction = "down" if target == "minus" else "up"
    final, log = _walk(m, direction)
    expected = canonical_matching(m.n, target)
    if final != expected:
        raise InvariantViolation(
            f"switch walk from {m} terminated at {final}, not {expected}"
        )
    return [move for _, move in log]


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


def _smallest_q(
    g: LabeledGraph, anchor: int, avoid: int, extra_forbidden: tuple[int, ...]
) -> int | None:
    """Smallest q adjacent to `anchor`, not adjacent to and distinct from `avoid`."""
    banned = set(extra_forbidden) | {avoid}
    cands = [
        q
        for q in g.neighbors(anchor)
        if q not in banned and not g.has_edge(q, avoid)
    ]
    return min(cands) if cands else None


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
    w, x, y, z = move.w, move.x, move.y, move.z

    if move.kind == 3:
        # a type-3 switch factors through type 1 followed by type 2
        first = SwitchMove(w, x, y, z, 1)
        middle = m.apply_move(first)
        lifted = lift_switch(g, m, first)
        return lift_switch(lifted, middle, SwitchMove(w, x, y, z, 2))

    if move.kind == 1:
        new_a, new_b = (w, y), (x, z)
    else:
        new_a, new_b = (w, z), (x, y)
    has_a = g.has_edge(*new_a)
    has_b = g.has_edge(*new_b)

    if has_a and has_b:
        out = g
    elif not has_a and not has_b:
        out = g.replace_edges(remove=move.removed(), add=move.added())
    elif move.kind == 1:
        if has_a:  # (w,y) in g, (x,z) missing: alternate x-z-y-q
            q = _smallest_q(g, anchor=x, avoid=y, extra_forbidden=())
            if q is None:
                raise InvariantViolation(f"no repair vertex for {move} at x={x}")
            out = g.replace_edges(remove=[(x, q), (y, z)], add=[(x, z), (y, q)])
        else:  # (x,z) in g, (w,y) missing: alternate w-y-z-q
            q = _smallest_q(g, anchor=w, avoid=z, extra_forbidden=())
            if q is None:
                raise InvariantViolation(f"no repair vertex for {move} at w={w}")
            out = g.replace_edges(remove=[(w, q), (y, z)], add=[(w, y), (z, q)])
    else:
        if has_a:  # (w,z) in g, (x,y) missing: alternate x-y-q-z
            q = _smallest_q(g, anchor=y, avoid=z, extra_forbidden=())
            if q is None:
                raise InvariantViolation(f"no repair vertex for {move} at y={y}")
            out = g.replace_edges(remove=[(y, q), (x, z)], add=[(x, y), (z, q)])
        else:  # (x,y) in g, (w,z) missing: alternate w-z-x... via q at w
            q = _smallest_q(g, anchor=w, avoid=x, extra_forbidden=(z,))
            if q is None:
                raise InvariantViolation(f"no repair vertex for {move} at w={w}")
            out = g.replace_edges(remove=[(w, q), (x, z)], add=[(w, z), (x, q)])

    if out.degree_vector() != g.degree_vector():
        raise InvariantViolation(f"lift of {move} changed the degree vector")
    if not n_match.edges <= out.edges:
        raise InvariantViolation(f"lift of {move} lost the target matching")
    return out


def realize_matching_switchwise(seq: DegreeSequence, m: Matching) -> LabeledGraph:
    """A realization of seq containing the arbitrary perfect matching m.

    Builds the consecutive-pairs realization first, then replays the switch
    walk from m upwards in reverse, lifting each switch through the graph.
    """
    if m.n != seq.n:
        raise InvalidInput("matching and sequence sizes differ")
    if not m.is_perfect:
        raise PreconditionError("target matching must be perfect")
    g = realize_mplus(seq)
    _, log = _walk(m, "up")
    for after, move in reversed(log):
        g = lift_switch(g, after, move)
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
    host = LabeledGraph(seq.n, complete_graph(seq.n).edges - m.edges)
    rest = f_factor(host, seq.decremented())
    if rest is None:
        return None
    out = LabeledGraph(seq.n, rest.edges | m.edges)
    if out.degree_vector() != seq.entries:
        raise InvariantViolation("oracle witness degree audit failed")
    return out
