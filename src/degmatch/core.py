"""Core domain objects: degree sequences, labelled graphs, matchings, factors,
and the inequality-family reports with the one row kernel behind them.

Vertices are labelled 1..n throughout the package and degree sequences are
weakly decreasing, so label i always carries the i-th largest degree.  All
objects are immutable after construction; every operation returns new values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Literal, Sequence

from .errors import InvalidInput


@dataclass(frozen=True)
class DegreeSequence:
    """A weakly decreasing vector of vertex degrees d_1 >= ... >= d_n >= 1.

    Entries are capped at n-1 so the sequence can belong to a simple graph.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(d) for d in self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n < 1:
            raise InvalidInput("degree sequence must be non-empty")
        for i, d in enumerate(entries):
            if not 1 <= d <= n - 1:
                raise InvalidInput(
                    f"degree d_{i + 1}={d} outside [1, n-1] for n={n}"
                )
            if i and entries[i - 1] < d:
                raise InvalidInput("degree sequence must be weakly decreasing")

    @property
    def n(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(self.entries)

    def decremented(self, amount: int = 1) -> tuple[int, ...]:
        """Entries minus `amount`, as a plain tuple (may contain zeros)."""
        return tuple(d - amount for d in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(d) for d in self.entries) + ")"


def _pairs_text(edges: Iterable[tuple[int, int]]) -> str:
    """Comma-separated 'i-j' pairs in the given order, e.g. '1-2,3-4'."""
    return ",".join(f"{i}-{j}" for i, j in edges)


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_pairs(n: int, edges: Iterable[tuple[int, int]]) -> None:
    """The package's one edge rule: every edge is a pair (i, j) with 1 <= i < j <= n."""
    for i, j in edges:
        if not 1 <= i < j <= n:
            if i == j:
                raise InvalidInput(f"loop at vertex {i}")
            raise InvalidInput(f"edge ({i},{j}) out of range for n={n}")


def _all_pairs(n: int) -> frozenset[tuple[int, int]]:
    """The edge set of the complete graph on {1, ..., n}."""
    return frozenset(itertools.combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class LabeledGraph:
    """A simple graph on the vertex set {1, ..., n}.

    Edges are stored as pairs (i, j) with i < j.  The canonical edge order
    used everywhere (serialization, determinism of algorithms) is the
    lexicographic order of these pairs.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise InvalidInput("graph needs at least one vertex")
        edges = self.edges
        # the realizers pass a frozenset of int pairs: keep it as it is
        if type(edges) is not frozenset or not set(
            map(type, itertools.chain.from_iterable(edges))
        ) <= {int}:
            edges = frozenset((int(a), int(b)) for a, b in edges)
            object.__setattr__(self, "edges", edges)
        _check_pairs(n, edges)

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n + 1)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def degree_vector(self) -> tuple[int, ...]:
        deg = [0] * (self.n + 1)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg[1:])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def complement(self) -> "LabeledGraph":
        return LabeledGraph(self.n, _all_pairs(self.n) - self.edges)

    def __str__(self) -> str:
        return f"graph(n={self.n}, edges={self.edge_list()})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> LabeledGraph:
    """Build a simple graph from pairs in either order, rejecting duplicates."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        e = _normalize_edge(u, v)
        if e in seen:
            raise InvalidInput(f"duplicate edge {e}")
        seen.add(e)
    return LabeledGraph(n, frozenset(seen))


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, _all_pairs(n))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges on {1, ..., n}.

    The public constructor validates and normalizes its edges.  Values
    derived from a validated matching by the package's own loops (a switch,
    a label transposition, an enumeration step) are built by _trusted.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def _trusted(cls, n: int, edges: frozenset[tuple[int, int]]) -> "Matching":
        """A Matching of edges already known valid, without __post_init__.

        The caller guarantees int pairs (i, j) with 1 <= i < j <= n that are
        pairwise vertex-disjoint, in a frozenset.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "edges", edges)
        return m

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput("matching needs at least one vertex")
        edges = frozenset(
            _normalize_edge(int(a), int(b)) for a, b in self.edges
        )
        object.__setattr__(self, "edges", edges)
        _check_pairs(self.n, edges)
        seen: set[int] = set()
        for i, j in edges:
            if i in seen or j in seen:
                raise InvalidInput(f"edge ({i},{j}) overlaps another matching edge")
            seen.add(i)
            seen.add(j)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.n

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def apply_move(self, move: "SwitchMove") -> "Matching":
        """Forward application: remove move.removed(), add move.added().

        Both pairings cover the move's four labels, so once the removed
        edges are present the result is a matching again.
        """
        removed = set(move.removed())
        added = set(move.added())
        if not removed <= self.edges:
            raise InvalidInput(f"move {move} removes edges not in the matching")
        if added & self.edges:
            raise InvalidInput(f"move {move} adds edges already present")
        return Matching._trusted(self.n, (self.edges - removed) | added)

    def __str__(self) -> str:
        return _pairs_text(self.sorted_edges())


@dataclass(frozen=True)
class SpanningFactor:
    """A spanning h-regular subgraph of the complete graph on {1, ..., n}."""

    n: int
    h: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInput("factor needs at least one vertex")
        edges = frozenset(_normalize_edge(int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        _check_pairs(self.n, edges)
        deg = [0] * (self.n + 1)
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        bad = [v for v in range(1, self.n + 1) if deg[v] != self.h]
        if bad:
            raise InvalidInput(
                f"not {self.h}-regular: vertices {bad} have wrong degree"
            )

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


# The three pairings of four vertices w < x < y < z, as positions in
# (w, x, y, z), and each switch type as (source pairing, target pairing):
#   0 disjoint {(w,x),(y,z)}   1 crossing {(w,y),(x,z)}   2 nested {(w,z),(x,y)}
#   type 1: 0 -> 1             type 2: 1 -> 2             type 3: 0 -> 2
_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
_SWITCH_KINDS = {1: (0, 1), 2: (1, 2), 3: (0, 2)}


@dataclass(frozen=True)
class SwitchMove:
    """A typed 4-vertex exchange acting on a matching."""

    w: int
    x: int
    y: int
    z: int
    kind: int

    def __post_init__(self) -> None:
        # a trusted Matching needs int labels; the package's own moves have them
        if not (
            type(self.w) is type(self.x) is type(self.y) is type(self.z) is type(self.kind) is int
        ):
            for name in ("w", "x", "y", "z", "kind"):
                object.__setattr__(self, name, int(getattr(self, name)))
        if not self.w < self.x < self.y < self.z:
            raise InvalidInput("switch vertices must satisfy w < x < y < z")
        if self.kind not in (1, 2, 3):
            raise InvalidInput(f"unknown switch type {self.kind}")

    def _pairing_edges(self, index: int) -> tuple[tuple[int, int], tuple[int, int]]:
        v = (self.w, self.x, self.y, self.z)
        (a, b), (c, d) = _PAIRINGS[index]
        return ((v[a], v[b]), (v[c], v[d]))

    def removed(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return self._pairing_edges(_SWITCH_KINDS[self.kind][0])

    def added(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return self._pairing_edges(_SWITCH_KINDS[self.kind][1])

    def __str__(self) -> str:
        return f"switch{self.kind}({self.w},{self.x},{self.y},{self.z})"


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
    suffix = list(itertools.accumulate(reversed(e), initial=0))[::-1]  # suffix[i] = sum(e[i:])
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


@dataclass(frozen=True)
class CheckRow:
    k: int
    lhs: int
    rhs: int

    @property
    def slack(self) -> int:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class CheckReport:
    """Per-k ledger for one of the inequality families (EG, STAR, DOUBLESTAR).

    The report keeps the entries and the parameter `kernel_h` it passes to
    _family_rows: 0 for EG, 1 for STAR, h for DOUBLESTAR(h).  verdict and
    first_fail_k evaluate rows only up to the first failing one, so an odd
    degree sum or an early failure costs no full scan; the CheckRow tuple is
    built the first time `rows` is read.

    verdict <=> parity_ok and structural_ok and all slacks >= 0.
    first_fail_k is set exactly when some inequality row fails.
    """

    family: str
    entries: tuple[int, ...]
    kernel_h: int
    parity_ok: bool
    structural_ok: bool
    h: int | None = None

    @cached_property
    def rows(self) -> tuple[CheckRow, ...]:
        return tuple(itertools.starmap(CheckRow, _family_rows(self.entries, self.kernel_h)))

    @cached_property
    def first_fail_k(self) -> int | None:
        return next(
            (k for k, lhs, rhs in _family_rows(self.entries, self.kernel_h) if lhs > rhs),
            None,
        )

    @property
    def failing_ks(self) -> tuple[int, ...]:
        return tuple(r.k for r in self.rows if r.slack < 0)

    @property
    def verdict(self) -> bool:
        return self.parity_ok and self.structural_ok and self.first_fail_k is None

    def row(self, k: int) -> CheckRow:
        return self.rows[k - 1]

    def as_dict(self) -> dict:
        return {
            "family": self.family if self.h is None else f"{self.family}({self.h})",
            "verdict": self.verdict,
            "parity_ok": self.parity_ok,
            "structural_ok": self.structural_ok,
            "first_fail_k": self.first_fail_k,
            "failing_ks": list(self.failing_ks),
            "rows": [
                {"k": r.k, "lhs": r.lhs, "rhs": r.rhs, "slack": r.slack}
                for r in self.rows
            ],
        }


def canonical_matching(n: int, which: Literal["plus", "minus"]) -> Matching:
    """The consecutive-pairs matching ("plus") or the nested one ("minus").

    plus  = {(1,2), (3,4), ..., (n-1,n)}
    minus = {(1,n), (2,n-1), ..., (n/2, n/2+1)}
    """
    return Matching(n, frozenset(_canonical_edges(n, which)))


def _canonical_edges(n: int, which: Literal["plus", "minus"]) -> list[tuple[int, int]]:
    """The sorted edge list of canonical_matching(n, which)."""
    if n < 2 or n % 2:
        raise InvalidInput(f"perfect matchings need even n >= 2, got {n}")
    if which == "plus":
        return [(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
    if which == "minus":
        return [(i, n + 1 - i) for i in range(1, n // 2 + 1)]
    raise InvalidInput(f"which must be 'plus' or 'minus', got {which!r}")


def canonical_h_factor(n: int, h: int) -> SpanningFactor:
    """Disjoint complete blocks K_{h+1} on consecutive label intervals."""
    if h < 1:
        raise InvalidInput(f"regularity h must be >= 1, got {h}")
    if n % (h + 1):
        raise InvalidInput(f"(h+1)={h + 1} must divide n={n}")
    edges: set[tuple[int, int]] = set()
    for start in range(1, n + 1, h + 1):
        block = range(start, start + h + 1)
        edges.update(itertools.combinations(block, 2))
    return SpanningFactor(n, h, frozenset(edges))


def phi(matching: Matching) -> int:
    """Potential sum(2^(u+v)) over matching edges; exact arbitrary precision.

    Exponents u+v can repeat across edges (e.g. the nested matching on [4]),
    so the value is a true sum, not a bit mask.
    """
    return sum(1 << (u + v) for u, v in matching.edges)


def perfect_matchings(n: int) -> Iterator[Matching]:
    """All (n-1)!! perfect matchings of {1..n} in a fixed deterministic order.

    The smallest uncovered vertex is paired with each larger uncovered vertex
    in ascending order, recursively.
    """
    if n < 2 or n % 2:
        raise InvalidInput(f"perfect matchings need even n >= 2, got {n}")

    def rec(free: list[int], acc: list[tuple[int, int]]) -> Iterator[Matching]:
        if not free:
            yield Matching._trusted(n, frozenset(acc))
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            rest = free[1:idx] + free[idx + 1 :]
            acc.append((a, b))
            yield from rec(rest, acc)
            acc.pop()

    yield from rec(list(range(1, n + 1)), [])


def degree_sequences(n: int) -> Iterator[DegreeSequence]:
    """All weakly decreasing sequences with 1 <= d_i <= n - 1."""
    if n < 2:
        return
    for tup in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
        yield DegreeSequence(tup)


def graph_to_text(g: LabeledGraph) -> str:
    """Canonical edge-list text: first line n, then 'i j' lines sorted."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edge_list())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> LabeledGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInput("empty graph text")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InvalidInput(f"first line must be the vertex count: {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            u, v = map(int, parts)
        except ValueError as exc:
            raise InvalidInput(f"malformed edge line {ln!r}") from exc
        edges.append((u, v))
    return build_graph(n, edges)
