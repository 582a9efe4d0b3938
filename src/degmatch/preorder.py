"""Exhaustive computation of the realizability preorder on perfect matchings.

For small even n, every perfect matching is scored against every degree
sequence that can realize a perfect matching at all; N <= M holds when every
sequence realizing M also realizes N.  The relation is reflexive and
transitive by construction but only conjecturally antisymmetric, so the
Hasse rendering collapses mutually comparable matchings into one node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DegreeSequence,
    Matching,
    _normalize_edge,
    canonical_matching,
    degree_sequences,
    perfect_matchings,
)
from .errors import InvalidInput
from .graphic import lovasz_pm_check
from .switches import all_switches, realize_matching_oracle

PREORDER_LIMIT = 8  # (n-1)!! matchings times all feasible sequences stays desk-scale


@dataclass(frozen=True)
class PreorderTable:
    """Realizability matrix and the derived relation for one even n."""

    n: int
    matchings: tuple[Matching, ...]
    sequences: tuple[DegreeSequence, ...]
    realizable: tuple[tuple[bool, ...], ...]  # [sequence][matching]
    leq: tuple[tuple[bool, ...], ...]  # leq[i][j] <=> M_i <= M_j
    plus_index: int
    minus_index: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "matchings": [str(m) for m in self.matchings],
            "sequences": [list(s.entries) for s in self.sequences],
            "realizable": [list(row) for row in self.realizable],
            "leq": [list(row) for row in self.leq],
            "plus_index": self.plus_index,
            "minus_index": self.minus_index,
        }


def _relabel_matching(m: Matching, a: int, b: int) -> Matching:
    """m with the labels a and b (both in 1..m.n) exchanged."""
    swap = {a: b, b: a}
    return Matching._trusted(
        m.n,
        frozenset(_normalize_edge(swap.get(u, u), swap.get(v, v)) for u, v in m.edges),
    )


def _orbit_representatives(
    seq: DegreeSequence, matchings: tuple[Matching, ...], index_of: dict[Matching, int]
) -> list[list[int]]:
    """Partition matching indices into orbits under degree-preserving label swaps.

    Transposing two labels with equal degree maps realizable matchings to
    realizable matchings, so one oracle call per orbit suffices.
    """
    parent = list(range(len(matchings)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    swaps = [
        i for i in range(1, seq.n) if seq.entries[i - 1] == seq.entries[i]
    ]
    for idx, m in enumerate(matchings):
        for i in swaps:
            union(idx, index_of[_relabel_matching(m, i, i + 1)])
    groups: dict[int, list[int]] = {}
    for idx in range(len(matchings)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def realizability_matrix(
    seqs: Sequence[DegreeSequence], matchings: tuple[Matching, ...]
) -> list[tuple[bool, ...]]:
    """Oracle realizability of every matching (columns) under every sequence (rows).

    One oracle call per orbit of matchings under degree-preserving label
    swaps; the oracle is invariant under such relabelings.
    """
    index_of = {m: i for i, m in enumerate(matchings)}
    rows = []
    for seq in seqs:
        row = [False] * len(matchings)
        for orbit in _orbit_representatives(seq, matchings, index_of):
            hit = realize_matching_oracle(seq, matchings[orbit[0]]) is not None
            for idx in orbit:
                row[idx] = hit
        rows.append(tuple(row))
    return rows


def build_preorder(n: int) -> PreorderTable:
    """Score all matchings against all perfect-matching-feasible sequences."""
    if n % 2 or not 2 <= n <= PREORDER_LIMIT:
        raise InvalidInput(
            f"preorder tables are built for even n in [2, {PREORDER_LIMIT}], got {n}"
        )
    matchings = tuple(perfect_matchings(n))
    index_of = {m: i for i, m in enumerate(matchings)}
    sequences = tuple(s for s in degree_sequences(n) if lovasz_pm_check(s))
    realizable = tuple(realizability_matrix(sequences, matchings))

    size = len(matchings)
    leq_rows = []
    for i in range(size):
        row = []
        for j in range(size):
            row.append(all(row_s[i] for row_s in realizable if row_s[j]))
        leq_rows.append(tuple(row))
    return PreorderTable(
        n=n,
        matchings=matchings,
        sequences=sequences,
        realizable=realizable,
        leq=tuple(leq_rows),
        plus_index=index_of[canonical_matching(n, "plus")],
        minus_index=index_of[canonical_matching(n, "minus")],
    )


def _comparability_classes(table: PreorderTable) -> list[list[int]]:
    """Classes of mutually comparable matchings, sorted by smallest member."""
    size = len(table.matchings)
    seen = [False] * size
    classes = []
    for i in range(size):
        if seen[i]:
            continue
        cls = [
            j
            for j in range(size)
            if table.leq[i][j] and table.leq[j][i]
        ]
        for j in cls:
            seen[j] = True
        classes.append(sorted(cls))
    classes.sort(key=lambda c: c[0])
    return classes


def hasse_dot(table: PreorderTable) -> str:
    """DOT text of the Hasse diagram of the quotient by mutual comparability."""
    classes = _comparability_classes(table)
    reps = [c[0] for c in classes]
    k = len(classes)
    less = [
        [
            a != b and table.leq[reps[a]][reps[b]]
            for b in range(k)
        ]
        for a in range(k)
    ]
    lines = ["digraph preorder {", "  rankdir=BT;"]
    for ci, cls in enumerate(classes):
        label = "\\n".join(str(table.matchings[i]) for i in cls)
        lines.append(f'  c{ci} [label="{label}"];')
    for a in range(k):
        for b in range(k):
            if not less[a][b]:
                continue
            if any(less[a][m] and less[m][b] for m in range(k)):
                continue  # transitive edge
            lines.append(f"  c{a} -> c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConjectureReport:
    """Desk-scale evidence for the two open questions about the preorder.

    Counterexample lists are reported verbatim and deliberately not asserted
    empty: a non-empty list is a finding, not a failure.
    """

    n: int
    antisymmetry_counterexamples: tuple[tuple[Matching, Matching], ...]
    switch_converse_counterexamples: tuple[tuple[Matching, Matching], ...]

    @property
    def antisymmetry_holds(self) -> bool:
        return not self.antisymmetry_counterexamples

    @property
    def switch_converse_holds(self) -> bool:
        return not self.switch_converse_counterexamples

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "antisymmetry_holds": self.antisymmetry_holds,
            "antisymmetry_counterexamples": [
                [str(a), str(b)] for a, b in self.antisymmetry_counterexamples
            ],
            "switch_converse_holds": self.switch_converse_holds,
            "switch_converse_counterexamples": [
                [str(a), str(b)] for a, b in self.switch_converse_counterexamples
            ],
        }


def check_conjectures(table: PreorderTable) -> ConjectureReport:
    """Check antisymmetry and the switch-converse on a built table.

    switch-converse: whenever N <= M with N != M, N should be reachable from
    M in the digraph whose arcs are single switches (all three types).
    """
    matchings = table.matchings
    index_of = {m: i for i, m in enumerate(matchings)}
    size = len(matchings)

    anti = tuple(
        (matchings[i], matchings[j])
        for i in range(size)
        for j in range(i + 1, size)
        if table.leq[i][j] and table.leq[j][i]
    )

    succ: list[list[int]] = [
        [index_of[nm] for nm, _ in all_switches(m)] for m in matchings
    ]
    reach: list[set[int]] = []
    for start in range(size):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)

    converse = tuple(
        (matchings[a], matchings[b])
        for a in range(size)
        for b in range(size)
        if a != b and table.leq[a][b] and a not in reach[b]
    )
    return ConjectureReport(
        n=table.n,
        antisymmetry_counterexamples=anti,
        switch_converse_counterexamples=converse,
    )
