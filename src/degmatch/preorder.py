"""Exhaustive computation of the realizability preorder on perfect matchings.

For small even n, every perfect matching is scored against every degree
sequence that can realize a perfect matching at all; N <= M holds when every
sequence realizing M also realizes N.  The relation is reflexive and
transitive by construction but only conjecturally antisymmetric, so the
Hasse rendering collapses mutually comparable matchings into one node.
"""
from __future__ import annotations

import itertools
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


def realizability_matrix(
    seqs: Sequence[DegreeSequence], matchings: tuple[Matching, ...]
) -> list[tuple[bool, ...]]:
    """Oracle realizability of every matching (columns) under every sequence (rows).

    A label transposition permutes matching indices the same way for every
    sequence, so one table per call holds swaps[i - 1][j], the index of
    matching j with labels i and i + 1 exchanged.  The oracle is invariant
    under transposing two labels of equal degree; each sequence's orbits
    follow those swaps, and the oracle runs once per orbit, on its smallest
    index.
    """
    index_of = {m: i for i, m in enumerate(matchings)}
    n = matchings[0].n if matchings else 0
    swaps = [
        [index_of[_relabel_matching(m, i, i + 1)] for m in matchings] for i in range(1, n)
    ]
    rows = []
    for seq in seqs:
        d = seq.entries
        active = [swaps[i - 1] for i in range(1, seq.n) if d[i - 1] == d[i]]
        row: list[bool | None] = [None] * len(matchings)
        for j, m in enumerate(matchings):
            if row[j] is not None:
                continue
            hit = row[j] = realize_matching_oracle(seq, m) is not None
            stack = [j]
            while stack:
                k = stack.pop()
                for perm in active:
                    if row[perm[k]] is None:
                        row[perm[k]] = hit
                        stack.append(perm[k])
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

    # cols[j] has bit s set iff sequence s realizes M_j, so M_i <= M_j iff
    # cols[j] is contained in cols[i]
    cols = [
        sum(1 << s for s, row in enumerate(realizable) if row[j])
        for j in range(len(matchings))
    ]
    return PreorderTable(
        n=n,
        matchings=matchings,
        sequences=sequences,
        realizable=realizable,
        leq=tuple(tuple(cj & ~ci == 0 for cj in cols) for ci in cols),
        plus_index=index_of[canonical_matching(n, "plus")],
        minus_index=index_of[canonical_matching(n, "minus")],
    )


def _comparability_classes(table: PreorderTable) -> list[list[int]]:
    """Classes of mutually comparable matchings, sorted by smallest member.

    In a preorder M_i and M_j are mutually comparable iff their leq rows are
    equal, so the classes are the groups of equal rows.
    """
    classes: dict[tuple[bool, ...], list[int]] = {}
    for i, row in enumerate(table.leq):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


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
        for i, j in sorted(
            pair
            for cls in _comparability_classes(table)
            for pair in itertools.combinations(cls, 2)
        )
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
