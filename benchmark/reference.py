"""Independent reference answers used to audit the program's outputs.

Nothing here imports degmatch.  The inequality families are evaluated from
their defining formulas with NumPy; realizations, switch moves and binding
numbers are re-checked from raw edge sets.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np


def family_verdicts(rows: np.ndarray, h: int) -> np.ndarray:
    """Verdict of the DOUBLESTAR(h) family for each row of an (m, n) array.

    h=0 is the Erdos-Gallai family and h=1 the consecutive-pairs matching
    family.  Each row is a weakly decreasing sequence.  For prefix length k
    with s = k mod (h+1) and e = min(k+1+h-s, n), row k reads

      sum(d_i, i<=k) <= k(k-1) + sum(min(d_i - h + s, k), k < i <= e)
                                + sum(min(d_i - h, k), i > e)

    and the verdict also needs an even degree sum and (h+1) dividing n.
    """
    d = np.asarray(rows, dtype=np.int64)
    m, n = d.shape
    k = np.arange(1, n + 1, dtype=np.int64)
    lhs = np.cumsum(d, axis=1)
    shifted = d - h
    # count[r, k-1] = #{i : shifted[r, i] >= k}; rows are decreasing, so these
    # are a prefix.  Offsetting each reversed (ascending) row by a per-row
    # constant makes the flattened array sorted, so one searchsorted serves
    # every row.
    span = 2 * (n + h + 2)
    offset = (np.arange(m, dtype=np.int64) * span)[:, None]
    ascending = (shifted[:, ::-1] + offset).ravel()
    below = np.searchsorted(ascending, k[None, :] + offset, side="left")
    count = n - (below - np.arange(m, dtype=np.int64)[:, None] * n)
    suffix = np.zeros((m, n + 1), dtype=np.int64)
    suffix[:, :n] = np.cumsum(shifted[:, ::-1], axis=1)[:, ::-1]

    s = k % (h + 1)
    end = np.minimum(k + 1 + h - s, n)  # 1-based, inclusive
    rhs = np.broadcast_to(k * (k - 1), (m, n)).copy()
    for j in range(1, h + 2):
        i = k + j  # 1-based window index
        inside = i <= end
        col = np.minimum(i, n) - 1
        rhs += np.where(inside, np.minimum(d[:, col] - h + s, k), 0)
    # sum(min(shifted_i, k)) over 0-based i >= end: capped part plus raw tail
    capped = np.maximum(0, count - end)
    rhs += k * capped + np.take_along_axis(suffix, np.maximum(end, count), axis=1)

    parity = d.sum(axis=1) % 2 == 0
    return parity & (n % (h + 1) == 0) & (lhs <= rhs).all(axis=1)


def degree_vector(n: int, edges) -> tuple[int, ...] | None:
    """Degrees of vertices 1..n, or None if some edge is not a simple pair."""
    deg = [0] * (n + 1)
    for i, j in edges:
        if not 1 <= i < j <= n:
            return None
        deg[i] += 1
        deg[j] += 1
    return tuple(deg[1:])


def audit_realization(n, edges, degrees, contained=()) -> str | None:
    """Failure message unless `edges` realize `degrees` and hold `contained`."""
    got = degree_vector(n, edges)
    if got is None:
        return "realization has an edge outside 1 <= i < j <= n"
    if got != tuple(degrees):
        return "realization has the wrong degrees"
    missing = set(contained) - set(edges)
    if missing:
        return f"realization lacks required edge {min(missing)}"
    return None


def plus_edges(n: int) -> set[tuple[int, int]]:
    return {(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)}


def minus_edges(n: int) -> set[tuple[int, int]]:
    return {(i, n + 1 - i) for i in range(1, n // 2 + 1)}


def block_factor_edges(n: int, h: int) -> set[tuple[int, int]]:
    """Edges of the disjoint cliques K_{h+1} on consecutive label blocks."""
    return {
        (a, b)
        for start in range(1, n + 1, h + 1)
        for a in range(start, start + h + 1)
        for b in range(a + 1, start + h + 1)
    }


def phi(edges) -> int:
    return sum(1 << (u + v) for u, v in edges)


# (removed pairing, added pairing) as positions in the sorted quadruple
_SWITCHES = {
    1: (((0, 1), (2, 3)), ((0, 2), (1, 3))),
    2: (((0, 2), (1, 3)), ((0, 3), (1, 2))),
    3: (((0, 1), (2, 3)), ((0, 3), (1, 2))),
}


def apply_switch(edges: frozenset, quad: tuple[int, int, int, int], kind: int) -> frozenset | None:
    """The matching after a forward switch, or None if the move does not apply."""
    w = sorted(quad)
    if w != list(quad) or len(set(w)) != 4 or kind not in _SWITCHES:
        return None
    gone_pos, new_pos = _SWITCHES[kind]
    gone = {(w[a], w[b]) for a, b in gone_pos}
    new = {(w[a], w[b]) for a, b in new_pos}
    if not gone <= edges or new & edges:
        return None
    return (edges - gone) | new


def switch_count(edges) -> int:
    """Number of single switches out of a perfect matching.

    A disjoint pair of intervals admits types 1 and 3, a crossing pair
    type 2, and a nested pair none.
    """
    es = sorted(edges)
    total = 0
    for i, (a, b) in enumerate(es):
        for c, d in es[i + 1 :]:
            if b < c:
                total += 2
            elif b < d:
                total += 1
    return total


def audit_binding(n: int, edges, value: Fraction, witness) -> str | None:
    """Exact check that `value` is min |N(X)|/|X| over X with N(X) != V."""
    masks = np.zeros(n, dtype=np.uint32)
    for i, j in edges:
        masks[i - 1] |= np.uint32(1 << (j - 1))
        masks[j - 1] |= np.uint32(1 << (i - 1))
    neigh = np.zeros(1 << n, dtype=np.uint32)
    for v in range(n):
        neigh[1 << v : 1 << (v + 1)] = neigh[: 1 << v] | masks[v]
    subsets = np.arange(1 << n, dtype=np.uint32)
    size = np.bitwise_count(subsets).astype(np.int64)
    reach = np.bitwise_count(neigh).astype(np.int64)
    valid = (size > 0) & (reach < n)
    p, q = value.numerator, value.denominator
    if (reach[valid] * q < p * size[valid]).any():
        return f"binding number {value} is not the minimum"
    x = sum(1 << (v - 1) for v in witness)
    if not valid[x] or Fraction(int(reach[x]), int(size[x])) != value:
        return f"binding witness {sorted(witness)} does not attain {value}"
    return None
