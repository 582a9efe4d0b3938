"""Deciding and constructing realizations that contain the consecutive-pairs
perfect matching {(1,2),(3,4),...,(n-1,n)}.

star_check evaluates the strengthened Erdos-Gallai inequality family that
characterizes such realizations; realize_mplus builds a witness by an
inductive descent on the degree sum.  The bound and tightness helpers use
exact integer arithmetic only; no verdict ever touches floating point.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import neg

from .core import (
    CheckReport,
    DegreeSequence,
    LabeledGraph,
    _all_pairs,
    _canonical_edges,
)
from .errors import InvalidInput, InvariantViolation, PreconditionError
from .graphic import eg_check


def star_check(seq: DegreeSequence) -> CheckReport:
    """Inequality family deciding realizability of the consecutive-pairs matching.

    verdict is true iff the degree sum is even, n is even, and for every k:

      k even:  sum(d_i, i<=k) <= k(k-1) + sum(min(d_i - 1, k), i>k)
      k odd:   same with the single i=k+1 term replaced by min(d_{k+1}, k)

    The k=n row has empty tail sums and reads sum(d) <= n(n-1).
    """
    return CheckReport(
        family="STAR",
        entries=seq.entries,
        kernel_h=1,
        parity_ok=seq.total() % 2 == 0,
        structural_ok=seq.n % 2 == 0,
    )


def _terminal_edges(
    d: list[int], total: int
) -> tuple[set[tuple[int, int]], str] | None:
    """Direct constructions for the two sequence shapes where the descent stops.

    Returns (edge set, pattern label) or None if neither pattern matches.
    d must be weakly decreasing with entries >= 1 and sum total: then "the
    first k+1 entries equal d[0]" is d[k] == d[0], "the rest are 1's" is one
    index test, and (c)'s residual sum is total - (k+1)^2 - (n-k-1).
    """
    n = len(d)

    # (a): k+1 leading k's, one 2, trailing 1's; k even
    k = d[0]
    if (
        k >= 2
        and k % 2 == 0
        and n >= k + 2
        and d[k] == k
        and d[k + 1] == 2
        and (k + 2 == n or d[k + 2] == 1)
    ):
        edges = set(_all_pairs(k + 1))
        edges.remove((k, k + 1))
        edges.add((k, k + 2))
        edges.add((k + 1, k + 2))
        for j in range(k + 3, n, 2):
            edges.add((j, j + 1))
        return edges, "a"

    # (c): k+1 leading (k+1)'s, k even, residual degrees past them sum to k
    k = d[0] - 1
    if (
        k % 2 == 0
        and n >= k + 2
        and d[k] == k + 1
        and total - (k + 1) ** 2 - (n - k - 1) == k
    ):
        edges = set(_all_pairs(k + 1))
        edges.add((k + 1, k + 2))
        for i in range(k + 3, n, 2):
            edges.add((i, i + 1))
        nxt = 1  # next vertex of [k] still needing one extra edge
        for i in range(k + 2, n + 1):
            extra = d[i - 1] - 1
            for _ in range(extra):
                edges.add((nxt, i))
                nxt += 1
        return edges, "c"

    return None


@dataclass(frozen=True)
class RealizeTrace:
    """Result of realize_mplus plus the shape of the descent that built it."""

    graph: LabeledGraph
    steps: int
    terminal: str | None  # "a" or "c" for a terminal shape, None for the all-ones base


def realize_mplus_trace(seq: DegreeSequence) -> RealizeTrace:
    report = star_check(seq)
    if not report.verdict:
        raise PreconditionError(
            f"{seq} cannot realize the consecutive-pairs matching "
            f"(first failing k: {report.first_fail_k})"
        )
    n = seq.n
    d = list(seq.entries)
    total = sum(d)
    # Descent: repeatedly decrement the degree pair (t, p), where p is the
    # last entry >= 2 and t the first strict descent before it (so that
    # d_1 = ... = d_t, which the pattern-narrowing argument relies on); with
    # no descent before p, t = p - 1.  The decrement breaks the inequality
    # family exactly when the sequence has a terminal shape (checked at every
    # step by tests/test_mplus.py::TestDescentStop), so the descent stops
    # there and builds that shape directly instead of rechecking the family.
    # A step is O(1): p0 only moves left; a step that lowers d[t0] with
    # t0 > 0 leaves the top run d[0..t0-1], so the next j is t0 and only
    # t0 == 0 needs a bisection; and _terminal_edges is called only when an
    # inline necessary condition of shape (a) or (c) holds.
    stack: list[tuple[int, int]] = []
    terminal: str | None = None
    p0 = n - 1
    t0 = 0
    while total > n:
        d0 = d[0]
        if (
            d0 % 2 == 0 and d0 + 1 < n and d[d0 + 1] == 2
        ) or (d0 % 2 and total - d0 * d0 - (n - d0) == d0 - 1):
            hit = _terminal_edges(d, total)
            if hit is not None:
                edges, terminal = hit
                break
        while d[p0] < 2:
            p0 -= 1  # last entry >= 2
        j = t0 if t0 else bisect_left(d, 1 - d0, key=neg)  # first entry <= d0 - 1
        t0 = p0 - 1 if j > p0 else j - 1
        d[t0] -= 1
        d[p0] -= 1
        total -= 2
        stack.append((t0 + 1, p0 + 1))
    else:
        # base case: the matching itself realizes the all-ones residue
        edges = _canonical_edges(n, "plus")

    # Ascent over bitset adjacency: either the decremented edge is simply
    # re-added, or a degree-preserving square exchange makes room for it.
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    partner = [0] * (n + 2)
    for i in range(1, n + 1, 2):
        partner[i] = i + 1
        partner[i + 1] = i
    for t, p in reversed(stack):
        if not (adj[t] >> p) & 1:
            adj[t] |= 1 << p
            adj[p] |= 1 << t
            continue
        mask_le_p = (1 << (p + 1)) - 2  # vertices 1..p
        xc = ~adj[t] & mask_le_p & ~(1 << t)
        if not xc:
            raise InvariantViolation(f"no square partner x for (t={t}, p={p})")
        x = (xc & -xc).bit_length() - 1
        yc = adj[x] & ~adj[p] & ~(1 << p) & ~(1 << partner[x])
        if not yc:
            raise InvariantViolation(f"no square partner y for (t={t}, p={p}, x={x})")
        y = (yc & -yc).bit_length() - 1
        adj[x] &= ~(1 << y)
        adj[y] &= ~(1 << x)
        adj[x] |= 1 << t
        adj[t] |= 1 << x
        adj[y] |= 1 << p
        adj[p] |= 1 << y

    # read each row's set bits above the diagonal off its binary digits,
    # least significant first: str.find skips the zeros at C speed
    out_edges = []
    for v in range(1, n + 1):
        bits = bin(adj[v] >> (v + 1))[:1:-1]
        i = bits.find("1")
        while i >= 0:
            out_edges.append((v, v + 1 + i))
            i = bits.find("1", i + 1)
    graph = LabeledGraph(n, frozenset(out_edges))
    if graph.degree_vector() != seq.entries:
        raise InvariantViolation(f"degree audit failed for {seq}")
    if not graph.edges.issuperset(_canonical_edges(n, "plus")):
        raise InvariantViolation(f"matching containment audit failed for {seq}")
    return RealizeTrace(graph=graph, steps=len(stack), terminal=terminal)


def realize_mplus(seq: DegreeSequence) -> LabeledGraph:
    """A realization of seq containing {(1,2),(3,4),...}; star_check must pass."""
    return realize_mplus_trace(seq).graph


def corollary_bound_holds(seq: DegreeSequence) -> bool:
    """Sufficient half-sum bound for realizing the consecutive-pairs matching.

    Decided exactly: with S the sum of the first n/2 degrees, the float bound
    S <= (sqrt(2 - 4/n) - 0.5) n^2 / 2 is equivalent to the integer test
    (4S + n^2)^2 <= 8n^4 - 16n^3.
    """
    n = seq.n
    if n % 2:
        raise PreconditionError(f"bound needs even n, got {n}")
    if seq.entries[-1] < n // 2:
        raise PreconditionError(f"bound needs minimum degree >= n/2, got {seq}")
    if not eg_check(seq).verdict:
        raise PreconditionError(f"bound needs a graphic sequence, got {seq}")
    s = sum(seq.entries[: n // 2])
    return (4 * s + n * n) ** 2 <= 8 * n**4 - 16 * n**3


@dataclass(frozen=True)
class TightnessExample:
    """Near-extremal sequence built from n: k_star copies of d_star, then n/2's.

    d_star = isqrt(2 n^2) - 1 - n/2 and k_star = floor((d_star + n/2 + 1)/2).
    The report records (rather than asserts) graphicality and whether the
    star family fails at exactly k_star, because the failure argument needs
    frac(n*sqrt(2)) <= 1/4 and says nothing about degree-sum parity.
    """

    n: int
    d_star: int
    k_star: int
    sequence: DegreeSequence
    is_graphic: bool
    fails_star_at_k_star: bool
    sum_parity_even: bool
    alpha_le_quarter: bool
    eg_report: CheckReport
    star_report: CheckReport

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d_star": self.d_star,
            "k_star": self.k_star,
            "sequence": list(self.sequence.entries),
            "is_graphic": self.is_graphic,
            "fails_star_at_k_star": self.fails_star_at_k_star,
            "sum_parity_even": self.sum_parity_even,
            "alpha_le_quarter": self.alpha_le_quarter,
            "star_first_fail_k": self.star_report.first_fail_k,
        }


def tightness_instance(n: int) -> TightnessExample:
    """Build and evaluate the near-extremal sequence for even n > 2."""
    if n % 2 or n <= 2:
        raise InvalidInput(f"tightness instance needs even n > 2, got {n}")
    m = math.isqrt(2 * n * n)  # floor(n * sqrt(2)); exact since 2n^2 is not a square
    d_star = m - 1 - n // 2
    k_star = (d_star + n // 2 + 1) // 2
    seq = DegreeSequence((d_star,) * k_star + (n // 2,) * (n - k_star))
    eg_report = eg_check(seq)
    star_report = star_check(seq)
    # frac(n sqrt 2) <= 1/4  <=>  32 n^2 <= 16 m^2 + 8 m + 1, exactly
    alpha_le_quarter = 32 * n * n <= 16 * m * m + 8 * m + 1
    return TightnessExample(
        n=n,
        d_star=d_star,
        k_star=k_star,
        sequence=seq,
        is_graphic=eg_report.verdict,
        fails_star_at_k_star=k_star in star_report.failing_ks,
        sum_parity_even=seq.total() % 2 == 0,
        alpha_le_quarter=alpha_le_quarter,
        eg_report=eg_report,
        star_report=star_report,
    )


def tightness_scan(n_max: int) -> list[TightnessExample]:
    """Tightness instances for all even n in [4, n_max]; flags parity failures."""
    return [tightness_instance(n) for n in range(4, n_max + 1, 2)]
