"""Edge-disjoint packing of two graphic sequences, plus binding-number diagnostics.

pack realizes the first sequence greedily and then searches the complement
for an exact factor carrying the second sequence's degrees.  When the
product of the two maximum degrees is below n/2 the construction provably
succeeds for any first realization, so a miss under that hypothesis is
surfaced as an invariant violation rather than returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DegreeSequence, LabeledGraph
from .errors import InvalidInput, InvariantViolation, PreconditionError
from .graphic import eg_check, f_factor, hh_realize

BINDING_LIMIT = 24  # exhaustive subset scan; exponential by design at desk scale


@dataclass(frozen=True)
class BindingNumber:
    value: Fraction
    witness: frozenset[int]


def binding_number(g: LabeledGraph) -> BindingNumber:
    """min |N(X)| / |X| over non-empty X with N(X) != V, as an exact fraction.

    The witness is the first strict minimizer in mask enumeration order.
    """
    n = g.n
    if n > BINDING_LIMIT:
        raise InvalidInput(f"binding number scan is limited to n <= {BINDING_LIMIT}")
    masks = [0] * (n + 1)
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    full = ((1 << n) - 1) << 1  # bits 1..n
    # pref[v]: neighbourhood of the vertices >= v in the current mask x.  The
    # increment to x sets the bit of vertex v and clears every bit below it,
    # so only pref[1..v] change, O(1) amortized over the scan.
    pref = [0] * (n + 2)
    best_size, best_count, best_x = 0, 1, 0  # ratio 1/0 stands for +infinity
    for x in range(1, 1 << n):
        v = (x & -x).bit_length()  # x holds vertex v as bit v - 1
        nx = pref[v + 1] | masks[v]
        for u in range(1, v + 1):
            pref[u] = nx
        if nx == full:
            continue
        count = nx.bit_count()
        size = x.bit_count()
        if count * best_size < best_count * size:
            best_size, best_count, best_x = size, count, x
    if not best_x:
        raise InvalidInput("binding number undefined: N(X) = V for every X")
    witness = frozenset(
        v for v in range(1, n + 1) if (best_x >> (v - 1)) & 1
    )
    return BindingNumber(value=Fraction(best_count, best_size), witness=witness)


def _packs_hypothesis(seq1: DegreeSequence, seq2: DegreeSequence) -> bool:
    return 2 * seq1.entries[0] * seq2.entries[0] < seq1.n


def pack(
    seq1: DegreeSequence, seq2: DegreeSequence
) -> tuple[LabeledGraph, LabeledGraph] | None:
    """Edge-disjoint realizations of the two sequences on shared labels, or None.

    Vertex i carries degree d_i^1 in the first graph and d_i^2 in the second.
    The larger-max-degree sequence is realized first (a determinism choice;
    the output order always matches the argument order).  If the product
    hypothesis d_1^1 * d_1^2 < n/2 holds, failure to pack is impossible, so
    None is never returned in that regime.
    """
    n = seq1.n
    if seq2.n != n:
        raise InvalidInput("sequences must have equal length")
    if n < 3:
        raise PreconditionError(f"packing needs n >= 3, got {n}")
    for seq in (seq1, seq2):
        if not eg_check(seq).verdict:
            raise PreconditionError(f"{seq} is not graphic")

    swapped = seq2.entries[0] > seq1.entries[0]
    first, second = (seq2, seq1) if swapped else (seq1, seq2)
    g1 = hh_realize(first)
    complement = g1.complement()
    caps = complement.degree_vector()
    if all(second.entries[i] <= caps[i] for i in range(n)):
        g2 = f_factor(complement, second.entries)
    else:
        g2 = None
    if g2 is None:
        if _packs_hypothesis(seq1, seq2):
            raise InvariantViolation(
                f"packing of {seq1} and {seq2} failed under the degree-product hypothesis"
            )
        return None
    if g1.edges & g2.edges:
        raise InvariantViolation("packed graphs share an edge")
    return (g2, g1) if swapped else (g1, g2)


OVERFULL_NOTE = "some vertex needs more than n-1 neighbours: no packing exists"
INCONCLUSIVE_NOTE = (
    "hypothesis not met; absence is inconclusive "
    "(a different first realization might pack)"
)


def pack_report(seq1: DegreeSequence, seq2: DegreeSequence) -> dict:
    """JSON-ready packing outcome; a miss carries a note that says whether it is proven.

    A miss is proven only when some vertex needs d1_i + d2_i > n - 1
    neighbours (OVERFULL_NOTE); any other miss is inconclusive.
    """
    hypothesis = _packs_hypothesis(seq1, seq2)
    result = pack(seq1, seq2)
    report = {
        "pi1": list(seq1.entries),
        "pi2": list(seq2.entries),
        "hypothesis": hypothesis,
        "success": result is not None,
        "edges1": None,
        "edges2": None,
    }
    if result is not None:
        report["edges1"] = [list(e) for e in result[0].edge_list()]
        report["edges2"] = [list(e) for e in result[1].edge_list()]
    elif any(a + b > seq1.n - 1 for a, b in zip(seq1.entries, seq2.entries)):
        report["note"] = OVERFULL_NOTE
    else:
        report["note"] = INCONCLUSIVE_NOTE
    return report
