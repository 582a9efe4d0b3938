#!/usr/bin/env python3
"""Packing two degree sequences edge-disjointly on the same labels.

If the two maximum degrees multiply to less than n/2, the sequences always
pack: realize the first greedily, then find an exact factor with the second
sequence's degrees inside the complement.  Outside that regime the search
still runs, but a miss is inconclusive (another first realization might
pack) unless some vertex needs more than n - 1 neighbours in total.  The binding number is the diagnostic the existence argument leans
on: it measures how hard neighbourhoods can shrink.
"""
from degmatch import (
    DegreeSequence,
    binding_number,
    build_graph,
    complete_graph,
    pack,
    pack_report,
)

# Binding numbers, exactly as fractions.
for label, g in (
    ("K_6", complete_graph(6)),
    ("C_4", build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])),
    ("claw K_{1,3}", build_graph(4, [(1, 2), (1, 3), (1, 4)])),
):
    result = binding_number(g)
    print(f"binding number of {label}: {result.value} (witness {sorted(result.witness)})")

# Two 2-regular sequences on 9 vertices: 2*2 < 4.5, so they always pack.
seq = DegreeSequence((2,) * 9)
g1, g2 = pack(seq, seq)
print(f"\ntwo 2-regular graphs packed into K_9:")
print(f"   first:  {g1.edge_list()}")
print(f"   second: {g2.edge_list()}")
print(f"   edge-disjoint: {not (g1.edges & g2.edges)}")

# Mixed degrees still pack under the product hypothesis.
a = DegreeSequence((4, 2, 1, 1, 1, 1, 1, 1, 1, 1))
b = DegreeSequence((1,) * 10)
g1, g2 = pack(a, b)
print(f"\n{a} + {b} packed: {not (g1.edges & g2.edges)}")

# Outside the hypothesis a miss proves nothing, unless some vertex needs more
# than n - 1 neighbours across both graphs; the report's note says which.
for label, s1, s2 in (
    ("two K_4 sequences", (3, 3, 3, 3), (3, 3, 3, 3)),
    ("a 5-cycle and a path", (2, 2, 2, 2, 2), (2, 2, 2, 1, 1)),
):
    report = pack_report(DegreeSequence(s1), DegreeSequence(s2))
    print(f"\n{label}: hypothesis {report['hypothesis']}, packed {report['success']}")
    print(f"   note: {report['note']}")
