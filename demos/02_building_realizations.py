#!/usr/bin/env python3
"""Constructing realizations.

hh_realize builds any graphic sequence greedily.  realize_mplus builds a
realization containing the consecutive-pairs matching by descending on the
degree sum and patching edges back in on the way up; the trace shows how
deep the descent went and whether it bottomed out in one of the two
closed-form terminal constructions.
"""
import time

from degmatch import DegreeSequence, hh_realize, realize_mplus_trace

# Greedy realization: deterministic, highest residual degree first.
seq = DegreeSequence((3, 3, 2, 2))
print(f"greedy realization of {seq}: {hh_realize(seq).edge_list()}")

# The constructive realizer.  (2,2,2,2) already has terminal shape (a), so
# its construction fires before any descent step.
for entries in [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 3, 3, 2, 2)]:
    seq = DegreeSequence(entries)
    trace = realize_mplus_trace(seq)
    print(
        f"{seq}: steps={trace.steps} terminal={trace.terminal or '-'} "
        f"edges={trace.graph.edge_list()}"
    )

# The descent is linear in the degree sum, so large instances are cheap.
seq = DegreeSequence((250,) * 500)
start = time.perf_counter()
trace = realize_mplus_trace(seq)
elapsed = time.perf_counter() - start
print(
    f"n=500, all degrees 250: {trace.steps} descent steps, "
    f"{len(trace.graph.edges)} edges, {elapsed:.2f}s"
)
