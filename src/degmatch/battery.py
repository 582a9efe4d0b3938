"""The verification battery behind `verify-paper` and the acceptance tests.

Fourteen independent desk-scale checks cross-validating the inequality
families, the constructive realizers, the switch calculus, the preorder
tables, the h-factor pipeline and the packing sweep against the exact
f-factor oracle and against each other.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (
    DegreeSequence,
    LabeledGraph,
    Matching,
    build_graph,
    canonical_matching,
    complete_graph,
    degree_sequences,
    perfect_matchings,
    phi,
)
from .errors import InvariantViolation
from .graphic import eg_check
from .hfactor import (
    conjecture_scan,
    disjoint_pms,
    doublestar_check,
    enumerate_realizations,
    enumerate_two_factors,
    hfactor_oracle,
    merge_cliques_with_witness,
)
from .mplus import (
    corollary_bound_holds,
    realize_mplus_trace,
    star_check,
    tightness_instance,
)
from .packing import binding_number, pack
from .preorder import build_preorder, realizability_matrix
from .switches import (
    _moves,
    all_switches,
    lift_switch,
    realize_matching_oracle,
    realize_matching_switchwise,
    switch_path,
)

DEFAULT_SEED = 20250810


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}/14] {status} {self.title} ({self.seconds:.1f}s): {self.detail}"


class BatteryContext:
    """Shared lazy caches so the criteria can reuse the expensive sweeps."""

    def __init__(self, seed: int = DEFAULT_SEED, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self._matrix: dict[int, tuple[tuple[DegreeSequence, ...], tuple[Matching, ...], list[tuple[bool, ...]]]] = {}
        self._star_passing: dict[int, list[DegreeSequence]] = {}

    @property
    def equivalence_ns(self) -> tuple[int, ...]:
        return (2, 4, 6) if self.quick else (2, 4, 6, 8, 10)

    @property
    def closure_ns(self) -> tuple[int, ...]:
        return (2, 4, 6) if self.quick else (2, 4, 6, 8)

    @property
    def switchwise_ns(self) -> tuple[int, ...]:
        return (4, 6) if self.quick else (4, 6, 8)

    def star_passing(self, n: int) -> list[DegreeSequence]:
        if n not in self._star_passing:
            self._star_passing[n] = [
                s for s in degree_sequences(n) if star_check(s).verdict
            ]
        return self._star_passing[n]

    def oracle_matrix(
        self, n: int
    ) -> tuple[tuple[DegreeSequence, ...], tuple[Matching, ...], list[tuple[bool, ...]]]:
        """Realizability of every matching under every sequence of length n (cached)."""
        if n not in self._matrix:
            matchings = tuple(perfect_matchings(n))
            seqs = tuple(degree_sequences(n))
            self._matrix[n] = (seqs, matchings, realizability_matrix(seqs, matchings))
        return self._matrix[n]


def _timed(fn: Callable[[], tuple[bool, str]], number: int, title: str) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failed criterion, not a crashed battery
        passed, detail = False, f"exception: {exc!r}"
    return CriterionResult(number, title, passed, detail, time.perf_counter() - start)


# --- criterion bodies -------------------------------------------------------


def _c01(ctx: BatteryContext) -> tuple[bool, str]:
    start = time.perf_counter()
    mismatches = 0
    counts = []
    for n in ctx.equivalence_ns:
        mp = canonical_matching(n, "plus")
        total = 0
        passing = []
        for s in degree_sequences(n):
            total += 1
            sv = star_check(s).verdict
            if sv:
                passing.append(s)
            if sv != (realize_matching_oracle(s, mp) is not None):
                mismatches += 1
        ctx._star_passing[n] = passing
        counts.append(f"n={n}:{total}")
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed <= 600
    return ok, f"{' '.join(counts)} sequences, {mismatches} mismatches, {elapsed:.1f}s"


def _c02(ctx: BatteryContext) -> tuple[bool, str]:
    audited = 0
    for n in ctx.equivalence_ns:
        for s in ctx.star_passing(n):
            trace = realize_mplus_trace(s)  # raises on any failed audit
            g = trace.graph
            if g.degree_vector() != s.entries:
                return False, f"degree audit failed for {s}"
            if not canonical_matching(n, "plus").edges <= g.edges:
                return False, f"containment audit failed for {s}"
            audited += 1
    big_n = 500
    seq = DegreeSequence((big_n // 2,) * big_n)
    start = time.perf_counter()
    realize_mplus_trace(seq)
    big_time = time.perf_counter() - start
    ok = big_time < 5.0
    return ok, f"{audited} realizations audited; n=500 in {big_time:.2f}s (< 5s)"


_M4_EXPECTED = {
    (1, 1, 1, 1): (True, True, True),
    (2, 2, 2, 2): (True, True, True),
    (3, 3, 3, 3): (True, True, True),
    (2, 2, 1, 1): (False, True, True),
    (3, 3, 2, 2): (False, True, True),
    (3, 2, 2, 1): (False, False, True),
}


def _c03(ctx: BatteryContext) -> tuple[bool, str]:
    table = build_preorder(4)
    # matchings are enumerated as plus, crossing, minus in this order
    names = [str(m) for m in table.matchings]
    if names != ["1-2,3-4", "1-3,2-4", "1-4,2-3"]:
        return False, f"unexpected matching order {names}"
    got = {s.entries: row for s, row in zip(table.sequences, table.realizable)}
    if got != _M4_EXPECTED:
        return False, f"realizability table differs: {got}"
    # expected total order: minus <= crossing <= plus
    chain = (
        table.leq[2][1]
        and table.leq[1][0]
        and table.leq[2][0]
        and not table.leq[0][1]
        and not table.leq[1][2]
    )
    if not chain:
        return False, "n=4 relation is not the expected total order"
    return True, "all three realizability classes and the total order match"


def _c04(ctx: BatteryContext) -> tuple[bool, str]:
    seq_a = DegreeSequence((5, 3, 3, 3, 3, 1))
    seq_b = DegreeSequence((5, 5, 3, 3, 2, 2))
    m_a = Matching(6, {(1, 6), (2, 4), (3, 5)})
    m_b = Matching(6, {(1, 5), (2, 6), (3, 4)})
    checks = [
        realize_matching_oracle(seq_a, m_a) is not None,
        realize_matching_oracle(seq_a, m_b) is None,
        realize_matching_oracle(seq_b, m_b) is not None,
        realize_matching_oracle(seq_b, m_a) is None,
    ]
    if not all(checks):
        return False, f"witness pattern wrong: {checks}"
    table = build_preorder(6)
    size = len(table.matchings)
    if size != 15:
        return False, f"expected 15 matchings, got {size}"
    mins = [i for i in range(size) if all(table.leq[i][j] for j in range(size))]
    maxs = [i for i in range(size) if all(table.leq[j][i] for j in range(size))]
    ok = mins == [table.minus_index] and maxs == [table.plus_index]
    return ok, "incomparable witness pair verified; unique minimum and maximum"


def _c05(ctx: BatteryContext) -> tuple[bool, str]:
    violations = 0
    cells = 0
    for n in ctx.closure_ns:
        seqs, matchings, rows = ctx.oracle_matrix(n)
        minus_idx = list(matchings).index(canonical_matching(n, "minus"))
        plus_idx = list(matchings).index(canonical_matching(n, "plus"))
        for row in rows:
            cells += len(row)
            if any(row) and not row[minus_idx]:
                violations += 1
            if row[plus_idx] and not all(row):
                violations += 1
    return violations == 0, f"{cells} oracle cells, {violations} closure violations"


def _random_perfect_matching(n: int, rng: random.Random) -> Matching:
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return Matching(n, frozenset(
        (verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)
    ))


def _c06(ctx: BatteryContext) -> tuple[bool, str]:
    checked = 0
    for n in (2, 4, 6, 8):
        for m in perfect_matchings(n):
            for nm, move in all_switches(m):
                if not phi(nm) < phi(m):
                    return False, f"phi did not drop for {move} on {m}"
                checked += 1
    rng = random.Random(ctx.seed)
    rounds = 1000 if ctx.quick else 10_000
    hits = 0
    while hits < rounds:
        m = _random_perfect_matching(40, rng)
        moves = _moves(m)
        if not moves:
            continue
        move = rng.choice(moves)
        if not phi(m.apply_move(move)) < phi(m):
            return False, f"phi did not drop for random {move}"
        hits += 1

    # lift audit: every supergraph of every 4-vertex matching, every switch.
    # Weakly decreasing degree vectors must lift; others may legitimately
    # raise (the repair-vertex argument needs the monotone labelling) but a
    # returned graph always has to pass its internal audit.
    lifted = sorted_ok = raised = 0
    for m in perfect_matchings(4):
        switches = all_switches(m)
        free = sorted(complete_graph(4).edges - m.edges)
        for bits in range(1 << len(free)):
            extra = {e for i, e in enumerate(free) if bits >> i & 1}
            g = LabeledGraph(4, m.edges | extra)
            monotone = all(
                g.degree(v) >= g.degree(v + 1) for v in range(1, 4)
            )
            for nm, move in switches:
                try:
                    lift_switch(g, m, move)  # audits internally
                    lifted += 1
                    if monotone:
                        sorted_ok += 1
                except InvariantViolation:
                    raised += 1
                    if monotone:
                        return False, f"lift refused monotone host {g} for {move}"
    return True, (
        f"{checked} exhaustive + {rounds} random phi drops; "
        f"lifts: {lifted} ok ({sorted_ok} monotone), {raised} non-monotone refusals"
    )


def _c07(ctx: BatteryContext) -> tuple[bool, str]:
    runs = 0
    max_len = 0
    for n in ctx.switchwise_ns:
        matchings = list(perfect_matchings(n))
        for m in matchings:
            length = len(switch_path(m, "plus"))
            max_len = max(max_len, length)
            if length > n * n:
                return False, f"switch path for {m} exceeded n^2"
        seqs, mats, rows = ctx.oracle_matrix(n)
        oracle_row = {s: row for s, row in zip(seqs, rows)}
        for s in ctx.star_passing(n):
            row = oracle_row[s]
            if not all(row):
                return False, f"oracle disagrees with the star verdict for {s}"
            for m in matchings:
                g = realize_matching_switchwise(s, m)  # audits internally
                runs += 1
    return True, f"{runs} switchwise realizations audited; max path length {max_len}"


def _c08(ctx: BatteryContext) -> tuple[bool, str]:
    t22 = tightness_instance(22)
    ok22 = (
        t22.d_star == 19
        and t22.k_star == 15
        and t22.sequence.entries == (19,) * 15 + (11,) * 7
        and t22.sequence.total() == 362
        and t22.sum_parity_even
        and t22.is_graphic
        and t22.fails_star_at_k_star
        and t22.star_report.row(15).lhs == 285
        and t22.star_report.row(15).rhs == 281
    )
    t12 = tightness_instance(12)
    ok12 = (
        t12.d_star == 9
        and t12.k_star == 8
        and t12.is_graphic
        and t12.star_report.verdict
        and not t12.fails_star_at_k_star
    )
    t10 = tightness_instance(10)
    ok10 = not t10.sum_parity_even and not t10.is_graphic
    ok = ok22 and ok12 and ok10
    return ok, (
        f"n=22 fails at k*=15 (285 > 281): {ok22}; n=12 passes: {ok12}; "
        f"n=10 parity anomaly reported: {ok10}"
    )


def _dense_sequences(n: int) -> Iterator[DegreeSequence]:
    for tup in itertools.combinations_with_replacement(
        range(n - 1, n // 2 - 1, -1), n
    ):
        yield DegreeSequence(tup)


def _c09(ctx: BatteryContext) -> tuple[bool, str]:
    violations = 0
    holds = 0
    for n in (4, 6, 8, 10, 12):
        for s in _dense_sequences(n):
            if not eg_check(s).verdict:
                continue
            if corollary_bound_holds(s):
                holds += 1
                if not star_check(s).verdict:
                    violations += 1
    return violations == 0, f"{holds} bound holders, {violations} star failures"


def _c10(ctx: BatteryContext) -> tuple[bool, str]:
    top = 8 if ctx.quick else 10
    compared = 0
    for n in range(2, top + 1):
        for s in degree_sequences(n):
            a = star_check(s)
            b = doublestar_check(s, 1)
            if a.verdict != b.verdict or any(
                (ra.k, ra.lhs, ra.rhs) != (rb.k, rb.lhs, rb.rhs)
                for ra, rb in zip(a.rows, b.rows)
            ):
                return False, f"h=1 family differs from the matching family at {s}"
            compared += 1
    forward_violations = 0
    findings: list[str] = []
    cases = ((2, 3), (2, 6), (3, 4)) if ctx.quick else ((2, 3), (2, 6), (2, 9), (3, 4), (3, 8))
    for h, n in cases:
        for record in conjecture_scan(h, n):
            if record["oracle"] and not record["doublestar"]:
                forward_violations += 1
            if record["doublestar"] and not record["oracle"]:
                seq = ",".join(str(d) for d in record["sequence"])
                findings.append(f"h={h} ({seq}) [{record['note']}]")
    ok = forward_violations == 0
    shown = "; ".join(findings[:3]) + ("..." if len(findings) > 3 else "")
    return ok, (
        f"{compared} h=1 reports identical; forward violations {forward_violations}; "
        f"reverse scan: {len(findings)} findings"
        + (f" ({shown})" if findings else " (empty as expected)")
    )


def _c11(ctx: BatteryContext) -> tuple[bool, str]:
    seq = DegreeSequence((11, 11, 9, 9, 7, 7, 6, 6, 4, 4, 2, 2))
    graphs = enumerate_realizations(seq)
    if len(graphs) != 1:
        return False, f"expected a unique realization, found {len(graphs)}"
    factors = enumerate_two_factors(graphs[0])
    expected = frozenset(
        [
            (1, 11), (1, 12), (2, 11), (2, 12),
            (3, 9), (3, 10), (4, 9), (4, 10),
            (5, 7), (5, 8), (6, 7), (6, 8),
        ]
    )
    ok = len(factors) == 1 and factors[0].edges == expected
    return ok, f"unique realization with unique 2-factor (three 4-cycles): {ok}"


def _random_factor_sequence(
    n: int, h: int, rng: random.Random
) -> DegreeSequence | None:
    """A random sequence passing the h-factor family with a realization.

    Wide-spread samples give variety where they can pass at all; the
    near-regular fallback (values base / base+1) always lands quickly.
    """
    hi = min(n - 1, h + 5)
    for attempt in range(300):
        flavor = ("wide", "near", "regular")[attempt % 3]
        if flavor == "wide":
            vals = sorted((rng.randint(h, hi) for _ in range(n)), reverse=True)
            if sum(vals) % 2:
                if vals[0] >= hi:
                    continue
                vals[0] += 1
                vals.sort(reverse=True)
        elif flavor == "near":
            base = rng.randint(h, n - 2)
            vals = sorted(
                (min(n - 1, base + rng.randint(0, 1)) for _ in range(n)),
                reverse=True,
            )
            if sum(vals) % 2:
                for i in range(n - 1, -1, -1):
                    if vals[i] == base + 1:
                        vals[i] = base
                        break
            if sum(vals) % 2:
                continue
        else:  # regular: even n makes any constant vector parity-clean
            vals = [rng.randint(h, n - 1)] * n
        s = DegreeSequence(tuple(vals))
        if doublestar_check(s, h).verdict and hfactor_oracle(s, h) is not None:
            return s
    return None


def _audit_merge(
    g: LabeledGraph, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[bool, str]:
    out, witness = merge_cliques_with_witness(g, a, b)
    if out.degree_vector() != g.degree_vector():
        return False, "degree vector changed"
    inside = set(a) | set(b)
    before_out = {e for e in g.edges if not (e[0] in inside and e[1] in inside)}
    after_out = {e for e in out.edges if not (e[0] in inside and e[1] in inside)}
    if before_out != after_out:
        return False, "edges outside the cliques changed"
    star_edges = set(itertools.combinations(a, 2)) - set(witness.m1_pairs())
    star_edges |= set(itertools.combinations(b, 2)) - set(witness.m2_pairs())
    for _, _, (e1, e2) in witness.pairs:
        star_edges.add(e1)
        star_edges.add(e2)
    if not star_edges <= out.edges:
        return False, "star product not contained"
    return True, ""


def _c12(ctx: BatteryContext) -> tuple[bool, str]:
    g = build_graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
    merged, witness = merge_cliques_with_witness(g, (1, 2, 3), (4, 5, 6))
    c6 = {(1, 3), (2, 3), (4, 6), (5, 6), (1, 4), (2, 5)}
    if witness.switches != 1 or not c6 <= merged.edges:
        return False, "two-triangle merge did not produce the 6-cycle in one switch"
    if merged.degree_vector() != g.degree_vector():
        return False, "two-triangle merge changed degrees"

    real, pms = disjoint_pms(DegreeSequence((2,) * 6), 2)
    if len(pms) != 2 or (pms[0].edges & pms[1].edges):
        return False, "6-vertex pipeline did not yield 2 disjoint matchings"

    rng = random.Random(ctx.seed + 1)
    seeds = 20 if ctx.quick else 100
    merges = pipelines = 0
    for trial in range(seeds):
        k = 1 + trial % 5  # clique sizes 3..11
        m = 2 * k + 1
        n = 2 * m + rng.randint(0, 4)
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        a = tuple(sorted(verts[:m]))
        b = tuple(sorted(verts[m : 2 * m]))
        edges = set(itertools.combinations(a, 2)) | set(itertools.combinations(b, 2))
        pool = [
            e
            for e in itertools.combinations(range(1, n + 1), 2)
            if e not in edges and not (
                (e[0] in a and e[1] in a) or (e[0] in b and e[1] in b)
            )
        ]
        extra = rng.sample(pool, min(len(pool), rng.randint(0, 3 * n)))
        host = LabeledGraph(n, frozenset(edges | set(extra)))
        ok, why = _audit_merge(host, a, b)
        if not ok:
            return False, f"merge audit failed (seed trial {trial}): {why}"
        merges += 1

        h = (2, 3, 4)[trial % 3]
        sizes = {2: (6, 12), 3: (8, 12), 4: (10,)}[h]  # even multiples of h+1
        seq = _random_factor_sequence(sizes[rng.randrange(len(sizes))], h, rng)
        if seq is None:
            return False, f"could not sample a feasible sequence for h={h}"
        real, pms = disjoint_pms(seq, h)
        if len(pms) != len(set(pms)) or len(pms) != h:
            return False, f"pipeline yielded wrong matching count for {seq}"
        for m1, m2 in itertools.combinations(pms, 2):
            if m1.edges & m2.edges:
                return False, f"pipeline matchings overlap for {seq}"
        for m1 in pms:
            if not (m1.is_perfect and m1.edges <= real.edges):
                return False, f"pipeline matching invalid for {seq}"
        if real.degree_vector() != seq.entries:
            return False, f"pipeline realization degrees wrong for {seq}"
        pipelines += 1
    return True, f"{merges} merge audits and {pipelines} pipeline audits clean"


def _c13(ctx: BatteryContext) -> tuple[bool, str]:
    start = time.perf_counter()
    top = 7 if ctx.quick else 10
    pairs = 0
    for n in range(3, top + 1):
        graphic = [s for s in degree_sequences(n) if eg_check(s).verdict]
        for s1 in graphic:
            for s2 in graphic:
                if 2 * s1.entries[0] * s2.entries[0] >= n:
                    continue
                out = pack(s1, s2)  # raises under the hypothesis if it misses
                if out is None:
                    return False, f"pack returned nothing for {s1}, {s2}"
                g1, g2 = out
                if g1.edges & g2.edges:
                    return False, f"pack output shares edges for {s1}, {s2}"
                if g1.degree_vector() != s1.entries or g2.degree_vector() != s2.entries:
                    return False, f"pack degrees wrong for {s1}, {s2}"
                pairs += 1
    elapsed = time.perf_counter() - start
    return elapsed <= 600, f"{pairs} hypothesis pairs packed, {elapsed:.1f}s"


def _c14(ctx: BatteryContext) -> tuple[bool, str]:
    from fractions import Fraction

    for n in range(2, 9):
        got = binding_number(complete_graph(n)).value
        if got != Fraction(n - 1):
            return False, f"K_{n} binding number {got} != {n - 1}"
    c4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    if binding_number(c4).value != Fraction(1):
        return False, "C4 binding number is not 1"
    star = build_graph(4, [(1, 2), (1, 3), (1, 4)])
    if binding_number(star).value != Fraction(1, 3):
        return False, "K_{1,3} binding number is not 1/3"
    return True, "complete graphs, the 4-cycle and the claw all exact"


_CRITERIA: tuple[tuple[int, str, Callable[[BatteryContext], tuple[bool, str]]], ...] = (
    (1, "matching-family check equals the realizability oracle", _c01),
    (2, "constructive realizer sound and fast", _c02),
    (3, "4-vertex realizability classes reproduced exactly", _c03),
    (4, "6-vertex incomparable pair and unique extremes", _c04),
    (5, "downward/upward closure of realizability", _c05),
    (6, "potential drops under every switch; lifts audited", _c06),
    (7, "switchwise realizer agrees with the oracle", _c07),
    (8, "near-extremal instances behave as computed", _c08),
    (9, "half-sum bound implies the matching family", _c09),
    (10, "h-factor family specializes and scans cleanly", _c10),
    (11, "forced 12-vertex realization and its unique 2-factor", _c11),
    (12, "clique merging and disjoint matching pipeline audits", _c12),
    (13, "degree-product packing sweep", _c13),
    (14, "binding numbers exact", _c14),
)


def run_criterion(number: int, ctx: BatteryContext) -> CriterionResult:
    for num, title, fn in _CRITERIA:
        if num == number:
            return _timed(lambda: fn(ctx), num, title)
    raise ValueError(f"no criterion {number}")


def run_battery(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    stream: Callable[[str], None] | None = None,
) -> list[CriterionResult]:
    ctx = BatteryContext(seed=seed, quick=quick)
    results = []
    for num, title, fn in _CRITERIA:
        result = _timed(lambda: fn(ctx), num, title)
        if stream is not None:
            stream(result.line())
        results.append(result)
    return results
