"""Byte-identity pins for the inequality reports, the constructive realizers,
the switch calculus, the exact f-factor oracle and the matching preorder.

Each test streams canonical text for a fixed corpus through SHA-256 and
compares against a digest recorded from a known-good build.  A refactor of
the row kernels or the realizers must leave every digest unchanged; a
change that alters an output on purpose records the new digest with a
reason.
"""
import hashlib
import json
import random

from degmatch import (
    DegreeSequence,
    Matching,
    degree_sequences,
    doublestar_check,
    eg_check,
    f_factor,
    hfactor_oracle,
    InvariantViolation,
    LabeledGraph,
    all_switches,
    build_preorder,
    check_conjectures,
    classify_switch,
    complete_graph,
    graph_to_text,
    hasse_dot,
    hh_realize,
    lift_switch,
    pack,
    perfect_matchings,
    realize_matching_oracle,
    realize_matching_switchwise,
    realize_mplus,
    star_check,
    switch_path,
)

from degmatch.preorder import realizability_matrix

from oracles import max_matching

REPORTS_DIGEST = "960f23ca45e0698cd85d031346380c338681670b30f1bfd9ed7c5099cdba8455"
REALIZERS_DIGEST = "961a0f44246a4ef1fa3dc9b62decc531634c409c6f0101c1b0b0c3d9d403de99"
LIFT_DIGEST = "2355af43de5bc33330d1c16d9e6e69d3c5fb904619f72d09b9564f69a3d8f9c3"
SWITCH_DIGEST = "5d0ae3ca6d44255d2c7237e8116cc43039eec952ed9f4e7f7c284fa8b7f1080f"
ORACLE_DIGEST = "e001657917806d555d59c672b88b00dde463b6a996c6a6acc425e3a850b6f21a"
PREORDER_DIGEST = "3e18725c595733c45d8c6f7d37cebf1b0dcc1d19a45438c3d98d2331d524534c"


def _random_sequence(rng: random.Random, n: int, lo: int) -> DegreeSequence:
    return DegreeSequence(
        tuple(sorted((rng.randint(lo, n - 1) for _ in range(n)), reverse=True))
    )


def _report_corpus():
    for n in range(2, 9):
        yield from degree_sequences(n)
    rng = random.Random(2025)
    for n in (50, 500):
        for lo in (1, n // 4, n // 2):
            for _ in range(4):
                yield _random_sequence(rng, n, lo)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _report_lines():
    for seq in _report_corpus():
        reports = [eg_check(seq), star_check(seq)]
        reports += [doublestar_check(seq, h) for h in (1, 2, 3)]
        for report in reports:
            yield json.dumps(report.as_dict(), sort_keys=True)


def _random_perfect_matching(rng: random.Random, n: int) -> Matching:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return Matching(n, frozenset(zip(labels[::2], labels[1::2])))


def _realizer_lines():
    rng = random.Random(7)
    for n in (6, 10, 20, 40, 64):
        made = 0
        while made < 3:
            seq = _random_sequence(rng, n, 1)
            if eg_check(seq).verdict:
                yield graph_to_text(hh_realize(seq))
                made += 1
    for n in (6, 10, 16, 24, 64, 128):
        made = 0
        while made < 3:
            seq = _random_sequence(rng, n, n // 3)
            if star_check(seq).verdict:
                yield graph_to_text(realize_mplus(seq))
                if n <= 24:
                    m = _random_perfect_matching(rng, n)
                    yield graph_to_text(realize_matching_switchwise(seq, m))
                made += 1


def _lift_outputs():
    """lift_switch on every supergraph of every perfect matching, n = 4 and 6.

    Supergraphs are the matching plus each subset of the remaining edges,
    by ascending bit mask over the sorted free edges; a refused lift
    yields 'refused'.
    """
    for n in (4, 6):
        for m in perfect_matchings(n):
            free = sorted(complete_graph(n).edges - m.edges)
            for mask in range(1 << len(free)):
                extra = {e for i, e in enumerate(free) if mask >> i & 1}
                g = LabeledGraph(n, m.edges | extra)
                for _, move in all_switches(m):
                    try:
                        yield graph_to_text(lift_switch(g, m, move))
                    except InvariantViolation:
                        yield "refused\n"


def _switch_lines():
    """The walks and single switches of a matching corpus, then classify_switch.

    The corpus is every perfect matching with n <= 10, then seeded random
    ones at n = 40 and 96.  classify_switch runs on every ordered pair of
    perfect matchings at n = 6 and 8.
    """
    corpus = [m for n in range(2, 11, 2) for m in perfect_matchings(n)]
    rng = random.Random(11)
    corpus += [_random_perfect_matching(rng, n) for n in (40, 96) for _ in range(3)]
    for m in corpus:
        yield f"{m} plus " + " ".join(map(str, switch_path(m, "plus")))
        yield f"{m} minus " + " ".join(map(str, switch_path(m, "minus")))
        yield f"{m} all " + " ".join(f"{mv}:{nm}" for nm, mv in all_switches(m))
    for n in (6, 8):
        ms = list(perfect_matchings(n))
        for a in ms:
            yield " ".join(str(classify_switch(a, b)) for b in ms)


def _random_graph(rng: random.Random, n: int, p: float) -> LabeledGraph:
    return LabeledGraph(n, frozenset(
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p
    ))


def _gnp_sequence(rng: random.Random, n: int, min_degree: int) -> DegreeSequence:
    """Sorted degrees of G(n, 1/2), redrawn until the minimum is min_degree or more."""
    while True:
        degs = sorted(_random_graph(rng, n, 0.5).degree_vector(), reverse=True)
        if degs[-1] >= min_degree:
            return DegreeSequence(tuple(degs))


def _threshold_sequence(rng: random.Random, n: int) -> DegreeSequence:
    """Degrees of a random threshold graph whose last vertex dominates.

    Each vertex joins dominating (adjacent to every earlier vertex) or
    isolated; a threshold sequence has exactly one labelled realization.
    """
    dom = [rng.random() < 0.5 for _ in range(n - 1)] + [True]
    later = [sum(dom[v + 1:]) for v in range(n)]
    return DegreeSequence(tuple(sorted(
        (later[v] + (v if dom[v] else 0) for v in range(n)), reverse=True
    )))


def _small_sequence(rng: random.Random, n: int, cap: int) -> DegreeSequence:
    """A graphic sorted sequence with entries in [1, cap]."""
    while True:
        seq = DegreeSequence(tuple(sorted((rng.randint(1, cap) for _ in range(n)), reverse=True)))
        if eg_check(seq).verdict:
            return seq


def _oracle_lines():
    """The exact oracle and its callers on a seeded corpus.

    f_factor on random hosts (n 4-40) with mixed targets, odd totals
    included; the reference max_matching (tests/oracles.py) on random
    graphs; realize_matching_oracle on G(n, 1/2) sequences that pass STAR
    (yes) and on threshold sequences (almost always no); hfactor_oracle with h = 2 and 3; pack under the
    degree-product hypothesis 2 * D1 * D2 < n.  A negative answer yields 'None'.
    """
    def text(g):
        return "None" if g is None else graph_to_text(g)

    rng = random.Random(5)
    for n in (4, 5, 6, 8, 10, 13, 16, 20, 24, 30, 40):
        for p in (0.3, 0.5, 0.8):
            host = _random_graph(rng, n, p)
            degs = host.degree_vector()
            for f in (
                tuple(rng.randint(0, d) for d in degs),
                tuple(d // 2 for d in degs),
                tuple(max(d - 1, 0) for d in degs),
            ):
                yield f"{n} {p} {f}"
                yield text(f_factor(host, f))
    for n in (2, 7, 12, 20, 33, 50, 80):
        for p in (0.1, 0.3, 0.6):
            yield str(max_matching(_random_graph(rng, n, p)))
    for n in (12, 16, 20, 26, 32, 40):
        made = 0
        while made < 2:
            seq = _gnp_sequence(rng, n, 1)
            if star_check(seq).verdict:
                m = _random_perfect_matching(rng, n)
                yield f"{seq} {m}"
                yield text(realize_matching_oracle(seq, m))
                made += 1
        seq, m = _threshold_sequence(rng, n), _random_perfect_matching(rng, n)
        yield f"{seq} {m}"
        yield text(realize_matching_oracle(seq, m))
    for h, sizes in ((2, (12, 18, 24)), (3, (12, 20, 28))):
        for n in sizes:
            seq = _gnp_sequence(rng, n, h)
            yield f"{h} {seq}"
            yield text(hfactor_oracle(seq, h))
    for n, cap1, cap2 in ((13, 2, 3), (20, 3, 3), (30, 3, 4), (40, 4, 4)):
        seq1, seq2 = _small_sequence(rng, n, cap1), _small_sequence(rng, n, cap2)
        yield f"{seq1} {seq2}"
        packed = pack(seq1, seq2)
        yield "None" if packed is None else text(packed[0]) + text(packed[1])


def _preorder_lines():
    """The preorder tables, their Hasse diagrams and conjecture reports.

    build_preorder, hasse_dot and check_conjectures for n = 2, 4, 6, 8, then
    realizability_matrix over every sequence of length n = 2, 4, 6, those
    failing Lovasz's test included, one row per sequence.
    """
    for n in (2, 4, 6, 8):
        table = build_preorder(n)
        yield json.dumps(table.as_dict())
        yield hasse_dot(table)
        yield json.dumps(check_conjectures(table).as_dict())
    for n in (2, 4, 6):
        rows = realizability_matrix(tuple(degree_sequences(n)), tuple(perfect_matchings(n)))
        for row in rows:
            yield "".join("1" if hit else "0" for hit in row)


def test_report_stream_digest():
    assert _digest(_report_lines()) == REPORTS_DIGEST


def test_realizer_stream_digest():
    assert _digest(_realizer_lines()) == REALIZERS_DIGEST


def test_lift_stream_digest():
    h = hashlib.sha256()
    for text in _lift_outputs():
        h.update(text.encode())
    assert h.hexdigest() == LIFT_DIGEST


def test_switch_stream_digest():
    assert _digest(_switch_lines()) == SWITCH_DIGEST


def test_oracle_stream_digest():
    assert _digest(_oracle_lines()) == ORACLE_DIGEST


def test_preorder_stream_digest():
    assert _digest(_preorder_lines()) == PREORDER_DIGEST
