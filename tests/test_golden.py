"""Byte-identity pins for the inequality reports, the constructive realizers
and the switch calculus.

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
    InvariantViolation,
    LabeledGraph,
    all_switches,
    classify_switch,
    complete_graph,
    graph_to_text,
    hh_realize,
    lift_switch,
    perfect_matchings,
    realize_matching_switchwise,
    realize_mplus,
    star_check,
    switch_path,
)

REPORTS_DIGEST = "960f23ca45e0698cd85d031346380c338681670b30f1bfd9ed7c5099cdba8455"
REALIZERS_DIGEST = "961a0f44246a4ef1fa3dc9b62decc531634c409c6f0101c1b0b0c3d9d403de99"
LIFT_DIGEST = "2355af43de5bc33330d1c16d9e6e69d3c5fb904619f72d09b9564f69a3d8f9c3"
SWITCH_DIGEST = "5d0ae3ca6d44255d2c7237e8116cc43039eec952ed9f4e7f7c284fa8b7f1080f"


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
