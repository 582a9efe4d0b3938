"""Pin the fast row builders against literal, naive evaluations.

The library computes tail sums with suffix sums and a moving pointer; these
tests recompute every row with transparent O(n^2) loops written straight
from the definitions.
"""
import random

from degmatch import DegreeSequence, degree_sequences, doublestar_check, eg_check, star_check


def naive_eg_rhs(d: tuple[int, ...], k: int) -> int:
    return k * (k - 1) + sum(min(d[i - 1], k) for i in range(k + 1, len(d) + 1))


def naive_star_rhs(d: tuple[int, ...], k: int) -> int:
    n = len(d)
    if k % 2 == 0 or k == n:
        return k * (k - 1) + sum(min(d[i - 1] - 1, k) for i in range(k + 1, n + 1))
    return (
        k * (k - 1)
        + min(d[k], k)
        + sum(min(d[i - 1] - 1, k) for i in range(k + 2, n + 1))
    )


def naive_doublestar_rhs(d: tuple[int, ...], k: int, h: int) -> int:
    n = len(d)
    s = k % (h + 1)
    first = sum(
        min(d[i - 1] - h + s, k) for i in range(k + 1, min(k + 1 + h - s, n) + 1)
    )
    second = sum(min(d[i - 1] - h, k) for i in range(k + 2 + h - s, n + 1))
    return k * (k - 1) + first + second


def test_exhaustive_small():
    for n in range(2, 8):
        for seq in degree_sequences(n):
            d = seq.entries
            for row in eg_check(seq).rows:
                assert row.rhs == naive_eg_rhs(d, row.k)
                assert row.lhs == sum(d[: row.k])
            for row in star_check(seq).rows:
                assert row.rhs == naive_star_rhs(d, row.k)
            for h in (1, 2, 3):
                for row in doublestar_check(seq, h).rows:
                    assert row.rhs == naive_doublestar_rhs(d, row.k, h)


def test_random_larger():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 300)
        d = tuple(sorted((rng.randint(1, n - 1) for _ in range(n)), reverse=True))
        seq = DegreeSequence(d)
        h = rng.randint(1, 5)
        for row in eg_check(seq).rows:
            assert row.rhs == naive_eg_rhs(d, row.k)
        for row in star_check(seq).rows:
            assert row.rhs == naive_star_rhs(d, row.k)
        for row in doublestar_check(seq, h).rows:
            assert row.rhs == naive_doublestar_rhs(d, row.k, h)
