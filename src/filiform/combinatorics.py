"""Counting helpers: guarded binomials and partitions into a bounded number of parts."""

from math import comb

from .sparse import require_ints


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), equal to 0 unless 0 <= b <= a.

    The zero convention does the range bookkeeping in all the sill/target
    formulas: out-of-range terms drop out without explicit bounds checks.
    """
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def partitions_exact(q: int, k: int) -> int:
    """Number of partitions of k into exactly q positive parts.

    P_q(k) = P_q(k - q) + P_{q-1}(k - 1): either every part is >= 2
    (strip one unit from each) or some part equals 1 (remove it).  The
    counts are filled one number of parts at a time, for every total up to
    k, so a large k costs no recursion depth.
    """
    require_ints(q=q, k=k)
    if q < 0:
        raise ValueError("q must be >= 0")
    if k < 0 or q > k:
        return 0
    counts = [1] + [0] * k  # P_0(m) for m = 0..k
    for p in range(1, q + 1):
        row = [0] * (k + 1)
        for m in range(p, k + 1):
            row[m] = row[m - p] + counts[m - 1]
        counts = row
    return counts[k]
