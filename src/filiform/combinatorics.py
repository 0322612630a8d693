"""Counting helpers: guarded binomials and partitions into a bounded number of parts."""

from functools import lru_cache
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


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry cached for 2
def partitions_exact(q: int, k: int) -> int:
    """Number of partitions of k into exactly q positive parts.

    P_q(k) = P_q(k - q) + P_{q-1}(k - 1): either every part is >= 2
    (strip one unit from each) or some part equals 1 (remove it).
    """
    require_ints(q=q, k=k)
    if q < 0:
        raise ValueError("q must be >= 0")
    if k < 0:
        return 0
    if q == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return partitions_exact(q, k - q) + partitions_exact(q - 1, k - 1)
