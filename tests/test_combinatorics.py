import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filiform.combinatorics import binomial, partitions_exact


def brute_partitions(q, k):
    """Count partitions of k into exactly q parts by direct enumeration."""
    if q == 0:
        return 1 if k == 0 else 0

    def rec(remaining, parts_left, minimum):
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        for part in range(minimum, remaining + 1):
            total += rec(remaining - part, parts_left - 1, part)
        return total

    return rec(k, q, 1)


def test_binomial_matches_comb_in_range():
    for a in range(12):
        for b in range(a + 1):
            assert binomial(a, b) == comb(a, b)


@pytest.mark.parametrize("a,b", [(3, -1), (3, 4), (-1, 0), (-2, -2), (0, 1)])
def test_binomial_zero_out_of_range(a, b):
    assert binomial(a, b) == 0


def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(7, 7) == 1


def test_partitions_three_parts_table():
    # P_3(k) for k = 3..11
    expected = [1, 1, 2, 3, 4, 5, 7, 8, 10]
    assert [partitions_exact(3, k) for k in range(3, 12)] == expected


def test_partitions_two_parts_closed_form():
    for k in range(0, 40):
        assert partitions_exact(2, k) == k // 2


def test_partitions_exactly_q_base_cases():
    assert partitions_exact(0, 0) == 1
    assert partitions_exact(0, 5) == 0
    assert partitions_exact(3, 0) == 0
    assert partitions_exact(3, 2) == 0  # fewer units than parts
    assert partitions_exact(1, 9) == 1
    assert partitions_exact(4, -1) == 0


def test_partitions_rejects_negative_q():
    with pytest.raises(ValueError):
        partitions_exact(-1, 3)


@pytest.mark.parametrize("q, k", [(2.0, 5), (True, 1), (2, 5.5), (3, True)],
                         ids=["float-q", "bool-q", "float-k", "bool-k"])
def test_partitions_refuse_values_that_are_not_ints(q, k):
    # (2.0, 5) was 2, (True, 1) was 1 and (2, 5.5) was 0; the int entry is
    # cached first, so that a cache keyed by value alone would answer for it
    partitions_exact(int(q), int(k))
    with pytest.raises(ValueError, match="must be ints"):
        partitions_exact(q, k)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_partitions_against_enumeration(q):
    for k in range(0, 19):
        assert partitions_exact(q, k) == brute_partitions(q, k)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=30))
def test_partitions_recurrence(q, k):
    assert partitions_exact(q, k) == (partitions_exact(q, k - q)
                                      + partitions_exact(q - 1, k - 1))


def test_partitions_sum_over_q_is_total_count():
    # partitions of k into at most k parts = all partitions of k
    totals = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for k, expected in enumerate(totals):
        assert sum(partitions_exact(q, k) for q in range(k + 1)) == expected


def test_partitions_need_no_recursion_depth():
    # the recursive count raised RecursionError at (3, 1500) on a cold cache;
    # a fresh interpreter keeps a cache that other tests warmed from hiding it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "from filiform.combinatorics import partitions_exact as p; print(p(3, 1500), p(3, 3000))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    # P_3(k) is the integer nearest k^2 / 12
    assert run.stdout.split() == [str(round(k * k / 12)) for k in (1500, 3000)]
