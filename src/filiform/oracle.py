"""Brute-force cross-checks, independent of the closed-form system builder.

oracle_coefficient expands the square of a symbolic linear combination of
basis cocycles straight from the cyclic-sum definition of the bracket, on
the integer (target, coeff) pairs of psi2_value.  It shares only that
closed form and exact arithmetic with systems.py; agreement of the two
routes is the main correctness gate of the whole package.  evaluate_system
sums plain exact values; deformed_structure is m0 plus linear_combination of
the psi2 tables, and jacobi_scan is one cochains.d_adjoint call on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .cochains import LieStructure, d_adjoint, linear_combination, psi2, psi2_value
from .lie import make_fixture
from .polynomials import TOP, DeformPolynomial, Variable, check_variable, var_weight
from .sparse import exact, require_ints


def _label_total(j: int, q: int, r: int, with_top: bool) -> int:
    """Total index j+2q+1+r of a label that the marker setting can reach."""
    require_ints(j=j, q=q, r=r)
    if type(with_top) is not bool:  # a truthy string would add the marker
        raise ValueError(f"flags must be bools, as labels must be ints; got {with_top=}")
    if not (2 <= j < q):
        raise ValueError(f"label needs 2 <= j < q, got j={j}, q={q}")
    if r < -1:
        raise ValueError(f"r must be >= -1, got {r}")
    if r == -1 and not with_top:
        raise ValueError("label with r = -1 is meaningful only with the marker x")
    w = j + 2 * q + 1 + r
    if with_top and w % 2:
        raise ValueError(f"marker x needs an even total index, got {w}")
    return w


def conclusive_inventory(j: int, q: int, r: int,
                         with_top: bool = False) -> tuple[Variable, ...]:
    """Smallest variable set that settles the coefficient at label (j,q,r).

    Any pair (l,t) outside this set provably cannot touch the target basis
    vector: the weights must split r (or r+1 against the marker) and the
    sill conditions cap l.
    """
    w = _label_total(j, q, r, with_top)
    t_hi = r + 1 if with_top else r
    # l-major, t-minor: already in var_key order
    pairs: list[Variable] = [(l, t) for l in range(2, (w - 1) // 2 + 1)
                             for t in range(t_hi + 1) if 2 * l + 1 + t <= w]
    if with_top:
        pairs.append(TOP)
    return tuple(pairs)


def _pair_value(v: Variable, a: int, b: int, n: int) -> tuple[int, int] | None:
    """psi2_value of the basis cocycle labeled v on (e_a, e_b), any index order."""
    if a == b or min(a, b) == 1:
        return None
    l, t = (n // 2, -1) if v == TOP else v
    if a < b:
        return psi2_value(l, t, n, a, b)
    value = psi2_value(l, t, n, b, a)
    return None if value is None else (value[0], -value[1])


def oracle_coefficient(j: int, q: int, r: int, *, with_top: bool = False) -> DeformPolynomial:
    """Coefficient of e_{j+2q+1+r} in the half-square of the symbolic sum.

    Evaluates psi(psi(e_j,e_q),e_{q+1}) plus cyclic terms with psi running
    over conclusive_inventory(j, q, r, with_top), all coefficients symbolic:
    the pairs that can reach e_{j+2q+1+r}, and the marker x on a top row.
    """
    inv = conclusive_inventory(j, q, r, with_top)
    w = j + 2 * q + 1 + r
    # Psi_{l,t} sends (e_idx, e_c) to e_{idx+c+t}: only weight w-idx-c can land
    by_weight: dict[int, list] = {}
    for v in inv:
        by_weight.setdefault(var_weight(v), []).append(v)
    # inv is in var_key order, the order DeformPolynomial keeps a monomial's variables
    rank = {v: i for i, v in enumerate(inv)}

    acc: dict = {}
    for a, b, c in ((j, q, q + 1), (q, q + 1, j), (q + 1, j, q)):
        # inner[idx]: the linear form psi(e_a, e_b) at e_idx, as (u, coeff) pairs
        inner: dict[int, list] = {}
        for u in inv:
            value = _pair_value(u, a, b, w)
            if value is not None:
                inner.setdefault(value[0], []).append((u, value[1]))
        for idx, row in inner.items():
            for v in by_weight.get(w - idx - c, ()):
                value = _pair_value(v, idx, c, w)
                if value is not None and value[0] == w:
                    for u, cu in row:
                        key = (v, u) if rank[v] <= rank[u] else (u, v)
                        acc[key] = acc.get(key, 0) + value[1] * cu
    return DeformPolynomial._frozen(acc)


def known_solution(name: str, t=1, k: int | None = None,
                   bound: int | None = None) -> dict[Variable, Fraction]:
    """Assignment for a known family on the variety; refuses a k or bound it does not take."""
    if any(v is not None and type(v) is not int for v in (k, bound)):
        raise ValueError(f"k and bound must be ints, got k={k!r}, bound={bound!r}")
    takes = {"m2": (), "mk": ("k",), "L1": ("bound",), "L1-lacuna2": ("bound",)}
    if name not in takes:
        raise ValueError(f"unknown solution family {name!r}")
    for param, value in (("k", k), ("bound", bound)):
        if value is not None and param not in takes[name]:
            raise ValueError(f"family {name} takes no parameter {param}")
    t = exact(t)
    if name == "m2":
        return {(2, 0): t}
    if name == "mk":
        if k is None or k < 2:
            raise ValueError("family mk needs an index k >= 2")
        return {(2, k - 2): t}
    if name == "L1-lacuna2" and bound is None:
        bound = 8  # the series up to m = 8 that the fixtures use
    if bound is None or bound < 2:
        raise ValueError(f"family {name} needs a truncation bound >= 2")
    if name == "L1":
        return {(m, 0): t * Fraction(6 * factorial(m - 2) * factorial(m - 1),
                                     factorial(2 * m - 1))
                for m in range(2, bound + 1)}
    return {(m, 2): t * Fraction(6 * factorial(m) * factorial(m + 1),
                                 factorial(2 * m + 3))
            for m in range(2, bound + 1)}


def evaluate_system(system, assignment: Mapping[Variable, Fraction]):
    """Exact residual of every equation, in system order; missing vars are 0."""
    return [(eq.label, eq.poly.evaluate(assignment)) for eq in system]


def first_violation(system, assignment: Mapping[Variable, Fraction]):
    """(label, residual) of the first nonzero residual, or None."""
    for label, value in evaluate_system(system, assignment):
        if value:
            return label, value
    return None


def deformed_structure(assignment: Mapping[Variable, Fraction], n: int) -> LieStructure:
    """Chain bracket m0 plus the assigned cocycle combination, cut at e_n."""
    require_ints(n=n)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    values = {check_variable(v): exact(a) for v, a in assignment.items()}
    support = {v: a for v, a in values.items() if a}
    if TOP in support and n % 2:
        raise ValueError("the marker x needs an even dimension")
    parts = [(1, make_fixture("m0", n))]
    for v, coeff in support.items():
        l, t = (n // 2, -1) if v == TOP else v
        if v == TOP or 2 * l + 1 + t <= n:  # a sill above the cutoff is unreachable
            parts.append((coeff, psi2(l, t, n)))
    return LieStructure(n, dict(linear_combination(parts, 2, n).nonzero()), label="deformed")


def jacobi_scan(structure: LieStructure):
    """All increasing triples with a nonzero cyclic defect, in order.

    For an antisymmetric bracket mu, d_mu mu = -2 Jac(mu), Lie algebra or not:
    each value is -1/2 cochains.d_adjoint(mu, mu), whose table holds every nonzero one.
    """
    return [(tup, value.scaled(Fraction(-1, 2)))
            for tup, value in d_adjoint(structure, structure).nonzero()]
