"""Brute-force cross-checks, independent of the closed-form system builder.

oracle_coefficient expands the square of a symbolic linear combination of
basis cocycles straight from the cyclic-sum definition of the bracket, on
the integer (target, coeff) pairs of psi2_value.  It shares only that
closed form and exact arithmetic with systems.py; agreement of the two
routes is the main correctness gate of the whole package.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .cochains import psi2_value
from .lie import LieElement, LieStructure, _chain_relations
from .polynomials import (TOP, DeformPolynomial, Variable, check_variable,
                          clear_denominators, var_key, var_weight)
from .sparse import exact


class InconclusiveInventoryError(ValueError):
    """The supplied inventory cannot decide the requested coefficient."""

    def __init__(self, label: tuple[int, int, int], missing):
        self.label = label
        self.missing = tuple(missing)
        super().__init__(
            f"inventory too small for label {label}: missing {self.missing}")


def _label_total(j: int, q: int, r: int, with_top: bool) -> int:
    """Total index j+2q+1+r of a label that the marker setting can reach."""
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


def oracle_coefficient(j: int, q: int, r: int,
                       inventory=None) -> DeformPolynomial:
    """Coefficient of e_{j+2q+1+r} in the half-square of the symbolic sum.

    Evaluates psi(psi(e_j,e_q),e_{q+1}) plus cyclic terms with psi running
    over the inventory, all coefficients symbolic.  A missing-but-needed
    variable raises rather than silently truncating the answer, and an
    entry that is no deformation variable raises ValueError.
    """
    if inventory is None:
        inventory = conclusive_inventory(j, q, r, with_top=(r == -1))
    inv = list(dict.fromkeys(check_variable(v) for v in inventory))
    with_top = TOP in inv
    w = _label_total(j, q, r, with_top)
    # conclusive means: every cross-weight class reachable from a declared
    # variable is fully declared, so no declared variable has a half-built
    # row.  An empty inventory is vacuously conclusive (the answer is 0).
    pairs = {v for v in inv if v != TOP}
    partner_weights = {r - t for _, t in pairs if r - t >= 0}
    if with_top:
        partner_weights.add(r + 1)
    needed = {(m, u) for u in partner_weights
              for m in range(2, (w - 1 - u) // 2 + 1)}
    missing = sorted(needed - pairs, key=var_key)
    if missing:
        raise InconclusiveInventoryError((j, q, r), missing)
    # pairs above the target index cannot reach e_w: skip, do not truncate
    usable = [v for v in inv if v == TOP or 2 * v[0] + 1 + v[1] <= w]
    # Psi_{l,t} sends (e_idx, e_c) to e_{idx+c+t}: only weight w-idx-c can land
    by_weight: dict[int, list] = {}
    for v in usable:
        by_weight.setdefault(var_weight(v), []).append(v)
    # a monomial's variables in var_key order, the order DeformPolynomial keeps
    rank = {v: i for i, v in enumerate(sorted(usable, key=var_key))}

    acc: dict = {}
    for a, b, c in ((j, q, q + 1), (q, q + 1, j), (q + 1, j, q)):
        # inner[idx]: the linear form psi(e_a, e_b) at e_idx, as (u, coeff) pairs
        inner: dict[int, list] = {}
        for u in usable:
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
    """Assignment for one of the families known to lie on the variety."""
    if any(v is not None and type(v) is not int for v in (k, bound)):
        raise ValueError(f"k and bound must be ints, got k={k!r}, bound={bound!r}")
    t = exact(t)
    if name == "m2":
        return {(2, 0): t}
    if name == "mk":
        if k is None or k < 2:
            raise ValueError("family mk needs an index k >= 2")
        return {(2, k - 2): t}
    if name == "L1-lacuna2" and bound is None:
        bound = 8  # the series up to m = 8 that the fixtures use
    if name in ("L1", "L1-lacuna2") and (bound is None or bound < 2):
        raise ValueError(f"family {name} needs a truncation bound >= 2")
    if name == "L1":
        return {(m, 0): t * Fraction(6 * factorial(m - 2) * factorial(m - 1),
                                     factorial(2 * m - 1))
                for m in range(2, bound + 1)}
    if name == "L1-lacuna2":
        return {(m, 2): t * Fraction(6 * factorial(m) * factorial(m + 1),
                                     factorial(2 * m + 3))
                for m in range(2, bound + 1)}
    raise ValueError(f"unknown solution family {name!r}")


def evaluate_system(system, assignment: Mapping[Variable, Fraction]):
    """Exact residual of every equation, in system order; missing vars are 0."""
    cleared = clear_denominators(assignment)  # once for all rows
    return [(eq.label, eq.poly._cleared_value(*cleared)) for eq in system]


def first_violation(system, assignment: Mapping[Variable, Fraction]):
    """(label, residual) of the first nonzero residual, or None."""
    for label, value in evaluate_system(system, assignment):
        if value:
            return label, value
    return None


def deformed_structure(assignment: Mapping[Variable, Fraction], n: int) -> LieStructure:
    """Chain bracket plus the assigned cocycle combination, cut at e_n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    values = {v: exact(a) for v, a in assignment.items()}
    support = {v: a for v, a in values.items() if a}
    if TOP in support and n % 2:
        raise ValueError("the marker x needs an even dimension")
    cocycles = []
    for v, coeff in support.items():
        l, t = (n // 2, -1) if v == TOP else v
        if v == TOP or 2 * l + 1 + t <= n:  # a sill above the cutoff is unreachable
            cocycles.append((coeff, l, t))
    relations = _chain_relations(n)
    for a in range(2, n):
        for b in range(a + 1, n + 1):
            values = ((coeff, psi2_value(l, t, n, a, b)) for coeff, l, t in cocycles)
            # LieStructure drops the relations that come out zero
            relations[(a, b)] = LieElement((value[0], coeff * value[1])
                                           for coeff, value in values if value is not None)
    return LieStructure(n, relations, name="deformed")


def jacobi_scan(structure: LieStructure):
    """All increasing triples with a nonzero cyclic defect, in order.

    Computes what structure.jacobi_defect does, triple by triple, on integers:
    each [e_i, e_j] is read once as a row of numerators over the common
    denominator D of the structure constants (clear_denominators, as for the
    residuals), so a defect is an integer sum over D^2.
    """
    relations = list(structure.relations())
    denom, numerators = clear_denominators(
        {(i, j, idx): c for i, j, value in relations for idx, c in value.terms})
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, j, value in relations:
        row = {idx: numerators[(i, j, idx)] for idx, _ in value.terms}
        rows[(i, j)] = row
        rows[(j, i)] = {idx: -c for idx, c in row.items()}
    square = denom * denom
    empty: dict[int, int] = {}
    out = []
    n = structure.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                acc: dict[int, int] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    # [[e_a, e_b], e_c] = sum over m of [e_a, e_b]_m [e_m, e_c]
                    for m, cm in rows.get((a, b), empty).items():
                        for t, ct in rows.get((m, c), empty).items():
                            acc[t] = acc.get(t, 0) + cm * ct
                if any(acc.values()):
                    out.append(((i, j, k), LieElement._frozen(
                        {t: Fraction(x, square) for t, x in acc.items() if x})))
    return out
