"""Adjoint-valued cochains on the chain algebra m0 and their calculus.

A cochain of degree q assigns a vector to each increasing basis q-tuple.
Values are memoized; evaluation on arbitrary index tuples routes through
the permutation sign, and any tuple containing index 1 evaluates to zero
for the standard weighted cocycles (their scalar parts have no e^1 factor).

The weight-s degree-2 cocycle attached to sill index j has the closed form
    Psi_{j,s}(e_k, e_m) = (-1)^{j-k} C(m-j-1, j-k) e_{m+k+s},  k < m,
supported on k <= j, k+m >= 2j+1, m+k+s <= n.  The same cochain arises as
    sum_r  e_{2j+1+s+r} (x) dminus1^r(omega(e^j ^ e^{j+1})),
and both constructions are kept side by side on purpose: one is the check
on the other.  At a point p without the marker x, Psi_p = sum x_{l,t} Psi_{l,t}
is a cocycle, and the Jacobi defect of m0 + Psi_p is 1/2 [Psi_p, Psi_p] =
sum F_{j,q,r}(p) psi3(j, q, r): test_jacobi_defect_is_the_residual_combination.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from operator import lt
from typing import Callable, Iterable

from .combinatorics import binomial
from .forms import ExtForm, _sort_with_sign, dminus1, omega
from .lie import ZERO, LieElement, LieStructure
from .sparse import exact


class AdjointCochain:
    """Alternating multilinear map on basis tuples with vector values."""

    def __init__(self, degree: int, dim: int, rule: Callable[[tuple[int, ...]], LieElement],
                 weight: int | None = None, label: str = ""):
        _require_ints(degree=degree, dim=dim)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if dim < 1:
            raise ValueError("dimension cutoff must be >= 1")
        self.degree = degree
        self.dim = dim
        self.weight = weight
        self.label = label
        self._rule = rule
        self._memo: dict[tuple[int, ...], LieElement] = {}

    def value_on_basis(self, tup: tuple[int, ...]) -> LieElement:
        """Value on a strictly increasing tuple (cached)."""
        cached = self._memo.get(tup)
        if cached is not None:
            return cached
        if len(tup) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(tup)}")
        if not all(map(lt, tup, tup[1:])):
            raise ValueError(f"tuple {tup} is not strictly increasing")
        if tup[0] < 1 or tup[-1] > self.dim:
            raise ValueError(f"tuple {tup} out of range 1..{self.dim}")
        val = self._rule(tup)
        self._memo[tup] = val
        return val

    def value(self, *indices: int) -> LieElement:
        """Value on any index tuple; repeats give zero, order gives the sign."""
        if len(indices) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(indices)}")
        tup, sign = _sort_with_sign(indices)
        if not sign:
            return ZERO
        base = self.value_on_basis(tup)
        return base if sign == 1 else -base

    def __repr__(self) -> str:
        tag = self.label or "cochain"
        w = "?" if self.weight is None else self.weight
        return f"<AdjointCochain {tag} deg={self.degree} weight={w} n={self.dim}>"


def _require_ints(**values) -> None:
    """Refuse a label, size or degree that is not an int: a bool or a float is none."""
    if bad := [f"{name}={value!r}" for name, value in values.items() if type(value) is not int]:
        raise ValueError(f"labels, sizes and degrees must be ints, got {', '.join(bad)}")


def psi2_value(j: int, s: int, n: int, k: int, m: int) -> tuple[int, int] | None:
    """Closed-form value Psi_{j,s}(e_k, e_m) = coeff * e_target for 2 <= k < m <= n.

    Returns the integers (target, coeff) = (m+k+s, (-1)^{j-k} C(m-j-1, j-k)),
    or None when coeff is 0 or target is above n; the guarded binomial makes
    the sill support conditions automatic.  k = 1 is rejected here: the
    cocycles vanish on e_1 and callers handle that case themselves.
    """
    _check_psi2_params(j, s, n)
    if k < 2:
        raise ValueError("psi2_value needs k >= 2 (values on e_1 vanish)")
    if not k < m:
        raise ValueError("psi2_value needs k < m")
    if m > n:
        raise ValueError(f"index {m} above cutoff {n}")
    coeff = binomial(m - j - 1, j - k)
    target = m + k + s
    if coeff == 0 or target > n:
        return None
    return target, -coeff if (j - k) % 2 else coeff


def _check_psi2_params(j: int, s: int, n: int) -> None:
    if j < 2:
        raise ValueError("sill index j must be >= 2")
    if s == -1:
        if n % 2 or j != n // 2:
            raise ValueError("weight -1 needs even n and j = n/2")
    elif s < 0:
        raise ValueError("weight must be >= 0, or -1 for the top cocycle")
    elif 2 * j + 1 + s > n:
        raise ValueError(f"label (j={j}, s={s}) does not fit below cutoff {n}")


def psi2(j: int, s: int, n: int, method: str = "table") -> AdjointCochain:
    """Degree-2 cocycle of weight s with sill index j on e_1..e_n.

    method="table" uses the closed form; method="series" rebuilds the values
    from the scalar cocycle omega(e^j ^ e^{j+1}) and the shift operator.
    """
    _require_ints(j=j, s=s, n=n)
    _check_psi2_params(j, s, n)
    if method == "table":
        def rule(tup: tuple[int, ...]) -> LieElement:
            k, m = tup
            value = None if k == 1 else psi2_value(j, s, n, k, m)
            return ZERO if value is None else LieElement._frozen({value[0]: value[1]})
    elif method == "series":
        rule = _series_rule(omega((j, j + 1)), 2 * j + 1, s, n)
    else:
        raise ValueError("method must be 'table' or 'series'")
    return AdjointCochain(2, n, rule, weight=s, label=f"Psi_{{{j},{s}}}")


def psi_top(k: int) -> AdjointCochain:
    """The weight -1 cocycle e_{2k} (x) omega(e^k ^ e^{k+1}) on e_1..e_2k."""
    if k < 3:
        raise ValueError("top cocycle needs k >= 3")
    return psi2(k, -1, 2 * k)


def _series_rule(base: ExtForm, base_weight: int, s: int, n: int):
    """Cochain values read off the shift tower base, dminus1(base), ...

    A basis tuple of input weight base_weight + l takes its coefficient in
    dminus1^l(base), paired with e_{base_weight + l + s}; tuples with e_1 or
    below base_weight give zero.
    """
    forms = [base]
    for _ in range(max(0, n - base_weight - s)):
        forms.append(dminus1(forms[-1]))
    tower = [dict(form.terms) for form in forms]  # a basis tuple is a sorted monomial

    def rule(tup: tuple[int, ...]) -> LieElement:
        if tup[0] == 1:
            return ZERO
        weight = sum(tup)
        step = weight - base_weight
        if not 0 <= step < len(tower):
            # below the base weight, or past the tower (the target would exceed n)
            return ZERO
        coeff = tower[step].get(tup)
        return LieElement._frozen({weight + s: coeff}) if coeff else ZERO

    return rule


def psi3(i: int, j: int, s: int, n: int) -> AdjointCochain:
    """Degree-3 cocycle of weight s >= 0 for the label (i, j, j+1), 2 <= i < j.

    Values come from the scalar cocycle omega(e^i ^ e^j ^ e^{j+1}):
    the component at total input weight w is paired with e_{w+s}.
    """
    _require_ints(i=i, j=j, s=s, n=n)
    if not 2 <= i < j:
        raise ValueError("need 2 <= i < j")
    if s < 0:
        raise ValueError("weight must be >= 0")
    base_weight = i + 2 * j + 1
    if base_weight + s > n:
        raise ValueError(f"label (i={i}, j={j}, s={s}) does not fit below cutoff {n}")
    rule = _series_rule(omega((i, j, j + 1)), base_weight, s, n)
    return AdjointCochain(3, n, rule, weight=s, label=f"Psi_{{{i},{j},{s}}}")


def d_adjoint(c: AdjointCochain, base: LieStructure) -> AdjointCochain:
    """Chevalley-Eilenberg differential of c with respect to ad of base.

    (dc)(x_1..x_{q+1}) = sum_i (-1)^{i+1} [x_i, c(.. x_i ..)]
                       + sum_{i<j} (-1)^{i+j} c([x_i,x_j], .. x_i .. x_j ..)
    with 1-based positions and hats marking omitted arguments.

    Brackets are read once into rows of terms (targets above n dropped) and the
    signs listed once per call; each value adds into one dict, frozen once (ZERO
    if it sums to 0).  In c([x_i,x_j], ..) the rest is increasing: idx goes in at
    pos = bisect_left(rest, idx) with sign (-1)^pos, and drops if rest[pos] == idx.
    """
    if base.dim < c.dim:
        raise ValueError("base structure cutoff below cochain cutoff")
    n, top = c.dim, base.dim
    rows: dict[tuple[int, int], tuple] = {}
    for i, j, value in base.relations():
        rows[(i, j)] = value.clipped(n).terms
        rows[(j, i)] = tuple((k, -v) for k, v in rows[(i, j)])
    # 1-based positions: (-1)^{(p+1)+1} = (-1)^p, and (-1)^{(p+1)+(r+1)} = (-1)^{p+r}
    size = c.degree + 1
    position_signs = [(p, (-1) ** p) for p in range(size)]
    pair_signs = [(p, r, (-1) ** (p + r)) for p, r in combinations(range(size), 2)]
    value_on_basis = c.value_on_basis  # every read of c goes through its memo and checks

    def rule(tup: tuple[int, ...]) -> LieElement:
        acc: dict[int, Fraction] = {}
        get = acc.get
        for p, sign in position_signs:
            idx = tup[p]
            for j, cj in value_on_basis(tup[:p] + tup[p + 1:]).terms:
                if j > top:
                    raise ValueError(f"basis index out of range: ({idx},{j}) with cutoff {top}")
                f = sign * cj
                for k, v in rows.get((idx, j), ()):
                    acc[k] = get(k, 0) + f * v
        for p, r, sign in pair_signs:
            row = rows.get((tup[p], tup[r]))
            if row is None:
                continue
            rest = tup[:p] + tup[p + 1:r] + tup[r + 1:]
            for idx, coeff in row:
                pos = bisect_left(rest, idx)
                if pos < len(rest) and rest[pos] == idx:
                    continue  # a repeated argument: c vanishes
                f = -sign * coeff if pos % 2 else sign * coeff
                for k, v in value_on_basis(rest[:pos] + (idx,) + rest[pos:]).terms:
                    acc[k] = get(k, 0) + f * v
        return LieElement._frozen(acc) if any(acc.values()) else ZERO

    label = f"d({c.label})" if c.label else "d(cochain)"
    return AdjointCochain(c.degree + 1, n, rule, weight=c.weight, label=label)


def linear_combination(parts: Iterable[tuple[Fraction, AdjointCochain]], degree: int,
                       n: int) -> AdjointCochain:
    """sum c_i * f_i as a single cochain (weights need not match)."""
    parts = [(exact(c), f) for c, f in parts]
    for _, f in parts:
        if f.degree != degree or f.dim != n:
            raise ValueError("mixed degrees or cutoffs in linear combination")

    def rule(tup: tuple[int, ...]) -> LieElement:
        return LieElement._sum((c, f.value_on_basis(tup)) for c, f in parts)

    return AdjointCochain(degree, n, rule, weight=None, label="sum")

