"""Adjoint-valued cochains on the chain algebra m0 and their calculus.

A cochain of degree q is its table of nonzero vector values on increasing
basis q-tuples; every other increasing tuple takes zero.  A bracket is such
a table of degree 2, a LieStructure, and d_adjoint takes any degree-2 cochain
as its base.  Evaluation on arbitrary index tuples routes through the
permutation sign, and the standard weighted cocycles hold no tuple containing
index 1 (their scalar parts have no e^1 factor).  Every constructor here
builds its table once; d_adjoint scatters c's table into dc's on integers.

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
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import lt
from typing import Iterable, Mapping

from .combinatorics import binomial
from .forms import ExtForm, _sort_with_sign, dminus1, omega
from .lie import ZERO, LieElement
from .sparse import exact, require_ints


class AdjointCochain:
    """Alternating multilinear map on basis tuples with vector values.

    values maps strictly increasing int tuples in 1..dim to LieElements with no
    basis vector above dim.  Its nonzero entries are the cochain's one store;
    every other increasing tuple takes zero.
    """

    def __init__(self, degree: int, dim: int, values: Mapping[tuple[int, ...], LieElement],
                 label: str = ""):
        require_ints(degree=degree, dim=dim)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if dim < 1:
            raise ValueError("dimension cutoff must be >= 1")
        self.degree = degree
        self.dim = dim
        self.label = label
        for tup, value in values.items():
            if type(tup) is not tuple or any(type(idx) is not int for idx in tup):
                raise ValueError(f"basis indices must be ints, in a tuple of ints; got {tup!r}")
            self._check_tuple(tup)
            if not isinstance(value, LieElement):
                raise ValueError(f"the value on {tup} must be a LieElement, got {value!r}")
            if value.terms and value.terms[-1][0] > dim:
                raise ValueError(f"basis index out of range: the value on {tup} has "
                                 f"e_{value.terms[-1][0]} above cutoff {dim}")
        # the name _memo is the one perfbench/tracer.py's memo_probe reads
        self._memo = {tup: value for tup, value in values.items() if not value.is_zero}

    def _check_tuple(self, tup: tuple[int, ...]) -> None:
        if len(tup) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(tup)}")
        if tup[0] < 1 or tup[-1] > self.dim:
            raise ValueError(f"tuple {tup} out of range 1..{self.dim}")
        if not all(map(lt, tup, tup[1:])):
            raise ValueError(f"tuple {tup} is not strictly increasing")

    def value_on_basis(self, tup: tuple[int, ...]) -> LieElement:
        """Value on a strictly increasing tuple: the table's, else zero.

        A tuple the table does not hold is checked before it reads as zero.
        Indices are not type-checked: this is every sweep's hot path, and the
        sweeps pass tuples from itertools.combinations.
        """
        stored = self._memo.get(tup)
        if stored is not None:
            return stored
        self._check_tuple(tup)
        return ZERO

    def nonzero(self) -> list[tuple[tuple[int, ...], LieElement]]:
        """The nonzero values as (tuple, value) pairs, by increasing tuple."""
        return sorted(self._memo.items())

    def value(self, *indices: int) -> LieElement:
        """Value on any int index tuple in range; repeats give zero, order gives the sign."""
        if len(indices) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(indices)}")
        if bad := [idx for idx in indices if type(idx) is not int]:
            raise ValueError(f"basis indices must be ints, got {bad!r}")
        tup, sign = _sort_with_sign(indices)
        if not sign and 1 <= tup[0] and tup[-1] <= self.dim:
            return ZERO  # a repeat out of range goes on to value_on_basis's refusal
        base = self.value_on_basis(tup)
        return base if sign == 1 else -base

    def __repr__(self) -> str:
        tag = self.label or "cochain"
        return f"<{type(self).__name__} {tag} deg={self.degree} n={self.dim}>"


class LieStructure(AdjointCochain):
    """A bracket on e_1..e_dim: the degree-2 cochain of its values [e_i, e_j], i < j."""

    def __init__(self, dim: int, relations: Mapping[tuple[int, int], LieElement],
                 label: str = ""):
        super().__init__(2, dim, relations, label)

    def bracket(self, a: LieElement, b: LieElement) -> LieElement:
        return LieElement._sum((ca * cb, self.value(i, j))
                               for i, ca in a.terms for j, cb in b.terms)

    def jacobi_defect(self, i: int, j: int, k: int) -> LieElement:
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
        ei, ej, ek = (LieElement.basis(m) for m in (i, j, k))
        return LieElement._sum((1, self.bracket(self.bracket(x, y), z))
                               for x, y, z in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)))


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
    require_ints(j=j, s=s, n=n)
    _check_psi2_params(j, s, n)
    if method == "table":
        values = {(k, m): LieElement._frozen({value[0]: value[1]})
                  for k, m in combinations(range(2, n + 1), 2)
                  if (value := psi2_value(j, s, n, k, m)) is not None}
    elif method == "series":
        values = _series_values(omega((j, j + 1)), 2 * j + 1, s, n)
    else:
        raise ValueError("method must be 'table' or 'series'")
    return AdjointCochain(2, n, values, label=f"Psi_{{{j},{s}}}")


def psi_top(k: int) -> AdjointCochain:
    """The weight -1 cocycle e_{2k} (x) omega(e^k ^ e^{k+1}) on e_1..e_2k."""
    if k < 3:
        raise ValueError("top cocycle needs k >= 3")
    return psi2(k, -1, 2 * k)


def _series_values(base: ExtForm, base_weight: int, s: int, n: int) -> dict:
    """Nonzero cochain values read off the shift tower base, dminus1(base), ...

    Each monomial of dminus1^l(base) is a basis tuple of input weight
    base_weight + l, and its coefficient is paired with e_{base_weight + l + s}.
    The tower stops at weight n - s, so no value lands above e_n; its forms
    have no e^1 (omega's indices are >= 2 and d1 sends e^2 to 0), so no tuple
    holds e_1.
    """
    forms = [base]
    for _ in range(n - base_weight - s):
        forms.append(dminus1(forms[-1]))
    return {tup: LieElement._frozen({base_weight + step + s: coeff})
            for step, form in enumerate(forms) for tup, coeff in form.terms}


def psi3(i: int, j: int, s: int, n: int) -> AdjointCochain:
    """Degree-3 cocycle of weight s >= 0 for the label (i, j, j+1), 2 <= i < j.

    Values come from the scalar cocycle omega(e^i ^ e^j ^ e^{j+1}):
    the component at total input weight w is paired with e_{w+s}.
    """
    require_ints(i=i, j=j, s=s, n=n)
    if not 2 <= i < j:
        raise ValueError("need 2 <= i < j")
    if s < 0:
        raise ValueError("weight must be >= 0")
    base_weight = i + 2 * j + 1
    if base_weight + s > n:
        raise ValueError(f"label (i={i}, j={j}, s={s}) does not fit below cutoff {n}")
    values = _series_values(omega((i, j, j + 1)), base_weight, s, n)
    return AdjointCochain(3, n, values, label=f"Psi_{{{i},{j},{s}}}")


def d_adjoint(c: AdjointCochain, base: AdjointCochain) -> AdjointCochain:
    """Chevalley-Eilenberg differential of c with respect to ad of base, a degree-2 cochain.

    (dc)(x_1..x_{q+1}) = sum_i (-1)^{i+1} [x_i, c(.. x_i ..)]
                       + sum_{i<j} (-1)^{i+j} c([x_i,x_j], .. x_i .. x_j ..)
    with 1-based positions and hats marking omitted arguments.

    The call scatters c's table: each nonzero c(T) is pushed into one
    accumulator per (q+1)-tuple.  The first sum sends (-1)^pos [e_idx, c(T)] to
    T with idx inserted at pos; the second sends (-1)^{pos a + pos b + t} coeff
    c(T) to (T without T[t]) with a and b inserted, for each bracket [e_a, e_b]
    (a < b) with a term coeff at T[t].  Brackets are clipped at n, and one with
    b > n is never read, since c's values and arguments stop at e_n.  The
    nonzero sums are dc's table.  They run on numerators over each table's
    lcm, denom_b and denom_c, and become Fractions only if either is above 1.
    """
    if base.degree != 2:
        raise ValueError(f"the base must be a bracket, of degree 2, not of degree {base.degree}")
    if base.dim < c.dim:
        raise ValueError("base structure cutoff below cochain cutoff")
    n, q = c.dim, c.degree
    denom_b, denom_c = (lcm(*(x.denominator for value in table.values() for _, x in value.terms))
              for table in (base._memo, c._memo))
    toward: dict[int, list] = {}  # j -> [(idx, terms of [e_idx, e_j])], idx <= n
    lands: dict[int, list] = {}  # idx -> [(a, b, coeff of e_idx in [e_a, e_b])], a < b <= n
    for (a, b), value in base.nonzero():
        terms = value.clipped(n).terms
        if b > n or not terms:
            continue
        if denom_b > 1:
            terms = tuple((k, x.numerator * (denom_b // x.denominator)) for k, x in terms)
        toward.setdefault(b, []).append((a, terms))
        toward.setdefault(a, []).append((b, tuple((k, -v) for k, v in terms)))
        for idx, coeff in terms:
            lands.setdefault(idx, []).append((a, b, coeff))
    accs: defaultdict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
    for tup, value in c._memo.items():
        terms = value.terms
        if denom_c > 1:
            terms = tuple((k, x.numerator * (denom_c // x.denominator)) for k, x in terms)
        for j, cj in terms:
            for idx, row in toward.get(j, ()):
                pos = bisect_left(tup, idx)
                if pos < q and tup[pos] == idx:
                    continue  # idx repeats an argument: no basis tuple
                f = -cj if pos % 2 else cj
                acc = accs[tup[:pos] + (idx,) + tup[pos:]]
                for k, v in row:
                    acc[k] = acc.get(k, 0) + f * v
        for t, idx in enumerate(tup):
            rest = tup[:t] + tup[t + 1:]
            for a, b, coeff in lands.get(idx, ()):
                pa = bisect_left(rest, a)
                if pa < q - 1 and rest[pa] == a:
                    continue  # a or b repeats an argument: no basis tuple
                pb = bisect_left(rest, b, pa)
                if pb < q - 1 and rest[pb] == b:
                    continue
                # a sits at pa and b at pb + 1 in the (q+1)-tuple
                f = -coeff if (pa + pb + 1 + t) % 2 else coeff
                acc = accs[rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]]
                for k, v in terms:
                    acc[k] = acc.get(k, 0) + f * v
    denom = denom_b * denom_c
    values = {tup: LieElement._frozen(acc if denom == 1 else
                                      {k: Fraction(v, denom) for k, v in acc.items()})
              for tup, acc in accs.items() if any(acc.values())}
    return AdjointCochain(q + 1, n, values, label=f"d({c.label})" if c.label else "d(cochain)")


def linear_combination(parts: Iterable[tuple[Fraction, AdjointCochain]], degree: int,
                       n: int) -> AdjointCochain:
    """sum c_i * f_i as a single cochain (weights need not match): the sum of their tables."""
    parts = [(exact(c), f) for c, f in parts]
    for _, f in parts:
        if f.degree != degree or f.dim != n:
            raise ValueError("mixed degrees or cutoffs in linear combination")
    sums: dict[tuple[int, ...], list] = {}
    for c, f in parts:
        for tup, value in f._memo.items():
            sums.setdefault(tup, []).append((c, value))
    return AdjointCochain(degree, n, {tup: LieElement._sum(terms) for tup, terms in sums.items()},
                          label="sum")
