"""Exterior forms on the dual basis e^2, e^3, ... (e^1 allowed, index 0 not).

A form is a rational combination of wedge monomials e^{i_1} ^ ... ^ e^{i_q}
with strictly increasing indices.  Monomials are stored canonically sorted;
construction from an unsorted index sequence picks up the permutation sign
and kills repeated indices.

Operators:
  d1       degree-0 derivation with e^2 -> 0, e^i -> e^{i-1}
  dminus1  right inverse to d1, weight +1 on monomials
  d_trivial   differential with d(e^i) = e^1 ^ e^{i-1}; on e^1-free forms
              it equals e^1 ^ d1(.)
  omega    the closed-form cocycle attached to a label (i_1 < ... < i_q, i_q+1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .sparse import SparseCombination, exact


def _sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort a wedge index sequence, returning (sorted, sign); sign 0 on repeats."""
    seq = list(indices)
    sign = 1
    # insertion sort; count transpositions
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(seq, seq[1:]):
        if a == b:
            return tuple(seq), 0
    return tuple(seq), sign


class ExtForm(SparseCombination):
    """Immutable exterior form; terms map sorted index tuples to rationals."""

    __slots__ = ()

    @staticmethod
    def _order(term):
        return len(term[0]), term[0]

    @staticmethod
    def _canonical(mono, coeff) -> tuple[tuple[int, ...], Fraction]:
        for idx in mono:
            if type(idx) is not int or idx < 1:
                raise ValueError(f"dual index must be an int >= 1, got {idx!r}")
        mono, sign = _sort_with_sign(tuple(mono))
        return mono, sign * coeff

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff=1) -> "ExtForm":
        return cls(((tuple(indices), coeff),))

    @classmethod
    def generator(cls, i: int) -> "ExtForm":
        return cls.monomial((i,))

    def coefficient(self, indices: Iterable[int]) -> Fraction:
        mono, sign = _sort_with_sign(tuple(indices))
        return sign * self._coefficient(mono, Fraction(0))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self.terms)

    def scaled(self, factor) -> "ExtForm":
        return self._sum(((exact(factor), self),))

    def __rmul__(self, factor) -> "ExtForm":
        return self.scaled(factor)

    def __repr__(self) -> str:
        return self._render(lambda mono: "^".join(f"e{i}" for i in mono))


def wedge(a: ExtForm, b: ExtForm) -> ExtForm:
    out = []
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            out.append((ma + mb, ca * cb))
    return ExtForm(out)


def d1(f: ExtForm) -> ExtForm:
    """Degree-0 derivation: e^1 is rejected, e^2 -> 0, e^i -> e^{i-1}."""
    out = []
    for mono, c in f.terms:
        if 1 in mono:
            raise ValueError("d1 is undefined on forms containing e^1")
        for p, idx in enumerate(mono):
            if idx == 2:
                continue
            out.append((mono[:p] + (idx - 1,) + mono[p + 1:], c))
    return ExtForm(out)


def _shift_series(prefix: ExtForm, start: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Terms of sum_l (-1)^l d1^l(prefix) ^ e^{start + l}.

    start must exceed every index of prefix, so each appended index lands
    last and the monomials stay sorted.  The sum is finite because d1 is
    nilpotent on any fixed monomial.
    """
    l = 0
    while not prefix.is_zero:
        sign = -1 if l % 2 else 1
        for mono, c in prefix.terms:
            yield mono + (start + l,), sign * c
        prefix = d1(prefix)
        l += 1


def dminus1(f: ExtForm) -> ExtForm:
    """Right inverse of d1 on e^1-free forms.

    On a monomial xi ^ e^i (xi supported below i):
        sum_l (-1)^l d1^l(xi) ^ e^{i+1+l},
    which is e^i -> e^{i+1} in degree one, where xi is the empty monomial.
    """
    for mono, _ in f.terms:
        if 1 in mono:
            raise ValueError("dminus1 is undefined on forms containing e^1")
    return ExtForm(term for mono, c in f.terms
                   for term in _shift_series(ExtForm.monomial(mono[:-1], c), mono[-1] + 1))


def d_trivial(f: ExtForm) -> ExtForm:
    """Differential of the chain algebra on scalars: d e^i = e^1 ^ e^{i-1}.

    e^1 and e^2 are closed.  Extends as an odd derivation; on e^1-free
    input this is exactly wedge(e^1, d1(f)).
    """
    out = []
    for mono, c in f.terms:
        for p, idx in enumerate(mono):
            if idx <= 2:
                continue
            # odd derivation: (-1)^p for the factors skipped, then the
            # replacement e^{i_p} -> e^1 ^ e^{i_p - 1} lands in place
            sign = -1 if p % 2 else 1
            out.append((mono[:p] + (1, idx - 1) + mono[p + 1:], sign * c))
    return ExtForm(out)


def omega(indices: Iterable[int]) -> ExtForm:
    """Cocycle generator for a label (i_1 < ... < i_q, i_q + 1), entries >= 2.

    omega = sum_l (-1)^l d1^l(e^{i_1} ^ ... ^ e^{i_q}) ^ e^{i_q + 1 + l}.
    Closed for d_trivial; leading monomial is the label itself.
    """
    idx = tuple(indices)
    if len(idx) < 2:
        raise ValueError("label needs at least two indices")
    if any(i < 2 for i in idx):
        raise ValueError("label indices must be >= 2")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError("label indices must be strictly increasing")
    if idx[-1] != idx[-2] + 1:
        raise ValueError("label must end with consecutive indices (i_q, i_q + 1)")
    return ExtForm(_shift_series(ExtForm.monomial(idx[:-1]), idx[-1]))
