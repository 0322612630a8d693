"""Immutable sparse maps from canonical keys to exact coefficients.

LieElement, ExtForm and DeformPolynomial are all finite combinations
sum c_k * k over canonical keys k with nonzero Fraction or int coefficients.
They share this base and differ only in their key rule (_canonical), their
term order (_order) and their own methods.

Coefficients, like keys, are checked once, at the public constructor, by
exact: the one rule for what an exact value is.  Internal sums add the terms
of already canonical values into one dict and freeze it once, so a loop over
many parts costs one sort rather than one per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def exact(value):
    """An int or a Fraction unchanged, a rational string as a Fraction; else ValueError.

    A float has already lost exactness, and a bool is no number here.
    """
    if type(value) is int or isinstance(value, Fraction):
        return value
    if type(value) is str:
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"value {value!r} has a zero denominator") from None
    raise ValueError(f"value {value!r} is a {type(value).__name__}; write rationals as strings")


def require_ints(**values) -> None:
    """Refuse a label, size or degree that is not an int: a bool or a float is none."""
    if bad := [f"{name}={value!r}" for name, value in values.items() if type(value) is not int]:
        raise ValueError(f"labels, sizes and degrees must be ints, got {', '.join(bad)}")


class SparseCombination:
    """Terms (key, coeff), sorted by _order, with no zero coefficient."""

    __slots__ = ("terms",)
    _order = None  # sort key of a term; None sorts by key

    def __new__(cls, terms: Iterable = ()):
        acc: dict = {}
        for key, coeff in terms:
            key, coeff = cls._canonical(key, exact(coeff))
            acc[key] = acc.get(key, 0) + coeff
        return cls._frozen(acc)

    @staticmethod
    def _canonical(key, coeff):
        """(key, coeff) as stored, coeff already exact; ValueError on a key outside the class."""
        raise NotImplementedError

    @classmethod
    def _frozen(cls, acc):
        """Freeze an accumulator keyed by canonical keys.

        The caller vouches for the keys: they are neither checked nor
        re-canonicalised.  Zero coefficients are dropped and the terms sorted once.
        """
        return cls._of_terms(sorted([(k, c) for k, c in acc.items() if c], key=cls._order))

    @classmethod
    def _of_terms(cls, terms):
        """The combination of terms that the caller vouches are canonical, nonzero and in order."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", tuple(terms))
        return self

    @classmethod
    def _sum(cls, parts: Iterable):
        """sum factor * element over (factor, element) pairs, frozen once."""
        acc: dict = {}
        get = acc.get
        for factor, elem in parts:
            for key, coeff in elem.terms:
                acc[key] = get(key, 0) + factor * coeff
        return cls._frozen(acc)

    def _coefficient(self, key, default=0):
        """Coefficient of a canonical key; default if it has no term."""
        for k, c in self.terms:
            if k == key:
                return c
        return default

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return self._sum(((1, self), (1, other)))

    def __sub__(self, other):
        return self._sum(((1, self), (-1, other)))

    def __neg__(self):
        return self._sum(((-1, self),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def _render(self, body) -> str:
        """Terms joined as 'a + 2*b - c', body(key) naming each key; '0' if none.

        A unit coefficient is left out; a key with an empty name shows the
        coefficient alone.
        """
        parts = []
        for key, coeff in self.terms:
            text = body(key)
            if not text:
                frag = str(coeff)
            elif coeff == 1:
                frag = text
            elif coeff == -1:
                frag = "-" + text
            else:
                frag = f"{coeff}*{text}"
            if not parts:
                parts.append(frag)
            elif frag.startswith("-"):
                parts.append("- " + frag[1:])
            else:
                parts.append("+ " + frag)
        return " ".join(parts) if parts else "0"
