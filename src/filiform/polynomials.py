"""Sparse exact polynomials in the deformation variables.

A variable is either the pair (j, s) standing for x_{j,s}, or the string
"x": the even-dimension marker, which behaves like a variable of weight -1.
Monomials are sorted variable tuples; coefficients are nonzero integers.
Assignments map variables to rationals; evaluate sums plain exact values.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Union

from .sparse import SparseCombination, exact

Variable = Union[tuple[int, int], str]
Monomial = tuple[Variable, ...]

TOP = "x"


def check_variable(v: Variable) -> Variable:
    if v == TOP:
        return v
    if (isinstance(v, tuple) and len(v) == 2
            and all(type(c) is int for c in v) and v[0] >= 2 and v[1] >= 0):
        return v
    raise ValueError(f"not a deformation variable: {v!r}")


def var_key(v: Variable):
    # pairs ordered lexicographically, the marker x after all of them
    return (1,) if v == TOP else (0, v[0], v[1])


def var_weight(v: Variable) -> int:
    return -1 if v == TOP else v[1]


def var_text(v: Variable) -> str:
    return "x" if v == TOP else f"x_{{{v[0]},{v[1]}}}"


def var_cas(v: Variable) -> str:
    return "x" if v == TOP else f"x_{v[0]}_{v[1]}"


class _AfterPairs:
    """The marker's stand-in in the term order: it compares above every pair."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return other is not self


_AFTER_PAIRS = _AfterPairs()


def monomial_runs(mono: Monomial) -> list[tuple[Variable, int]]:
    """(variable, power) for each run of equal variables in a canonical monomial."""
    runs: list = []
    for v in mono:
        if runs and runs[-1][0] == v:
            runs[-1] = (v, runs[-1][1] + 1)
        else:
            runs.append((v, 1))
    return runs


def _canonical_monomial(mono: Iterable[Variable]) -> Monomial:
    return tuple(sorted((check_variable(v) for v in mono), key=var_key))


class DeformPolynomial(SparseCombination):
    """Immutable integer polynomial over deformation variables."""

    __slots__ = ()

    @staticmethod
    def _order(term: tuple[Monomial, int]):
        # by degree, then variable by variable in var_key order: pairs compare
        # as their var_key does, and the marker needs a stand-in above them
        mono = term[0]
        if TOP in mono:
            mono = tuple(_AFTER_PAIRS if v == TOP else v for v in mono)
        return len(mono), mono

    @staticmethod
    def _canonical(mono, coeff) -> tuple[Monomial, int]:
        if coeff.denominator != 1:
            raise ValueError(f"coefficient {coeff} is not an integer")
        return _canonical_monomial(mono), coeff.numerator

    @classmethod
    def term(cls, coeff: int, *variables: Variable) -> "DeformPolynomial":
        return cls(((tuple(variables), coeff),))

    def coefficient(self, *variables: Variable) -> int:
        return self._coefficient(_canonical_monomial(variables))

    def variables(self) -> set[Variable]:
        return {v for m, _ in self.terms for v in m}

    def __mul__(self, other):
        if type(other) is int:  # a bool is no factor, and a Fraction would leave the integers
            return self._sum(((other, self),))
        if isinstance(other, DeformPolynomial):
            return DeformPolynomial((ma + mb, ca * cb)
                                    for ma, ca in self.terms for mb, cb in other.terms)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def evaluate(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Exact value with missing variables read as 0."""
        values = {v: exact(a) for v, a in assignment.items()}
        return Fraction(sum(coeff * prod(values.get(v, 0) for v in mono)
                            for mono, coeff in self.terms))

    def restricted(self, keep) -> "DeformPolynomial":
        """Sub-polynomial of monomials whose variables all lie in keep."""
        return DeformPolynomial((m, c) for m, c in self.terms
                                if all(v in keep for v in m))

    def is_bihomogeneous(self, degree: int, weight: int) -> bool:
        """Every monomial has the stated total degree and weight sum."""
        return all(len(m) == degree and sum(var_weight(v) for v in m) == weight
                   for m, _ in self.terms)

    def scaled_substitution(self, alpha: Fraction, beta: Fraction,
                            assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Value at the rescaled point x_{j,s} -> beta * alpha^s * x_{j,s}.

        The marker x rescales with weight -1: x -> beta * alpha^{-1} * x.
        """
        alpha, beta = exact(alpha), exact(beta)
        # an int alpha stays an int, and int ** -1 would be a float
        scaled = {v: beta * (Fraction(1, alpha) if v == TOP else alpha ** v[1]) * exact(a)
                  for v, a in assignment.items()}
        return self.evaluate(scaled)

    def text(self) -> str:
        """Rendering like 3*x_{3,0}^2 - x_{3,0}*x_{4,0}."""
        return self._render(lambda mono: self._monomial_text(mono, var_text))

    def cas(self) -> str:
        """Rendering over plain identifiers, e.g. 3*x_3_0^2 - x_3_0*x_4_0."""
        return self._render(lambda mono: self._monomial_text(mono, var_cas))

    @staticmethod
    def _monomial_text(mono: Monomial, name) -> str:
        """name(v)^power over the runs of equal variables, joined by '*'."""
        return "*".join(name(v) + (f"^{power}" if power > 1 else "")
                        for v, power in monomial_runs(mono))

    def __repr__(self) -> str:
        return self.text()
