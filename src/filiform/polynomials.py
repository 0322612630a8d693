"""Sparse exact polynomials in the deformation variables.

A variable is either the pair (j, s) standing for x_{j,s}, or the string
"x": the even-dimension marker, which behaves like a variable of weight -1.
Monomials are sorted variable tuples; coefficients are nonzero integers.
Assignments map variables to rationals and evaluation is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Variable = Union[tuple[int, int], str]
Monomial = tuple[Variable, ...]

TOP = "x"


def check_variable(v: Variable) -> Variable:
    if v == TOP:
        return v
    if (isinstance(v, tuple) and len(v) == 2
            and all(isinstance(c, int) for c in v) and v[0] >= 2 and v[1] >= 0):
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


def _canonical_monomial(mono: Iterable[Variable]) -> Monomial:
    return tuple(sorted((check_variable(v) for v in mono), key=var_key))


def _term_order(term: tuple[Monomial, int]):
    # by degree, then variable by variable in var_key order
    return (len(term[0]), tuple(var_key(v) for v in term[0]))


class DeformPolynomial:
    """Immutable integer polynomial over deformation variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[Monomial, int]] = ()):
        acc: dict[Monomial, int] = {}
        for mono, coeff in terms:
            if coeff != int(coeff):
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            mono = _canonical_monomial(mono)
            c = acc.get(mono, 0) + int(coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        object.__setattr__(self, "terms", tuple(sorted(acc.items(), key=_term_order)))

    @classmethod
    def _frozen(cls, acc: Mapping[Monomial, int]) -> "DeformPolynomial":
        """Freeze an accumulator keyed by canonical monomials of valid variables.

        The caller vouches for the keys: their variables are neither checked
        nor re-sorted.  Zero coefficients are dropped and the terms sorted once.
        """
        self = object.__new__(cls)
        terms = sorted(((m, c) for m, c in acc.items() if c), key=_term_order)
        object.__setattr__(self, "terms", tuple(terms))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DeformPolynomial is immutable")

    @classmethod
    def zero(cls) -> "DeformPolynomial":
        return cls()

    @classmethod
    def variable(cls, v: Variable) -> "DeformPolynomial":
        return cls((((v,), 1),))

    @classmethod
    def term(cls, coeff: int, *variables: Variable) -> "DeformPolynomial":
        return cls(((tuple(variables), coeff),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, *variables: Variable) -> int:
        mono = _canonical_monomial(variables)
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def variables(self) -> set[Variable]:
        return {v for m, _ in self.terms for v in m}

    def degree(self) -> int:
        return max((len(m) for m, _ in self.terms), default=0)

    def __add__(self, other: "DeformPolynomial") -> "DeformPolynomial":
        return DeformPolynomial(self.terms + other.terms)

    def __sub__(self, other: "DeformPolynomial") -> "DeformPolynomial":
        return self + (-other)

    def __neg__(self) -> "DeformPolynomial":
        return DeformPolynomial((m, -c) for m, c in self.terms)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return DeformPolynomial()
            return DeformPolynomial((m, c * other) for m, c in self.terms)
        if isinstance(other, DeformPolynomial):
            out = []
            for ma, ca in self.terms:
                for mb, cb in other.terms:
                    out.append((ma + mb, ca * cb))
            return DeformPolynomial(out)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def evaluate(self, assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Exact value with missing variables read as 0."""
        total = Fraction(0)
        for mono, coeff in self.terms:
            value = Fraction(coeff)
            for v in mono:
                value *= Fraction(assignment.get(v, 0))
                if not value:
                    break
            total += value
        return total

    def restricted(self, keep) -> "DeformPolynomial":
        """Sub-polynomial of monomials whose variables all lie in keep."""
        return DeformPolynomial((m, c) for m, c in self.terms
                                if all(v in keep for v in m))

    def substitute_top(self, value: int) -> "DeformPolynomial":
        """Replace the marker x by a constant (0 or 1 in practice)."""
        out = []
        for mono, coeff in self.terms:
            rest = tuple(v for v in mono if v != TOP)
            count = len(mono) - len(rest)
            out.append((rest, coeff * value ** count))
        return DeformPolynomial(out)

    def monomial_weight(self, mono: Monomial) -> int:
        return sum(var_weight(v) for v in mono)

    def is_bihomogeneous(self, degree: int, weight: int) -> bool:
        """Every monomial has the stated total degree and weight sum."""
        return all(len(m) == degree and self.monomial_weight(m) == weight
                   for m, _ in self.terms)

    def scaled_substitution(self, alpha: Fraction, beta: Fraction,
                            assignment: Mapping[Variable, Fraction]) -> Fraction:
        """Value at the rescaled point x_{j,s} -> beta * alpha^s * x_{j,s}.

        The marker x rescales with weight -1: x -> beta * alpha^{-1} * x.
        """
        scaled = {v: Fraction(beta) * Fraction(alpha) ** var_weight(v) * Fraction(a)
                  for v, a in assignment.items()}
        return self.evaluate(scaled)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeformPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def text(self) -> str:
        """Rendering like 3*x_{3,0}^2 - x_{3,0}*x_{4,0}."""
        return self._render(var_text)

    def cas(self) -> str:
        """Rendering over plain identifiers, e.g. 3*x_3_0^2 - x_3_0*x_4_0."""
        return self._render(var_cas)

    def _render(self, name) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms:
            factors = []
            pos = 0
            while pos < len(mono):
                run = pos
                while run < len(mono) and mono[run] == mono[pos]:
                    run += 1
                power = run - pos
                factors.append(name(mono[pos]) + (f"^{power}" if power > 1 else ""))
                pos = run
            body = "*".join(factors) if factors else "1"
            mag = abs(coeff)
            frag = body if mag == 1 and factors else f"{mag}*{body}" if factors else str(mag)
            if not parts:
                parts.append(frag if coeff > 0 else f"-{frag}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + frag)
        return " ".join(parts)

    def __repr__(self) -> str:
        return self.text()
