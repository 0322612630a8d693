"""Closed-form quadratic systems cutting out the deformation varieties.

f_poly and g_poly are literal loop transcriptions of the closed formulas;
the out-of-range binomial terms vanish by the zero convention, so the
floor-bracket sills only bound the loops, never the support.  The
independent cross-check lives in oracle.py and never calls into here.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .combinatorics import binomial, partitions_exact
from .polynomials import TOP, DeformPolynomial, Variable

X_MODES = ("free", "fixed-0", "fixed-1")


def _check_pair(j: int, q: int) -> None:
    if not (2 <= j < q):
        raise ValueError(f"equation label needs 2 <= j < q, got j={j}, q={q}")


def f_poly(j: int, q: int, r: int) -> DeformPolynomial:
    """Quadratic polynomial whose vanishing kills the e_{j+2q+1+r} defect."""
    _check_pair(j, q)
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    acc: dict = {}

    def add(a, b, c):
        # a pair monomial is canonical once its two variables are in order
        mono = (a, b) if a <= b else (b, a)
        acc[mono] = acc.get(mono, 0) + c

    for t in range(r + 1):
        m_hi = q + (j + t) // 2
        for l in range(j, (j + q - 1) // 2 + 1):
            for m in range(q + 1, m_hi + 1):
                c = binomial(q - l - 1, l - j) * binomial(j + q - m + t - 1, m - q - 1)
                if c:
                    add((l, t), (m, r - t), -c if (l - j + m - q) % 2 else c)
        for l in range(j, (j + q) // 2 + 1):
            # the m = q boundary term matters: it feeds the diagonal x_{q,t} row
            for m in range(q, m_hi + 1):
                c = binomial(q - l, l - j) * binomial(j + q - m + t, m - q)
                if c:
                    add((l, t), (m, r - t), -c if (l - j + m - q) % 2 else c)
        for m in range(j, m_hi + 1):
            c = binomial(2 * q - m + t, m - j)
            if c:
                add((q, t), (m, r - t), -c if (m - j + 1) % 2 else c)
    return DeformPolynomial._frozen(acc)


def g_poly(j: int, q: int, r: int) -> DeformPolynomial:
    """Linear correction polynomial for the top-weight even-dimension rows."""
    _check_pair(j, q)
    if r < -1:
        raise ValueError(f"r must be >= -1, got {r}")
    acc: dict = {}

    def add(l, c):
        acc[((l, r + 1),)] = acc.get(((l, r + 1),), 0) + c

    for l in range(j, (j + q - 1) // 2 + 1):
        c = binomial(q - l - 1, l - j)
        if c:
            add(l, (-1 if l % 2 else 1) * c)
    for l in range(j, (j + q) // 2 + 1):
        c = binomial(q - l, l - j)
        if c:
            add(l, (-1 if l % 2 else 1) * c)
    add(q, 1 if q % 2 else -1)
    return DeformPolynomial._frozen(acc)


class Equation(NamedTuple):
    label: tuple[int, int, int]
    poly: DeformPolynomial
    tilde: bool

    @property
    def weight(self) -> int:
        j, q, r = self.label
        return j + 2 * q + 1 + r


def variable_inventory(n: int) -> list[tuple[int, int]]:
    """All pairs (j, s) with 2j+1+s <= n, in canonical order."""
    return [(j, s) for j in range(2, (n - 1) // 2 + 1) for s in range(n - 2 * j)]


def _system_labels(n: int, marker_rows: bool) -> list[tuple[int, int, int]]:
    """Labels (j, q, r) of totals 9..n in (total, j, q) order; marker_rows adds r = -1 at n."""
    labels = []
    for w in range(9, n + 1):
        r_min = -1 if marker_rows and w == n else 0
        for j in range(2, w):
            # r = w - j - 2q - 1 >= r_min caps q
            for q in range(j + 1, (w - j - 1 - r_min) // 2 + 1):
                labels.append((j, q, w - j - 2 * q - 1))
    return labels


class EquationSystem:
    """Labeled equations over a declared variable inventory."""

    __slots__ = ("kind", "size", "x_mode", "variables", "equations")

    def __init__(self, kind: str, size: int, x_mode: str,
                 variables: tuple[Variable, ...], equations: tuple[Equation, ...]):
        if x_mode not in X_MODES:
            raise ValueError(f"unknown x_mode {x_mode!r}")
        seen = set()
        pool = set(variables)
        for eq in equations:
            if eq.label in seen:
                raise ValueError(f"duplicate label {eq.label}")
            seen.add(eq.label)
            stray = eq.poly.variables() - pool
            if stray:
                raise ValueError(f"equation {eq.label} uses undeclared {stray}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "x_mode", x_mode)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "equations", equations)

    def __setattr__(self, name, value):
        raise AttributeError("EquationSystem is immutable")

    @property
    def system_id(self) -> str:
        if self.kind == "truncated":
            return f"truncated({self.size})"
        return f"M_Fil({self.size})[x={self.x_mode}]"

    def labels(self) -> list[tuple[int, int, int]]:
        return [eq.label for eq in self.equations]

    def equation(self, label: tuple[int, int, int]) -> Equation:
        for eq in self.equations:
            if eq.label == tuple(label):
                return eq
        raise KeyError(f"no equation labeled {label}")

    def __iter__(self):
        return iter(self.equations)

    def __len__(self) -> int:
        return len(self.equations)

    def __repr__(self) -> str:
        return f"EquationSystem({self.system_id}, {len(self.equations)} equations)"


def system_finite(n: int, x_mode: str = "free") -> EquationSystem:
    """Defining system of the n-dimensional variety.

    Odd n: rows F_{j,q,r} over 9 <= j+2q+1+r <= n.  Even n = 2k: the
    top-weight rows pick up the marker correction (-1)^{k-j-q} x G_{j,q,r},
    and the r = -1 rows consist of that correction alone.
    """
    if n < 9:
        raise ValueError(f"dimension must be >= 9, got {n}")
    even = n % 2 == 0
    k = n // 2
    equations = []
    for j, q, r in _system_labels(n, even):
        if even and j + 2 * q + 1 + r == n:
            sign = -1 if (k - j - q) % 2 else 1
            xg = sign * (DeformPolynomial.variable(TOP) * g_poly(j, q, r))
            poly = (f_poly(j, q, r) + xg) if r >= 0 else xg
            if x_mode == "fixed-0":
                poly = poly.substitute_top(0)
            elif x_mode == "fixed-1":
                poly = poly.substitute_top(1)
            equations.append(Equation((j, q, r), poly, True))
        else:
            equations.append(Equation((j, q, r), f_poly(j, q, r), False))
    variables: list[Variable] = list(variable_inventory(n))
    if even and x_mode == "free":
        variables.append(TOP)
    return EquationSystem(f"M_Fil({n})", n, x_mode, tuple(variables), tuple(equations))


def system_truncated(total_max: int) -> EquationSystem:
    """All rows F_{j,q,r} with j+2q+1+r <= total_max; no marker rows."""
    if total_max < 9:
        raise ValueError(f"truncation bound must be >= 9, got {total_max}")
    equations = tuple(Equation((j, q, r), f_poly(j, q, r), False)
                      for j, q, r in _system_labels(total_max, False))
    variables = tuple(variable_inventory(total_max))
    return EquationSystem("truncated", total_max, "fixed-0", variables, equations)


def closed_form_counts(n: int) -> tuple[int, int]:
    """(num_vars, num_eqs) from the closed formulas, exact integers."""
    if n < 9:
        raise ValueError(f"dimension must be >= 9, got {n}")
    if n % 2:
        num_vars = (n - 3) ** 2 // 4
        num_eqs = sum(partitions_exact(3, m) for m in range(3, n - 5))
    else:
        num_vars = (n - 2) * (n - 4) // 4
        num_eqs = (sum(partitions_exact(3, m) for m in range(3, n - 6))
                   + partitions_exact(3, n - 5))
    return num_vars, num_eqs


def dims_report(n: int) -> dict:
    """Counts plus per-weight breakdowns, cross-checked against enumeration.

    h2_by_weight maps s to the number of variables x_{j,s}; h3_by_weight
    maps r to the number of equation labels (j,q,r).  Closed forms, the
    partition-sum identities and the direct enumeration of the labels that
    system_finite(n) builds must all agree; no polynomial is built.
    """
    num_vars, num_eqs = closed_form_counts(n)
    p2_sum = sum(partitions_exact(2, m) for m in range(2, n - 2))
    pairs = variable_inventory(n)
    labels = _system_labels(n, n % 2 == 0)
    if not (num_vars == p2_sum == len(pairs)):
        raise ArithmeticError(
            f"variable counts disagree at n={n}: "
            f"closed {num_vars}, partition sum {p2_sum}, enumerated {len(pairs)}")
    if num_eqs != len(labels):
        raise ArithmeticError(
            f"equation counts disagree at n={n}: "
            f"closed {num_eqs}, enumerated {len(labels)}")
    h2 = Counter(s for _, s in pairs)
    h3 = Counter(r for _, _, r in labels)
    return {
        "num_vars": num_vars,
        "num_eqs": num_eqs,
        "h2_by_weight": dict(sorted(h2.items())),
        "h3_by_weight": dict(sorted(h3.items())),
    }
