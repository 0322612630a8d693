"""Closed-form quadratic systems cutting out the deformation varieties.

F_{j,q,r} is a sum of products of linear forms, over t = 0..r of
L1(t) R1_t + L2(t) R2_t + x_{q,t} R3_t: L1 and L2 pair the same binomials
in l with x_{l,t} for every t, and R1_t, R2_t, R3_t pair binomials in m
with x_{m,r-t}.  Out-of-range binomials vanish by the zero convention, so
the floor-bracket sills only bound the loops, never the support.  At even
n = 2k the marker x is x_{k,-1}, and a top row F + (-1)^{k-j-q} x G is the
same sum taken to t = r+1.  _left_forms and _right_forms are this one closed
form, read through a pass's _Forms table by two consumers: _row expands it into
a polynomial, and residuals evaluates it at a point, sum_t A_t(p) * B_t(p),
without building one.  An EquationSystem is a head (size, truncated or not,
marker mode) and every row of it, in order: held once checked, or built and
checked one at a time as it is iterated.
The independent cross-check lives in oracle.py and never calls into here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, NamedTuple

from .combinatorics import binomial, partitions_exact
from .polynomials import TOP, DeformPolynomial, Variable
from .sparse import exact, require_ints

# the marker's partner in the t = r+1 term of a top row: x kept (free),
# x = 1 (fixed-1), or no such term at all (x = 0)
X_MODES = {"free": (TOP,), "fixed-0": None, "fixed-1": ()}


def _check_dim(size: int, what: str = "dimension") -> None:
    require_ints(size=size)
    if size < 9:
        raise ValueError(f"{what} must be >= 9, got {size}")


def _check_label(j: int, q: int, r: int, r_min: int) -> None:
    require_ints(j=j, q=q, r=r)
    if not (2 <= j < q):
        raise ValueError(f"equation label needs 2 <= j < q, got j={j}, q={q}")
    if r < r_min:
        raise ValueError(f"r must be >= {r_min}, got {r}")


def _left_forms(j: int, q: int) -> list[tuple[int, int, int]]:
    """(l, L1, L2) for j <= l < q; they pair with x_{l,t} for any t, and vanish above (j+q)/2."""
    return [(l, (-1) ** (l - j) * binomial(q - l - 1, l - j),
             (-1) ** (l - j) * binomial(q - l, l - j)) for l in range(j, q)]


def _right_forms(j: int, q: int, t: int, top: bool) -> list[tuple[int, int, int, int]]:
    """(m, R1, R2, R3) at t, a row for each m up to m_hi = q + (j+t)//2.

    They pair with x_{m,r-t}, or at top (t = r+1) with the marker, which only
    m = k = m_hi has: x_{k,-1}.  Below top the rows start at m = j, so m's row
    is at index m - j.  R1 holds m > q and R2 m >= q; R3 holds all of j..m_hi.
    """
    m_hi = q + (j + t) // 2
    return [(m,
             (-1) ** (m - q) * binomial(j + q - m + t - 1, m - q - 1) if m > q else 0,
             # the m = q boundary term matters: it feeds the diagonal x_{q,t} row
             (-1) ** (m - q) * binomial(j + q - m + t, m - q) if m >= q else 0,
             (-1) ** (m - j + 1) * binomial(2 * q - m + t, m - j))
            for m in range(m_hi if top else j, m_hi + 1)]


class _Forms(dict):
    """The linear forms of one pass over rows, each block computed once.

    forms[j, q] is _left_forms(j, q), and forms[j, q, t, top] is _right_forms(j,
    q, t, top).  Neither depends on r, so the rows of a pass share them: at n = 30
    they ask for 2,730 right blocks, 458 of them distinct.  A table lives as long
    as its pass.
    """

    def __missing__(self, key):
        forms = self[key] = _left_forms(*key) if len(key) == 2 else _right_forms(*key)
        return forms


def _row(j: int, q: int, r: int, marker, forms: _Forms | None = None) -> DeformPolynomial:
    """F_{j,q,r}, plus its t = r+1 term when marker is a partner from X_MODES.

    The pair terms come out in term order: by first variable x_{l,t}, then by
    the second, x_{m,r-t}.  L1 and L2 hold l < q and R1, R2 hold m >= q, so
    their products are x_{l,t} x_{m,r-t} as they stand.  x_{q,t} R3_t is too for
    m >= q; for m < q it is x_{m,r-t} x_{q,t}, first variable x_{m,r-t}.
    forms is the pass's table; a row built alone gets a table of its own.
    """
    forms = _Forms() if forms is None else forms
    lefts = forms[j, q]
    rights = [forms[j, q, t, False] for t in range(r + 1)]
    iq = q - j  # the index of m = q's row in a block
    # each block's rows above q beside their partner x_{m,r-t}, built once per row
    above = [[((m, r - t), r1, r2, r3) for m, r1, r2, r3 in rights[t][iq + 1:]]
             for t in range(r + 1)]
    terms: list = []
    add = terms.append
    for l, c1, c2 in lefts:
        for t in range(r + 1):
            a = (l, t)
            # x_{l,t} x_{q,r-t}: from L2 R2_t, and from x_{q,r-t} R3_{r-t} at m = l
            if c := c2 * rights[t][iq][2] + rights[r - t][l - j][3]:
                add(((a, (q, r - t)), c))
            if c1 or c2:
                for b, r1, r2, _ in above[t]:
                    if c := c1 * r1 + c2 * r2:
                        add(((a, b), c))
    for t in range(r + 1):
        a = (q, t)
        # x_{q,t} x_{q,r-t} has R3 at q from both t and r - t; it is written at t <= r - t
        if t <= r - t and (c := rights[t][iq][3] + (rights[r - t][iq][3] if t < r - t else 0)):
            add(((a, (q, r - t)), c))
        for b, _, _, r3 in above[t]:
            if r3:
                add(((a, b), r3))
    if marker is None:
        return DeformPolynomial._of_terms(terms)
    # the t = r+1 term: its one m pairs with the marker
    acc = dict(terms)
    for _, r1, r2, r3 in forms[j, q, r + 1, True]:
        for l, c1, c2 in lefts:
            acc[((l, r + 1),) + marker] = c1 * r1 + c2 * r2
        acc[((q, r + 1),) + marker] = r3
    return DeformPolynomial._frozen(acc)


def f_poly(j: int, q: int, r: int) -> DeformPolynomial:
    """Quadratic polynomial whose vanishing kills the e_{j+2q+1+r} defect."""
    _check_label(j, q, r, 0)
    return _row(j, q, r, None)


def g_poly(j: int, q: int, r: int) -> DeformPolynomial:
    """Linear correction (-1)^j (L1 + L2)(r+1) - (-1)^q x_{q,r+1} of the top rows."""
    _check_label(j, q, r, -1)
    terms = [(l, (-1) ** j * (l1 + l2)) for l, l1, l2 in _left_forms(j, q)]
    terms.append((q, (-1) ** (q + 1)))
    return DeformPolynomial((((l, r + 1),), c) for l, c in terms)


class Equation(NamedTuple):
    label: tuple[int, int, int]
    poly: DeformPolynomial
    tilde: bool


def variable_inventory(n: int) -> list[tuple[int, int]]:
    """All pairs (j, s) with 2j+1+s <= n, in canonical order."""
    return [(j, s) for j in range(2, (n - 1) // 2 + 1) for s in range(n - 2 * j)]


def _system_rows(n: int, marker_rows: bool) -> list[tuple[tuple[int, int, int], bool]]:
    """(label, tilde) of totals 9..n in (total, j, q) order; marker rows at n: tilde, r >= -1."""
    rows = []
    for w in range(9, n + 1):
        tilde = marker_rows and w == n
        r_min = -1 if tilde else 0
        for j in range(2, w):
            # r = w - j - 2q - 1 >= r_min caps q
            for q in range(j + 1, (w - j - 1 - r_min) // 2 + 1):
                rows.append(((j, q, w - j - 2 * q - 1), tilde))
    return rows


def declared_variables(size: int, x_mode: str) -> tuple[Variable, ...]:
    """The inventory of size, plus the marker where x_mode keeps it at an even size."""
    if type(x_mode) is not str or x_mode not in X_MODES:  # a list or dict is unhashable
        raise ValueError(f"unknown x_mode {x_mode!r}")
    marker = X_MODES[x_mode] if size % 2 == 0 else None
    return tuple(variable_inventory(size)) + (marker or ())


class EquationSystem:
    """system_finite(size, x_mode), or system_truncated(size) if truncated, known by its head.

    The constructor makes the builders' refusals and derives kind, variables
    and the (label, tilde) rows.  Given equations, it holds them once they
    are checked to be exactly those rows, in order, over those variables.
    Without, equations is None, and iterating builds and checks each row in
    turn, holding one at a time.
    """

    __slots__ = ("kind", "size", "x_mode", "variables", "rows", "equations")

    def __init__(self, size: int, x_mode: str = "free", truncated: bool = False,
                 equations: Iterable[Equation] | None = None):
        if type(truncated) is not bool:  # a truthy string would build a truncated system
            raise ValueError(f"flags must be bools, as sizes must be ints; got {truncated=}")
        _check_dim(size, "truncation bound" if truncated else "dimension")
        if truncated and x_mode != "fixed-0":
            raise ValueError(f"a truncated system has no marker, so its x_mode is 'fixed-0', "
                             f"not {x_mode!r}")
        head = ("truncated" if truncated else f"M_Fil({size})", size, x_mode,
                declared_variables(size, x_mode),  # refuses an unknown x_mode
                _system_rows(size, not truncated and size % 2 == 0), None)
        for name, value in zip(self.__slots__, head):
            object.__setattr__(self, name, value)
        if equations is not None:
            object.__setattr__(self, "equations", tuple(self._checked(equations)))

    def __setattr__(self, name, value):
        raise AttributeError("EquationSystem is immutable")

    def _checked(self, equations: Iterable[Equation]) -> Iterator[Equation]:
        """Each equation in turn, refused unless it is the next row and uses declared variables."""
        rows, pool = self.rows, set(self.variables)
        count = 0
        for count, eq in enumerate(equations, 1):
            row = (eq.label, eq.tilde)
            if count > len(rows) or row != rows[count - 1]:
                if row not in rows:
                    raise ValueError(f"{self.kind} has no row {eq.label} "
                                     f"with tilde {str(eq.tilde).lower()}")
                if row in rows[:count - 1]:
                    raise ValueError(f"equation {eq.label} repeats a row of {self.kind}")
                raise ValueError(f"{self.kind} lacks row {rows[count - 1][0]} "
                                 f"before equation {eq.label}")
            if stray := eq.poly.variables() - pool:
                raise ValueError(f"equation {eq.label} uses undeclared {stray}")
            yield eq
        if count < len(rows):
            raise ValueError(f"{self.kind} lacks row {rows[count][0]}")

    def _unchecked(self) -> Iterator[Equation]:
        forms, partner = _Forms(), X_MODES[self.x_mode]
        for (j, q, r), tilde in self.rows:
            yield Equation((j, q, r), _row(j, q, r, partner if tilde else None, forms), tilde)

    def held(self) -> EquationSystem:
        """This system holding all its rows; the constructor checks each one once."""
        return EquationSystem(self.size, self.x_mode, self.kind == "truncated", self._unchecked())

    @property
    def system_id(self) -> str:
        """truncated(size), or M_Fil(size)[x=x_mode] for a finite system."""
        return (f"truncated({self.size})" if self.kind == "truncated"
                else f"{self.kind}[x={self.x_mode}]")

    def labels(self) -> list[tuple[int, int, int]]:
        return [label for label, _ in self.rows]

    def __iter__(self) -> Iterator[Equation]:
        if self.equations is None:
            return self._checked(self._unchecked())
        return iter(self.equations)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"EquationSystem({self.system_id}, {len(self)} equations)"


def system_finite(n: int, x_mode: str = "free") -> EquationSystem:
    """Defining system of the n-dimensional variety.

    Odd n: rows F_{j,q,r} over 9 <= j+2q+1+r <= n.  Even n = 2k: the
    top-weight rows carry their t = r+1 marker term (-1)^{k-j-q} x G_{j,q,r},
    and the r = -1 rows consist of that term alone.
    """
    return EquationSystem(n, x_mode).held()


def residuals(n, assignment) -> list[tuple[tuple[int, int, int], Fraction]]:
    """Residuals of a system at assignment, as oracle.evaluate_system gives them,
    from the rows' forms and summed on the point's numerators over their lcm: one
    Fraction per row, no polynomial built.  n is a system's head, or a size that
    stands for system_finite(n, "free")."""
    head = n if isinstance(n, EquationSystem) else EquationSystem(n)  # refuses n < 9
    exacts = {v: exact(a) for v, a in assignment.items()}
    denom = lcm(*(x.denominator for x in exacts.values()))
    get = {v: x.numerator * (denom // x.denominator) for v, x in exacts.items()}.get
    # the marker's numerator over denom: the point's x, x = 1 or x = 0
    marker = {"free": get(TOP, 0), "fixed-1": denom, "fixed-0": 0}[head.x_mode]
    forms, out = _Forms(), []
    for (j, q, r), tilde in head.rows:
        lefts = forms[j, q]
        total = 0
        for t in range(r + 2 if tilde else r + 1):
            # L1, L2 and x_{q,t} at p; the right forms are read only where one is nonzero
            a1 = a2 = 0
            for l, c1, c2 in lefts:
                if x := get((l, t)):
                    a1 += c1 * x
                    a2 += c2 * x
            a3 = get((q, t), 0)
            if a1 or a2 or a3:
                top = t > r
                for m, r1, r2, r3 in forms[j, q, t, top]:
                    if x := (marker if top else get((m, r - t))):
                        total += (a1 * r1 + a2 * r2 + a3 * r3) * x
        out.append(((j, q, r), Fraction(total, denom * denom)))
    return out


def system_truncated(total_max: int) -> EquationSystem:
    """All rows F_{j,q,r} with j+2q+1+r <= total_max; no marker rows."""
    return EquationSystem(total_max, "fixed-0", truncated=True).held()


def closed_form_counts(n: int) -> tuple[int, int]:
    """(num_vars, num_eqs) from the closed formulas, exact integers."""
    _check_dim(n)
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
    rows = _system_rows(n, n % 2 == 0)
    if not (num_vars == p2_sum == len(pairs)):
        raise ArithmeticError(
            f"variable counts disagree at n={n}: "
            f"closed {num_vars}, partition sum {p2_sum}, enumerated {len(pairs)}")
    if num_eqs != len(rows):
        raise ArithmeticError(
            f"equation counts disagree at n={n}: "
            f"closed {num_eqs}, enumerated {len(rows)}")
    h2 = Counter(s for _, s in pairs)
    h3 = Counter(r for (_, _, r), _ in rows)
    return {
        "num_vars": num_vars,
        "num_eqs": num_eqs,
        "h2_by_weight": dict(sorted(h2.items())),
        "h3_by_weight": dict(sorted(h3.items())),
    }
