"""Sparse exact Lie elements over a finite graded basis e_1..e_n, and the stock algebras.

Vectors are rational linear combinations of basis elements.  Each stock
algebra is built as its bracket relations [e_i, e_j] with i < j at a fixed
index cutoff n, and make_fixture makes them a cochains.LieStructure, the
bracket as a degree-2 cochain.  Any bracket target above the cutoff is
dropped, never wrapped around, so a structure of cutoff n is the degree-n
truncation of the corresponding N-graded algebra.
"""

from __future__ import annotations

from fractions import Fraction

from .sparse import SparseCombination, exact, require_ints


class LieElement(SparseCombination):
    """Immutable rational vector sum(c_i * e_i) over basis indices i >= 1."""

    __slots__ = ()

    @staticmethod
    def _canonical(index: int, coeff) -> tuple[int, Fraction]:
        if type(index) is not int or index < 1:
            raise ValueError(f"basis index must be an int >= 1, got {index!r}")
        return index, coeff

    @classmethod
    def basis(cls, index: int, coeff=1) -> "LieElement":
        return cls(((index, coeff),))

    def coefficient(self, index: int) -> Fraction:
        return self._coefficient(index, Fraction(0))

    def scaled(self, factor) -> "LieElement":
        return self._sum(((exact(factor), self),))

    def __rmul__(self, factor) -> "LieElement":
        return self.scaled(factor)

    def clipped(self, cutoff: int) -> "LieElement":
        """Drop terms with index > cutoff."""
        if not self.terms or self.terms[-1][0] <= cutoff:
            return self
        return self._frozen({i: c for i, c in self.terms if i <= cutoff})

    def __repr__(self) -> str:
        return self._render(lambda i: f"e{i}")


ZERO = LieElement()


def _chain_relations(n: int) -> dict[tuple[int, int], LieElement]:
    # [e_1, e_i] = e_{i+1}, the backbone every fixture shares.
    return {(1, i): LieElement.basis(i + 1) for i in range(2, n)}


def _fixture_m1(n: int) -> tuple[dict, str]:
    if n < 6 or n % 2:
        raise ValueError("m1 requires even dimension n = 2k >= 6")
    rel = _chain_relations(n)
    k = n // 2
    # [e_{k-l}, e_{k+1+l}] = (-1)^l e_{2k} for l = 0..k-2.
    for l in range(k - 1):
        rel[(k - l, k + 1 + l)] = LieElement.basis(n, (-1) ** l)
    return rel, f"m1({n})"


def _fixture_mk(n: int, k: int) -> tuple[dict, str]:
    """m_k on the gapped basis e_1, e_k, e_{k+1}, ...; m_2 is the k = 2 case."""
    if k < 2:
        raise ValueError("mk requires k >= 2")
    # [e_1, e_i] = e_{i+1} and [e_k, e_i] = e_{k+i}, both for i >= k only:
    # indices 2..k-1 are not part of the algebra's basis.
    rel = {(1, i): LieElement.basis(i + 1) for i in range(k, n)}
    for i in range(k + 1, n + 1 - k):
        rel[(k, i)] = LieElement.basis(i + k)
    return rel, f"m{k}({n})"


def _fixture_Lk(n: int, k: int) -> tuple[dict, str]:
    """Positive-part Witt relations [e_i, e_j] = (j - i) e_{i+j} for i, j >= k."""
    if k < 1:
        raise ValueError("Lk requires k >= 1")
    rel: dict[tuple[int, int], LieElement] = {}
    for i in range(k, n + 1):
        for j in range(i + 1, n + 1 - i):
            rel[(i, j)] = LieElement.basis(i + j, j - i)
    return rel, f"L{k}({n})"


_LACUNA_BASES = ("m0", "m2", "L1")


def _fixture_lacuna(n: int, s: int, base: str) -> tuple[dict, str]:
    """Subalgebra spanned by e_1 and e_{s+2}..e_n inside a graded base fixture.

    The grading components 2..s+1 are empty: a lacuna of length s.
    """
    if s < 1:
        raise ValueError("lacuna gap s must be >= 1")
    if base not in _LACUNA_BASES:
        raise ValueError(f"lacuna base must be one of {_LACUNA_BASES}")
    parent, _ = _FIXTURES[base][0](n)
    allowed = {1} | set(range(s + 2, n + 1))
    rel: dict[tuple[int, int], LieElement] = {}
    for (i, j), value in parent.items():
        if i in allowed and j in allowed:
            # closure: targets of a graded bracket never fall back into the gap
            for idx, _ in value.terms:
                if idx not in allowed:
                    raise ValueError(f"gap {s} does not give a subalgebra of {base}")
            rel[(i, j)] = value
    return rel, f"lacuna{s}-of-{base}({n})"


# name -> (builder of (relations, label), the parameters it takes after n, in its order)
_FIXTURES = {
    "m0": (lambda n: (_chain_relations(n), f"m0({n})"), ()),
    "m1": (_fixture_m1, ()),
    "m2": (lambda n: _fixture_mk(n, 2), ()),
    "mk": (_fixture_mk, ("k",)),
    "L1": (lambda n: _fixture_Lk(n, 1), ()),
    "Lk": (_fixture_Lk, ("k",)),
    "lacuna-of": (_fixture_lacuna, ("s", "base")),
}


def make_fixture(name: str, n: int, k: int | None = None, s: int | None = None,
                 base: str | None = None):
    """Build one of the stock structures at cutoff n, a cochains.LieStructure.

    Names: m0, m1, m2, mk (needs k >= 2), L1, Lk (needs k >= 1),
    lacuna-of (needs gap s and base in m0/m2/L1).  A parameter the name
    does not take is refused, not ignored.
    """
    require_ints(n=n)
    if n < 2:
        raise ValueError("fixture needs n >= 2")
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture name: {name!r}")
    build, takes = _FIXTURES[name]
    given = {"k": k, "s": s, "base": base}
    extra = [param for param, value in given.items() if value is not None and param not in takes]
    if extra:
        raise ValueError(f"fixture {name} takes no parameter {', '.join(extra)}")
    missing = [param for param in takes if given[param] is None]
    if missing:
        raise ValueError(f"{name} needs parameter {' and '.join(missing)}")
    require_ints(**{param: given[param] for param in takes if param != "base"})
    from .cochains import LieStructure  # cochains imports this module at load time
    return LieStructure(n, *build(n, *(given[param] for param in takes)))
