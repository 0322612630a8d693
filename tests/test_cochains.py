import random
from fractions import Fraction
from itertools import combinations

import pytest

from filiform.cochains import (AdjointCochain, LieStructure, d_adjoint, linear_combination,
                               psi2, psi2_value, psi3, psi_top)
from filiform.lie import ZERO, LieElement, make_fixture
from filiform.oracle import deformed_structure, jacobi_scan, known_solution
from filiform.systems import _system_rows, residuals


def e(i, c=1):
    return LieElement.basis(i, c)


class TestPsi2Value:
    def test_frozen_values(self):
        assert psi2_value(2, 0, 9, 2, 4) == (6, 1)
        assert psi2_value(3, 0, 9, 2, 6) == (8, -2)
        assert psi2_value(2, 1, 9, 2, 3) == (6, 1)
        # support cut by the guarded binomial
        assert psi2_value(3, 0, 12, 2, 4) is None
        assert psi2_value(2, 0, 12, 4, 5) is None

    def test_target_above_cutoff_is_zero(self):
        v = psi2_value(2, 0, 9, 2, 8)  # target e_10 above the cutoff
        assert v is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            psi2_value(2, 0, 9, 1, 4)  # values on e_1 are the caller's case
        with pytest.raises(ValueError):
            psi2_value(2, 0, 9, 4, 4)
        with pytest.raises(ValueError):
            psi2_value(2, 0, 9, 4, 10)
        with pytest.raises(ValueError):
            psi2_value(1, 0, 9, 2, 3)
        with pytest.raises(ValueError):
            psi2_value(2, -1, 9, 2, 3)  # weight -1 lives at j = n/2, n even
        with pytest.raises(ValueError):
            psi2_value(2, 7, 9, 2, 3)   # label does not fit below the cutoff


def labels2(n):
    return [(j, s) for j in range(2, n // 2 + 1) for s in range(n - 2 * j)]


@pytest.mark.parametrize("n", [9, 12, 16])
def test_table_equals_series(n):
    for j, s in labels2(n):
        table = psi2(j, s, n, method="table")
        series = psi2(j, s, n, method="series")
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                assert table.value(k, m) == series.value(k, m), (j, s, k, m)


def test_psi2_normalization_and_support():
    # value e_{2j+1+s} on the defining pair, zero on every other adapted pair
    for n in (10, 13):
        for j, s in labels2(n):
            psi = psi2(j, s, n)
            assert psi.value(j, j + 1) == e(2 * j + 1 + s)
            for k in range(2, n):
                if k != j:
                    assert psi.value(k, k + 1).is_zero
            for k in range(2, n + 1):
                assert psi.value(1, k).is_zero


def test_psi2_alternation():
    psi = psi2(3, 1, 12)
    assert psi.value(5, 4) == -psi.value(4, 5)
    assert psi.value(4, 4).is_zero


def test_psi2_method_validation():
    with pytest.raises(ValueError):
        psi2(2, 0, 9, method="magic")


def test_psi_top_is_m1_difference():
    for k in (3, 4, 5):
        n = 2 * k
        top = psi_top(k)
        m1 = make_fixture("m1", n)
        m0 = make_fixture("m0", n)
        for a in range(1, n):
            for b in range(a + 1, n + 1):
                expected = m1.value(a, b) - m0.value(a, b)
                assert top.value(a, b) == expected, (k, a, b)
    with pytest.raises(ValueError):
        psi_top(2)


class TestPsi3:
    def test_defining_values(self):
        # value e_{i+2j+1+s} on (e_i, e_j, e_{j+1}), zero on other such triples
        n = 14
        for (i, j, s) in [(2, 3, 0), (2, 3, 2), (2, 4, 1), (3, 4, 0), (2, 5, 0)]:
            phi = psi3(i, j, s, n)
            assert phi.value(i, j, j + 1) == e(i + 2 * j + 1 + s)
            for l in range(2, n):
                for k in range(l + 1, n):
                    if (l, k) != (i, j):
                        assert phi.value(l, k, k + 1).is_zero, (i, j, s, l, k)

    def test_vanishes_on_e1(self):
        phi = psi3(2, 3, 1, 12)
        for k in range(2, 12):
            for m in range(k + 1, 13):
                assert phi.value(1, k, m).is_zero

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            psi3(3, 3, 0, 14)
        with pytest.raises(ValueError):
            psi3(2, 3, -1, 14)
        with pytest.raises(ValueError):
            psi3(2, 3, 9, 14)  # weight pushes the value past the cutoff


def test_d_adjoint_simple_cochain():
    # c = e_5 (x) e^2 over m0(6): only dc(e_1, e_2) = [e_1, e_5] survives
    m0 = make_fixture("m0", 6)
    c = AdjointCochain(1, 6, {(2,): e(5)})
    dc = d_adjoint(c, m0)
    assert dc.value(1, 2) == e(6)
    assert dc.value(1, 3).is_zero
    assert dc.value(2, 3).is_zero
    assert dc.value(2, 1) == -e(6)


@pytest.mark.parametrize("dim", [6, 9])
def test_d_adjoint_refuses_a_value_above_the_base(dim):
    # a value with a basis vector above the cochain's cutoff, and so above a
    # base of that cutoff, is malformed input, refused when the cochain is built
    with pytest.raises(ValueError, match="out of range"):
        AdjointCochain(1, 6, {(2,): e(dim + 1)})


def test_d_adjoint_refuses_a_value_above_the_base_at_every_read():
    # c = e_7 (x) e^2 over m0(6): reads of dc whose arguments missed e_2 once
    # returned 0 instead of refusing.  No such c can be built now, so no dc of
    # it can be read at all: each attempt is refused at construction.
    for _ in range(3):
        with pytest.raises(ValueError, match="out of range"):
            AdjointCochain(1, 6, {(2,): e(7)})


def test_d_adjoint_keeps_every_value_of_dc_below_the_cutoff():
    # c = e_7 (x) e^3 at cutoff 6 over m0(9) once gave dc(e_1, e_2) = -e_7 above
    # dc's cutoff, while [e_1, c(e_3)] = e_8 was clipped away
    with pytest.raises(ValueError, match="out of range"):
        AdjointCochain(1, 6, {(3,): e(7)})
    # at the cutoff: dc(e_1, e_2) = -c([e_1, e_2]) = -e_6, and [e_1, c(e_3)] = e_7
    # is clipped, as is every bracket of m0(9) past e_6
    dc = d_adjoint(AdjointCochain(1, 6, {(3,): e(6)}), make_fixture("m0", 9))
    assert dc.nonzero() == [((1, 2), e(6, -1))]


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_d_adjoint_reads_each_value_of_c_once(degree):
    # the call scatters c's table and makes no value_on_basis call on c, and a
    # sweep of dc makes none either; the table is unchanged by both
    n = 10
    c = _random_table(degree, n, degree)
    table = dict(c._memo)
    reads = []
    read = c.value_on_basis
    c.value_on_basis = lambda tup: reads.append(tup) or read(tup)
    dc = d_adjoint(c, _base("wild", n))
    assert reads == []
    for tup in combinations(range(1, n + 1), degree + 1):
        dc.value_on_basis(tup)
    assert reads == [] and c._memo == table


def test_a_swept_differential_holds_each_value_once():
    # dc's table holds its nonzero values and nothing else, and a sweep leaves
    # c's table unchanged: both once kept every value read (1,140 and 190 here)
    n = 20
    c = psi2(3, 1, n)
    table = dict(c._memo)
    dc = d_adjoint(c, deformed_structure(known_solution("L1", 1, bound=9), n))
    values = {tup: dc.value_on_basis(tup) for tup in combinations(range(1, n + 1), 3)}
    assert dc._memo == {tup: value for tup, value in values.items() if not value.is_zero}
    assert len(dc._memo) == 56
    assert dc.nonzero() == sorted(dc._memo.items())
    assert c._memo == table


@pytest.mark.parametrize("key, reason", [
    (2, "tuple of ints"), ("23", "tuple of ints"), ((2.0, 3), "tuple of ints"),
    ((True, 3), "tuple of ints"), ((2, 3, 4), "expected 2 indices"),
    ((3, 2), "not strictly increasing"), ((3, 3), "not strictly increasing"),
    ((0, 3), "out of range"), ((3, 11), "out of range"),
], ids=["int", "str", "float-index", "bool-index", "too-long", "decreasing", "repeated",
        "index-0", "above-n"])
def test_the_table_refuses_a_bad_key(key, reason):
    # one rule for every table: a structure's relations are a degree-2 cochain's
    with pytest.raises(ValueError, match=reason):
        AdjointCochain(2, 10, {key: e(5)})
    with pytest.raises(ValueError, match=reason):
        LieStructure(10, {key: e(5)})


@pytest.mark.parametrize("value", [5, "e4", Fraction(1, 2), None],
                         ids=["int", "str", "fraction", "none"])
def test_the_table_refuses_a_value_that_is_not_a_lie_element(value):
    # such a value used to raise AttributeError at .terms
    with pytest.raises(ValueError, match=r"value on \(2, 3\) must be a LieElement"):
        AdjointCochain(2, 10, {(2, 3): value})
    with pytest.raises(ValueError, match=r"value on \(2, 3\) must be a LieElement"):
        LieStructure(10, {(2, 3): value})


def test_the_table_drops_zero_values():
    c = AdjointCochain(2, 10, {(2, 3): ZERO, (2, 4): e(6), (3, 4): e(7) - e(7)})
    assert c._memo == {(2, 4): e(6)}
    assert c.value(3, 2).is_zero and c.value(4, 2) == -e(6)


@pytest.mark.parametrize("n", range(9, 21))
@pytest.mark.parametrize("method", ["table", "series"])
def test_the_psi2_table_is_the_support_rule(n, method):
    # the nonzero values of Psi_{j,s} sit exactly on the pairs k < m with
    # 2 <= k <= j, k + m >= 2j + 1 and k + m + s <= n, s = -1 included
    labels = labels2(n) + ([(n // 2, -1)] if n % 2 == 0 else [])
    for j, s in labels:
        support = {(k, m) for k, m in combinations(range(2, n + 1), 2)
                   if k <= j and k + m >= 2 * j + 1 and k + m + s <= n}
        assert set(psi2(j, s, n, method)._memo) == support, (j, s)


def test_a_combination_whose_parts_cancel_holds_an_empty_table():
    n = 12
    parts = [(Fraction(2, 3), psi2(3, 1, n)), (Fraction(-2, 3), psi2(3, 1, n, method="series")),
             (1, psi3(2, 3, 0, n)), (-1, psi3(2, 3, 0, n))]
    assert linear_combination(parts[:2], 2, n)._memo == {}
    assert linear_combination(parts[2:], 3, n)._memo == {}


@pytest.mark.parametrize("indices", [(True, 3), (2.0, 5), (3, 5.0), (Fraction(3), 5)],
                         ids=["bool", "float-first", "float-second", "fraction"])
def test_value_refuses_indices_that_are_not_ints(indices):
    # a bool was read as e_1 and a float second index gave 0, in cochains and
    # in structures alike
    for cochain in (psi2(2, 0, 10), make_fixture("m0", 7)):
        with pytest.raises(ValueError, match="must be ints"):
            cochain.value(*indices)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", ["m0", "m1", "m2", "L1"])
def test_d_adjoint_of_integer_tables_keeps_ints(name, degree):
    # an integer table over an integer base is summed as it stands: every
    # coefficient of dc is an int, none a Fraction of denominator 1
    n = 10
    rng = random.Random(degree)
    table = {tup: LieElement((i, rng.randint(-9, 9)) for i in rng.sample(range(1, n + 1), 2))
             for tup in combinations(range(1, n + 1), degree) if rng.random() < 0.5}
    dc = d_adjoint(AdjointCochain(degree, n, table), make_fixture(name, n))
    coefficients = [c for _, value in dc.nonzero() for _, c in value.terms]
    assert coefficients and all(type(c) is int for c in coefficients)


def test_d_adjoint_refuses_a_base_that_is_not_a_bracket():
    # a degree-3 base used to fail with an AttributeError
    with pytest.raises(ValueError, match="degree 2"):
        d_adjoint(psi2(2, 0, 10), psi3(2, 3, 0, 10))


def _first_slot(f, vector, *rest):
    # f(vector, *rest) by linearity in the first slot, built from f.value
    out = LieElement()
    for idx, coeff in vector.terms:
        out += coeff * f.value(idx, *rest)
    return out


def _combination(n):
    return linear_combination([(Fraction(2, 3), psi2(2, 0, n)), (Fraction(-5, 2), psi2(3, 1, n)),
                               ("7/4", psi2(2, 2, n)), (3, psi2(4, 0, n))], 2, n)


def _random_table(degree, n, seed):
    # a seeded cochain that is not closed: rational values on about half the
    # tuples, tuples with e_1 included, and some values with an e_1 component
    rng = random.Random(seed)
    table = {}
    for tup in combinations(range(1, n + 1), degree):
        if rng.random() < 0.5:
            indices = rng.sample(range(2, n + 1), rng.randint(1, 2))
            if rng.random() < 0.3:
                indices.append(1)
            table[tup] = LieElement((i, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                                    for i in indices)
    return AdjointCochain(degree, n, table, label=f"random{degree}")


def _random_point(n, seed=3):
    # a seeded nonzero rational value for every degree-2 cocycle of cutoff n
    rng = random.Random(seed)
    return {(j, s): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            for j, s in labels2(n)}


def _off_variety(n, seed=3):
    # m0 plus a seeded combination of every degree-2 cocycle of cutoff n
    return deformed_structure(_random_point(n, seed), n)


def _wild(size, seed=8):
    # a seeded bracket table that is not a Lie algebra: each bracket has terms
    # at random indices, and about half also have one at their own arguments
    rng = random.Random(seed)
    relations = {}
    for i, j in combinations(range(1, size + 1), 2):
        if rng.random() < 0.4:
            indices = rng.sample(range(1, size + 1), rng.randint(1, 2))
            if rng.random() < 0.5:
                indices.append(rng.choice([i, j]))
            relations[(i, j)] = LieElement(
                (k, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))) for k in indices)
    return LieStructure(size, relations, label="wild")


def _base(name, size):
    if name == "wild":
        return _wild(size)
    return _off_variety(size) if name == "deformed" else make_fixture(name, size)


@pytest.mark.parametrize("n", [9, 10, 13])
def test_the_deformed_base_is_off_the_variety(n):
    # neither a Lie algebra nor graded: brackets land on several weights
    base = _off_variety(n)
    assert jacobi_scan(base)
    assert len({idx - i - j for (i, j), value in base.nonzero() for idx, _ in value.terms}) > 1


@pytest.mark.parametrize("name, cochain, extra", [
    ("L1", psi2(2, 0, 9), 0), ("m2", psi2(3, 1, 9), 0), ("L1", psi3(2, 3, 0, 9), 0),
    ("L1", psi2(3, 1, 10, method="series"), 0), ("m2", _combination(10), 0),
    ("m2", psi3(2, 3, 1, 10), 0), ("L1", psi2(2, 0, 9), 3), ("m2", _combination(10), 3),
    ("L1", psi3(2, 3, 0, 10), 3),
    ("L1", _random_table(2, 9, 1), 0), ("m2", _random_table(3, 9, 2), 0),
    ("L1", _random_table(2, 9, 3), 3), ("m1", psi2(3, 0, 10), 0),
    ("m1", _random_table(2, 10, 4), 0), ("m1", _random_table(3, 10, 5), 0),
    ("deformed", psi2(2, 0, 10), 0), ("deformed", psi2(3, 0, 10, method="series"), 0),
    ("deformed", _random_table(2, 10, 6), 0), ("deformed", _random_table(3, 9, 7), 3),
    ("L1", _random_table(1, 10, 9), 0), ("m1", _random_table(1, 10, 10), 2),
    ("deformed", _random_table(1, 10, 11), 0), ("wild", _random_table(1, 9, 12), 0),
    ("wild", _random_table(2, 9, 13), 0), ("wild", _random_table(3, 9, 14), 0),
    ("wild", _random_table(2, 9, 15), 3), ("wild", psi2(3, 1, 10), 0),
], ids=["psi2-on-L1", "psi2-on-m2", "psi3-on-L1", "psi2-series-on-L1", "psi2-combination-on-m2",
        "psi3-on-m2", "psi2-on-L1-above-n", "psi2-combination-on-m2-above-n",
        "psi3-on-L1-above-n", "random2-on-L1", "random3-on-m2", "random2-on-L1-above-n",
        "psi2-on-m1", "random2-on-m1", "random3-on-m1", "psi2-on-deformed",
        "psi2-series-on-deformed", "random2-on-deformed", "random3-on-deformed-above-n",
        "random1-on-L1", "random1-on-m1-above-n", "random1-on-deformed", "random1-on-wild",
        "random2-on-wild", "random3-on-wild", "random2-on-wild-above-n", "psi2-on-wild"])
def test_d_adjoint_equals_the_differential_formula(name, cochain, extra):
    # on m0 only [e_1, .] is nonzero and the cocycles vanish on e_1, so the
    # sign of the [x_i, c(..)] terms at odd positions shows only on other bases
    # or for the random cochains, which are not closed and carry e_1; m1 and
    # the deformed base have brackets of several weights, and the deformed one
    # breaks Jacobi; the wild base is no Lie algebra, and its brackets land on
    # their own arguments, which are no repeated argument once the bracket has
    # taken them; a base above n has brackets past e_n, which d_adjoint drops
    n = cochain.dim
    base = _base(name, n + extra)
    dc = d_adjoint(cochain, base)
    nonzero = 0
    for tup in combinations(range(1, n + 1), cochain.degree + 1):
        expected = LieElement()
        for p, idx in enumerate(tup):
            rest = tup[:p] + tup[p + 1:]
            expected += (-1) ** p * base.bracket(e(idx), cochain.value(*rest))
        for p, r in combinations(range(len(tup)), 2):
            rest = tuple(v for t, v in enumerate(tup) if t not in (p, r))
            bracket = base.value(tup[p], tup[r]).clipped(n)
            expected += (-1) ** (p + r) * _first_slot(cochain, bracket, *rest)
        assert dc.value_on_basis(tup) == expected.clipped(n), tup
        nonzero += not expected.is_zero
    # the random cochains are not closed: a d_adjoint giving 0 everywhere fails
    assert nonzero or not cochain.label.startswith("random")


@pytest.mark.parametrize("n", [9, 12, 16, 20])
def test_psi2_closed(n):
    m0 = make_fixture("m0", n)
    for j, s in labels2(n):
        dpsi = d_adjoint(psi2(j, s, n), m0)
        for tup in combinations(range(1, n + 1), 3):
            assert dpsi.value_on_basis(tup).is_zero, (j, s, tup)


def labels3(n):
    return [(i, j, s) for i in range(2, n) for j in range(i + 1, n)
            for s in range(n - (i + 2 * j + 1) + 1)]


@pytest.mark.parametrize("n", [11, 12, 14, 16])
def test_psi3_closed(n):
    m0 = make_fixture("m0", n)
    for i, j, s in labels3(n):
        dphi = d_adjoint(psi3(i, j, s, n), m0)
        for tup in combinations(range(1, n + 1), 4):
            assert dphi.value_on_basis(tup).is_zero, (i, j, s, tup)


@pytest.mark.parametrize("n", range(9, 17))
def test_psi3_is_unit_triangular_on_the_reading_triples(n):
    # psi3(a) at row b's reading triple (j, q, q+1) has e_{j+2q+1+r} coefficient
    # 1 if a == b and 0 otherwise: why a reading triple gives F_b(p) below
    rows = [label for label, _ in _system_rows(n, False)]
    for a in rows:
        phi = psi3(*a, n)
        for j, q, r in rows:
            coeff = phi.value_on_basis((j, q, q + 1)).coefficient(j + 2 * q + 1 + r)
            assert coeff == (a == (j, q, r)), (a, (j, q, r))


POINTS = {"random": _random_point, "L1": lambda n: known_solution("L1", bound=(n - 1) // 2),
          "x_{3,0}": lambda n: {(3, 0): 1}}


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("n", range(9, 19))
def test_jacobi_defect_is_the_residual_combination(n, point):
    # Without the marker, Psi_p = sum p_{l,t} Psi_{l,t} is a cocycle, so the Jacobi
    # defect of m0 + Psi_p is the half-square 1/2 [Psi_p, Psi_p], and its
    # coordinates in the psi3 basis are the closed-form residuals F_{j,q,r}(p).
    # Three routes agree on every increasing triple: systems.residuals, the
    # oracle's scan of the deformed table, and the series cocycles of psi3.
    # Marker points are out of reach here: their r = -1 rows would need a
    # weight -1 degree-3 cocycle, which psi3 refuses; the oracle gate and
    # `check` at m1 cover them.
    p = POINTS[point](n)
    rows = residuals(n, p)
    half_square = linear_combination([(F, psi3(*label, n)) for label, F in rows if F], 3, n)
    defects = dict(jacobi_scan(deformed_structure(p, n)))
    for tup in combinations(range(1, n + 1), 3):
        assert defects.get(tup, ZERO) == half_square.value_on_basis(tup), tup
    for (j, q, r), F in rows:
        assert defects.get((j, q, q + 1), ZERO).coefficient(j + 2 * q + 1 + r) == F
    if point == "random":
        assert defects  # off the variety: the identity is not 0 == 0
    if point == "L1":
        assert not defects and not any(F for _, F in rows)
    if point == "x_{3,0}" and n == 12:
        assert defects[(2, 3, 4)] == e(9, 3) and dict(rows)[(2, 3, 0)] == 3


@pytest.mark.parametrize("build", [
    lambda: psi2(2, True, 10), lambda: psi2(2, 0, 10.0), lambda: psi2(2.0, 0, 10),
    lambda: psi2(2, 0, 10.0, method="series"), lambda: psi_top(3.0),
    lambda: psi3(2, 3, True, 11), lambda: psi3(2.0, 3, 0, 11), lambda: psi3(2, 3, 0, 11.0),
    lambda: AdjointCochain(2.5, 10, {}),
    lambda: AdjointCochain(True, 10, {}),
    lambda: linear_combination([(1, psi2(2, 0, 10))], 2, 10.0),
], ids=["psi2-bool-weight", "psi2-float-size", "psi2-float-sill", "psi2-series-float-size",
        "psi_top-float", "psi3-bool-weight", "psi3-float-label", "psi3-float-size",
        "cochain-float-degree", "cochain-bool-degree", "combination-float-size"])
def test_constructors_refuse_non_int_labels_and_sizes(build):
    # a bool or float label, size or degree used to build a cochain whose
    # values were wrong (Psi_{2,True}) or raised TypeError on every read
    with pytest.raises(ValueError, match="must be ints"):
        build()


def test_degree_guards():
    with pytest.raises(ValueError):
        linear_combination([(Fraction(1), psi2(2, 0, 10))], 3, 10)
    c = psi2(2, 0, 10)
    with pytest.raises(ValueError):
        c.value(2)
    with pytest.raises(ValueError):
        c.value_on_basis((5, 3))
    with pytest.raises(ValueError):
        c.value_on_basis((3, 11))


@pytest.mark.parametrize("degree, tup", [
    (2, (5, 3)), (2, (3, 11)), (2, (3, 3)), (2, (0, 3)), (2, (2,)), (2, (2, 3, 4)),
    (3, (2, 4, 4)), (3, (2, 5, 4)),
], ids=["decreasing", "above-n", "repeated", "index-0", "too-short", "too-long",
        "psi3-repeated", "psi3-decreasing"])
def test_value_on_basis_refusals_leave_the_memo_empty(degree, tup):
    # a refused read stores nothing: the table is unchanged by it
    c = psi2(2, 0, 10) if degree == 2 else psi3(2, 3, 0, 10)
    table = dict(c._memo)
    with pytest.raises(ValueError):
        c.value_on_basis(tup)
    assert c._memo == table
