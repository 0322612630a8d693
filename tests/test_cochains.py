import random
from fractions import Fraction
from itertools import combinations

import pytest

from filiform.cochains import (AdjointCochain, d_adjoint, linear_combination, psi2,
                               psi2_value, psi3, psi_top)
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
                expected = m1.bracket_basis(a, b) - m0.bracket_basis(a, b)
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

    def rule(tup):
        return e(5) if tup == (2,) else LieElement.zero()

    c = AdjointCochain(1, 6, rule)
    dc = d_adjoint(c, m0)
    assert dc.value(1, 2) == e(6)
    assert dc.value(1, 3).is_zero
    assert dc.value(2, 3).is_zero
    assert dc.value(2, 1) == -e(6)


@pytest.mark.parametrize("dim", [6, 9])
def test_d_adjoint_refuses_a_value_above_the_base(dim):
    # a rule whose value has no basis vector in the base is malformed input
    c = AdjointCochain(1, 6, lambda tup: e(dim + 1) if tup == (2,) else LieElement.zero())
    dc = d_adjoint(c, make_fixture("m0", dim))
    with pytest.raises(ValueError, match="out of range"):
        dc.value(1, 2)


def _first_slot(f, vector, *rest):
    # f(vector, *rest) by linearity in the first slot, built from f.value
    out = LieElement.zero()
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
    return AdjointCochain(degree, n, lambda tup: table.get(tup, LieElement.zero()),
                          label=f"random{degree}")


def _random_point(n, seed=3):
    # a seeded nonzero rational value for every degree-2 cocycle of cutoff n
    rng = random.Random(seed)
    return {(j, s): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            for j, s in labels2(n)}


def _off_variety(n, seed=3):
    # m0 plus a seeded combination of every degree-2 cocycle of cutoff n
    return deformed_structure(_random_point(n, seed), n)


def _base(name, size):
    return _off_variety(size) if name == "deformed" else make_fixture(name, size)


@pytest.mark.parametrize("n", [9, 10, 13])
def test_the_deformed_base_is_off_the_variety(n):
    # neither a Lie algebra nor graded: brackets land on several weights
    base = _off_variety(n)
    assert jacobi_scan(base)
    assert len({idx - i - j for i, j, value in base.relations() for idx, _ in value.terms}) > 1


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
], ids=["psi2-on-L1", "psi2-on-m2", "psi3-on-L1", "psi2-series-on-L1", "psi2-combination-on-m2",
        "psi3-on-m2", "psi2-on-L1-above-n", "psi2-combination-on-m2-above-n",
        "psi3-on-L1-above-n", "random2-on-L1", "random3-on-m2", "random2-on-L1-above-n",
        "psi2-on-m1", "random2-on-m1", "random3-on-m1", "psi2-on-deformed",
        "psi2-series-on-deformed", "random2-on-deformed", "random3-on-deformed-above-n"])
def test_d_adjoint_equals_the_differential_formula(name, cochain, extra):
    # on m0 only [e_1, .] is nonzero and the cocycles vanish on e_1, so the
    # sign of the [x_i, c(..)] terms at odd positions shows only on other bases
    # or for the random cochains, which are not closed and carry e_1; m1 and
    # the deformed base have brackets of several weights, and the deformed one
    # breaks Jacobi; a base above n has brackets past e_n, which d_adjoint drops
    n = cochain.dim
    base = _base(name, n + extra)
    dc = d_adjoint(cochain, base)
    nonzero = 0
    for tup in combinations(range(1, n + 1), cochain.degree + 1):
        expected = LieElement.zero()
        for p, idx in enumerate(tup):
            rest = tup[:p] + tup[p + 1:]
            expected += (-1) ** p * base.bracket(e(idx), cochain.value(*rest))
        for p, r in combinations(range(len(tup)), 2):
            rest = tuple(v for t, v in enumerate(tup) if t not in (p, r))
            bracket = base.bracket_basis(tup[p], tup[r]).clipped(n)
            expected += (-1) ** (p + r) * _first_slot(cochain, bracket, *rest)
        assert dc.value_on_basis(tup) == expected.clipped(n), tup
        nonzero += not expected.is_zero
    # the random cochains are not closed: a d_adjoint giving 0 everywhere fails
    assert nonzero or not cochain.label.startswith("random")


@pytest.mark.parametrize("n", [9, 12])
def test_psi2_closed(n):
    m0 = make_fixture("m0", n)
    for j, s in labels2(n):
        dpsi = d_adjoint(psi2(j, s, n), m0)
        for tup in combinations(range(1, n + 1), 3):
            assert dpsi.value_on_basis(tup).is_zero, (j, s, tup)


def labels3(n):
    return [(i, j, s) for i in range(2, n) for j in range(i + 1, n)
            for s in range(n - (i + 2 * j + 1) + 1)]


@pytest.mark.parametrize("n", [11, 12])
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
    lambda: AdjointCochain(2.5, 10, lambda tup: ZERO),
    lambda: AdjointCochain(True, 10, lambda tup: ZERO),
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
    c = psi2(2, 0, 10) if degree == 2 else psi3(2, 3, 0, 10)
    with pytest.raises(ValueError):
        c.value_on_basis(tup)
    assert c._memo == {}
