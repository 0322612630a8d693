from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filiform.cochains import linear_combination, psi2
from filiform.forms import ExtForm
from filiform.lie import LieElement
from filiform.oracle import deformed_structure, evaluate_system, known_solution
from filiform.polynomials import (TOP, DeformPolynomial, check_variable,
                                  var_cas, var_key, var_text, var_weight)
from filiform.sparse import exact
from filiform.systems import system_finite

P = DeformPolynomial
x20 = P.term(1, (2, 0))
x30 = P.term(1, (3, 0))
x40 = P.term(1, (4, 0))
top = P.term(1, TOP)


def test_variable_validation():
    assert check_variable((2, 0)) == (2, 0)
    assert check_variable(TOP) == TOP
    for bad in [(1, 0), (2, -1), (2,), "y", (2.0, 1), None]:
        with pytest.raises(ValueError):
            check_variable(bad)


def test_booleans_are_not_variable_indices():
    # True == 1 and hashes alike, so (2, True) used to pass as x_{2,1}
    for bad in [(2, True), (3, False), (True, 0)]:
        with pytest.raises(ValueError):
            check_variable(bad)
    with pytest.raises(ValueError):
        DeformPolynomial.term(1, (2, True))


def test_variable_orderings_and_names():
    assert var_key((2, 5)) < var_key((3, 0)) < var_key(TOP)
    assert var_weight((4, 7)) == 7
    assert var_weight(TOP) == -1
    assert var_text((2, 3)) == "x_{2,3}"
    assert var_cas((2, 3)) == "x_2_3"
    assert var_text(TOP) == var_cas(TOP) == "x"


def test_term_order_is_degree_then_var_key():
    variables = [(2, 0), (2, 1), (3, 0), (10, 0), TOP]
    p = P((tuple(variables[i] for i in picks), 1 + sum(picks))
          for picks in [(0,), (4,), (0, 4), (4, 4), (1, 2), (0, 3), (3, 4), (2, 2, 4),
                        (0, 4, 4), (0, 1, 2), (4, 4, 4), (3, 3), ()])
    expected = sorted(p.terms, key=lambda t: (len(t[0]), [var_key(v) for v in t[0]]))
    assert p.terms == tuple(expected)
    assert p.terms[0] == ((), 1) and p.terms[-1][0] == (TOP, TOP, TOP)


def test_terms_are_canonical():
    p = P([(((4, 0), (2, 0)), 3), (((2, 0), (4, 0)), -1), (((3, 0),), 5)])
    # monomials sorted by degree then variable order, factors sorted inside
    assert p.terms == ((((3, 0),), 5), (((2, 0), (4, 0)), 2))
    assert p.coefficient((2, 0), (4, 0)) == 2
    assert p.coefficient((4, 0), (2, 0)) == 2
    assert p.coefficient((3, 0), (3, 0)) == 0


def test_zero_and_cancellation():
    assert (x20 - x20).is_zero
    assert P().is_zero
    assert (x20 * x30 - x30 * x20).is_zero
    assert not (x20 + x30).is_zero


def test_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        P([(((2, 0),), Fraction(1, 2))])


def test_integer_scaling_and_products():
    p = 2 * x20 - 3 * x30
    assert p.coefficient((2, 0)) == 2
    q = p * p
    assert q.coefficient((2, 0), (2, 0)) == 4
    assert q.coefficient((2, 0), (3, 0)) == -12
    assert q.coefficient((3, 0), (3, 0)) == 9
    assert (p * 0).is_zero
    assert {len(m) for m, _ in p.terms} == {1} and {len(m) for m, _ in q.terms} == {2}
    assert {len(m) for m, _ in P().terms} == set()


def test_evaluate_missing_is_zero():
    p = 3 * (x30 * x30) - x30 * x40
    assert p.evaluate({(3, 0): Fraction(1)}) == 3
    assert p.evaluate({(3, 0): Fraction(1), (4, 0): Fraction(2)}) == 1
    assert p.evaluate({}) == 0
    assert p.evaluate({(3, 0): Fraction(1, 3)}) == Fraction(1, 3)


def test_evaluate_returns_a_fraction_at_an_integer_point():
    # the sum of plain int values is an int; evaluate returns it as a Fraction
    p = 3 * (x30 * x30) - 2 * (x20 * x40) - x30 * x40
    for point, expected in [({(2, 0): 1, (3, 0): 2, (4, 0): 5}, -8), ({(3, 0): 1}, 3), ({}, 0)]:
        value = p.evaluate(point)
        assert type(value) is Fraction and value == expected
    assert type(P().evaluate({(2, 0): 4})) is Fraction


def test_restricted():
    p = x20 * x30 + x30 * x40 + top * x20
    r = p.restricted({(2, 0), (3, 0)})
    assert r == x20 * x30
    assert p.restricted({TOP, (2, 0), (3, 0), (4, 0)}) == p


def test_bihomogeneity_predicate():
    p = P.term(3, (2, 1), (4, 1)) + P.term(-1, (3, 0), (3, 2))
    assert p.is_bihomogeneous(2, 2)
    assert not p.is_bihomogeneous(2, 1)
    assert not (p + x20).is_bihomogeneous(2, 2)
    # the marker counts as weight -1
    assert (top * P.term(1, (2, 1))).is_bihomogeneous(2, 0)
    assert P().is_bihomogeneous(2, 5)


def test_scaled_substitution_matches_manual_scaling():
    p = P.term(2, (2, 0), (4, 3)) + P.term(-7, (3, 1), (3, 2))
    a = {(2, 0): Fraction(2), (4, 3): Fraction(1, 3),
         (3, 1): Fraction(-1), (3, 2): Fraction(5)}
    alpha, beta = Fraction(3, 2), Fraction(-2)
    scaled = {v: beta * alpha ** v[1] * value for v, value in a.items()}
    assert p.scaled_substitution(alpha, beta, a) == p.evaluate(scaled)
    # degree-2 weight-3 bihomogeneous: global factor beta^2 alpha^3
    assert p.scaled_substitution(alpha, beta, a) == beta ** 2 * alpha ** 3 * p.evaluate(a)


def test_renderings():
    p = 3 * (x30 * x30) - x30 * x40
    assert p.text() == "3*x_{3,0}^2 - x_{3,0}*x_{4,0}"
    assert p.cas() == "3*x_3_0^2 - x_3_0*x_4_0"
    assert P().text() == "0"
    assert (top * x20).text() == "x_{2,0}*x"
    assert (-x20).text() == "-x_{2,0}"
    assert P.term(1).text() == "1"
    assert P.term(-2).text() == "-2"


def test_equality_and_hash():
    a = x20 * x30 + x40
    b = x40 + x30 * x20
    assert a == b and hash(a) == hash(b)
    assert a != x40
    assert a != "x"


def test_immutable():
    with pytest.raises(AttributeError):
        x20.terms = ()


small_polys = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(2, 5), st.integers(0, 3)), max_size=2),
        st.integers(-9, 9),
    ),
    max_size=5,
).map(P)


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a - a).is_zero


@given(small_polys, small_polys)
def test_evaluate_is_ring_homomorphism(a, b):
    point = {(j, s): Fraction(j - s, 3) for j in range(2, 6) for s in range(4)}
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


some_variables = st.one_of(st.tuples(st.integers(2, 5), st.integers(0, 3)), st.just(TOP))
# monomials of degree 0 to 2, the marker among the variables
mixed_polys = st.lists(
    st.tuples(st.lists(some_variables, max_size=2), st.integers(-9, 9)),
    max_size=6,
).map(P)
some_values = st.one_of(st.just(0), st.integers(-6, 6),
                        st.fractions(-20, 20, max_denominator=30))


@given(mixed_polys, st.dictionaries(some_variables, some_values, max_size=6))
def test_evaluate_equals_naive_fraction_sum(p, point):
    # evaluate sums the point's plain exact values
    naive = Fraction(0)
    for mono, coeff in p.terms:
        value = Fraction(coeff)
        for v in mono:
            value *= Fraction(point.get(v, 0))
        naive += value
    value = p.evaluate(point)
    assert type(value) is Fraction and value == naive


@pytest.mark.parametrize("call", [
    lambda: x20.evaluate({(2, 0): 0.1}),
    lambda: x20.scaled_substitution(Fraction(1), Fraction(1), {(2, 0): 0.5}),
    lambda: x20.scaled_substitution(0.5, Fraction(1), {(2, 0): 1}),
    lambda: x20.scaled_substitution(Fraction(1), 2.0, {(2, 0): 1}),
    lambda: evaluate_system(system_finite(9), {(2, 0): 0.1}),
    lambda: deformed_structure({(2, 0): 0.1}, 9),
    lambda: deformed_structure({(2, 0): 0.0}, 9),
    lambda: known_solution("m2", 0.1),
    lambda: LieElement([(3, 0.1)]),
    lambda: LieElement.basis(3).scaled(0.5),
    lambda: ExtForm.monomial((2, 3), 0.25),
    lambda: 0.5 * ExtForm.generator(2),
    lambda: DeformPolynomial.term(2.0, (2, 0)),
    lambda: linear_combination([(0.5, psi2(2, 0, 9))], 2, 9),
], ids=["evaluate", "scaled-point", "scaled-alpha", "scaled-beta", "evaluate-system",
        "deformed-structure", "deformed-structure-zero", "known-solution", "lie-element",
        "lie-scaled", "form-monomial", "form-rmul", "polynomial-term", "linear-combination"])
def test_floats_are_refused(call):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ValueError, match="float"):
        call()


@pytest.mark.parametrize("call, kind", [
    (lambda: LieElement.basis(3, True), "bool"),
    (lambda: DeformPolynomial.term(True, (2, 0)), "bool"),
    (lambda: known_solution("m2", True), "bool"),
    (lambda: exact([1]), "list"),
], ids=["lie-basis", "polynomial-term", "known-solution", "exact-list"])
def test_other_types_are_refused(call, kind):
    # Fraction(True) and int(True) are 1, and Fraction([1]) raised TypeError
    with pytest.raises(ValueError, match=f"is a {kind}"):
        call()


@pytest.mark.parametrize("value", ["1/0", "-3/0", "0/0"])
def test_a_zero_denominator_is_a_value_error(value):
    # Fraction's ZeroDivisionError used to escape the coefficient rule
    with pytest.raises(ValueError, match="zero denominator"):
        exact(value)


@pytest.mark.parametrize("call", [
    lambda: LieElement([(True, 2)]),
    lambda: LieElement([(2.5, 1)]),
    lambda: LieElement.basis(2.0),
    lambda: LieElement.basis(Fraction(3)),
    lambda: ExtForm.monomial((2.0, 3)),
    lambda: ExtForm.monomial((2, True)),
    lambda: ExtForm.generator("2"),
], ids=["lie-bool", "lie-float", "lie-integral-float", "lie-fraction", "form-float",
        "form-bool", "form-string"])
def test_indices_are_ints(call):
    # LieElement([(True, 2)]) was 2*eTrue and ExtForm.monomial((2.0, 3)) was e2.0^e3
    with pytest.raises(ValueError, match="must be an int"):
        call()


@pytest.mark.parametrize("value, expected", [
    (3, 3), (Fraction(-3, 7), Fraction(-3, 7)), ("-3/7", Fraction(-3, 7)), ("6/2", Fraction(3)),
], ids=["int", "fraction", "string", "integral-string"])
def test_exact_values_keep_their_values(value, expected):
    # ints stay ints, and every constructor applies the same rule
    assert exact(value) == expected and type(exact(value)) is type(expected)
    for elem in (LieElement.basis(3, value), LieElement.basis(3).scaled(value)):
        assert elem.terms == ((3, expected),) and type(elem.terms[0][1]) is type(expected)
    form = ExtForm.monomial((3, 2), value)
    assert form.terms == (((2, 3), -expected),) and type(form.terms[0][1]) is type(expected)


@pytest.mark.parametrize("value", [3, Fraction(6, 2), "3", "6/2"],
                         ids=["int", "fraction", "string", "integral-string"])
def test_integral_values_are_integer_coefficients(value):
    coeff = DeformPolynomial.term(value, (2, 0)).coefficient((2, 0))
    assert coeff == 3 and type(coeff) is int


@pytest.mark.parametrize("factor", [True, 2.0, Fraction(1, 2)], ids=["bool", "float", "fraction"])
def test_polynomials_multiply_by_ints_only(factor):
    # True * x used to return x
    with pytest.raises(TypeError):
        factor * x20
    assert 2 * x20 == x20 * 2 == P.term(2, (2, 0))


def test_scaling_by_an_int_keeps_the_marker_exact():
    # an int alpha stays an int, and the marker's alpha ** -1 must not become a float
    value = (x20 * top).scaled_substitution(2, 3, {(2, 0): 1, TOP: 1})
    assert value == Fraction(9, 2) and type(value) is Fraction
