from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filiform.cochains import LieStructure
from filiform.lie import ZERO, LieElement, make_fixture


def e(i, c=1):
    return LieElement.basis(i, c)


elements = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12),
              st.fractions(max_denominator=6)),
    max_size=6,
).map(LieElement)


class TestLieElement:
    def test_merges_and_drops_zero(self):
        v = LieElement([(3, Fraction(1)), (3, Fraction(-1)), (5, Fraction(2))])
        assert v.terms == ((5, Fraction(2)),)
        assert v.coefficient(3) == 0
        assert v.coefficient(5) == 2
        assert tuple(i for i, _ in v.terms) == (5,)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            LieElement([(0, Fraction(1))])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            e(2).terms = ()

    def test_clipped_flags_loss(self):
        v = e(3) + e(9)
        assert v.clipped(5) == e(3)
        assert v.clipped(9) is v

    def test_repr(self):
        assert repr(e(2) - e(4) + e(7, Fraction(1, 2))) == "e2 - e4 + 1/2*e7"
        assert repr(ZERO) == "0"

    @given(elements, elements)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(elements)
    def test_negation_cancels(self, a):
        assert (a - a).is_zero
        assert a.scaled(0).is_zero
        assert a.scaled(3) == a + a + a


class TestLieStructure:
    def test_rejects_out_of_range_key(self):
        with pytest.raises(ValueError):
            LieStructure(4, {(1, 5): e(3)})
        with pytest.raises(ValueError):
            LieStructure(4, {(3, 2): e(4)})

    @pytest.mark.parametrize("key", [(True, 2), (1.0, 2), (2, 3.0), (Fraction(1), 2)],
                             ids=["bool", "float", "integral-float", "fraction"])
    def test_rejects_a_key_that_is_not_ints(self, key):
        # (True, 2) was stored and written by fixture_doc as "i": true
        with pytest.raises(ValueError, match="must be ints"):
            LieStructure(4, {key: e(3)})

    def test_rejects_target_above_cutoff(self):
        with pytest.raises(ValueError):
            LieStructure(4, {(1, 2): e(5)})

    def test_bracket_antisymmetry(self):
        g = make_fixture("m1", 10)
        for i in range(1, 11):
            assert g.value(i, i).is_zero
            for j in range(i + 1, 11):
                assert g.value(j, i) == -g.value(i, j)
        with pytest.raises(ValueError, match="out of range"):
            g.value(11, 11)  # a repeat reads as zero only inside the cutoff

    def test_bracket_bilinear(self):
        g = make_fixture("m0", 8)
        a = e(1) + e(2, 3)
        b = e(3) - e(4, Fraction(1, 2))
        expected = (g.bracket(e(1), e(3)) - g.bracket(e(1), e(4)).scaled(Fraction(1, 2))
                    + g.bracket(e(2), e(3)).scaled(3)
                    - g.bracket(e(2), e(4)).scaled(Fraction(3, 2)))
        assert g.bracket(a, b) == expected


def test_m0_relations():
    g = make_fixture("m0", 7)
    assert g.value(1, 2) == e(3)
    assert g.value(1, 6) == e(7)
    assert g.value(1, 7).is_zero  # target would leave the basis
    assert g.value(2, 3).is_zero


def test_m1_alternating_signs():
    g = make_fixture("m1", 8)
    assert g.value(2, 7) == e(8)
    assert g.value(3, 6) == -e(8)
    assert g.value(4, 5) == e(8)
    assert g.value(2, 6).is_zero
    # still carries the chain part
    assert g.value(1, 4) == e(5)


def test_m1_needs_even_dimension():
    with pytest.raises(ValueError):
        make_fixture("m1", 9)
    with pytest.raises(ValueError):
        make_fixture("m1", 4)


def test_m2_relations():
    g = make_fixture("m2", 9)
    assert g.value(2, 3) == e(5)
    assert g.value(2, 7) == e(9)
    assert g.value(3, 4).is_zero


def test_mk_gapped_basis():
    # m_4 lives on e_1, e_4, e_5, ...: nothing touches e_2 or e_3
    g = make_fixture("mk", 12, k=4)
    assert g.value(4, 5) == e(9)
    assert g.value(4, 8) == e(12)
    assert g.value(1, 2).is_zero
    assert g.value(1, 3).is_zero
    assert g.value(1, 4) == e(5)
    assert g.value(5, 6).is_zero


def test_mk_requires_k():
    with pytest.raises(ValueError):
        make_fixture("mk", 10)
    with pytest.raises(ValueError):
        make_fixture("mk", 10, k=1)


def test_witt_relations():
    g = make_fixture("L1", 9)
    assert g.value(2, 3) == e(5)
    assert g.value(1, 2) == e(3)
    assert g.value(2, 7) == e(9).scaled(5)
    assert g.value(3, 4) == e(7)
    assert g.value(4, 6).is_zero  # 10 > 9 dropped

    g2 = make_fixture("Lk", 9, k=2)
    assert g2.value(1, 5).is_zero
    assert g2.value(2, 5) == e(7).scaled(3)


def test_lacuna_subalgebra():
    g = make_fixture("lacuna-of", 12, s=2, base="L1")
    # spanned by e_1 and e_4..e_12: the pair (2,3) is outside
    assert g.value(2, 3).is_zero
    assert g.value(1, 4) == e(5).scaled(3)
    assert g.value(4, 5) == e(9)
    with pytest.raises(ValueError):
        make_fixture("lacuna-of", 12, s=0, base="L1")
    with pytest.raises(ValueError):
        make_fixture("lacuna-of", 12, s=1, base="m1")


def test_unknown_fixture_name():
    with pytest.raises(ValueError):
        make_fixture("m3x", 10)


@pytest.mark.parametrize("call", [
    lambda: LieStructure(4.0, {}),
    lambda: LieStructure(True, {}),
    lambda: make_fixture("m1", 10.0),
    lambda: make_fixture("m0", True),
    lambda: make_fixture("Lk", 9, k=True),
    lambda: make_fixture("mk", 12, k=3.0),
    lambda: make_fixture("lacuna-of", 10, s=True, base="m0"),
    lambda: make_fixture("lacuna-of", 12, s=2.0, base="L1"),
], ids=["structure-float", "structure-bool", "fixture-float", "fixture-bool", "Lk-bool-k",
        "mk-float-k", "lacuna-bool-s", "lacuna-float-s"])
def test_sizes_and_fixture_parameters_are_ints(call):
    # LieStructure(4.0, {}) was taken, k=True built LTrue(9) and a float n raised TypeError
    with pytest.raises(ValueError, match="must be ints"):
        call()


def test_fixture_gradings():
    # chain-type fixtures are graded by the index; m1 adds weight -1 rows
    for name, k in [("m0", None), ("m2", None), ("mk", 5), ("L1", None), ("Lk", 3)]:
        g = make_fixture(name, 15, k=k)
        for (i, j), value in g.nonzero():
            assert tuple(idx for idx, _ in value.terms) == (i + j,)
    g = make_fixture("m1", 14)
    for (i, j), value in g.nonzero():
        assert value.terms[0][0] in (i + j, i + j - 1)


def all_fixtures(n):
    yield make_fixture("m0", n)
    if n % 2 == 0 and n >= 6:
        yield make_fixture("m1", n)
    for k in range(2, 7):
        yield make_fixture("mk", n, k=k)
    yield make_fixture("L1", n)
    for k in range(2, 4):
        yield make_fixture("Lk", n, k=k)
    for s in range(1, 4):
        for base in ("m0", "m2", "L1"):
            yield make_fixture("lacuna-of", n, s=s, base=base)


@pytest.mark.parametrize("n", [7, 12, 17, 20])
def test_jacobi_exhaustive(n):
    for g in all_fixtures(n):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    assert g.jacobi_defect(i, j, k).is_zero, (g.label, i, j, k)
