import pytest
from hypothesis import given
from hypothesis import strategies as st

from filiform.combinatorics import partitions_exact
from filiform.forms import ExtForm, d1, d_trivial, dminus1, omega

E1 = ExtForm.generator(1)


def mono(*indices):
    return ExtForm.monomial(indices)


# e^1-free forms with small support, mixed degrees
free_forms = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3,
                 unique=True),
        st.fractions(max_denominator=4),
    ),
    max_size=5,
).map(lambda ts: ExtForm((tuple(m), c) for m, c in ts))


class TestExtForm:
    def test_sorts_with_sign(self):
        assert mono(5, 3) == -mono(3, 5)
        assert mono(4, 2, 3) == mono(2, 3, 4)
        assert mono(2, 3, 2).is_zero

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            mono(0, 2)

    def test_coefficient_reads_through_sign(self):
        f = mono(2, 5).scaled(3)
        assert f.coefficient((2, 5)) == 3
        assert f.coefficient((5, 2)) == -3
        assert f.coefficient((2, 2)) == 0
        assert f.coefficient((3, 4)) == 0

    def test_degrees_and_weights(self):
        f = mono(2, 3) + mono(7)
        assert {len(m) for m, _ in f.terms} == {1, 2}
        assert {sum(m) for m, _ in f.terms} == {5, 7}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            mono(2).terms = ()


def test_wedge_graded_commutative():
    a, b = mono(2, 3), mono(4, 5)
    assert wedge_eq(a, b, 1)          # even * even
    c = mono(6)
    assert wedge_eq(a, c, 1)          # even * odd
    assert wedge_eq(c, mono(7), -1)   # odd * odd


def wedge_eq(a, b, sign):
    from filiform.forms import wedge
    return wedge(a, b) == wedge(b, a).scaled(sign)


def test_wedge_kills_repeats():
    from filiform.forms import wedge
    assert wedge(mono(2, 3), mono(3, 4)).is_zero
    assert wedge(mono(2), mono(2)).is_zero


def test_d1_values():
    assert d1(mono(2)).is_zero
    assert d1(mono(5)) == mono(4)
    # derivation without sign: both slots lower independently
    assert d1(mono(3, 5)) == mono(2, 5) + mono(3, 4)
    assert d1(mono(2, 3)) == mono(2, 2) + mono(2, 2) == ExtForm()
    assert d1(mono(3, 4)) == mono(2, 4)  # the (3,3) term collapses


def test_d1_rejects_e1():
    with pytest.raises(ValueError):
        d1(mono(1, 3))


def test_dminus1_values():
    assert dminus1(mono(4)) == mono(5)
    # prefix e^3 gets shifted against e^{6}, e^{7}, ... until d1 kills it
    assert dminus1(mono(3, 5)) == mono(3, 6) - mono(2, 7)
    assert dminus1(mono(2, 3)) == mono(2, 4)
    with pytest.raises(ValueError):
        dminus1(mono(1, 2))


def test_dminus1_raises_weight_by_one():
    f = mono(3, 5) + mono(2, 6)
    assert {sum(m) for m, _ in dminus1(f).terms} == {9}
    assert {sum(m) for m, _ in d1(dminus1(f)).terms} == {8}


def test_d_trivial_values():
    assert d_trivial(mono(2)).is_zero
    assert d_trivial(mono(1)).is_zero
    assert d_trivial(mono(4)) == mono(1, 3)
    # repeated-index term collapses
    assert d_trivial(mono(3, 4)) == mono(1, 2, 4)
    # odd derivation: the second slot contributes with a sign
    assert d_trivial(mono(3, 5)) == mono(1, 2, 5) + mono(1, 3, 4)


def test_d_trivial_squares_to_zero():
    for f in (mono(5), mono(3, 7), mono(4, 5, 6), mono(2, 5) + mono(3, 4)):
        assert d_trivial(d_trivial(f)).is_zero


@given(free_forms)
def test_d1_after_dminus1_is_identity(f):
    assert d1(dminus1(f)) == f


@given(free_forms)
def test_d_trivial_is_e1_wedge_d1(f):
    from filiform.forms import wedge
    assert d_trivial(f) == wedge(E1, d1(f))


@given(free_forms)
def test_e1_wedge_equals_d_of_dminus1(f):
    from filiform.forms import wedge
    assert wedge(E1, f) == d_trivial(dminus1(f))


class TestOmega:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            omega((3,))
        with pytest.raises(ValueError):
            omega((1, 2))
        with pytest.raises(ValueError):
            omega((3, 5))  # not consecutive at the end
        with pytest.raises(ValueError):
            omega((4, 3, 4))

    def test_small_values(self):
        assert omega((2, 3)) == mono(2, 3)
        assert omega((3, 4)) == mono(3, 4) - mono(2, 5)
        assert omega((4, 5)) == mono(4, 5) - mono(3, 6) + mono(2, 7)

    def test_leading_monomial_is_label(self):
        for label in [(2, 3), (5, 6), (2, 4, 5), (3, 5, 6), (2, 3, 4)]:
            assert omega(label).coefficient(label) == 1

    @pytest.mark.parametrize("label", [(2, 3), (4, 5), (2, 3, 4), (2, 5, 6),
                                       (3, 4, 5), (4, 6, 7), (2, 7, 8)])
    def test_closed(self, label):
        assert d_trivial(omega(label)).is_zero

    def test_weight_slice_counts(self):
        # labels (j, j+1) at weight w: difference of two-part partition counts
        for w in range(5, 31):
            found = sum(1 for j in range(2, w) if 2 * j + 1 == w)
            assert found == partitions_exact(2, w - 3) - partitions_exact(2, w - 4)
        # labels (i, j, j+1) at weight w: difference of three-part counts
        for w in range(9, 31):
            found = sum(1 for i in range(2, w) for j in range(i + 1, w)
                        if i + 2 * j + 1 == w)
            assert found == partitions_exact(3, w - 6) - partitions_exact(3, w - 7)
