import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filiform.oracle as oracle
from filiform.cochains import psi2_value
from filiform.lie import LieElement, make_fixture
from filiform.oracle import (conclusive_inventory, deformed_structure, evaluate_system,
                             first_violation, jacobi_scan, known_solution,
                             oracle_coefficient)
from filiform.polynomials import TOP, DeformPolynomial
from filiform.systems import f_poly, system_finite, system_truncated

from test_cochains import _wild

P = DeformPolynomial


def e(i, c=1):
    return LieElement.basis(i, c)


def T(c, *vs):
    return P.term(c, *vs)


class TestConclusiveInventory:
    def test_smallest_label(self):
        assert conclusive_inventory(2, 3, 0) == ((2, 0), (3, 0), (4, 0))

    def test_weight_one(self):
        assert conclusive_inventory(2, 3, 1) == ((2, 0), (2, 1), (3, 0),
                                                 (3, 1), (4, 0), (4, 1))

    def test_with_marker(self):
        inv = conclusive_inventory(2, 5, -1, with_top=True)
        assert inv == ((2, 0), (3, 0), (4, 0), (5, 0), TOP)

    def test_marker_needs_even_total(self):
        with pytest.raises(ValueError):
            conclusive_inventory(2, 3, 0, with_top=True)  # total index 9
        with pytest.raises(ValueError):
            conclusive_inventory(2, 5, -1)  # r = -1 without the marker
        with pytest.raises(ValueError):
            conclusive_inventory(3, 3, 0)


class TestOracleCoefficient:
    def test_first_equation_from_scratch(self):
        assert oracle_coefficient(2, 3, 0) == (T(-2, (2, 0), (4, 0))
                                               + T(3, (3, 0), (3, 0))
                                               + T(-1, (3, 0), (4, 0)))

    def test_a_fourth_positional_argument_is_refused(self):
        # a leftover positional inventory would read as a truthy with_top
        with pytest.raises(TypeError):
            oracle_coefficient(2, 3, 0, [(2, 0), (3, 0), (4, 0)])

    def test_l1_point_annihilates(self):
        poly = oracle_coefficient(2, 3, 0)
        assert poly.evaluate(known_solution("L1", bound=4)) == 0

    def test_label_validation(self):
        with pytest.raises(ValueError):
            oracle_coefficient(3, 3, 0)
        with pytest.raises(ValueError):
            oracle_coefficient(2, 3, -2)
        with pytest.raises(ValueError, match="r = -1"):
            oracle_coefficient(2, 5, -1)  # r = -1 without the marker

    @pytest.mark.parametrize("label", [(2, 3, 2), (3, 4, 1), (2, 5, 4),
                                       (4, 5, 2), (2, 4, 0)])
    def test_matches_closed_form(self, label):
        assert oracle_coefficient(*label) == f_poly(*label)

    def test_matches_every_label_to_total_31(self):
        system = system_truncated(31)
        assert len(system) == 458
        for eq in system:
            assert oracle_coefficient(*eq.label) == eq.poly, eq.label

    def test_matches_every_label_to_total_37(self):
        system = system_truncated(37)
        assert len(system) == 865
        for eq in system:
            assert oracle_coefficient(*eq.label) == eq.poly, eq.label

    @staticmethod
    def random_label(data, lo, hi):
        total = data.draw(st.integers(lo, hi))
        j = data.draw(st.integers(2, (total - 3) // 3))
        q = data.draw(st.integers(j + 1, (total - j - 1) // 2))
        return j, q, total - j - 2 * q - 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_closed_form_on_random_labels_past_31(self, data):
        # totals beyond the exhaustive sweep, one random label at a time
        label = self.random_label(data, 32, 45)
        assert oracle_coefficient(*label) == f_poly(*label), label

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_closed_form_on_random_labels_past_37(self, data):
        label = self.random_label(data, 38, 50)
        assert oracle_coefficient(*label) == f_poly(*label), label

    @pytest.mark.parametrize("n", range(10, 31, 2))
    def test_matches_even_top_rows(self, n):
        system = system_finite(n, "free")
        for eq in system.equations:
            if not eq.tilde:
                continue
            j, q, r = eq.label
            assert oracle_coefficient(j, q, r, with_top=True) == eq.poly, eq.label


def test_psi2_value_lands_on_k_plus_m_plus_s():
    # the oracle tries only the cocycles of weight w - idx - c on (e_idx, e_c)
    for n in range(3, 17):
        labels = [(j, s) for j in range(2, n) for s in range(n) if 2 * j + 1 + s <= n]
        if n % 2 == 0:
            labels.append((n // 2, -1))
        for j, s in labels:
            for k, m in combinations(range(2, n + 1), 2):
                value = psi2_value(j, s, n, k, m)
                assert value is None or value[0] == k + m + s, (j, s, n, k, m)
                assert (value is not None) == (k <= j <= (k + m - 1) // 2 and k + m + s <= n), \
                    (j, s, n, k, m)


@pytest.mark.parametrize("shift", [(1, 0), (0, 1)], ids=["target", "coeff"])
def test_a_psi2_value_mutation_is_seen_by_the_pruned_oracle(monkeypatch, shift):
    def mutated(j, s, n, k, m):
        value = psi2_value(j, s, n, k, m)
        if (k, m) == (2, 5) and value is not None:
            return value[0] + shift[0], value[1] + shift[1]
        return value

    monkeypatch.setattr(oracle, "psi2_value", mutated)
    system = system_truncated(25)
    diffs = [eq.label for eq in system if oracle_coefficient(*eq.label) != eq.poly]
    assert len(diffs) == 28


class TestKnownSolutions:
    def test_m2_and_mk(self):
        assert known_solution("m2", 3) == {(2, 0): Fraction(3)}
        assert known_solution("mk", k=5) == {(2, 3): Fraction(1)}
        with pytest.raises(ValueError):
            known_solution("mk")
        with pytest.raises(ValueError):
            known_solution("mk", k=1)

    def test_l1_series(self):
        sol = known_solution("L1", bound=5)
        assert sol == {(2, 0): Fraction(1), (3, 0): Fraction(1, 10),
                       (4, 0): Fraction(1, 70), (5, 0): Fraction(1, 420)}
        with pytest.raises(ValueError):
            known_solution("L1")

    def test_l1_lacuna2_line(self):
        sol = known_solution("L1-lacuna2")
        denominators = [70, 420, 2310, 12012, 60060, 291720, 1385670]
        assert sol == {(m, 2): Fraction(1, d)
                       for m, d in zip(range(2, 9), denominators)}

    @pytest.mark.parametrize("name", ["L1", "L1-lacuna2"])
    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_bound_below_two_is_refused(self, name, bound):
        # L1-lacuna2 used to return an empty assignment here
        with pytest.raises(ValueError, match=f"family {name} needs a truncation bound >= 2"):
            known_solution(name, bound=bound)

    @pytest.mark.parametrize("name, args", [
        ("mk", {"k": 2.5}), ("mk", {"k": 3.0}), ("mk", {"k": True}), ("L1", {"bound": 5.5}),
        ("L1", {"bound": 5.0}), ("L1-lacuna2", {"bound": 4.0}), ("L1", {"bound": True}),
    ], ids=["k-half", "k-float", "k-bool", "bound-half", "bound-float", "lacuna-bound-float",
            "bound-bool"])
    def test_non_int_k_or_bound_is_refused(self, name, args):
        # k = 2.5 gave {(2, 0.5): 1}, no deformation variable, whose residuals read 0
        with pytest.raises(ValueError, match="must be ints"):
            known_solution(name, **args)

    @pytest.mark.parametrize("name, args, param", [
        ("L1", {"k": 3, "bound": 3}, "k"), ("m2", {"k": 7, "bound": 4}, "k"),
        ("m2", {"bound": 4}, "bound"), ("mk", {"k": 3, "bound": 1}, "bound"),
        ("L1-lacuna2", {"k": 9}, "k"),
    ], ids=["L1-k", "m2-k-and-bound", "m2-bound", "mk-bound", "lacuna-k"])
    def test_a_parameter_the_family_does_not_take_is_refused(self, name, args, param):
        # these returned the family with the parameter dropped
        with pytest.raises(ValueError, match=f"family {name} takes no parameter {param}$"):
            known_solution(name, **args)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            known_solution("m1")


def test_evaluate_system_order_and_values():
    system = system_finite(13)
    residuals = evaluate_system(system, known_solution("m2"))
    assert [label for label, _ in residuals] == system.labels()
    assert all(v == 0 for _, v in residuals)
    assert first_violation(system, known_solution("m2")) is None

    bad = {(3, 0): Fraction(1)}
    assert first_violation(system, bad) == ((2, 3, 0), Fraction(3))


class TestDeformedStructure:
    def test_empty_assignment_is_chain(self):
        built = deformed_structure({}, 9)
        chain = make_fixture("m0", 9)
        assert dict_of(built) == dict_of(chain)

    def test_m2_point(self):
        built = deformed_structure(known_solution("m2"), 12)
        assert dict_of(built) == dict_of(make_fixture("m2", 12))

    def test_mk_point(self):
        # the deformation leaves the chain basis in place: the m_4 relations
        # appear as [e_2, e_m] = e_{m+4}, the regraded copy of the fixture
        n, k = 12, 4
        built = deformed_structure(known_solution("mk", k=k), n)
        expected = {(1, i): e(i + 1) for i in range(2, n)}
        expected.update({(2, m): e(m + k) for m in range(3, n - k + 1)})
        assert dict_of(built) == expected

    def test_marker_alone_is_m1(self):
        for n in (10, 12):
            built = deformed_structure({TOP: Fraction(1)}, n)
            assert dict_of(built) == dict_of(make_fixture("m1", n))

    def test_marker_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            deformed_structure({TOP: Fraction(1)}, 11)
        deformed_structure({TOP: Fraction(0)}, 11)  # zero marker is dropped

    @pytest.mark.parametrize("key", [(3, True), (2.0, 0), "y"],
                             ids=["bool-weight", "float-sill", "str"])
    def test_refuses_a_key_that_is_not_a_variable(self, key):
        # (3, True) built Psi_{3,1}, (2.0, 0) raised TypeError and "y" failed to unpack
        with pytest.raises(ValueError, match="not a deformation variable"):
            deformed_structure({key: 1}, 9)

    def test_l1_point_is_witt_up_to_rescaling(self):
        n = 13
        built = deformed_structure(known_solution("L1", bound=6), n)
        witt = make_fixture("L1", n)
        lam = {1: Fraction(1)}
        for i in range(2, n + 1):
            lam[i] = Fraction(1, 6 * factorial(i - 2))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if i + j > n:
                    continue
                coeff = built.value(i, j).coefficient(i + j)
                assert coeff * lam[i] * lam[j] == (j - i) * lam[i + j], (i, j)


def factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def dict_of(structure):
    return {(i, j): value for (i, j), value in structure.nonzero()}


class TestJacobiScan:
    def test_known_points_clean(self):
        for n in (9, 12, 13):
            for sol in (known_solution("m2"), known_solution("mk", k=3),
                        known_solution("L1", bound=(n - 1) // 2)):
                assert jacobi_scan(deformed_structure(sol, n)) == []

    def test_single_defect(self):
        structure = deformed_structure({(3, 0): Fraction(1)}, 9)
        assert jacobi_scan(structure) == [((2, 3, 4), e(9, 3))]

    def test_scaled_point_scales_quadratically(self):
        structure = deformed_structure({(3, 0): Fraction(2)}, 9)
        assert jacobi_scan(structure) == [((2, 3, 4), e(9, 12))]

    @staticmethod
    def reference(structure):
        # the LieElement route, triple by triple
        triples = combinations(range(1, structure.dim + 1), 3)
        return [(t, defect) for t in triples
                if not (defect := structure.jacobi_defect(*t)).is_zero]

    @pytest.mark.parametrize("n, assignment", [
        (13, known_solution("L1", Fraction(-3, 7), bound=6)),
        (24, known_solution("L1", Fraction(5, 2), bound=11)),
        (14, {**known_solution("L1", bound=6), (2, 0): Fraction(4, 3)}),
        (25, {**known_solution("L1", Fraction(2, 9), bound=12), (4, 0): Fraction(-2, 5)}),
        (12, {TOP: Fraction(1), (2, 0): Fraction(1, 2)}),
        (16, {TOP: Fraction(-3, 5), (3, 1): Fraction(2), (2, 0): Fraction(1, 6)}),
        *((n, None) for n in (6, 9, 10, 13, 16)),
    ], ids=["L1-13", "L1-24", "shifted-14", "shifted-25", "marker-12", "marker-16",
            "not-lie-6", "not-lie-9", "not-lie-10", "not-lie-13", "not-lie-16"])
    def test_matches_reference_on_points(self, n, assignment):
        # with no assignment, a seeded table that is no Lie algebra, with brackets
        # landing on e_1 and on their own arguments: the scan needs antisymmetry only
        structure = _wild(n) if assignment is None else deformed_structure(assignment, n)
        assert jacobi_scan(structure) == self.reference(structure)

    @pytest.mark.parametrize("n", range(9, 26))
    def test_matches_reference_on_fixtures(self, n):
        fixtures = [make_fixture(name, n) for name in ("m0", "m2", "L1")]
        fixtures += [make_fixture("mk", n, k=3), make_fixture("Lk", n, k=2),
                     make_fixture("lacuna-of", n, s=2, base="L1")]
        if n % 2 == 0:
            fixtures.append(make_fixture("m1", n))
        for structure in fixtures:
            assert jacobi_scan(structure) == self.reference(structure), structure


def test_first_violation_of_nonextendable_families():
    # both printed weight-2 partial solutions stall at the same label
    system = system_truncated(25)
    fam2 = {(7, 2): Fraction(3), (8, 2): Fraction(5)}
    assert first_violation(system, fam2) == ((2, 7, 4), Fraction(714))
    fam3 = {(6, 2): Fraction(2), (7, 2): Fraction(8), (8, 2): Fraction(28)}
    assert first_violation(system, fam3) == ((2, 7, 4), Fraction(-1568))
    # residual of the first is 126 u^2 - 28 u t
    fam2b = {(7, 2): Fraction(1, 3), (8, 2): Fraction(2)}
    assert first_violation(system, fam2b) == ((2, 7, 4), Fraction(-14, 3))


@pytest.mark.parametrize("n", [11, 12, 14, 20, 25, 31])
def test_defect_components_equal_residuals(n):
    # dual route: brute-force Jacobi defects against closed-form residuals
    rng = random.Random(n * 1009)
    system = system_finite(n, "free")
    for _ in range(6):
        support = rng.sample(list(system.variables),
                             k=min(4, len(system.variables)))
        assignment = {v: Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                      for v in support}
        if TOP in assignment and n % 2:
            del assignment[TOP]
        structure = deformed_structure(assignment, n)
        by_triple = {}
        for (j, q, r), value in evaluate_system(system, assignment):
            if value:
                by_triple.setdefault((j, q, q + 1), []).append(
                    (j + 2 * q + 1 + r, value))
        expected = {triple: elem
                    for triple, parts in by_triple.items()
                    if not (elem := LieElement(parts)).is_zero}
        scanned = dict(jacobi_scan(structure))
        # adapted deformations never break Jacobi against e_1
        assert all(triple[0] >= 2 for triple in scanned)
        reading = {triple: defect for triple, defect in scanned.items()
                   if triple[2] == triple[1] + 1}
        assert reading == expected


def test_oracle_never_imports_systems():
    # the two routes to the equations share only psi2_value and exact arithmetic
    import filiform.oracle
    tree = ast.parse(Path(filiform.oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for name in modules:
            assert "systems" not in name.split("."), ast.unparse(node)
