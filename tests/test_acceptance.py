"""End-to-end acceptance checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for a one-line verdict per
criterion.  Each test carries its own wall-clock budget; frozen constants
below were derived once with the brute-force oracle and are re-checked
against it on every run.  Known print typos live in docs/typo-ledger.md
and are asserted here, not patched around.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

from filiform.cli import main as cli_main
from filiform.cochains import d_adjoint, psi2, psi3
from filiform.combinatorics import partitions_exact
from filiform.forms import ExtForm, d1, d_trivial, dminus1, omega, wedge
from filiform.lie import LieElement, make_fixture
from filiform.oracle import (deformed_structure, first_violation, jacobi_scan,
                             known_solution, oracle_coefficient)
from filiform.polynomials import TOP, DeformPolynomial as P
from filiform.serialize import parse_system_doc
from filiform.systems import (closed_form_counts, dims_report, f_poly,
                              system_finite, system_truncated,
                              variable_inventory)

LEDGER = Path(__file__).resolve().parents[1] / "docs" / "typo-ledger.md"

EQ_COUNTS = [1, 3, 4, 8, 11, 18, 23, 33, 41, 55]   # n = 9 .. 18


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def labels2(n):
    return [(j, s) for j in range(2, n // 2 + 1) for s in range(n - 2 * j)]


def labels3(n):
    return [(i, j, s) for i in range(2, n) for j in range(i + 1, n)
            for s in range(n - (i + 2 * j + 1) + 1)]


def test_criterion_01_equation_counts():
    with budget(1.0):
        for n, expected in zip(range(9, 19), EQ_COUNTS):
            assert dims_report(n)["num_eqs"] == expected, n
            assert len(system_finite(n)) == expected, n


def test_criterion_02_variable_counts():
    with budget(1.0):
        for n in range(9, 41):
            if n % 2:
                formula = (n - 3) ** 2 // 4
            else:
                formula = (n - 2) * (n - 4) // 4
            p2_sum = sum(partitions_exact(2, m) for m in range(2, n - 2))
            assert closed_form_counts(n)[0] == formula, n
            assert p2_sum == formula, n
            assert len(variable_inventory(n)) == formula, n


def test_criterion_03_oracle_agrees_with_closed_forms():
    with budget(120.0):
        # every label with total index <= 25, from a freshly built inventory
        for eq in system_truncated(25):
            assert oracle_coefficient(*eq.label) == eq.poly, eq.label
        # even-dimension marker rows: oracle with the symbolic marker included
        for n in (10, 12, 14, 16):
            for eq in system_finite(n):
                if not eq.tilde:
                    continue
                j, q, r = eq.label
                assert oracle_coefficient(j, q, r, with_top=True) == eq.poly, (n, eq.label)


def test_criterion_04_known_families_solve_every_system():
    with budget(30.0):
        for n in range(9, 17):
            families = [known_solution("m2"),
                        known_solution("L1", bound=(n - 1) // 2)]
            families += [known_solution("mk", k=k) for k in range(3, 9)]
            system = system_finite(n)
            for sol in families:
                assert first_violation(system, sol) is None, (n, sol)
                assert jacobi_scan(deformed_structure(sol, n)) == [], (n, sol)


def test_criterion_05_weight0_solution_lines():
    with budget(1.0):
        gen = {lbl: f_poly(*lbl) for lbl in ((2, 3, 0), (3, 4, 0), (2, 4, 0))}
        deep = known_solution("L1", bound=5)   # 1, 1/10, 1/70, 1/420
        lines = ({(2, 0): Fraction(1)}, deep, {(5, 0): Fraction(1)})
        for line in lines:
            for t in (Fraction(1), Fraction(-3, 2)):
                point = {v: t * c for v, c in line.items()}
                for lbl, poly in gen.items():
                    assert poly.evaluate(point) == 0, (lbl, point)
        for lbl, poly in gen.items():
            assert oracle_coefficient(*lbl) == poly, lbl
        # circulating print of the first equation has two slips; the deep
        # line separates it from the generated form
        printed = (P.term(-3, (3, 0), (3, 0)) + P.term(1, (3, 0), (2, 0))
                   + P.term(2, (2, 0), (4, 0)))
        assert printed != gen[(2, 3, 0)] and printed != -gen[(2, 3, 0)]
        assert printed + gen[(2, 3, 0)] == (P.term(1, (2, 0), (3, 0))
                                            + P.term(-1, (3, 0), (4, 0)))
        assert printed.evaluate(deep) == Fraction(69, 700)
        text = LEDGER.read_text(encoding="utf-8")
        assert "F_{2,3,0}" in text and "x_{3,0}*x_{2,0}" in text


def test_criterion_06_weight4_subsystem():
    with budget(5.0):
        def T(c, a, b):
            return P.term(c, (a, 2), (b, 2))

        printed = {
            (2, 3, 4): (T(5, 3, 3) + T(-4, 2, 4) + T(2, 2, 5) + T(-6, 3, 4)
                        + T(1, 3, 5)),
            (2, 4, 4): (T(-15, 4, 4) + T(2, 2, 6) + T(-4, 2, 5) + T(6, 3, 4)
                        + T(10, 4, 5) + T(-1, 4, 6) + T(3, 3, 5) + T(-1, 3, 6)),
            (3, 4, 4): (T(6, 4, 4) + T(-5, 3, 5) + T(5, 3, 6) + T(4, 4, 6)
                        + T(-10, 4, 5)),
            (2, 5, 4): (T(35, 5, 5) + T(-4, 2, 6) + T(2, 2, 7) + T(7, 3, 5)
                        + T(7, 3, 6) + T(-3, 3, 7) + T(-15, 5, 6) + T(1, 5, 7)),
            (3, 5, 4): (T(-21, 5, 5) + T(-5, 3, 6) + T(5, 3, 7) + T(7, 4, 5)
                        + T(4, 4, 6) + T(-3, 4, 7) + T(20, 5, 6) + T(-5, 5, 7)),
            (4, 5, 4): (T(7, 5, 5) + T(-6, 4, 6) + T(9, 4, 7) + T(-2, 4, 8)
                        + T(-15, 5, 6) + T(10, 5, 7) + T(-1, 5, 8)),
            (3, 6, 4): (T(56, 6, 6) + T(-5, 3, 7) + T(5, 3, 8) + T(9, 4, 7)
                        + T(-8, 4, 8) + T(8, 4, 6) + T(-36, 5, 6)
                        + T(-35, 6, 7) + T(6, 6, 8)),
        }
        keep = frozenset((j, 2) for j in range(2, 12))
        gen = {lbl: f_poly(*lbl).restricted(keep) for lbl in printed}
        for lbl in printed:
            if lbl == (2, 5, 4):
                # print drops one term; ledger-documented
                assert gen[lbl] - printed[lbl] == T(-28, 4, 5)
            else:
                assert gen[lbl] == printed[lbl], lbl

        def weight2(*coords):
            return {(m, 2): Fraction(c)
                    for m, c in zip(range(2, 9), coords) if c}

        families = [
            weight2(1, 0, 0, 0, 0, 0, 0),
            weight2(0, 0, 0, 0, 0, 1, 0),
            weight2(0, 0, 0, 0, 0, 0, 1),
            weight2(0, 0, 0, 0, 0, 1, 1),
            weight2(0, 0, 0, 0, 1, 4, 14),
            known_solution("L1-lacuna2"),
        ]
        for fam in families:
            for lbl, poly in gen.items():
                assert poly.evaluate(fam) == 0, (lbl, fam)
        # the factorial family is what convicts the printed (2,5,4)
        assert (printed[(2, 5, 4)].evaluate(known_solution("L1-lacuna2"))
                == Fraction(1, 990990))
        assert "F_{2,5,4}" in LEDGER.read_text(encoding="utf-8")


def test_criterion_07_twelve_dimensional_system(tmp_path):
    with budget(5.0):
        out = tmp_path / "system.json"
        assert cli_main(["gen", "--dim", "12", "--format", "json",
                         "--output", str(out)]) == 0
        system = parse_system_doc(json.loads(out.read_text()))
        expected_labels = {(2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 4, 0),
                           (2, 3, 3), (2, 4, 1), (3, 4, 0), (2, 5, -1)}
        assert set(system.labels()) == expected_labels
        assert len(system) == 8

        x = TOP
        printed = {
            (2, 5, -1): (P.term(-2, x, (2, 0)) + P.term(3, x, (3, 0))
                         + P.term(-1, x, (5, 0))),
            (2, 3, 0): (P.term(-3, (3, 0), (3, 0)) + P.term(1, (3, 0), (2, 0))
                        + P.term(2, (2, 0), (4, 0))),
            (2, 3, 1): (P.term(-2, (2, 0), (4, 1)) + P.term(7, (3, 0), (3, 1))
                        + P.term(-3, (4, 0), (3, 1)) + P.term(-3, (4, 0), (2, 1))
                        + P.term(-1, (3, 0), (4, 1))),
            (2, 3, 2): (P.term(4, (3, 1), (3, 1)) + P.term(-3, (2, 1), (4, 1))
                        + P.term(-3, (3, 1), (4, 1)) + P.term(2, (2, 2), (5, 0))
                        + P.term(-1, (2, 2), (4, 0)) + P.term(8, (3, 2), (3, 0))
                        + P.term(-6, (3, 2), (4, 0)) + P.term(1, (3, 2), (5, 0))
                        + P.term(-1, (4, 2), (3, 0)) + P.term(-2, (4, 2), (2, 0))),
            (2, 3, 3): (P.term(2, (2, 2), (5, 1)) + P.term(-4, (2, 2), (4, 1))
                        + P.term(9, (3, 2), (3, 1)) + P.term(-6, (3, 2), (4, 1))
                        + P.term(1, (3, 2), (5, 1)) + P.term(-3, (4, 2), (3, 1))
                        + P.term(-3, (4, 2), (2, 1)) + P.term(5, (2, 3), (5, 0))
                        + P.term(-5, (2, 3), (4, 0)) + P.term(9, (3, 3), (3, 0))
                        + P.term(-10, (3, 3), (4, 0)) + P.term(4, (3, 3), (5, 0))
                        + P.term(1, (4, 3), (3, 0)) + P.term(-2, (4, 3), (2, 0))
                        + P.term(-2, x, (2, 4)) + P.term(-1, x, (3, 4))),
            (2, 4, 0): (P.term(6, (4, 0), (4, 0)) + P.term(-4, (3, 0), (4, 0))
                        + P.term(-1, (4, 0), (5, 0)) + P.term(2, (2, 0), (5, 0))
                        + P.term(-1, (3, 0), (5, 0))),
            (2, 4, 1): (P.term(-2, (2, 0), (5, 1)) + P.term(5, (3, 0), (4, 1))
                        + P.term(1, (3, 0), (5, 1)) + P.term(-10, (4, 0), (4, 1))
                        + P.term(4, (5, 0), (4, 1)) + P.term(-3, (5, 0), (2, 1))
                        + P.term(4, (4, 0), (3, 1)) + P.term(2, (5, 0), (3, 1))
                        + P.term(-6, (4, 0), (4, 1)) + P.term(1, (4, 0), (5, 1))
                        + P.term(2, x, (2, 2)) + P.term(-1, x, (3, 2))
                        + P.term(-1, x, (4, 2))),
            (3, 4, 0): (P.term(-4, (4, 0), (4, 0)) + P.term(3, (4, 0), (5, 0))
                        + P.term(3, (3, 0), (5, 0)) + P.term(2, x, (3, 1))
                        + P.term(1, x, (4, 1))),
        }
        gen = {eq.label: eq.poly for eq in system}
        # the marker-only row must come out exactly, no sign slack
        assert gen[(2, 5, -1)] == printed[(2, 5, -1)]
        # exact matches
        assert gen[(2, 3, 1)] == printed[(2, 3, 1)]
        assert gen[(2, 4, 1)] == printed[(2, 4, 1)]
        # pure overall-sign flip
        assert gen[(2, 4, 0)] == -printed[(2, 4, 0)]
        # ledger-documented term-level slips
        assert gen[(2, 3, 2)] - printed[(2, 3, 2)] == P.term(-3, (2, 2), (4, 0))
        assert gen[(2, 3, 3)] - printed[(2, 3, 3)] == P.term(-2, (3, 0), (4, 3))
        assert (gen[(2, 3, 0)] + printed[(2, 3, 0)]
                == P.term(1, (2, 0), (3, 0)) + P.term(-1, (3, 0), (4, 0)))
        assert (gen[(3, 4, 0)] + printed[(3, 4, 0)]
                == P.term(4, x, (3, 1)) + P.term(2, x, (4, 1)))
        # every generated row is oracle-certified
        for eq in system:
            j, q, r = eq.label
            assert oracle_coefficient(j, q, r, with_top=eq.tilde) == eq.poly, eq.label
        text = LEDGER.read_text(encoding="utf-8")
        for marker in ("F_{2,3,2}", "F~_{2,3,3}", "F_{2,4,0}", "F~_{3,4,0}"):
            assert marker in text, marker


def test_criterion_08_cocycles_closed_with_defining_values():
    with budget(60.0):
        for n in range(5, 15):
            base = make_fixture("m0", n)
            for j, s in labels2(n):
                psi = psi2(j, s, n)
                assert psi.value(j, j + 1) == LieElement.basis(2 * j + 1 + s)
                for k in range(2, n):
                    if k != j:
                        assert psi.value(k, k + 1).is_zero, (n, j, s, k)
                dpsi = d_adjoint(psi, base)
                for tup in combinations(range(1, n + 1), 3):
                    assert dpsi.value_on_basis(tup).is_zero, (n, j, s, tup)
        for n in range(9, 15):
            base = make_fixture("m0", n)
            for i, j, s in labels3(n):
                phi = psi3(i, j, s, n)
                assert phi.value(i, j, j + 1) == LieElement.basis(i + 2 * j + 1 + s)
                for l in range(2, n):
                    for k in range(l + 1, n):
                        if (l, k) != (i, j):
                            assert phi.value(l, k, k + 1).is_zero, (n, i, j, s)
                dphi = d_adjoint(phi, base)
                for tup in combinations(range(1, n + 1), 4):
                    assert dphi.value_on_basis(tup).is_zero, (n, i, j, s, tup)
        # the scalar 3-cocycle generating the degree-3 family, term by term
        expected = {(5, 6, 7): 1, (4, 6, 8): -1, (3, 6, 9): 1, (4, 5, 9): 1,
                    (2, 6, 10): -1, (3, 5, 10): -2, (2, 5, 11): 3,
                    (3, 4, 11): 2, (2, 4, 12): -5, (2, 3, 13): 5}
        got = dict(omega((5, 6, 7)).monomials())
        assert got == {m: Fraction(c) for m, c in expected.items()}


def test_criterion_09_shift_operator_identities():
    with budget(10.0):
        rng = Random(20260825)
        e1 = ExtForm.generator(1)
        for _ in range(500):
            terms = []
            for _ in range(rng.randint(1, 4)):
                degree = rng.randint(1, 3)
                indices = tuple(rng.sample(range(2, 13), degree))
                coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                terms.append((indices, coeff))
            xi = ExtForm(terms)
            assert d1(dminus1(xi)) == xi
            assert d_trivial(xi) == wedge(e1, d1(xi))
            assert wedge(e1, xi) == d_trivial(dminus1(xi))


def test_criterion_10_bihomogeneity_and_scaling():
    with budget(30.0):
        rows = list(system_truncated(25))
        # marker rows keep the pattern with the marker counted at weight -1
        rows += [eq for eq in system_finite(12) if eq.tilde]
        rng = Random(20260825)
        for eq in rows:
            j, q, r = eq.label
            assert eq.poly.is_bihomogeneous(2, r), eq.label
            point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for v in eq.poly.variables()}
            alpha = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            beta = Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1))
            assert (eq.poly.scaled_substitution(alpha, beta, point)
                    == beta ** 2 * alpha ** r * eq.poly.evaluate(point)), eq.label
