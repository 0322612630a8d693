import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filiform import systems
from filiform.combinatorics import partitions_exact
from filiform.oracle import (conclusive_inventory, deformed_structure, evaluate_system,
                             known_solution, oracle_coefficient)
from filiform.polynomials import TOP, DeformPolynomial
from filiform.systems import (X_MODES, Equation, EquationSystem,
                              closed_form_counts, declared_variables, dims_report,
                              f_poly, g_poly, residuals, system_finite,
                              system_truncated, variable_inventory)

P = DeformPolynomial


def T(c, *vs):
    return P.term(c, *vs)


class TestFPoly:
    def test_first_equation(self):
        assert f_poly(2, 3, 0) == T(-2, (2, 0), (4, 0)) + T(3, (3, 0), (3, 0)) + T(-1, (3, 0), (4, 0))

    def test_weight_one_equation(self):
        expected = (T(-2, (2, 0), (4, 1)) + T(-3, (2, 1), (4, 0))
                    + T(7, (3, 0), (3, 1)) + T(-1, (3, 0), (4, 1))
                    + T(-3, (3, 1), (4, 0)))
        assert f_poly(2, 3, 1) == expected

    def test_weight_zero_pair(self):
        assert f_poly(3, 4, 0) == T(4, (4, 0), (4, 0)) + T(-3, (4, 0), (5, 0)) + T(-3, (3, 0), (5, 0))
        assert f_poly(2, 4, 0) == (T(-6, (4, 0), (4, 0)) + T(4, (3, 0), (4, 0))
                                   + T(1, (4, 0), (5, 0)) + T(-2, (2, 0), (5, 0))
                                   + T(1, (3, 0), (5, 0)))

    def test_label_validation(self):
        for j, q, r in [(3, 3, 0), (4, 2, 0), (1, 3, 0), (2, 3, -1)]:
            with pytest.raises(ValueError):
                f_poly(j, q, r)

    def test_variable_ranges(self):
        # factors x_{l,t} obey j <= l <= q + (j+r)//2 and 0 <= t <= r
        for w in range(9, 26):
            for j in range(2, w):
                for q in range(j + 1, w):
                    r = w - j - 2 * q - 1
                    if r < 0:
                        continue
                    for l, t in f_poly(j, q, r).variables():
                        assert j <= l <= q + (j + r) // 2
                        assert 0 <= t <= r


class TestGPoly:
    def test_frozen_values(self):
        assert g_poly(2, 5, -1) == T(2, (2, 0)) + T(-3, (3, 0)) + T(1, (5, 0))
        for r in (-1, 0, 3):
            assert g_poly(2, 3, r) == T(2, (2, r + 1)) + T(1, (3, r + 1))
        assert g_poly(3, 4, 0) == T(-2, (3, 1)) + T(-1, (4, 1))

    def test_linear_and_homogeneous(self):
        for j, q, r in [(2, 5, -1), (2, 7, 2), (3, 6, 0), (4, 9, 1)]:
            g = g_poly(j, q, r)
            assert g.is_bihomogeneous(1, r + 1)
            # the l = j terms contribute 2*(-1)^j, so g never collapses
            assert g.coefficient((j, r + 1)) == (2 if j % 2 == 0 else -2)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            g_poly(3, 3, 0)
        with pytest.raises(ValueError):
            g_poly(2, 3, -2)


def test_variable_inventory():
    assert variable_inventory(9) == [(2, s) for s in range(5)] + [(3, s) for s in range(3)] + [(4, 0)]
    for n in range(9, 25):
        inv = variable_inventory(n)
        assert len(inv) == len(set(inv))
        assert all(2 * j + 1 + s <= n for j, s in inv)
        assert inv == sorted(inv)


def test_counts_against_table():
    # dims table for n = 9..18
    expected_eqs = [1, 3, 4, 8, 11, 18, 23, 33, 41, 55]
    for n, want in zip(range(9, 19), expected_eqs):
        assert closed_form_counts(n)[1] == want
        assert len(system_finite(n)) == want


def test_variable_count_formulas():
    for n in range(9, 41):
        num_vars, _ = closed_form_counts(n)
        if n % 2:
            assert num_vars == (n - 3) ** 2 // 4
        else:
            assert num_vars == (n - 2) * (n - 4) // 4
        assert num_vars == sum(partitions_exact(2, r) for r in range(2, n - 2))
        assert num_vars == len(variable_inventory(n))


def test_dims_report_slices():
    for n in range(9, 21):
        report = dims_report(n)  # raises if closed/enumerated counts split
        for s, count in report["h2_by_weight"].items():
            assert count == partitions_exact(2, n - 3 - s)
        for r, count in report["h3_by_weight"].items():
            if r >= 0:
                assert count == partitions_exact(3, n - 6 - r)
            else:
                assert count == (partitions_exact(3, n - 5)
                                 - partitions_exact(3, n - 6))
        assert sum(report["h2_by_weight"].values()) == report["num_vars"]
        assert sum(report["h3_by_weight"].values()) == report["num_eqs"]


def test_dims_report_counts_the_built_labels():
    for n in range(9, 17):
        system = system_finite(n)
        report = dims_report(n)
        assert report["num_eqs"] == len(system)
        assert report["h3_by_weight"] == dict(sorted(
            Counter(eq.label[2] for eq in system).items()))


def test_dims_report_builds_no_polynomial(monkeypatch):
    def refuse(*label):
        raise AssertionError(f"dims_report built f_poly{label}")

    monkeypatch.setattr("filiform.systems.f_poly", refuse)
    monkeypatch.setattr("filiform.systems.g_poly", refuse)
    monkeypatch.setattr("filiform.systems._row", refuse)
    for n in range(9, 41):
        assert sum(dims_report(n)["h3_by_weight"].values()) == closed_form_counts(n)[1]


def test_label_count_identities():
    system = system_truncated(30)
    by_weight = {}
    for eq in system:
        j, q, r = eq.label
        by_weight.setdefault(j + 2 * q + 1 + r, set()).add(eq.label)
    pairs_below = set()
    for w in range(9, 31):
        labels = by_weight.get(w, set())
        assert len(labels) == partitions_exact(3, w - 6)
        new_pairs = {(j, q) for j, q, _ in labels} - pairs_below
        assert len(new_pairs) == (partitions_exact(3, w - 6)
                                  - partitions_exact(3, w - 7))
        pairs_below |= {(j, q) for j, q, _ in labels}


def test_system_finite_smallest():
    system = system_finite(9)
    assert system.labels() == [(2, 3, 0)]
    assert system.system_id == "M_Fil(9)[x=free]"
    assert not system.equations[0].tilde
    assert system.variables == tuple(variable_inventory(9))


def test_system_finite_twelve():
    system = system_finite(12)
    assert set(system.labels()) == {(2, 3, 0), (2, 3, 1), (2, 3, 2), (2, 4, 0),
                                    (2, 3, 3), (2, 4, 1), (3, 4, 0), (2, 5, -1)}
    tilde = {eq.label for eq in system if eq.tilde}
    assert tilde == {(2, 3, 3), (2, 4, 1), (2, 5, -1), (3, 4, 0)}
    assert TOP in system.variables
    # the r = -1 row is the signed marker correction alone
    row = {eq.label: eq.poly for eq in system}[2, 5, -1]
    assert row == T(1, TOP) * (T(-2, (2, 0)) + T(3, (3, 0)) + T(-1, (5, 0)))


def test_top_row_sign_alternates():
    # k - j - q flips parity between the weight-14 tilde rows below
    rows = {eq.label: eq.poly for eq in system_finite(14)}
    for label, sign in [((2, 5, 1), 1), ((3, 5, 0), -1), ((2, 4, 3), -1)]:
        marker_part = rows[label] - f_poly(*label)
        expected = sign * (T(1, TOP) * g_poly(*label))
        assert marker_part == expected


def test_x_modes():
    systems = [system_finite(12, x_mode) for x_mode in ("free", "fixed-0", "fixed-1")]
    assert TOP not in systems[1].variables and TOP not in systems[2].variables
    free, fixed0, fixed1 = ({eq.label: eq.poly for eq in system} for system in systems)
    assert fixed0[2, 5, -1].is_zero
    assert fixed0[3, 4, 0] == f_poly(3, 4, 0)
    assert fixed1[2, 5, -1] == T(-2, (2, 0)) + T(3, (3, 0)) + T(-1, (5, 0))
    assert fixed1[3, 4, 0] == f_poly(3, 4, 0) - g_poly(3, 4, 0)
    # non-marker rows are untouched
    for label in [(2, 3, 0), (2, 3, 2)]:
        assert free[label] == fixed0[label]

    with pytest.raises(ValueError):
        system_finite(12, "pinned")


@pytest.mark.parametrize("n", range(10, 31, 2))
def test_tilde_rows_equal_f_plus_signed_marker_times_g(n):
    # each top row is F_{j,q,r} + (-1)^{k-j-q} x G_{j,q,r}, built as polynomials,
    # with x kept (free), x = 0 (F alone, zero at r = -1) or x = 1 (F plus the signed G)
    k = n // 2
    for x_mode in ("free", "fixed-0", "fixed-1"):
        for eq in system_finite(n, x_mode):
            if not eq.tilde:
                continue
            j, q, r = eq.label
            f = f_poly(j, q, r) if r >= 0 else P()
            g = (-1 if (k - j - q) % 2 else 1) * g_poly(j, q, r)
            composed = {"free": f + T(1, TOP) * g, "fixed-0": f, "fixed-1": f + g}[x_mode]
            assert eq.poly == composed, (x_mode, eq.label)


def test_odd_system_equals_truncation():
    for n in (9, 11, 13, 15):
        fin = system_finite(n)
        tr = system_truncated(n)
        assert fin.labels() == tr.labels()
        assert [eq.poly for eq in fin] == [eq.poly for eq in tr]
        assert fin.variables == tr.variables
        assert not any(eq.tilde for eq in fin)
    assert system_truncated(25).system_id == "truncated(25)"


def test_truncation_is_finite_system_without_marker_rows():
    def order(label):
        j, q, r = label
        return j + 2 * q + 1 + r, j, q

    for n in range(9, 31):
        fin = system_finite(n).labels()
        tr = system_truncated(n).labels()
        assert tr == [label for label in fin if label[2] != -1], n
        assert fin == sorted(fin, key=order) and tr == sorted(tr, key=order), n


def test_size_guards():
    with pytest.raises(ValueError):
        system_finite(8)
    with pytest.raises(ValueError):
        system_truncated(8)
    with pytest.raises(ValueError, match="dimension must be >= 9, got 8"):
        residuals(8, {})


@pytest.mark.parametrize("build, stream", [
    (lambda: system_finite(16, "fixed-1"), lambda: EquationSystem(16, "fixed-1")),
    (lambda: system_finite(17), lambda: EquationSystem(17)),
    (lambda: system_truncated(18), lambda: EquationSystem(18, "fixed-0", truncated=True)),
], ids=["finite-even", "finite-odd", "truncated"])
def test_a_stream_yields_the_built_rows_each_checked_once(monkeypatch, build, stream):
    checks = []
    variables = DeformPolynomial.variables

    def counted(poly):
        checks.append(poly)
        return variables(poly)

    monkeypatch.setattr(DeformPolynomial, "variables", counted)
    system = build()
    # the constructor checks the rows the stream builds; nothing checks them again
    assert len(checks) == len(system)
    head = stream()
    assert (head.kind, head.size, head.x_mode, head.variables, head.system_id, len(head)) == (
        system.kind, system.size, system.x_mode, system.variables, system.system_id, len(system))
    assert head.equations is None and head.rows == system.rows
    assert tuple(head) == system.equations and len(checks) == 2 * len(system)


@pytest.mark.parametrize("args, message", [
    ((8,), "dimension must be >= 9, got 8"),
    ((8, "fixed-0", True), "truncation bound must be >= 9, got 8"),
    ((12, "nope"), "unknown x_mode 'nope'"),
    ((12, "free", True), "a truncated system has no marker"),
])
def test_a_stream_refuses_before_any_row(monkeypatch, args, message):
    monkeypatch.setattr("filiform.systems._row", None)
    with pytest.raises(ValueError, match=message):
        EquationSystem(*args)
    # held equations used to be taken under any kind, size and inventory
    with pytest.raises(ValueError, match=message):
        EquationSystem(*args, equations=())



@pytest.mark.parametrize("x_mode", [["free"], {"free": True}], ids=["list", "object"])
def test_an_x_mode_that_is_not_a_string_is_unknown(x_mode):
    # a list or an object used to raise TypeError (unhashable type)
    with pytest.raises(ValueError, match="unknown x_mode"):
        EquationSystem(12, x_mode)

def test_equation_system_guards():
    eq = Equation((2, 3, 0), f_poly(2, 3, 0), False)
    with pytest.raises(ValueError, match=r"equation \(2, 3, 0\) repeats a row of M_Fil\(9\)"):
        EquationSystem(9, "fixed-0", equations=(eq, eq))
    stray = Equation((2, 3, 0), f_poly(2, 3, 0) + T(1, (9, 0)), False)
    with pytest.raises(ValueError, match=r"equation \(2, 3, 0\) uses undeclared \{\(9, 0\)\}"):
        EquationSystem(9, "fixed-0", equations=(stray,))
    # a held system holds every row of its head
    with pytest.raises(ValueError, match=r"M_Fil\(30\) lacks row \(2, 3, 0\)"):
        EquationSystem(30, "fixed-1", equations=())
    system = system_finite(9)
    with pytest.raises(AttributeError):
        system.size = 10


def test_bihomogeneous_all_labels():
    for w in range(9, 31):
        for j in range(2, w):
            for q in range(j + 1, w):
                r = w - j - 2 * q - 1
                if r >= 0:
                    assert f_poly(j, q, r).is_bihomogeneous(2, r), (j, q, r)


def test_scaling_covariance():
    rng = random.Random(20260825)
    inventory = variable_inventory(30)
    for w in range(9, 31):
        for j in range(2, w):
            for q in range(j + 1, w):
                r = w - j - 2 * q - 1
                if r < 0:
                    continue
                poly = f_poly(j, q, r)
                point = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for v in inventory}
                alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                beta = Fraction(rng.randint(-4, -1), rng.randint(1, 3))
                lhs = poly.scaled_substitution(alpha, beta, point)
                assert lhs == beta ** 2 * alpha ** r * poly.evaluate(point)


# residuals evaluates the rows' linear forms; evaluate_system on the expanded
# rows of system_finite is the reference it must equal entry by entry
_finite = lru_cache(maxsize=None)(system_finite)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=9, max_value=31), st.integers(min_value=0),
       st.integers(min_value=0, max_value=100))
def test_residuals_equal_the_expanded_rows(n, seed, percent):
    # a seeded point draws faster than one strategy per variable; it sets
    # about percent % of the inventory, the marker x included at even n
    rng = random.Random(seed)
    point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for v in declared_variables(n, "free") if rng.randrange(100) < percent}
    assert residuals(n, point) == evaluate_system(_finite(n), point)


@pytest.mark.parametrize("n", [9, 12, 20, 27, 41])
def test_residuals_at_the_known_families(n):
    system = system_finite(n) if n > 31 else _finite(n)
    families = [known_solution("m2", Fraction(-3, 7)),
                known_solution("mk", 5, k=n - 3),
                known_solution("L1", Fraction(2, 3), bound=(n - 1) // 2),
                known_solution("L1-lacuna2", -4, bound=(n - 3) // 2)]
    for point in families:
        got = residuals(n, point)
        assert got == evaluate_system(system, point)
        assert all(value == 0 for _, value in got)
        if n % 2 == 0:
            # with the marker set, the top rows' t = r+1 terms enter
            marked = {**point, TOP: Fraction(5, 2)}
            assert residuals(n, marked) == evaluate_system(system, marked)


@pytest.mark.parametrize("x_mode", sorted(X_MODES))
@pytest.mark.parametrize("n", range(10, 21, 2))
def test_residuals_follow_the_marker_mode_of_the_head(n, x_mode):
    # residuals used to read x from the point at every head: at a fixed-1 or
    # fixed-0 head, a point holding x gave wrong residuals on the top rows
    rng = random.Random(n)
    point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for v in variable_inventory(n)}
    head = EquationSystem(n, x_mode)
    for x in (None, Fraction(5, 2), Fraction(-3, 4)):
        at = point if x is None else {**point, TOP: x}
        assert residuals(head, at) == evaluate_system(_finite(n, x_mode), at), x


def test_residuals_at_the_empty_assignment():
    for n in (9, 10, 17, 24):
        got = residuals(n, {})
        assert got == evaluate_system(_finite(n), {})
        assert len(got) == len(_finite(n)) and all(value == 0 for _, value in got)


@pytest.mark.parametrize("n", range(9, 26))
def test_residuals_read_the_right_forms_where_a_left_form_is_set(n):
    # residuals reads a right form only where its left form is nonzero at the
    # point: points set only at t = 0 (like L1), only at t > 0, only at l >= 4
    # (zero L1 and L2 beside a nonzero x_{q,t} when j + q < 8), and with the
    # marker each leave other left forms zero
    rng = random.Random(n)

    def draw(keep):
        return {(l, t): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
                for l, t in variable_inventory(n) if keep(l, t)}

    points = [draw(lambda l, t: t == 0), draw(lambda l, t: t > 0), draw(lambda l, t: l >= 4)]
    if n % 2 == 0:
        points += [{**draw(lambda l, t: t == 0), TOP: Fraction(5, 2)},
                   {**draw(lambda l, t: True), TOP: Fraction(-3, 4)}]
    for index, point in enumerate(points):
        got = residuals(n, point)
        assert got == evaluate_system(_finite(n), point)
        # not 0 == 0, except that below n = 11 no product is set at t > 0 or l >= 4 alone
        assert any(value for _, value in got) or (index in (1, 2) and n < 11)


@pytest.mark.parametrize("partner", [None, X_MODES["free"], X_MODES["fixed-1"]],
                         ids=["no-marker", "x-free", "x-1"])
def test_rows_are_built_in_term_order(partner):
    # gen writes the terms as _row leaves them, so they must be in the order that
    # _frozen's keyed sort gives.  A row depends on its label and partner alone:
    # these are the rows of every system at n = 9..41, in every x_mode, and of
    # every truncated one at 9..30, each built once, from one table
    rows = dict.fromkeys(
        [(label, X_MODES[x_mode] if tilde else None)
         for n in range(9, 42) for x_mode in X_MODES
         for label, tilde in systems._system_rows(n, n % 2 == 0)]
        + [(label, None) for n in range(9, 31) for label, _ in systems._system_rows(n, False)])
    forms = systems._Forms()
    built = 0
    for (j, q, r), marker in rows:
        if marker == partner:
            row = systems._row(j, q, r, marker, forms)
            assert row.terms == DeformPolynomial._frozen(dict(row.terms)).terms, (j, q, r)
            built += 1
    assert built > (1000 if partner is None else 200)


@pytest.mark.parametrize("call", [
    lambda: f_poly(2, 3, True), lambda: g_poly(2, 3.0, 0),
    lambda: oracle_coefficient(2, 3, True), lambda: EquationSystem(9.5),
    lambda: EquationSystem(12.0, "fixed-0", truncated=True), lambda: EquationSystem(True),
    lambda: system_finite(10.0), lambda: residuals(10.0, {}), lambda: dims_report(10.0),
    lambda: closed_form_counts(11.0), lambda: conclusive_inventory(2, 3, 0.0),
    lambda: conclusive_inventory(2.0, 3, 0), lambda: deformed_structure({(2, 0): 1}, 12.0),
    lambda: oracle_coefficient(2, 3, 1, with_top="no"),
    lambda: conclusive_inventory(2, 3, 1, with_top=1),
    lambda: EquationSystem(12, "fixed-0", truncated="no"),
], ids=["f_poly-bool-r", "g_poly-float-q", "oracle_coefficient-bool-r", "system-float-size",
        "truncated-float-size", "system-bool-size", "system_finite-float", "residuals-float",
        "dims_report-float", "closed_form_counts-float", "inventory-float-r",
        "inventory-float-j", "deformed_structure-float-n", "oracle_coefficient-str-with_top",
        "inventory-int-with_top", "system-str-truncated"])
def test_entry_points_refuse_non_int_labels_and_sizes(call):
    # f_poly(2, 3, True) and oracle_coefficient(2, 3, True) used to return
    # F_{2,3,1}; a float size raised TypeError from deep inside
    with pytest.raises(ValueError, match="must be ints"):
        call()
