import json
from fractions import Fraction

import pytest

from filiform.lie import make_fixture
from filiform.oracle import deformed_structure, evaluate_system, jacobi_scan
from filiform.polynomials import TOP
from filiform.serialize import (_variable_json, assignment_doc, canonical_json,
                                fixture_doc, fraction_str, parse_assignment,
                                parse_system_doc, report_doc, system_doc,
                                write_system_cas, write_system_json, write_system_text)
from filiform.systems import (X_MODES, EquationSystem, declared_variables, system_finite,
                              system_truncated)


def test_fraction_str():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-1, 70)) == "-1/70"
    assert fraction_str(0) == "0"


def test_canonical_json_is_deterministic():
    doc = {"b": [1, 2], "a": {"y": "2/3", "x": None}}
    out = canonical_json(doc)
    assert out == canonical_json({"a": {"x": None, "y": "2/3"}, "b": [1, 2]})
    assert out.endswith("\n")
    assert json.loads(out) == doc


@pytest.mark.parametrize("system", [system_finite(12, "free"),
                                    system_finite(13),
                                    system_finite(12, "fixed-1"),
                                    system_truncated(15)])
def test_system_doc_roundtrip(system):
    doc = system_doc(system)
    back = parse_system_doc(json.loads(canonical_json(doc)))
    assert back.kind == system.kind
    assert back.size == system.size
    assert back.x_mode == system.x_mode
    assert back.variables == system.variables
    assert back.equations == system.equations
    # byte-level fixed point
    assert canonical_json(system_doc(back)) == canonical_json(doc)


def _streamed(system, writer=write_system_json) -> str:
    chunks = []
    writer(system, chunks.append)
    return "".join(chunks)


@pytest.mark.parametrize("n", range(9, 25))
def test_streamed_system_json_is_canonical(n):
    for x_mode in X_MODES:
        system = system_finite(n, x_mode)
        assert _streamed(system) == canonical_json(system_doc(system)), x_mode


@pytest.mark.parametrize("total_max", range(9, 21))
def test_streamed_truncated_json_is_canonical(total_max):
    system = system_truncated(total_max)
    assert _streamed(system) == canonical_json(system_doc(system))


def test_system_doc_shape():
    doc = system_doc(system_finite(12, "free"))
    assert doc["kind"] == "M_Fil(12)"
    assert doc["n"] == 12 and "total_max" not in doc
    assert "x" in doc["variables"]
    first = doc["equations"][0]
    assert first["label"] == [2, 3, 0]
    assert first["tilde"] is False
    # coefficients travel as strings, variables as [j, s, power]
    assert first["monomials"][0] == {"coeff": "-2", "vars": [[2, 0, 1], [4, 0, 1]]}
    tr = system_doc(system_truncated(10))
    assert tr["total_max"] == 10 and "n" not in tr


def test_system_text():
    text = _streamed(system_finite(9), write_system_text)
    lines = text.splitlines()
    assert lines[0] == "# M_Fil(9)[x=free]: 1 equations, 9 variables"
    assert lines[1] == "F_{2,3,0} = -2*x_{2,0}*x_{4,0} + 3*x_{3,0}^2 - x_{3,0}*x_{4,0}"
    # tilde rows are flagged in the name
    text12 = _streamed(system_finite(12), write_system_text)
    assert "F~_{2,5,-1} = " in text12


def test_system_cas():
    out = _streamed(system_finite(9), write_system_cas)
    lines = out.splitlines()
    assert lines[0].startswith("# ring QQ[x_2_0, x_2_1")
    assert lines[1] == "-2*x_2_0*x_4_0 + 3*x_3_0^2 - x_3_0*x_4_0"
    assert len(lines) == 2


def test_fixture_doc():
    doc = fixture_doc(make_fixture("m2", 6))
    assert doc["name"] == "m2(6)"
    assert doc["dimension"] == 6
    assert {"i": 2, "j": 3, "value": [{"index": 5, "numerator": 1,
                                       "denominator": 1}]} in doc["relations"]
    keys = [(rel["i"], rel["j"]) for rel in doc["relations"]]
    assert keys == sorted(keys)


def test_assignment_roundtrip():
    assignment = {(2, 0): Fraction(1), (3, 0): Fraction(-1, 10), TOP: Fraction(2, 3)}
    doc = assignment_doc(assignment)
    assert doc == {"entries": [{"j": 2, "s": 0, "value": "1"},
                               {"j": 3, "s": 0, "value": "-1/10"}],
                   "x": "2/3"}
    assert parse_assignment(json.loads(canonical_json(doc))) == assignment


def test_parse_assignment_errors():
    with pytest.raises(ValueError):
        parse_assignment([1, 2])
    with pytest.raises(ValueError):
        parse_assignment({"entries": [{"j": 1, "s": 0, "value": "1"}]})
    with pytest.raises(ValueError):
        parse_assignment({"entries": [{"j": 2, "value": "1"}]})
    with pytest.raises(ValueError):
        parse_assignment({"entries": [{"j": 2, "s": 0, "value": "1/0"}]})
    with pytest.raises(ValueError):
        parse_assignment({"entries": [{"j": 2, "s": 0, "value": "ten"}]})
    with pytest.raises(ValueError):
        parse_assignment({"entries": [], "x": "?"})


def test_parse_assignment_rejects_duplicate_entries():
    entries = [{"j": 2, "s": 0, "value": "1"}, {"j": 2, "s": 0, "value": "2"}]
    with pytest.raises(ValueError, match="duplicate"):
        parse_assignment({"entries": entries})


def test_parse_assignment_rejects_floats():
    with pytest.raises(ValueError, match="float"):
        parse_assignment({"entries": [{"j": 2, "s": 0, "value": 0.5}]})
    with pytest.raises(ValueError, match="float"):
        parse_assignment({"entries": [], "x": 0.5})
    # exact JSON integers stay accepted
    assert parse_assignment({"entries": [{"j": 2, "s": 0, "value": 3}]}) == {(2, 0): 3}


@pytest.mark.parametrize("j, s", [(2.5, 0), (2, 0.0), (2, True), (True, 0), ("2", 0), (None, 0)])
def test_parse_assignment_rejects_non_integer_indices(j, s):
    # int() used to read 2.5 as 2 and true as 1
    with pytest.raises(ValueError, match="JSON integers"):
        parse_assignment({"entries": [{"j": j, "s": s, "value": "1"}]})


def _doc_12():
    return json.loads(canonical_json(system_doc(system_finite(12, "free"))))


@pytest.mark.parametrize("edit", [
    lambda d: d.update(n=12.0),
    lambda d: d.update(n=True),
    lambda d: d["equations"][0].update(label=[2, 3, 0.9]),
    lambda d: d["equations"][0].update(label=[2, True, 0]),
    lambda d: d["variables"].__setitem__(0, {"j": 2.5, "s": 0}),
    lambda d: d["variables"].__setitem__(1, {"j": 2, "s": True}),
    lambda d: d["equations"][0]["monomials"][0].update(vars=[[3.7, 0, 2]]),
    lambda d: d["equations"][0]["monomials"][0].update(vars=[[3, 0, 2.0]]),
    lambda d: d["equations"][-1]["monomials"][-1].update(vars=[["x", True]]),
], ids=["float-size", "bool-size", "float-label", "bool-label", "float-j", "bool-s",
        "float-run-j", "float-run-power", "bool-marker-power"])
def test_parse_system_doc_rejects_non_integer_indices(edit):
    # int() used to read 9.7 as 9, [2, 3, 0.9] as (2, 3, 0) and true as 1
    doc = _doc_12()
    edit(doc)
    with pytest.raises(ValueError, match="JSON integers"):
        parse_system_doc(doc)


@pytest.mark.parametrize("label", [[2, 3], [2, 3, 0, 7], []])
def test_parse_system_doc_needs_three_entry_labels(label):
    doc = _doc_12()
    doc["equations"][0]["label"] = label
    with pytest.raises(ValueError, match="three entries"):
        parse_system_doc(doc)


@pytest.mark.parametrize("kind", ["foo", "M_Fil(13)", "Truncated", None])
def test_parse_system_doc_needs_a_known_kind(kind):
    # any other kind used to parse and report itself as M_Fil(12)[x=free]
    doc = _doc_12()
    doc["kind"] = kind
    with pytest.raises(ValueError, match="system kind"):
        parse_system_doc(doc)


@pytest.mark.parametrize("run", [[3, 0, 0], [3, 0, -1], ["x", 0], [3, 0]])
def test_parse_system_doc_rejects_empty_runs(run):
    # a power of 0 or less used to drop the variable from its monomial
    doc = _doc_12()
    doc["equations"][0]["monomials"][0]["vars"] = [run, [2, 0, 1]]
    with pytest.raises(ValueError, match="power >= 1"):
        parse_system_doc(doc)


def test_parse_system_doc_reads_coefficients_exactly():
    doc = _doc_12()
    doc["equations"][0]["monomials"][0]["coeff"] = 2.7
    with pytest.raises(ValueError, match="float"):
        parse_system_doc(doc)
    doc["equations"][0]["monomials"][0]["coeff"] = "2.7"
    with pytest.raises(ValueError, match="not an integer"):
        parse_system_doc(doc)
    # a JSON integer or an integral rational string is the same coefficient
    doc["equations"][0]["monomials"][0]["coeff"] = 3
    first = parse_system_doc(doc).equations[0].poly
    doc["equations"][0]["monomials"][0]["coeff"] = "6/2"
    assert parse_system_doc(doc).equations[0].poly == first


@pytest.mark.parametrize("tilde", ["false", 0, 1, None])
def test_parse_system_doc_needs_boolean_tilde(tilde):
    doc = _doc_12()
    doc["equations"][0]["tilde"] = tilde
    with pytest.raises(ValueError, match="JSON boolean"):
        parse_system_doc(doc)


@pytest.mark.parametrize("key, part", [
    ("kind", lambda d: d),
    ("n", lambda d: d),
    ("variables", lambda d: d),
    ("x_mode", lambda d: d),
    ("equations", lambda d: d),
    ("label", lambda d: d["equations"][0]),
    ("tilde", lambda d: d["equations"][0]),
    ("monomials", lambda d: d["equations"][0]),
    ("coeff", lambda d: d["equations"][0]["monomials"][0]),
    ("vars", lambda d: d["equations"][0]["monomials"][0]),
], ids=["kind", "n", "variables", "x_mode", "equations", "label", "tilde", "monomials",
        "coeff", "vars"])
def test_parse_system_doc_names_a_missing_key(key, part):
    # a missing key used to escape as a bare KeyError
    doc = _doc_12()
    del part(doc)[key]
    with pytest.raises(ValueError, match=f"has no '{key}' key"):
        parse_system_doc(doc)



def test_parse_system_doc_names_the_missing_kind_of_a_truncated_document():
    # the kind names the size key: without it, total_max is not an unknown key
    doc = _doc(system_truncated(12))
    del doc["kind"]
    with pytest.raises(ValueError, match="has no 'kind' key"):
        parse_system_doc(doc)

def _doc(system):
    return json.loads(canonical_json(system_doc(system)))


@pytest.mark.parametrize("system, x_mode", [
    (system_finite(12, "free"), "fixed-0"),
    (system_finite(12, "free"), "fixed-1"),
    (system_finite(12, "fixed-0"), "free"),
    (system_finite(12, "fixed-1"), "free"),
    (system_truncated(15), "free"),
    (system_truncated(15), "fixed-1"),
    (system_finite(12, "fixed-1"), "fixed-0"),
    (system_finite(12, "fixed-0"), "fixed-1"),
], ids=["free-as-fixed-0", "free-as-fixed-1", "fixed-0-as-free", "fixed-1-as-free",
        "truncated-as-free", "truncated-as-fixed-1", "fixed-1-as-fixed-0",
        "fixed-0-as-fixed-1"])
def test_parse_system_doc_refuses_a_contradicting_x_mode(system, x_mode):
    # a free n = 12 document relabelled fixed-0 used to parse with its marker;
    # fixed-0 and fixed-1 declare the same variables, and differ in the linear
    # terms that x = 1 leaves in the tilde rows
    doc = _doc(system)
    doc["x_mode"] = x_mode
    with pytest.raises(ValueError, match="x_mode"):
        parse_system_doc(doc)


@pytest.mark.parametrize("system, edit", [
    (system_finite(12), lambda d: d["variables"].pop(0)),
    (system_finite(12), lambda d: d["variables"].append({"j": 9, "s": 0})),
    (system_finite(12), lambda d: d["variables"].reverse()),
    (system_finite(12), lambda d: d["variables"].pop()),
    (system_finite(12), lambda d: d.update(n=14, kind="M_Fil(14)")),
    (system_finite(13), lambda d: d["variables"].append("x")),
], ids=["missing", "stray", "order", "no-marker", "other-size", "odd-marker"])
def test_parse_system_doc_needs_the_inventory(system, edit):
    doc = _doc(system)
    edit(doc)
    with pytest.raises(ValueError, match="declared variables"):
        parse_system_doc(doc)


def _top_row(doc):
    return next(eq for eq in doc["equations"] if eq["tilde"])


@pytest.mark.parametrize("system, edit", [
    (system_finite(12), lambda d: d["equations"][0].update(label=[2, 3, 5])),
    (system_finite(12), lambda d: d["equations"][0].update(label=[3, 3, 2])),
    (system_finite(12), lambda d: d["equations"][0].update(tilde=True)),
    (system_finite(12, "fixed-0"), lambda d: d["equations"][0].update(tilde=True)),
    (system_finite(12), lambda d: _top_row(d).update(tilde=False)),
    (system_truncated(15), lambda d: d["equations"][0].update(label=[2, 3, -1])),
    (system_finite(13), lambda d: d["equations"][0].update(label=[2, 3, -1])),
], ids=["total-above-n", "j-not-below-q", "tilde-on-a-lower-row", "tilde-in-fixed-0",
        "top-row-without-tilde", "marker-label-in-truncated", "marker-label-at-odd-n"])
def test_parse_system_doc_refuses_a_row_the_document_cannot_hold(system, edit):
    # each used to parse: only the linear-term rule of fixed-1 documents looked at tilde
    doc = _doc(system)
    edit(doc)
    with pytest.raises(ValueError, match="has no row"):
        parse_system_doc(doc)


def _swap_first_two(doc):
    rows = doc["equations"]
    rows[0], rows[1] = rows[1], rows[0]


_LACKS_FIRST = r"M_Fil\(12\) lacks row \(2, 3, 0\) before equation \(2, 3, 1\)"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["equations"].pop(0), _LACKS_FIRST),
    (lambda d: d["equations"].pop(), r"M_Fil\(12\) lacks row \(3, 4, 0\)$"),
    (_swap_first_two, _LACKS_FIRST),
    (lambda d: d["equations"].insert(1, d["equations"][0]),
     r"equation \(2, 3, 0\) repeats a row of M_Fil\(12\)"),
], ids=["first-dropped", "last-dropped", "swapped", "repeated"])
def test_parse_system_doc_needs_every_row_in_order(edit, message):
    # each used to parse as M_Fil(12)[x=free]; without its first row, the
    # system read as solved at x_{2,0} = x_{3,0} = 1, where F_{2,3,0} is 3
    doc = _doc_12()
    edit(doc)
    with pytest.raises(ValueError, match=message):
        parse_system_doc(doc)


@pytest.mark.parametrize("size", range(9, 21))
def test_parse_system_doc_round_trips_every_head(size):
    heads = [(size, x_mode, False) for x_mode in X_MODES] + [(size, "fixed-0", True)]
    for head in heads:
        system = EquationSystem(*head).held()
        back = parse_system_doc(system_doc(system))
        for field in EquationSystem.__slots__:
            assert getattr(back, field) == getattr(system, field), (head, field)


@pytest.mark.parametrize("coeff", ["1/0", "-2/0"])
def test_parse_system_doc_refuses_a_zero_denominator(coeff):
    # Fraction's ZeroDivisionError used to escape as a non-ValueError
    doc = _doc(system_finite(12))
    doc["equations"][0]["monomials"][0]["coeff"] = coeff
    with pytest.raises(ValueError, match="zero denominator"):
        parse_system_doc(doc)


@pytest.mark.parametrize("label", [5, None, "230", {"j": 2}])
def test_parse_system_doc_refuses_a_label_that_is_not_a_list(label):
    # a number used to raise TypeError ("'int' object is not iterable")
    doc = _doc_12()
    doc["equations"][0]["label"] = label
    with pytest.raises(ValueError, match="three entries"):
        parse_system_doc(doc)


@pytest.mark.parametrize("variable", [[2, 0], 5, None, {"j": 2}, {"j": 2, "s": 0, "t": 1}])
def test_parse_system_doc_refuses_a_variable_of_another_shape(variable):
    # a list used to raise TypeError ("list indices must be integers")
    doc = _doc_12()
    doc["variables"][0] = variable
    with pytest.raises(ValueError, match="bad variable"):
        parse_system_doc(doc)


@pytest.mark.parametrize("truncated, size, message", [
    (False, 8, "dimension must be >= 9, got 8"),
    (False, 3, "dimension must be >= 9, got 3"),
    (True, 8, "truncation bound must be >= 9, got 8"),
    (True, 5, "truncation bound must be >= 9, got 5"),
], ids=["finite-8", "finite-3", "truncated-8", "truncated-5"])
def test_parse_system_doc_refuses_a_size_the_builders_refuse(truncated, size, message):
    # each used to parse as a system of 0 equations
    x_mode = "fixed-0" if truncated else "free"
    doc = {"kind": "truncated" if truncated else f"M_Fil({size})",
           "total_max" if truncated else "n": size,
           "x_mode": x_mode,
           "variables": [_variable_json(v) for v in declared_variables(size, x_mode)],
           "equations": []}
    with pytest.raises(ValueError, match=message):
        parse_system_doc(doc)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(variables=5),
    lambda d: d.update(variables={"j": 2, "s": 0}),
    lambda d: d.update(equations=[5]),
    lambda d: d.update(equations={"label": [2, 3, 0]}),
    lambda d: d["equations"][0].update(monomials=5),
    lambda d: d["equations"][0].update(monomials=["2"]),
    lambda d: d["equations"][0]["monomials"][0].update(vars=5),
    lambda d: d["equations"][0]["monomials"][0].update(vars=[5]),
], ids=["variables", "variables-object", "equation", "equations-object", "monomials",
        "monomial", "vars", "run"])
def test_parse_system_doc_refuses_other_json_shapes(edit):
    # each used to raise TypeError
    doc = _doc_12()
    edit(doc)
    with pytest.raises(ValueError, match="must be a JSON"):
        parse_system_doc(doc)


def test_parse_system_doc_needs_an_object():
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_system_doc([_doc_12()])


@pytest.mark.parametrize("entries", [5, None, "ab", {"j": 2, "s": 0, "value": "1"}])
def test_parse_assignment_needs_an_entries_list(entries):
    with pytest.raises(ValueError, match="'entries' list"):
        parse_assignment({"entries": entries})


@pytest.mark.parametrize("doc, key", [
    ({"entries": [], "X": "1"}, "X"),
    ({"entries": [{"j": 2, "s": 0, "value": "1"}], "x": "1", "y": "2"}, "y"),
    ({"entries": [{"j": 2, "s": 0, "vlaue": "1"}]}, "vlaue"),
    ({"entries": [{"j": 2, "s": 0, "value": "1", "t": 0}]}, "t"),
], ids=["marker-misspelt", "document", "value-misspelt", "entry"])
def test_parse_assignment_refuses_unknown_keys(doc, key):
    # each key used to be dropped: a misspelt marker read the point without x
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        parse_assignment(doc)


@pytest.mark.parametrize("system, edit, key", [
    (system_finite(12, "free"), lambda d: d.update(comment="hand-made"), "comment"),
    (system_finite(12, "free"), lambda d: d.update(total_max=12), "total_max"),
    (system_truncated(12), lambda d: d.update(n=12), "n"),
    (system_finite(12, "free"), lambda d: d["equations"][0].update(weight=9), "weight"),
    (system_finite(12, "free"), lambda d: d["equations"][3]["monomials"][1].update(coef="2"),
     "coef"),
], ids=["document", "finite-total_max", "truncated-n", "equation", "monomial"])
def test_parse_system_doc_refuses_unknown_keys(system, edit, key):
    # each key used to be ignored
    doc = _doc(system)
    edit(doc)
    with pytest.raises(ValueError, match=f"unknown key '{key}'"):
        parse_system_doc(doc)



@pytest.mark.parametrize("x_mode", [["free"], {"free": True}], ids=["list", "object"])
def test_parse_system_doc_refuses_an_x_mode_that_is_not_a_string(x_mode):
    # each used to raise TypeError (unhashable type)
    doc = _doc_12()
    doc["x_mode"] = x_mode
    with pytest.raises(ValueError, match="unknown x_mode"):
        parse_system_doc(doc)


def _first_monomials(doc):
    return doc["equations"][0]["monomials"]


@pytest.mark.parametrize("edit", [
    lambda ms: ms.insert(1, dict(ms[0])),
    lambda ms: ms.append({"coeff": "5", "vars": ms[0]["vars"]}),
    lambda ms: ms.append({"coeff": "1", "vars": ms[0]["vars"][::-1]}),
    lambda ms: ms[0].update(coeff="0"),
    lambda ms: ms.append({"coeff": 0, "vars": [[2, 0, 2]]}),
], ids=["doubled", "repeated", "runs-reordered", "zero", "new-zero"])
def test_parse_system_doc_refuses_a_repeated_or_zero_monomial(edit):
    # the repeats used to be summed, so the doubled -2*x_{2,0}*x_{4,0} of
    # F_{2,3,0} read back as -4, and a zero coefficient was dropped
    doc = _doc(system_finite(9))
    edit(_first_monomials(doc))
    with pytest.raises(ValueError, match=r"equation \(2, 3, 0\) must list each monomial once"):
        parse_system_doc(doc)


def test_parse_system_doc_names_an_empty_run():
    # [] used to raise Python's "not enough values to unpack"
    doc = _doc_12()
    _first_monomials(doc)[0]["vars"] = [[], [2, 0, 1]]
    with pytest.raises(ValueError, match=r"bad monomial run \[\]"):
        parse_system_doc(doc)

def test_report_verdicts():
    system = system_finite(9)
    good = {(2, 0): Fraction(1)}
    doc = report_doc(system.system_id, good,
                     evaluate_system(system, good),
                     jacobi_scan(deformed_structure(good, 9)))
    assert doc["verdict"] == "verified"
    assert doc["system-id"] == "M_Fil(9)[x=free]"
    assert doc["residuals"] == [{"label": [2, 3, 0], "value": "0"}]
    assert doc["jacobi"] == []

    bad = {(3, 0): Fraction(1)}
    doc = report_doc(system.system_id, bad,
                     evaluate_system(system, bad),
                     jacobi_scan(deformed_structure(bad, 9)))
    assert doc["verdict"] == "failed"
    assert doc["residuals"] == [{"label": [2, 3, 0], "value": "3"}]
    assert doc["jacobi"] == [{"triple": [2, 3, 4],
                              "defect": [{"index": 9, "numerator": 3,
                                          "denominator": 1}]}]
