"""Canonical document shapes: JSON, plain text, and CAS exports.

Every emitter is deterministic; identical inputs give byte-identical
output, and the JSON system document survives a parse/re-serialize trip
unchanged.  Rationals travel as strings to keep floats out of the files.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import TYPE_CHECKING

from .polynomials import TOP, DeformPolynomial, check_variable, monomial_runs, var_cas, var_key
from .sparse import exact
from .systems import X_MODES, Equation, EquationSystem

if TYPE_CHECKING:  # annotations only: gen never loads cochains or lie
    from .cochains import LieStructure
    from .lie import LieElement


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load_json(path: str, where: str):
    """The JSON document in the file at path; where names the file in each refusal.

    json keeps a repeated key's last value; here a repeat is refused.
    """
    def unique_keys(pairs: list) -> dict:
        if repeated := [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]:
            raise ValueError(f"{where} repeats the key {repeated[0]!r} in one object")
        return dict(pairs)

    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where} is not valid JSON: {exc}") from None


def fraction_str(value) -> str:
    return str(exact(value))


def _variable_json(v):
    return "x" if v == TOP else {"j": v[0], "s": v[1]}


def _json_int(raw, where: str) -> int:
    # int() would truncate 2.5 and accept true; a document index is a JSON integer
    if type(raw) is not int:
        raise ValueError(f"{where} must be JSON integers")
    return raw


def _json_shape(raw, shape: type, where: str):
    # indexing or iterating a value of the wrong shape would raise TypeError
    if type(raw) is not shape:
        raise ValueError(f"{where} must be a JSON {'list' if shape is list else 'object'}")
    return raw


def _json_object(raw, keys, where: str, optional=()) -> list:
    """The values at keys of raw, a JSON object with each of keys and no others but optional.

    A key that nothing reads, a misspelt one among them, would be dropped
    silently, and a missing one would raise KeyError, which names neither
    the rule nor the part.
    """
    for key in _json_shape(raw, dict, where):
        if key not in keys and key not in optional:
            raise ValueError(f"{where} has unknown key {key!r}")
    for key in keys:
        if key not in raw:
            raise ValueError(f"{where} has no {key!r} key")
    return [raw[key] for key in keys]


def _variable_from_json(item):
    if item == "x":
        return TOP
    where = f"bad variable {item!r}: a variable other than \"x\""
    return tuple(_json_int(c, f"bad variable {item!r}: j and s")
                 for c in _json_object(item, ("j", "s"), where))


def _monomials_json(poly: DeformPolynomial) -> list:
    return [{"coeff": str(coeff),
             "vars": [["x", power] if v == TOP else [v[0], v[1], power]
                      for v, power in monomial_runs(mono)]}
            for mono, coeff in poly.terms]


def _monomials_from_json(items, equation: str) -> DeformPolynomial:
    terms = []
    for item in _json_shape(items, list, "monomials"):
        mono = []
        coeff, runs = _json_object(item, ("coeff", "vars"), "a monomial")
        for packed in _json_shape(runs, list, "monomial vars"):
            where = f"bad monomial run {packed!r}: runs"
            # an empty run reads as power 0, which the power rule refuses
            *var, power = _json_shape(packed, list, where) or [0]
            if _json_int(power, where) < 1:
                raise ValueError(f"{where} need a power >= 1")
            v = TOP if var == ["x"] else tuple(_json_int(c, where) for c in var)
            mono.extend([v] * power)
        terms.append((tuple(mono), coeff))
    # the constructor refuses a coefficient that is not an exact integer, and
    # would merge a repeated monomial and drop a zero coefficient
    poly = DeformPolynomial(terms)
    if len(poly.terms) != len(terms):
        raise ValueError(f"{equation} must list each monomial once, with a nonzero coefficient")
    return poly


def _system_head(system: EquationSystem) -> dict:
    """The system document without its equations: what the head alone decides."""
    return {"kind": system.kind,
            "total_max" if system.kind == "truncated" else "n": system.size,
            "x_mode": system.x_mode,
            "variables": [_variable_json(v) for v in system.variables]}


def system_doc(system: EquationSystem) -> dict:
    return {**_system_head(system),
            "equations": [{"label": list(eq.label),
                           "tilde": eq.tilde,
                           "monomials": _monomials_json(eq.poly)}
                          for eq in system]}


def write_system_json(system: EquationSystem, write) -> None:
    """Emit canonical_json(system_doc(system)) through write, row by row.

    The document has a fixed shape, so it is rendered directly rather than
    through json's indented encoder, which runs in pure Python; json only
    quotes the free-form strings.  system_doc and canonical_json stay the
    reference that the identity tests compare this output against.
    """
    # newline plus the two-space indent of each nesting depth
    nl = ["\n" + "  " * depth for depth in range(8)]

    def items(texts, depth):
        # a list whose item texts are already rendered at the given depth
        if not texts:
            return "[]"
        return "[" + nl[depth] + ("," + nl[depth]).join(texts) + nl[depth - 1] + "]"

    runs: dict = {}
    vars_cache: dict = {}

    def monomial_vars(mono):
        # monomials recur across equations, and runs across monomials: render
        # each run once, and each monomial's "vars" list once
        texts = []
        for v, power in monomial_runs(mono):
            text = runs.get((v, power))
            if text is None:
                fields = ['"x"', str(power)] if v == TOP else [str(v[0]), str(v[1]), str(power)]
                text = runs[(v, power)] = items(fields, 7)
            texts.append(text)
        text = vars_cache[mono] = items(texts, 6)
        return text

    # the sorted keys put "equations" first, and the rest of the head after them
    write("{" + nl[1] + '"equations": ')
    opening = "["
    # a monomial is {"coeff": ..., "vars": ...}: its text is head + coeff + mid +
    # vars + tail, and between two monomials tail + "," + head is one separator
    head, mid, tail = "{" + nl[5] + '"coeff": "', '",' + nl[5] + '"vars": ', nl[4] + "}"
    sep = tail + "," + nl[4] + head
    known = vars_cache.get
    for eq in system:
        if eq.poly.terms:
            monomials = ("[" + nl[4] + head
                         + sep.join([f"{coeff}{mid}{known(mono) or monomial_vars(mono)}"
                                     for mono, coeff in eq.poly.terms])
                         + tail + nl[3] + "]")
        else:
            monomials = "[]"
        write(opening + nl[2]
              + "{" + nl[3] + '"label": ' + items([str(c) for c in eq.label], 4)
              + "," + nl[3] + '"monomials": ' + monomials
              + "," + nl[3] + '"tilde": ' + ("true" if eq.tilde else "false")
              + nl[2] + "}")
        opening = ","
    write("[]" if opening == "[" else nl[1] + "]")
    # the rest of canonical_json's output: the head, whose keys sort after "equations"
    write("," + json.dumps(_system_head(system), indent=2, sort_keys=True,
                           ensure_ascii=False)[1:] + "\n")


def parse_system_doc(doc) -> EquationSystem:
    where = "a system document"
    # the kind names the size key, so it is read first, with any other key allowed
    kind, = _json_object(doc, ("kind",), where, optional=doc)
    truncated = kind == "truncated"
    kind, size, x_mode, declared, rows = _json_object(
        doc, ("kind", "total_max" if truncated else "n", "x_mode", "variables", "equations"), where)
    size = _json_int(size, "system sizes")
    variables = tuple(_variable_from_json(v) for v in _json_shape(declared, list, "variables"))
    head = EquationSystem(size, x_mode, truncated)  # the builders' refusals
    if kind != head.kind:
        raise ValueError(f"system kind must be 'truncated' or {head.kind!r}, got {kind!r}")
    if variables != head.variables:
        raise ValueError(f"declared variables are not the inventory of {kind} "
                         f"with x_mode {x_mode!r}")
    equations = []
    for item in _json_shape(rows, list, "equations"):
        raw, tilde, monomials = _json_object(item, ("label", "tilde", "monomials"), "an equation")
        if type(raw) is not list or len(raw) != 3:
            raise ValueError(f"bad equation label {raw!r}: labels need three entries")
        label = tuple(_json_int(c, f"bad equation label {raw!r}: labels") for c in raw)
        if type(tilde) is not bool:
            raise ValueError(f"bad equation {label}: tilde must be a JSON boolean")
        poly = _monomials_from_json(monomials, f"equation {label}")
        # x = 1 leaves G's linear terms in each tilde row and nowhere else; G
        # never vanishes, since its x_{j,r+1} coefficient is +-2
        linear = any(len(mono) == 1 for mono, _ in poly.terms)
        if linear != (tilde and X_MODES[x_mode] == ()):
            raise ValueError(f"equation {label} {'has' if linear else 'lacks'} linear terms, "
                             f"which contradicts x_mode {x_mode!r}")
        equations.append(Equation(label, poly, tilde))
    # the constructor refuses equations that are not the head's rows, in order
    return EquationSystem(size, x_mode, truncated, equations)


def write_system_text(system: EquationSystem, write) -> None:
    write(f"# {system.system_id}: {len(system)} equations, {len(system.variables)} variables\n")
    for eq in system:
        j, q, r = eq.label
        write(f"{'F~' if eq.tilde else 'F'}_{{{j},{q},{r}}} = {eq.poly.text()}\n")


def write_system_cas(system: EquationSystem, write) -> None:
    write(f"# ring QQ[{', '.join(var_cas(v) for v in sorted(system.variables, key=var_key))}]\n")
    for eq in system:
        write(eq.poly.cas() + "\n")


def _element_json(elem: LieElement) -> list:
    out = []
    for index, coeff in elem.terms:
        out.append({"index": index,
                    "numerator": coeff.numerator,
                    "denominator": coeff.denominator})
    return out


def fixture_doc(structure: LieStructure) -> dict:
    return {
        "name": structure.label,
        "dimension": structure.dim,
        "relations": [{"i": i, "j": j, "value": _element_json(value)}
                      for (i, j), value in structure.nonzero()],
    }


def assignment_doc(assignment) -> dict:
    entries = []
    top = None
    for v in sorted(assignment, key=var_key):
        if v == TOP:
            top = fraction_str(assignment[v])
        else:
            entries.append({"j": v[0], "s": v[1], "value": fraction_str(assignment[v])})
    doc = {"entries": entries}
    if top is not None:
        doc["x"] = top
    return doc


def parse_assignment(doc) -> dict:
    """Assignment file body -> variable map with exact rational values."""
    entries, = _json_object(doc, ("entries",), "an assignment file", optional=("x",))
    out = {}
    for item in _json_shape(entries, list, "an assignment file's 'entries' list"):
        where = f"bad assignment entry {item!r}"
        *indices, raw = _json_object(item, ("j", "s", "value"), where)
        j, s = (_json_int(c, f"{where}: j and s") for c in indices)
        try:
            value = exact(raw)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        check_variable((j, s))
        if (j, s) in out:
            raise ValueError(f"duplicate entry for ({j},{s})")
        out[(j, s)] = value
    if "x" in doc:
        try:
            out[TOP] = exact(doc["x"])
        except ValueError as exc:
            raise ValueError(f"bad marker value {doc['x']!r}: {exc}") from None
    return out


def report_doc(system_id: str, assignment, residuals, jacobi) -> dict:
    verified = all(v == 0 for _, v in residuals) and not jacobi
    return {
        "system-id": system_id,
        "assignment": assignment_doc(assignment),
        "residuals": [{"label": list(label), "value": fraction_str(value)}
                      for label, value in residuals],
        "jacobi": [{"triple": list(triple), "defect": _element_json(defect)}
                   for triple, defect in jacobi],
        "verdict": "verified" if verified else "failed",
    }
