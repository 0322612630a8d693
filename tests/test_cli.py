import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from filiform import serialize, systems
from filiform.cli import KNOWN_FAMILIES, main
from filiform.oracle import known_solution
from filiform.polynomials import DeformPolynomial, var_cas, var_key
from filiform.serialize import canonical_json, parse_system_doc, system_doc
from filiform.systems import system_finite, system_truncated


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_text(capsys):
    code, out, err = run(capsys, "gen", "--dim", "9")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "# M_Fil(9)[x=free]: 1 equations, 9 variables"


def test_gen_is_deterministic(capsys):
    _, first, _ = run(capsys, "gen", "--dim", "12", "--format", "json")
    _, second, _ = run(capsys, "gen", "--dim", "12", "--format", "json")
    assert first == second


def test_gen_json_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "--dim", "12", "--format", "json")
    assert code == 0
    system = parse_system_doc(json.loads(out))
    reference = system_finite(12, "free")
    assert system.system_id == reference.system_id
    assert system.variables == reference.variables
    assert system.equations == reference.equations


def test_gen_x_modes(capsys):
    code, out, _ = run(capsys, "gen", "--dim", "12", "--x", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("# M_Fil(12)[x=fixed-1]:")
    code, out, _ = run(capsys, "gen", "--dim", "12", "--x", "0")
    assert code == 0
    assert out.splitlines()[0].startswith("# M_Fil(12)[x=fixed-0]:")


def test_gen_unset_x_is_free(capsys):
    _, unset, _ = run(capsys, "gen", "--dim", "12", "--format", "json")
    _, free, _ = run(capsys, "gen", "--dim", "12", "--format", "json", "--x", "free")
    assert unset == free


@pytest.mark.parametrize("mode", ["free", "0", "1"])
def test_gen_truncated_refuses_x(capsys, tmp_path, mode):
    # --x used to be ignored for a truncated system
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "gen", "--truncate", "10", "--x", mode,
                         "--output", str(target))
    assert code == 2 and out == "" and "--x" in err
    assert not target.exists()


def test_gen_truncated(capsys):
    code, out, _ = run(capsys, "gen", "--truncate", "10", "--format", "cas")
    assert code == 0
    assert out.splitlines()[0].startswith("# ring QQ[")


def test_gen_bad_dim(capsys):
    code, out, err = run(capsys, "gen", "--dim", "8")
    assert code == 2 and out == "" and "error:" in err


def test_gen_output_file(capsys, tmp_path):
    target = tmp_path / "system.txt"
    code, out, _ = run(capsys, "gen", "--dim", "9", "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("# M_Fil(9)")


def test_gen_json_output_file(capsys, tmp_path):
    target = tmp_path / "system.json"
    code, out, _ = run(capsys, "gen", "--dim", "12", "--x", "1", "--format", "json",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == canonical_json(system_doc(system_finite(12, "fixed-1")))


def test_gen_bad_dim_creates_no_file(capsys, tmp_path):
    target = tmp_path / "system.json"
    code, _, err = run(capsys, "gen", "--dim", "8", "--format", "json",
                       "--output", str(target))
    assert code == 2 and "error:" in err
    assert not target.exists()


def test_gen_output_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--dim", "9",
                       "--output", str(tmp_path / "missing" / "out.txt"))
    assert code == 3 and "i/o error:" in err


# whole-string renderings of a built system: the reference that gen's streamed
# text and CAS output must equal byte for byte
def _text_reference(system) -> str:
    lines = [f"# {system.system_id}: {len(system.equations)} equations, "
             f"{len(system.variables)} variables"]
    for eq in system.equations:
        j, q, r = eq.label
        lines.append(f"{'F~' if eq.tilde else 'F'}_{{{j},{q},{r}}} = {eq.poly.text()}")
    return "\n".join(lines) + "\n"


def _cas_reference(system) -> str:
    names = ", ".join(var_cas(v) for v in sorted(system.variables, key=var_key))
    lines = [f"# ring QQ[{names}]"]
    lines.extend(eq.poly.cas() for eq in system.equations)
    return "\n".join(lines) + "\n"


REFERENCES = {"text": _text_reference, "cas": _cas_reference,
              "json": lambda system: canonical_json(system_doc(system))}
# the --x values that select each x_mode; unset reads as free
X_FLAGS = {"free": [None, "free"], "fixed-0": ["0"], "fixed-1": ["1"]}


@pytest.mark.parametrize("n", range(9, 25))
def test_gen_streams_the_reference_bytes(capsys, n):
    for x_mode, flags in X_FLAGS.items():
        system = system_finite(n, x_mode)
        for fmt, reference in REFERENCES.items():
            want = (0, reference(system), "")
            for flag in flags:
                argv = ["gen", "--dim", str(n), "--format", fmt] + (["--x", flag] if flag else [])
                assert run(capsys, *argv) == want, (flag, fmt)


@pytest.mark.parametrize("total_max", range(9, 21))
def test_gen_streams_the_truncated_reference_bytes(capsys, total_max):
    system = system_truncated(total_max)
    for fmt, reference in REFERENCES.items():
        argv = ("gen", "--truncate", str(total_max), "--format", fmt)
        assert run(capsys, *argv) == (0, reference(system), ""), fmt


# sha256 of gen's output, byte-identical for fixed arguments.  The reference
# tests above read the same terms as the writer, so only a digest sees a
# change in the order of the terms.
GEN_DIGESTS = {
    "--dim 24 --format text": "0fc17ae6ecc08ac8c9344a05df85facdb0c7813b1d65cad719e43a21757f5256",
    "--dim 24 --format cas": "42fbd3de204fc159f8213e51943f42b144283de2ea848c5bbaae59a04666b4d5",
    "--dim 24 --x 1 --format json":
        "bd84e7aeef51d0e046cb0fc0d59e00e94626a7c9e9fccad2a59e8190a481f389",
    "--dim 24 --x 0 --format json":
        "d04fe7e4b2c1f6310e5390547e6e8bd7510380f99380cba35d8782dcf56e4849",
    "--truncate 24 --format json":
        "1477ba6a79abe3ae82b01bce833220e4bd11407eb33851bbde17a2cff773f7ec",
}


@pytest.mark.parametrize("args", sorted(GEN_DIGESTS))
def test_gen_output_digest(capsys, args):
    code, out, err = run(capsys, "gen", *args.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GEN_DIGESTS[args]


GEN_CASES = [("--dim", "12", "--x", "1"), ("--dim", "13"), ("--truncate", "14")]


def test_gen_builds_no_system(capsys, monkeypatch):
    expected = {(size, fmt): run(capsys, "gen", *size, "--format", fmt)
                for size in GEN_CASES for fmt in REFERENCES}

    def refuse(*args, **kwargs):
        raise AssertionError("gen built a whole system")

    # gen writes each row as it comes: no built system, no whole-string rendering
    for name in ("system_finite", "system_truncated"):
        monkeypatch.setattr(systems, name, refuse)
    monkeypatch.setattr(systems.EquationSystem, "held", refuse)
    for name in ("system_doc", "canonical_json"):
        monkeypatch.setattr(serialize, name, refuse)
    for (size, fmt), want in expected.items():
        assert want[0] == 0 and run(capsys, "gen", *size, "--format", fmt) == want


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
def test_gen_writes_each_row_as_it_is_built(monkeypatch, fmt):
    rows = len(system_finite(16))
    built, seen = [], []
    row = systems._row

    def counted(*args):
        built.append(args[:3])
        return row(*args)

    class Sink:
        def write(self, text):
            seen.append(len(built))  # rows built so far, at each write

    monkeypatch.setattr(systems, "_row", counted)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["gen", "--dim", "16", "--format", fmt]) == 0
    assert len(built) == rows and seen[-1] == rows
    assert seen[0] <= 1
    assert all(count <= writes + 1 for writes, count in enumerate(seen))


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
@pytest.mark.parametrize("size", [("--dim", "8"), ("--truncate", "8")], ids=["dim", "truncate"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_gen_refuses_a_size_below_9_before_writing(capsys, tmp_path, fmt, size, to_file):
    target = tmp_path / "out"
    argv = ["gen", *size, "--format", fmt] + (["--output", str(target)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "must be >= 9, got 8" in err
    assert not target.exists()


@pytest.mark.parametrize("fmt", sorted(REFERENCES))
def test_gen_refuses_a_row_with_an_undeclared_variable(capsys, monkeypatch, tmp_path, fmt):
    # only a bug in the row builder can do this; the rows before it stay written
    reference = REFERENCES[fmt](system_finite(12))
    row = systems._row

    def stray(j, q, r, marker, *forms):
        if (j, q, r) == (2, 4, 0):
            return DeformPolynomial([(((2, 0), (40, 0)), 1)])
        return row(j, q, r, marker, *forms)

    monkeypatch.setattr(systems, "_row", stray)
    code, out, err = run(capsys, "gen", "--dim", "12", "--format", fmt)
    assert code == 2 and "equation (2, 4, 0) uses undeclared {(40, 0)}" in err
    assert out and reference.startswith(out)
    target = tmp_path / "out"
    code, out, err = run(capsys, "gen", "--dim", "12", "--format", fmt, "--output", str(target))
    assert code == 2 and out == "" and "(2, 4, 0)" in err
    assert target.read_text() and reference.startswith(target.read_text())


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--dim", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension: 12"
    assert lines[1] == "num_vars: 20 (closed form 20, enumerated 20)"
    assert lines[2] == "num_eqs: 8 (closed form 8, enumerated 8)"
    assert lines[3].startswith("h2 by weight: ")
    assert lines[4].startswith("h3 by weight: ")


def test_check_known_families(capsys):
    for extra in (["--known", "m2"], ["--known", "L1"],
                  ["--known", "mk", "--k", "4"]):
        code, out, _ = run(capsys, "check", "--dim", "13", *extra)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "verified"
        assert all(entry["value"] == "0" for entry in report["residuals"])
        assert report["jacobi"] == []


@pytest.mark.parametrize("dim", [21, 23, 25])
def test_check_l1_lacuna2_beyond_dim_19(capsys, dim):
    # the series must reach every x_{m,2} of the dimension, not stop at m = 8
    code, out, _ = run(capsys, "check", "--dim", str(dim), "--known", "L1-lacuna2")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "verified"
    assert report["jacobi"] == []


@pytest.mark.parametrize("dim", [21, 23, 25])
def test_check_l1_lacuna2_lists_only_inventory_variables(capsys, dim):
    code, out, _ = run(capsys, "check", "--dim", str(dim), "--known", "L1-lacuna2")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "verified"
    # x_{m,2} is in the inventory iff 2m + 3 <= dim
    listed = [(entry["j"], entry["s"]) for entry in report["assignment"]["entries"]]
    assert listed == [(m, 2) for m in range(2, (dim - 3) // 2 + 1)]


def test_check_refuses_variables_outside_the_inventory(capsys, tmp_path):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps({"entries": [{"j": 2, "s": 0, "value": "1"},
                                           {"j": 9, "s": 0, "value": "1"}]}))
    code, out, err = run(capsys, "check", "--dim", "9", "--assign", str(src))
    assert code == 2 and out == ""
    assert "x_{9,0}" in err and "x_{2,0}" not in err
    # the marker belongs to even dimensions only
    src.write_text(json.dumps({"entries": [], "x": "1"}))
    code, _, err = run(capsys, "check", "--dim", "9", "--assign", str(src))
    assert code == 2 and "error:" in err


def test_check_mk_outside_the_inventory(capsys):
    # x_{2,k-2} needs k + 3 <= n
    code, out, _ = run(capsys, "check", "--dim", "13", "--known", "mk", "--k", "10")
    assert code == 0 and json.loads(out)["verdict"] == "verified"
    code, out, err = run(capsys, "check", "--dim", "13", "--known", "mk", "--k", "11")
    assert code == 2 and out == "" and "x_{2,9}" in err


def test_known_families_are_the_solver_families():
    # the parser's --known choices live in cli so that --help loads no oracle code
    args = {"mk": {"k": 2}, "L1": {"bound": 4}, "L1-lacuna2": {"bound": 4}}
    for name in KNOWN_FAMILIES:
        assert known_solution(name, **args.get(name, {}))
    with pytest.raises(ValueError, match="unknown solution family"):
        known_solution("L2")
    src = Path(__file__).resolve().parents[1] / "src" / "filiform"
    defined = [path.name for path in sorted(src.glob("*.py"))
               if "KNOWN_FAMILIES = " in path.read_text(encoding="utf-8")]
    assert defined == ["cli.py"]


def test_check_builds_its_head_once(capsys, monkeypatch):
    built = []
    init = systems.EquationSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(systems.EquationSystem, "__init__", counted)
    code, out, _ = run(capsys, "check", "--dim", "14", "--known", "L1")
    assert code == 0 and json.loads(out)["system-id"] == "M_Fil(14)[x=free]"
    assert built == [(14,)]


def test_check_mk_needs_k(capsys):
    code, _, err = run(capsys, "check", "--dim", "13", "--known", "mk")
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("family", ["m2", "L1", "L1-lacuna2"])
def test_check_refuses_k_without_mk(capsys, family):
    # --k used to be ignored for every family but mk
    code, out, err = run(capsys, "check", "--dim", "13", "--known", family, "--k", "4")
    assert code == 2 and out == "" and "--k" in err


def test_check_refuses_k_with_an_assignment_file(capsys, tmp_path):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps({"entries": [{"j": 2, "s": 0, "value": "1"}]}))
    code, out, err = run(capsys, "check", "--dim", "13", "--assign", str(src), "--k", "4")
    assert code == 2 and out == "" and "--k" in err


def test_check_failing_assignment(capsys, tmp_path):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps(
        {"entries": [{"j": 3, "s": 0, "value": "1"}]}))
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "check", "--dim", "9", "--assign", str(src),
                       "--report", str(report_path))
    assert code == 1 and out == ""
    report = json.loads(report_path.read_text())
    assert report["verdict"] == "failed"
    assert report["residuals"] == [{"label": [2, 3, 0], "value": "3"}]
    assert report["jacobi"][0]["triple"] == [2, 3, 4]


def test_check_bad_assignment_file(capsys, tmp_path):
    src = tmp_path / "assign.json"
    src.write_text("{not json")
    code, _, err = run(capsys, "check", "--dim", "9", "--assign", str(src))
    assert code == 2 and "not valid JSON" in err

    src.write_text(json.dumps({"entries": [{"j": 1, "s": 0, "value": "1"}]}))
    code, _, err = run(capsys, "check", "--dim", "9", "--assign", str(src))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("doc, message", [
    ({"entries": [{"j": 2, "s": 0, "value": "1/0"}]}, "bad assignment entry"),
    ({"entries": [], "x": "1/0"}, "bad marker value"),
], ids=["entry", "marker"])
def test_check_refuses_a_zero_denominator(capsys, tmp_path, doc, message):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--dim", "12", "--assign", str(src))
    assert code == 2 and out == ""
    assert message in err and "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("doc, key", [
    ({"entries": [], "X": "1"}, "X"),
    ({"entries": [{"j": 2, "s": 0, "vlaue": "1"}]}, "vlaue"),
], ids=["document", "entry"])
def test_check_refuses_unknown_assignment_keys(capsys, tmp_path, doc, key):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--dim", "12", "--assign", str(src))
    assert code == 2 and out == ""
    assert f"unknown key '{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("text, key", [
    ('{"entries": [{"j": 2, "s": 0, "value": "1/3"}], "entries": []}', "entries"),
    ('{"entries": [{"j": 2, "s": 0, "value": "1/3", "value": "5"}]}', "value"),
], ids=["document", "entry"])
def test_check_refuses_a_repeated_key(capsys, tmp_path, text, key):
    # json keeps a repeated key's last value: the first file checked the empty
    # point and verified, the second checked x_{2,0} = 5
    src = tmp_path / "assign.json"
    src.write_text(text)
    code, out, err = run(capsys, "check", "--dim", "12", "--assign", str(src))
    assert code == 2 and out == ""
    assert f"repeats the key '{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("entries", [5, None])
def test_check_refuses_non_list_entries(capsys, tmp_path, entries):
    src = tmp_path / "assign.json"
    src.write_text(json.dumps({"entries": entries}))
    code, out, err = run(capsys, "check", "--dim", "9", "--assign", str(src))
    assert code == 2 and out == ""
    assert "'entries' list" in err and "Traceback" not in err


@pytest.mark.parametrize("dim, source", [
    ("8", ["--known", "m2"]), ("8", ["--assign", "{assign}"]),
    ("5", ["--known", "L1-lacuna2"]), ("3", ["--known", "L1"]),
    ("5", ["--assign", "{missing}"]),
], ids=["known", "assign", "lacuna-5", "L1-3", "missing-file-5"])
def test_check_refuses_a_dimension_below_9(capsys, tmp_path, dim, source):
    # the dimension is refused before the assignment is read: no family bound
    # derived from it is named, and a missing file is no i/o error (exit 3)
    src = tmp_path / "assign.json"
    src.write_text(json.dumps({"entries": [{"j": 2, "s": 0, "value": "1"}]}))
    extra = [arg.format(assign=src, missing=tmp_path / "missing.json") for arg in source]
    code, out, err = run(capsys, "check", "--dim", dim, *extra)
    assert code == 2 and out == ""
    assert f"dimension must be >= 9, got {dim}" in err


def test_check_builds_no_polynomial(capsys, monkeypatch):
    argv = ("check", "--dim", "25", "--known", "L1")
    code, expected, _ = run(capsys, *argv)
    assert code == 0

    def refuse(*args):
        raise AssertionError("check built a polynomial")

    # residuals come from the rows' linear forms, not from expanded rows
    monkeypatch.setattr(systems, "_row", refuse)
    monkeypatch.setattr(DeformPolynomial, "_frozen", classmethod(refuse))
    assert run(capsys, *argv) == (0, expected, "")
    code, out, err = run(capsys, "check", "--dim", "9", "--known", "mk", "--k", "9")
    assert code == 2 and out == "" and "x_{2,7}" in err


def test_check_missing_assignment_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--dim", "9",
                       "--assign", str(tmp_path / "nope.json"))
    assert code == 3 and "i/o error:" in err


def test_verify_oracle_truncated(capsys):
    code, out, _ = run(capsys, "verify-oracle", "--max-total", "9")
    assert code == 0
    assert out == "# truncated(9): 1 labels compared, 0 diffs\n"


def test_verify_oracle_finite(capsys):
    code, out, _ = run(capsys, "verify-oracle", "--dim", "12")
    assert code == 0
    assert out == "# M_Fil(12)[x=free]: 8 labels compared, 0 diffs\n"


def test_fixture(capsys):
    code, out, _ = run(capsys, "fixture", "--name", "mk", "--dim", "12",
                       "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "m4(12)"
    code, out, _ = run(capsys, "fixture", "--name", "lacuna-of", "--dim", "9",
                       "--s", "2", "--base", "L1")
    assert code == 0
    assert json.loads(out)["name"] == "lacuna2-of-L1(9)"


def test_fixture_errors(capsys):
    code, _, err = run(capsys, "fixture", "--name", "m9", "--dim", "9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "fixture", "--name", "mk", "--dim", "12")
    assert code == 2


@pytest.mark.parametrize("argv, unused", [
    (("--name", "m0", "--dim", "4", "--k", "7", "--s", "3", "--base", "L1"), "k, s, base"),
    (("--name", "L1", "--dim", "9", "--k", "2"), "k"),
    (("--name", "mk", "--dim", "12", "--k", "4", "--s", "1"), "s"),
    (("--name", "lacuna-of", "--dim", "9", "--s", "2", "--base", "L1", "--k", "3"), "k"),
])
def test_fixture_refuses_unused_parameters(capsys, argv, unused):
    # make_fixture used to ignore the parameters its name does not take
    code, out, err = run(capsys, "fixture", *argv)
    assert code == 2 and out == ""
    assert err == f"error: fixture {argv[1]} takes no parameter {unused}\n"


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as info:
        main(["gen"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["check", "--dim", "9", "--known", "m2", "--assign", "f.json"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "filiform.cli", "dims", "--dim", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("dimension: 9")
