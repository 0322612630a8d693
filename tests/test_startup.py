"""What each entry point loads: `import filiform` is lazy, and each command
imports only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import filiform

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# the package API: each name of filiform.__all__ and the module it lives in
API = {
    "AdjointCochain": "cochains", "DeformPolynomial": "polynomials",
    "EquationSystem": "systems", "ExtForm": "forms",
    "InconclusiveInventoryError": "oracle", "LieElement": "lie", "LieStructure": "lie",
    "TOP": "polynomials", "binomial": "combinatorics", "conclusive_inventory": "oracle",
    "d1": "forms", "d_adjoint": "cochains", "d_trivial": "forms",
    "deformed_structure": "oracle", "dims_report": "systems", "dminus1": "forms",
    "evaluate_system": "oracle", "f_poly": "systems", "g_poly": "systems",
    "jacobi_scan": "oracle", "known_solution": "oracle", "linear_combination": "cochains",
    "make_fixture": "lie", "omega": "forms",
    "oracle_coefficient": "oracle", "partitions_exact": "combinatorics", "psi2": "cochains",
    "psi2_value": "cochains", "psi3": "cochains", "psi_top": "cochains",
    "system_finite": "systems", "system_truncated": "systems", "wedge": "forms",
}

# runs the command given as arguments, then prints the filiform modules it loaded
COMMAND_PROBE = """
import sys
from filiform.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
sys.stderr.write("\\nloaded: " + " ".join(
    sorted(m[9:] for m in sys.modules if m.startswith("filiform."))) + "\\n")
"""

DIMS = {"cli", "systems", "polynomials", "sparse", "combinatorics"}
ORACLE = {"oracle", "cochains", "forms", "lie"}
LOADS = [
    (("--help",), {"cli"}),
    (("dims", "--dim", "12"), DIMS),
    (("gen", "--dim", "12", "--format", "json"), DIMS | {"serialize"}),
    (("verify-oracle", "--max-total", "12"), DIMS | ORACLE),
    (("check", "--dim", "12", "--known", "L1"), DIMS | ORACLE | {"serialize"}),
]


def _python(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=ENV)


def test_api_names_resolve_to_their_home_modules():
    assert filiform.__all__ == sorted(API) and len(API) == 33
    for name, home in API.items():
        module = importlib.import_module(f"filiform.{home}")
        assert getattr(filiform, name) is getattr(module, name), name


def test_star_import_binds_every_api_name():
    namespace = {}
    exec("from filiform import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(API)
    assert all(namespace[name] is getattr(filiform, name) for name in API)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        filiform.no_such_name


def test_bare_import_loads_no_submodule():
    proc = _python("-c", "import sys, filiform; "
                         "print(sorted(m for m in sys.modules if m.startswith('filiform')))")
    assert proc.returncode == 0 and proc.stdout == "['filiform']\n"


@pytest.mark.parametrize("argv, modules", LOADS, ids=[argv[0] for argv, _ in LOADS])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    proc = _python("-c", COMMAND_PROBE, *argv)
    assert proc.returncode == 0 and "error" not in proc.stderr
    assert proc.stderr.splitlines()[-1].split()[1:] == sorted(modules)


def test_the_cocycles_driver_imports_no_system_code():
    proc = _python("-c", "import sys, filiform.cochains, filiform.lie; "
                         "print(*sorted(m for m in sys.modules if m.startswith('filiform.')))")
    assert proc.stdout.split() == [f"filiform.{m}" for m in
                                   ("cochains", "combinatorics", "forms", "lie", "sparse")]


@pytest.mark.parametrize("argv", [("dims", "--dim", "12"), ("gen", "--dim", "8"), ("--help",),
                                  ("check", "--dim", "12")],
                         ids=["dims", "refused-size", "help", "usage-error"])
def test_python_m_filiform_runs_the_cli(argv):
    package, module = _python("-m", "filiform", *argv), _python("-m", "filiform.cli", *argv)
    assert (package.returncode, package.stdout, package.stderr) == \
        (module.returncode, module.stdout, module.stderr)
    assert package.returncode == {"dims": 0, "gen": 2, "--help": 0, "check": 2}[argv[0]]
