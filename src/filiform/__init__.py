"""Deformations of the chain nilpotent Lie algebra, exactly.

Generates the quadratic systems that cut out the varieties of filiform
and maximal-class Lie brackets, together with the cocycle calculus behind
them and an independent brute-force oracle for every closed form.
"""

from importlib import import_module

# each re-exported name by its home module, imported on first access (PEP 562)
_HOMES = {
    "cochains": ("AdjointCochain", "LieStructure", "d_adjoint", "linear_combination", "psi2",
                 "psi2_value", "psi3", "psi_top"),
    "combinatorics": ("binomial", "partitions_exact"),
    "forms": ("ExtForm", "d1", "d_trivial", "dminus1", "omega", "wedge"),
    "lie": ("LieElement", "make_fixture"),
    "oracle": ("conclusive_inventory", "deformed_structure", "evaluate_system", "jacobi_scan",
               "known_solution", "oracle_coefficient"),
    "polynomials": ("TOP", "DeformPolynomial"),
    "systems": ("EquationSystem", "dims_report", "f_poly", "g_poly", "system_finite",
                "system_truncated"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
