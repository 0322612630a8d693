"""Library driver of the `cocycles` workload.

Sweeps the adjoint differential over the cocycle bases and prints one JSON
object with the number of values taken and the ones that were not zero:

* d_adjoint(psi2(j, s, PSI2_DIM, method), m0) on every increasing triple, for
  every label (j, s) and for both constructions, "table" and "series";
* d_adjoint(psi3(i, j, s, PSI3_DIM), m0) on every increasing 4-tuple, for
  every label;
* d_adjoint of one rational linear combination of the degree-2 cocycles at
  PSI2_DIM, with coefficients read from a JSON file (a list of "p/q" strings,
  one per label in `psi2_labels` order).

Every cocycle is closed, so every value must be zero.  Run with the package on
the path: `PYTHONPATH=src python3 perfbench/cocycles.py --coefficients FILE`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import combinations

from filiform.cochains import d_adjoint, linear_combination, psi2, psi3
from filiform.lie import make_fixture
from workloads import PSI2_DIM, PSI3_DIM, psi2_labels, psi3_labels


def _sweep(cochain, n: int, tag, nonzero: list) -> int:
    count = 0
    for tup in combinations(range(1, n + 1), cochain.degree):
        count += 1
        if not cochain.value_on_basis(tup).is_zero:
            nonzero.append([*tag, *tup])
    return count


def run(coefficients: list[Fraction]) -> dict:
    labels = psi2_labels(PSI2_DIM)
    if len(coefficients) != len(labels):
        raise ValueError(f"need {len(labels)} coefficients, got {len(coefficients)}")
    m0 = make_fixture("m0", PSI2_DIM)
    nonzero: list = []
    counts = {}
    for method in ("table", "series"):
        counts[f"psi2_{method}"] = sum(
            _sweep(d_adjoint(psi2(j, s, PSI2_DIM, method), m0), PSI2_DIM,
                   ("psi2", method, j, s), nonzero)
            for j, s in labels)
    m0_small = make_fixture("m0", PSI3_DIM)
    counts["psi3"] = sum(
        _sweep(d_adjoint(psi3(i, j, s, PSI3_DIM), m0_small), PSI3_DIM,
               ("psi3", i, j, s), nonzero)
        for i, j, s in psi3_labels(PSI3_DIM))
    combo = linear_combination(
        [(c, psi2(j, s, PSI2_DIM)) for c, (j, s) in zip(coefficients, labels)],
        2, PSI2_DIM)
    counts["combination"] = _sweep(d_adjoint(combo, m0), PSI2_DIM,
                                   ("combination",), nonzero)
    return {"values": counts, "nonzero": nonzero}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--coefficients", required=True,
                        help='JSON list of rational strings such as "-3/7"')
    args = parser.parse_args(argv)
    with open(args.coefficients, "r", encoding="utf-8") as handle:
        coefficients = [Fraction(c) for c in json.load(handle)]
    sys.stdout.write(json.dumps(run(coefficients), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
