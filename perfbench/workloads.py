"""The four workloads: their commands, their seeded inputs and their output checks.

Each workload is a list of operations.  An operation is one `filiform` command
(`python -m filiform.cli ...`) or one run of the `cocycles.py` library driver.
Every expected outcome below comes from an invariant of the mathematics or of
the package, never from output captured at some commit, with one stated
exception: `gen` must reproduce a fixed sha256 digest, because byte-identical
output for fixed arguments is a promise of the package.

The label and variable counts are recomputed here from scratch (enumeration
and partition sums) rather than imported from `filiform`, so a bug in the
package's own counting cannot make its output agree with itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Callable, Optional

GEN_DIM = 30
# sha256 of `filiform gen --dim 30 --format json`; output is byte-identical
# for fixed arguments, so any change of this digest is a behaviour change.
GEN_SHA256 = "69750bef24f3034752f803a1400c5c668f42eda8605e038e43041ae1432ee745"
ORACLE_TOTAL = 20
ORACLE_DIM = 16
CHECK_DIM = 25
MK_DIM, MK_K = 18, 4
PSI2_DIM = 13
PSI3_DIM = 12

WHY = {
    "generate": "dims then gen as JSON at n=30: system building, binomials, "
                "the indented JSON encoder, peak RSS and the double build in dims",
    "oracle": "verify-oracle to total 20 and at n=16: the brute-force gate, "
              "psi2_value, LieElement churn and quadratic polynomial accumulation",
    "check": "check of seeded points at n=25 and mk at n=18: polynomial evaluation "
             "and the Jacobi scan, reads where generate and oracle build",
    "cocycles": "d_adjoint sweeps over the cocycle bases: the only workload that "
                "reaches forms, the shift towers and the AdjointCochain memo",
}


@dataclass(frozen=True)
class Op:
    """One child process of a workload pass.

    `entry` is "cli" for `python -m filiform.cli <args>` or "cocycles" for
    `python perfbench/cocycles.py <args>`.  `check(code, digest, output)`
    returns None when the outcome is right, else the reason it is wrong;
    `output` is None for ops with `keep_output=False`, whose output is judged
    by its sha256 `digest` alone: the driver's resident size when it spawns a
    child is a floor under that child's ru_maxrss, so large outputs are hashed
    as they stream, not kept.
    """

    entry: str
    args: tuple[str, ...]
    check: Callable[[int, str, Optional[bytes]], Optional[str]]
    keep_output: bool = True
    first_byte: bool = False

    @property
    def name(self) -> str:
        return " ".join((self.entry,) + self.args)


# ---- independent counts ----------------------------------------------------

@lru_cache(maxsize=None)
def _partitions(q: int, k: int) -> int:
    """Partitions of k into exactly q positive parts."""
    if q == 0:
        return 1 if k == 0 else 0
    if k < q:
        return 0
    return _partitions(q, k - q) + _partitions(q - 1, k - 1)


def variable_count(n: int) -> int:
    """Variables x_{j,s} with 2j+1+s <= n; enumeration, closed form and P2 sum agree."""
    enumerated = sum(1 for j in range(2, n) for s in range(n) if 2 * j + 1 + s <= n)
    closed = (n - 3) ** 2 // 4 if n % 2 else (n - 2) * (n - 4) // 4
    partition_sum = sum(_partitions(2, m) for m in range(2, n - 2))
    if not enumerated == closed == partition_sum:
        raise AssertionError(f"variable counts disagree at n={n}")
    return enumerated


def equation_labels(n: int, marker_rows: bool) -> list[tuple[int, int, int]]:
    """Labels (j, q, r), 2 <= j < q, of the rows up to total index n, in system order.

    With `marker_rows` (even n) the top row j+2q+1+r = n also has r = -1.
    The count is checked against the partition-sum closed form.
    """
    labels = [(j, q, w - j - 2 * q - 1)
              for w in range(9, n + 1) for j in range(2, w) for q in range(j + 1, w)
              if w - j - 2 * q - 1 >= (-1 if marker_rows and w == n else 0)]
    if marker_rows:
        closed = (sum(_partitions(3, m) for m in range(3, n - 6))
                  + _partitions(3, n - 5))
    else:
        closed = sum(_partitions(3, m) for m in range(3, n - 5))
    if len(labels) != closed:
        raise AssertionError(f"label counts disagree at n={n}")
    return labels


def system_labels(n: int) -> list[tuple[int, int, int]]:
    return equation_labels(n, marker_rows=n % 2 == 0)


def psi2_labels(n: int) -> list[tuple[int, int]]:
    """Labels (j, s) of the degree-2 cocycles that fit below e_n."""
    return [(j, s) for j in range(2, (n - 1) // 2 + 1) for s in range(n - 2 * j)]


def psi3_labels(n: int) -> list[tuple[int, int, int]]:
    """Labels (i, j, s) of the degree-3 cocycles that fit below e_n."""
    return [(i, j, s) for i in range(2, n) for j in range(i + 1, n)
            for s in range(n - (i + 2 * j + 1) + 1)]


# ---- seeded inputs ---------------------------------------------------------

def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational p/q with 1 <= |p|, q <= 9."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))


def l1_point(n: int, t: Fraction) -> dict[tuple[int, int], Fraction]:
    """The L1 (Witt-type) family at parameter t, up to j = (n-1)/2."""
    return {(m, 0): t * Fraction(6 * factorial(m - 2) * factorial(m - 1),
                                 factorial(2 * m - 1))
            for m in range(2, (n - 1) // 2 + 1)}


def f230(point) -> Fraction:
    """F_{2,3,0} = 3 x_{3,0}^2 - 2 x_{2,0} x_{4,0} - x_{3,0} x_{4,0}.

    The first row of every system (typo ledger, acceptance criterion 5).
    """
    x2, x3, x4 = (point.get((m, 0), Fraction(0)) for m in (2, 3, 4))
    return 3 * x3 * x3 - 2 * x2 * x4 - x3 * x4


def _assignment_doc(point) -> dict:
    return {"entries": [{"j": j, "s": s, "value": str(v)}
                        for (j, s), v in sorted(point.items())]}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# ---- output checks ---------------------------------------------------------

def _text(output: bytes) -> str:
    return output.decode("utf-8")


def _check_help(code, digest, output):
    if code != 0 or not _text(output).startswith("usage: filiform"):
        return f"exit {code}, no usage text"
    return None


def _check_dims(n: int):
    num_vars, num_eqs = variable_count(n), len(system_labels(n))

    def check(code, digest, output):
        if code != 0:
            return f"exit {code}"
        text = _text(output)
        want = {
            "num_vars": f"num_vars: {num_vars} (closed form {num_vars}, enumerated {num_vars})",
            "num_eqs": f"num_eqs: {num_eqs} (closed form {num_eqs}, enumerated {num_eqs})",
        }
        for key, line in want.items():
            if line not in text.splitlines():
                return f"{key} line is not {line!r}"
        h2 = re.search(r"^h2 by weight: (.*)$", text, re.M)
        h3 = re.search(r"^h3 by weight: (.*)$", text, re.M)
        for match, total in ((h2, num_vars), (h3, num_eqs)):
            if match is None or sum(int(p.split(" -> ")[1])
                                    for p in match.group(1).split(", ")) != total:
                return "per-weight breakdown does not add up"
        return None
    return check


def _check_gen(code, digest, output):
    if code != 0:
        return f"exit {code}"
    if digest != GEN_SHA256:
        return f"sha256 {digest} differs from {GEN_SHA256}"
    return None


def _check_oracle(header_id: str, labels: int):
    def check(code, digest, output):
        want = f"# {header_id}: {labels} labels compared, 0 diffs\n"
        if code != 0 or _text(output) != want:
            return f"exit {code}, output {_text(output)[:80]!r}, want {want!r}"
        return None
    return check


def _check_report(n: int, point, verified: bool):
    labels = system_labels(n)
    residual_230 = None if point is None else f230(point)

    def check(code, digest, output):
        if code != (0 if verified else 1):
            return f"exit {code}"
        report = json.loads(output)
        if report.get("verdict") != ("verified" if verified else "failed"):
            return f"verdict {report.get('verdict')!r}"
        residuals = report["residuals"]
        if [tuple(r["label"]) for r in residuals] != labels:
            return "residual labels differ from the system's labels"
        nonzero = [r for r in residuals if Fraction(r["value"]) != 0]
        if verified and (nonzero or report["jacobi"]):
            return "verified point with nonzero residuals or Jacobi defects"
        if not verified and not (nonzero and report["jacobi"]):
            return "failed point without both residuals and Jacobi defects"
        if residual_230 is not None and Fraction(residuals[0]["value"]) != residual_230:
            return f"F_{{2,3,0}} residual {residuals[0]['value']}, want {residual_230}"
        return None
    return check


def _check_cocycles(code, digest, output):
    if code != 0:
        return f"exit {code}"
    result = json.loads(output)
    triples = len(list(combinations(range(PSI2_DIM), 3)))
    want = {
        "psi2_table": len(psi2_labels(PSI2_DIM)) * triples,
        "psi2_series": len(psi2_labels(PSI2_DIM)) * triples,
        "psi3": len(psi3_labels(PSI3_DIM)) * len(list(combinations(range(PSI3_DIM), 4))),
        "combination": triples,
    }
    if result["values"] != want:
        return f"value counts {result['values']}, want {want}"
    if result["nonzero"]:
        return f"{len(result['nonzero'])} nonzero values, first {result['nonzero'][0]}"
    return None


# ---- workloads -------------------------------------------------------------

SETUP = Op("cli", ("--help",), _check_help)


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Operations of one pass of `workload`, writing its seeded inputs to workdir."""
    rng = random.Random(seed)
    if workload == "generate":
        return [
            Op("cli", ("dims", "--dim", str(GEN_DIM)), _check_dims(GEN_DIM)),
            Op("cli", ("gen", "--dim", str(GEN_DIM), "--format", "json"), _check_gen,
               keep_output=False, first_byte=True),
        ]
    if workload == "oracle":
        return [
            Op("cli", ("verify-oracle", "--max-total", str(ORACLE_TOTAL)),
               _check_oracle(f"truncated({ORACLE_TOTAL})",
                             len(equation_labels(ORACLE_TOTAL, marker_rows=False))),
               first_byte=True),
            Op("cli", ("verify-oracle", "--dim", str(ORACLE_DIM)),
               _check_oracle(f"M_Fil({ORACLE_DIM})[x=free]",
                             len(system_labels(ORACLE_DIM)))),
        ]
    if workload == "check":
        # The equations are homogeneous quadratic and the Jacobi defect of
        # m0 + t*psi is t*d(psi) + t^2*[psi,psi], so t*L1 solves for every t.
        on_line = l1_point(CHECK_DIM, _rational(rng))
        # Shifting x_{2,0} by d changes F_{2,3,0} by -2d*x_{4,0}, and x_{4,0}
        # by -d*(2x_{2,0} + x_{3,0}); both are nonzero on the L1 line.
        shifted = dict(on_line)
        coordinate = (rng.choice([2, 4]), 0)
        shifted[coordinate] += _rational(rng)
        good = _write_json(workdir / f"check-on-line-{seed}.json", _assignment_doc(on_line))
        bad = _write_json(workdir / f"check-shifted-{seed}.json", _assignment_doc(shifted))
        return [
            Op("cli", ("check", "--dim", str(CHECK_DIM), "--assign", good),
               _check_report(CHECK_DIM, on_line, verified=True), first_byte=True),
            Op("cli", ("check", "--dim", str(CHECK_DIM), "--assign", bad),
               _check_report(CHECK_DIM, shifted, verified=False)),
            Op("cli", ("check", "--dim", str(MK_DIM), "--known", "mk", "--k", str(MK_K)),
               _check_report(MK_DIM, None, verified=True)),
        ]
    if workload == "cocycles":
        coefficients = [str(_rational(rng)) for _ in psi2_labels(PSI2_DIM)]
        path = _write_json(workdir / f"cocycles-{seed}.json", coefficients)
        return [Op("cocycles", ("--coefficients", path), _check_cocycles, first_byte=True)]
    raise ValueError(f"unknown workload {workload!r}")
