"""Correctness checks for one task execution, in plain integer arithmetic.

`check(task, exit_code, stdout, expected, seed)` returns a list of problems;
an empty list means the execution counts as correct.  Every task must exit
with its expected verdict, print a report whose seed-independent part
(`invariants`) matches the one recorded in expected.json, and, for the
recorded default seed, print exactly the recorded bytes.  Tasks that return a
certificate or a recovered character are re-checked here without `ears`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from gen import a1coset_classes, a1coset_exponent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def invariants(task: dict, report: dict) -> dict:
    """The part of a report that every seed must reproduce exactly."""
    kind = task["check"]
    if kind in ("info", "char-verify", "torus-check"):
        return {k: v for k, v in report.items() if k != "inputs"}
    if kind == "char-extend":
        return {
            "extendable": report.get("extendable"),
            "witness_size": len(report.get("witness", ())),
            "witness_recheck": report.get("witness_recheck"),
        }
    if kind == "torus-extract":
        return {
            "extraction": report.get("extraction"),
            "entries": len(report.get("character", {}).get("rule", {}).get("entries", ())),
        }
    if kind == "roundtrip":
        return {"basis_size": len(report.get("basis", ())), "roots": len(report.get("roots", ()))}
    if kind == "solve_mod":
        return {"sat": report.get("sat"),
                "length": len(report.get("solution") or report.get("certificate") or ())}
    raise ValueError(f"unknown check kind {kind!r}")


def _det(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(det)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def _root_coords(root: dict, rank: int) -> list[int]:
    finite = root["finite"] if root["finite"] is not None else [0] * rank
    return list(finite) + list(root["iso"])


def _check_char_extend(task: dict, report: dict) -> list[str]:
    spec = json.loads(Path(task["spec"]).read_text())
    reps = spec["S"]["reps"]
    s_keys, ss_keys = a1coset_classes(reps)
    problems = []
    if report.get("extendable") is not False:
        problems.append("counterexample reported extendable")
    witness = report.get("witness") or []
    if not witness:
        return problems + ["no witness"]
    coord_sum = [0] * (1 + len(reps[0]))
    exp_sum = 0
    for item in witness:
        root, coeff = item["root"], item["coeff"]
        fin = 0 if root["finite"] is None else root["finite"][0]
        key = tuple(x % 2 for x in root["iso"])
        if key not in (ss_keys if fin == 0 else s_keys) or fin not in (-1, 0, 1):
            problems.append(f"witness entry {root} is not a root")
        coord_sum = [a + coeff * b for a, b in zip(coord_sum, [fin] + root["iso"], strict=True)]
        exp_sum += coeff * a1coset_exponent(fin, root["iso"], s_keys)
    if any(coord_sum):
        problems.append(f"witness coordinates do not cancel: {coord_sum}")
    if exp_sum % 2 == 0:
        problems.append("witness exponent sum is zero mod 2")
    return problems


def _check_solve(task: dict, report: dict) -> list[str]:
    obj = json.loads(Path(task["input"]).read_text())
    rows, rhs, m = obj["rows"], obj["rhs"], obj["modulus"]
    if report.get("sat"):
        x = report["solution"]
        bad = [i for i, (row, b) in enumerate(zip(rows, rhs)) if (_dot(row, x) - b) % m]
        return [f"solution violates rows {bad[:5]}"] if bad else []
    r = report["certificate"]
    if len(r) != len(rows):
        return ["certificate length differs from the row count"]
    cols = [_dot(r, [row[j] for row in rows]) % m for j in range(len(rows[0]))]
    problems = []
    if any(cols):
        problems.append(f"certificate does not kill A mod m: {cols}")
    if _dot(r, rhs) % m == 0:
        problems.append("certificate does not separate b")
    return problems


def _a_series_window_roots(rank: int, nullity: int, bound: int) -> set[tuple]:
    finite = set()
    for i in range(rank):
        for j in range(i, rank):
            v = tuple(int(i <= k <= j) for k in range(rank))
            finite.add(v)
            finite.add(tuple(-x for x in v))
    box = list(itertools.product(range(-bound, bound + 1), repeat=nullity))
    roots = {(0,) * rank + iso for iso in box}
    roots |= {f + iso for f in finite for iso in box}
    return roots


def _check_roundtrip(task: dict, report: dict) -> list[str]:
    obj = json.loads(Path(task["input"]).read_text())
    m, h = obj["modulus"], obj["values"]
    spec = obj["spec"]
    problems = []
    basis = report["basis"]
    if abs(_det(basis)) != 1:
        problems.append("recovered basis is not unimodular")
    for b, v in zip(basis, report["values"], strict=True):
        if (_dot(b, h) - v) % m:
            problems.append(f"recovered value {v} on basis vector {b} disagrees")
    listed = set()
    for row in report["roots"]:
        coords, exp = tuple(row[:-1]), row[-1]
        listed.add(coords)
        if (_dot(coords, h) - exp) % m:
            problems.append(f"recovered character disagrees at {coords}")
            break
    want = _a_series_window_roots(spec["rank"], spec["nullity"], obj["window"])
    if listed != want:
        problems.append("report does not cover exactly the window roots")
    return problems


def _check_extract(task: dict, report: dict) -> list[str]:
    h, ell, m = task["hom"], task["ell"], task["modulus"]
    problems = []
    if not all(v is True for v in report.get("extraction", {}).values() if isinstance(v, bool)):
        problems.append("extraction reported a failed check")
    for entry in report["character"]["rule"]["entries"]:
        coords = _root_coords(entry["root"], ell)
        if (_dot(coords, h) - entry["exponent"]) % m:
            problems.append(f"extracted value at {entry['root']} is not the seeded hom")
            break
    return problems


RECHECKS = {
    "char-extend": _check_char_extend,
    "solve_mod": _check_solve,
    "roundtrip": _check_roundtrip,
    "torus-extract": _check_extract,
}


def check(task: dict, exit_code: int, stdout: bytes, expected: dict, seed: int) -> list[str]:
    """Problems with one execution of `task`; empty when it is correct."""
    problems = []
    if exit_code != task["expect_exit"]:
        problems.append(f"exit code {exit_code}, expected {task['expect_exit']}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    if not isinstance(report, dict):
        return problems + ["stdout is not a JSON object"]
    if expected is not None:
        if invariants(task, report) != expected["invariants"]:
            problems.append("report differs from the recorded invariants")
        if seed == expected["seed"] and sha256(stdout) != expected["sha256"]:
            problems.append("stdout differs from the recorded default-seed digest")
    recheck = RECHECKS.get(task["check"])
    if recheck is not None:
        try:
            problems += recheck(task, report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"report cannot be re-checked: {exc!r}")
    return problems
