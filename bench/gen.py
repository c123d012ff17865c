"""Seeded inputs for the benchmark workloads.

`generate(workload, seed, out_dir, root)` writes every JSON input a workload
needs under `out_dir` and returns the task list.  The same seed gives
byte-identical files.  Seeds change values only (coordinate permutations,
homomorphism exponents, unimodular bases, which constraint rows are sampled),
never sizes, so root counts, checked pairs and bracket calls are the same for
every seed.

Each task belongs to a group that loads different layers: `verify`, `torus`
or `extend`.  The `torus_extend` workload runs the torus and extend groups
together, so that one run measures long enough to average out machine drift.

Everything here is plain integer arithmetic; nothing imports `ears`.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("verify", "torus_extend")

# Shipped specs at their criterion-6 windows.
SHIPPED = (
    ("affine_a1", 2),
    ("a1_nu2_full", 2),
    ("a1_nu2_three_coset", 2),
    ("a2_nu1", 2),
    ("a3_nu2", 1),
    ("b2_nu1_untwisted", 2),
    ("b2_nu2_twist1", 1),
    ("g2_nu1", 2),
)

CX_NULLITY = 6
# Fixed sample size of window-2 counterexample constraint rows for solve_mod.
SOLVE_ROWS = 1000
SOLVE_WINDOW = 2
SAT_MODULUS = 4
TORUS_SHAPES = ((2, 2, 2), (2, 1, 4))
TORUS_HOMS = 2
ROUNDTRIPS = ((2, 1, 2), (2, 2, 3), (3, 1, 4), (3, 2, 3))  # (rank, nullity, modulus)
ROUNDTRIP_WINDOW = 3
HOM_MODULUS = 4


def _write(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(path)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def counterexample_spec(rng: random.Random) -> dict:
    """Rank-one counterexample with its unit representatives in permuted order."""
    n = CX_NULLITY
    perm = list(range(n))
    rng.shuffle(perm)
    reps = [[0] * n] + [[int(i == p) for i in range(n)] for p in perm] + [[1] * n]
    return {
        "type": "A",
        "rank": 1,
        "nullity": n,
        "S": {"dim": n, "lattice_basis": _identity(n), "reps": reps},
    }


def a1coset_classes(reps: list[list[int]]) -> tuple[set, set]:
    """Parity keys of S and of S + S, for a rank-one spec over the standard lattice."""
    s_keys = {tuple(x % 2 for x in r) for r in reps}
    ss_keys = {tuple((a + b) % 2 for a, b in zip(k1, k2)) for k1 in s_keys for k2 in s_keys}
    return s_keys, ss_keys


def a1coset_exponent(finite: int, iso, s_keys: set) -> int:
    """Exponent of the order-2 coset rule on a root, from parities alone."""
    key = tuple(x % 2 for x in iso)
    nonzero_class = key in s_keys and any(key)
    if finite:
        return int(any(key))
    return int(nonzero_class)


def counterexample_rows(reps: list[list[int]], bound: int) -> tuple[list, list]:
    """All window roots of a rank-one standard-lattice system as coordinate rows.

    A row is (simple-root coordinate, lattice coordinates...); the second list
    holds the coset-rule exponent of each row.
    """
    s_keys, ss_keys = a1coset_classes(reps)
    box = list(itertools.product(range(-bound, bound + 1), repeat=len(reps[0])))
    rows, rhs = [], []
    for fin in (0, -1, 1):
        keys = ss_keys if fin == 0 else s_keys
        for iso in box:
            if tuple(x % 2 for x in iso) in keys:
                rows.append((fin,) + iso)
                rhs.append(a1coset_exponent(fin, iso, s_keys))
    return rows, rhs


def _unsat_core(n: int) -> list[tuple]:
    """Rows alpha, alpha + e_i and alpha + (1,...,1): their relation has odd value sum."""
    core = [(1,) + (0,) * n]
    core += [(1,) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    core.append((1,) + (1,) * n)
    return core


def _unimodular(rng: random.Random, n: int, steps: int = 8) -> list[list[int]]:
    m = _identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def _task(group, tid, argv=None, lib=None, inp=None, expect=0, check="", **extra) -> dict:
    task = {"group": group, "id": tid, "expect_exit": expect, "check": check, "largest": False}
    if argv is not None:
        task["argv"] = [str(a) for a in argv]
    else:
        task["lib"] = lib
        task["input"] = inp
    task.update(extra)
    return task


def _verify_tasks(rng, out: Path, root: Path) -> list[dict]:
    tasks = []
    for name, window in SHIPPED:
        obj = json.loads((root / "specs" / f"{name}.json").read_text())
        spec = _write(out / f"{name}.json", obj)
        tasks.append(
            _task("verify", f"info-{name}", ["info", spec, "--window", window], check="info",
                  largest=name == "a3_nu2")
        )
    cx = _write(out / "cx_spec.json", counterexample_spec(rng))
    cx_char = _write(out / "cx_char.json", {"modulus": 2, "rule": {"kind": "a1coset"}})
    tasks.append(
        _task("verify", "char-verify-cx", ["char-verify", cx, cx_char, "--window", 1],
              check="char-verify")
    )
    a3 = str(out / "a3_nu2.json")
    hom = {
        "modulus": HOM_MODULUS,
        "rule": {
            "kind": "hom",
            "basis": _unimodular(rng, 5),
            "values": [rng.randrange(HOM_MODULUS) for _ in range(5)],
        },
    }
    hom_path = _write(out / "a3_hom_char.json", hom)
    tasks.append(
        _task("verify", "char-verify-hom", ["char-verify", a3, hom_path, "--window", 1],
              check="char-verify")
    )
    return tasks


def _torus_tasks(rng, out: Path) -> list[dict]:
    tasks = []
    for ell, nu, m in TORUS_SHAPES:
        shape = ["--ell", ell, "--nu", nu, "--modulus", m, "--window", 2]
        tag = f"{ell}-{nu}-{m}"
        tasks.append(_task("torus", f"check-chevalley-{tag}",
                           ["torus", "check-chevalley"] + shape, check="torus-check"))
        for k in range(TORUS_HOMS):
            hom = [rng.randrange(m) for _ in range(ell + nu)]
            tasks.append(
                _task("torus", f"check-diagonal-{tag}-{k}",
                      ["torus", "check-diagonal"] + shape + ["--hom", ",".join(map(str, hom))],
                      check="torus-check")
            )
        hom = [rng.randrange(m) for _ in range(ell + nu)]
        tasks.append(
            _task("torus", f"extract-{tag}",
                  ["torus", "extract"] + shape + ["--hom", ",".join(map(str, hom))],
                  check="torus-extract", hom=hom, ell=ell, modulus=m)
        )
    return tasks


def _extend_tasks(rng, out: Path) -> list[dict]:
    spec = counterexample_spec(rng)
    cx = _write(out / "cx_spec.json", spec)
    cx_char = _write(out / "cx_char.json", {"modulus": 2, "rule": {"kind": "a1coset"}})
    tasks = [
        _task("extend", "char-extend", ["char-extend", cx, cx_char, "--window", 1], expect=1,
              check="char-extend", spec=cx, largest=True)
    ]
    for rank, nu, m in ROUNDTRIPS:
        obj = {
            "spec": {"type": "A", "rank": rank, "nullity": nu,
                     "lattice": {"dim": nu, "basis": _identity(nu)}},
            "modulus": m,
            "values": [rng.randrange(m) for _ in range(rank + nu)],
            "window": ROUNDTRIP_WINDOW,
        }
        path = _write(out / f"roundtrip_a{rank}_nu{nu}.json", obj)
        tasks.append(_task("extend", f"roundtrip-a{rank}-nu{nu}", lib="roundtrip", inp=path,
                           check="roundtrip"))
    rows, rhs = counterexample_rows(spec["S"]["reps"], SOLVE_WINDOW)
    core = _unsat_core(CX_NULLITY)
    core_idx = {rows.index(r) for r in core}
    rest = [i for i in range(len(rows)) if i not in core_idx]
    picked = sorted(core_idx | set(rng.sample(rest, SOLVE_ROWS - len(core_idx))))
    sample = [list(rows[i]) for i in picked]
    unsat = {"modulus": 2, "rows": sample, "rhs": [rhs[i] for i in picked]}
    tasks.append(_task("extend", "solve-unsat", lib="solve_mod", expect=1, check="solve_mod",
                       inp=_write(out / "solve_unsat.json", unsat)))
    h = [rng.randrange(SAT_MODULUS) for _ in range(1 + CX_NULLITY)]
    sat = {
        "modulus": SAT_MODULUS,
        "rows": sample,
        "rhs": [sum(a * b for a, b in zip(row, h)) % SAT_MODULUS for row in sample],
    }
    tasks.append(_task("extend", "solve-sat", lib="solve_mod", check="solve_mod",
                       inp=_write(out / "solve_sat.json", sat)))
    return tasks


def generate(workload: str, seed: int, out_dir: Path, root: Path) -> list[dict]:
    """Write the workload's inputs for `seed` under `out_dir`; return its tasks."""
    rng = random.Random(f"ears-bench:{workload}:{seed}")
    out_dir = Path(out_dir)
    if workload == "verify":
        return _verify_tasks(rng, out_dir, root)
    if workload == "torus_extend":
        return _torus_tasks(rng, out_dir) + _extend_tasks(rng, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def setup_plan(tasks: list[dict]) -> dict:
    """What the set-up probe builds: every system, character and torus the tasks use."""
    specs, chars, tori = [], [], []
    for task in tasks:
        argv = task.get("argv", [])
        if argv[:1] in (["info"], ["char-verify"], ["char-extend"]):
            if argv[1] not in specs:
                specs.append(argv[1])
            if argv[0] != "info":
                chars.append([argv[1], argv[2]])
        elif argv[:1] == ["torus"]:
            shape = [int(argv[argv.index(flag) + 1]) for flag in ("--ell", "--nu", "--modulus")]
            if shape not in tori:
                tori.append(shape)
        elif task.get("lib") == "roundtrip":
            chars.append([task["input"], None])
    return {"specs": specs, "chars": chars, "tori": tori}
