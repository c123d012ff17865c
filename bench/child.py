"""One benchmark task in its own process.

    python3 bench/child.py [--trace OUT --task-id ID] cli ARGV...
    python3 bench/child.py [--trace OUT --task-id ID] roundtrip INPUT.json
    python3 bench/child.py [--trace OUT --task-id ID] solve_mod INPUT.json

`cli` calls `ears.cli.main` with ARGV.  `roundtrip` restricts a seeded
homomorphism to a window table and recovers it with `extend_ind_zero`.
`solve_mod` solves sampled constraint rows modulo m.  Library tasks print one
canonical JSON report and exit 0 on success (SAT for `solve_mod`), 1 for UNSAT.
With --trace, call wrappers are installed before `ears` runs and the spans and
counts are written to OUT when the task ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _roundtrip(path: str) -> int:
    from ears.characters import Character, TableRule, character_from_json, extend_ind_zero
    from ears.system import EarsSpec, Window, build_ears, enumerate_roots

    obj = json.loads(Path(path).read_text())
    e = build_ears(EarsSpec.from_json(obj["spec"]))
    n = e.rank + e.nullity
    m = obj["modulus"]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    hom = character_from_json(
        e, {"modulus": m, "rule": {"kind": "hom", "basis": identity, "values": obj["values"]}}
    )
    w = Window(obj["window"])
    roots = enumerate_roots(e, w)
    table = Character(e, m, TableRule(w.bound, tuple((r, hom.eval(r).exponent) for r in roots)))
    # Simple roots plus alpha_1 + delta_j: a reflectable unimodular base.
    base = [e.root_from_coords(identity[j]) for j in range(e.rank)]
    for j in range(e.nullity):
        coords = [0] * n
        coords[0] = 1
        coords[e.rank + j] = 1
        base.append(e.root_from_coords(coords))
    recovered = extend_ind_zero(table, base, w)
    report = {
        "basis": [list(v) for v in recovered.rule.basis],
        "values": list(recovered.rule.values),
        "roots": [list(e.root_coords(r)) + [recovered.eval(r).exponent] for r in roots],
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _solve(path: str) -> int:
    from ears.lattice import solve_mod

    obj = json.loads(Path(path).read_text())
    res = solve_mod(obj["rows"], obj["rhs"], obj["modulus"])
    if res.sat:
        print(json.dumps({"sat": True, "solution": list(res.solution)}, sort_keys=True))
        return 0
    print(json.dumps({"sat": False, "certificate": list(res.certificate)}, sort_keys=True))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", help="write spans and counts here")
    parser.add_argument("--task-id", default="")
    parser.add_argument("kind", choices=("cli", "roundtrip", "solve_mod"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        import trace_calls

        tracer = trace_calls.Tracer(args.task_id)
        trace_calls.install(tracer)
    try:
        if args.kind == "cli":
            import ears.cli

            code = ears.cli.main(args.rest)
        elif args.kind == "roundtrip":
            code = _roundtrip(args.rest[0])
        else:
            code = _solve(args.rest[0])
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(Path(args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
