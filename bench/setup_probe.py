"""Set-up time in a fresh interpreter.

    python3 bench/setup_probe.py PLAN.json

Times `import ears` plus building every system, character and torus listed
in the plan (see `gen.setup_plan`) from its generated JSON, and prints the
seconds taken.  Interpreter start-up itself is not included.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import ears  # noqa: E402,F401
from ears.characters import character_from_json  # noqa: E402
from ears.system import EarsSpec, build_ears  # noqa: E402
from ears.torus import build_torus  # noqa: E402


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(plan_path: str) -> None:
    plan = _load(plan_path)
    systems = {path: build_ears(EarsSpec.from_json(_load(path))) for path in plan["specs"]}
    for spec_path, char_path in plan["chars"]:
        if char_path is None:
            obj = _load(spec_path)
            e = build_ears(EarsSpec.from_json(obj["spec"]))
            n = e.rank + e.nullity
            basis = [[int(i == j) for j in range(n)] for i in range(n)]
            rule = {"kind": "hom", "basis": basis, "values": obj["values"]}
            character_from_json(e, {"modulus": obj["modulus"], "rule": rule})
        else:
            character_from_json(systems[spec_path], _load(char_path))
    for ell, nu, m in plan["tori"]:
        build_torus(ell, nu, m).ears
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
