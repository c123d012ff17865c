"""Report bytes pinned across commits.

`golden_stdout.json` holds, for each command below, the exit code and the
sha256 of the stdout of an in-process `main(argv)`.  A change that alters any
report byte fails here; re-record only for a deliberate byte change, with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ears.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_stdout.json")
SPECS = [
    "a1_nu2_full", "a1_nu2_three_coset", "a2_nu1", "a3_nu2", "affine_a1",
    "b2_nu1_untwisted", "b2_nu2_twist1", "counterexample_nu6", "g2_nu1",
]
CEX = ("specs/counterexample_nu6.json", "specs/counterexample_nu6_char.json")
AFFINE_BASE = '[{"finite":[1],"iso":[0]},{"finite":[-1],"iso":[1]}]'
DECOMPOSE = (
    "weyl", "specs/affine_a1.json", "decompose", "--base", AFFINE_BASE,
    "--target", '[{"finite":[1],"iso":[1]}]', "--window", "3",
)
# orbits that reach the B2 and G2 reflection tables directly
ORBITS = (
    ("weyl", "specs/g2_nu1.json", "orbit", "--window", "1", "--base",
     '[{"finite":[-2,-3],"iso":[0]},{"finite":[-1,-2],"iso":[0]},'
     '{"finite":[-2,-3],"iso":[-1]}]'),
    ("weyl", "specs/b2_nu2_twist1.json", "orbit", "--window", "1", "--base",
     '[{"finite":[-1,-2],"iso":[0,0]},{"finite":[-1,-1],"iso":[0,0]},'
     '{"finite":[-1,-2],"iso":[0,-1]},{"finite":[-1,-1],"iso":[-1,-1]}]'),
)
COMMANDS = (
    [("info", f"specs/{s}.json", "--window", str(w)) for s in SPECS for w in (0, 1, 2)]
    + [("info", f"specs/{s}.json", "--window", "3") for s in ("a3_nu2", "b2_nu2_twist1", "g2_nu1")]
    # specs over a dense 8 x 8 lattice basis with entries in [-9, 9]
    + [("info", "specs/a1_dense_nu8.json", "--window", w) for w in ("0", "1")]
    + [("info", "specs/b2_dense_nu8.json", "--window", "0")]
    + [("char-verify", *CEX, "--window", str(w)) for w in (1, 2)]
    + [("char-extend", *CEX, "--window", str(w)) for w in (1, 2)]
    + [("info", f"specs/{s}.json", "--window", "1", "--refl-oracle")
       for s in ("b2_nu1_untwisted", "b2_nu2_twist1", "g2_nu1")]
    + [("weyl", "specs/affine_a1.json", "minsize", "--window", "3"), DECOMPOSE, *ORBITS]
    + [
        # a reflectable base (exit 0), one that is not (exit 1), and a
        # minimal-base search that ends below the minimum (exit 1)
        ("weyl", "specs/affine_a1.json", "check", "--window", "3", "--base", AFFINE_BASE),
        ("weyl", "specs/affine_a1.json", "check", "--window", "3", "--base",
         '[{"finite":[1],"iso":[0]}]'),
        ("weyl", "specs/affine_a1.json", "minsize", "--window", "1", "--max-size", "1"),
    ]
    + [
        ("torus", "extract", "--ell", "2", "--nu", "1", "--modulus", "4",
         "--hom", "1,2,3", "--window", "2"),
        ("torus", "extract", "--ell", "2", "--nu", "2", "--modulus", "2",
         "--hom", "1,0,1,1", "--window", "2"),
        ("torus", "check-chevalley", "--ell", "2", "--nu", "1", "--modulus", "4",
         "--window", "1"),
        ("torus", "check-diagonal", "--ell", "2", "--nu", "1", "--modulus", "4",
         "--hom", "1,2,3", "--window", "1"),
        # the largest torus checks of the benchmark
        ("torus", "check-chevalley", "--ell", "2", "--nu", "2", "--modulus", "2",
         "--window", "2"),
        ("torus", "check-diagonal", "--ell", "2", "--nu", "2", "--modulus", "2",
         "--hom", "1,0,1,1", "--window", "2"),
        # a larger window, and a rank-3 torus with a mixed homomorphism
        ("torus", "check-chevalley", "--ell", "2", "--nu", "2", "--modulus", "2",
         "--window", "3"),
        ("torus", "check-diagonal", "--ell", "3", "--nu", "2", "--modulus", "3",
         "--hom", "1,2,0,1,1", "--window", "2"),
    ]
    # the text format of a passing report, a failing one and a torus extraction
    + [
        ("--format", "text", "info", "specs/a3_nu2.json", "--window", "1"),
        ("--format", "text", "char-extend", *CEX, "--window", "1"),
        ("--format", "text", "torus", "extract", "--ell", "2", "--nu", "1",
         "--modulus", "4", "--hom", "1,2,3", "--window", "2"),
    ]
)


def run(argv: tuple[str, ...]) -> dict:
    """Exit code and stdout sha256 of one command; spec paths are repo-relative."""
    args = [str(ROOT / a) if a.startswith("specs/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_bytes_unchanged(golden, argv):
    assert run(argv) == golden[" ".join(argv)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(
        json.dumps({" ".join(a): run(a) for a in COMMANDS}, indent=1, sort_keys=True) + "\n"
    )
