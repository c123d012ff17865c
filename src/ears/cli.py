"""Command-line front end: load JSON specs, run verifications, emit reports.

Reports are canonical JSON on stdout (stable key order, no timestamps), so a
run is byte-identical for identical inputs; elapsed time goes to stderr.
Exit codes: 0 all checks pass, 1 a check failed (witness included), 2 bad input.
Every ValueError a command raises is bad input, mapped to exit 2 in `main`; an
AssertionError is an internal fault and is not caught.
"""

from __future__ import annotations

# `system`, which every command runs, before the standard library: compiled
# first, it leaves peak RSS up to 0.3 MB lower (Python 3.11, no bytecode cache).
# Each handler imports the further layers it calls.
from .system import (
    EarsSpec,
    Window,
    build_ears,
    invariants,
    root_from_json,
    root_to_json,
    verify_axioms,
)

import argparse
import json
import os
import sys
import time

# The builtin sha256, hashlib's fallback: importing `hashlib` maps OpenSSL,
# about 4 ms and 3.6 MB per process, for one digest per input file.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # its name from Python 3.12
    except ImportError:
        from hashlib import sha256


def _read_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path: str, obj) -> None:
    try:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_spec(path: str):
    obj, digest = _read_json(path)
    try:
        spec = EarsSpec.from_json(obj)
        return build_ears(spec), digest
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid system spec {path}: {exc}") from exc


def _load_character(path: str, ears):
    from .characters import character_from_json

    obj, digest = _read_json(path)
    try:
        return character_from_json(ears, obj), digest
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid character file {path}: {exc}") from exc


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    print(f"command: {report['command']}")
    print(f"window:  {report.get('window', '-')}")
    for name, check in report.get("checks", {}).items():
        status = "pass" if check.get("passed", check.get("ok")) else "FAIL"
        print(f"  [{status}] {name}")
    for key, value in report.items():
        if key in ("command", "window", "checks", "inputs"):
            continue
        print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _flush_stdout() -> None:
    """Flush stdout.  When its reader has closed it early (`| head -1`), point
    it at devnull, so the interpreter's final flush succeeds quietly and the
    exit code stands."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _finish(report: dict, args, failed: bool) -> int:
    try:
        _emit(report, args.format)
    except BrokenPipeError:
        pass  # the reader closed stdout early; the verdict stands
    _flush_stdout()
    return 1 if failed else 0


def _reflectable_size(e, w: Window, max_size: int) -> int | None:
    from .weyl import minimal_reflectable_size

    return minimal_reflectable_size(e, w, max_size=max_size).size


def cmd_info(args) -> int:
    e, digest = _load_spec(args.spec)
    w = Window(args.window)
    inv = invariants(e)
    refl_matches = None
    if args.refl_oracle:
        size = _reflectable_size(e, w, inv["refl_R"] + 1)
        refl_matches = size == inv["refl_R"]
        inv.update(refl_search=size, refl_matches=refl_matches)
    axioms = verify_axioms(e, w)
    roots = axioms.roots
    report = {
        "command": "info",
        "inputs": {"spec_sha256": digest},
        "window": w.bound,
        "invariants": inv,
        "root_counts": {
            "window_total": len(roots),
            "window_nonisotropic": sum(1 for r in roots if r.finite is not None),
        },
        "checks": axioms.checks,
    }
    failed = not axioms.ok or refl_matches is False
    return _finish(report, args, failed)


def cmd_char_verify(args) -> int:
    from .characters import verify_character

    e, spec_digest = _load_spec(args.spec)
    c, char_digest = _load_character(args.char, e)
    w = Window(args.window)
    full = verify_character(c, w)
    core = full.core
    report = {
        "command": "char-verify",
        "inputs": {"spec_sha256": spec_digest, "char_sha256": char_digest},
        "window": w.bound,
        "checks": {
            "core_character": {"passed": core.ok, **core.to_json()},
            "character": {"passed": full.ok, **full.to_json()},
        },
    }
    return _finish(report, args, not (core.ok and full.ok))


def cmd_char_extend(args) -> int:
    from .characters import extendability, recheck_witness

    e, spec_digest = _load_spec(args.spec)
    c, char_digest = _load_character(args.char, e)
    w = Window(args.window)
    result = extendability(c, w)
    report = {
        "command": "char-extend",
        "inputs": {"spec_sha256": spec_digest, "char_sha256": char_digest},
        "window": w.bound,
        "extendable": result.sat,
    }
    if result.sat:
        report["hom"] = result.hom.to_json()
        return _finish(report, args, False)
    ok, detail = recheck_witness(c, result.witness)
    report["witness"] = result.witness_json(e)
    report["witness_recheck"] = {"passed": ok, **detail}
    return _finish(report, args, True)


def cmd_counterexample(args) -> int:
    from .characters import build_a1_counterexample

    if os.path.realpath(args.out_spec) == os.path.realpath(args.out_char):
        raise ValueError(f"--out-spec and --out-char name the same file {args.out_char}")
    taus = None
    digests = {}
    if args.taus:
        obj, digest = _read_json(args.taus)
        digests["taus_sha256"] = digest
        if not isinstance(obj, list) or not all(
            isinstance(t, list) and all(type(x) is int for x in t) for t in obj
        ):
            raise ValueError(f"{args.taus} must hold a JSON list of integer vectors")
        taus = [tuple(t) for t in obj]
    c = build_a1_counterexample(args.nullity, taus)
    _write_json(args.out_spec, c.ears.spec.to_json())
    _write_json(args.out_char, c.to_json())
    report = {
        "command": "counterexample",
        "inputs": digests,
        "nullity": args.nullity,
        "coset_count": c.ears.S.coset_count,
        "files": {"spec": args.out_spec, "char": args.out_char},
    }
    return _finish(report, args, False)


def _parse_roots(e, text: str):
    try:
        data = json.loads(text)
        return [root_from_json(e, obj) for obj in data]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot parse roots {text!r}: {exc}") from exc


def cmd_weyl(args) -> int:
    from .weyl import check_reflectable, decompose, minimal_reflectable_size, orbit_closure

    e, digest = _load_spec(args.spec)
    w = Window(args.window)
    if args.action != "minsize" and not args.base:
        raise ValueError(f"{args.action} requires --base")
    base = _parse_roots(e, args.base) if args.base else []
    report = {
        "command": f"weyl-{args.action}",
        "inputs": {"spec_sha256": digest},
        "window": w.bound,
        "base": [root_to_json(e, r) for r in base],
    }
    failed = False
    if args.action == "orbit":
        orbit = sorted(orbit_closure(e, base, w), key=e.sort_key)
        report["orbit_size"] = len(orbit)
        report["orbit"] = [root_to_json(e, r) for r in orbit]
    elif args.action == "check":
        res = check_reflectable(e, base, w)
        report["covered"] = res.covered
        report["missing"] = [root_to_json(e, r) for r in res.missing[:10]]
        failed = not res.covered
    elif args.action == "minsize":
        res = minimal_reflectable_size(e, w, args.max_size)
        report["search_space"] = res.search_space
        report["candidates"] = res.candidates
        report["subsets_tested"] = res.subsets_tested
        report["minimal_size"] = res.size
        if res.base is not None:
            report["base_found"] = [root_to_json(e, r) for r in res.base]
        failed = res.size is None
    else:
        if not args.target:
            raise ValueError("decompose requires --target")
        target = _parse_roots(e, args.target)
        if len(target) != 1:
            raise ValueError("--target must hold exactly one root")
        dec = decompose(e, target[0], base, w)
        ok = dec.verify(e, target[0])
        report["target"] = root_to_json(e, target[0])
        report["terms"] = [
            {"sign": sign, "root": root_to_json(e, r)} for sign, r in dec.terms
        ]
        report["prefixes_are_roots"] = ok
        failed = not ok
    return _finish(report, args, failed)


def cmd_torus(args) -> int:
    from .torus import (
        build_torus,
        chevalley,
        diagonal_from_hom,
        extract_core_character,
        verify_automorphism,
    )

    t = build_torus(args.ell, args.nu, args.modulus)
    w = Window(args.window)
    report = {
        "command": f"torus-{args.action}",
        "inputs": {},
        "window": w.bound,
        "parameters": {"ell": args.ell, "nu": args.nu, "modulus": args.modulus},
    }
    hom = None
    if args.action in ("check-diagonal", "extract"):
        if not args.hom:
            raise ValueError(f"{args.action} requires --hom")
        try:
            hom = [int(x) for x in args.hom.split(",")]
        except ValueError as exc:
            raise ValueError(f"cannot parse --hom {args.hom!r}") from exc
    if args.action == "extract":
        char, extraction = extract_core_character(t, diagonal_from_hom(t, hom), w)
        report["extraction"] = extraction
        report["character"] = char.to_json()
        failed = not all(
            v is True or not isinstance(v, bool) for v in extraction.values()
        )
    else:
        a = chevalley(t) if args.action == "check-chevalley" else diagonal_from_hom(t, hom)
        rep = verify_automorphism(t, a, w)
        report["checks"] = rep.checks
        failed = not rep.ok
    return _finish(report, args, failed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ears",
        description="Exact computations on extended affine root systems.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="invariants and axiom checks for a system spec")
    p.add_argument("spec")
    p.add_argument("--window", type=non_negative_int, default=2)
    p.add_argument(
        "--refl-oracle", action="store_true",
        help="cross-check the index formula by minimal reflectable search",
    )
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("char-verify", help="verify a character on a window")
    p.add_argument("spec")
    p.add_argument("char")
    p.add_argument("--window", type=non_negative_int, default=2)
    p.set_defaults(func=cmd_char_verify)

    p = sub.add_parser("char-extend", help="decide extendability to a lattice homomorphism")
    p.add_argument("spec")
    p.add_argument("char")
    p.add_argument("--window", type=non_negative_int, default=2)
    p.set_defaults(func=cmd_char_extend)

    p = sub.add_parser("counterexample", help="emit the non-extendable rank-one character")
    p.add_argument("--nullity", type=int, default=6)
    p.add_argument("--taus", help="JSON file with nonzero coset representatives")
    p.add_argument("--out-spec", default="counterexample_spec.json")
    p.add_argument("--out-char", default="counterexample_char.json")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("weyl", help="orbit, reflectability, minimal base, decomposition")
    p.add_argument("spec")
    p.add_argument("action", choices=("orbit", "check", "minsize", "decompose"))
    p.add_argument("--base", help="JSON list of roots (unused for minsize)")
    p.add_argument("--target", help="JSON list with one root (decompose)")
    p.add_argument("--window", type=non_negative_int, default=2)
    p.add_argument("--max-size", type=int, default=6)
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("torus", help="matrix-realization automorphism checks")
    p.add_argument("action", choices=("check-chevalley", "check-diagonal", "extract"))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--hom", help="comma-separated exponents, rank + nullity of them")
    p.add_argument("--window", type=non_negative_int, default=2)
    p.set_defaults(func=cmd_torus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        _flush_stdout()  # `--help` exits here, its text still in the buffer
        raise
    start = time.monotonic()
    try:
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the window, modulus or nullity is too large", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
