import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from functools import cache

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import ears.cli
import ears.system
from ears.cli import main
from ears.system import Classes, EarsSpec

import fraction_reference
from conftest import SPEC_DIR, load_spec_file

AFFINE = str(SPEC_DIR / "affine_a1.json")
CEX_SPEC = str(SPEC_DIR / "counterexample_nu6.json")
CEX_CHAR = str(SPEC_DIR / "counterexample_nu6_char.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestInfo:
    def test_affine(self, capsys):
        code, report = run(capsys, "info", AFFINE, "--window", "3")
        assert code == 0
        assert report["invariants"]["ind_R"] == 0
        assert report["invariants"]["refl_R"] == 2
        assert all(c["passed"] for c in report["checks"].values())

    def test_refl_oracle(self, capsys):
        code, report = run(capsys, "info", AFFINE, "--window", "3", "--refl-oracle")
        assert code == 0
        assert report["invariants"]["refl_search"] == 2
        assert report["invariants"]["refl_matches"] is True

    def test_refl_oracle_counterexample_prunes(self, capsys):
        # at window 0 the pool members in the window's classes do not span
        # the lattice, so the search tests no subset
        start = time.monotonic()
        code, report = run(capsys, "info", CEX_SPEC, "--window", "0", "--refl-oracle")
        assert time.monotonic() - start < 5
        assert code == 1
        assert report["invariants"]["refl_search"] is None
        assert report["invariants"]["refl_matches"] is False

    def test_three_coset_index(self, capsys):
        code, report = run(
            capsys, "info", str(SPEC_DIR / "a1_nu2_three_coset.json"), "--window", "2"
        )
        assert code == 0
        assert report["invariants"]["ind_R"] == 0
        assert report["invariants"]["refl_R"] == 3

    def test_full_lattice_index(self, capsys):
        code, report = run(
            capsys, "info", str(SPEC_DIR / "a1_nu2_full.json"), "--window", "2"
        )
        assert code == 0
        assert report["invariants"]["ind_R"] == 1

    def test_b2_untwisted(self, capsys):
        code, report = run(
            capsys, "info", str(SPEC_DIR / "b2_nu1_untwisted.json"), "--window", "2"
        )
        assert code == 0
        assert report["invariants"]["ind_R"] == 0

    def test_missing_file(self, capsys):
        assert main(["info", "no_such_file.json"]) == 2

    def test_invalid_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "A", "rank": 2, "nullity": 1}')
        assert main(["info", str(bad)]) == 2

    def test_text_format(self, capsys):
        code = main(["--format", "text", "info", AFFINE])
        assert code == 0
        out = capsys.readouterr().out
        assert "command: info" in out
        assert "[pass]" in out


class TestCharCommands:
    def test_verify_counterexample(self, capsys):
        code, report = run(capsys, "char-verify", CEX_SPEC, CEX_CHAR, "--window", "1")
        assert code == 0
        assert report["checks"]["character"]["passed"]

    def test_extend_counterexample_unsat(self, capsys):
        code, report = run(capsys, "char-extend", CEX_SPEC, CEX_CHAR, "--window", "1")
        assert code == 1
        assert report["extendable"] is False
        assert report["witness_recheck"]["passed"] is True
        assert report["witness"]

    def test_extend_hom_sat(self, capsys, tmp_path):
        char = {
            "modulus": 4,
            "rule": {
                "kind": "hom",
                "basis": [[1, 0], [0, 1]],
                "values": [1, 2],
            },
        }
        path = tmp_path / "hom.json"
        path.write_text(json.dumps(char))
        code, report = run(capsys, "char-extend", AFFINE, str(path), "--window", "2")
        assert code == 0
        assert report["extendable"] is True
        assert report["hom"]["rule"]["kind"] == "hom"

    def test_corrupted_table_fails(self, capsys, tmp_path):
        from ears.characters import standard_hom_character, TableRule, Character
        from ears.system import EarsSpec, Window, build_ears, enumerate_roots

        e = build_ears(EarsSpec.from_json(json.load(open(AFFINE))))
        hom = standard_hom_character(e, (1, 1), 2)
        entries = [
            [r, hom.eval(r).exponent] for r in enumerate_roots(e, Window(2))
        ]
        entries[0][1] ^= 1
        table = Character(e, 2, TableRule(2, tuple((r, x) for r, x in entries)))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_json()))
        code, report = run(capsys, "char-verify", AFFINE, str(path), "--window", "2")
        assert code == 1
        failures = report["checks"]["character"]["additivity_failures"]
        inverse = report["checks"]["character"]["inverse_failures"]
        assert failures or inverse


class TestCounterexampleCommand:
    def test_writes_files(self, capsys, tmp_path):
        spec_out = tmp_path / "spec.json"
        char_out = tmp_path / "char.json"
        code, report = run(
            capsys,
            "counterexample",
            "--nullity",
            "6",
            "--out-spec",
            str(spec_out),
            "--out-char",
            str(char_out),
        )
        assert code == 0
        assert json.loads(spec_out.read_text())["type"] == "A"
        assert json.loads(char_out.read_text())["modulus"] == 2
        # emitted files reproduce the shipped ones
        assert json.loads(spec_out.read_text()) == json.load(open(CEX_SPEC))

    def test_bad_taus(self, capsys, tmp_path):
        taus = tmp_path / "taus.json"
        taus.write_text(json.dumps([[1, 0], [0, 1], [1, 1]]))
        code = main(
            ["counterexample", "--nullity", "2", "--taus", str(taus),
             "--out-spec", str(tmp_path / "s.json"), "--out-char", str(tmp_path / "c.json")]
        )
        assert code == 2


class TestWeyl:
    BASE = '[{"finite":[1],"iso":[0]},{"finite":[-1],"iso":[1]}]'

    def test_orbit(self, capsys):
        code, report = run(
            capsys, "weyl", AFFINE, "orbit", "--base", self.BASE, "--window", "2"
        )
        assert code == 0
        assert report["orbit_size"] == 10

    def test_check_covered(self, capsys):
        code, report = run(
            capsys, "weyl", AFFINE, "check", "--base", self.BASE, "--window", "3"
        )
        assert code == 0
        assert report["covered"] is True

    def test_check_uncovered_fails(self, capsys):
        code, report = run(
            capsys, "weyl", AFFINE, "check",
            "--base", '[{"finite":[1],"iso":[0]}]', "--window", "2",
        )
        assert code == 1
        assert report["missing"]

    def test_minsize(self, capsys):
        code, report = run(capsys, "weyl", AFFINE, "minsize", "--window", "3")
        assert code == 0
        assert report["minimal_size"] == 2

    def test_decompose(self, capsys):
        code, report = run(
            capsys, "weyl", AFFINE, "decompose",
            "--base", self.BASE, "--target", '[{"finite":[1],"iso":[1]}]',
            "--window", "3",
        )
        assert code == 0
        assert report["prefixes_are_roots"] is True
        assert len(report["terms"]) == 3

    def test_decompose_zero_root_is_the_empty_word(self, capsys):
        code, report = run(
            capsys, "weyl", AFFINE, "decompose",
            "--base", self.BASE, "--target", '[{"finite":null,"iso":[0]}]',
            "--window", "3",
        )
        assert code == 0
        assert report["terms"] == []
        assert report["prefixes_are_roots"] is True

    @pytest.mark.parametrize(
        "base, target",
        [
            ('[{"finite":[1,7,7],"iso":[0]},{"finite":[-1],"iso":[1]}]',
             '[{"finite":[1,5],"iso":[1]}]'),
            ('[{"finite":[1],"iso":[0]},{"finite":[-1],"iso":[1]}]',
             '[{"finite":[1.5],"iso":[1]}]'),
        ],
    )
    def test_malformed_finite_part_rejected(self, capsys, base, target):
        code = main(
            ["weyl", AFFINE, "decompose", "--base", base, "--target", target,
             "--window", "3"]
        )
        assert code == 2
        assert "cannot parse roots" in capsys.readouterr().err

    def test_decompose_needs_target(self, capsys):
        code = main(["weyl", AFFINE, "decompose", "--base", self.BASE])
        assert code == 2


class TestTorus:
    def test_check_chevalley(self, capsys):
        code, report = run(
            capsys, "torus", "check-chevalley",
            "--ell", "2", "--nu", "1", "--modulus", "2", "--window", "1",
        )
        assert code == 0
        assert all(c["passed"] for c in report["checks"].values())

    def test_check_diagonal(self, capsys):
        code, report = run(
            capsys, "torus", "check-diagonal",
            "--ell", "2", "--nu", "1", "--modulus", "4",
            "--hom", "1,2,3", "--window", "1",
        )
        assert code == 0

    def test_extract(self, capsys):
        code, report = run(
            capsys, "torus", "extract",
            "--ell", "2", "--nu", "1", "--modulus", "2",
            "--hom", "1,0,1", "--window", "1",
        )
        assert code == 0
        assert report["extraction"]["core_multiplicativity"] is True
        assert report["character"]["rule"]["kind"] == "table"

    def test_invalid_rank(self, capsys):
        code = main(
            ["torus", "check-chevalley", "--ell", "1", "--nu", "1", "--modulus", "2"]
        )
        assert code == 2


USAGE_HEAD = "ears info specs/affine_a1.json --window 3 --refl-oracle"


def readme_usage_lines() -> list[list[str]]:
    """README's usage block, one argv per line, `\\` continuations joined."""
    text = (SPEC_DIR.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    block = next(b for b in blocks if b.startswith(USAGE_HEAD))
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_usage_block_runs(capsys, tmp_path, monkeypatch):
    """Each command of README's usage block runs as written: `char-extend` on
    the counterexample exits 1 with a witness, every other line exits 0.  The
    block runs in a temporary directory, where `counterexample` writes its
    two files."""
    monkeypatch.chdir(tmp_path)
    lines = readme_usage_lines()
    assert [argv[:2] for argv in lines].count(["ears", "char-extend"]) == 3
    for argv in lines:
        assert argv[0] == "ears", argv
        args = [str(SPEC_DIR.parent / a) if a.startswith("specs/") else a for a in argv[1:]]
        assert main(args) == (1 if args[0] == "char-extend" else 0), argv
        capsys.readouterr()
    assert (tmp_path / "spec.json").is_file() and (tmp_path / "char.json").is_file()


def exit_code(argv):
    """Exit code of the CLI, whether it returns one or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def assert_input_error(capsys, argv):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


class TestExitContract:
    @pytest.mark.parametrize(
        "case", ["negative_window", "taus_not_vectors", "out_spec_missing_dir", "same_out_path"]
    )
    def test_bad_input_exits_2_with_error_line(self, capsys, tmp_path, case):
        """Bad input exits 2 with an error line and writes no output file."""
        taus = tmp_path / "taus.json"
        taus.write_text("[1, 2]")
        argv = {
            "negative_window": ["info", AFFINE, "--window", "-1"],
            "taus_not_vectors": [
                "counterexample", "--taus", str(taus),
                "--out-spec", str(tmp_path / "s.json"),
                "--out-char", str(tmp_path / "c.json"),
            ],
            "out_spec_missing_dir": [
                "counterexample",
                "--out-spec", str(tmp_path / "missing" / "s.json"),
                "--out-char", str(tmp_path / "c.json"),
            ],
            # one file by two spellings: the character would overwrite the spec
            "same_out_path": [
                "counterexample",
                "--out-spec", str(tmp_path / "out.json"),
                "--out-char", str(tmp_path / "." / "out.json"),
            ],
        }[case]
        assert_input_error(capsys, argv)
        assert [p.name for p in tmp_path.iterdir()] == ["taus.json"]

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.randoms(use_true_random=False))
    def test_dense_lattice_basis_answers(self, capsys, tmp_path, rng):
        """A valid spec answers whatever basis writes its lattice down.  An A1
        spec whose S has a random nonsingular 7 x 7 basis with entries in
        [-9, 9], and 0 and the basis columns as representatives, runs
        `info --window 0` with exit 0.  Solved through a Smith form, whose
        entries grow without bound, half such bases took seconds or more."""
        basis = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]
        assume(fraction_reference.det(basis) != 0)
        reps = [[0] * 7] + [list(column) for column in zip(*basis)]
        spec = {"type": "A", "rank": 1, "nullity": 7,
                "S": {"dim": 7, "lattice_basis": basis, "reps": reps}}
        capsys.readouterr()
        code = main(["info", _spec_file(tmp_path, spec), "--window", "0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["command"] == "info"

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["info", str(SPEC_DIR / "a3_nu2.json"), "--window", "1"], 0, id="info"),
        pytest.param(["--format", "text", "info", AFFINE, "--window", "1"], 0, id="info-text"),
        pytest.param(["char-extend", CEX_SPEC, CEX_CHAR, "--window", "1"], 1, id="char-extend"),
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["info", "--help"], 0, id="info-help"),
    ])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_keeps_the_verdict(self, argv, code, buffered):
        """A reader that closes stdout early (`| head -1`) leaves the exit code
        of the verdict, with no traceback and no "Exception ignored" line,
        whether the report is written by `print` or by the final flush.  The
        help leaves through argparse's exit, before any command runs, so it
        writes nothing to stderr."""
        env = dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src"), PYTHONUNBUFFERED="1")
        if buffered:
            del env["PYTHONUNBUFFERED"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "ears.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == code, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "" if "--help" in argv else err.startswith("elapsed:"), err


TOO_LARGE = "99999999999999999999"  # above sys.maxsize
_TORUS = {"--ell": "2", "--nu": "1", "--modulus": "2", "--window": "1"}


def _limit_address_space():
    """Run in the child only: 1 GiB of address space, so a path that tries to
    enumerate a huge range fails fast instead of growing."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    pytest.param(["info", AFFINE, "--window", TOO_LARGE], id="info-window"),
    pytest.param(["char-verify", CEX_SPEC, CEX_CHAR, "--window", TOO_LARGE],
                 id="char-verify-window"),
    *[pytest.param(["torus", "check-chevalley", *(x for k, v in _TORUS.items()
                                                  for x in (k, TOO_LARGE if k == flag else v))],
                   id=f"torus{flag}")
      for flag in _TORUS],
    pytest.param(["counterexample", "--nullity", TOO_LARGE], id="counterexample-nullity"),
])
def test_integer_above_maxsize_exits_2(tmp_path, argv):
    """No OverflowError traceback and no unbounded loop: exit 2 with an error line."""
    assert_input_error_capped(tmp_path, argv)
    assert not list(tmp_path.iterdir())


def assert_input_error_capped(cwd, argv):
    """The CLI in a child process capped at 1 GiB of address space exits 2
    with an error line, no traceback and nothing on stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from ears.cli import main; sys.exit(main())", *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SPEC_DIR.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    # at most sys.maxsize, but a coordinate range of 2b + 1 values is not
    pytest.param(["info", AFFINE, "--window", str(sys.maxsize)], id="info-window"),
    pytest.param(["info", AFFINE, "--window", str(sys.maxsize // 2 + 1)], id="info-window-half"),
    pytest.param(["char-verify", CEX_SPEC, CEX_CHAR, "--window", str(sys.maxsize)],
                 id="char-verify-window"),
    # these fit every bound but not in memory
    pytest.param(["info", AFFINE, "--window", str(sys.maxsize // 2)], id="info-window-largest"),
    pytest.param(["torus", "check-chevalley", "--ell", "2", "--nu", "1",
                  "--modulus", "10000000000", "--window", "1"], id="torus-modulus"),
    pytest.param(["info", "cex30.json", "--window", "1"], id="info-nullity-30"),
])
def test_too_large_to_enumerate_exits_2(tmp_path, capsys, argv):
    """No OverflowError or MemoryError traceback: exit 2 with an error line."""
    spec, char = tmp_path / "cex30.json", tmp_path / "cex30_char.json"
    assert main(["counterexample", "--nullity", "30",
                 "--out-spec", str(spec), "--out-char", str(char)]) == 0
    capsys.readouterr()
    assert_input_error_capped(tmp_path, argv)
    assert sorted(tmp_path.iterdir()) == [spec, char]


class TestCharVerifyInput:
    @pytest.fixture
    def extracted(self, capsys):
        """Table character of an A2 torus diagonal map, extracted at window 1."""
        code, report = run(
            capsys, "torus", "extract", "--ell", "2", "--nu", "1", "--modulus", "2",
            "--hom", "1,0,1", "--window", "1",
        )
        assert code == 0
        return report["character"]

    def test_table_smaller_than_window(self, capsys, tmp_path, extracted):
        path = tmp_path / "char.json"
        path.write_text(json.dumps(extracted))
        assert_input_error(
            capsys, ["char-verify", str(SPEC_DIR / "a2_nu1.json"), str(path)]
        )

    def test_table_missing_entry(self, capsys, tmp_path, extracted):
        del extracted["rule"]["entries"][0]
        path = tmp_path / "char.json"
        path.write_text(json.dumps(extracted))
        assert_input_error(
            capsys,
            ["char-verify", str(SPEC_DIR / "a2_nu1.json"), str(path), "--window", "1"],
        )

    @pytest.mark.parametrize("command", ["char-verify", "char-extend"])
    @pytest.mark.parametrize("case", ["repeated_root", "non_root"])
    def test_table_ambiguous_entry(self, capsys, tmp_path, command, case):
        char = _affine_character("table")
        entries = char["rule"]["entries"]
        if case == "repeated_root":
            root = next(ent["root"] for ent in entries if ent["exponent"] == 0)
            entries.append({"root": root, "exponent": 1})
        else:
            entries.append({"root": {"finite": [3], "iso": [0]}, "exponent": 0})
        path = tmp_path / "char.json"
        path.write_text(json.dumps(char))
        assert_input_error(capsys, [command, AFFINE, str(path), "--window", "1"])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("modulus", 2.0),
            ("modulus", True),
            ("basis entry", 1.0),
            ("values entry", 1.5),
            ("values entry", "a"),
            ("table window", "1"),
            ("exponent", 0.0),
            ("exponent", False),
            ("root coordinate", float("inf")),
            ("root coordinate", 1.0),
        ],
    )
    def test_non_integer_field(self, capsys, tmp_path, field, value):
        table_fields = ("table window", "exponent", "root coordinate")
        char = _affine_character("table" if field in table_fields else "hom")
        rule = char["rule"]
        if field == "modulus":
            char["modulus"] = value
        elif field == "basis entry":
            rule["basis"][0][0] = value
        elif field == "values entry":
            rule["values"][0] = value
        elif field == "table window":
            rule["window"] = value
        elif field == "exponent":
            rule["entries"][0]["exponent"] = value
        else:
            rule["entries"][0]["root"]["iso"][0] = value
        path = tmp_path / "char.json"
        path.write_text(json.dumps(char))
        assert_input_error(capsys, ["char-verify", AFFINE, str(path), "--window", "1"])

    @pytest.mark.parametrize(
        "kind, where, key, value",
        [
            ("a1coset", (), "Modulus", 3),
            ("a1coset", ("rule",), "values", [1]),
            ("hom", ("rule",), "window", 3),
            ("table", ("rule", "entries", 0), "weight", 1),
            ("table", ("rule", "entries", 0, "root"), "Iso", [0]),
        ],
        ids=["character", "a1coset_rule", "hom_rule", "table_entry", "root"],
    )
    def test_unknown_key_rejected(self, capsys, tmp_path, kind, where, key, value):
        """A misspelt or misplaced key is bad input, not dropped."""
        char = _affine_character(kind)
        obj = char
        for step in where:
            obj = obj[step]
        obj[key] = value
        path = tmp_path / "char.json"
        path.write_text(json.dumps(char))
        assert_input_error(capsys, ["char-verify", AFFINE, str(path), "--window", "1"])


@cache
def _affine_table() -> str:
    from ears.characters import Character, TableRule, standard_hom_character
    from ears.system import EarsSpec, Window, build_ears, enumerate_roots

    e = build_ears(EarsSpec.from_json(json.load(open(AFFINE))))
    hom = standard_hom_character(e, (1, 1), 2)
    entries = tuple((r, hom.eval(r).exponent) for r in enumerate_roots(e, Window(1)))
    return json.dumps(Character(e, 2, TableRule(1, entries)).to_json())


def _affine_character(kind: str) -> dict:
    """A fresh, valid character of the affine A1 spec, of the given rule kind."""
    if kind == "table":
        return json.loads(_affine_table())
    if kind == "hom":
        return {"modulus": 4, "rule": {"kind": "hom", "basis": [[1, 0], [0, 1]],
                                       "values": [1, 2]}}
    return {"modulus": 2, "rule": {"kind": "a1coset"}}


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _replace_leaf(obj, path, value):
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value


LEAF_REPLACEMENTS = st.one_of(
    st.text(max_size=3),
    st.floats(),
    st.none(),
    st.integers(max_value=-1),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), min_size=1, max_size=2),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["hom", "table", "a1coset"]), st.data())
def test_character_json_leaf_fuzz(capsys, tmp_path, kind, data):
    """One corrupted leaf: exit 0, 1 with a witness, or 2 with an error line."""
    char = _affine_character(kind)
    _replace_leaf(char, data.draw(st.sampled_from(sorted(_leaf_paths(char), key=repr))),
                  data.draw(LEAF_REPLACEMENTS))
    char_file = tmp_path / "char.json"
    char_file.write_text(json.dumps(char))
    capsys.readouterr()
    code = main(["char-verify", AFFINE, str(char_file), "--window", "1"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err
        return
    report = json.loads(out)
    if code == 1:
        failed = [c for c in report["checks"].values() if not c["passed"]]
        assert failed
        assert all(c["additivity_failures"] or c["inverse_failures"] for c in failed)


def _load_spec(name: str) -> dict:
    return json.loads((SPEC_DIR / name).read_text())


def _spec_file(tmp_path, spec: dict) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestSpecInput:
    """Spec fields hold JSON integers; anything else is bad input, never truncated."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (("S", "reps", 1, 0), 1.5),
            (("S", "lattice_basis", 0, 0), 1.7),
            (("S", "lattice_basis", 0, 0), "1"),
            (("nullity",), True),
            (("rank",), 1.5),
            (("nullity",), 1.0),
        ],
    )
    def test_non_integer_field(self, capsys, tmp_path, path, value):
        spec = _load_spec("affine_a1.json")
        _replace_leaf(spec, path, value)
        assert_input_error(capsys, ["info", _spec_file(tmp_path, spec), "--window", "1"])

    def test_semilattice_form_needs_type_a1(self, capsys, tmp_path):
        spec = _load_spec("affine_a1.json")
        spec["type"], spec["rank"] = "B", 2
        assert_input_error(capsys, ["info", _spec_file(tmp_path, spec), "--window", "1"])

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("affine_a1.json", {"twist": 1}),
            ("affine_a1.json", {"lattice": {"basis": [[1]], "dim": 1}}),
            ("a2_nu1.json", {"S1": _load_spec("b2_nu1_untwisted.json")["S1"],
                             "S2": _load_spec("b2_nu1_untwisted.json")["S2"],
                             "twist": 0}),
            ("affine_a1.json", {"Lattice": {"dim": 1, "basis": [[2]]}}),
        ],
        ids=["a1_twist", "a1_lattice", "lattice_components", "a1_misspelt_form"],
    )
    def test_ambiguous_forms_rejected(self, capsys, tmp_path, name, extra):
        """A spec naming a second form, a key outside its type's form, or a twist
        outside the twisted form, is bad input rather than read by one form with
        the rest dropped."""
        spec = {**_load_spec(name), **extra}
        assert_input_error(capsys, ["info", _spec_file(tmp_path, spec), "--window", "1"])

    @pytest.mark.parametrize(
        "name, form, key, value",
        [("affine_a1.json", "S", "Reps", [[0], [3]]),
         ("a2_nu1.json", "lattice", "lattice_basis", [[2]])],
        ids=["semilattice", "lattice"],
    )
    def test_unknown_key_in_form_rejected(self, capsys, tmp_path, name, form, key, value):
        """A key a form object does not take is bad input, not dropped."""
        spec = _load_spec(name)
        spec[form][key] = value
        assert_input_error(capsys, ["info", _spec_file(tmp_path, spec), "--window", "0"])

    @pytest.mark.parametrize(
        "spec",
        [[1, 2], {"type": "A", "rank": 2, "nullity": 1, "lattice": [1]}],
        ids=["top_level_list", "lattice_list"],
    )
    def test_non_object_rejected(self, capsys, tmp_path, spec):
        assert_input_error(capsys, ["info", _spec_file(tmp_path, spec), "--window", "1"])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["affine_a1.json", "a2_nu1.json", "b2_nu2_twist1.json"]), st.data())
def test_spec_json_leaf_fuzz(capsys, tmp_path, name, data):
    """One corrupted spec leaf: exit 0 on a spec that reads back exactly as written,
    or 2 with an error line.  A truncated or coerced value would read back changed."""
    spec = _load_spec(name)
    _replace_leaf(spec, data.draw(st.sampled_from(sorted(_leaf_paths(spec), key=repr))),
                  data.draw(LEAF_REPLACEMENTS))
    capsys.readouterr()
    code = main(["info", _spec_file(tmp_path, spec), "--window", "1"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert "error:" in err
        return
    read_back = EarsSpec.from_json(spec).to_json()
    assert json.dumps(read_back, sort_keys=True) == json.dumps(spec, sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("info", AFFINE, "--window", "2"),
            ("char-verify", CEX_SPEC, CEX_CHAR, "--window", "1"),
            ("weyl", AFFINE, "minsize", "--window", "2"),
        ],
    )
    def test_byte_identical_runs(self, capsys, argv):
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second


class TestDigest:
    """The CLI takes sha256 from the builtin module that `hashlib` falls back
    to, and must give `hashlib`'s digest."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=1 << 12))
    def test_random_bytes(self, raw):
        assert ears.cli.sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize("path", sorted(SPEC_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_shipped_spec(self, path):
        assert ears.cli._read_json(str(path))[1] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        ("info", CEX_SPEC, "--window", "1"),
        ("char-verify", CEX_SPEC, CEX_CHAR, "--window", "1"),
        ("char-extend", CEX_SPEC, CEX_CHAR, "--window", "1"),
    ],
)
def test_one_window_enumeration_per_command(monkeypatch, capsys, argv):
    """A command enumerates the window roots once and groups them once."""
    calls = {"enumerate_roots": 0, "Classes.of_roots": 0}
    enumerate_roots = ears.system.enumerate_roots
    of_roots = Classes.of_roots.__func__

    def counted_enumerate(*args):
        calls["enumerate_roots"] += 1
        return enumerate_roots(*args)

    def counted_of_roots(cls, *args):
        calls["Classes.of_roots"] += 1
        return of_roots(cls, *args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ears" and getattr(module, "enumerate_roots", None) is enumerate_roots:
            monkeypatch.setattr(module, "enumerate_roots", counted_enumerate)
    monkeypatch.setattr(Classes, "of_roots", classmethod(counted_of_roots))
    assert main(list(argv)) in (0, 1)
    capsys.readouterr()
    assert calls == {"enumerate_roots": 1, "Classes.of_roots": 1}


class TestBenchChild:
    """The library calls the benchmark's child process makes, run as it runs them."""

    def child(self, tmp_path, kind, obj):
        task = tmp_path / "task.json"
        task.write_text(json.dumps(obj))
        root = SPEC_DIR.parent
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "child.py"), kind, str(task)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, json.loads(proc.stdout)

    def test_roundtrip(self, tmp_path):
        values, m = [1, 0, 1], 2
        code, report = self.child(
            tmp_path,
            "roundtrip",
            {"spec": load_spec_file("a2_nu1.json"), "modulus": m, "values": values, "window": 1},
        )
        assert code == 0
        assert set(report) == {"basis", "values", "roots"}
        for row in report["roots"]:
            assert row[-1] == sum(x * v for x, v in zip(row, values)) % m

    def test_solve_mod_unsat(self, tmp_path):
        code, report = self.child(
            tmp_path, "solve_mod", {"rows": [[1, 0], [0, 2]], "rhs": [1, 1], "modulus": 2}
        )
        assert code == 1
        assert set(report) == {"sat", "certificate"}
        assert report["sat"] is False


# -- argv fuzz ---------------------------------------------------------------

# Specs whose checks finish in milliseconds at windows up to 1.  The
# counterexample is drawn by `info` and `char-verify` at windows up to 2, where
# each takes under a second, and by `char-extend` at windows up to 1.  `info`
# draws it with `--refl-oracle` only at window 0: its base search is
# exponential at larger windows.
SMALL_SPECS = [
    str(SPEC_DIR / name)
    for name in ("affine_a1.json", "a1_nu2_three_coset.json", "a2_nu1.json",
                 "b2_nu1_untwisted.json", "g2_nu1.json")
]


def _tokens(valid: str, invalid: str):
    """One option value, valid at least three times in four."""
    return st.sampled_from(valid.split() * 6 + invalid.split() + ["x", "1.5", ""])


WINDOWS = _tokens("0 1", "-1")
CEX_WINDOWS = _tokens("0 1 2", "-1")
ELLS = _tokens("2 3", "1 -1")
NUS = _tokens("0 1 2", "-1")
MODULI = _tokens("1 2 3 4", "0 -3")
NULLITIES = _tokens("2 6 7", "0 -1")
MAX_SIZES = _tokens("1 2 3", "0 -1")
EXPONENTS = _tokens("0 1 2 3", "-1")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files for the argv fuzz: valid, corrupted, malformed and missing."""
    d = tmp_path_factory.mktemp("fuzz")

    def put(name, text):
        (d / name).write_text(text)
        return str(d / name)

    table = json.loads(_affine_table())
    table["rule"]["entries"][0]["exponent"] += 1
    affine = _load_spec("affine_a1.json")
    no_twist = _load_spec("b2_nu1_untwisted.json")
    del no_twist["twist"]
    specs = {
        "float_spec.json": {**affine, "nullity": 1.5},
        "list_spec.json": [1, 2],
        "lattice_list.json": {"type": "A", "rank": 2, "nullity": 1, "lattice": [1]},
        "string_form.json": {**affine, "S": "S"},
        "unknown_key.json": {**affine, "Lattice": {"dim": 1, "basis": [[2]]}},
        "no_twist.json": no_twist,
    }
    return {
        "chars": [
            CEX_CHAR,
            put("hom.json", json.dumps(_affine_character("hom"))),
            put("coset.json", json.dumps(_affine_character("a1coset"))),
            put("table.json", _affine_table()),
            put("table_bad.json", json.dumps(table)),
            put("garbage.json", "{not json"),
            str(d / "missing.json"),
        ],
        "specs": [put(name, json.dumps(spec)) for name, spec in specs.items()]
        + [str(d / "missing.json")],
        "taus": [
            put("taus.json", "[[1, 0], [0, 1]]"),
            put("taus_sum.json", "[[1, 0], [0, 1], [1, 1]]"),
            put("taus_flat.json", "[1, 2]"),
            put("taus_float.json", "[[1.0, 0]]"),
        ],
        "out": [str(d / "out_a.json"), str(d / "no_dir" / "out.json")],
    }


BASES = st.sampled_from([
    '[{"finite":[1],"iso":[0]},{"finite":[-1],"iso":[1]}]',
    '[{"finite":[1],"iso":[0]}]',
    '[{"finite":null,"iso":[0]}]',
    '[{"finite":[1,0],"iso":[0]},{"finite":[0,1],"iso":[0]},{"finite":[1,0],"iso":[1]}]',
    '[{"finite":[1.5],"iso":[0]}]',
    '[{"finite":[1]}]',
    "[",
    "[]",
    "7",
])
TARGETS = st.sampled_from([
    '[{"finite":[1],"iso":[1]}]',
    '[{"finite":[1],"iso":[5]}]',
    '[{"finite":[1],"iso":[1]},{"finite":[1],"iso":[0]}]',
    '[{"finite":null,"iso":[2]}]',
    "[]",
])


@st.composite
def cli_argv(draw, files):
    """An argv for one command, each option present or not, values valid or not.

    --window and --max-size are always given and drawn small, because their
    defaults (2 and 6) start long enumerations on some inputs.
    """
    def maybe(*tokens):
        return list(tokens) if draw(st.sampled_from([True] * 11 + [False])) else []

    window = ["--window", draw(WINDOWS)]
    command = draw(st.sampled_from(
        ["info", "char-verify", "char-extend", "counterexample", "weyl", "torus", "bogus"]
    ))
    if command == "info":
        spec = draw(st.sampled_from(SMALL_SPECS + [CEX_SPEC] + files["specs"]))
        if spec == CEX_SPEC:
            window = draw(CEX_WINDOWS)
            oracle = maybe("--refl-oracle") if window == "0" else []
            return ["info", spec, "--window", window, *oracle]
        return ["info", spec, *window, *maybe("--refl-oracle")]
    if command in ("char-verify", "char-extend"):
        # the affine A1 spec is the one the character files are written for
        spec = draw(st.sampled_from([AFFINE] * 4 + SMALL_SPECS + [CEX_SPEC] + files["specs"]))
        if spec == CEX_SPEC and command == "char-verify":
            window = ["--window", draw(CEX_WINDOWS)]
        return [command, spec, draw(st.sampled_from(files["chars"])), *window]
    if command == "counterexample":
        return [
            "counterexample",
            *maybe("--nullity", draw(NULLITIES)),
            *maybe("--taus", draw(st.sampled_from(files["taus"]))),
            "--out-spec", draw(st.sampled_from(files["out"])),
            "--out-char", files["out"][0],
        ]
    if command == "weyl":
        spec = draw(st.sampled_from([AFFINE] * 3 + SMALL_SPECS + files["specs"]))
        action = draw(st.sampled_from(["orbit", "check", "minsize", "decompose", "spin"]))
        return [
            "weyl", spec, action, *window,
            *maybe("--base", draw(BASES)),
            *maybe("--target", draw(TARGETS)),
            "--max-size", draw(MAX_SIZES),
        ]
    if command == "torus":
        action = draw(st.sampled_from(["check-chevalley", "check-diagonal", "extract", "flip"]))
        ell, nu = draw(ELLS), draw(NUS)
        valid = ell.lstrip("-").isdigit() and nu.lstrip("-").isdigit()
        size = max(int(ell) + int(nu), 0) if valid else 0
        hom = ",".join(draw(st.lists(EXPONENTS, min_size=size, max_size=size + 1)))
        return [
            "torus", action, *window,
            *maybe("--ell", ell),
            *maybe("--nu", nu),
            *maybe("--modulus", draw(MODULI)),
            *maybe("--hom", hom),
        ]
    return [command, *window]


def carries_witness(report: dict) -> bool:
    """Does an exit-1 report name what failed?"""
    command = report["command"]
    if command == "char-extend":
        return bool(report["witness"]) and report["witness_recheck"]["passed"]
    if command == "weyl-check":
        return bool(report["missing"])
    if command == "weyl-minsize":
        return report["minimal_size"] is None and "subsets_tested" in report
    if command == "weyl-decompose":
        return report["prefixes_are_roots"] is False and "terms" in report
    if command == "torus-extract":
        return False in report["extraction"].values()
    failed = [c for c in report.get("checks", {}).values() if not c["passed"]]
    named = all(
        c.get("failures") or c.get("additivity_failures") or c.get("inverse_failures")
        or c.get("components_connected") is False
        for c in failed
    )
    if command == "info" and report["invariants"].get("refl_matches") is False:
        return named and "refl_search" in report["invariants"]
    return bool(failed) and named


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exit_contract(fuzz_files, data):
    """Exit 0, 1 with a witness, or 2 with an error line; never a traceback."""
    argv = data.draw(cli_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exit_code(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
    else:
        report = json.loads(out.getvalue())
        if code == 1:
            assert carries_witness(report), (argv, report)
