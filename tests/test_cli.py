import json
import os
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ears.cli import main
from ears.system import EarsSpec

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
        "case", ["negative_window", "taus_not_vectors", "out_spec_missing_dir"]
    )
    def test_bad_input_exits_2_with_error_line(self, capsys, tmp_path, case):
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
        }[case]
        assert_input_error(capsys, argv)


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
