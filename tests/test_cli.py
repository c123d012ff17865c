import json

import pytest

from ears.cli import main

from conftest import SPEC_DIR

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
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


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
