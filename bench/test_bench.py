"""Self-tests of the benchmark: seeded inputs, oracles with negative controls, tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle
import run

ROOT = run.ROOT


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _files(directory: Path) -> dict[str, bytes]:
    if not directory.exists():  # torus tasks take argv only
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _generate(tmp_path: Path, workload: str, seed: int, tag: str):
    out = tmp_path / tag
    tasks = gen.generate(workload, seed, out, ROOT)
    return tasks, _files(out)


def _shape(obj):
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [len(obj)] + ([_shape(obj[0])] if obj else [])
    return type(obj).__name__


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    tasks_a, files_a = _generate(tmp_path, workload, 5, "a")
    tasks_b, files_b = _generate(tmp_path, workload, 5, "a")
    assert files_a == files_b
    assert tasks_a == tasks_b


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seeds_change_values_not_sizes(tmp_path, workload):
    tasks_a, files_a = _generate(tmp_path, workload, 0, "a")
    tasks_b, files_b = _generate(tmp_path, workload, 1, "b")
    assert files_a.keys() == files_b.keys()
    assert [t["id"] for t in tasks_a] == [t["id"] for t in tasks_b]
    for name in files_a:
        assert _shape(json.loads(files_a[name])) == _shape(json.loads(files_b[name])), name
    seeded = [name for name in files_a if files_a[name] != files_b[name]]
    assert seeded
    assert any(a.get("argv") != b.get("argv") for a, b in zip(tasks_a, tasks_b))


def test_rows_are_the_whole_window_two_counterexample():
    spec = gen.counterexample_spec(__import__("random").Random(0))
    rows, rhs = gen.counterexample_rows(spec["S"]["reps"], 2)
    assert len(rows) == len(set(rows)) == 16563
    assert set(rhs) == {0, 1}


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, capture_output=True, env=run._env(),
                          timeout=120)


def _task(workload: str, tid: str, tmp_path: Path, seed: int = 0) -> dict:
    tasks = gen.generate(workload, seed, tmp_path / f"{workload}-{seed}", ROOT)
    return next(t for t in tasks if t["id"] == tid)


def _execute(task: dict) -> tuple[int, bytes]:
    if "argv" in task:
        proc = _child(["-m", "ears.cli"] + task["argv"])
    else:
        proc = _child([str(run.BENCH / "child.py"), task["lib"], task["input"]])
    return proc.returncode, proc.stdout


def _tampered(stdout: bytes, edit) -> bytes:
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report, indent=2, sort_keys=True).encode() + b"\n"


def _bump_first_exponent(report):
    entry = report["character"]["rule"]["entries"][0]
    entry["exponent"] = (entry["exponent"] + 1) % 4


TAMPER = {
    ("torus_extend", "extract-2-1-4"): _bump_first_exponent,
    ("torus_extend", "solve-sat"): lambda r: r["solution"].__setitem__(0, r["solution"][0] + 1),
    ("torus_extend", "solve-unsat"): lambda r: r.__setitem__(
        "certificate", [2 * x for x in r["certificate"]]),
    ("torus_extend", "roundtrip-a2-nu1"): lambda r: r["roots"][-1].__setitem__(
        -1, r["roots"][-1][-1] + 1),
    ("torus_extend", "char-extend"): lambda r: r["witness"][0].__setitem__(
        "coeff", r["witness"][0]["coeff"] + 2),
    ("verify", "info-affine_a1"): lambda r: r["root_counts"].__setitem__(
        "window_total", r["root_counts"]["window_total"] + 1),
}


@pytest.mark.parametrize("workload,tid", sorted(TAMPER))
def test_tampered_report_fails_its_oracle(tmp_path, workload, tid):
    task = _task(workload, tid, tmp_path)
    expected_all = json.loads(run.EXPECTED.read_text())
    expected = dict(expected_all["workloads"][workload][tid], seed=expected_all["seed"])
    code, stdout = _execute(task)
    assert oracle.check(task, code, stdout, expected, 0) == []
    bad = _tampered(stdout, TAMPER[(workload, tid)])
    assert oracle.check(task, code, bad, expected, 0)
    assert oracle.check(task, 1 - code, stdout, expected, 0)


def test_tampered_execution_counts_as_failed(tmp_path, monkeypatch):
    work, tasks = tmp_path / "work", gen.generate("torus_extend", 0, tmp_path / "in", ROOT)
    task = next(t for t in tasks if t["id"] == "extract-2-1-4")
    expected = json.loads(run.EXPECTED.read_text())["workloads"]["torus_extend"]
    real = run.run_process

    def tampering(argv, out, env):
        result = real(argv, out, env)
        out.write_bytes(_tampered(out.read_bytes(), _bump_first_exponent))
        return result

    r = run.Run(0, [task], expected, work)
    r.execute(task, traced=False)
    assert (r.attempted, r.failed) == (1, 0)
    monkeypatch.setattr(run, "run_process", tampering)
    r.execute(task, traced=False)
    assert (r.attempted, r.failed) == (2, 1)


def _traced_counts(task: dict, out: Path) -> dict:
    args = [str(run.BENCH / "child.py"), "--trace", str(out), "--task-id", task["id"]]
    if "argv" in task:
        args += ["cli"] + task["argv"]
    else:
        args += [task["lib"], task["input"]]
    proc = _child(args)
    assert proc.returncode == task["expect_exit"], proc.stderr
    summary = json.loads(out.read_text())
    assert summary["open_spans"] == 0
    spans = json.loads(out.with_suffix(".spans.json").read_text())["spans"]
    assert spans and all(s[5] == task["id"] for s in spans)
    return summary["counts"], summary["maxima"]


@pytest.mark.parametrize("workload,tid", [
    ("torus_extend", "check-diagonal-2-1-4-0"),
    ("torus_extend", "extract-2-1-4"),
    ("torus_extend", "roundtrip-a2-nu1"),
    ("verify", "char-verify-hom"),
])
def test_traced_work_counts_repeat_across_seeds(tmp_path, workload, tid):
    first = _traced_counts(_task(workload, tid, tmp_path, 0), tmp_path / "t0.json")
    second = _traced_counts(_task(workload, tid, tmp_path, 7), tmp_path / "t7.json")
    if tid.startswith("extract"):
        # Reading an exponent off the action tries multiples of zeta in turn,
        # so the number of group-ring products depends on the seeded values.
        for counts, _ in (first, second):
            counts.pop("torus.CycScalar.__mul__.calls")
    assert first == second
    assert first[0]


def test_tracing_leaves_stdout_unchanged(tmp_path):
    task = _task("torus_extend", "extract-2-1-4", tmp_path)
    _, plain = _execute(task)
    args = [str(run.BENCH / "child.py"), "--trace", str(tmp_path / "t.json"), "cli"]
    traced = _child(args + task["argv"]).stdout
    assert traced == plain


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert b'"metrics"' not in proc.stdout


def test_expected_covers_every_task(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    for workload in gen.WORKLOADS:
        tasks = gen.generate(workload, 0, tmp_path / workload, ROOT)
        assert sorted(t["id"] for t in tasks) == sorted(expected["workloads"][workload])
        assert sum(t["largest"] for t in tasks) == 1


def test_every_declared_metric_is_measured(tmp_path):
    r = run.Run(0, [], None, tmp_path)
    r.seconds[False]["t"] = [1.0]
    r.seconds[True]["t"] = [1.5]
    r.refs = [run.reference.NOMINAL_S]
    r.rss_kb = [2048]
    r.setup_s = [0.1]
    r.summaries["t"] = [{"self_s": {"torus.bracket": 0.5}, "counts": {}, "maxima": {}}]
    r.tasks = [{"id": "t", "group": "torus", "largest": True}]
    layer_metrics = r.per_layer()
    assert set(run._declared("per_layer")) <= set(layer_metrics)
    assert set(run._declared("end_to_end")) <= set(r.end_to_end())
    assert layer_metrics["trace.overhead_s"] == 0.5
    assert layer_metrics["torus.self_share"] == 1.0


def test_times_scale_with_the_run_median_reference(tmp_path):
    r = run.Run(0, [{"id": "t", "group": "verify", "largest": True}], None, tmp_path)
    nominal = run.reference.NOMINAL_S
    # Most references ran at half the nominal speed, one at full speed.
    r.refs = [nominal, 2 * nominal, 2 * nominal]
    r.seconds[False]["t"] = [2.0, 2.0, 4.0]
    r.rss_kb = [1024]
    r.setup_s = [0.2, 0.2, 0.4]
    assert r.speed() == 0.5
    metrics = r.end_to_end()
    assert metrics["wall_s"] == metrics["slowest_task_s"] == 1.0
    assert metrics["setup_s"] == 0.1
    assert run.reference.seconds() > 0
