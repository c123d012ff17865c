"""Benchmark for the ears toolkit.

    python3 bench/run.py --workload {verify,torus_extend} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout.  The workload's inputs are generated
from the seed (bench/gen.py) under .bench_work/, then its tasks run one at a
time, each in a fresh process: the real `ears` CLI, or bench/child.py for
the library calls.  That is a closed loop with a single client.  Tasks run
one full pass, then repeats chosen to steady the reported medians while
they are expected to fit in S seconds.

Before each task a fixed reference workload (bench/reference.py) is timed
in a fresh process.  The host's speed drifts by tens of percent from minute
to minute, and the reference drifts with it, so the end-to-end times are
reported at a fixed nominal speed: they are scaled by reference.NOMINAL_S
over the run's median reference time.  Raw wall times are printed as well.
The runner and every process it starts are pinned to one CPU.

Every execution is checked (bench/oracle.py) and counts as failed unless its
verdict, its report and its independent re-check are right.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
listed in BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).  Lines before it give the same numbers for people, plus
failed_frac, per-task medians and per-group pass times and layer shares.

With --trace 1 every task runs twice per pass, untraced then traced, so the
tracing overhead is measured on interleaved executions.

    python3 bench/run.py --record

re-records bench/expected.json from one pass of every workload at the
default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import gen
import oracle
import reference
import trace_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".bench_work")
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 0
TASK_TIMEOUT_S = 120
# Layers whose self time each task group is meant to load most.
PREDICTED = {
    "verify": ("system", "characters"),
    "torus": ("torus",),
    "extend": ("lattice", "weyl", "characters"),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], out: Path, env: dict) -> tuple[float, int, int]:
    """Run argv to completion with stdout in `out`; return (seconds, exit code, peak RSS KiB)."""
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh_out, stderr=fh_err, env=env)
        timer = threading.Timer(TASK_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


class Run:
    """One benchmark run: executes tasks, checks them and keeps the samples."""

    def __init__(self, seed: int, tasks: list[dict], expected: dict | None, work: Path,
                 expected_seed: int = DEFAULT_SEED):
        self.seed = seed
        self.tasks = tasks
        self.expected = expected
        self.expected_seed = expected_seed
        self.work = work
        self.env = _env()
        self.seconds = {False: defaultdict(list), True: defaultdict(list)}
        self.refs: list[float] = []
        self.rss_kb: list[int] = []
        self.setup_s: list[float] = []
        self.digests: dict[str, bytes] = {}
        self.summaries: dict[str, list[dict]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _argv(self, task: dict, trace_out: Path | None) -> list[str]:
        child = [sys.executable, str(BENCH / "child.py")]
        if trace_out is not None:
            child += ["--trace", str(trace_out), "--task-id", task["id"]]
        if "argv" in task:
            if trace_out is None:
                return [sys.executable, "-m", "ears.cli"] + task["argv"]
            return child + ["cli"] + task["argv"]
        return child + [task["lib"], task["input"]]

    def execute(self, task: dict, traced: bool) -> None:
        tid = task["id"]
        out = self.work / "out" / f"{tid}.{'traced' if traced else 'plain'}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        trace_out = self.work / "trace" / f"{tid}.json" if traced else None
        if trace_out is not None:
            trace_out.unlink(missing_ok=True)
        seconds, code, rss = run_process(self._argv(task, trace_out), out, self.env)
        stdout = out.read_bytes()
        expected = None
        if self.expected is not None:
            expected = dict(self.expected[tid], seed=self.expected_seed)
        problems = oracle.check(task, code, stdout, expected, self.seed)
        first = self.digests.setdefault(tid, stdout)
        if stdout != first:
            problems.append("stdout differs from an earlier repeat in this run")
        if traced and not trace_out.exists():
            problems.append("the traced process wrote no trace")
        elif traced:
            summary = json.loads(trace_out.read_text())
            earlier = self.summaries[tid]
            if earlier and (summary["counts"], summary["maxima"]) != (
                earlier[0]["counts"], earlier[0]["maxima"]
            ):
                problems.append("traced work counts differ between repeats")
            earlier.append(summary)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{tid}: " + "; ".join(problems))
        self.seconds[traced][tid].append(seconds)
        if not traced:
            self.rss_kb.append(rss)

    def probe_setup(self, timed: bool = True) -> None:
        """One set-up probe in a fresh interpreter (see setup_probe.py)."""
        plan = self.work / "setup_plan.json"
        if not plan.exists():
            plan.write_text(json.dumps(gen.setup_plan(self.tasks), indent=2, sort_keys=True))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(plan)],
            capture_output=True, env=self.env, timeout=TASK_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError("set-up probe failed:\n" + proc.stderr.decode(errors="replace"))
        if timed:
            self.setup_s.append(float(proc.stdout))

    def time_reference(self) -> float:
        """One reference in a fresh process, which keeps this process small.

        A child's peak RSS from os.wait4 counts this process's peak at the
        time of exec, so a large reference here would inflate `peak_rss_mb`.
        """
        proc = subprocess.run([sys.executable, str(BENCH / "reference.py")],
                              capture_output=True, env=self.env, timeout=TASK_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("reference failed:\n" + proc.stderr.decode(errors="replace"))
        return float(proc.stdout)

    def pass_order(self) -> list[dict]:
        """The largest task, half the others, the largest again, the rest.

        Timing the largest task twice per pass, at spread-out moments, keeps
        `slowest_task_s` from resting on one sample of a drifting machine.
        """
        largest = next(t for t in self.tasks if t["largest"])
        others = [t for t in self.tasks if not t["largest"]]
        half = (len(others) + 1) // 2
        return [largest] + others[:half] + [largest] + others[half:]

    def measure(self, seconds: float, trace: bool) -> None:
        """One full pass over the tasks, then chosen repeats while time is left.

        Each execution slot starts with a reference and a set-up probe.
        Spreading the probes over the run lets their median see the same
        machine as the tasks do.  The first probe, untimed, warms the
        bytecode cache.  A last reference closes the run.  Every raw sample
        is kept in samples.json in the work directory.
        """
        modes = (False, True) if trace else (False,)
        self.probe_setup(timed=False)
        self.time_reference()
        deadline = time.perf_counter() + seconds
        for task in self.pass_order():
            self._slot(task, modes)
        while (task := self._next_task(deadline, modes)) is not None:
            self._slot(task, modes)
        self.refs.append(self.time_reference())
        samples = {"refs": self.refs, "setup": self.setup_s,
                   "tasks": {str(traced): self.seconds[traced] for traced in modes}}
        (self.work / "samples.json").write_text(json.dumps(samples, indent=1))

    def _slot(self, task: dict, modes: tuple[bool, ...]) -> None:
        self.refs.append(self.time_reference())
        self.probe_setup()
        for traced in modes:
            self.execute(task, traced)

    def _next_task(self, deadline: float, modes: tuple[bool, ...]) -> dict | None:
        """The repeat that most steadies the end-to-end times per second spent.

        A task with median time t and n samples adds about (t / W)**2 / n to
        the relative variance of `wall_s`, where W is the sum of the task
        medians.  The largest task adds 1 / n more, to that of
        `slowest_task_s`.  One more sample cuts that term by a share of
        1 / (n + 1) and costs t plus the slot's reference and probe.  Only
        tasks that still fit before the deadline qualify; None when none does.
        """
        medians = {
            t["id"]: sum(statistics.median(self.seconds[m][t["id"]]) for m in modes)
            for t in self.tasks
        }
        total = sum(medians.values())
        overhead = statistics.median(self.setup_s) + statistics.median(self.refs)
        left = deadline - time.perf_counter() - overhead
        best, best_gain = None, 0.0
        for task in self.tasks:
            t = medians[task["id"]]
            if t > left:
                continue
            n = len(self.seconds[False][task["id"]])
            weight = (t / total) ** 2 + (1.0 if task["largest"] else 0.0)
            gain = weight / (n * (n + 1)) / (t + overhead)
            if gain > best_gain:
                best, best_gain = task, gain
        return best

    def speed(self) -> float:
        """Nominal over the run's median reference time: below 1 on a slow machine."""
        return reference.NOMINAL_S / statistics.median(self.refs)

    def pass_seconds(self, traced: bool, group: str | None = None) -> float:
        """Sum of per-task median times, over the tasks of `group` or all tasks."""
        return sum(
            statistics.median(self.seconds[traced][t["id"]])
            for t in self.tasks
            if group in (None, t["group"]) and self.seconds[traced][t["id"]]
        )

    def end_to_end(self) -> dict:
        """End-to-end metrics; times are scaled to the nominal machine speed."""
        largest = next(t["id"] for t in self.tasks if t["largest"])
        speed = self.speed()
        return {
            "wall_s": self.pass_seconds(False) * speed,
            "slowest_task_s": statistics.median(self.seconds[False][largest]) * speed,
            "setup_s": statistics.median(self.setup_s) * speed,
            "peak_rss_mb": max(self.rss_kb) / 1024,
        }

    def self_times(self, group: str | None = None) -> dict[str, float]:
        """Per-function self time per pass: per-task medians summed over tasks."""
        self_s: dict[str, float] = defaultdict(float)
        for task in self.tasks:
            summaries = self.summaries.get(task["id"])
            if not summaries or group not in (None, task["group"]):
                continue
            for name in {n for s in summaries for n in s["self_s"]}:
                self_s[name] += statistics.median(s["self_s"].get(name, 0.0) for s in summaries)
        return self_s

    def layer_self(self, group: str | None = None) -> dict[str, float]:
        self_s = self.self_times(group)
        return {
            layer: sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            for layer in trace_calls.LAYERS
        }

    def per_layer(self) -> dict:
        """Per-pass totals over tasks: median self times, exact counts."""
        self_s = self.self_times()
        counts: dict[str, int] = defaultdict(int)
        maxima: dict[str, int] = defaultdict(int)
        for summaries in self.summaries.values():
            for name, value in summaries[0]["counts"].items():
                counts[name] += value
            for name, value in summaries[0]["maxima"].items():
                maxima[name] = max(maxima[name], value)

        def ratio(num: str, den: str) -> float:
            return counts[num] / counts[den] if counts[den] else 0.0

        metrics: dict[str, float] = {}
        for layer, names in trace_calls.SPANNED.items():
            for name in names:
                full = f"{layer}.{name}"
                metrics[full + ".self_s"] = self_s[full]
                metrics[full + ".calls"] = counts[full + ".calls"]
        for layer, methods in trace_calls.COUNTED.items():
            for cls, meth in methods:
                full = f"{layer}.{cls}.{meth}.calls"
                metrics[full] = counts[full]
        for name in ("lattice.solve_mod.rows", "system.enumerate_roots.roots",
                     "system.root_strings.pairs", "weyl.orbit_closure.orbit_roots",
                     "characters.pairs_checked"):
            metrics[name] = counts[name]
        metrics["lattice.snf.max_rows"] = maxima["lattice.snf.max_rows"]
        metrics["system.classify.root_ratio"] = ratio("system.classify.roots",
                                                      "system.Ears.classify.calls")
        metrics["characters.pairs_useful_ratio"] = ratio("characters.pairs_checked",
                                                         "characters.pairs_attempted")
        metrics["torus.bracket.nonzero_ratio"] = ratio("torus.bracket.nonzero",
                                                       "torus.bracket.calls")
        layer_self = self.layer_self()
        total = sum(layer_self.values())
        for layer in trace_calls.LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
            metrics[f"{layer}.self_share"] = layer_self[layer] / total if total else 0.0
            metrics[f"{layer}.errors"] = counts[f"{layer}.errors"]
        metrics["trace.wall_s"] = self.pass_seconds(True)
        metrics["trace.overhead_s"] = self.pass_seconds(True) - self.pass_seconds(False)
        return metrics


def report_layers(group: str, layer_self: dict[str, float]) -> None:
    """Print a task group's self-time shares and whether its predicted layers dominate."""
    total = sum(layer_self.values())
    for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"group {group} layer {layer}: self {secs:.3f} s, "
              f"share {secs / total if total else 0.0:.3f}")
    predicted = PREDICTED[group]
    top = max(layer_self, key=layer_self.get)
    share = sum(layer_self[p] for p in predicted) / total if total else 0.0
    held = top in predicted and share > 0.5
    print(f"prediction: {'+'.join(predicted)} dominate the {group} tasks: "
          f"{'held' if held else 'did not hold'} (top layer {top}, "
          f"predicted share {share:.3f})")


def _check_program() -> None:
    for need in ("src/ears/__init__.py", "specs", "BENCHMARK.json"):
        if not (ROOT / need).exists():
            raise BenchError(f"{need} is missing: run from a full checkout of the repository")


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _prepare(workload: str, seed: int) -> tuple[Path, list[dict]]:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tasks = gen.generate(workload, seed, work / "inputs", ROOT)
    return work, tasks


def record() -> int:
    """Write expected.json from one checked pass of each workload at the default seed."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in gen.WORKLOADS:
        work, tasks = _prepare(workload, DEFAULT_SEED)
        run = Run(DEFAULT_SEED, tasks, None, work)
        entries = {}
        for task in tasks:
            run.execute(task, traced=False)
            stdout = run.digests[task["id"]]
            entries[task["id"]] = {
                "sha256": oracle.sha256(stdout),
                "invariants": oracle.invariants(task, json.loads(stdout)),
            }
        if run.failed:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        out["workloads"][workload] = entries
        print(f"recorded {workload}: {len(entries)} tasks")
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ears benchmark")
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/expected.json at the default seed")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running task is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and every child: the host's vCPUs drift in speed
    # independently, so the reference gauges the tasks only on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        _check_program()
        os.chdir(ROOT)
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        expected_all = json.loads(EXPECTED.read_text())
        expected = expected_all["workloads"][args.workload]
        work, tasks = _prepare(args.workload, args.seed)
        run = Run(args.seed, tasks, expected, work, expected_all["seed"])
        run.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for tid, samples in run.seconds[False].items():
        traced = run.seconds[True].get(tid)
        extra = f"  traced {statistics.median(traced):.3f} s" if traced else ""
        print(f"task {tid}: {len(samples)} runs, median {statistics.median(samples):.3f} s{extra}")
    print(f"reference: {len(run.refs)} runs, median {statistics.median(run.refs):.4f} s "
          f"(min {min(run.refs):.4f}, max {max(run.refs):.4f}; nominal {reference.NOMINAL_S} s); "
          f"times scale by {run.speed():.4f}")
    for line in run.problems:
        print(f"FAILED {line}")
    print(f"failed_frac = {run.failed / run.attempted} ({run.failed} of {run.attempted})")

    groups = list(dict.fromkeys(t["group"] for t in tasks))
    for group in groups:
        print(f"group {group}: pass {run.pass_seconds(False, group):.3f} s raw")
    if args.trace:
        values = run.per_layer()
        declared = _declared("per_layer")
        for group in groups:
            report_layers(group, run.layer_self(group))
    else:
        values = run.end_to_end()
        declared = _declared("end_to_end")
    missing = set(declared) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    for name, unit in declared.items():
        print(f"{name} = {values[name]} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
