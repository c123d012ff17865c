"""Call wrappers for the traced benchmark run.

`install(tracer)` replaces the public functions of each `ears` layer with
wrappers that record a span (id, name, start, end, parent, task id) and a
call count, in the defining module and in every `ears` module that imported
the same object.  Hot methods get counting wrappers with no span, so their
time stays with the enclosing span.  Spans live in memory until `dump`.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Hooks read work
counts from arguments and return values (rows, roots, pairs, orbit sizes).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("lattice", "finite", "system", "weyl", "characters", "torus", "cli")

SPANNED = {
    "lattice": ("snf", "solve_mod", "det", "sum_semilattices"),
    "finite": ("build_finite",),
    "system": ("build_ears", "enumerate_roots", "verify_axioms", "invariants",
               "check_compatibility"),
    "weyl": ("orbit_closure", "check_reflectable", "decompose_all"),
    "characters": ("verify_character", "verify_core_character", "extendability",
                   "extend_ind_zero", "character_from_json", "recheck_witness"),
    "torus": ("build_torus", "bracket", "verify_automorphism", "trace_form",
              "extract_core_character", "chevalley", "diagonal_from_hom"),
    "cli": ("main",),
}

# Counts only: these run hundreds of thousands of times per task.
COUNTED = {
    "system": (("Ears", "classify"), ("Ears", "add")),
    "characters": (("Character", "eval"),),
    "torus": (("CycScalar", "__mul__"),),
}


class Tracer:
    """Spans and counters of one task process."""

    def __init__(self, task_id: str):
        self.task_id = task_id
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.last_roots = (0, 0)  # (window roots, non-isotropic) of the latest enumeration
        self._stack: list[list] = []
        self._next_id = 0

    def spanned(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        errors = layer + ".errors"
        calls = name + ".calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[errors] += 1
                raise
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((sid, name, start, end, parent, self.task_id))
                self.counts[calls] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, not_a_root=None):
        """Count calls; with `not_a_root`, also count results that are root classes."""
        layer = name.split(".", 1)[0]
        errors = layer + ".errors"
        calls = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            if not_a_root is not None and result is not not_a_root:
                counts["system.classify.roots"] += 1
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the summary to `path` and the spans next to it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {
            "task": self.task_id,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "open_spans": len(self._stack),
        }
        path.write_text(json.dumps(summary, sort_keys=True))
        with open(path.with_suffix(".spans.json"), "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "task"],
                       "spans": self.spans}, fh)


def _snf_hook(t: Tracer, args, result) -> None:
    t.maxima["lattice.snf.max_rows"] = max(t.maxima["lattice.snf.max_rows"], len(args[0]))


def _solve_hook(t: Tracer, args, result) -> None:
    t.counts["lattice.solve_mod.rows"] += len(args[0])


def _enumerate_hook(t: Tracer, args, result) -> None:
    noniso = sum(1 for r in result if r.finite is not None)
    t.last_roots = (len(result), noniso)
    t.counts["system.enumerate_roots.roots"] += len(result)


def _axioms_hook(t: Tracer, args, result) -> None:
    t.counts["system.root_strings.pairs"] += result.checks["root_strings"]["pairs"]


def _orbit_hook(t: Tracer, args, result) -> None:
    t.counts["weyl.orbit_closure.orbit_roots"] += len(result)


def _pairs_hook(core: bool):
    # The pair loop enumerates the window first and nothing inside it
    # enumerates again, so `last_roots` belongs to this call.
    def hook(t: Tracer, args, result) -> None:
        total, noniso = t.last_roots
        t.counts["characters.pairs_attempted"] += (noniso if core else total) * total
        t.counts["characters.pairs_checked"] += result.pairs_checked

    return hook


def _bracket_hook(t: Tracer, args, result) -> None:
    if result.terms:
        t.counts["torus.bracket.nonzero"] += 1


HOOKS = {
    "lattice.snf": _snf_hook,
    "lattice.solve_mod": _solve_hook,
    "system.enumerate_roots": _enumerate_hook,
    "system.verify_axioms": _axioms_hook,
    "weyl.orbit_closure": _orbit_hook,
    "characters.verify_character": _pairs_hook(core=False),
    "characters.verify_core_character": _pairs_hook(core=True),
    "torus.bracket": _bracket_hook,
}


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method of the `ears` layers."""
    modules = {layer: importlib.import_module(f"ears.{layer}") for layer in LAYERS}
    everywhere = list(modules.values()) + [importlib.import_module("ears")]
    for layer, names in SPANNED.items():
        for fname in names:
            orig = getattr(modules[layer], fname)
            full = f"{layer}.{fname}"
            wrapped = tracer.spanned(full, orig, HOOKS.get(full))
            for mod in everywhere:
                if getattr(mod, fname, None) is orig:
                    setattr(mod, fname, wrapped)
    not_a_root = modules["system"].RootClass.NOT_A_ROOT
    for layer, methods in COUNTED.items():
        for cls_name, meth in methods:
            cls = getattr(modules[layer], cls_name)
            full = f"{layer}.{cls_name}.{meth}"
            watch = not_a_root if full == "system.Ears.classify" else None
            setattr(cls, meth, tracer.counted(full, getattr(cls, meth), watch))
