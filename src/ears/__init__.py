"""Exact-arithmetic toolkit for extended affine root systems and their characters."""

from .finite import FiniteRootSystem, FiniteType, build_finite
from .lattice import IntLattice, Semilattice, snf, solve_mod, sum_semilattices
from .system import (
    Ears,
    EarsSpec,
    Root,
    RootClass,
    Window,
    build_ears,
    enumerate_roots,
    invariants,
    verify_axioms,
)
from .characters import (
    Character,
    build_a1_counterexample,
    extend_ind_zero,
    extendability,
    verify_character,
    verify_core_character,
)
from .weyl import (
    check_reflectable,
    decompose,
    minimal_reflectable_size,
    orbit_closure,
    reflect,
)
from .torus import (
    LieTorus,
    build_torus,
    bracket,
    chevalley,
    compose,
    diagonal_from_hom,
    extract_core_character,
    verify_automorphism,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "Ears",
    "EarsSpec",
    "FiniteRootSystem",
    "FiniteType",
    "IntLattice",
    "LieTorus",
    "Root",
    "RootClass",
    "Semilattice",
    "Window",
    "bracket",
    "build_a1_counterexample",
    "build_ears",
    "build_finite",
    "build_torus",
    "check_reflectable",
    "chevalley",
    "compose",
    "decompose",
    "diagonal_from_hom",
    "enumerate_roots",
    "extend_ind_zero",
    "extendability",
    "extract_core_character",
    "invariants",
    "minimal_reflectable_size",
    "orbit_closure",
    "reflect",
    "snf",
    "solve_mod",
    "sum_semilattices",
    "verify_automorphism",
    "verify_axioms",
    "verify_character",
    "verify_core_character",
]
