import json
from pathlib import Path

import pytest

from ears.finite import FiniteType
from ears.lattice import IntLattice, Semilattice
from ears.system import EarsSpec, build_ears

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def load_spec_file(name):
    with open(SPEC_DIR / name) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def affine_a1():
    return build_ears(EarsSpec.rank_one(1, Semilattice.standard(1)))


@pytest.fixture(scope="session")
def a1_nu2_full():
    return build_ears(EarsSpec.rank_one(2, Semilattice.standard(2)))


@pytest.fixture(scope="session")
def a1_nu2_three_coset():
    s = Semilattice(IntLattice.standard(2), ((0, 0), (1, 0), (0, 1)))
    return build_ears(EarsSpec.rank_one(2, s))


@pytest.fixture(scope="session")
def a2_nu1():
    return build_ears(EarsSpec.simply_laced(FiniteType("A", 2), 1))


@pytest.fixture(scope="session")
def a2_nu2():
    return build_ears(EarsSpec.simply_laced(FiniteType("A", 2), 2))


@pytest.fixture(scope="session")
def b2_affine():
    return build_ears(
        EarsSpec(FiniteType("B", 2), 1, 0, s1=Semilattice.standard(0), s2=Semilattice.standard(1))
    )


@pytest.fixture(scope="session")
def b2_nu2_twisted():
    return build_ears(
        EarsSpec(FiniteType("B", 2), 2, 1, s1=Semilattice.standard(1), s2=Semilattice.standard(1))
    )


@pytest.fixture(scope="session")
def counterexample_char():
    from ears.characters import build_a1_counterexample

    return build_a1_counterexample(6)
