import pytest

from extsym.fields import RATIONALS
from extsym.instances import (a2_catalog, a2_modules, a2_preprojective,
                              a2_sums, three_vertex_algebra,
                              three_vertex_simples, two_loop_modules)
from extsym.modules import Catalog, direct_sum, module_from_fractions


@pytest.fixture(scope="session")
def a2():
    alg = a2_preprojective()
    mods = a2_modules(alg)
    return alg, mods


@pytest.fixture(scope="session")
def a2_cat(a2):
    alg, _ = a2
    return a2_catalog(alg, 4)


@pytest.fixture(scope="session")
def a2_all_sums(a2):
    alg, _ = a2
    return a2_sums(alg, 3)


@pytest.fixture(scope="session")
def three_vertex():
    alg = three_vertex_algebra()
    return alg, three_vertex_simples(alg)


@pytest.fixture(scope="session")
def three_vertex_catalog(three_vertex):
    """The simples of the three-vertex algebra and a named catalog of S1,
    S2, the nonsplit extension E of S2 by S1, and S1+S2: the category of
    S1 and S2, in which Ext^1(S1, S2) = 1 and Ext^1(S2, S1) = 0."""
    alg, s = three_vertex
    e = module_from_fractions(alg, RATIONALS, {"1": 1, "2": 1, "3": 0},
                              {"a": [[1]]})
    return s, Catalog({"S1": s["S1"], "S2": s["S2"], "E": e,
                       "S1+S2": direct_sum(s["S1"], s["S2"])},
                      ("S1", "S2", "E"))


@pytest.fixture(scope="session")
def two_loop():
    return two_loop_modules()
