"""Built-in algebras and module catalogs used by the test battery and the
``selftest`` / ``audit`` commands.

Each constructor returns plain library objects over the rationals; callers
reduce to prime fields when counting points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .algebra import (AlgebraPresentation, arrow_path, build_preprojective,
                      make_quiver, relation)
from .fields import RATIONALS
from .modules import (RepModule, direct_sum_many, module_from_fractions,
                      simple_at_vertex)

QQ = RATIONALS


def a2_preprojective() -> AlgebraPresentation:
    """Doubled single-arrow quiver 1 -> 2 with the commutator relations."""
    base = make_quiver(("1", "2"), (("a", "1", "2"),))
    return build_preprojective(base, label="a2-preprojective")


def a2_modules(alg: AlgebraPresentation) -> Dict[str, RepModule]:
    """The four indecomposables: both simples and the two length-2 modules."""
    s1 = simple_at_vertex(alg, QQ, "1")
    s2 = simple_at_vertex(alg, QQ, "2")
    p1 = module_from_fractions(alg, QQ, {"1": 1, "2": 1},
                               {"a": [[1]], "a*": [[0]]})
    p2 = module_from_fractions(alg, QQ, {"1": 1, "2": 1},
                               {"a": [[0]], "a*": [[1]]})
    return {"S1": s1, "S2": s2, "P1": p1, "P2": p2}


def a2_sums(alg: AlgebraPresentation,
            max_total: int = 4) -> Dict[str, RepModule]:
    """All direct sums of the four indecomposables up to the given total
    dimension, keyed by a sorted sum label ("P1+S2" etc.)."""
    import itertools
    mods = a2_modules(alg)
    order = ["S1", "S2", "P1", "P2"]
    out: Dict[str, RepModule] = {}
    for r in range(1, max_total + 1):
        for combo in itertools.combinations_with_replacement(order, r):
            total = sum(mods[x].total_dim for x in combo)
            if total > max_total:
                continue
            label = "+".join(combo)
            out[label] = direct_sum_many(alg, QQ, [mods[x] for x in combo])
    return out


def a2_catalog(alg: AlgebraPresentation,
               max_total: int = 4) -> Dict[str, RepModule]:
    """Isomorphism classes keyed by label.  The algebra has exactly four
    indecomposables, so the direct sums up to the dimension cap exhaust the
    isomorphism classes of every covered dimension vector."""
    return a2_sums(alg, max_total)


def two_loop_algebra() -> AlgebraPresentation:
    """One vertex, loops x and y, single relation xy - yx."""
    q = make_quiver(("v",), (("x", "v", "v"), ("y", "v", "v")))
    rel = relation((Fraction(1), arrow_path("x", "y")),
                   (Fraction(-1), arrow_path("y", "x")))
    return AlgebraPresentation(q, (rel,), label="two-loop-commuting")


def two_loop_modules() -> Tuple[AlgebraPresentation, Dict[str, RepModule]]:
    """Commuting nilpotent pairs in dimension <= 2 (nilpotent so that the
    modules are supported at the vertex in the usual complete-local sense).

    N(a, b): x, y strictly upper triangular 2x2 with corners a, b."""
    alg = two_loop_algebra()
    mods: Dict[str, RepModule] = {}
    mods["S"] = module_from_fractions(alg, QQ, {"v": 1}, {"x": [[0]], "y": [[0]]})
    for a, b in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2),
                 (3, 1), (1, 3), (2, 3), (3, 2)]:
        mods[f"N({a},{b})"] = module_from_fractions(
            alg, QQ, {"v": 2},
            {"x": [[0, a], [0, 0]], "y": [[0, b], [0, 0]]})
    mods["S+S"] = module_from_fractions(
        alg, QQ, {"v": 2}, {"x": [[0, 0], [0, 0]], "y": [[0, 0], [0, 0]]})
    return alg, mods


def deformed_a2(lam1: Fraction = Fraction(1),
                lam2: Fraction = Fraction(-1)) -> AlgebraPresentation:
    """Doubled 1 -> 2 quiver with vertex-weighted commutator relations."""
    base = make_quiver(("1", "2"), (("a", "1", "2"),))
    return build_preprojective(base, weight={"1": lam1, "2": lam2},
                               label=f"a2-deformed({lam1},{lam2})")


def deformed_a2_module(a: Fraction) -> RepModule:
    """One-parameter family on dimension vector (1, 1): x_a = a,
    x_{a*} = -lam1/a (with the default weights, -1/a)."""
    if a == 0:
        raise ValueError("parameter must be nonzero")
    alg = deformed_a2()
    return module_from_fractions(alg, QQ, {"1": 1, "2": 1},
                                 {"a": [[a]], "a*": [[Fraction(-1, 1) / a]]})


def three_vertex_algebra() -> AlgebraPresentation:
    """Vertices 1, 2, 3; arrows a: 1->2, b: 2->3, b*: 3->2; relations
    b b* = 0 (at vertex 3) and b* b = 0 (at vertex 2)."""
    q = make_quiver(("1", "2", "3"),
                    (("a", "1", "2"), ("b", "2", "3"), ("b*", "3", "2")))
    r1 = relation((Fraction(1), arrow_path("b", "b*")))
    r2 = relation((Fraction(1), arrow_path("b*", "b")))
    return AlgebraPresentation(q, (r1, r2), label="three-vertex-one-sided")


def three_vertex_simples(alg: AlgebraPresentation) -> Dict[str, RepModule]:
    return {f"S{v}": simple_at_vertex(alg, QQ, v)
            for v in alg.quiver.vertices}
