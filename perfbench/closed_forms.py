"""Closed-form answers for the doubled-arrow instance, made without extsym.

The built-in doubled-arrow algebra is the preprojective algebra of A2:
arrows a: 1 -> 2 and a*: 2 -> 1 with a*a = 0 and aa* = 0.  It has four
indecomposables, S1, S2, P1 (top S1, socle S2) and P2 (top S2, socle S1),
and every module the benchmark uses is a direct sum of them, named by
its summands joined with "+" (the labels of ``instances.a2_sums``).

The tables below are what a reader can check by hand:

* each indecomposable has at most one submodule per dimension vector and
  at most one composition chain per type, so its Grassmannian and flag
  Euler characteristics are 0 or 1;
* the Euler characteristic of a variety of a direct sum is the
  convolution of the summands' tables (the torus scaling one summand has
  as fixed points exactly the split submodules and split chains);
* dim Ext^1(M, N) = hom(M, N) + hom(N, M) - (dim M, dim N), with ( , )
  the symmetrised Euler form of A2 (Crawley-Boevey's formula for
  preprojective algebras), and Hom additive over the 4 x 4 table.

Simple indices follow the simple list [S1, S2]: index 0 is S1.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Sequence, Tuple

DIMS = {"S1": (1, 0), "S2": (0, 1), "P1": (1, 1), "P2": (1, 1)}

# dim Hom(X, Y) for indecomposables X (row) and Y (column)
HOM = {
    ("S1", "S1"): 1, ("S1", "S2"): 0, ("S1", "P1"): 0, ("S1", "P2"): 1,
    ("S2", "S1"): 0, ("S2", "S2"): 1, ("S2", "P1"): 1, ("S2", "P2"): 0,
    ("P1", "S1"): 1, ("P1", "S2"): 0, ("P1", "P1"): 1, ("P1", "P2"): 1,
    ("P2", "S1"): 0, ("P2", "S2"): 1, ("P2", "P1"): 1, ("P2", "P2"): 1,
}

# chi(Gr_e(X)) for every dimension vector e with a nonzero value
GRASSMANNIAN = {
    "S1": {(0, 0): 1, (1, 0): 1},
    "S2": {(0, 0): 1, (0, 1): 1},
    "P1": {(0, 0): 1, (0, 1): 1, (1, 1): 1},
    "P2": {(0, 0): 1, (1, 0): 1, (1, 1): 1},
}

# chi of the composition chains of X of each type (top factor first)
FLAGS = {
    "S1": {(0,): 1},
    "S2": {(1,): 1},
    "P1": {(0, 1): 1},
    "P2": {(1, 0): 1},
}


def summands(label: str) -> List[str]:
    parts = label.split("+")
    for part in parts:
        if part not in DIMS:
            raise KeyError(f"unknown indecomposable {part!r} in {label!r}")
    return parts


def dims(label: str) -> Tuple[int, int]:
    tot = [0, 0]
    for part in summands(label):
        tot[0] += DIMS[part][0]
        tot[1] += DIMS[part][1]
    return tot[0], tot[1]


def hom(m: str, n: str) -> int:
    return sum(HOM[a, b] for a in summands(m) for b in summands(n))


def euler_form(x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetrised Euler form of the A2 quiver."""
    return 2 * x[0] * y[0] + 2 * x[1] * y[1] - x[0] * y[1] - x[1] * y[0]


def ext(m: str, n: str) -> int:
    return hom(m, n) + hom(n, m) - euler_form(dims(m), dims(n))


def all_dim_vectors(d: Sequence[int]) -> List[Tuple[int, ...]]:
    return [tuple(e) for e in itertools.product(*[range(x + 1) for x in d])]


def flag_types(d: Sequence[int]) -> List[Tuple[int, ...]]:
    """Every word with d[0] letters 0 and d[1] letters 1, sorted."""
    n = d[0] + d[1]
    return sorted(tuple(0 if i in zeros_at else 1 for i in range(n))
                  for zeros_at in itertools.combinations(range(n), d[0]))


def _convolve_grassmannian(a: Dict, b: Dict) -> Dict:
    out: Dict = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + x * y
    return out


def _shuffle_flags(a: Dict, b: Dict) -> Dict:
    """Sum over every interleaving of a type of the first summand with a
    type of the second."""
    out: Dict = {}
    for ta, x in a.items():
        for tb, y in b.items():
            n = len(ta) + len(tb)
            for pos in itertools.combinations(range(n), len(ta)):
                ia, ib = iter(ta), iter(tb)
                word = tuple(next(ia) if i in pos else next(ib)
                             for i in range(n))
                out[word] = out.get(word, 0) + x * y
    return out


def _fold(tables: Iterable[Dict], combine, unit: Dict) -> Dict:
    acc = unit
    for t in tables:
        acc = combine(acc, t)
    return acc


def grassmannian_chi(label: str) -> Dict[Tuple[int, ...], int]:
    """chi(Gr_e(M)) for every e <= dim M (zeros included)."""
    conv = _fold((GRASSMANNIAN[s] for s in summands(label)),
                 _convolve_grassmannian, {(0, 0): 1})
    return {e: conv.get(e, 0) for e in all_dim_vectors(dims(label))}


def flag_chi(label: str) -> Dict[Tuple[int, ...], int]:
    """chi of the composition chains of M for every type (zeros included)."""
    conv = _fold((FLAGS[s] for s in summands(label)), _shuffle_flags, {(): 1})
    return {t: conv.get(t, 0) for t in flag_types(dims(label))}


def direct_sum(m: str, n: str) -> str:
    return f"{m}+{n}"


# ---------------------------------------------------------------------------
# Checks of program output.  Each returns a list of mismatch messages.


def _check_rows(kind: str, rows, want: Dict, e: int) -> List[str]:
    """rows: [(slot, lhs, rhs)]; each lhs must be e times the closed-form
    chi of its slot, and the slots must be exactly those of ``want``."""
    bad = []
    if sorted(tuple(s) for s, _, _ in rows) != sorted(want):
        bad.append(f"{kind} slots differ from the closed form's")
    for slot, lhs, rhs in rows:
        if lhs != rhs:
            bad.append(f"{kind} slot {slot}: lhs {lhs} != rhs {rhs}")
        if lhs != e * want.get(tuple(slot), 0):
            bad.append(f"{kind} slot {slot}: lhs {lhs} != "
                       f"{e} * {want.get(tuple(slot), 0)}")
    return bad


def check_f2(m: str, n: str, rows, strata) -> List[str]:
    """strata: {rep: {"forward": chi, "backward": chi, ...}}."""
    e, e_back = ext(m, n), ext(n, m)
    bad = _check_rows("f2", rows, flag_chi(direct_sum(m, n)), e)
    fwd = sum(s["forward"] for s in strata.values())
    bwd = sum(s["backward"] for s in strata.values())
    if (fwd, bwd) != (e, e_back):
        bad.append(f"f2 strata sum to ({fwd}, {bwd}), "
                   f"Ext dims are ({e}, {e_back})")
    return bad


def check_f1(m: str, n: str, rows, strata) -> List[str]:
    e = ext(m, n)
    bad = _check_rows("f1", rows, grassmannian_chi(direct_sum(m, n)), e)
    fwd = sum(s["forward"] for s in strata.values())
    if fwd != e:
        bad.append(f"f1 strata sum to {fwd}, dim Ext is {e}")
    return bad


def check_multiplicativity(m: str, n: str, rows) -> List[str]:
    """rows: [(type, chains of the sum, sum of products)]."""
    bad = []
    want = flag_chi(direct_sum(m, n))
    if sorted(tuple(t) for t, _, _ in rows) != sorted(want):
        bad.append("delta types differ from the flag types of M + N")
    for t, combined, product in rows:
        if combined != want.get(tuple(t), 0) or product != combined:
            bad.append(f"delta type {t}: {combined}, {product}, "
                       f"want {want.get(tuple(t), 0)}")
    return bad


def signature_classes(labels: Sequence[str]) -> List[List[str]]:
    """Catalog labels grouped by dimension vector and flag table, in first
    appearance order: the classes ``extsym stratify`` should print."""
    groups: List[Tuple[tuple, List[str]]] = []
    for lab in labels:
        key = (dims(lab), tuple(sorted(flag_chi(lab).items())))
        for gkey, members in groups:
            if gkey == key:
                members.append(lab)
                break
        else:
            groups.append((key, [lab]))
    return [members for _, members in groups]
