"""The benchmark's closed-form tables against brute force at p = 2 and 3.

Run:  python3 -m pytest perfbench/tests

Modules are built here from plain integer matrices and counted with
``tests/oracle.py``; the library is used only for the last check (its Ext
dimensions against the closed form).
"""

import itertools
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "src")]

import closed_forms as cf  # noqa: E402
import oracle  # noqa: E402

PRIMES = (2, 3)

# arrow a: vertex 0 -> 1, arrow a*: vertex 1 -> 0; (a, a*) matrices of the
# indecomposables, rows indexed by the target
INDEC = {"S1": ([], [[]]), "S2": ([[]], []),
         "P1": ([[1]], [[0]]), "P2": ([[0]], [[1]])}


def arrow_data(label):
    """(dims, [(source, target, matrix)]) of a direct sum, block diagonal
    in summand order."""
    parts = cf.summands(label)
    d = cf.dims(label)
    mats = []
    for ai, (s, t) in enumerate(((0, 1), (1, 0))):
        mat = [[0] * d[s] for _ in range(d[t])]
        r0 = c0 = 0
        for part in parts:
            blk = INDEC[part][ai]
            ds, dt = cf.DIMS[part][s], cf.DIMS[part][t]
            for i in range(dt):
                for j in range(ds):
                    mat[r0 + i][c0 + j] = blk[i][j]
            r0, c0 = r0 + dt, c0 + ds
        mats.append((s, t, mat))
    return d, mats


def hom_dim_bruteforce(m, n, p):
    """Null space of phi_t X_a = Y_a phi_s over F_p."""
    (dm, am), (dn, an) = arrow_data(m), arrow_data(n)
    offs, tot = [], 0
    for v in range(2):
        offs.append(tot)
        tot += dn[v] * dm[v]
    rows = []
    for (s, t, xm), (_, _, yn) in zip(am, an):
        for i in range(dn[t]):
            for j in range(dm[s]):
                row = [0] * tot
                for k in range(dm[t]):
                    row[offs[t] + i * dm[t] + k] += xm[k][j]
                for k in range(dn[s]):
                    row[offs[s] + k * dm[s] + j] -= yn[i][k]
                rows.append(row)
    return oracle.null_space_dim(rows, tot, p)


def labels(max_total):
    out = []
    for r in range(1, max_total + 1):
        for combo in itertools.combinations_with_replacement(
                ["S1", "S2", "P1", "P2"], r):
            if sum(cf.dims("+".join(combo))) <= max_total:
                out.append("+".join(combo))
    return out


def chi_from_two_primes(counter):
    """Value at q = 1 of a count polynomial of degree <= 1."""
    c2, c3 = counter(2), counter(3)
    return 2 * c2 - c3


def factor_dims(word):
    return [(1, 0) if j == 0 else (0, 1) for j in word]


@pytest.mark.parametrize("x", sorted(INDEC))
def test_indecomposable_tables_are_exact_counts(x):
    d, arrows = arrow_data(x)
    for p in PRIMES:
        for e in cf.all_dim_vectors(d):
            assert oracle.count_submodules_bruteforce(d, arrows, e, p) == \
                cf.GRASSMANNIAN[x].get(e, 0), (x, e, p)
        for w in cf.flag_types(d):
            assert oracle.count_flags_bruteforce(
                d, arrows, factor_dims(w), p) == cf.FLAGS[x].get(w, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_hom_table_and_additivity(p):
    for a, b in itertools.product(sorted(INDEC), repeat=2):
        assert hom_dim_bruteforce(a, b, p) == cf.HOM[a, b], (a, b)
    sums = labels(3)
    for a, b in itertools.product(sums, repeat=2):
        if sum(cf.dims(a)) + sum(cf.dims(b)) <= 4:
            assert hom_dim_bruteforce(a, b, p) == cf.hom(a, b), (a, b)


def test_grassmannian_convolution():
    checked = 0
    for lab in labels(3):
        d, arrows = arrow_data(lab)
        table = cf.grassmannian_chi(lab)
        for e in cf.all_dim_vectors(d):
            if sum(x * (y - x) for x, y in zip(e, d)) > 1:
                continue
            got = chi_from_two_primes(
                lambda p: oracle.count_submodules_bruteforce(d, arrows, e, p))
            assert got == table[e], (lab, e)
            checked += 1
    assert checked > 50


def test_flag_convolution():
    checked = 0
    for lab in labels(3):
        d, arrows = arrow_data(lab)
        if sum(x * (x - 1) // 2 for x in d) > 1:
            continue
        table = cf.flag_chi(lab)
        for w in cf.flag_types(d):
            got = chi_from_two_primes(
                lambda p: oracle.count_flags_bruteforce(
                    d, arrows, factor_dims(w), p))
            assert got == table[w], (lab, w)
            checked += 1
    assert checked > 20


def test_ext_formula_agrees_with_the_library():
    from extsym.ext import ext_dim
    from extsym.instances import a2_preprojective, a2_sums
    sums = a2_sums(a2_preprojective(), 4)
    assert list(sums) == labels(4)
    pairs = [(a, b) for a in sums for b in sums
             if sums[a].total_dim + sums[b].total_dim <= 5]
    assert len(pairs) == 217
    for a, b in pairs:
        assert ext_dim(sums[a], sums[b]) == cf.ext(a, b), (a, b)
