"""Exact linear algebra against an independent elimination oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsym.fields import GF, QQ, RATIONALS, FieldError
from extsym.linalg import (Mat, coords_in, enumerate_subspaces,
                           gaussian_binomial, identity, integer_rank_minor,
                           kernel_basis, mat_from_fractions, mat_mul,
                           mat_vec, rank, reduce_against, rref, span,
                           transpose)

from oracle import (gauss_rank, gaussian_binomial_int, mat_inv,
                    null_space_dim, solve)


def frac_mat(rows):
    return mat_from_fractions(RATIONALS, [[Fraction(x) for x in r]
                                          for r in rows])


class TestRationalElimination:
    def test_kernel_of_rank_one(self):
        m = frac_mat([[1, 2], [2, 4]])
        k = kernel_basis(RATIONALS, m)
        assert k.nrows == 1
        # same line as (-2, 1)
        x, y = k.rows[0]
        assert x * Fraction(1) + y * Fraction(2) == 0 or \
            m.rows[0][0] * x + m.rows[0][1] * y == 0

    def test_rank_matches_oracle_random(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(4)]
                    for _ in range(3)]
            assert rank(RATIONALS, frac_mat(rows)) == gauss_rank(rows, 4)

    def test_solve_consistency(self):
        a = frac_mat([[1, 1], [0, 1]])
        sol = solve(RATIONALS, a, (Fraction(3), Fraction(1)))
        assert sol == (Fraction(2), Fraction(1))
        assert solve(RATIONALS, frac_mat([[1, 1], [1, 1]]),
                     (Fraction(0), Fraction(1))) is None


def _det(m):
    """Leibniz expansion, for the minors of tiny matrices."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


class TestIntegerRankMinor:
    def test_rank_and_minor_against_all_minors(self):
        rng = random.Random(11)
        for _ in range(60):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[rng.randrange(-3, 4) for _ in range(ncols)]
                    for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                # force a dependent row
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            r, minor = integer_rank_minor(rows, ncols)
            assert r == gauss_rank(rows, ncols)
            minors = {abs(_det([[rows[i][j] for j in cs] for i in rs]))
                      for rs in itertools.combinations(range(nrows), r)
                      for cs in itertools.combinations(range(ncols), r)}
            assert minor > 0 and minor in minors
            for p in (2, 3, 5, 7):
                if minor % p:
                    assert gauss_rank(rows, ncols, p) == r

    def test_empty_and_zero(self):
        assert integer_rank_minor([], 3) == (0, 1)
        assert integer_rank_minor([[0, 0], [0, 0]], 2) == (0, 1)
        assert integer_rank_minor([[3, 0], [0, 0]], 2) == (1, 3)


class TestPrimeField:
    @given(st.sampled_from([2, 3, 5, 7]),
           st.lists(st.lists(st.integers(0, 30), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rank_nullity(self, p, rows):
        f = GF(p)
        m = Mat(tuple(tuple(x % p for x in r) for r in rows), len(rows), 4)
        r = rank(f, m)
        k = kernel_basis(f, m)
        assert r + k.nrows == 4
        assert r == gauss_rank(m.rows, 4, p)

    def test_bad_prime_rejected(self):
        with pytest.raises(FieldError):
            GF(6)
        with pytest.raises(FieldError):
            GF(1)

    def test_reduce_mod_p_denominator(self):
        with pytest.raises(FieldError, match="bad prime"):
            mat_from_fractions(GF(3), [[Fraction(1, 3)]])
        m = mat_from_fractions(GF(5), [[Fraction(1, 3)]])
        assert m.rows[0][0] == pow(3, -1, 5)


class TestSubspaces:
    def test_enumeration_count_matches_gaussian_binomial(self):
        for n, k, q in [(3, 1, 2), (3, 2, 3), (4, 2, 2), (2, 1, 5)]:
            subs = list(enumerate_subspaces(n, k, q))
            assert len(subs) == gaussian_binomial(n, k, q)
            assert gaussian_binomial(n, k, q) == gaussian_binomial_int(n, k, q)
            # canonical: all distinct
            assert len({s.mat.rows for s in subs}) == len(subs)


def test_matmul_associative_gf():
    rng = random.Random(9)
    f = GF(7)
    def rnd(r, c):
        return Mat(tuple(tuple(rng.randrange(7) for _ in range(c))
                         for _ in range(r)), r, c)
    for _ in range(10):
        a, b, c = rnd(3, 4), rnd(4, 2), rnd(2, 5)
        assert mat_mul(f, mat_mul(f, a, b), c) == \
            mat_mul(f, a, mat_mul(f, b, c))


def rand_gf_mat(rng, rows, cols, p):
    return Mat(tuple(tuple(rng.randrange(p) for _ in range(cols))
                     for _ in range(rows)), rows, cols)


# 4294967311 > 2^32: products of two residues overflow 64-bit integers
def test_rref_is_idempotent_and_canonical():
    rng = random.Random(11)
    for p in (3, 7, 4294967311):
        f = GF(p)
        for _ in range(20):
            m = rand_gf_mat(rng, 4, 5, p)
            r1, piv1 = rref(f, m)
            r2, piv2 = rref(f, r1)
            assert (r1, piv1) == (r2, piv2)
            # leading entries are 1, pivots strictly increase
            assert list(piv1) == sorted(set(piv1))
            for row, pc in zip(r1.rows, piv1):
                assert row[pc] == 1


def test_kernel_rows_annihilate():
    rng = random.Random(13)
    for p in (2, 5, 4294967311):
        f = GF(p)
        for _ in range(20):
            m = rand_gf_mat(rng, 3, 6, p)
            kern = kernel_basis(f, m)
            for v in kern.rows:
                for row in m.rows:
                    assert sum(a * b for a, b in zip(row, v)) % p == 0
            assert kern.nrows == 6 - rank(f, m)


def test_transpose_involution():
    m = frac_mat([[1, 2, 3], [4, 5, 6]])
    assert transpose(transpose(m)) == m


# ---------------------------------------------------------------------------
# One loop for both fields


def _entries(*results):
    """Every field entry of Mats, tuples of entries, and nested tuples."""
    for r in results:
        if isinstance(r, Mat):
            yield from (x for row in r.rows for x in row)
        elif isinstance(r, tuple):
            yield from _entries(*r)
        else:
            yield r


def _linalg_results(field, a, b, v):
    """The results of every public product and elimination on a square
    ``a``, a ``b`` with as many rows and a vector ``v`` of that length."""
    red, _ = rref(field, b)
    sub = span(field, b.rows, b.ncols)
    return [red, kernel_basis(field, b), solve(field, a, v),
            mat_inv(field, a), mat_vec(field, a, v), mat_mul(field, a, b),
            reduce_against(field, sub, b.rows[0]),
            coords_in(field, sub, b.rows[-1])]


class TestOnePath:
    def test_int_valued_rationals_stay_exact(self):
        q = RATIONALS
        a = Mat(((2, 1), (1, 1)), 2, 2)
        b = Mat(((2, 4, 1), (1, 2, 3)), 2, 3)
        v = (1, 3)
        for x in _entries(*_linalg_results(q, a, b, v)):
            assert type(x) in (Fraction, int), x
        red, piv = rref(q, b)
        assert piv == (0, 2)
        for row in b.rows:
            # in RREF the coordinate along row i is the entry at pivot i
            combo = [sum(row[pc] * r[j] for pc, r in zip(piv, red.rows))
                     for j in range(3)]
            assert combo == list(row)
        kern = kernel_basis(q, b)
        assert kern.nrows == 1
        assert all(mat_vec(q, b, k) == (0, 0) for k in kern.rows)
        x = solve(q, a, v)
        assert x == (Fraction(-2), Fraction(5))
        assert mat_vec(q, a, x) == v
        inv = mat_inv(q, a)
        assert mat_mul(q, a, inv) == identity(q, 2)
        assert mat_mul(q, a, b).rows == ((5, 10, 5), (3, 6, 4))
        assert mat_vec(q, a, (Fraction(1, 2), 0)) == (1, Fraction(1, 2))

    def test_prime_field_entries_normalised(self):
        rng = random.Random(5)
        for p in (2, 7, 4294967311):
            f = GF(p)
            for _ in range(20):
                a = rand_gf_mat(rng, 3, 3, p)
                b = rand_gf_mat(rng, 3, 4, p)
                v = tuple(rng.randrange(p) for _ in range(3))
                for x in _entries(*_linalg_results(f, a, b, v)):
                    if x is not None:
                        assert type(x) is int and 0 <= x < p, (p, x)

    def test_prime_field_agrees_with_rationals(self):
        rng = random.Random(17)
        q = RATIONALS
        for _ in range(40):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[rng.randrange(-6, 7) for _ in range(ncols)]
                    for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                rows[-1] = [a + 3 * b for a, b in zip(rows[0], rows[1])]
            a = Mat(tuple(map(tuple, rows)), nrows, ncols)
            b = Mat(tuple(tuple(rng.randrange(-6, 7) for _ in range(3))
                          for _ in range(ncols)), ncols, 3)
            v = tuple(rng.randrange(-6, 7) for _ in range(ncols))
            r, minor = integer_rank_minor(rows, ncols)
            assert rank(q, a) == r
            for p in (2, 3, 5, 7, 11, 4294967311):
                f = GF(p)
                ap, bp = mat_from_fractions(f, a.rows), \
                    mat_from_fractions(f, b.rows)
                vp = tuple(x % p for x in v)
                if minor % p:
                    assert rank(f, ap) == r
                assert mat_mul(f, ap, bp) == \
                    mat_from_fractions(f, mat_mul(q, a, b).rows)
                assert mat_vec(f, ap, vp) == \
                    tuple(x % p for x in mat_vec(q, a, v))

    def test_no_per_entry_field_method_calls(self):
        def refuse(self, *args):
            raise AssertionError("per-entry field method call")

        names = ("add", "sub", "mul", "neg", "is_zero")
        strict_q = type("StrictQQ", (QQ,), dict.fromkeys(names, refuse))()
        strict_gf = type("StrictGF", (GF,), dict.fromkeys(names, refuse))(7)
        a = Mat(((2, 1), (1, 1)), 2, 2)
        b = Mat(((2, 4, 1), (1, 2, 3)), 2, 3)
        for f in (strict_q, strict_gf):
            _linalg_results(f, a, b, (1, 3))
