"""Exact linear algebra against an independent elimination oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsym.fields import GF, RATIONALS, FieldError
from extsym.linalg import (Mat, enumerate_subspaces, gaussian_binomial,
                           kernel_basis, mat_from_fractions, mat_mul, rank,
                           reduce_mod_p, rref, solve, span,
                           subspace_intersection, subspace_sum, transpose)

from oracle import gauss_rank, gaussian_binomial_int, null_space_dim


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
            reduce_mod_p([[Fraction(1, 3)]], 3)
        m = reduce_mod_p([[Fraction(1, 3)]], 5)
        assert m.rows[0][0] == pow(3, -1, 5)


class TestSubspaces:
    def test_enumeration_count_matches_gaussian_binomial(self):
        for n, k, q in [(3, 1, 2), (3, 2, 3), (4, 2, 2), (2, 1, 5)]:
            subs = list(enumerate_subspaces(n, k, q))
            assert len(subs) == gaussian_binomial(n, k, q)
            assert gaussian_binomial(n, k, q) == gaussian_binomial_int(n, k, q)
            # canonical: all distinct
            assert len({s.mat.rows for s in subs}) == len(subs)

    def test_sum_and_intersection_dims(self):
        f = GF(5)
        a = span(f, [(1, 0, 0), (0, 1, 0)], 3)
        b = span(f, [(0, 1, 0), (0, 0, 1)], 3)
        s = subspace_sum(f, a, b)
        i = subspace_intersection(f, a, b)
        assert s.dim == 3 and i.dim == 1
        # modular law of dimensions
        assert a.dim + b.dim == s.dim + i.dim


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
