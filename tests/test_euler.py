"""Exact interpolation of point-count polynomials and evaluation at q = 1."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsym.counting import (CountError, CountSeries, count_flags,
                             count_grassmannian)
from extsym.euler import (EulerError, euler_of, flag_degree_bound,
                          good_primes, grassmannian_degree_bound,
                          interpolate_euler, polynomial_coeffs, primes_from,
                          projective_space_degree_bound)
from extsym.instances import a2_modules, a2_preprojective
from extsym.modules import direct_sum_many, reduce_module
from extsym.fields import RATIONALS
from extsym.linalg import Mat

from oracle import efg_degree_bound, solve

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestInterpolation:
    def test_linear_example(self):
        s = CountSeries("line", ((2, 3), (3, 4), (5, 6)), 1)
        ev = interpolate_euler(s)
        assert ev.value == 2
        assert ev.coeffs == (Fraction(1), Fraction(1))
        assert ev.consistency == "verified"

    def test_too_few_samples(self):
        with pytest.raises(EulerError, match="need 3 samples"):
            interpolate_euler(CountSeries("short", ((2, 3), (3, 4)), 1))

    def test_corrupted_sample_detected(self):
        # q + 1 at q = 2, 3 but the surplus check value is off by one
        s = CountSeries("bad", ((2, 3), (3, 4), (5, 7)), 1)
        with pytest.raises(EulerError, match="interpolation predicts"):
            interpolate_euler(s)

    def test_degree_bound_violation_detected(self):
        # samples of q^2 with a claimed degree bound of 1
        s = CountSeries("quad", ((2, 4), (3, 9), (5, 25)), 1)
        with pytest.raises(EulerError):
            interpolate_euler(s)

    @given(st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_roundtrip(self, coeffs):
        def poly(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        deg = len(coeffs) - 1
        samples = tuple((p, poly(p)) for p in PRIMES[:deg + 2])
        ev = interpolate_euler(CountSeries("rt", samples, deg))
        assert ev.value == poly(1)
        got = list(ev.coeffs) + [Fraction(0)] * (len(coeffs) - len(ev.coeffs))
        assert got == [Fraction(c) for c in coeffs]


def vandermonde_coeffs(samples):
    """Ascending coefficients by an exact Vandermonde solve, trailing zeros
    stripped."""
    n = len(samples)
    rows = tuple(tuple(Fraction(x) ** k for k in range(n))
                 for x, _ in samples)
    coeffs = list(solve(RATIONALS, Mat(rows, n, n),
                        tuple(Fraction(y) for _, y in samples)))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1,
                max_size=10))
@settings(max_examples=60, deadline=None)
def test_polynomial_coeffs_equal_the_vandermonde_solve(counts):
    samples = tuple(zip(PRIMES, counts))
    got = polynomial_coeffs(samples)
    assert got == vandermonde_coeffs(samples)
    assert all(isinstance(c, Fraction) for c in got)


class TestGeometricValues:
    """chi of the classical families."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_projective_space(self, n):
        def counter(q):
            return (q ** (n + 1) - 1) // (q - 1)

        ev = euler_of(f"P{n}", counter, projective_space_degree_bound(n + 1),
                      PRIMES)
        assert ev.value == n + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_affine_space(self, n):
        ev = euler_of(f"A{n}", lambda q: q ** n, n, PRIMES)
        assert ev.value == 1

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_semisimple_grassmannian(self, d, k):
        alg = a2_preprojective()
        mods = a2_modules(alg)
        big = direct_sum_many(alg, RATIONALS, [mods["S1"]] * d)

        def counter(q):
            return count_grassmannian(reduce_module(big, q), (k, 0))

        bound = grassmannian_degree_bound(big.dims, (k, 0))
        ev = euler_of(f"Gr({k},{d})", counter, bound, PRIMES)
        # chi of a Grassmannian is the ordinary binomial coefficient
        assert ev.value == math.comb(d, k)

    def test_full_flags_of_a_plane(self):
        alg = a2_preprojective()
        mods = a2_modules(alg)
        plane = direct_sum_many(alg, RATIONALS, [mods["S2"]] * 2)
        simples = [mods["S1"], mods["S2"]]

        def counter(q):
            return count_flags(reduce_module(plane, q), (1, 1),
                               [reduce_module(s, q) for s in simples])

        ev = euler_of("fl", counter, flag_degree_bound(plane.dims), PRIMES)
        assert ev.value == 2

    @pytest.mark.parametrize("edims", [(2, 0), (0, 1), (1,), (1, 0, 0),
                                       (-1, 0)])
    def test_grassmannian_bound_rejects_vector_outside_module(self, edims):
        with pytest.raises(EulerError) as err:
            grassmannian_degree_bound((1, 0), edims)
        assert f"vector {edims} " in str(err.value)
        assert str(err.value).endswith("dimension vector (1, 0)")

    def test_negative_degree_bound_rejected(self):
        # a negative bound would ask for fewer than two samples and
        # "verify" an interpolation on none
        with pytest.raises(CountError, match="negative degree bound -20"):
            CountSeries("empty", (), -20)


class TestCorrectionBound:
    """The bound of the oracle's count over every submodule pair."""

    def test_maximum_over_splits(self):
        # M = S1, N = 4 S2, dim Ext^1(N, M) = 4: the largest row term is
        # e1 = (1, 0), e2 = (0, 2), giving 0 + 2*2 + 1*0 + 4 - 1
        assert efg_degree_bound((1, 0), (0, 4), 4) == 7
        # M = N = S1: e1 = (1, 0), e2 = (0, 0) adds e1 (n - e2) = 1
        assert efg_degree_bound((1, 0), (1, 0), 1) == 1

    def test_never_negative(self):
        # every vertex term is 0 and Ext^1(N, M) = 0: the maximum is -1
        assert efg_degree_bound((1, 0), (0, 1), 0) == 0


class TestPrimeStream:
    def test_primes_from(self):
        it = primes_from(10)
        assert [next(it) for _ in range(4)] == [11, 13, 17, 19]

    def test_good_primes_filters(self):
        ps = good_primes(lambda p: p % 3 == 1, 3)
        assert ps == [7, 13, 19]

    def test_good_primes_exhaustion(self):
        with pytest.raises(EulerError):
            good_primes(lambda p: False, 1, limit=100)
