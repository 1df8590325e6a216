"""Exact interpolation of point-count polynomials and evaluation at q = 1."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsym import memo
from extsym.counting import count_flags, count_grassmannian
from extsym.euler import (PRIME_LIMIT, EulerError, euler_of,
                          flag_degree_bound, good_primes,
                          grassmannian_degree_bound, interpolate_euler,
                          polynomial_coeffs, projective_space_degree_bound)
from extsym.instances import a2_modules, a2_preprojective
from extsym.modules import direct_sum_many, reduce_module
from extsym.fields import RATIONALS
from extsym.linalg import Mat

from oracle import efg_degree_bound, fit_count, solve

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestInterpolation:
    def test_linear_example(self):
        ev = interpolate_euler("line", ((2, 3), (3, 4), (5, 6)), 1)
        assert ev.value == 2
        assert ev.coeffs == (Fraction(1), Fraction(1))
        assert ev.consistency == "verified"

    def test_too_few_samples(self):
        with pytest.raises(EulerError, match="need 3 samples"):
            interpolate_euler("short", ((2, 3), (3, 4)), 1)

    def test_corrupted_sample_detected(self):
        # q + 1 at q = 2, 3 but the surplus check value is off by one
        with pytest.raises(EulerError, match="interpolation predicts"):
            interpolate_euler("bad", ((2, 3), (3, 4), (5, 7)), 1)

    def test_degree_bound_violation_detected(self):
        # samples of q^2 with a claimed degree bound of 1
        with pytest.raises(EulerError):
            interpolate_euler("quad", ((2, 4), (3, 9), (5, 25)), 1)

    @given(st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_roundtrip(self, coeffs):
        def poly(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        deg = len(coeffs) - 1
        samples = tuple((p, poly(p)) for p in PRIMES[:deg + 2])
        ev = interpolate_euler("rt", samples, deg)
        assert ev.value == poly(1)
        got = list(ev.coeffs) + [Fraction(0)] * (len(coeffs) - len(ev.coeffs))
        assert got == [Fraction(c) for c in coeffs]


class TestMemoisedFit:
    """Equal samples and bounds are fitted once; the label is only the
    caller's."""

    BAD = ((2, 3), (3, 4), (5, 7))

    def test_a_failing_fit_raises_with_each_callers_label_every_time(self):
        for _ in range(2):
            for label in ("first", "second"):
                with pytest.raises(EulerError, match=(
                        f"^{label}: count at q=5 is 7, interpolation "
                        "predicts 6;")):
                    interpolate_euler(label, self.BAD, 1)
        for label in ("first", "second"):
            with pytest.raises(EulerError,
                               match=f"^{label}: duplicate sample primes$"):
                interpolate_euler(label, ((2, 1), (2, 1), (3, 1)), 1)

    def test_a_shared_fit_gives_one_value_with_its_evidence(self):
        memo.clear_all()
        samples = ((2, 7), (3, 13), (5, 31), (7, 57), (11, 133))  # q^2+q+1
        first = interpolate_euler("first", samples, 2)
        second = interpolate_euler("second", list(samples), 2)
        want = {"value": 3, "polynomial": ["1", "1", "1"],
                "degree_bound": 2, "consistency": "verified",
                "samples": [[2, 7], [3, 13], [5, 31], [7, 57], [11, 133]]}
        assert first is second
        assert first.as_dict() == want
        # another bound is another fit
        assert interpolate_euler("first", samples, 3).as_dict() == \
            dict(want, degree_bound=3)


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

        ev = fit_count(f"P{n}", counter,
                       projective_space_degree_bound(n + 1), PRIMES)
        assert ev.value == n + 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_affine_space(self, n):
        ev = fit_count(f"A{n}", lambda q: q ** n, n, PRIMES)
        assert ev.value == 1

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_semisimple_grassmannian(self, d, k):
        alg = a2_preprojective()
        mods = a2_modules(alg)
        big = direct_sum_many(alg, RATIONALS, [mods["S1"]] * d)

        def counter(q):
            return count_grassmannian(reduce_module(big, q), (k, 0))

        bound = grassmannian_degree_bound(big.dims, (k, 0))
        ev = fit_count(f"Gr({k},{d})", counter, bound, PRIMES)
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

        ev = fit_count("fl", counter, flag_degree_bound(plane.dims), PRIMES)
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
        with pytest.raises(EulerError, match="negative degree bound -20"):
            interpolate_euler("empty", (), -20)
        with pytest.raises(EulerError, match="negative degree bound -20"):
            euler_of("empty", lambda q, keys: {}, {"x": -20}, PRIMES)


class TestTableFit:
    """``euler_of`` fits each key of a table at its own degree bound."""

    def test_each_key_is_counted_at_its_own_primes(self):
        asked = []

        def counter(q, keys):
            asked.append((q, tuple(keys)))
            # a key outside the table is never read: its count would fail
            return {"a": 1, "b": q * q + 1, "unasked": -1}

        got = euler_of("table", counter, {"a": 0, "b": 2}, PRIMES)
        assert asked == [(2, ("a", "b")), (3, ("a", "b")), (5, ("b",)),
                         (7, ("b",))]
        assert got["a"].samples == ((2, 1), (3, 1))
        assert got["b"].samples == ((2, 5), (3, 10), (5, 26), (7, 50))
        assert (got["a"].value, got["b"].value) == (1, 2)
        assert list(got) == ["a", "b"]

    def test_too_few_primes_for_the_largest_bound(self):
        with pytest.raises(EulerError, match="table: need 4 primes, got 3"):
            euler_of("table", lambda q, keys: dict.fromkeys(keys, 1),
                     {"a": 0, "b": 2}, PRIMES[:3])

    def test_a_failed_key_is_named(self):
        with pytest.raises(EulerError, match="^table b: count at q=5"):
            euler_of("table", lambda q, keys: {"a": q + 1, "b": q % 3},
                     {"a": 1, "b": 1}, PRIMES)


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
    def test_good_primes_scans_every_prime_from_two(self):
        assert good_primes(lambda p: True, 8) == [2, 3, 5, 7, 11, 13, 17,
                                                   19]

    def test_good_primes_filters(self):
        ps = good_primes(lambda p: p % 3 == 1, 3)
        assert ps == [7, 13, 19]

    def test_good_primes_exhaustion(self):
        scanned = []

        def never(p):
            scanned.append(p)
            return False
        with pytest.raises(EulerError, match=f"below {PRIME_LIMIT}"):
            good_primes(never, 1)
        # every prime was tried, up to the largest below the limit
        assert scanned[:4] == [2, 3, 5, 7] and scanned[-1] == 9973
