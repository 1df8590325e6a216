"""Exact Euler characteristics from prime-field point counts.

The counted sets have point counts over GF(p) agreeing with an integer
polynomial in q of known degree bound.  We sample at degree bound + 2
primes, Lagrange-interpolate exactly over the rationals on all but the
last sample, cross-check the last one, and evaluate at q = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .counting import CountSeries, good_prime


class EulerError(ValueError):
    pass


def primes_from(start: int = 2) -> Iterator[int]:
    from .fields import _is_prime
    n = max(2, start)
    while True:
        if _is_prime(n):
            yield n
        n += 1


def _lagrange_eval(samples: Sequence[Tuple[int, int]], x: int) -> Fraction:
    total = Fraction(0)
    for i, (xi, yi) in enumerate(samples):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(samples):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def polynomial_coeffs(samples: Sequence[Tuple[int, int]]) -> Tuple[Fraction, ...]:
    """Ascending coefficients of the interpolating polynomial (exact
    Vandermonde solve)."""
    n = len(samples)
    from .fields import RATIONALS
    from .linalg import Mat, solve
    rows = tuple(tuple(Fraction(x) ** k for k in range(n))
                 for x, _ in samples)
    sol = solve(RATIONALS, Mat(rows, n, n),
                tuple(Fraction(y) for _, y in samples))
    assert sol is not None
    # strip trailing zeros so the reported degree is honest
    coeffs = list(sol)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class EulerValue:
    """Exact Euler characteristic together with its interpolation evidence."""

    value: int
    coeffs: Tuple[Fraction, ...]        # ascending
    samples: Tuple[Tuple[int, int], ...]
    degree_bound: int
    consistency: str                    # "verified"

    def as_dict(self):
        return {"value": self.value,
                "polynomial": [str(c) for c in self.coeffs],
                "degree_bound": self.degree_bound,
                "consistency": self.consistency,
                "samples": [list(s) for s in self.samples]}


def interpolate_euler(series: CountSeries) -> EulerValue:
    """Interpolate the count polynomial of a series and evaluate at q = 1.

    Needs degree_bound + 2 samples; the surplus ones are consistency
    checks.  Raises EulerError when a check fails or the value at 1 is not
    an integer.
    """
    need = series.degree_bound + 2
    if len(series.samples) < need:
        raise EulerError(
            f"{series.label}: need {need} samples for degree bound "
            f"{series.degree_bound}, got {len(series.samples)}")
    fit = list(series.samples[:series.degree_bound + 1])
    for q, cnt in series.samples[series.degree_bound + 1:]:
        predicted = _lagrange_eval(fit, q)
        if predicted != cnt:
            raise EulerError(
                f"{series.label}: count at q={q} is {cnt}, interpolation "
                f"predicts {predicted}; degree bound {series.degree_bound} "
                f"violated or a bad prime slipped through")
    val = _lagrange_eval(fit, 1)
    if val.denominator != 1:
        raise EulerError(
            f"{series.label}: value at q=1 is non-integral: {val}")
    coeffs = polynomial_coeffs(fit)
    return EulerValue(int(val), coeffs, series.samples,
                      series.degree_bound, "verified")


def projectivize_series(series: CountSeries) -> CountSeries:
    """Quotient a scalar-stable cone-minus-origin count by the scalar group:
    divide every sample by q - 1 and drop one from the degree bound."""
    out = []
    for q, cnt in series.samples:
        if cnt % (q - 1) != 0:
            raise EulerError(
                f"{series.label}: cone count {cnt} at q={q} not divisible "
                f"by q-1={q - 1}")
        out.append((q, cnt // (q - 1)))
    return CountSeries(series.label + "/scalars", tuple(out),
                       max(series.degree_bound - 1, 0))


def collect_series(label: str, counter: Callable[[int], int],
                   degree_bound: int, primes: Sequence[int]) -> CountSeries:
    need = degree_bound + 2
    if len(primes) < need:
        raise EulerError(
            f"{label}: need {need} primes, got {len(primes)}")
    return CountSeries(label,
                       tuple((p, counter(p)) for p in primes[:need]),
                       degree_bound)


def euler_of(label: str, counter: Callable[[int], int], degree_bound: int,
             primes: Sequence[int]) -> EulerValue:
    return interpolate_euler(collect_series(label, counter, degree_bound,
                                            primes))


# Standard degree bounds ----------------------------------------------------


def grassmannian_degree_bound(dims: Sequence[int],
                              edims: Sequence[int]) -> int:
    """Submodule variety sits in a product of vertex Grassmannians."""
    return sum(e * (d - e) for d, e in zip(dims, edims))


def flag_degree_bound(dims: Sequence[int]) -> int:
    """Chains of submodules sit in a product of complete flag varieties."""
    return sum(d * (d - 1) // 2 for d in dims)


def projective_space_degree_bound(ext_dim: int) -> int:
    """Lines in an extension space."""
    return max(ext_dim - 1, 0)


def efg_degree_bound(m_dims: Sequence[int], n_dims: Sequence[int],
                     ext_nm_dim: int, hom_mn_dim: int) -> int:
    """Conservative bound for the correction set: Grassmannian factors plus
    the class line plus the affine fiber."""
    gr = sum(a * b for a, b in zip(m_dims, n_dims))
    return gr + ext_nm_dim + hom_mn_dim


def good_primes(pred: Callable[[int], bool], count: int,
                start: int = 2, limit: int = 10000) -> List[int]:
    """First ``count`` primes satisfying a screening predicate."""
    out = []
    for p in primes_from(start):
        if p > limit:
            raise EulerError(
                f"could not find {count} usable primes below {limit}")
        if pred(p):
            out.append(p)
            if len(out) == count:
                return out
    raise EulerError("prime stream exhausted")


def select_primes(m, n, extra: Sequence, count: int,
                  supplied: Optional[Sequence[int]]) -> List[int]:
    """First ``count`` primes that pass ``counting.good_prime`` for the
    rational pair (m, n) with auxiliary modules ``extra``.

    Supplied primes are screened the same way and used in their given
    order; automatic selection scans upward from 2.  One module alone is
    screened as the pair (m, zero module).
    """
    def pred(p):
        return good_prime(m, n, p, extra=extra)

    if supplied is None:
        return good_primes(pred, count)
    usable = [p for p in supplied if pred(p)]
    if len(usable) < count:
        raise EulerError(
            f"only {len(usable)} of the supplied primes pass the "
            f"good-prime screen, {count} needed")
    return usable[:count]
