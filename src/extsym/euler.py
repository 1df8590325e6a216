"""Exact Euler characteristics from prime-field point counts.

The counted sets have point counts over GF(p) agreeing with an integer
polynomial in q of known degree bound.  We sample at degree bound + 2
primes, fit the polynomial exactly over the rationals to all but the last
sample, cross-check the last one against it, and evaluate at q = 1.
Every value is fitted by ``euler_of``, one table of counts at a time.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import (Callable, Dict, Hashable, List, Mapping, Optional,
                    Sequence, Tuple)

from . import memo
from .counting import good_prime
from .fields import _is_prime


class EulerError(ValueError):
    pass


# The largest prime that automatic selection scans to and that a caller
# may supply: primality is tested by trial division.
PRIME_LIMIT = 10000


def polynomial_coeffs(samples: Sequence[Tuple[int, int]]) -> Tuple[Fraction, ...]:
    """Ascending coefficients of the interpolating polynomial, exact:
    Newton's divided differences, expanded in the monomial basis."""
    xs = [x for x, _ in samples]
    diffs = [Fraction(y) for _, y in samples]
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    # Horner in the Newton basis: c_k + (x - x_k) * (...)
    coeffs = [diffs[-1]]
    for k in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= xs[k] * c
        shifted[0] += diffs[k]
        coeffs = shifted
    # strip trailing zeros so the reported degree is honest
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class EulerValue:
    """Exact Euler characteristic together with its interpolation evidence."""

    __slots__ = ("value", "coeffs", "samples", "degree_bound", "consistency")

    def __init__(self, value: int, coeffs: Tuple[Fraction, ...],
                 samples: Tuple[Tuple[int, int], ...], degree_bound: int,
                 consistency: str):
        self.value = value
        self.coeffs = coeffs              # ascending
        self.samples = samples
        self.degree_bound = degree_bound
        self.consistency = consistency    # "verified"

    def as_dict(self):
        return {"value": self.value,
                "polynomial": [str(c) for c in self.coeffs],
                "degree_bound": self.degree_bound,
                "consistency": self.consistency,
                "samples": [list(s) for s in self.samples]}


def interpolate_euler(label: str, samples: Sequence[Tuple[int, int]],
                      degree_bound: int) -> EulerValue:
    """Fit the count polynomial of (prime, count) samples once and
    evaluate at q = 1.

    Needs degree_bound + 2 samples at distinct primes: the first
    degree_bound + 1 fix the coefficients, the surplus ones are checked
    against them, and the value at 1 is their sum.  Raises EulerError,
    labelled ``label``, on a repeated prime, a negative count or a
    negative bound, when a check fails or when the value at 1 is not an
    integer.  Equal samples and bounds are fitted once and give one value,
    whatever their label.
    """
    try:
        return _fit(tuple(samples), degree_bound)
    except EulerError as exc:
        raise EulerError(f"{label}: {exc}") from None


@memo.cached(lambda samples, degree_bound: (samples, degree_bound))
def _fit(samples: Tuple[Tuple[int, int], ...],
         degree_bound: int) -> EulerValue:
    """The value of ``interpolate_euler``; its errors carry no label."""
    if len({q for q, _ in samples}) != len(samples):
        raise EulerError("duplicate sample primes")
    if any(c < 0 for _, c in samples):
        raise EulerError("negative count")
    if degree_bound < 0:
        raise EulerError(f"negative degree bound {degree_bound}")
    need = degree_bound + 2
    if len(samples) < need:
        raise EulerError(
            f"need {need} samples for degree bound "
            f"{degree_bound}, got {len(samples)}")
    coeffs = polynomial_coeffs(samples[:degree_bound + 1])
    for q, cnt in samples[degree_bound + 1:]:
        predicted = Fraction(0)
        for c in reversed(coeffs):
            predicted = predicted * q + c
        if predicted != cnt:
            raise EulerError(
                f"count at q={q} is {cnt}, interpolation "
                f"predicts {predicted}; degree bound {degree_bound} "
                f"violated or a bad prime slipped through")
    val = sum(coeffs)
    if val.denominator != 1:
        raise EulerError(f"value at q=1 is non-integral: {val}")
    return EulerValue(int(val), coeffs, samples, degree_bound, "verified")


def euler_of(label: str, counter: Callable[[int, List], Mapping],
             bounds: Mapping[Hashable, int],
             primes: Sequence[int]) -> Dict[Hashable, EulerValue]:
    """Euler characteristic of every key of a table of point counts.

    ``bounds`` maps each key to its degree bound, and key k is fitted on
    the first bounds[k] + 2 primes.  ``counter(p, keys)`` is called at
    each of those primes in turn with the keys that still need p, and
    returns a mapping that holds their counts at p.  Key k is labelled
    "label k" in errors.
    """
    need = max(bounds.values(), default=-2) + 2
    if len(primes) < need:
        raise EulerError(
            f"{label}: need {need} primes, got {len(primes)}")
    tables = [counter(primes[i], [k for k, b in bounds.items() if i < b + 2])
              for i in range(need)]
    return {k: interpolate_euler(f"{label} {k}", tuple(
        (p, t[k]) for p, t in zip(primes, tables[:b + 2])), b)
        for k, b in bounds.items()}


# Standard degree bounds ----------------------------------------------------


def grassmannian_degree_bound(dims: Sequence[int],
                              edims: Sequence[int]) -> int:
    """Submodule variety sits in a product of vertex Grassmannians.

    Raises EulerError unless 0 <= e_i <= dim_i at every vertex.
    """
    edims, dims = tuple(edims), tuple(dims)
    if len(edims) != len(dims) or \
            any(not 0 <= e <= d for d, e in zip(dims, edims)):
        raise EulerError(f"dimension vector {edims} does not lie between 0 "
                         f"and the module's dimension vector {dims}")
    return sum(e * (d - e) for d, e in zip(dims, edims))


def flag_degree_bound(dims: Sequence[int]) -> int:
    """Chains of submodules sit in a product of complete flag varieties."""
    return sum(d * (d - 1) // 2 for d in dims)


def projective_space_degree_bound(ext_dim: int) -> int:
    """Lines in an extension space."""
    return max(ext_dim - 1, 0)


def good_primes(pred: Callable[[int], bool], count: int) -> List[int]:
    """First ``count`` primes up to ``PRIME_LIMIT`` satisfying a screening
    predicate."""
    out = []
    for p in range(2, PRIME_LIMIT + 1):
        if _is_prime(p) and pred(p):
            out.append(p)
            if len(out) == count:
                return out
    raise EulerError(
        f"could not find {count} usable primes below {PRIME_LIMIT}")


def select_primes(m, n, extra: Sequence, count: int,
                  supplied: Optional[Sequence[int]]) -> List[int]:
    """First ``count`` primes that pass ``counting.good_prime`` for the
    rational pair (m, n) with auxiliary modules ``extra``.

    Supplied primes are screened the same way and used in their given
    order; automatic selection scans upward from 2.  A supplied value
    above ``PRIME_LIMIT``, repeated or not a prime is an error, and values
    are checked against the limit before any primality test.  One module
    alone is screened as the pair (m, zero module).
    """
    def pred(p):
        return good_prime(m, n, p, extra=extra)

    if supplied is None:
        return good_primes(pred, count)
    too_large = [p for p in supplied if p > PRIME_LIMIT]
    if too_large:
        raise EulerError(f"supplied values exceed {PRIME_LIMIT}: "
                         + ", ".join(str(p) for p in too_large))
    repeated = sorted(p for p, k in Counter(supplied).items() if k > 1)
    if repeated:
        raise EulerError("supplied values are repeated: "
                         + ", ".join(str(p) for p in repeated))
    not_prime = [p for p in supplied if not _is_prime(p)]
    if not_prime:
        raise EulerError("supplied values are not prime: "
                         + ", ".join(str(p) for p in not_prime))
    usable = [p for p in supplied if pred(p)]
    if len(usable) < count:
        raise EulerError(
            f"only {len(usable)} of the supplied primes pass the "
            f"good-prime screen, {count} needed")
    return usable[:count]
