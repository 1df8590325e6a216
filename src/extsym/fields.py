"""Exact coefficient fields: the rationals and prime fields F_p.

Elements of the rationals are `fractions.Fraction` (or ints); elements
of F_p are plain ints in range(p).  A field carries its characteristic
``char``, its ``zero`` and ``one``, the inverse ``inv`` and the conversion
``from_fraction``, and no entry arithmetic: callers add and multiply
normalised elements with the native ``+ - *``, and ``linalg`` reduces the
results mod ``char`` over F_p.  Field objects are stateless and hashable,
so they can key caches.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class QQ:
    """The field of rational numbers."""

    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / Fraction(a)

    def from_fraction(self, f: Fraction):
        return Fraction(f)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, QQ)

    def __hash__(self):
        return hash("QQ")


class GF:
    """The prime field F_p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, f: Fraction):
        den = f.denominator
        if den % self.p == 0:
            raise FieldError(f"bad prime {self.p}: denominator {den} vanishes")
        return (f.numerator % self.p) * pow(den % self.p, self.p - 2, self.p) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


RATIONALS = QQ()
