"""Integer helpers for the d-th roots of unity: divisors, primality and
cyclotomic polynomials.

The exact rank engine (``linalg``) maps Z[w], w = exp(2*pi*i/d), onto the
integers modulo primes p = 1 (mod d).  It needs the divisors of d, a
primality test for its moduli, and the degree of the d-th cyclotomic
polynomial (Euler's totient of d) for its norm bound.  ``IntPoly`` carries
just the exact division that builds the cyclotomic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

__all__ = [
    "IntPoly",
    "cyclotomic_polynomial",
    "divisors",
    "is_prime",
]


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    small: list[int] = []
    large: list[int] = []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first twelve prime bases.

    Exact for every n below 3.18 * 10^23, the least strong pseudoprime to
    all twelve bases, which covers the 62-bit moduli of the exact engine.
    """
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MILLER_RABIN_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, init=False)
class IntPoly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are ascending in degree and carry no trailing zeros, so the
    zero polynomial has an empty tuple.  Cyclotomic moduli built from these
    are integer valued; rationals only appear in intermediate quotients.
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        ddeg = other.degree
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(0, len(rem) - ddeg)
        for k in range(len(rem) - 1, ddeg - 1, -1):
            c = rem[k]
            if c:
                q = c / lead
                quo[k - ddeg] = q
                base = k - ddeg
                for i, oc in enumerate(other.coeffs):
                    rem[base + i] -= q * oc
        return IntPoly(quo), IntPoly(rem[:ddeg])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial.

    Computed by exact division of x^d - 1 by the cyclotomic polynomials of
    all proper divisors of d; the degree equals Euler's totient of d.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if d == 1:
        return IntPoly((-1, 1))
    poly = IntPoly([-1] + [0] * (d - 1) + [1])
    for e in divisors(d)[:-1]:
        poly, rem = divmod(poly, cyclotomic_polynomial(e))
        if not rem.is_zero():
            raise ArithmeticError(f"x^{d} - 1 not divisible by a lower cyclotomic factor")
    return poly
