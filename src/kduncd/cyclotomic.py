"""Exact arithmetic in the cyclotomic field of d-th roots of unity.

An element is stored as a length-d vector of rationals in the monomial
basis 1, w, ..., w^(d-1), i.e. as a residue in Q[x]/(x^d - 1) with x
standing for w = exp(2*pi*i/d).  Products of roots of unity are then
plain cyclic convolutions, which keeps arithmetic on matrix entries
sparse and cheap.  Whether a value is zero as a complex number is decided
by reducing modulo the d-th cyclotomic polynomial (the minimal polynomial
of w), never by comparing a floating-point magnitude against a threshold.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

__all__ = [
    "CycNum",
    "IntPoly",
    "cyclotomic_polynomial",
    "divisors",
    "is_prime",
    "is_zero",
    "root_power",
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

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPoly(out)

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

    def __mod__(self, other: IntPoly) -> IntPoly:
        return divmod(self, other)[1]


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


@lru_cache(maxsize=None)
def _unit_roots(d: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * cmath.pi * k / d) for k in range(d))


@dataclass(frozen=True, init=False)
class CycNum:
    """An exact element of the field of rationals extended by a d-th root of unity.

    ``coeffs[k]`` multiplies w^k.  Equality and hashing are structural, on the
    stored representative; use :meth:`is_zero` on a difference to compare
    values of the field itself.
    """

    d: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, d: int, coeffs: Iterable) -> None:
        if d < 1:
            raise ValueError("order d must be a positive integer")
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != d:
            raise ValueError(f"expected {d} coefficients, got {len(cs)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, d: int) -> CycNum:
        return cls(d, [0] * d)

    @classmethod
    def one(cls, d: int) -> CycNum:
        return cls(d, [1] + [0] * (d - 1))

    def _require_same_order(self, other: CycNum) -> None:
        if self.d != other.d:
            raise ValueError(f"mixed root orders: {self.d} and {other.d}")

    def __add__(self, other: CycNum) -> CycNum:
        self._require_same_order(other)
        return CycNum(self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: CycNum) -> CycNum:
        self._require_same_order(other)
        return CycNum(self.d, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> CycNum:
        return CycNum(self.d, [-a for a in self.coeffs])

    def __mul__(self, other: CycNum | int | Fraction) -> CycNum:
        if isinstance(other, (int, Fraction)):
            return CycNum(self.d, [a * other for a in self.coeffs])
        if not isinstance(other, CycNum):
            return NotImplemented
        self._require_same_order(other)
        d = self.d
        out = [Fraction(0)] * d
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        if k >= d:
                            k -= d
                        out[k] += a * b
        return CycNum(d, out)

    def __rmul__(self, other: int | Fraction) -> CycNum:
        return self.__mul__(other)

    def residue(self) -> IntPoly:
        """Representative reduced modulo the d-th cyclotomic polynomial."""
        return IntPoly(self.coeffs) % cyclotomic_polynomial(self.d)

    def is_zero(self) -> bool:
        return self.residue().is_zero()

    def numeric(self) -> complex:
        """Evaluate at w = exp(2*pi*i/d) in floating point."""
        roots = _unit_roots(self.d)
        return sum((complex(c) * roots[k] for k, c in enumerate(self.coeffs) if c), 0j)


def root_power(d: int, k: int) -> CycNum:
    """The exact root of unity w_d^k, with the exponent reduced mod d."""
    if d < 1:
        raise ValueError("order d must be a positive integer")
    coeffs = [0] * d
    coeffs[k % d] = 1
    return CycNum(d, coeffs)


def is_zero(a: CycNum) -> bool:
    """True iff ``a`` equals zero as a complex number."""
    return a.is_zero()
