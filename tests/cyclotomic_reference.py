"""Exact reference arithmetic in the cyclotomic field of d-th roots of unity.

Independent of the package's exact rank engine, which works modulo primes.
An element is stored as a length-d vector of rationals in the monomial
basis 1, w, ..., w^(d-1), i.e. as a residue in Q[x]/(x^d - 1) with x
standing for w = exp(2*pi*i/d).  Products of roots of unity are then
plain cyclic convolutions.  Whether a value is zero as a complex number is
decided by reducing modulo the d-th cyclotomic polynomial (the minimal
polynomial of w), never by comparing a floating-point magnitude against a
threshold.  Used by the tests as the oracle for exact ranks.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from kduncd.cyclotomic import IntPoly, cyclotomic_polynomial


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
        return divmod(IntPoly(self.coeffs), cyclotomic_polynomial(self.d))[1]

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
