import cmath
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from kduncd.cyclotomic import IntPoly, cyclotomic_polynomial, divisors, is_prime

from cyclotomic_reference import CycNum, is_zero, root_power


def test_root_power_identity():
    x = root_power(4, 0)
    assert x.coeffs == (1, 0, 0, 0)


def test_root_power_reduces_exponent_mod_d():
    x = root_power(4, 6)
    assert x.coeffs == (0, 0, 1, 0)


def test_root_power_negative_exponent():
    assert root_power(5, -1).coeffs == root_power(5, 4).coeffs


def test_root_power_half_turn_is_minus_one():
    # oracle: evaluate exp(2*pi*i*3/6) = -1 numerically
    x = root_power(6, 3)
    assert abs(x.numeric() - cmath.exp(2j * cmath.pi * 3 / 6)) < 1e-12
    assert (x + CycNum.one(6)).is_zero()


def test_root_power_rejects_zero_order():
    with pytest.raises(ValueError):
        root_power(0, 1)


def test_product_of_complementary_roots_is_one():
    assert (root_power(4, 1) * root_power(4, 3)).coeffs == CycNum.one(4).coeffs


def test_sum_of_cube_roots_vanishes():
    s = root_power(6, 2) + root_power(6, 4) + CycNum.one(6)
    assert abs(s.numeric()) < 1e-12  # numeric oracle
    assert s.is_zero()


def test_self_difference_is_zero():
    a = CycNum(5, [1, 2, Fraction(1, 3), 0, -4])
    assert (a - a).is_zero()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        root_power(4, 1) + root_power(5, 1)


def test_cyclotomic_polynomial_first():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)


@pytest.mark.parametrize("d, expected", [(4, (1, 0, 1)), (6, (1, -1, 1))])
def test_cyclotomic_polynomial_small(d, expected):
    # oracle: divide x^d - 1 by the product of the lower cyclotomic factors
    assert cyclotomic_polynomial(d).coeffs == expected
    x = sympy.symbols("x")
    ours = sum(int(c) * x**k for k, c in enumerate(cyclotomic_polynomial(d).coeffs))
    assert sympy.expand(ours - sympy.cyclotomic_poly(d, x)) == 0


@pytest.mark.parametrize("d", range(1, 25))
def test_cyclotomic_polynomial_matches_sympy(d):
    x = sympy.symbols("x")
    ours = sum(int(c) * x**k for k, c in enumerate(cyclotomic_polynomial(d).coeffs))
    assert sympy.expand(ours - sympy.cyclotomic_poly(d, x)) == 0


@pytest.mark.parametrize("d", range(1, 25))
def test_cyclotomic_degrees_sum_to_d(d):
    assert sum(cyclotomic_polynomial(e).degree for e in divisors(d)) == d


@pytest.mark.parametrize("d", range(1, 25))
def test_root_power_numeric_agreement(d):
    for k in range(d):
        expected = cmath.exp(2j * cmath.pi * k / d)
        assert abs(root_power(d, k).numeric() - expected) < 1e-12


def test_is_zero_basic_cases():
    assert (root_power(4, 2) + CycNum.one(4)).is_zero()
    assert not is_zero(root_power(5, 1))
    geometric = CycNum(6, [1] * 6)
    assert geometric.is_zero()


def _fold(d, coeffs):
    """The residue mod x^d - 1 of the polynomial with these coefficients."""
    vec = [Fraction(0)] * d
    for k, c in enumerate(coeffs):
        vec[k % d] += c
    return CycNum(d, vec)


@pytest.mark.slow
@pytest.mark.parametrize("d", range(1, 25))
def test_is_zero_agrees_with_numeric_on_random_elements(d):
    """The exact zero test is the arbiter; the numeric magnitude at 1e-9 must
    never disagree on random small-coefficient elements or constructed zeros."""
    seed = 1234 + d
    rng = np.random.default_rng(seed)
    coeff_table = rng.integers(-3, 4, size=(10_000, d))
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    numeric_mags = np.abs(coeff_table @ roots)
    disagreements = 0
    for row, mag in zip(coeff_table, numeric_mags):
        exact = CycNum(d, [int(c) for c in row]).is_zero()
        if exact != bool(mag < 1e-9):
            disagreements += 1
    # constructed true zeros: random multiples of the cyclotomic polynomial
    phi = cyclotomic_polynomial(d)
    phi_elem = _fold(d, phi.coeffs)
    for _ in range(20):
        mult = _fold(d, rng.integers(-3, 4, size=max(1, d - phi.degree)).tolist())
        elem = phi_elem * mult
        if not elem.is_zero() or abs(elem.numeric()) >= 1e-9:
            disagreements += 1
    assert disagreements == 0, f"seed={seed}"


_small_coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=12)


@st.composite
def _cyc_triples(draw):
    coeffs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=12),
                           min_size=3, max_size=3))
    d = max(len(c) for c in coeffs)
    vals = [CycNum(d, list(c) + [0] * (d - len(c))) for c in coeffs]
    return vals[0], vals[1], vals[2]


@settings(max_examples=150, deadline=None)
@given(_cyc_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


def test_intpoly_divmod_exact():
    num = IntPoly([-1, 0, 0, 0, 1])  # x^4 - 1
    den = IntPoly([1, 0, 1])  # x^2 + 1
    q, r = divmod(num, den)
    assert r.is_zero()
    assert q.coeffs == (-1, 0, 1)


def test_intpoly_divmod_remainder():
    q, r = divmod(IntPoly([1, 1, 1]), IntPoly([-1, 1]))  # by x - 1
    assert r.coeffs == (3,)
    assert q.coeffs == (2, 1)


def test_is_prime_matches_sympy_below_ten_thousand():
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if sympy.isprime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        2**61 - 1,  # Mersenne prime
        2**62 - 57,  # largest prime below 2^62
        2**62 - 1,
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        4611686014132420609,  # (2^31 - 1)^2
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    ],
)
def test_is_prime_matches_sympy_on_large_values(n):
    assert is_prime(n) == sympy.isprime(n)
