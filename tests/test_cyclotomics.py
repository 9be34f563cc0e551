import cmath
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from calihecke import cyclotomics
from calihecke.cyclotomics import (
    Cyc,
    _polydiv_exact,
    cyclotomic_polynomial,
    is_primitive_power_one,
    re_compare,
)
from oracles import FracCyc, power_basis_vector


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for e in range(1, 31):
        ours = cyclotomic_polynomial(e)
        theirs = sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


@st.composite
def cycs(draw):
    e = draw(st.integers(min_value=2, max_value=8))
    coeffs = draw(st.lists(st.integers(min_value=-5, max_value=5),
                           min_size=e, max_size=e))
    return Cyc(e, [Fraction(c) for c in coeffs])


@given(cycs(), cycs())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(x, y):
    if x.e != y.e:
        return
    assert x + y == y + x
    assert x * y == y * x
    assert (x - y) + y == x
    assert x * (y + 1) == x * y + x


@given(cycs())
@settings(max_examples=100, deadline=None)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    assert x * x.inv() == 1
    assert (x / x) == Cyc.one(x.e)


@given(cycs(), cycs())
@settings(max_examples=100, deadline=None)
def test_conjugation(x, y):
    if x.e != y.e:
        return
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


def test_zeta_powers():
    for e in range(2, 10):
        z = Cyc.zeta_power(e, 1)
        acc = Cyc.one(e)
        for _ in range(e):
            acc = acc * z
        assert acc == 1
        assert sum((Cyc.zeta_power(e, k) for k in range(1, e)), Cyc.one(e)).is_zero()
        assert Cyc.zeta_power(e, 1).conj() == Cyc.zeta_power(e, e - 1)


def test_to_complex_agrees_with_exp():
    for e in range(2, 9):
        for k in range(e):
            approx = Cyc.zeta_power(e, k).to_complex()
            exact = cmath.exp(2j * cmath.pi * k / e)
            assert abs(approx - exact) < 1e-9


def test_re_compare_matches_cosine():
    for e in range(2, 40):
        for d1 in range(e):
            for d2 in range(e):
                c1 = math.cos(2 * math.pi * d1 / e)
                c2 = math.cos(2 * math.pi * d2 / e)
                want = 0 if abs(c1 - c2) < 1e-12 else (1 if c1 > c2 else -1)
                assert re_compare(d1, d2, e) == want


def test_primitive_powers():
    assert is_primitive_power_one(1, 6)
    assert is_primitive_power_one(5, 6)
    assert not is_primitive_power_one(2, 6)


def test_rational_embedding():
    x = Cyc.from_rational(5, Fraction(3, 7))
    assert (x * 7) == 3
    assert x.conj() == x


# -- the integer kernel against the Fraction-vector oracle ----------------------

fractions_ = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                       st.integers(min_value=1, max_value=6))


@st.composite
def element_pairs(draw):
    """An order e in 1..30 and two coefficient lists of any length <= e + 3."""
    e = draw(st.integers(min_value=1, max_value=30))
    lists = st.lists(fractions_, max_size=e + 3)
    return e, draw(lists), draw(lists)


@given(element_pairs())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_oracle(pair):
    e, ca, cb = pair
    x, y = Cyc(e, ca), Cyc(e, cb)
    X, Y = FracCyc(e, ca), FracCyc(e, cb)
    assert power_basis_vector(x) == X.coeffs
    for ours, theirs in [(x + y, X + Y), (x - y, X - Y), (x * y, X * Y),
                         (x.conj(), X.conj())]:
        assert power_basis_vector(ours) == theirs.coeffs
    assert (x == y) == (X == Y)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
    else:
        assert power_basis_vector(x.inv()) == X.inv().coeffs


@given(element_pairs(), st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=200, deadline=None)
def test_galois_maps_match_fraction_oracle(pair, j, k):
    e, ca, cb = pair
    x, y = Cyc(e, ca), Cyc(e, cb)
    if math.gcd(j, e) != 1:
        # zeta -> zeta^j is then no field map
        with pytest.raises(ValueError):
            x.galois(j)
        return
    # equal as canonical elements, so the map keeps the canonical form
    assert x.galois(j) == Cyc(e, FracCyc(e, ca).galois(j).coeffs)
    assert (x + y).galois(j) == x.galois(j) + y.galois(j)
    assert (x * y).galois(j) == x.galois(j) * y.galois(j)
    assert x.galois(-1) == x.conj()
    if math.gcd(k, e) == 1:
        assert x.galois(j).galois(k) == x.galois(j * k % e)


@given(element_pairs())
@settings(max_examples=40, deadline=None)
def test_products_match_sympy(pair):
    e, ca, cb = pair
    x = sympy.symbols("x")
    phi = sympy.cyclotomic_poly(e, x)
    pa = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(ca))
    pb = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(cb))
    rem = sympy.Poly(sympy.rem(sympy.expand(pa * pb), phi, x), x)
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    want = tuple(want + [Fraction(0)] * (e - len(want)))
    assert power_basis_vector(Cyc(e, ca) * Cyc(e, cb)) == want


def test_rational_hashes_agree_with_equality():
    assert Cyc.one(5) == 1
    assert hash(Cyc.one(5)) == hash(1)
    third = Cyc.from_rational(5, Fraction(3, 7))
    assert hash(third) == hash(Fraction(3, 7))
    assert hash(Cyc(6, [Fraction(1, 2), 1, 1, 1, 1, 1])) == hash(Fraction(-1, 2))
    assert {Cyc.one(3): "one"}[1] == "one"
    half = Fraction(1, 2)
    assert {Cyc.from_rational(5, half), Cyc.from_rational(7, half), half} == {half}
    with pytest.raises(ValueError):
        Cyc.zeta_power(5, 1) == Cyc.one(7)


def test_canonical_form():
    x = Cyc(4, [Fraction(2, 6), Fraction(4, 6)])
    assert (x.num, x.den) == ((1, 2), 3)
    assert Cyc(4, [Fraction(1, 2)]) * 2 == 1
    zero = Cyc(7, [Fraction(5, 3)] * 7)
    assert (zero.num, zero.den) == ((0,) * 6, 1)


def test_constructor_accepts_any_length():
    assert Cyc(5, [0] * 7 + [1]) == Cyc.zeta_power(5, 2)
    assert Cyc(3, [1, 1, 1]).is_zero()
    assert Cyc(4, []).is_zero()
    assert Cyc(6, [1] * 13) == 1
    assert Cyc(1, [1, 2, 3]) == 6
    assert Cyc(2, [1, 2, 3]) == 2


def test_non_exact_division_raises():
    with pytest.raises(ArithmeticError):
        _polydiv_exact([1, 0, 1], [-1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(ValueError):
        _polydiv_exact([1, 0, 1], [1, 2])  # the divisor must be monic
    assert _polydiv_exact([-1, 0, 1], [-1, 1]) == [1, 1]


def test_inverse_raises_when_the_norm_is_not_rational(monkeypatch):
    # with every Galois map replaced by the identity, the "norm" of zeta is
    # zeta^phi(e), which is not rational: inv must raise, not assert
    rows = cyclotomics._galois_rows(5, 1)
    monkeypatch.setattr(cyclotomics, "_galois_rows", lambda e, j: rows)
    with pytest.raises(ArithmeticError):
        Cyc.zeta_power(5, 1).inv()
