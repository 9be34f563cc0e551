"""Exact arithmetic in Q(zeta_e) and exact real-part comparisons.

An element of Q(zeta_e), zeta = exp(2*pi*i/e), is stored as (e, num, den):
``num`` holds the integer numerators on the power basis
1, zeta, ..., zeta^(phi(e)-1) of Q[x]/Phi_e, and ``den`` is one shared
positive denominator.  The form is canonical (gcd(den, *num) = 1), so
equality is tuple equality and a rational element hashes as the Fraction it
equals.

Everything inside the kernel is Python-int arithmetic.  Phi_e is monic, so
x^k mod Phi_e has integer coefficients; one per-e table of those rows (see
_power_table) reduces products, builds zeta powers and applies the Galois
maps zeta -> zeta^j, conjugation among them.  The inverse multiplies the
other Galois conjugates and divides by the rational norm.  No floating
point is used anywhere; comparisons of real parts of roots of unity go
through the integer rule in re_compare.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Coefficients of Phi_e, constant term first, as a tuple of ints."""
    # divide x^e - 1 by Phi_d for every proper divisor d of e
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = _polydiv_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _polydiv_exact(num, den):
    """Quotient of integer polynomials (constant term first) by a monic
    divisor; raises ArithmeticError when the remainder does not vanish."""
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den or den[-1] != 1:
        raise ValueError("divisor must be a monic polynomial")
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        coef = num[i]
        if coef:
            q[i - dn] = coef
            for j in range(dn + 1):
                num[i - dn + j] -= coef * den[j]
    if any(num[:dn]):
        raise ArithmeticError("non-exact cyclotomic division")
    return q


@lru_cache(maxsize=None)
def _power_table(e):
    """Rows x^k mod Phi_e on the power basis, for k < max(2 phi(e) - 1, e):
    enough to reduce the product of two reduced elements, and to map any
    zeta^k (x^e = 1) into the basis."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(max(2 * d - 1, e)):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * p for r, p in zip(row, phi)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _galois_rows(e, j):
    """Images of the basis vectors zeta^k under zeta -> zeta^j, for j prime
    to e; any other j maps zeta to a root of unity that is not primitive,
    which is no field map."""
    if gcd(j, e) != 1:
        raise ValueError("need gcd(j, e) = 1")
    table = _power_table(e)
    return tuple(table[(j * k) % e] for k in range(len(table[0])))


def _apply_rows(num, rows):
    """The integer vector sum_k num[k] * rows[k]."""
    out = [0] * len(rows[0])
    for c, row in zip(num, rows):
        if c:
            for t, r in enumerate(row):
                if r:
                    out[t] += c * r
    return out


def _mulmod(e, a, b):
    """Product of integer vectors a, b on the power basis, reduced mod Phi_e."""
    d = len(a)
    if d == 1 or not any(b[1:]):
        s = b[0]
        return [x * s for x in a]
    if not any(a[1:]):
        s = a[0]
        return [s * y for y in b]
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    prod[j] += x * y
    out, high = prod[:d], prod[d:]
    if any(high):
        out = [x + y for x, y in zip(out, _apply_rows(high, _power_table(e)[d:]))]
    return out


def _new(e, num, den):
    """An element from canonical data, without checks."""
    x = object.__new__(Cyc)
    x.e, x.num, x.den = e, num, den
    return x


def _canonical(e, num, den):
    """An element from integer numerators and a positive denominator,
    divided by their common content."""
    g = gcd(den, *num)
    if g != 1:
        return _new(e, tuple(c // g for c in num), den // g)
    return _new(e, tuple(num), den)


class Cyc:
    """An element of Q(zeta_e)."""

    __slots__ = ("e", "num", "den")

    def __init__(self, e, coeffs):
        """The element sum_k coeffs[k] * zeta^k, for int or Fraction
        coefficients; the list may have any length."""
        table = _power_table(e)
        fracs = [Fraction(c) for c in coeffs] or [Fraction(0)]
        den = lcm(*(c.denominator for c in fracs))
        acc = _apply_rows([c.numerator * (den // c.denominator) for c in fracs],
                          [table[k % e] for k in range(len(fracs))])
        g = gcd(den, *acc)
        self.e = e
        self.num = tuple(c // g for c in acc)
        self.den = den // g

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(e):
        return _new(e, (0,) * len(_power_table(e)[0]), 1)

    @staticmethod
    def one(e):
        return Cyc.from_rational(e, 1)

    @staticmethod
    def from_rational(e, q):
        q = Fraction(q)
        d = len(_power_table(e)[0])
        return _new(e, (q.numerator,) + (0,) * (d - 1), q.denominator)

    @staticmethod
    def zeta_power(e, k):
        return _new(e, _power_table(e)[k % e], 1)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.e, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [x + y for x, y in zip(self.num, other.num)]
        else:
            num = [x * db + y * da for x, y in zip(self.num, other.num)]
            da *= db
        if da == 1:
            return _new(self.e, tuple(num), 1)
        return _canonical(self.e, num, da)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.e, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _canonical(self.e, _mulmod(self.e, self.num, other.num),
                          self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse.  With a = num/den and P the product of
        the Galois conjugates of num other than num itself, num * P is the
        norm N, a nonzero integer, so a^-1 = den * P / N."""
        a, e = self.num, self.e
        if not any(a):
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        prod = [1] + [0] * (len(a) - 1)
        for j in range(2, e):
            if gcd(j, e) == 1:
                prod = _mulmod(e, prod, _apply_rows(a, _galois_rows(e, j)))
        norm = _mulmod(e, a, prod)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError("norm of a cyclotomic number is not a nonzero rational")
        scale = self.den if norm[0] > 0 else -self.den
        return _canonical(e, [scale * c for c in prod], abs(norm[0]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def galois(self, j):
        """The Galois map sigma_j: zeta -> zeta^j, a field automorphism for
        j prime to e (ValueError otherwise).  On the power basis it is an
        integer matrix whose inverse, sigma_(j^-1), is one too, so the
        content, and with it the canonical form, is kept."""
        rows = _galois_rows(self.e, j % self.e)
        return _new(self.e, tuple(_apply_rows(self.num, rows)), self.den)

    def conj(self):
        """Complex conjugation: zeta^k -> zeta^(e-k), which is galois(-1)."""
        return self.galois(-1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, Cyc) and other.e != self.e:
            # Q lies in every Q(zeta_e), and rationals hash as Fractions
            if any(self.num[1:]) or any(other.num[1:]):
                raise ValueError("mixed cyclotomic orders")
            return self.num[0] == other.num[0] and self.den == other.den
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.e, self.num, self.den))
        return hash(Fraction(self.num[0], self.den))

    def __repr__(self):
        terms = [f"{Fraction(c, self.den)}*z^{k}" for k, c in enumerate(self.num) if c]
        return f"Cyc({self.e}: {' + '.join(terms) or '0'})"

    def to_complex(self):
        """Float approximation (diagnostics only, never decisions)."""
        import cmath
        z = cmath.exp(2j * cmath.pi / self.e)
        return sum(c / self.den * z**k for k, c in enumerate(self.num))


def re_compare(d1, d2, e):
    """Compare Re(zeta^d1) with Re(zeta^d2) exactly.

    Returns 1, 0 or -1 for >, =, <.  cos(2*pi*d/e) depends only on
    min(d mod e, e - d mod e), and cosine strictly decreases on [0, pi].
    """
    k1 = min(d1 % e, e - d1 % e)
    k2 = min(d2 % e, e - d2 % e)
    if k1 == k2:
        return 0
    return 1 if k1 < k2 else -1


def is_primitive_power_one(d, e):
    """Is zeta^d a primitive e-th root of unity?"""
    return gcd(d, e) == 1
