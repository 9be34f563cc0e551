"""Level-1 (symmetric group block) calibration and unitary loci.

Everything here is about a single partition la at charge s = (0): the
principal hook length ell, the threshold m below which q-calibration fails,
the closed-form unitary locus U(la) over parameters c = a/e in (-1/2, 1/2],
admissible tableaux, and the exact seminormal positivity oracle used to
cross-check the closed form.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .multipartitions import (
    Charge,
    charged_content,
    remove_box,
    residue,
    reverse_column_reading_tableau,
    standard_tableaux,
    is_partition,
)

# The closed form needs only the partition; the oracles below import the
# crystal and the seminormal layer when they run, so `calihecke locus`
# loads neither.


def hook_stats(la):
    """(ell, m): principal hook length, and the least e at which the simple
    head is calibrated.

    m = la_1 - la_h + h for non-rectangles and h + 1 for rectangles (h the
    number of rows); for almost rectangles (a^x, (a-1)^y) with y > 0 this is
    x + y + 1.
    """
    if not la or not is_partition(la):
        raise ValueError("need a nonempty partition")
    h = len(la)
    ell = la[0] + h - 1
    m = la[0] - la[-1] + h if la[0] > la[-1] else h + 1
    return ell, m


def is_almost_rectangle(la):
    """(a^x, (a-1)^y) with a > 1, x > 0, y >= 0."""
    a = la[0]
    if a <= 1:
        return False
    return all(part in (a, a - 1) for part in la)


class UnitaryLocus:
    """Closed-form description of U(la) inside (-1/2, 1/2].

    full: the whole parameter window; exclusions: removed rational points;
    radius: the closed interval [-radius, radius]; points: extra rational
    members outside the interval.
    """

    def __init__(self, full=False, exclusions=(), radius=None, points=()):
        self.full = full
        self.exclusions = tuple(sorted(set(exclusions)))
        self.radius = radius
        self.points = tuple(sorted(set(points)))

    def __eq__(self, other):
        if not isinstance(other, UnitaryLocus):
            return NotImplemented
        return (self.full, self.exclusions, self.radius, self.points) == \
               (other.full, other.exclusions, other.radius, other.points)

    def __repr__(self):
        return (f"UnitaryLocus(full={self.full}, exclusions={self.exclusions},"
                f" radius={self.radius}, points={self.points})")

    def contains(self, c):
        c = Fraction(c)
        if not -Fraction(1, 2) < c <= Fraction(1, 2):
            raise ValueError("parameter must lie in (-1/2, 1/2]")
        if self.full:
            return c not in self.exclusions
        return abs(c) <= self.radius or c in self.points

    def contains_irrational(self, lo, hi):
        """Membership verdict for an irrational parameter known only to lie
        in the open window (lo, hi); the window must not straddle the
        decision boundary."""
        lo, hi = Fraction(lo), Fraction(hi)
        if self.full:
            return True
        if hi <= self.radius and lo >= -self.radius:
            return True
        if lo >= self.radius or hi <= -self.radius:
            return False
        raise ValueError("window straddles the interval boundary")


def _window_fractions(max_den):
    """All reduced p/q with 2 <= q <= max_den inside (-1/2, 1/2]."""
    out = []
    for q in range(2, max_den + 1):
        for p in range(-q // 2, q // 2 + 1):
            c = Fraction(p, q)
            if c.denominator == q and -Fraction(1, 2) < c <= Fraction(1, 2):
                out.append(c)
    return out


def unitary_locus(la):
    if not la or not is_partition(la):
        raise ValueError("need a nonempty partition")
    n = sum(la)
    if len(la) == 1:
        return UnitaryLocus(full=True)
    if la[0] == 1:
        return UnitaryLocus(full=True, exclusions=_window_fractions(n))
    ell, m = hook_stats(la)
    radius = Fraction(1, ell)
    points = {Fraction(sgn, L) for L in range(m, ell + 1) for sgn in (1, -1)}
    points.discard(Fraction(-1, 2))  # the window is open at -1/2
    if is_almost_rectangle(la):
        points.update(c for c in _window_fractions(m) if c.denominator == m)
    points = {c for c in points if abs(c) > radius}
    return UnitaryLocus(radius=radius, points=points)


def locus_contains(la, c):
    return unitary_locus(la).contains(c)


def irrational_locus_contains(la, window):
    return unitary_locus(la).contains_irrational(*window)


# ---------------------------------------------------------------------------
# Calibration and the exact positivity oracle.


def is_calibrated_level1(la, e):
    """Is the simple head D(la) calibrated at a primitive e-th root of
    unity?  True for e = 0 (q generic); otherwise iff e >= m."""
    if e == 0:
        return True
    _, m = hook_stats(la)
    return m <= e


def is_calibrated_level1_crystal(la, e):
    """Independent verdict via the crystal: D(la) is calibrated iff la is a
    no-stuttering vertex at charge (0)."""
    from .crystal import is_no_stuttering

    return is_no_stuttering((la,), Charge((0,), e))


def q_admissible_tableaux(la, e):
    """Standard tableaux every one of whose top-entry boxes is the good
    removable box of its prefix shape.  For e = 0 all are admissible."""
    from .crystal import e_tilde

    out = []
    if e == 0:
        return list(standard_tableaux((la,)))
    ch = Charge((0,), e)
    for t in standard_tableaux((la,)):
        shape = (tuple(la),)
        good = True
        for b in reversed(t):
            down = e_tilde(shape, ch, residue(b, ch))
            if down is None or down != remove_box(shape, b):
                good = False
                break
            shape = down
        if good:
            out.append(t)
    return out


def column_reading_weight(la, e):
    """Exponent vector of the column-reading tableau: m_k = -content of the
    box holding k, reduced mod e."""
    ch = Charge((0,), e)
    return tuple((-charged_content(b, ch)) % e for b in reverse_column_reading_tableau((la,)))


@lru_cache(maxsize=None)
def _cached_class(la, e):
    from .seminormal import is_calibrated_weight, weight_class

    m = column_reading_weight(la, e)
    if not is_calibrated_weight(m, e):
        raise ValueError("partition not calibrated at this e")
    return tuple(weight_class(m, e))


def positivity_oracle(la, a, e):
    """Is the invariant form on the calibrated class of la positive definite
    at q = exp(2*pi*i*a/e)?  Exact sign propagation, no matrices."""
    from .seminormal import class_form_signs

    if gcd(a, e) != 1:
        raise ValueError("need gcd(a, e) = 1")
    cls = _cached_class(tuple(la), e)
    return all(s == 1 for s in class_form_signs(cls, e, a).values())


def oracle_locus_verdict(la, a, e):
    """The arbiter for the closed form: calibrated (crystal test) and all
    form signs positive."""
    if not is_calibrated_level1_crystal(la, e):
        return False
    return positivity_oracle(la, a, e)
