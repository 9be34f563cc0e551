from fractions import Fraction

import pytest

from calihecke.seminormal import weight_class
from calihecke.unitary_loci import (
    UnitaryLocus,
    column_reading_weight,
    hook_stats,
    irrational_locus_contains,
    is_almost_rectangle,
    is_calibrated_level1,
    is_calibrated_level1_crystal,
    locus_contains,
    oracle_locus_verdict,
    positivity_oracle,
    q_admissible_tableaux,
    unitary_locus,
)
from calihecke.multipartitions import count_standard_tableaux, partitions_of
from calihecke.sweeps import locus_sweep, problems, tally


def test_hook_stats_known():
    table = {
        (3,): (3, 2),
        (1, 1, 1): (3, 4),
        (2, 1): (3, 3),
        (3, 2): (4, 3),
        (3, 3, 2): (5, 4),
        (4, 4): (5, 3),
        (2, 2, 1): (4, 4),
    }
    for la, expected in table.items():
        assert hook_stats(la) == expected


def test_hook_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        hook_stats(())
    with pytest.raises(ValueError):
        hook_stats((1, 2))


def test_almost_rectangles():
    assert is_almost_rectangle((3, 3, 2))
    assert is_almost_rectangle((2, 2))
    assert is_almost_rectangle((3, 2))
    assert not is_almost_rectangle((3, 1))
    assert not is_almost_rectangle((1, 1))  # rows of length 1 are excluded


def test_locus_rows_and_columns():
    assert unitary_locus((5,)) == UnitaryLocus(full=True)
    ones = unitary_locus((1, 1, 1))
    assert ones.full
    assert ones.exclusions == (Fraction(-1, 3), Fraction(1, 3), Fraction(1, 2))
    assert ones.contains(Fraction(1, 4))
    assert not ones.contains(Fraction(1, 3))


def test_locus_known_shapes():
    assert unitary_locus((2, 1)) == UnitaryLocus(radius=Fraction(1, 3))
    assert unitary_locus((3, 1)) == UnitaryLocus(radius=Fraction(1, 4))
    assert unitary_locus((2, 2, 1)) == UnitaryLocus(radius=Fraction(1, 4))
    # almost rectangles pick up the extra points at denominator m
    assert unitary_locus((3, 2)) == UnitaryLocus(
        radius=Fraction(1, 4), points=(Fraction(-1, 3), Fraction(1, 3)))
    assert unitary_locus((3, 3, 2)) == UnitaryLocus(
        radius=Fraction(1, 5), points=(Fraction(-1, 4), Fraction(1, 4)))


def test_locus_contains_interval_and_window():
    assert locus_contains((2, 1), Fraction(1, 3))
    assert not locus_contains((2, 1), Fraction(2, 5))
    assert locus_contains((3, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        locus_contains((2, 1), Fraction(3, 4))
    assert irrational_locus_contains((2, 1), (Fraction(1, 4), Fraction(3, 10)))
    assert not irrational_locus_contains((2, 1), (Fraction(2, 5), Fraction(49, 100)))
    with pytest.raises(ValueError):
        irrational_locus_contains((2, 1), (Fraction(1, 4), Fraction(2, 5)))


def test_locus_always_contains_small_interval():
    for n in range(2, 8):
        for la in partitions_of(n):
            ell, _ = hook_stats(la)
            U = unitary_locus(la)
            if not U.full:
                assert U.radius == Fraction(1, ell)
                assert U.contains(Fraction(1, ell))
                assert U.contains(Fraction(-1, ell))


def test_calibration_threshold():
    assert is_calibrated_level1((2, 1), 3)
    assert not is_calibrated_level1((2, 1), 2)
    assert is_calibrated_level1((1, 1, 1), 4)
    assert not is_calibrated_level1((1, 1, 1), 3)
    assert is_calibrated_level1((3, 2), 0)  # generic q


def test_calibration_formula_matches_crystal():
    for n in range(1, 9):
        for la in partitions_of(n):
            for e in range(2, 10):
                assert is_calibrated_level1(la, e) == \
                    is_calibrated_level1_crystal(la, e), (la, e)


def test_admissible_tableaux_counts():
    # when calibrated, the admissible tableaux index the weight class
    for la, e in [((2, 1), 3), ((2, 1), 4), ((3, 1), 4), ((2, 2), 3)]:
        tabs = q_admissible_tableaux(la, e)
        cls = weight_class(column_reading_weight(la, e), e)
        assert len(tabs) == len(cls)
    # generic q: everything is admissible
    assert len(q_admissible_tableaux((3, 2), 0)) == count_standard_tableaux(((3, 2),))


def test_column_reading_weight_is_in_class():
    for la, e in [((2, 1), 4), ((3, 2), 5)]:
        m = column_reading_weight(la, e)
        assert m in weight_class(m, e)


def test_positivity_oracle_known():
    # c = 1/3 lies in U((2,1)); c = 2/5 does not
    assert positivity_oracle((2, 1), 1, 3)
    assert not positivity_oracle((2, 1), 2, 5)
    with pytest.raises(ValueError):
        positivity_oracle((2, 1), 2, 4)


def test_oracle_respects_calibration():
    # (1,1,1) is not calibrated at e = 3, so no verdict can be positive
    assert not oracle_locus_verdict((1, 1, 1), 1, 3)
    assert oracle_locus_verdict((1, 1, 1), 1, 4)


def test_closed_form_matches_oracle_small():
    # n 2..6, e 2..8, every a coprime to e
    tallies = tally(locus_sweep(range(2, 7), range(2, 9)))
    assert problems(tallies, {"locus=oracle": 588}) == {"locus=oracle": None}


def test_locus_equality_with_other_types():
    loc = UnitaryLocus(radius=Fraction(1, 3))
    assert loc.__eq__(1) is NotImplemented
    assert loc != 1
    assert loc != "locus"
    assert loc == UnitaryLocus(radius=Fraction(1, 3))
