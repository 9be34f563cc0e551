import itertools

import pytest

from calihecke.calibration import (
    border_multiset,
    charged_splittings_of_border,
    enumerate_cali,
    has_period_at_most_e,
    is_cali,
    is_cylindrical_mp_via_lemma,
    is_flotw,
    _is_cylindrical_mp,
    pad_with_empty_components,
    reading_word,
    skew_shape,
)
from calihecke.crystal import reachable_by_size
from calihecke.multipartitions import Charge, multipartitions_of


EXAMPLE_MP = ((2, 2), (2,), (3, 2))
EXAMPLE_CH = Charge((0, 1, 4), 7)


def test_border_multiset_example():
    assert border_multiset(EXAMPLE_MP, EXAMPLE_CH) == (0, 1, 2, 4, 6)
    assert reading_word(EXAMPLE_MP, EXAMPLE_CH) == (0, 1, 2, 4, 6)
    assert has_period_at_most_e(border_multiset(EXAMPLE_MP, EXAMPLE_CH), 7)
    assert is_cali(EXAMPLE_MP, EXAMPLE_CH)


def test_empty_is_cali():
    assert is_cali(((), ()), Charge((0, 1), 3))


def test_cali_requires_cylindrical_charge():
    with pytest.raises(ValueError):
        is_cali(((1,), ()), Charge((1, 0), 3))


def test_period_violation():
    # single component (3,1,1): border contents 2, -1, -2 spread 4 > e-1
    assert not is_cali(((3, 1, 1),), Charge((0,), 4))


def test_covering_condition():
    # ((1,1)) at e=2: border residues of the length-1 rows cover Z/2Z, so
    # the increasing-word and period conditions alone are not enough
    mp = ((1, 1),)
    ch = Charge((0,), 2)
    assert has_period_at_most_e(border_multiset(mp, ch), 2)
    assert sorted(reading_word(mp, ch)) == list(reading_word(mp, ch))
    assert not is_flotw(mp, ch)
    assert not is_cali(mp, ch)


def test_lemma_form_matches_direct_cylindricity():
    for e in (3, 4):
        for s2 in range(e):
            ch = Charge((0, s2), e)
            for n in range(6):
                for mp in multipartitions_of(n, 2):
                    word = reading_word(mp, ch)
                    if not (has_period_at_most_e(border_multiset(mp, ch), e)
                            and all(word[i] < word[i + 1] for i in range(len(word) - 1))):
                        continue
                    assert is_cylindrical_mp_via_lemma(mp, ch) == _is_cylindrical_mp(mp, ch)


def test_enumerate_cali_members_reachable():
    ch = Charge((0, 1), 3)
    for n in range(6):
        layer = reachable_by_size(n, ch)[n]
        for mp in enumerate_cali(n, ch):
            assert mp in layer
            assert is_cali(mp, ch)


# ---------------------------------------------------------------------------
# Staircase splittings of the semi-infinite diagram with border {0,1,2,4,6}.


BORDER = (0, 1, 2, 4, 6)
FIGURE_SKEW = None  # filled in below from the named example


def _splittings():
    return charged_splittings_of_border(BORDER, 5, 7)


def test_splitting_outputs_are_cali_with_right_border():
    outs = _splittings()
    assert len(outs) == 496
    for mp, ch in outs:
        assert is_cali(mp, ch)
        assert border_multiset(mp, ch) == BORDER


def test_named_splittings_present():
    outs = _splittings()
    assert (EXAMPLE_MP, EXAMPLE_CH) in [(mp, Charge(ch.s, ch.e)) for mp, ch in outs]
    # the one-component truncation of the semi-infinite diagram
    assert (((7, 6, 5, 5, 5),), Charge((0,), 7)) in outs


def test_exactly_eight_share_the_figure_skew_shape():
    target = skew_shape(EXAMPLE_MP, EXAMPLE_CH)
    matches = [(mp, ch) for mp, ch in _splittings()
               if skew_shape(mp, ch) == target]
    assert len(matches) == 8
    assert all(2 <= len(mp) <= 5 for mp, _ in matches)


def test_singleton_border():
    outs = charged_splittings_of_border((3,), 2, 5)
    assert (((1,),), Charge((3,), 5)) in outs
    for mp, ch in outs:
        assert border_multiset(mp, ch) == (3,)


def test_bad_border_rejected():
    with pytest.raises(ValueError):
        charged_splittings_of_border((0, 1, 2), 2, 3)  # |I| = e


def test_border_with_duplicates_rejected():
    with pytest.raises(ValueError):
        charged_splittings_of_border([0, 0, 1], 2, 4)


def test_padding_with_empty_components():
    outs = pad_with_empty_components(EXAMPLE_MP, EXAMPLE_CH, 6)
    assert len(outs) == 77
    target = ((), (2, 2), (2,), (), (), (3, 2))
    target_ch = Charge((-2, 0, 1, 2, 2, 4), 7)
    assert (target, target_ch) in outs
    for mp, ch in outs:
        assert is_cali(mp, ch)
        assert tuple(c for c in mp if c) == EXAMPLE_MP
