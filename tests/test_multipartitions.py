import itertools

import pytest
from hypothesis import given, settings, strategies as st

from calihecke.multipartitions import (
    Charge,
    add_box,
    addable_boxes,
    box_key,
    boxes,
    charged_content,
    count_standard_tableaux,
    dominance_signature,
    dominates,
    dominates_by_search,
    heights,
    is_cylindrical_charge,
    is_multipartition,
    is_partition,
    is_s_admissible,
    make_charge,
    mp_size,
    multipartitions_of,
    partitions_of,
    remove_box,
    removable_boxes,
    residue,
    reverse_column_reading_tableau,
    standard_tableaux,
    step_changes,
    tableau_degree,
)
from oracles import is_standard_tableau, residue_multiset, residue_sequence


@st.composite
def partitions(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    cap = n
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, n)))
        parts.append(p)
        cap = p
        n -= p
    return tuple(parts)


@st.composite
def charged_multipartitions(draw, max_size=6):
    ell = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.integers(min_value=2, max_value=5))
    mp = tuple(draw(partitions(max_size)) for _ in range(ell))
    s0 = draw(st.integers(min_value=-3, max_value=3))
    offsets = sorted(draw(st.integers(min_value=0, max_value=e - 1))
                     for _ in range(ell - 1))
    s = (s0,) + tuple(s0 + o for o in offsets)
    return mp, Charge(s, e)


def test_partition_counts():
    # p(0..8) = 1 1 2 3 5 7 11 15 22
    assert [len(partitions_of(n)) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_multipartition_counts():
    assert len(multipartitions_of(0, 2)) == 1
    assert len(multipartitions_of(2, 2)) == 5  # (2|-), (11|-), (1|1), (-|2), (-|11)


def test_multipartitions_within_heights_are_the_filtered_full_list():
    for n in range(8):
        for ell in (1, 2, 3):
            full = multipartitions_of(n, ell)
            for hbar in itertools.product(range(4), repeat=ell):
                expected = [mp for mp in full
                            if all(len(comp) <= h for comp, h in zip(mp, hbar))]
                assert multipartitions_of(n, ell, hbar) == expected, (n, hbar)


def test_charge_validation():
    assert make_charge((0, 1), 4).level == 2
    with pytest.raises(ValueError):
        make_charge((0,), 1)
    with pytest.raises(ValueError):
        make_charge((0,), 4, a=2)
    # int() would truncate 1.7 and read True as 1
    for s in ((True, 1), (0, 1.7), ("0",)):
        with pytest.raises(ValueError):
            make_charge(s, 5)
    # level 0: is_cylindrical_charge would index s[-1]
    with pytest.raises(ValueError):
        make_charge((), 3)
    assert is_cylindrical_charge(Charge((0, 1, 4), 7))
    assert not is_cylindrical_charge(Charge((0, 1, 7), 7))
    assert not is_cylindrical_charge(Charge((1, 0), 7))


def test_contents_and_residues():
    ch = Charge((0, 1, 4), 7)
    assert charged_content((1, 1, 1), ch) == 0
    assert charged_content((2, 1, 3), ch) == 3
    assert charged_content((1, 3, 3), ch) == 6
    assert residue((2, 1, 1), ch) == 6  # content -1 mod 7


def test_box_key_order():
    # bigger content wins; ties broken toward the smaller component index
    ch = Charge((0, 0), 3)
    assert box_key((1, 2, 2), ch) > box_key((1, 1, 1), ch)
    assert box_key((1, 1, 1), ch) > box_key((1, 1, 2), ch)


@given(charged_multipartitions())
@settings(max_examples=80, deadline=None)
def test_add_remove_roundtrip(data):
    mp, ch = data
    assert addable_boxes(mp) == addable_boxes(mp, ch)
    assert removable_boxes(mp) == removable_boxes(mp, ch)
    for b in addable_boxes(mp, ch):
        assert remove_box(add_box(mp, b), b) == mp
    for b in removable_boxes(mp, ch):
        assert add_box(remove_box(mp, b), b) == mp


def _shape_of(box_set, ell):
    """The ell-multipartition whose boxes are box_set."""
    out = []
    for m in range(1, ell + 1):
        comp = []
        while (len(comp) + 1, 1, m) in box_set:
            comp.append(sum(1 for r, _, k in box_set if (r, k) == (len(comp) + 1, m)))
        out.append(tuple(comp))
    return tuple(out)


def test_add_remove_box_match_a_box_set_oracle():
    # a zero or negative index must not wrap around, nor a row past the
    # end raise IndexError: every box not addable (removable) is a ValueError
    for ell in (1, 2):
        for n in range(5):
            for mp in multipartitions_of(n, ell):
                have = {(r, c, m) for m, comp in enumerate(mp, start=1)
                        for r, row_len in enumerate(comp, start=1)
                        for c in range(1, row_len + 1)}
                for b in itertools.product(range(-1, 7), range(-1, 7), range(-1, 4)):
                    r, c, m = b
                    inside = r >= 1 and c >= 1 and 1 <= m <= ell
                    addable = (inside and b not in have
                               and (r == 1 or (r - 1, c, m) in have)
                               and (c == 1 or (r, c - 1, m) in have))
                    removable = (b in have and (r + 1, c, m) not in have
                                 and (r, c + 1, m) not in have)
                    for op, ok, after in ((add_box, addable, have | {b}),
                                          (remove_box, removable, have - {b})):
                        if ok:
                            assert op(mp, b) == _shape_of(after, ell), (op, mp, b)
                        else:
                            with pytest.raises(ValueError):
                                op(mp, b)


@given(charged_multipartitions())
@settings(max_examples=50, deadline=None)
def test_boxes_count(data):
    mp, ch = data
    assert len(boxes(mp)) == mp_size(mp)
    assert sum(residue_multiset(mp, ch).values()) == mp_size(mp)


# The reverse column reading tableau of ((2,1),(4,2,1),(5)) with respect to
# the first component fills component 3, then 2, then 1, column by column.
COLUMN_READING = (
    ((5, 10), (6,)),
    ((2, 8, 12, 14), (3, 9), (4,)),
    ((1, 7, 11, 13, 15),),
)


def test_reverse_column_reading_known():
    mp = ((2, 1), (4, 2, 1), (5,))
    t = reverse_column_reading_tableau(mp, m=1)
    assert t == COLUMN_READING
    assert is_standard_tableau(t)


def test_column_reading_residue_sequence():
    t = reverse_column_reading_tableau(((2, 1), (4, 2, 1), (5,)), m=1)
    ch = Charge((-1, 2, 0), 4)
    assert residue_sequence(t, ch) == (0, 2, 1, 0, 3, 2, 1, 3, 2, 0, 2, 0, 3, 1, 0)


def test_column_reading_degree_zero_at_step_change():
    mp = ((2, 1), (4, 2, 1), (5,))
    ch = Charge((0, 3, 4), 7)
    hbar = heights(mp)
    assert is_s_admissible(hbar, ch)
    assert 1 in step_changes(hbar, ch)
    t = reverse_column_reading_tableau(mp, m=1)
    assert tableau_degree(t, ch) == 0


def test_admissibility_bounds():
    # bounds (e + s_1 - s_3, s_2 - s_1, s_3 - s_2) = (3, 3, 1)
    ch = Charge((0, 3, 4), 7)
    assert is_s_admissible((3, 2, 1), ch) and step_changes((3, 2, 1), ch) == [2]
    assert not is_s_admissible((3, 3, 1), ch) and step_changes((3, 3, 1), ch) == []
    assert not is_s_admissible((4, 0, 0), ch) and step_changes((4, 0, 0), ch) == [2, 3]


def test_standard_tableaux_counts():
    # hook length formula values
    table = {
        ((3,),): 1,
        ((2, 1),): 2,
        ((3, 2),): 5,
        ((2, 2),): 2,
        ((1,), (1,)): 2,
        ((2,), (1,)): 3,
    }
    for mp, expected in table.items():
        tabs = list(standard_tableaux(mp))
        assert len(tabs) == expected
        assert count_standard_tableaux(mp) == expected
        assert all(is_standard_tableau(t) for t in tabs)
        assert len(set(tabs)) == expected


def test_dominance_known_values():
    ch = Charge((0,), 3)
    assert dominates(((3,),), ((2, 1),), ch)
    assert not dominates(((2, 1),), ((3,),), ch)
    assert dominates(((2, 1),), ((2, 1),), ch)


def test_dominance_needs_matching_residues():
    ch = Charge((0,), 4)
    # (2,2) and (3,1) have different residue multisets at e = 4
    assert residue_multiset(((2, 2),), ch) != residue_multiset(((3, 1),), ch)
    assert not dominates(((2, 2),), ((3, 1),), ch)


def test_dominance_signature_lists_box_keys_by_residue():
    for ch in (Charge((0,), 3), Charge((0, 2), 4), Charge((1, 1, 3), 5)):
        for n in range(6):
            for mp in multipartitions_of(n, ch.level):
                keys = {}
                for b in boxes(mp):
                    keys.setdefault(residue(b, ch), []).append(box_key(b, ch))
                assert dominance_signature(mp, ch) == {
                    i: sorted(k, reverse=True) for i, k in keys.items()}


@given(charged_multipartitions(max_size=4), charged_multipartitions(max_size=4))
@settings(max_examples=60, deadline=None)
def test_dominance_greedy_equals_brute_force(d1, d2):
    (mu, ch), (la, _) = d1, d2
    la = la[: len(mu)] + tuple(() for _ in range(len(mu) - len(la)))
    if mp_size(mu) != mp_size(la):
        return
    assert dominates(mu, la, ch) == dominates_by_search(mu, la, ch)


@given(partitions())
@settings(max_examples=50, deadline=None)
def test_partition_strategy_valid(p):
    assert is_partition(p)


def test_partition_parts_are_ints():
    for p in ((True,), (2, True), (2.0, 1), ("1",)):
        assert not is_partition(p), p
        assert not is_multipartition((p,)), p
