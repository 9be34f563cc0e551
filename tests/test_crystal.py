from hypothesis import given, settings, strategies as st

from calihecke.crystal import (
    build_from_word,
    e_tilde,
    f_tilde,
    is_no_stuttering,
    is_reachable,
    reachable_by_size,
    reduced_i_word,
)
from calihecke import sweeps
from calihecke.calibration import is_cali, is_flotw
from calihecke.multipartitions import Charge, multipartitions_of, mp_size, partitions_of


def test_reduced_word_cancellation():
    word = [("a", "-"), ("b", "+"), ("c", "+"), ("d", "-"), ("e", "-"), ("f", "+")]
    red = reduced_i_word(word)
    # (-+)(+)(-)(-+) -> (+)(-)
    assert [s for _, s in red] == ["+", "-"]
    signs = [s for _, s in red]
    assert "".join(signs) == "+" * signs.count("+") + "-" * signs.count("-")


def test_crystal_operators_level_one():
    ch = Charge((0,), 2)
    empty = ((),)
    one = f_tilde(empty, ch, 0)
    assert one == ((1,),)
    assert f_tilde(empty, ch, 1) is None
    two = f_tilde(one, ch, 1)
    assert two in (((2,),), ((1, 1),))
    assert e_tilde(two, ch, 1) == one


def test_build_from_word():
    ch = Charge((0,), 3)
    assert build_from_word((0, 1, 2), ch) is not None
    assert build_from_word((1,), ch) is None
    assert build_from_word((0, 1, 2), ch) in reachable_by_size(3, ch)[3]


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_f_then_e_recovers(e, n):
    ch = Charge((0,), e)
    for mp in reachable_by_size(n, ch)[n]:
        for i in range(e):
            up = f_tilde(mp, ch, i)
            if up is not None:
                assert e_tilde(up, ch, i) == mp
            down = e_tilde(mp, ch, i)
            if down is not None:
                assert f_tilde(down, ch, i) == mp


def test_reachable_level_one_is_e_regular():
    # at level 1 and charge (0) the crystal component consists of the
    # e-regular partitions (fewer than e repeats of any part)
    for e in (2, 3, 4):
        ch = Charge((0,), e)
        for n in range(7):
            reachable = {mp[0] for mp in reachable_by_size(n, ch)[n]}
            regular = {p for p in partitions_of(n)
                       if all(p.count(v) < e for v in set(p))}
            assert reachable == regular


def test_flotw_equals_reachable_small():
    for e in (2, 3):
        for s2 in range(e):
            ch = Charge((0, s2), e)
            for n in range(6):
                layer = reachable_by_size(n, ch)[n]
                for mp in multipartitions_of(n, 2):
                    assert (mp in layer) == is_flotw(mp, ch)
                    assert is_reachable(mp, ch) == (mp in layer)


def _small_classification():
    """The classification sweep at e in {2, 3}, levels 1-2, n <= 6."""
    return sweeps.tally(sweeps.classification_sweep((2, 3), (1, 2), 6))


def test_no_stuttering_equals_cali_small():
    t = _small_classification()["no_stuttering=cali"]
    assert t.checked >= 755
    assert t.first_failure is None


def test_large_example_reachable_but_stuttering():
    # a 4-component multipartition of 80 boxes that is FLOTW (reachable) but
    # admits only stuttering build words, hence is not calibrated
    mp = ((12, 12, 10), (13, 1), (13,), (10, 9))
    ch = Charge((14, 16, 17, 23), 12)
    assert mp_size(mp) == 80
    assert is_flotw(mp, ch)
    assert is_reachable(mp, ch)
    assert not is_no_stuttering(mp, ch)
    assert not is_cali(mp, ch)


def test_e_tilde_preserves_cali_small():
    t = _small_classification()["e_tilde_keeps_cali"]
    assert t.checked >= 97
    assert t.first_failure is None
