from hypothesis import given, settings, strategies as st

from calihecke.crystal import (
    build_from_word,
    e_tilde,
    e_tilde_images,
    f_tilde,
    i_word,
    is_no_stuttering,
    is_reachable,
    reachable_by_size,
    reduced_i_word,
)
from calihecke import sweeps
from calihecke.calibration import is_cali, is_flotw
from calihecke.multipartitions import Charge, multipartitions_of, mp_size, partitions_of
from oracles import (
    e_tilde_scan,
    f_tilde_scan,
    has_stuttering_build_recursive,
    i_word_scan,
    is_reachable_recursive,
    reachable_by_size_scan,
)


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
    """The classification sweep's verdicts at e in {2, 3}, levels 1-2, n <= 6."""
    floors = {"no_stuttering=cali": 755, "reachable=flotw": 755, "e_tilde_keeps_cali": 97}
    return sweeps.problems(sweeps.tally(sweeps.classification_sweep((2, 3), (1, 2), 6)), floors)


def test_no_stuttering_equals_cali_small():
    assert _small_classification()["no_stuttering=cali"] is None


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
    assert _small_classification()["e_tilde_keeps_cali"] is None


def test_signature_route_matches_the_scan_oracle():
    # every residue (and one beyond e, read mod e) of every multipartition
    # of size <= 7 at levels 1-3, e 2-6, at the first three charges of each
    # level
    checked = 0
    for e in range(2, 7):
        for ell in (1, 2, 3):
            for ch in sweeps.charges(e, ell)[:3]:
                for n in range(8):
                    for mp in multipartitions_of(n, ell):
                        for i in range(e + 1):
                            assert i_word(mp, ch, i) == i_word_scan(mp, ch, i)
                            assert f_tilde(mp, ch, i) == f_tilde_scan(mp, ch, i)
                            assert e_tilde(mp, ch, i) == e_tilde_scan(mp, ch, i)
                            checked += 1
                        images = ((i, e_tilde_scan(mp, ch, i)) for i in range(e))
                        assert sorted(e_tilde_images(mp, ch)) == \
                            [(i, down) for i, down in images if down is not None]
    assert checked == 82353


def test_crystal_folds_match_the_recursive_oracles():
    # the per-charge folds against a fresh recursion per multipartition
    for e in range(2, 7):
        for ell in (1, 2, 3):
            for ch in sweeps.charges(e, ell)[:3]:
                for n in range(7):
                    for mp in multipartitions_of(n, ell):
                        reachable = is_reachable_recursive(mp, ch)
                        assert is_reachable(mp, ch) == reachable
                        assert is_no_stuttering(mp, ch) == (
                            reachable and not has_stuttering_build_recursive(mp, ch))


# The classify queries of the benchmark's cli_session pool, as (e, s, n).
CLASSIFY_POOL = [(4, (0, 1), 11), (5, (0, 2), 10), (4, (0, 2), 10), (4, (0, 1), 12),
                 (4, (0, 2), 12), (3, (0, 1, 2), 11), (4, (0, 1, 2), 10), (5, (0, 1, 2), 10)]


def test_reachable_layers_match_the_scan_oracle():
    for e, s, n in CLASSIFY_POOL:
        ch = Charge(s, e)
        assert reachable_by_size(n, ch) == reachable_by_size_scan(n, ch), (e, s, n)
