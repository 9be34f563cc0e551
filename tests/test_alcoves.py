from itertools import product

import pytest

from calihecke.alcoves import (
    b_alpha,
    count_fundamental_paths,
    embed,
    in_fundamental_alcove,
    length,
    path_degree,
    path_points,
    reflect,
    rho,
    tableau_to_path,
)
from calihecke.calibration import is_cali
from calihecke.multipartitions import (
    Charge,
    count_standard_tableaux,
    is_s_admissible,
    multipartitions_of,
    standard_tableaux,
    tableau_degree,
)
from calihecke.sweeps import SUITES, charges, frames
from oracles import (fundamental_paths, in_fundamental_alcove_direct, path_residues,
                     residue_sequence)


CH = Charge((0, 4), 9)
HBAR = (2, 4)

pytestmark = pytest.mark.usefixtures("cold_caches")


def test_rho_known():
    # last component's block comes first: 4,3,2,1 then 0,-1
    assert rho(CH, HBAR) == (4, 3, 2, 1, 0, -1)
    assert rho(Charge((0, 3), 7), (3, 3)) == (3, 2, 1, 0, -1, -2)


def test_frame_requires_e_large():
    with pytest.raises(ValueError):
        rho(Charge((0, 1), 6), (3, 3))  # e = h is excluded


def test_embed_known():
    assert embed(((2, 2), (2, 1)), HBAR) == (2, 1, 0, 0, 2, 2)
    assert embed(((), ()), HBAR) == (0, 0, 0, 0, 0, 0)


def test_a_multipartition_that_does_not_fit_hbar_is_refused():
    # a third component beyond hbar's two must not be dropped, and a
    # missing component must not raise IndexError
    ch, hbar = Charge((0, 3), 7), (1, 1)
    for mp in (((1,), (1,), (5,)), ((1,),)):
        for f in (in_fundamental_alcove, length):
            with pytest.raises(ValueError, match="same level"):
                f(mp, ch, hbar)
        with pytest.raises(ValueError, match="same level"):
            embed(mp, hbar)
    assert in_fundamental_alcove(((1,), (1,)), ch, hbar)


def test_b_alpha_values():
    # simple roots inside a block have b = 1; the crossing between the two
    # blocks sits after the h_2 = 4 leading coordinates
    assert [b_alpha(i, CH, HBAR) for i in range(1, 6)] == [1, 1, 1, 3, 1]
    assert b_alpha(0, CH, HBAR) == 2  # affine root: e + s_1 - s_2 - h_2 + 1


def test_reflect_is_an_involution():
    v = (4, 3, 1, 0, -1, -2)
    for root in ((0, 1), (2, 5), (1, 3)):
        for r in (-1, 0, 1, 2):
            w = reflect(v, root, r, 9)
            assert reflect(w, root, r, 9) == v
            assert sorted(w) != sorted(v) or set(w) == set(v)


def test_fundamental_alcove_matches_calibration():
    for n in range(7):
        for mp in multipartitions_of(n, 2):
            if len(mp[0]) > HBAR[0] or len(mp[1]) > HBAR[1]:
                continue
            if in_fundamental_alcove(mp, CH, HBAR):
                assert is_cali(mp, CH)
                assert length(mp, CH, HBAR) == 0


def test_length_counts_separating_walls():
    assert length(((2,), (1, 1, 1)), CH, HBAR) == 1
    assert length(((3,), (1, 1)), CH, HBAR) == 2
    assert length(((5,), ()), CH, HBAR) == 4
    # ((2,2),(2,1)) sits on a wall of the arrangement
    with pytest.raises(ValueError):
        length(((2, 2), (2, 1)), CH, HBAR)
    assert not in_fundamental_alcove(((2, 2), (2, 1)), CH, HBAR)


def test_path_residues_match_tableau():
    for mp in (((1,), (2, 1)), ((2,), (2, 2))):
        for t in standard_tableaux(mp):
            p = tableau_to_path(t, HBAR)
            assert path_residues(p, CH, HBAR) == residue_sequence(t, CH)
    # the walk reads each step's residue off the removed box
    for mp in (((), (3, 2)), ((), (3, 2, 1))):
        paths, residues = fundamental_paths(mp, CH, HBAR)
        assert len(paths) == count_fundamental_paths(mp, CH, HBAR) > 1
        assert residues == [path_residues(p, CH, HBAR) for p in paths]


def _outcome(test, mp, ch, hbar):
    try:
        return test(mp, ch, hbar)
    except ValueError:
        return ValueError


def test_wall_table_matches_direct_alcove_test():
    # every shape of size <= n_max in the gate's frames, and in the frames
    # of the same sizes whose origin lies on a wall: there both tests raise
    # for every shape, on the second call too, when the frame's wall table
    # is cached
    args, _ = SUITES["klr"][1]["gate"]
    es, levels, n_max = args
    gate = {(ch, hb) for ch, _, hb in frames(*args)}
    on_wall = {(ch, hb) for e in es for ell in levels for ch in charges(e, ell, pinned=False)
               for hb in product(range(1, 4), repeat=ell) if sum(hb) < e
               and _outcome(in_fundamental_alcove_direct, ((),) * ell, ch, hb) is ValueError}
    assert len(gate) == 180 and len(on_wall) == 159 and not gate & on_wall
    shapes = 0
    for ch, hb in gate | on_wall:
        for n in range(n_max + 1):
            for mp in multipartitions_of(n, len(hb), hb):
                shapes += 1
                want = _outcome(in_fundamental_alcove_direct, mp, ch, hb)
                got = [_outcome(in_fundamental_alcove, mp, ch, hb) for _ in range(2)]
                assert got == [want, want], (mp, ch, hb)
    assert shapes == 30657


def test_path_degree_equals_tableau_degree():
    assert is_s_admissible(HBAR, CH)
    for n in range(7):
        for mp in multipartitions_of(n, 2):
            if len(mp[0]) > HBAR[0] or len(mp[1]) > HBAR[1]:
                continue
            for t in standard_tableaux(mp):
                p = tableau_to_path(t, HBAR)
                assert path_degree(p, CH, HBAR) == tableau_degree(t, CH)


def test_count_fundamental_paths_known():
    table = {
        ((), (3, 2)): 5,
        ((), (2, 1, 1, 1)): 4,
        ((1,), (1, 1, 1, 1)): 1,
        ((), (3, 2, 1)): 16,
    }
    for mp, expected in table.items():
        assert count_fundamental_paths(mp, CH, HBAR) == expected


def test_fundamental_paths_bounded_by_standard_tableaux():
    for n in range(7):
        for mp in multipartitions_of(n, 2):
            if len(mp[0]) > HBAR[0] or len(mp[1]) > HBAR[1]:
                continue
            if not in_fundamental_alcove(mp, CH, HBAR):
                continue
            cf = count_fundamental_paths(mp, CH, HBAR)
            assert 1 <= cf <= count_standard_tableaux(mp)
            # dual routes: count paths directly through the tableau list, and
            # through the walk down the frame's alcove fold
            direct = sum(
                1 for t in standard_tableaux(mp)
                if all(in_fundamental_alcove(shape, CH, HBAR)
                       for shape in _prefix_shapes(t))
            )
            assert cf == direct == len(fundamental_paths(mp, CH, HBAR)[0])


def _prefix_shapes(t):
    from calihecke.multipartitions import tableau_boxes_by_entry, add_box

    by_entry = tableau_boxes_by_entry(t)
    mp = tuple(() for _ in t)
    out = []
    for k in sorted(by_entry):
        mp = add_box(mp, by_entry[k])
        out.append(mp)
    return out


def test_path_points_start_at_origin():
    t = next(iter(standard_tableaux(((1,), (2,)))))
    p = tableau_to_path(t, HBAR)
    pts = path_points(p, CH, HBAR)
    assert pts[0] == rho(CH, HBAR)
    assert len(pts) == 4
