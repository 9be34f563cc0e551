from collections import Counter

import pytest

from calihecke import bgg
from calihecke.alcoves import (
    count_fundamental_paths,
    in_fundamental_alcove,
    length,
    path_residues,
    tableau_to_path,
)
from calihecke.bgg import (
    block_poset,
    build_klr_module,
    covers,
    diamonds_and_strands,
    dominance_block,
    euler_check,
    graded_character_identity,
    graded_specht_character,
    sign_assignment,
    verify_klr_relations,
)
from calihecke.multipartitions import (
    Charge,
    count_standard_tableaux,
    heights,
    multipartitions_of,
)
from calihecke.sweeps import frames
from oracles import alcove_filtered_basis, tableau_sum_character


def test_level_one_block_21():
    ch = Charge((0,), 3)
    poset = block_poset(((2, 1),), ch, (2,), cross_validate=True)
    assert poset.nodes == [((2, 1),), ((3,),)]
    assert poset.lengths == {((2, 1),): 0, ((3,),): 1}
    assert covers(poset) == [(((3,),), ((2, 1),))]
    assert graded_specht_character(((2, 1),), ch) == {0: 1, 1: 1}


def test_block_requires_alcove_point():
    with pytest.raises(ValueError):
        block_poset(((3,),), Charge((0,), 3), (2,))


# the running two-component example: a 5-node block with one diamond and
# one strand
CH = Charge((0, 1), 4)
HBAR = (2, 1)
LA = ((1, 1), (2,))


def test_block_with_diamond():
    poset = block_poset(LA, CH, HBAR, cross_validate=True)
    assert poset.nodes[0] == LA
    assert poset.lengths == {
        ((1, 1), (2,)): 0,
        ((3, 1), ()): 1,
        ((1,), (3,)): 1,
        ((4,), ()): 2,
        ((), (4,)): 2,
    }
    assert all(poset.lengths[mu] == length(mu, CH, HBAR) for mu in poset.nodes)
    edges = covers(poset)
    assert len(edges) == 5
    diamonds, strands = diamonds_and_strands(poset, edges)
    assert diamonds == [(((4,), ()), ((1,), (3,)), ((3, 1), ()), ((1, 1), (2,)))]
    assert strands == [(((), (4,)), ((1,), (3,)), ((1, 1), (2,)))]


def test_sign_assignment_flips_each_diamond():
    poset = block_poset(LA, CH, HBAR)
    edges = covers(poset)
    signs = sign_assignment(poset, edges)
    assert signs is not None
    assert set(signs.values()) <= {1, -1}
    diamonds, _ = diamonds_and_strands(poset, edges)
    assert diamonds
    for w, y1, y2, z in diamonds:
        assert signs[(w, y1)] * signs[(y1, z)] * signs[(w, y2)] * signs[(y2, z)] == -1


def test_sign_assignment_trivial_without_diamonds():
    poset = block_poset(((2, 1),), Charge((0,), 3), (2,))
    signs = sign_assignment(poset)
    assert signs == {(((3,),), ((2, 1),)): 1}


def test_euler_characteristic():
    rep = euler_check(LA, CH, HBAR)
    assert rep["ok"]
    assert rep["alternating_sum"] == rep["fundamental_paths"] == 1
    rep = euler_check(((2, 1),), Charge((0,), 3), (2,))
    assert rep["ok"]


def test_graded_identity_convention():
    # the t^(length) shift closes the identity; t^(2 length) does not
    assert graded_character_identity(LA, CH, HBAR) == {1: True, 2: False}
    assert graded_character_identity(((2, 1),), Charge((0,), 3), (2,))[1]


def test_grchar_at_t_equals_one():
    for mu, ch in [(((2, 1),), Charge((0,), 3)), (LA, CH), (((3, 2),), Charge((0,), 6))]:
        assert sum(graded_specht_character(mu, ch).values()) == count_standard_tableaux(mu)


def test_klr_module_basics():
    mod = build_klr_module(LA, CH, HBAR)
    assert mod.dim() == count_fundamental_paths(LA, CH, HBAR) == 1
    report = verify_klr_relations(mod)
    assert all(report.values()), report


def test_klr_basis_tests_each_prefix_shape_once(monkeypatch):
    la, ch, hbar = ((3, 1), (2,)), Charge((0, 3), 6), (2, 1)
    tested = Counter()
    real = bgg.in_fundamental_alcove

    def counting(mp, *frame):
        tested[mp] += 1
        return real(mp, *frame)

    monkeypatch.setattr(bgg, "in_fundamental_alcove", counting)
    mod = build_klr_module(la, ch, hbar)
    assert mod.dim() == 22
    tested[la] -= 1  # the label's own entry check
    assert set(tested.values()) == {1}, [mp for mp, k in tested.items() if k > 1]


def test_klr_rejects_e2():
    with pytest.raises(ValueError):
        build_klr_module(((1,),), Charge((0,), 2), (1,))


def test_klr_relations_sweep():
    ch = Charge((0,), 5)
    hbar = (3,)
    for n in range(1, 7):
        for la in multipartitions_of(n, 1):
            if heights(la)[0] > 3 or not in_fundamental_alcove(la, ch, hbar):
                continue
            mod = build_klr_module(la, ch, hbar)
            assert mod.dim() == count_fundamental_paths(la, ch, hbar)
            report = verify_klr_relations(mod)
            assert all(report.values()), (la, report)


def test_dominance_block_is_superset_closed():
    blocks = dominance_block(LA, CH, HBAR)
    assert LA in blocks
    assert ((4,), ()) in blocks
    assert len(blocks) == 5


def test_klr_r1_detects_duplicated_and_dropped_fibres(monkeypatch):
    mod = build_klr_module(((2, 1), (1,)), Charge((0, 2), 5), (2, 1))
    seqs = mod.residue_sequences()
    assert len(seqs) >= 2
    report = verify_klr_relations(mod)
    assert report["R1_sum"] and report["R1_orth"]
    monkeypatch.setattr(mod, "residue_sequences", lambda: seqs + seqs[:1])
    report = verify_klr_relations(mod)
    assert not report["R1_orth"] and report["R1_sum"]
    monkeypatch.setattr(mod, "residue_sequences", lambda: seqs[1:])
    report = verify_klr_relations(mod)
    assert not report["R1_sum"] and report["R1_orth"]


def test_prefix_shape_recursions_match_tableau_oracles():
    nodes = set()
    labels = 0
    # the criterion 9-11 range: every label in the fundamental alcove
    for ch, la, hb in frames(range(2, 7), (1, 2), 8):
        if not in_fundamental_alcove(la, ch, hb):
            continue
        labels += 1
        nodes.update((mu, ch) for mu in block_poset(la, ch, hb).nodes)
        if ch.e > 2:
            mod = build_klr_module(la, ch, hb)
            basis = alcove_filtered_basis(la, ch, hb)
            assert mod.basis == basis, (la, ch)
            assert mod.residues == [path_residues(tableau_to_path(t, hb), ch, hb)
                                    for t in basis], (la, ch)
            assert mod.dim() == count_fundamental_paths(la, ch, hb), (la, ch)
    for mu, ch in nodes:
        assert graded_specht_character(mu, ch) == tableau_sum_character(mu, ch), (mu, ch)
    assert (labels, len(nodes)) == (1464, 1930)
