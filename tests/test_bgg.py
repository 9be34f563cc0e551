import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from calihecke import alcoves, bgg
from calihecke.alcoves import (
    count_fundamental_paths,
    in_fundamental_alcove,
    length,
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
    tableau_sums,
)
from calihecke.sweeps import SUITES, frames
from conftest import clear_package_caches
import oracles
from oracles import (
    ColumnKLRModule,
    alcove_filtered_basis,
    braid_correction,
    braid_holds_on_window,
    column_klr_relations,
    covers_all_pairs,
    dominance_block_full,
    path_residues,
    sign_assignment_rows,
    tableau_sum_character,
)

pytestmark = pytest.mark.usefixtures("cold_caches")

# the criterion 9-12 range and floors: every label in the fundamental alcove
GATE_ARGS, GATE_FLOORS = SUITES["klr"][1]["gate"]


def _count_alcove_tests(monkeypatch):
    """Count the alcove tests of each shape: the label's entry check in bgg
    and the prefix-shape tests of the frame's alcove fold in alcoves."""
    tested = Counter()
    real = alcoves.in_fundamental_alcove

    def counting(mp, *frame):
        tested[mp] += 1
        return real(mp, *frame)

    for module in (alcoves, bgg):
        monkeypatch.setattr(module, "in_fundamental_alcove", counting)
    return tested


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


def test_walk_covers_and_column_signs_match_the_oracles():
    # the same edges in the same order, and the same sign of every edge, as
    # the all-pairs search and the row elimination, on every gate label and
    # on the n = 24 block of the CI's closed-stdout step
    blocks = [(la, ch, hb) for ch, la, hb in frames(*GATE_ARGS)
              if in_fundamental_alcove(la, ch, hb)]
    assert len(blocks) == GATE_FLOORS["signs_feasible"]
    blocks.append((((5, 4), (5, 5, 5)), Charge((0, 3), 6), (2, 3)))
    diamonds = 0
    for la, ch, hb in blocks:
        poset = block_poset(la, ch, hb)
        edges = covers(poset)
        assert edges == covers_all_pairs(poset), (la, ch)
        signs = sign_assignment(poset, edges)
        expected = sign_assignment_rows(poset, edges)
        assert signs == expected and list(signs.items()) == list(expected.items()), (la, ch)
        for w, y1, y2, z in diamonds_and_strands(poset, edges)[0]:
            diamonds += 1
            assert signs[(w, y1)] * signs[(y1, z)] * signs[(w, y2)] * signs[(y2, z)] == -1
    assert (len(poset.nodes), len(edges)) == (325, 1163)  # the last block, n = 24
    assert diamonds > 1785  # the n = 24 block's, and those of the gate labels


def _patch_diamonds(monkeypatch, diamonds):
    import oracles

    for module in (bgg, oracles):
        monkeypatch.setattr(module, "diamonds_and_strands",
                            lambda poset, edges: (diamonds, []))


def test_sign_assignment_detects_an_odd_cycle_of_diamonds(monkeypatch):
    # three diamonds that cover each of six edges twice: their rows add up
    # to 0 = 1, so there is no sign system (a block poset never has them:
    # they make one interval with three midpoints); two of them have one
    edges = [("w", "a"), ("w", "b"), ("w", "c"), ("a", "z"), ("b", "z"), ("c", "z")]
    cycle = [("w", "a", "b", "z"), ("w", "b", "c", "z"), ("w", "c", "a", "z")]
    for diamonds, feasible in ((cycle, False), (cycle[:2], True)):
        _patch_diamonds(monkeypatch, diamonds)
        signs = sign_assignment(None, edges)
        assert signs == sign_assignment_rows(None, edges)
        assert (signs is not None) == feasible


_NODES = range(5)
_PAIRS = [(x, y) for x in _NODES for y in _NODES if x != y]
_QUADS = [((w, y1), (y1, z), (w, y2), (y2, z), (w, y1, y2, z))
          for w, y1, y2, z in itertools.permutations(_NODES, 4)]


@st.composite
def diamond_systems(draw):
    """Up to 10 diamonds (w, y1, y2, z) of four distinct nodes out of five,
    drawn one at a time among those that keep the edges they use at 12 or
    fewer, then other edges up to 12, all edges in a random order."""
    edges, diamonds = [], []
    for _ in range(draw(st.integers(0, 10))):
        fits = [q for q in _QUADS if len(set(edges).union(q[:4])) <= 12]
        *four, diamond = draw(st.sampled_from(fits))
        diamonds.append(diamond)
        edges += [edge for edge in four if edge not in edges]
    extras = draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=12 - len(edges)))
    edges += [edge for edge in extras if edge not in edges]
    return draw(st.permutations(edges)), diamonds


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(diamond_systems())
def test_column_signs_match_row_elimination_on_random_systems(system):
    edges, diamonds = system
    with pytest.MonkeyPatch.context() as monkeypatch:
        _patch_diamonds(monkeypatch, diamonds)
        signs = sign_assignment(None, edges)
        expected = sign_assignment_rows(None, edges)
    assert signs == expected
    if signs is not None:
        assert list(signs.items()) == list(expected.items())
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
    tested = _count_alcove_tests(monkeypatch)
    clear_package_caches()
    mod = build_klr_module(la, ch, hbar)
    assert mod.dim() == 22
    tested[la] -= 1  # the label's own entry check
    assert set(tested.values()) == {1}, [mp for mp, k in tested.items() if k > 1]


def test_block_is_built_once_per_label(monkeypatch):
    la, ch, hbar = ((3, 1), (2,)), Charge((0, 3), 6), (2, 1)
    posets = []
    real_poset = bgg.BlockPoset

    def counting_poset(*args):
        posets.append(args)
        return real_poset(*args)

    monkeypatch.setattr(bgg, "BlockPoset", counting_poset)
    tested = _count_alcove_tests(monkeypatch)
    clear_package_caches()
    euler = euler_check(la, ch, hbar)
    conventions = graded_character_identity(la, ch, hbar)
    poset = block_poset(la, ch, hbar)
    mod = build_klr_module(la, ch, hbar)
    assert euler["ok"] and conventions[1]
    assert mod.dim() == euler["fundamental_paths"] == 22
    assert len(posets) == 1 and poset.nodes[0] == la
    tested[la] -= 2  # the label's entry checks, one by its block poset, one by its KLR module
    assert set(tested.values()) == {1}, [mp for mp, k in tested.items() if k > 1]


def test_labels_of_one_frame_test_each_prefix_shape_once(monkeypatch):
    ch, hbar = Charge((0, 3), 6), (2, 1)
    labels = [((2, 1), (1,)), ((3, 1), (2,))]
    tested = _count_alcove_tests(monkeypatch)
    for la in labels:
        euler = euler_check(la, ch, hbar)
        assert euler["ok"]
        assert build_klr_module(la, ch, hbar).dim() == euler["fundamental_paths"]
    assert labels[0] in tested  # the smaller label is a prefix shape of the larger
    for la in labels:
        tested[la] -= 2  # each label's entry checks, by its block poset and by its KLR module
    assert set(tested.values()) == {1}, [mp for mp, k in tested.items() if k > 1]


def test_shared_folds_give_the_same_results_in_either_sweep_order():
    labels = [(ch, la, hb) for ch, la, hb in frames(range(2, 6), (1, 2), 5)
              if in_fundamental_alcove(la, ch, hb)]

    def results(order):
        clear_package_caches()
        out = {}
        for ch, la, hb in order:
            klr = None
            if ch.e > 2:
                mod = build_klr_module(la, ch, hb)
                klr = (mod.dim(), verify_klr_relations(mod))
            out[ch, la] = (euler_check(la, ch, hb), graded_character_identity(la, ch, hb), klr)
        return out

    forward = results(labels)
    assert results(labels[::-1]) == forward
    assert len(forward) == len(labels) == 396


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


def test_dominance_block_matches_full_enumeration():
    labels = 0
    for ch, la, hb in frames(range(2, 7), (1, 2, 3), 6):
        if not in_fundamental_alcove(la, ch, hb):
            continue
        labels += 1
        assert dominance_block(la, ch, hb) == dominance_block_full(la, ch, hb), (la, ch)
    assert labels == 4681


def test_dominance_block_tests_only_shapes_of_the_frame(monkeypatch):
    # the full enumeration would test every bipartition of 28
    calls = []
    real = bgg.dominance_signature

    def counting(mp, ch):
        calls.append(mp)
        return real(mp, ch)

    monkeypatch.setattr(bgg, "dominance_signature", counting)
    la = ((28,), ())
    assert dominance_block(la, Charge((0, 0), 3), (1, 0)) == [la]
    assert calls == [la, la]  # the target's signature, then the one candidate's


def test_klr_r1_detects_duplicated_and_dropped_fibres(monkeypatch):
    # the window check states R1_sum and R1_orth by construction (the e(i)
    # are fibre indicators); the oracle lists the fibres, so a listing that
    # repeats or drops one fails there
    la, ch, hbar = ((2, 1), (1,)), Charge((0, 2), 5), (2, 1)
    report = verify_klr_relations(build_klr_module(la, ch, hbar))
    assert report["R1_sum"] and report["R1_orth"]
    mod = ColumnKLRModule(la, ch, hbar)
    seqs = mod.residue_sequences()
    assert len(seqs) >= 2
    assert column_klr_relations(mod) == report
    monkeypatch.setattr(mod, "residue_sequences", lambda: seqs + seqs[:1])
    report = column_klr_relations(mod)
    assert not report["R1_orth"] and report["R1_sum"]
    monkeypatch.setattr(mod, "residue_sequences", lambda: seqs[1:])
    report = column_klr_relations(mod)
    assert not report["R1_sum"] and report["R1_orth"]


def test_prefix_shape_recursions_match_tableau_oracles():
    nodes = set()
    labels = klr_labels = 0
    for ch, la, hb in frames(*GATE_ARGS):
        if not in_fundamental_alcove(la, ch, hb):
            continue
        labels += 1
        nodes.update((mu, ch) for mu in block_poset(la, ch, hb).nodes)
        if ch.e > 2:
            klr_labels += 1
            mod = ColumnKLRModule(la, ch, hb)
            paths = sorted(tableau_to_path(t, hb) for t in alcove_filtered_basis(la, ch, hb))
            assert mod.paths == paths, (la, ch)
            assert mod.residues == [path_residues(p, ch, hb) for p in paths], (la, ch)
            assert build_klr_module(la, ch, hb).dim() == len(paths), (la, ch)
            assert mod.dim() == count_fundamental_paths(la, ch, hb), (la, ch)
    for mu, ch in nodes:
        assert graded_specht_character(mu, ch) == tableau_sum_character(mu, ch), (mu, ch)
    assert (labels, klr_labels) == (GATE_FLOORS["euler"], GATE_FLOORS["klr_relations"])
    assert len(nodes) == 1930


def test_window_report_matches_column_oracle():
    # every gate KLR label, then the dimension-76,096 label, whose oracle
    # lists every path and composes the psi column maps
    labels = 0
    for ch, la, hb in frames(*GATE_ARGS):
        if ch.e > 2 and in_fundamental_alcove(la, ch, hb):
            labels += 1
            mod = build_klr_module(la, ch, hb)
            assert verify_klr_relations(mod) == column_klr_relations(ColumnKLRModule(la, ch, hb)), (la, ch)
    assert labels == GATE_FLOORS["klr_relations"]
    la, ch, hb = ((3, 3, 3), (4, 4, 3)), Charge((0, 4), 8), (3, 3)
    mod, oracle = build_klr_module(la, ch, hb), ColumnKLRModule(la, ch, hb)
    assert mod.dim() == oracle.dim() == 76096
    report = verify_klr_relations(mod)
    assert list(report) == ["R1_sum", "R1_orth", "R1_intertwine", "R2", "R3", "R4", "R5",
                            "cyclotomic"]
    assert report == column_klr_relations(oracle)
    assert all(report.values())


def test_a_swap_that_leaves_the_fold_fails_closure(monkeypatch):
    # drop the shape ((1, 1), ()) from the frame's alcove fold: the far swap
    # of the window ((1,), ()) -> (1,) -> ((1,), (1,)) then leaves it, two
    # steps below the label, where the oracle's psi_map raises KeyError
    la, ch, hbar = ((3, 1), (2,)), Charge((0, 3), 6), (2, 1)
    dropped = ((1, 1), ())
    real = bgg._path_fold
    assert real(ch, hbar)(dropped)
    patched = tableau_sums(keep=lambda shape: shape != dropped
                           and in_fundamental_alcove(shape, ch, hbar))
    monkeypatch.setattr(bgg, "_path_fold",
                        lambda c, h: patched if (c, h) == (ch, hbar) else real(c, h))
    mod = build_klr_module(la, ch, hbar)
    assert mod.dim() == 17
    report = verify_klr_relations(mod)
    assert not report["R1_intertwine"]
    assert not report["R2"] and not report["R4"]  # they rest on closure
    assert all(report[key] for key in ("R1_sum", "R1_orth", "R3", "R5", "cyclotomic"))
    # the verdicts stay with their frame: the label ((2, 1), ()), which
    # fails above, holds in the frame of the same charge with hbar (3, 1)
    assert not all(verify_klr_relations(build_klr_module(((2, 1), ()), ch, hbar)).values())
    other = build_klr_module(((2, 1), ()), ch, (3, 1))
    assert other.dim() == 2 and all(verify_klr_relations(other).values())


def test_braid_predicate_matches_the_window_rule():
    # the window rule applies both braid words to the window and adds the
    # correction; the predicate must fail R5 on exactly the windows it fails
    fails = Counter()
    for e in range(3, 9):
        for x, y, z in itertools.product(range(e), repeat=3):
            assert bgg._braid_fails(x, y, z, e) == (not braid_holds_on_window(x, y, z, e)), (x, y, z, e)
            fails[e] += bgg._braid_fails(x, y, z, e)
    assert all(fails[e] == 2 * e for e in range(3, 9))
    assert braid_correction(1, 0, 1, 5) == -1 and braid_correction(4, 0, 4, 5) == 1


def test_r5_fails_end_to_end_without_the_alcove_filter(monkeypatch):
    # with the unfiltered fold, Path^F is every standard tableau: the label's
    # six paths include the residue sequences 1, 0, 1 (R5) and 0, 1, 1 (R3)
    la, ch, hbar = ((2,), (2,)), Charge((0, 1), 5), (1, 1)
    fold = tableau_sums()
    monkeypatch.setattr(bgg, "_path_fold", lambda c, h: fold)
    monkeypatch.setattr(oracles, "_path_fold", lambda c, h: fold)
    mod = build_klr_module(la, ch, hbar)
    assert mod.dim() == 6
    report = verify_klr_relations(mod)
    assert report == column_klr_relations(ColumnKLRModule(la, ch, hbar))
    assert [key for key, ok in report.items() if not ok] == ["R3", "R5"]


def test_klr_verdicts_are_shared_by_the_labels_of_a_frame(monkeypatch):
    # after the label's check, a label among its prefix shapes reads its
    # verdict from the frame's memo and walks no down-step
    ch, hbar = Charge((0, 3), 6), (2, 1)
    verify_klr_relations(build_klr_module(((3, 1), (2,)), ch, hbar))
    walked = []
    real = bgg.removable_boxes
    monkeypatch.setattr(bgg, "removable_boxes", lambda shape: walked.append(shape) or real(shape))
    report = verify_klr_relations(build_klr_module(((2, 1), (1,)), ch, hbar))
    assert all(report.values()) and walked == []
