import itertools
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from calihecke import seminormal
from calihecke.calibration import enumerate_cali
from calihecke.cyclotomics import Cyc
from calihecke.multipartitions import Charge, partitions_of
from calihecke.seminormal import (
    _form_ratio,
    _invariance_verdict,
    _relation_verdict,
    _t_entries,
    admissible_transposition,
    class_form_signs,
    cyclotomic_membership,
    enumerate_calibrated_classes,
    form_signs,
    form_values,
    is_calibrated_weight,
    is_unitary_class,
    seminormal_module,
    verify_form_invariance,
    verify_hecke_relations,
    weight_class,
)
from calihecke.sweeps import SUITES, seminormal_modules
from calihecke.unitary_loci import column_reading_weight
import oracles
from oracles import (
    admissible_transposition_reduced,
    class_form_signs_per_edge,
    column_hecke_relations,
    dense_form_invariance,
)

# the criterion 4-6 range and floors
GATE_ARGS, GATE_FLOORS = SUITES["seminormal"][1]["gate"]


def test_admissible_transposition_matches_reduced_weight_oracle():
    # every weight of length <= 4 with entries in -e..2e, unreduced ones
    # included (-3..3 at e = 0)
    for e in (0, 2, 3, 4, 5, 6, 7):
        entries = range(-e, 2 * e + 1) if e else range(-3, 4)
        for n in range(2, 5):
            for m in itertools.product(entries, repeat=n):
                for i in range(1, n):
                    assert (admissible_transposition(m, i, e)
                            == admissible_transposition_reduced(m, i, e)), (m, i, e)


def test_calibrated_weight_examples():
    assert is_calibrated_weight((0, 1, 2), 4)
    assert is_calibrated_weight((0, 2), 4)
    assert not is_calibrated_weight((0, 0), 4)
    assert not is_calibrated_weight((0, 1, 0), 4)  # only +1 lies between
    # at e = 2 the two neighbours coincide, so one value between suffices
    assert is_calibrated_weight((0, 1, 0), 2)
    # generic q: no reduction mod e at all
    assert not is_calibrated_weight((0, 2, 0), 0)
    assert is_calibrated_weight((0, 1, 2, 3), 0)


def test_weight_class_rejects_uncalibrated():
    with pytest.raises(ValueError):
        weight_class((0, 0), 3)


def test_weight_class_generic_staircase_is_singleton():
    assert weight_class((0, 1, 2, 3), 0) == [(0, 1, 2, 3)]


def test_weight_class_known_sizes():
    assert weight_class((0, 1), 3) == [(0, 1)]
    assert weight_class((0, 2), 4) == [(0, 2), (2, 0)]
    assert weight_class((0, 2, 1), 3) == [(0, 2, 1)]
    # the class of the column reading weight of (2,1) is 2-dimensional for e >= 4
    assert len(weight_class((0, 1, 3), 4)) == 2
    assert weight_class((0, 1, 4), 5) == [(0, 1, 4), (0, 4, 1)]


def test_scalar_modules_n2():
    # (0,1): T_1 acts by q; (1,0): T_1 acts by -1
    mod = seminormal_module([(0, 1)], 3)
    assert mod.T[0] == [[(0, mod.q)]]
    mod = seminormal_module([(1, 0)], 3)
    assert mod.T[0] == [[(0, Cyc.from_rational(3, -1))]]


def test_hecke_relations_on_known_classes():
    for cls, e, a in [
        (weight_class((0, 2), 4), 4, 1),
        (weight_class((0, 2, 1), 3), 3, 1),
        (weight_class((0, 1, 3), 5), 5, 1),
        (weight_class((0, 1, 4), 5), 5, 2),
        (weight_class((0, 2, 1, 3), 4), 4, 1),
    ]:
        mod = seminormal_module(cls, e, a)
        report = verify_hecke_relations(mod)
        assert all(report.values()), report


def test_form_invariance_on_known_classes():
    for m, e, a in [((0, 2), 4, 1), ((0, 1, 3), 5, 1), ((0, 1, 4), 5, 2),
                    ((0, 2, 1, 3), 4, 1)]:
        mod = seminormal_module(weight_class(m, e), e, a)
        report = verify_form_invariance(mod)
        assert all(report.values()), report


def test_form_values_are_real():
    mod = seminormal_module(weight_class((0, 2, 1, 3), 4), 4)
    for v in form_values(mod):
        assert v.conj() == v
        assert not v.is_zero()


def test_signs_match_numeric_form_values():
    for m, e, a in [((0, 2), 4, 1), ((0, 1, 3), 5, 1), ((0, 1, 4), 5, 2)]:
        mod = seminormal_module(weight_class(m, e), e, a)
        signs = form_signs(mod)
        vals = form_values(mod)
        for j, wt in enumerate(mod.cls):
            x = vals[j].to_complex()
            assert abs(x.imag) < 1e-9
            assert (1 if x.real > 0 else -1) == signs[wt]


def test_unitary_verdicts():
    assert is_unitary_class(seminormal_module(weight_class((0, 2), 4), 4))
    # same class, but q = zeta^2 on Z/5 flips a sign
    cls = weight_class((0, 1, 4), 5)
    assert is_unitary_class(seminormal_module(cls, 5, a=1))
    assert not is_unitary_class(seminormal_module(cls, 5, a=2))


def test_class_form_signs_matches_module_route():
    for m, e, a in [((0, 2), 4, 1), ((0, 2, 1, 3), 4, 1), ((0, 1, 4), 5, 2)]:
        cls = weight_class(m, e)
        assert class_form_signs(cls, e, a) == form_signs(seminormal_module(cls, e, a))


def _signs_or_error(signs, cls, e, a):
    try:
        return signs(cls, e, a)
    except ValueError as ex:
        return f"ValueError: {ex}"


def _locus_gate_classes():
    """(cls, e, a) for every calibrated (la, e) of the criterion-13 range
    and every a in [1, e): a that shares a factor with e puts walls in the
    class."""
    ns, es = SUITES["locus"][1]["gate"][0]
    for n in ns:
        for la in partitions_of(n):
            for e in es:
                m = column_reading_weight(la, e)
                if is_calibrated_weight(m, e):
                    cls = weight_class(m, e)
                    for a in range(1, e):
                        yield cls, e, a


def test_class_form_signs_match_the_per_edge_oracle():
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        assert class_form_signs(mod.cls, mod.e, mod.a) == \
            class_form_signs_per_edge(mod.cls, mod.e, mod.a)
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"]
    outcomes = {}
    for cls, e, a in _locus_gate_classes():
        got = _signs_or_error(class_form_signs, cls, e, a)
        assert got == _signs_or_error(class_form_signs_per_edge, cls, e, a), (cls, e, a)
        kind = got[:20] if isinstance(got, str) else "signs"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {"signs": 3039, "ValueError: wall wei": 873}
    # two weights that no admissible transposition joins
    for cls, e in (([(0, 1), (1, 0)], 5), ([], 3)):
        assert _signs_or_error(class_form_signs, cls, e, 1) == \
            _signs_or_error(class_form_signs_per_edge, cls, e, 1) == \
            "ValueError: weight class is not connected by admissible transpositions"


def test_class_form_signs_match_the_oracle_on_inconsistent_cycles(monkeypatch):
    # re_compare is even in its second argument, so every cycle of a class
    # is consistent; a sign rule that tells d from -d makes the edge back
    # along s_i disagree, and both routes must raise at the same cases
    def odd(d1, d2, e):
        return 1 if 2 * (d2 % e) < e else -1

    monkeypatch.setattr(seminormal, "re_compare", odd)
    monkeypatch.setattr(oracles, "re_compare", odd)
    raised = 0
    for cls, e, a in _locus_gate_classes():
        got = _signs_or_error(class_form_signs, cls, e, a)
        assert got == _signs_or_error(class_form_signs_per_edge, cls, e, a), (cls, e, a)
        raised += got == "ValueError: inconsistent sign propagation around a cycle"
    assert raised > 0


def test_class_form_signs_compare_once_per_difference(monkeypatch):
    calls = []
    real = seminormal.re_compare

    def counting(d1, d2, e):
        calls.append(d2)
        return real(d1, d2, e)

    monkeypatch.setattr(seminormal, "re_compare", counting)
    # a class of dimension 1 has no edge
    assert weight_class((0, 1, 2), 6) == [(0, 1, 2)]
    assert class_form_signs([(0, 1, 2)], 6, 1) == {(0, 1, 2): 1}
    assert calls == []
    cls = weight_class((0, 2, 4, 1, 3), 6)
    assert class_form_signs(cls, 6, 5) == class_form_signs_per_edge(cls, 6, 5)
    # one call per difference d = (m_i - m_{i+1}) mod e, each as 5 * d
    assert calls and len(calls) == len({d2 % 6 for d2 in calls})


def test_cyclotomic_membership():
    mod = seminormal_module(weight_class((0, 2), 4), 4)
    assert cyclotomic_membership(mod, Charge((0, 2), 4))
    # the class contains weights starting at 0 and at 2, so a single Q_i
    # cannot absorb both
    assert not cyclotomic_membership(mod, Charge((0,), 4))
    assert not cyclotomic_membership(mod, Charge((1, 3), 4))


def test_corrupted_operator_fails_relations():
    # a 6-dimensional class: every T_i column with an off-diagonal entry
    # moves within an orbit of several weights
    cls = weight_class((0, 1, 3, 4), 6)
    mod = seminormal_module(cls, 6)
    assert mod.dim() == 6
    assert all(verify_hecke_relations(mod).values())
    mutants = 0
    # 1 added to any single entry of T_i breaks its quadratic relation
    for i in range(1, mod.n):
        for j in range(mod.dim()):
            for p in range(len(mod.T[i - 1][j])):
                mutant = seminormal_module(cls, 6)
                idx, c = mutant.T[i - 1][j][p]
                mutant.T[i - 1][j][p] = (idx, c + 1)
                report = verify_hecke_relations(mutant)
                assert report == column_hecke_relations(mutant)
                assert not report[f"quadratic_{i}"], (i, j, p)
                mutants += 1
    # an off-diagonal entry in X_k moves w_j to a weight that differs from
    # cls[j] at some other position l, so X_k no longer commutes with X_l
    for k in range(1, mod.n + 1):
        for j in range(mod.dim()):
            for idx in set(range(mod.dim())) - {j}:
                mutant = seminormal_module(cls, 6)
                mutant.X[k - 1][j].append((idx, Cyc.one(6)))
                report = verify_hecke_relations(mutant)
                assert report == column_hecke_relations(mutant)
                assert not all(ok for name, ok in report.items()
                               if name.startswith("xcomm_") and str(k) in name.split("_")[1:]), \
                    (k, j, idx)
                mutants += 1
    assert mutants == 30 + 4 * 6 * 5


def test_relation_table_matches_column_oracle():
    # the gate's criterion-6 sweep: every calibrated class at every coprime
    # a; the verdict memo warms up along the sweep
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        report = verify_hecke_relations(mod)
        assert list(report.items()) == list(column_hecke_relations(mod).items())
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"]


def test_relation_order_matches_column_oracle_up_to_n8():
    # one module per n beyond the gate's n <= 5: the weight (0, ..., n-2, n)
    # at e = n + 2, whose class holds n weights
    for n in range(1, 9):
        mod = seminormal_module(weight_class(tuple(range(n - 1)) + (n,), n + 2), n + 2)
        assert mod.dim() == n
        report = verify_hecke_relations(mod)
        assert list(report.items()) == list(column_hecke_relations(mod).items()), n
        assert all(report.values()), n


def test_verdicts_are_memoised_per_local_configuration(monkeypatch):
    cls = weight_class((0, 1, 3, 4), 6)
    _relation_verdict.cache_clear()
    _invariance_verdict.cache_clear()
    verify_hecke_relations(seminormal_module(cls, 6))
    verify_form_invariance(seminormal_module(cls, 6))
    relations, invariance = _relation_verdict.cache_info(), _invariance_verdict.cache_info()
    # local configurations repeat even within one module
    assert relations.hits > 0 and invariance.hits > 0
    # a second module of the same class builds the same local keys
    assert all(verify_hecke_relations(seminormal_module(cls, 6)).values())
    assert all(verify_form_invariance(seminormal_module(cls, 6)).values())
    assert _relation_verdict.cache_info().misses == relations.misses
    assert _invariance_verdict.cache_info().misses == invariance.misses
    # the form values belong to the local configuration: M^dagger G M = G
    # holds for every multiple of G, but not after one value of G is doubled
    mod = seminormal_module(cls, 6)
    values = form_values(mod)
    j = min(j for j, col in enumerate(mod.T[0]) if len(col) > 1)
    values[j] = values[j] + values[j]
    for module in (seminormal, oracles):
        monkeypatch.setattr(module, "form_values", lambda _: values)
    report = verify_form_invariance(mod)
    assert report == dense_form_invariance(mod)
    assert not report["T_1"] and all(report[f"X_{k}"] for k in range(1, mod.n + 1))


def test_class_count_matches_calibrated_multipartitions():
    # classes with the right cyclotomic eigenvalues are in bijection with
    # the calibrated multipartitions of the same size
    for e in (2, 3):
        for ell, s in [(1, (0,)), (2, (0, 1))]:
            ch = Charge(s[:ell], e)
            for n in range(1, 5):
                member = 0
                for cls in enumerate_calibrated_classes(n, e):
                    mod = seminormal_module(cls, e)
                    if cyclotomic_membership(mod, ch):
                        member += 1
                assert member == len(enumerate_cali(n, ch))


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_all_classes_satisfy_relations(e, n):
    for cls in enumerate_calibrated_classes(n, e)[:6]:
        mod = seminormal_module(cls, e)
        assert all(verify_hecke_relations(mod).values())
        assert all(verify_form_invariance(mod).values())


def test_sparse_invariance_matches_dense_oracle():
    # the gate's criterion-6 sweep: every calibrated class at every coprime a
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        assert verify_form_invariance(mod) == dense_form_invariance(mod)
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"]


def test_corrupted_operator_fails_invariance():
    cls = weight_class((0, 2, 1, 3), 4)
    # the clean module first, so that every clean local configuration is
    # in the verdict memo when the corrupted ones are checked
    assert all(verify_form_invariance(seminormal_module(cls, 4)).values())
    cases = (("T_1", "diagonal"), ("T_1", "off-diagonal"), ("T_1", "new entry"),
             ("T_1", "entry in an earlier orbit"), ("X_1", "new entry"))
    for op, corrupt in cases:
        mod = seminormal_module(cls, 4)
        ops = mod.T if op[0] == "T" else mod.X
        # the first column of T_1 with an off-diagonal entry
        col = ops[0][min(j for j, c in enumerate(ops[0]) if len(c) > 1)
                     if corrupt == "off-diagonal" else 0]
        # an index outside the support of the operator's column
        k = min(set(range(mod.dim())) - {i for i, _ in col})
        if corrupt == "diagonal":
            j, c = col[0]
            col[0] = (j, c + 1)
        elif corrupt == "off-diagonal":
            j, c = col[1]
            col[1] = (j, c + 1)
        elif corrupt == "new entry":
            col.append((k, Cyc.one(4)))
        else:
            # column k gets row 0, whose orbit the walk visits first and
            # which does not reach k
            ops[0][k].append((0, Cyc.one(4)))
        sparse, dense = verify_form_invariance(mod), dense_form_invariance(mod)
        assert sparse == dense
        assert not sparse[op]
    # T_1 + c with c^2 = q passes G M = (M^{-1})^dagger G when M^{-1} is
    # taken as q^{-1}(M + 1 - q), which is the inverse only of an operator
    # that satisfies the quadratic relation; it is not an isometry
    for e, a in ((5, 1), (5, 2), (7, 3)):
        mod = seminormal_module(weight_class((0, 2, 1, 3), e), e, a)
        c = Cyc.zeta_power(e, a * (e + 1) // 2)
        assert c * c == mod.q
        mod.T[0] = [[(i, x + c if i == j else x) for i, x in col]
                    for j, col in enumerate(mod.T[0])]
        sparse = verify_form_invariance(mod)
        assert sparse == dense_form_invariance(mod)
        assert [name for name, ok in sparse.items() if not ok] == ["T_1"], (e, a)


def test_cached_form_ratio_matches_the_formula():
    # every residue pair, every e 2..6 and coprime a; the formula has a pole
    # where b_{i+1} = q b_i, and the cached ratio must raise there too
    for e in range(2, 7):
        for a in (a for a in range(1, e) if gcd(a, e) == 1):
            q = Cyc.zeta_power(e, a)
            for mi, mi1 in itertools.product(range(e), repeat=2):
                bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
                if (q * bi - bi1).is_zero():
                    with pytest.raises(ZeroDivisionError):
                        _form_ratio(e, a, mi, mi1)
                else:
                    assert _form_ratio(e, a, mi, mi1) == (bi - q * bi1) / (q * bi - bi1)


@st.composite
def corrupted_modules(draw):
    """A seminormal module (e 2..6, n <= 4, a coprime to e), the clean
    module of its class, and the module with one entry of one T_i or X_k
    changed: an existing entry moved by 2, or a new entry at a row the
    column does not hold."""
    e = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=4))
    cls = draw(st.sampled_from(enumerate_calibrated_classes(n, e)))
    a = draw(st.sampled_from([a for a in range(1, e) if gcd(a, e) == 1]))
    clean, mutant = seminormal_module(cls, e, a), seminormal_module(cls, e, a)
    op = draw(st.sampled_from(mutant.T + mutant.X))
    col = op[draw(st.integers(min_value=0, max_value=mutant.dim() - 1))]
    row = draw(st.integers(min_value=0, max_value=mutant.dim() - 1))
    rows = [i for i, _ in col]
    if row in rows:
        p = rows.index(row)
        col[p] = (row, col[p][1] + 2)
    else:
        col.append((row, Cyc.from_rational(e, draw(st.sampled_from((-1, 1, 2))))))
    return clean, mutant


@given(corrupted_modules())
@settings(max_examples=60, deadline=None)
def test_warm_memo_matches_the_oracles_on_corrupted_modules(modules):
    clean, mutant = modules
    # warm the memo with every clean local configuration of the class
    assert all(verify_hecke_relations(clean).values())
    assert all(verify_form_invariance(clean).values())
    report = verify_hecke_relations(mutant)
    assert list(report.items()) == list(column_hecke_relations(mutant).items())
    assert verify_form_invariance(mutant) == dense_form_invariance(mutant)


def test_cached_t_entries_match_the_formula():
    for e, a in [(4, 1), (5, 2), (6, 5)]:
        q = Cyc.zeta_power(e, a)
        for mi, mi1 in itertools.permutations(range(e), 2):
            bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
            diag = bi1 * (q - 1) / (bi1 - bi)
            assert _t_entries(e, a, mi, mi1) == (diag, diag - q)
