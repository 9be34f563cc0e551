import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from calihecke import seminormal
from calihecke.calibration import enumerate_cali
from calihecke.cyclotomics import Cyc
from calihecke.multipartitions import Charge, partitions_of
from calihecke.seminormal import (
    SeminormalModule,
    _class_edges,
    _form_ratio,
    _is_galois_image,
    _t_entries,
    _window_check,
    _zeta_powers,
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
from conftest import clear_package_caches
import oracles
from oracles import (
    EagerSeminormalModule,
    admissible_transposition_reduced,
    class_form_signs_per_edge,
    column_hecke_relations,
    column_lists,
    dense_form_invariance,
    weight_class_by_search,
)

# the criterion 4-6 range and floors
GATE_ARGS, GATE_FLOORS = SUITES["seminormal"][1]["gate"]


def test_admissible_transposition_matches_reduced_weight_oracle():
    # every weight of length <= 4 with entries in -e..2e, unreduced ones
    # included
    for e in (2, 3, 4, 5, 6, 7):
        entries = range(-e, 2 * e + 1)
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


def test_weight_class_rejects_uncalibrated():
    with pytest.raises(ValueError):
        weight_class((0, 0), 3)


def test_module_rejects_a_repeated_weight():
    with pytest.raises(ValueError):
        seminormal_module([(0, 2), (2, 0), (0, 2)], 4)


def test_module_and_signs_reject_an_a_that_shares_a_factor_with_e():
    # q = zeta^a is then no primitive e-th root: some T_i entries divide by
    # zero, the others build a module that no sigma_a maps to the one at
    # a = 1, and a form sign can sit on a wall
    rejected = 0
    for e in range(4, 9):
        for n in (2, 3):
            for cls in enumerate_calibrated_classes(n, e):
                for a in (a for a in range(1, e) if gcd(a, e) != 1):
                    for build in (seminormal_module, class_form_signs):
                        with pytest.raises(ValueError, match=r"need gcd\(a, e\) = 1"):
                            build(cls, e, a)
                    rejected += 1
    assert rejected == 683
    with pytest.raises(ValueError, match=r"need gcd\(a, e\) = 1"):
        seminormal_module(weight_class((0, 2), 4), 4, 2)


def _rejection(build, cls, e, a=1):
    """The exception type that build(cls, e, a) raises, or None."""
    try:
        build(cls, e, a)
    except Exception as ex:  # the type is the verdict
        return type(ex)
    return None


@pytest.mark.parametrize("cls, e, error", [
    ([(0, 0)], 3, ZeroDivisionError),  # T_1's diagonal has a pole at d = 0
    ([(1, 1, 0)], 5, ZeroDivisionError),
    ([(0, 2)], 4, KeyError),  # s_1 (0, 2) = (2, 0) is admissible but missing
])
def test_module_rejects_what_building_its_operators_rejects(cls, e, error):
    for build in (seminormal_module, EagerSeminormalModule):
        with pytest.raises(error):
            build(cls, e)


def test_constructor_rejects_as_the_eager_build_on_random_classes():
    # lists of random weights, some of unequal lengths or out of range, and
    # some closed classes: the operators are built on first read, and the
    # constructor still raises what the eager build raised, in its order
    rng = random.Random(25)
    outcomes = {}
    for _ in range(3000):
        e = rng.randrange(2, 8)
        a = rng.choice([a for a in range(1, e) if gcd(a, e) == 1])
        n = rng.randrange(1, 5)
        lengths = [n] * 4 if rng.random() < 0.7 else [rng.randrange(0, 5) for _ in range(4)]
        lengths = lengths[:rng.randrange(1, 5)]
        cls = [tuple(rng.randrange(-2, e + 2) for _ in range(k)) for k in lengths]
        if rng.random() < 0.3 and is_calibrated_weight(cls[0], e):
            cls = weight_class(cls[0], e)
        got = _rejection(seminormal_module, cls, e, a)
        assert got == _rejection(EagerSeminormalModule, cls, e, a), (cls, e, a)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert set(outcomes) == {None, ValueError, KeyError, ZeroDivisionError, IndexError}
    # entries that are no index into the power table, at e = 0 and e < 0
    for cls, e in (([(0.5,)], 3), ([("0",)], 3), ([(0,)], 0), ([(0,)], -3)):
        assert _rejection(seminormal_module, cls, e) == _rejection(EagerSeminormalModule, cls, e)


def test_unread_operators_are_never_built(monkeypatch):
    # dim and both checks read the class, never X or T, and T_i invariance
    # is read off windows of at most two weights: no form value of the
    # class is built, by form_values or by any walk over its edge list
    reads, walks = [], []
    for name in ("X", "T"):
        built = getattr(SeminormalModule, name)
        monkeypatch.setattr(SeminormalModule, name, property(
            lambda mod, built=built, name=name: reads.append(name) or built.__get__(mod)))
    values, propagate = seminormal.form_values, seminormal._propagate
    monkeypatch.setattr(seminormal, "form_values",
                        lambda mod: walks.append("form_values") or values(mod))
    monkeypatch.setattr(seminormal, "_propagate",
                        lambda edges, *rest: walks.append(len(edges)) or propagate(edges, *rest))
    for m, e, a in [((0, 2, 1, 3), 4, 1), ((0, 1, 3, 4), 6, 5), ((0, 2, 4, 1, 3), 6, 1),
                    ((0, 2, 4, 1, 3), 7, 3)]:
        cls = weight_class(m, e)
        assert len(cls) > 2, m
        walks.clear()
        mod = seminormal_module(cls, e, a)
        assert mod.dim() == len(cls)
        assert all(verify_hecke_relations(mod).values()), m
        assert all(verify_form_invariance(mod).values()), m
        assert reads == [] and "form_values" not in walks and max(walks, default=0) <= 2, m
        class_form_signs(mod.cls, e, a)
        form_signs(mod)
        assert reads == [] and len(cls) in walks, m


def test_operators_are_read_only():
    # X and T are tuples built on first read, with no setter: a module is
    # its construction, so neither can be assigned or deleted, and no
    # operator, column or entry can be changed
    mod = seminormal_module(weight_class((0, 1, 3, 4), 6), 6)
    for name in ("T", "X"):
        ops = getattr(mod, name)
        with pytest.raises(AttributeError):
            setattr(mod, name, list(ops))
        with pytest.raises(AttributeError):
            delattr(mod, name)
        with pytest.raises(TypeError):
            ops[0] = ops[0]
        with pytest.raises(TypeError):
            ops[0][0] = ops[0][0]
        with pytest.raises(TypeError):
            ops[0][0][0] = (0, Cyc.one(6))
        with pytest.raises(AttributeError):
            ops[0][0].append((0, Cyc.one(6)))
        assert getattr(mod, name) is ops, name


def test_operators_read_on_first_use_equal_the_eager_build():
    # every gate module: T and X, read lazily, are the operators that the
    # eager constructor builds, and a second read returns the same tuples
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        eager = EagerSeminormalModule(mod.cls, mod.e, mod.a)
        assert column_lists(mod.T) == eager.T and column_lists(mod.X) == eager.X, \
            (mod.cls[0], mod.e, mod.a)
        assert mod.T is mod.T and mod.X is mod.X
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"] == 1358


def test_weight_class_is_the_search_oracles_class():
    # from every weight of every class of the gate range, weight_class
    # finds the class that the search oracle finds
    checked = 0
    for e in GATE_ARGS[0]:
        for n in GATE_ARGS[1]:
            for cls in enumerate_calibrated_classes(n, e):
                for m in cls:
                    assert weight_class(m, e) == weight_class_by_search(m, e) == cls, (m, e)
                    checked += 1
    assert checked > 1000
    # unreduced weights are reduced
    for m, e in (((5, -2, 4), 4), ((0, 2, 4, 1, 3), 7)):
        assert weight_class(m, e) == weight_class_by_search(m, e), (m, e)


def test_finding_classes_builds_no_edge_list():
    # the sweeps' case lists find every class of the gate range, and a
    # class is listed again by weight_class, without building an edge list
    _class_edges.cache_clear()
    for e in GATE_ARGS[0]:
        for n in GATE_ARGS[1]:
            for cls in enumerate_calibrated_classes(n, e):
                assert weight_class(cls[-1], e) == cls
    assert _class_edges.cache_info().misses == 0


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
    assert mod.T[0] == (((0, mod.q),),)
    mod = seminormal_module([(1, 0)], 3)
    assert mod.T[0] == (((0, Cyc.from_rational(3, -1)),),)


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
    and every a in [1, e) prime to e."""
    ns, es = SUITES["locus"][1]["gate"][0]
    for n in ns:
        for la in partitions_of(n):
            for e in es:
                m = column_reading_weight(la, e)
                if is_calibrated_weight(m, e):
                    cls = weight_class(m, e)
                    for a in range(1, e):
                        if gcd(a, e) == 1:
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
    # at a prime to e no edge is a wall
    assert outcomes == {"signs": 2607}
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


_VALUES_DISAGREE = "inconsistent form values around a cycle"


def test_a_ratio_that_is_not_reciprocal_raises(monkeypatch):
    # ratio(d) * ratio(-d) = 2 for 0 < d < e/2, so a class raises iff one of
    # its edges has a difference d other than -d mod e: the edge there and
    # back multiplies its value by 2.  verify_form_invariance raises exactly
    # where form_values does
    real = seminormal._form_ratio

    def skewed(e, a, d):
        return real(e, a, d) * 2 if 2 * d < e else real(e, a, d)

    monkeypatch.setattr(seminormal, "_form_ratio", skewed)
    clear_package_caches()
    outcomes = {}
    try:
        for mod in seminormal_modules(*GATE_ARGS):
            args = mod.cls, mod.e, mod.a
            e, n = mod.e, mod.n
            skews = any(wt[i - 1] != wt[i] and admissible_transposition(wt, i, e)
                        and 2 * (wt[i - 1] - wt[i]) % e for wt in mod.cls for i in range(1, n))
            got = _signs_or_error(lambda *_: form_values(mod), *args)
            kind = got if isinstance(got, str) else "values"
            assert kind == ("ValueError: " + _VALUES_DISAGREE if skews else "values"), args
            outcomes[kind] = outcomes.get(kind, 0) + 1
            checked = _signs_or_error(lambda *_: verify_form_invariance(mod), *args)
            assert (checked if isinstance(checked, str) else "values") == kind, args
    finally:
        clear_package_caches()
    assert outcomes.get("ValueError: " + _VALUES_DISAGREE, 0) > 0 and outcomes.get("values", 0) > 0


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


def test_cyclotomic_membership_rejects_a_charge_at_another_e():
    # the residues of the charge mean nothing at another e
    mod = seminormal_module(weight_class((0, 2), 4), 4)
    for ch in (Charge((0, 2), 6), Charge((0, 2), 8)):
        with pytest.raises(ValueError, match="same e"):
            cyclotomic_membership(mod, ch)


def test_cyclotomic_membership_is_the_vanishing_of_its_product():
    # prod_i (X_1 - q^{s_i}) in Cyc, from the module's own X_1 and q, on
    # every gate module (so at every coprime a) and every sorted charge in
    # [0, e)^ell, ell <= 2
    checked = members = 0
    for mod in seminormal_modules(*GATE_ARGS):
        e, q = mod.e, mod.q
        powers = [Cyc.one(e)]
        for _ in range(1, e):
            powers.append(powers[-1] * q)
        eigenvalues = {col[0][1] for col in mod.X[0]}
        for ell in (1, 2):
            for s in itertools.combinations_with_replacement(range(e), ell):
                vanishes = True
                for b in eigenvalues:
                    product = Cyc.one(e)
                    for x in s:
                        product = product * (b - powers[x])
                    vanishes = vanishes and product.is_zero()
                got = cyclotomic_membership(mod, Charge(s, e))
                assert got == vanishes, (mod.cls, e, mod.a, s)
                checked += 1
                members += got
    assert checked > 0 and 0 < members < checked


def test_corrupted_operator_fails_relations():
    # a 6-dimensional class: every T_i column with an off-diagonal entry
    # moves within an orbit of several weights; each mutant is the eager
    # module with one entry changed, which both oracles must flag
    cls = weight_class((0, 1, 3, 4), 6)
    mod = seminormal_module(cls, 6)
    assert mod.dim() == 6
    assert all(verify_hecke_relations(mod).values())
    mutants = 0
    # 1 added to any single entry of T_i breaks its quadratic relation
    for i in range(1, mod.n):
        for j in range(mod.dim()):
            for p in range(len(mod.T[i - 1][j])):
                mutant = EagerSeminormalModule(cls, 6)
                idx, c = mutant.T[i - 1][j][p]
                mutant.T[i - 1][j][p] = (idx, c + 1)
                report = column_hecke_relations(mutant)
                assert not report[f"quadratic_{i}"], (i, j, p)
                assert not dense_form_invariance(mutant)[f"T_{i}"], (i, j, p)
                mutants += 1
    # an off-diagonal entry in X_k moves w_j to a weight that differs from
    # cls[j] at some other position l, so X_k no longer commutes with X_l
    for k in range(1, mod.n + 1):
        for j in range(mod.dim()):
            for idx in set(range(mod.dim())) - {j}:
                mutant = EagerSeminormalModule(cls, 6)
                mutant.X[k - 1][j].append((idx, Cyc.one(6)))
                report = column_hecke_relations(mutant)
                assert not all(ok for name, ok in report.items()
                               if name.startswith("xcomm_") and str(k) in name.split("_")[1:]), \
                    (k, j, idx)
                assert not dense_form_invariance(mutant)[f"X_{k}"], (k, j, idx)
                mutants += 1
    assert mutants == 30 + 4 * 6 * 5


def _moved_diagonal(real, moved=2):
    """T_i's diagonal plus 1 at d = moved: quadratic, txt, braid and T_i
    invariance fail on the windows whose closure holds that difference,
    and only there."""
    def entries(e, a, d):
        diag, off = real(e, a, d)
        return (diag + 1, off) if d == moved else (diag, off)
    return entries


def _clear_window_memos():
    _window_check.cache_clear()
    _is_galois_image.cache_clear()


@pytest.fixture
def window_memo():
    """The window memos (the verdicts and the Galois check) key no entry
    value, so a test that swaps _t_entries starts and ends with them
    empty, and clears them after each swap."""
    _clear_window_memos()
    yield _clear_window_memos
    _clear_window_memos()


def test_formula_rows_are_checked_on_a_module_equal_to_its_construction(monkeypatch, window_memo):
    # a wrong T_i diagonal at one difference d, built into the module, so
    # that the module is its construction: the commutation rows and X_k
    # invariance hold for any entries, but quadratic, braid and txt must
    # still be checked on the module
    cls = weight_class((0, 1, 3, 4), 6)
    for d in (2, 3, 4, 5):
        monkeypatch.setattr(seminormal, "_t_entries", _moved_diagonal(_t_entries, d))
        window_memo()
        mod = seminormal_module(cls, 6)
        report = verify_hecke_relations(mod)
        assert list(report.items()) == list(column_hecke_relations(mod).items()), d
        failed = {name.split("_")[0] for name, ok in report.items() if not ok}
        assert failed == {"quadratic", "braid", "txt"}, d
        invariance = verify_form_invariance(mod)
        assert invariance == dense_form_invariance(mod), d
        assert all(invariance[f"X_{k}"] for k in range(1, mod.n + 1)), d


def _assert_window_route_matches_the_oracle(mod):
    """The window route and the column oracle, which reads the module's own
    operators, give the same report, in the same order."""
    report = list(verify_hecke_relations(mod).items())
    assert report == list(column_hecke_relations(mod).items()), (mod.cls[0], mod.e, mod.a)
    return dict(report)


def test_relation_table_matches_column_oracle():
    # the gate's criterion-6 sweep: every calibrated class at every coprime
    # a, read off windows and checked column by column; the window memo
    # warms up along the sweep
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        _assert_window_route_matches_the_oracle(mod)
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"]


def _classes_beyond_the_gate():
    """(cls, e, a): up to three classes of dimension <= 40 per (e, n) that
    the gate does not reach, n 6..8 at e 2..6 and n 3..8 at e 7..9, from
    seeded random calibrated weights.  At e = 2, m_i = m_{i+2} occurs."""
    rng = random.Random(8)
    for e in range(2, 10):
        coprime = [a for a in range(1, e) if gcd(a, e) == 1]
        for n in range(3 if e > 6 else 6, 9):
            seen, found = set(), 0
            for _ in range(2000):
                m = tuple(rng.randrange(e) for _ in range(n))
                if m in seen or not is_calibrated_weight(m, e):
                    continue
                cls = weight_class(m, e)
                seen.update(cls)
                if len(cls) <= 40:
                    yield cls, e, rng.choice(coprime)
                    found += 1
                    if found == 3:
                        break


def test_window_route_matches_the_oracles_beyond_the_gate():
    checked, repeats = 0, 0
    for cls, e, a in _classes_beyond_the_gate():
        mod = seminormal_module(cls, e, a)
        report = _assert_window_route_matches_the_oracle(mod)
        assert all(report.values()), (cls[0], e, a)
        assert verify_form_invariance(mod) == dense_form_invariance(mod), (cls[0], e, a)
        repeats += e == 2 and any(m[i] == m[i + 2] for m in cls for i in range(len(m) - 2))
        checked += 1
    assert checked > 80 and repeats > 0


def _swapped_diagonals(real):
    """T_i's diagonal of -d at d: the quadratic relation holds (trace and
    determinant are kept), txt_i does not."""
    return lambda e, a, d: (real(e, a, -d % e)[0], real(e, a, d)[1])


def _moved_at_minus_one(real):
    """_moved_diagonal at a = e - 1 only: no sigma_a maps the construction
    at a = 1 onto the one at a = e - 1, so its windows must not take the
    verdict at a = 1."""
    moved = _moved_diagonal(real)
    return lambda e, a, d: moved(e, a, d) if a == e - 1 else real(e, a, d)


def _moved_off_diagonal(real):
    """T_i's off-diagonal plus 1 at d = 2: quadratic, txt, braid and T_i
    invariance fail on the windows whose closure holds that difference."""
    def entries(e, a, d):
        diag, off = real(e, a, d)
        return (diag, off + 1) if d == 2 else (diag, off)
    return entries


@pytest.mark.parametrize("wrong", [_swapped_diagonals, _moved_diagonal, _moved_at_minus_one,
                                   _moved_off_diagonal])
def test_window_route_matches_the_oracles_on_wrong_entries(monkeypatch, window_memo, wrong):
    # an entry formula that breaks some rows but not others, built into
    # every module: the window route must agree with both oracles row by
    # row, and the memo must keep the verdicts of quadratic, txt, braid and
    # T_i invariance apart
    monkeypatch.setattr(seminormal, "_t_entries", wrong(_t_entries))
    verdicts = set()
    for mod in seminormal_modules(range(2, 7), range(2, 5)):
        report = _assert_window_route_matches_the_oracle(mod)
        verdicts.update((name.split("_")[0], ok) for name, ok in report.items())
        # the invariance windows share the relation windows' Galois check
        invariance = verify_form_invariance(mod)
        assert invariance == dense_form_invariance(mod), (mod.cls[0], mod.e, mod.a)
        verdicts.update((name.split("_")[0], ok) for name, ok in invariance.items())
    held = {kind for kind, ok in verdicts if ok}
    failed = {kind for kind, ok in verdicts if not ok}
    # a swap of the diagonals keeps every T_i an isometry; a moved entry
    # breaks T_i invariance, and the window check reports it
    assert failed == ({"txt"} if wrong is _swapped_diagonals else {"quadratic", "txt", "braid", "T"})
    assert {"quadratic", "txt", "braid", "T", "X"} <= held
    # the Galois check tells the formula wrong at a = e - 1 alone apart
    shared = {(e, a): _is_galois_image(e, a) for e in range(3, 7) for a in (1, e - 1)}
    assert all(shared.values()) == (wrong is not _moved_at_minus_one)


def _defined(f, e, a, d):
    """f(e, a, d) as a tuple, or None where it divides by zero."""
    try:
        out = f(e, a, d)
    except ZeroDivisionError:
        return None
    return out if isinstance(out, tuple) else (out,)


def test_construction_at_a_is_the_galois_image_of_the_one_at_1():
    # the premise of sharing window verdicts across a: every value the
    # construction is built from, at every coprime a, is sigma_a of its
    # value at a = 1, and is defined exactly where that is
    checked = 0
    for e in range(2, 25):
        for a in (a for a in range(2, e) if gcd(a, e) == 1):
            for m, b in enumerate(_zeta_powers(e, 1)):
                assert _zeta_powers(e, a)[m] == b.galois(a), (e, a, m)
                checked += 1
            for f in (_t_entries, _form_ratio):
                for d in range(e):
                    base, image = _defined(f, e, 1, d), _defined(f, e, a, d)
                    assert (base is None) == (image is None), (f.__name__, e, a, d)
                    if base is not None:
                        assert image == tuple(x.galois(a) for x in base), (f.__name__, e, a, d)
                        checked += 1
            assert _is_galois_image(e, a)
    assert checked == 7533


def test_relation_order_matches_column_oracle_up_to_n8():
    # one module per n beyond the gate's n <= 5: the weight (0, ..., n-2, n)
    # at e = n + 2, whose class holds n weights
    for n in range(1, 9):
        mod = seminormal_module(weight_class(tuple(range(n - 1)) + (n,), n + 2), n + 2)
        assert mod.dim() == n
        report = verify_hecke_relations(mod)
        assert list(report.items()) == list(column_hecke_relations(mod).items()), n
        assert all(report.values()), n


def test_window_verdicts_are_memoised_and_read_the_construction_form(monkeypatch):
    cls = weight_class((0, 1, 3, 4), 6)
    _window_check.cache_clear()
    # a module reads its windows, and a second one of the same class adds
    # no window to the memo
    assert all(verify_hecke_relations(seminormal_module(cls, 6)).values())
    assert all(verify_form_invariance(seminormal_module(cls, 6)).values())
    windows = _window_check.cache_info()
    assert windows.misses > 0
    assert all(verify_hecke_relations(seminormal_module(cls, 6)).values())
    assert all(verify_form_invariance(seminormal_module(cls, 6)).values())
    assert _window_check.cache_info().misses == windows.misses
    # nor does one at a = 5: sigma_5 maps the construction at a = 1 onto it
    assert all(verify_hecke_relations(seminormal_module(cls, 6, 5)).values())
    assert all(verify_form_invariance(seminormal_module(cls, 6, 5)).values())
    assert _window_check.cache_info().misses == windows.misses
    # M^dagger G M = G holds for every multiple of G, but not after one
    # value of G is doubled; the module's own check reads the
    # construction's form
    mod = seminormal_module(cls, 6)
    values = form_values(mod)
    j = min(j for j, col in enumerate(mod.T[0]) if len(col) > 1)
    values[j] = values[j] + values[j]
    monkeypatch.setattr(oracles, "form_values", lambda _: values)
    report = dense_form_invariance(mod)
    assert not report["T_1"] and all(report[f"X_{k}"] for k in range(1, mod.n + 1))
    assert all(verify_form_invariance(mod).values())


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
    # the gate's criterion-6 sweep: every calibrated class at every coprime
    # a, read off windows and checked entry by entry
    checked = 0
    for mod in seminormal_modules(*GATE_ARGS):
        report = verify_form_invariance(mod)
        assert report == dense_form_invariance(mod), (mod.cls[0], mod.e, mod.a)
        checked += 1
    assert checked == GATE_FLOORS["hecke_relations"]


def test_corrupted_operator_fails_invariance():
    # each mutant is the eager module with one entry of T_1 or X_1 changed,
    # which both oracles must flag
    cls = weight_class((0, 2, 1, 3), 4)
    assert all(dense_form_invariance(EagerSeminormalModule(cls, 4)).values())
    cases = (("T_1", "diagonal"), ("T_1", "off-diagonal"), ("T_1", "new entry"),
             ("T_1", "entry in an earlier orbit"), ("X_1", "new entry"))
    for op, corrupt in cases:
        mod = EagerSeminormalModule(cls, 4)
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
            # column k gets row 0, which does not reach k: an entry whose
            # mirror is 0
            ops[0][k].append((0, Cyc.one(4)))
        assert not dense_form_invariance(mod)[op], (op, corrupt)
        assert not all(column_hecke_relations(mod).values()), (op, corrupt)
    # T_1 + c with c^2 = q passes G M = (M^{-1})^dagger G when M^{-1} is
    # taken as q^{-1}(M + 1 - q), which is the inverse only of an operator
    # that satisfies the quadratic relation; it is not an isometry
    for e, a in ((5, 1), (5, 2), (7, 3)):
        mod = EagerSeminormalModule(weight_class((0, 2, 1, 3), e), e, a)
        c = Cyc.zeta_power(e, a * (e + 1) // 2)
        assert c * c == mod.q
        mod.T[0] = [[(i, x + c if i == j else x) for i, x in col]
                    for j, col in enumerate(mod.T[0])]
        report = dense_form_invariance(mod)
        assert [name for name, ok in report.items() if not ok] == ["T_1"], (e, a)
        assert not column_hecke_relations(mod)["quadratic_1"], (e, a)


def _coprime_pairs():
    """(e, a, mi, mi1) for every e 2..6, a coprime to e and residue pair."""
    for e in range(2, 7):
        for a in (a for a in range(1, e) if gcd(a, e) == 1):
            for mi, mi1 in itertools.product(range(e), repeat=2):
                yield e, a, mi, mi1


def test_cached_form_ratio_matches_the_formula():
    # every residue pair, keyed by its difference; the pair formula has a
    # pole where b_{i+1} = q b_i, and the cached ratio must raise there too
    for e, a, mi, mi1 in _coprime_pairs():
        q = Cyc.zeta_power(e, a)
        bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
        if (q * bi - bi1).is_zero():
            with pytest.raises(ZeroDivisionError):
                _form_ratio(e, a, (mi - mi1) % e)
        else:
            assert _form_ratio(e, a, (mi - mi1) % e) == (bi - q * bi1) / (q * bi - bi1)


def test_cached_t_entries_match_the_formula():
    # every residue pair, keyed by its difference; the pair formula has a
    # pole where b_{i+1} = b_i, and the cached entries must raise there too
    for e, a, mi, mi1 in _coprime_pairs():
        q = Cyc.zeta_power(e, a)
        bi, bi1 = Cyc.zeta_power(e, a * mi), Cyc.zeta_power(e, a * mi1)
        if (bi1 - bi).is_zero():
            with pytest.raises(ZeroDivisionError):
                _t_entries(e, a, (mi - mi1) % e)
        else:
            diag = bi1 * (q - 1) / (bi1 - bi)
            assert _t_entries(e, a, (mi - mi1) % e) == (diag, diag - q)
