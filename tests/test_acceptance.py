"""Acceptance sweep: one test per headline claim, exact arithmetic, zero
tolerance.  Each test prints a single pass/fail line."""

import itertools
from functools import lru_cache

import pytest

from calihecke.alcoves import path_degree, tableau_to_path
from calihecke.multipartitions import (
    boxes,
    box_key,
    dominates,
    heights,
    is_s_admissible,
    multipartitions_of,
    residue,
    standard_tableaux,
    tableau_degree,
)
from calihecke.sweeps import (
    Tally,
    alcove_sweep,
    charges,
    classification_sweep,
    locus_sweep,
    seminormal_sweep,
    tally,
)


@pytest.fixture
def report(capsys):
    """Emit one pass/fail line per criterion on the real stdout; ``problem``
    is None when the criterion holds, else what went wrong."""

    def _report(num, label, problem):
        with capsys.disabled():
            print(f"criterion {num} ({label}): {'PASS' if problem is None else 'FAIL'}")
        assert problem is None, f"criterion {num} ({label}) failed: {problem}"

    return _report


def _problem(tallies, check, floor, existential=False):
    """Why a check fails its criterion, or None.  Every check must reach its
    floor (the count of the current ranges, so that a sweep that stops
    checking fails instead of passing vacuously) with no case skipped; a
    universal check must never fail, an existential one somewhere."""
    t = tallies.get(check, Tally(0, 0, 0, None))
    if not existential and t.first_failure is not None:
        return f"first failing record {t.first_failure}"
    if t.checked < floor or t.skipped:
        return f"{check}: {t.checked} cases checked (floor {floor}), {t.skipped} skipped"
    if existential and not t.failed:
        return f"{check} holds on all {t.checked} cases"
    return None


# -- criteria 1-3: classification sweep -------------------------------------


@lru_cache(maxsize=None)
def _classification():
    return tally(classification_sweep(range(2, 7), (1, 2, 3), 8))


def test_criterion_01_classification_equivalence(report):
    report(1, "no-stuttering = Cali", _problem(_classification(), "no_stuttering=cali", 99985))


def test_criterion_02_flotw_equivalence(report):
    report(2, "crystal-reachable = FLOTW", _problem(_classification(), "reachable=flotw", 99985))


def test_criterion_03_crystal_preserves_cali(report):
    report(3, "e-tilde preserves Cali", _problem(_classification(), "e_tilde_keeps_cali", 7447))


# -- criteria 4-6: seminormal sweep -----------------------------------------


@lru_cache(maxsize=None)
def _seminormal():
    return tally(seminormal_sweep(range(2, 7), range(1, 6)))


def test_criterion_04_hecke_relations(report):
    report(4, "seminormal Hecke relations", _problem(_seminormal(), "hecke_relations", 1358))


def test_criterion_05_unitary_at_a1(report):
    t = _seminormal()
    report(5, "all signs +1 at a=1, negative exists at a>1",
           _problem(t, "definite_a=1", 539) or _problem(t, "definite_a>1", 819, existential=True))


def test_criterion_06_hermitian_invariance(report):
    report(6, "invariant Hermitian form", _problem(_seminormal(), "form_invariance", 1358))


# -- criteria 7, 9-12: alcove and BGG sweep ---------------------------------


@lru_cache(maxsize=None)
def _alcove():
    return tally(alcove_sweep(range(2, 7), (1, 2), 8))


def test_criterion_07_geometry_equivalence(report):
    report(7, "Cali = fundamental alcove", _problem(_alcove(), "fundamental=cali", 2757))


# -- criterion 8: degree identification -------------------------------------


def test_criterion_08_degree_identification(report):
    checked = skipped = 0
    failure = None
    for e in range(2, 7):
        for ell in (1, 2):
            for ch in charges(e, ell):
                for hbar in itertools.product(range(1, 4), repeat=ell):
                    if sum(hbar) >= e or not is_s_admissible(hbar, ch):
                        continue
                    for n in range(7):
                        for mp in multipartitions_of(n, ell):
                            if any(a > b for a, b in zip(heights(mp), hbar)):
                                continue
                            for t in standard_tableaux(mp):
                                try:
                                    p = tableau_to_path(t, hbar)
                                    same = path_degree(p, ch, hbar) == tableau_degree(t, ch)
                                except ValueError:
                                    skipped += 1  # invalid frame for this charge
                                    continue
                                checked += 1
                                if not same and failure is None:
                                    failure = f"e={e} s={ch.s} hbar={hbar} t={t}"
    tallies = {"degree": Tally(checked, skipped, failure is not None, failure)}
    report(8, "path degree = tableau degree", _problem(tallies, "degree", 26131))


def test_criterion_09_euler_identity(report):
    report(9, "BGG Euler identity", _problem(_alcove(), "euler", 1464))


def test_criterion_10_graded_character_identity(report):
    t = _alcove()
    # exactly one shift convention closes the identity uniformly
    report(10, "graded identity, shift t^len only",
           _problem(t, "convention_1", 1464) or _problem(t, "convention_2", 1464, existential=True))


def test_criterion_11_klr_relations(report):
    report(11, "KLR relations on Path^F", _problem(_alcove(), "klr_relations", 1429))


def test_criterion_12_sign_solvability(report):
    report(12, "diamond sign system feasible", _problem(_alcove(), "signs_feasible", 1464))


# -- criterion 13: level-1 unitary loci -------------------------------------


def test_criterion_13_level1_loci(report):
    report(13, "closed-form locus = positivity oracle",
           _problem(tally(locus_sweep(range(1, 9), range(2, 13))), "locus=oracle", 2970))


# -- criterion 14: dominance oracle -----------------------------------------


def _brute_force_dominates(mu, la, ch):
    by_res_mu, by_res_la = {}, {}
    for b in boxes(mu):
        by_res_mu.setdefault(residue(b, ch), []).append(box_key(b, ch))
    for b in boxes(la):
        by_res_la.setdefault(residue(b, ch), []).append(box_key(b, ch))
    if set(by_res_mu) != set(by_res_la):
        return False
    for i in by_res_mu:
        ku, kl = by_res_mu[i], by_res_la[i]
        if len(ku) != len(kl):
            return False
        if not any(all(kl[j] <= ku[perm[j]] for j in range(len(kl)))
                   for perm in itertools.permutations(range(len(ku)))):
            return False
    return True


def test_criterion_14_dominance_oracle(report):
    failure = None
    for e in (2, 3, 4):
        for ell in (1, 2, 3):
            for ch in charges(e, ell):
                for n in range(7):
                    mps = multipartitions_of(n, ell)
                    for mu in mps:
                        for la in mps:
                            if failure is None and (dominates(mu, la, ch)
                                                    != _brute_force_dominates(mu, la, ch)):
                                failure = f"first failing pair e={e} s={ch.s} mu={mu} la={la}"
    report(14, "greedy dominance = bijection search", failure)
