"""Acceptance sweep: one test per headline claim, exact arithmetic, zero
tolerance.  Each test reads the verdicts of its checks from one suite of
``calihecke.sweeps.SUITES`` run at its gate profile, and prints a single
pass/fail line."""

from functools import lru_cache

import pytest

from calihecke.sweeps import run_suite


@lru_cache(maxsize=None)
def _gate(suite):
    return run_suite(suite, "gate")


@pytest.fixture
def report(capsys):
    """Emit one pass/fail line per criterion on the real stdout: the
    criterion holds when none of its checks in the suite has a problem."""

    def _report(num, label, suite, *checks):
        problem = next(filter(None, (_gate(suite)[c] for c in checks)), None)
        with capsys.disabled():
            print(f"criterion {num} ({label}): {'PASS' if problem is None else 'FAIL'}")
        assert problem is None, f"criterion {num} ({label}) failed: {problem}"

    return _report


def test_criterion_01_classification_equivalence(report):
    report(1, "no-stuttering = Cali", "classification", "no_stuttering=cali")


def test_criterion_02_flotw_equivalence(report):
    report(2, "crystal-reachable = FLOTW", "classification", "reachable=flotw")


def test_criterion_03_crystal_preserves_cali(report):
    report(3, "e-tilde preserves Cali", "classification", "e_tilde_keeps_cali")


def test_criterion_04_hecke_relations(report):
    report(4, "seminormal Hecke relations", "seminormal", "hecke_relations")


def test_criterion_05_unitary_at_a1(report):
    report(5, "all signs +1 at a=1, negative exists at a>1", "seminormal",
           "definite_a=1", "definite_a>1")


def test_criterion_06_hermitian_invariance(report):
    report(6, "invariant Hermitian form", "seminormal", "form_invariance")


def test_criterion_07_geometry_equivalence(report):
    report(7, "Cali = fundamental alcove", "klr", "fundamental=cali")


def test_criterion_08_degree_identification(report):
    report(8, "path degree = tableau degree", "degree", "degree")


def test_criterion_09_euler_identity(report):
    report(9, "BGG Euler identity", "klr", "euler")


def test_criterion_10_graded_character_identity(report):
    # exactly one shift convention closes the identity uniformly
    report(10, "graded identity, shift t^len only", "klr", "convention_1", "convention_2")


def test_criterion_11_klr_relations(report):
    report(11, "KLR relations on Path^F", "klr", "klr_relations")


def test_criterion_12_sign_solvability(report):
    report(12, "diamond sign system feasible", "klr", "signs_feasible")


def test_criterion_13_level1_loci(report):
    report(13, "closed-form locus = positivity oracle", "locus", "locus=oracle")


def test_criterion_14_dominance_oracle(report):
    report(14, "greedy dominance = bijection search", "dominance", "dominance")
