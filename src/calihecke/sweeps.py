"""The exact sweeps behind ``calihecke verify`` and the acceptance gate.

Each generator walks one family of cases over the ranges it is given and
yields one ``Record(check, case, ok)`` per claim it tests on a case: ``check``
names the claim, ``case`` lists the inputs (``e=5 s=(0,2) la=((2,1),(1,))``)
and ``ok`` is True or False, or None for a case outside the claim (a frame
whose origin lies on a wall).  The CLI and the tests run the same generators
over different ranges and differ only in how they reduce the records.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from .alcoves import in_fundamental_alcove
from .bgg import (block_poset, build_klr_module, covers, euler_check,
                  graded_character_identity, sign_assignment, verify_klr_relations)
from .calibration import is_cali, is_flotw
from .crystal import e_tilde, is_no_stuttering, reachable_by_size
from .multipartitions import (Charge, heights, is_s_admissible, multipartitions_of,
                              partitions_of)
from .seminormal import (class_form_signs, enumerate_calibrated_classes, seminormal_module,
                         verify_form_invariance, verify_hecke_relations)
from .unitary_loci import oracle_locus_verdict, unitary_locus

Record = namedtuple("Record", "check case ok")
Tally = namedtuple("Tally", "checked skipped failed first_failure")

# Checks that the paper expects to fail somewhere: the form is indefinite
# for some a > 1, and shift convention 2 misses the graded identity for some
# label.  A verdict never requires them to hold.
EXISTENTIAL = frozenset({"definite_a>1", "convention_2"})


def _case(**inputs):
    return " ".join(f"{k}={v}".replace(" ", "") for k, v in inputs.items())


def charges(e, ell, pinned=True):
    """Cylindrical charges s_1 <= ... <= s_ell in [0, e), lexicographically;
    pinned keeps those with s_1 = 0."""
    return [Charge(s, e) for s in combinations_with_replacement(range(e), ell)
            if not pinned or s[0] == 0]


def classification_sweep(es, levels, n_max):
    """Criteria 1-3 on every multipartition of size <= n_max: no-stuttering
    = Cali, crystal-reachable (breadth-first from the empty multipartition)
    = FLOTW, and e-tilde keeps a Cali multipartition Cali."""
    for e in es:
        for ell in levels:
            for ch in charges(e, ell):
                layers = reachable_by_size(n_max, ch)
                for n in range(n_max + 1):
                    for mp in multipartitions_of(n, ell):
                        case = _case(e=e, s=ch.s, la=mp)
                        cali = is_cali(mp, ch)
                        yield Record("no_stuttering=cali", case,
                                     is_no_stuttering(mp, ch) == cali)
                        yield Record("reachable=flotw", case,
                                     (mp in layers[n]) == is_flotw(mp, ch))
                        if cali:
                            downs = (e_tilde(mp, ch, i) for i in range(e))
                            yield Record("e_tilde_keeps_cali", case,
                                         all(d is None or is_cali(d, ch) for d in downs))


def seminormal_modules(es, ns):
    """The seminormal module of every calibrated weight class of length n in
    ns, at every a coprime to e."""
    for e in es:
        coprime = [a for a in range(1, e) if gcd(a, e) == 1]
        for n in ns:
            for cls in enumerate_calibrated_classes(n, e):
                for a in coprime:
                    yield seminormal_module(cls, e, a)


def seminormal_sweep(es, ns):
    """Criteria 4-6 on seminormal_modules(es, ns): the Hecke relations, the
    invariance of the Hermitian form, and whether the form is definite."""
    for mod in seminormal_modules(es, ns):
        case = _case(e=mod.e, a=mod.a, weight=mod.cls[0])
        yield Record("hecke_relations", case, all(verify_hecke_relations(mod).values()))
        yield Record("form_invariance", case, all(verify_form_invariance(mod).values()))
        signs = class_form_signs(mod.cls, mod.e, mod.a).values()
        yield Record("definite_a=1" if mod.a == 1 else "definite_a>1", case,
                     all(s == 1 for s in signs))


def frames(es, levels, n_max, pinned=True):
    """(ch, la, hbar) for every la of size <= n_max whose frame hbar =
    heights(la) has |hbar| < e and is s-admissible."""
    for e in es:
        for ell in levels:
            for ch in charges(e, ell, pinned):
                for n in range(n_max + 1):
                    for la in multipartitions_of(n, ell):
                        hb = heights(la)
                        if sum(hb) < e and is_s_admissible(hb, ch):
                            yield ch, la, hb


def alcove_sweep(es, levels, n_max, pinned=True):
    """Criterion 7 on every frame (None when the origin lies on a wall), and
    criteria 9-12 on every label in the fundamental alcove: the Euler
    identity, the graded identity under both shift conventions, a feasible
    diamond sign system, and (for e > 2) the KLR relations on the
    fundamental-alcove paths."""
    for ch, la, hb in frames(es, levels, n_max, pinned):
        case = _case(e=ch.e, s=ch.s, la=la)
        try:
            fundamental = in_fundamental_alcove(la, ch, hb)
        except ValueError:
            yield Record("fundamental=cali", case, None)
            continue
        yield Record("fundamental=cali", case, fundamental == is_cali(la, ch))
        if not fundamental:
            continue
        yield Record("euler", case, euler_check(la, ch, hb)["ok"])
        conv = graded_character_identity(la, ch, hb)
        yield Record("convention_1", case, conv[1])
        yield Record("convention_2", case, conv[2])
        poset = block_poset(la, ch, hb)
        yield Record("signs_feasible", case, sign_assignment(poset, covers(poset)) is not None)
        if ch.e > 2:
            klr = verify_klr_relations(build_klr_module(la, ch, hb))
            yield Record("klr_relations", case, all(klr.values()))


def locus_sweep(ns, es):
    """Criterion 13 for every partition of every n in ns: the closed-form
    locus U(la) against the positivity oracle at c = a/e, reduced into
    (-1/2, 1/2], for every e in es and every a coprime to e."""
    for n in ns:
        for la in partitions_of(n):
            locus = unitary_locus(la)
            for e in es:
                for a in range(1, e):
                    if gcd(a, e) == 1:
                        c = Fraction(a if 2 * a <= e else a - e, e)
                        yield Record("locus=oracle", _case(la=la, e=e, a=a),
                                     locus.contains(c) == oracle_locus_verdict(la, a, e))


def tally(records):
    """{check: Tally(checked, skipped, failed, first_failure)} over records."""
    counts = {}
    for r in records:
        c = counts.setdefault(r.check, [0, 0, 0, None])
        if r.ok is None:
            c[1] += 1
            continue
        c[0] += 1
        if not r.ok:
            c[2] += 1
            if c[3] is None:
                c[3] = r
    return {check: Tally(*c) for check, c in counts.items()}


def first_failure(records):
    """The first failing record of a universal check, or None."""
    return next((r for r in records if r.ok is False and r.check not in EXISTENTIAL),
                None)


def holds(records):
    """The verdict of a sweep: every universal check holds."""
    return first_failure(records) is None
