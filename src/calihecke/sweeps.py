"""The exact sweeps behind ``calihecke verify`` and the acceptance gate.

Each generator walks one family of cases over the ranges it is given and
yields one ``Record(check, case, ok)`` per claim it tests on a case: ``check``
names the claim, ``case`` lists the inputs (``e=5 s=(0,2) la=((2,1),(1,))``)
and ``ok`` is True or False, or None for a case outside the claim (a frame
whose origin lies on a wall).  ``SUITES`` holds each sweep's ranges and
floors under a ``"verify"`` and a ``"gate"`` profile, and ``problems`` is
the one reduction of records to verdicts.  A generator imports the layers
it runs when it starts, so the table loads none of them.
"""

from collections import namedtuple
from itertools import combinations_with_replacement, product
from math import gcd

from .multipartitions import Charge, heights, is_s_admissible, multipartitions_of

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
    from .calibration import is_cali, is_flotw
    from .crystal import e_tilde_images, is_no_stuttering, reachable_by_size

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
                            yield Record("e_tilde_keeps_cali", case,
                                         all(is_cali(d, ch) for _, d in e_tilde_images(mp, ch)))


def seminormal_modules(es, ns):
    """The seminormal module of every calibrated weight class of length n in
    ns, at every a coprime to e."""
    from .seminormal import enumerate_calibrated_classes, seminormal_module

    for e in es:
        coprime = [a for a in range(1, e) if gcd(a, e) == 1]
        for n in ns:
            for cls in enumerate_calibrated_classes(n, e):
                for a in coprime:
                    yield seminormal_module(cls, e, a)


def seminormal_sweep(es, ns):
    """Criteria 4-6 on seminormal_modules(es, ns): the Hecke relations, the
    invariance of the Hermitian form, and whether the form is definite."""
    from .seminormal import class_form_signs, verify_form_invariance, verify_hecke_relations

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
    from .alcoves import in_fundamental_alcove
    from .bgg import (block_poset, build_klr_module, covers, euler_check,
                      graded_character_identity, sign_assignment, verify_klr_relations)
    from .calibration import is_cali

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


def degree_sweep(es, levels, h_max, n_max):
    """Criterion 8 on every standard tableau of size <= n_max that fits an
    s-admissible frame hbar in [1, h_max]^ell with |hbar| < e: the degree of
    its alcove path equals its tableau degree (None when the frame is
    invalid for the charge)."""
    from .alcoves import path_degree, tableau_to_path
    from .multipartitions import standard_tableaux, tableau_degree

    for e in es:
        for ell in levels:
            for ch in charges(e, ell):
                for hbar in product(range(1, h_max + 1), repeat=ell):
                    if sum(hbar) >= e or not is_s_admissible(hbar, ch):
                        continue
                    for n in range(n_max + 1):
                        for mp in multipartitions_of(n, ell, hbar):
                            for t in standard_tableaux(mp):
                                try:
                                    p = tableau_to_path(t, hbar)
                                    same = path_degree(p, ch, hbar) == tableau_degree(t, ch)
                                except ValueError:
                                    same = None
                                yield Record("degree", _case(e=e, s=ch.s, hbar=hbar, t=t), same)


def dominance_sweep(es, levels, n_max):
    """Criterion 14 on every ordered pair of multipartitions of one size
    <= n_max: the greedy dominance test agrees with the bijection search."""
    from .multipartitions import dominance_signature, dominates_by_search, signature_dominates

    for e in es:
        for ell in levels:
            for ch in charges(e, ell):
                for n in range(n_max + 1):
                    # _case's text and the dominance signature, each once per
                    # multipartition: per pair they cost more than the check
                    mps = [(mp, str(mp).replace(" ", ""), dominance_signature(mp, ch))
                           for mp in multipartitions_of(n, ell)]
                    charge = _case(e=e, s=ch.s)
                    for mu, mu_text, mu_sig in mps:
                        for la, la_text, la_sig in mps:
                            yield Record("dominance", f"{charge} mu={mu_text} la={la_text}",
                                         signature_dominates(mu_sig, la_sig)
                                         == dominates_by_search(mu, la, ch))


def locus_sweep(ns, es):
    """Criterion 13 for every partition of every n in ns: the closed-form
    locus U(la) against the positivity oracle at c = a/e, reduced into
    (-1/2, 1/2], for every e in es and every a coprime to e."""
    from fractions import Fraction

    from .multipartitions import partitions_of
    from .unitary_loci import oracle_locus_verdict, unitary_locus

    for n in ns:
        for la in partitions_of(n):
            locus = unitary_locus(la)
            for e in es:
                for a in range(1, e):
                    if gcd(a, e) == 1:
                        c = Fraction(a if 2 * a <= e else a - e, e)
                        yield Record("locus=oracle", _case(la=la, e=e, a=a),
                                     locus.contains(c) == oracle_locus_verdict(la, a, e))


# Each suite's generator and its profiles; a profile is (args, {check:
# floor}).  A floor is the number of cases the check covers at the profile's
# ranges, so that a sweep that stops checking fails instead of passing
# vacuously.  `klr` under `verify` takes every sorted charge in [0, e)^ell,
# not only those with s_1 = 0.
SUITES = {
    "classification": (classification_sweep, {
        "verify": ((range(2, 5), (1, 2), 6),
                   {"no_stuttering=cali": 1341, "reachable=flotw": 1341,
                    "e_tilde_keeps_cali": 245}),
        "gate": ((range(2, 7), (1, 2, 3), 8),
                 {"no_stuttering=cali": 99985, "reachable=flotw": 99985,
                  "e_tilde_keeps_cali": 7447}),
    }),
    "seminormal": (seminormal_sweep, {
        "verify": ((range(2, 6), range(1, 5)),
                   {"hecke_relations": 526, "form_invariance": 526,
                    "definite_a=1": 172, "definite_a>1": 354}),
        "gate": ((range(2, 7), range(1, 6)),
                 {"hecke_relations": 1358, "form_invariance": 1358,
                  "definite_a=1": 539, "definite_a>1": 819}),
    }),
    "klr": (alcove_sweep, {
        "verify": ((range(3, 6), (1, 2), 5, False),
                   {"fundamental=cali": 1207, "euler": 993, "convention_1": 993,
                    "convention_2": 993, "signs_feasible": 993, "klr_relations": 993}),
        "gate": ((range(2, 7), (1, 2), 8),
                 {"fundamental=cali": 2757, "euler": 1464, "convention_1": 1464,
                  "convention_2": 1464, "signs_feasible": 1464, "klr_relations": 1429}),
    }),
    "locus": (locus_sweep, {
        "verify": ((range(1, 8), range(2, 11)), {"locus=oracle": 1364}),
        "gate": ((range(1, 9), range(2, 13)), {"locus=oracle": 2970}),
    }),
    "degree": (degree_sweep, {
        "gate": ((range(2, 7), (1, 2), 3, 6), {"degree": 26131}),
    }),
    "dominance": (dominance_sweep, {
        "gate": (((2, 3, 4), (1, 2, 3), 6), {"dominance": 1265028}),
    }),
}


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


def problems(tallies, floors):
    """{check: why it fails, or None} for every check in tallies or floors.
    A check must reach its floor with no case skipped; a universal check
    must never fail, an existential one somewhere; a check with records but
    no floor fails."""
    return {check: _problem(check, tallies.get(check, Tally(0, 0, 0, None)), floors.get(check))
            for check in sorted(tallies.keys() | floors.keys())}


def _problem(check, t, floor):
    if floor is None:
        return f"{check}: {t.checked} cases checked, but no floor"
    if check not in EXISTENTIAL and t.first_failure is not None:
        return f"first failing record {t.first_failure}"
    if t.checked < floor or t.skipped:
        return f"{check}: {t.checked} cases checked (floor {floor}), {t.skipped} skipped"
    if check in EXISTENTIAL and not t.failed:
        return f"{check} holds on all {t.checked} cases"
    return None


def run_suite(name, profile):
    """problems() of suite name's sweep at one of its profiles."""
    sweep, profiles = SUITES[name]
    args, floors = profiles[profile]
    return problems(tally(sweep(*args)), floors)
