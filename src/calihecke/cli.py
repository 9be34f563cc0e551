"""Command-line front end.

Subcommands: classify, seminormal, bgg, locus, verify.  Output is JSON by
default (``--format tsv`` for tab-separated tables); rationals are emitted
as "p/q" strings and all listings are stably sorted, so output is
deterministic.  Exit codes: 0 success, 1 verification failure, 2 usage
error.
"""

import argparse
import json
import os
import re
import sys
from math import gcd

from .multipartitions import (
    count_standard_tableaux,
    heights,
    is_cylindrical_charge,
    is_multipartition,
    is_partition,
    is_s_admissible,
    make_charge,
)

# Each command imports the layers it runs after the checks that need none
# of them, so a command loads only its own layers and a malformed one none.
# `verify` reads its suite names from the table in `sweeps`, which loads no
# layer until a sweep runs.


def _fmt_rational(c):
    return f"{c.numerator}/{c.denominator}"


def _die_usage(code, message):
    json.dump({"error": code, "message": message}, sys.stderr)
    sys.stderr.write("\n")
    sys.exit(2)


def _parse_ints(text, code, what):
    """Comma-separated -?[0-9]+ tokens as a tuple; anything else (int()
    would also take underscores, padding and a plus sign) exits with code."""
    if not re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        _die_usage(code, f"{what} must be comma-separated integers")
    return tuple(int(x) for x in text.split(","))


def _parse_charge(args, required=True):
    if args.charge is None:
        if required:
            _die_usage("MISSING_CHARGE", "--charge is required")
        return None
    s = _parse_ints(args.charge, "BAD_CHARGE", "charge")
    try:
        ch = make_charge(s, args.e, args.a)
    except ValueError as ex:
        _die_usage("BAD_PARAMETERS", str(ex))
    if not is_cylindrical_charge(ch):
        _die_usage("CHARGE_NOT_CYLINDRICAL",
                   "need s_1 <= ... <= s_ell < s_1 + e")
    return ch


def _parse_multipartition(args):
    if args.multipartition is None:
        return None
    try:
        raw = json.loads(args.multipartition)
    except ValueError:
        raw = None
    # JSON integers only: int() would round 1.5 and accept true or "1"
    if not (isinstance(raw, list) and all(
            isinstance(comp, list) and all(type(x) is int for x in comp) for comp in raw)):
        _die_usage("BAD_MULTIPARTITION",
                   "--multipartition must be a JSON array of arrays of integers")
    mp = tuple(tuple(comp) for comp in raw)
    if not is_multipartition(mp):
        _die_usage("BAD_MULTIPARTITION", "components must be partitions")
    return mp


def _parse_partition(args):
    if args.partition is None:
        return None
    la = _parse_ints(args.partition, "BAD_PARTITION", "partition")
    if not is_partition(la):
        _die_usage("BAD_PARTITION", "need a nonempty weakly decreasing tuple")
    return la


def _emit(payload, fmt, table_key=None, columns=None):
    try:
        if fmt == "json":
            # one string from the C encoder: json.dump streams through the
            # pure-Python one
            sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        else:
            rows = payload[table_key] if table_key else [payload]
            if columns is None:
                columns = sorted(rows[0]) if rows else []
            sys.stdout.write("\t".join(columns) + "\n")
            for row in rows:
                sys.stdout.write("\t".join(json.dumps(row[c], sort_keys=True)
                                           if not isinstance(row[c], str) else row[c]
                                           for c in columns) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point stdout at devnull so the
        # flush at exit cannot fail again, and exit with the command's verdict
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def cmd_classify(args):
    ch = _parse_charge(args)
    if args.n is None:
        _die_usage("MISSING_N", "--n is required for classify")
    if args.n < 0:
        _die_usage("BAD_PARAMETERS", "need n >= 0")
    from .alcoves import count_fundamental_paths, in_fundamental_alcove, length
    from .calibration import is_cali, is_flotw
    from .crystal import reachable_by_size

    rows = []
    for mp in sorted(reachable_by_size(args.n, ch)[args.n]):
        hb = heights(mp)
        geom_ok = (sum(hb) < ch.e and is_s_admissible(hb, ch))
        alen = paths = None
        if geom_ok:
            try:
                alen = length(mp, ch, hb)
                if in_fundamental_alcove(mp, ch, hb):
                    paths = count_fundamental_paths(mp, ch, hb)
            except ValueError:
                alen = None
        rows.append({
            "multipartition": [list(c) for c in mp],
            "flotw": is_flotw(mp, ch),
            "cali": is_cali(mp, ch),
            "alcove_length": alen,
            "standard_tableaux": count_standard_tableaux(mp),
            "fundamental_paths": paths,
        })
    _emit({"rows": rows}, args.format, "rows",
          ["multipartition", "flotw", "cali", "alcove_length",
           "standard_tableaux", "fundamental_paths"])
    return 0


def cmd_seminormal(args):
    if args.weight is not None:
        m = _parse_ints(args.weight, "BAD_WEIGHT", "weight")
    else:
        la = _parse_partition(args)
        if la is None:
            _die_usage("MISSING_INPUT", "need --weight or --partition")
        from .unitary_loci import column_reading_weight

        m = column_reading_weight(la, args.e)
    if gcd(args.a, args.e) != 1:
        _die_usage("BAD_PARAMETERS", "need gcd(a, e) = 1")
    from .seminormal import (
        class_form_signs,
        cyclotomic_membership,
        is_calibrated_weight,
        seminormal_module,
        verify_form_invariance,
        verify_hecke_relations,
        weight_class,
    )

    if not is_calibrated_weight(m, args.e):
        _die_usage("NOT_CALIBRATED", "weight is not calibrated")
    cls = weight_class(m, args.e)
    try:
        mod = seminormal_module(cls, args.e, args.a)
    except (OverflowError, MemoryError):
        # Phi_e is built as a list of e + 1 coefficients
        _die_usage("BAD_PARAMETERS", "e is too large for exact arithmetic in Q(zeta_e)")
    relations = verify_hecke_relations(mod)
    invariance = verify_form_invariance(mod)
    signs = class_form_signs(cls, args.e, args.a)
    report = {
        "dimension": mod.dim(),
        "weights": [list(w) for w in cls],
        "signs": [signs[w] for w in cls],
        "unitary": all(v == 1 for v in signs.values()),
        "relations_pass": all(relations.values()),
        "invariance_pass": all(invariance.values()),
    }
    ch = _parse_charge(args, required=False)
    if ch is not None:
        report["cyclotomic_member"] = cyclotomic_membership(mod, ch)
    _emit(report, args.format)
    return 0 if report["relations_pass"] and report["invariance_pass"] else 1


def cmd_bgg(args):
    ch = _parse_charge(args)
    la = _parse_multipartition(args)
    if la is None:
        _die_usage("MISSING_INPUT", "need --multipartition")
    if len(la) != ch.level:
        _die_usage("BAD_MULTIPARTITION", "level must match the charge")
    hb = heights(la)
    if sum(hb) >= ch.e:
        _die_usage("BAD_PARAMETERS", "need e > total height")
    from . import bgg as bggmod
    from .alcoves import in_fundamental_alcove

    try:
        fundamental = in_fundamental_alcove(la, ch, hb)
    except ValueError as ex:
        _die_usage("ORIGIN_ON_WALL", str(ex))
    if not fundamental:
        _die_usage("NOT_FUNDAMENTAL", "label not in the fundamental alcove")
    poset = bggmod.block_poset(la, ch, hb, cross_validate=True)
    edges = bggmod.covers(poset)
    diamonds, strands = bggmod.diamonds_and_strands(poset, edges)
    signs = bggmod.sign_assignment(poset, edges)
    euler = bggmod.euler_check(la, ch, hb)
    conventions = bggmod.graded_character_identity(la, ch, hb)
    report = {
        "nodes": [{"multipartition": [list(c) for c in mp],
                   "length": poset.lengths[mp]} for mp in poset.nodes],
        "edges": len(edges),
        "diamonds": len(diamonds),
        "strands": len(strands),
        "signs_feasible": signs is not None,
        "euler": euler,
        "convention": {str(k): v for k, v in conventions.items()},
    }
    if ch.e > 2:
        klr = bggmod.verify_klr_relations(bggmod.build_klr_module(la, ch, hb))
        report["klr_pass"] = all(klr.values())
    _emit(report, args.format)
    ok = euler["ok"] and signs is not None and report.get("klr_pass", True)
    return 0 if ok else 1


def cmd_locus(args):
    la = _parse_partition(args)
    if la is None:
        _die_usage("MISSING_INPUT", "need --partition")
    from .unitary_loci import unitary_locus

    loc = unitary_locus(la)
    report = {
        "full": loc.full,
        "exclusions": [_fmt_rational(c) for c in loc.exclusions],
        "interval": ([_fmt_rational(-loc.radius), _fmt_rational(loc.radius)]
                     if loc.radius is not None else None),
        "points": [_fmt_rational(c) for c in loc.points],
    }
    _emit(report, args.format)
    return 0


def cmd_verify(args):
    from . import sweeps

    suites = sorted(name for name, (_, profiles) in sweeps.SUITES.items()
                    if "verify" in profiles)
    selected = suites if args.suite == "all" else [args.suite]
    if any(s not in suites for s in selected):
        _die_usage("BAD_SUITE", f"unknown suite; choose from {suites} or all")
    report = {name: not any(sweeps.run_suite(name, "verify").values()) for name in selected}
    _emit(report, args.format)
    return 0 if all(report.values()) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports bad arguments as a JSON error."""

    def error(self, message):
        _die_usage("BAD_ARGUMENTS", f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(prog="calihecke")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--e", type=int, default=None)
        p.add_argument("--a", type=int, default=1)
        p.add_argument("--charge", type=str, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--partition", type=str, default=None)
        p.add_argument("--multipartition", type=str, default=None)
        p.add_argument("--weight", type=str, default=None)
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    for name in ("classify", "seminormal", "bgg", "locus"):
        common(sub.add_parser(name))
    verify = sub.add_parser("verify")
    verify.add_argument("suite", nargs="?", default="all")
    common(verify)

    args = parser.parse_args(argv)
    needs_e = args.command in ("classify", "seminormal", "bgg")
    if needs_e and args.e is None:
        _die_usage("MISSING_E", "--e is required")
    if args.e is not None and args.e < 2:
        _die_usage("BAD_PARAMETERS", "need e >= 2")
    handlers = {
        "classify": cmd_classify,
        "seminormal": cmd_seminormal,
        "bgg": cmd_bgg,
        "locus": cmd_locus,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
