"""The three workloads: the cases each one runs, built from a seed, how one
case runs, and the output it is checked on.

The seed fixes the case order and, in ``cli_session``, which queries are
drawn.  The program receives only the generated inputs.  Program calls go
through module attributes (``sn.seminormal_module``) so that the tracer's
wrappers see them.
"""

import hashlib
import itertools
import json
import random
import shlex
import subprocess
import sys
from collections import namedtuple
from math import gcd

from calihecke import alcoves, bgg
from calihecke import multipartitions as mpm
from calihecke import seminormal as sn

Case = namedtuple("Case", "key params")


def digest(obj):
    """Digest of a case's canonical output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- seminormal_sweep ---------------------------------------------------------
# Criterion 4-6 domain, every calibrated weight class x every coprime a, for
# e in 2..6 and n in 1..3: n = 4 alone takes about 25 s, longer than a run.

SEMINORMAL_E = range(2, 7)
SEMINORMAL_N = range(1, 4)


def seminormal_cases():
    cases = []
    for e in SEMINORMAL_E:
        coprime = [a for a in range(1, e) if gcd(a, e) == 1]
        for n in SEMINORMAL_N:
            for cls in sn.enumerate_calibrated_classes(n, e):
                for a in coprime:
                    key = f"e={e} a={a} w={','.join(map(str, cls[0]))}"
                    cases.append(Case(key, (tuple(cls), e, a)))
    return cases


def run_seminormal(params):
    cls, e, a = params
    mod = sn.seminormal_module(list(cls), e, a)
    relations = sn.verify_hecke_relations(mod)
    invariance = sn.verify_form_invariance(mod)
    signs = sn.class_form_signs(list(cls), e, a)
    return {"dim": mod.dim(), "relations": relations, "invariance": invariance,
            "signs": [signs[w] for w in cls]}


# -- bgg_sweep ----------------------------------------------------------------
# Criterion 9-12 domain: every fundamental-alcove label for e in 2..6, levels
# 1-2, charges with s_1 = 0, n in 0..6.  The cost grows about threefold per
# n, so n = 6 dominates; n = 7 alone takes 6-9 s, too long for several
# passes in a run.

BGG_E = range(2, 7)
BGG_LEVELS = (1, 2)
BGG_N = range(0, 7)


def bgg_cases():
    cases = []
    for e in BGG_E:
        for ell in BGG_LEVELS:
            for rest in itertools.combinations_with_replacement(range(e), ell - 1):
                ch = mpm.Charge((0,) + rest, e)
                for n in BGG_N:
                    for la in mpm.multipartitions_of(n, ell):
                        hb = mpm.heights(la)
                        if sum(hb) >= e or not mpm.is_s_admissible(hb, ch):
                            continue
                        try:
                            if not alcoves.in_fundamental_alcove(la, ch, hb):
                                continue
                        except ValueError:
                            continue  # origin on a wall: frame outside the claim
                        key = (f"e={e} s={','.join(map(str, ch.s))} "
                               f"la={json.dumps(la, separators=(',', ':'))}")
                        cases.append(Case(key, (la, ch, hb)))
    return cases


def run_bgg(params):
    la, ch, hb = params
    euler = bgg.euler_check(la, ch, hb)
    conventions = bgg.graded_character_identity(la, ch, hb)
    poset = bgg.block_poset(la, ch, hb)
    edges = bgg.covers(poset)
    signs = bgg.sign_assignment(poset, edges)
    out = {
        "euler": euler,
        "convention": {str(c): ok for c, ok in conventions.items()},
        "nodes": [[mp, poset.lengths[mp]] for mp in poset.nodes],
        "signs": None if signs is None else [signs[edge] for edge in edges],
    }
    if ch.e > 2:
        mod = bgg.build_klr_module(la, ch, hb)
        out["klr"] = {"dim": mod.dim(), "relations": bgg.verify_klr_relations(mod)}
    return out


# -- cli_session --------------------------------------------------------------
# Each kind is a list of tiers; the seed draws one query from every tier.
# The queries of a tier cost the same within about 5 % of CPU time, so the
# seed changes which queries run but hardly the session's total work.

CLI_POOLS = {
    # crystal BFS, Cali/FLOTW tests, alcove data: n 10-12, levels 2-3
    "classify": [
        [["classify", "--e", "4", "--charge", "0,1", "--n", "11"],
         ["classify", "--e", "5", "--charge", "0,2", "--n", "10"],
         ["classify", "--e", "4", "--charge", "0,2", "--n", "10"]],
        [["classify", "--e", "4", "--charge", "0,1", "--n", "12"],
         ["classify", "--e", "4", "--charge", "0,2", "--n", "12"]],
        [["classify", "--e", "3", "--charge", "0,1,2", "--n", "11"],
         ["classify", "--e", "4", "--charge", "0,1,2", "--n", "10"],
         ["classify", "--e", "5", "--charge", "0,1,2", "--n", "10"]],
    ],
    # seminormal modules from a partition at large e, dimension 14: the
    # dense invariance check is quadratic in the dimension.  Dimensions
    # 20-35 take 3-7 s a query, which would leave too few sessions in a run;
    # at e = 12 the same modules cost 10 % more than at e = 10.
    "seminormal": [
        [["seminormal", "--e", "10", "--partition", "4,3"],
         ["seminormal", "--e", "10", "--partition", "5,2"]],
    ],
    # small fundamental-alcove labels
    "bgg": [
        [["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1,1],[2]]"],
         ["bgg", "--e", "5", "--charge", "0,2", "--multipartition", "[[2,1],[1]]"],
         ["bgg", "--e", "6", "--charge", "0,3", "--multipartition", "[[3,1],[2]]"],
         ["bgg", "--e", "3", "--charge", "0", "--multipartition", "[[2]]"],
         ["bgg", "--e", "6", "--charge", "0", "--multipartition", "[[4,2]]"],
         ["bgg", "--e", "5", "--charge", "0,2", "--multipartition", "[[2],[1]]"]],
    ] * 3,
    # the closed-form level-1 unitary locus
    "locus": [
        [["locus", "--partition", "3,2"],
         ["locus", "--partition", "4,4,2,1"],
         ["locus", "--partition", "1,1,1"],
         ["locus", "--partition", "5"],
         ["locus", "--partition", "3,3,3"],
         ["locus", "--partition", "4,2,1"],
         ["locus", "--partition", "6,1"],
         ["locus", "--partition", "2,2,1,1"]],
    ] * 3,
    # the built-in sweeps at the default --jobs 1
    "verify": [
        [["verify", "classification"]],
        [["verify", "locus"]],
    ],
}

# The same malformed commands in every seed.  Their contract is exit 2 with
# a JSON ``error`` on stderr.
CLI_MALFORMED = [
    ["classify", "--e", "3", "--charge", "0", "--n", "-1"],
    ["bgg", "--e", "4", "--charge", "0,0", "--multipartition", "[[1],[1]]"],
    ["classify", "--e", "3", "--charge", "0,5", "--n", "3"],
    ["classify", "--charge", "0,1", "--n", "4"],
    ["classify", "--e", "x", "--charge", "0", "--n", "3"],
    ["seminormal", "--e", "5", "--partition", "3,x"],
    ["seminormal", "--e", "6", "--a", "2", "--weight", "0,1"],
    ["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1],"],
    ["locus"],
    ["verify", "nosuch"],
]

# Malformed commands that break the contract at the time of writing: a
# wrapped-around layer index (exit 0), a ValueError traceback (exit 1), and
# argparse's usage text without a JSON error.  They count as failed on
# every pass; any other failure makes a run incorrect.
KNOWN_BREAKS = {
    "classify --e 3 --charge 0 --n -1",
    "bgg --e 4 --charge 0,0 --multipartition '[[1],[1]]'",
    "classify --e x --charge 0 --n 3",
}


def cli_key(argv):
    return shlex.join(argv)


def cli_pool_cases():
    """Every query any seed can draw, and every malformed command."""
    seen = {}
    for tiers in CLI_POOLS.values():
        for tier in tiers:
            for argv in tier:
                seen[cli_key(argv)] = Case(cli_key(argv), ("query", tuple(argv)))
    for argv in CLI_MALFORMED:
        seen[cli_key(argv)] = Case(cli_key(argv), ("malformed", tuple(argv)))
    return list(seen.values())


def cli_cases(rng):
    cases = []
    for tiers in CLI_POOLS.values():
        chosen = set()
        for tier in tiers:
            argv = rng.choice([q for q in tier if cli_key(q) not in chosen])
            chosen.add(cli_key(argv))
            cases.append(Case(cli_key(argv), ("query", tuple(argv))))
    cases += [Case(cli_key(argv), ("malformed", tuple(argv))) for argv in CLI_MALFORMED]
    return cases


def cli_outcome(kind, returncode, stdout, stderr):
    """(canonical output, contract kept).  The contract: exit 0, 1 or 2,
    never a traceback, and exit 2 only with a JSON ``error`` on stderr."""
    error = None
    if returncode == 2:
        try:
            error = json.loads(stderr.decode().strip().splitlines()[-1]).get("error")
        except (ValueError, IndexError, AttributeError):
            error = None
    contract = (returncode in (0, 1, 2) and b"Traceback" not in stderr
                and (returncode != 2 or error is not None))
    out = {"exit": returncode, "stdout": hashlib.sha256(stdout).hexdigest()}
    if kind == "malformed":
        out["error"] = error is not None
    return out, contract


# A malformed command's reference is its contract, whatever the program does.
MALFORMED_REFERENCE = {"exit": 2, "stdout": hashlib.sha256(b"").hexdigest(), "error": True}


def run_cli(params, shim, env, cwd, timeout=120):
    """Run one query as its own process; returns (output, contract kept,
    stdout bytes)."""
    kind, argv = params
    proc = subprocess.run([sys.executable, shim, *argv], capture_output=True,
                          env=env, cwd=cwd, timeout=timeout)
    out, contract = cli_outcome(kind, proc.returncode, proc.stdout, proc.stderr)
    return out, contract, len(proc.stdout)


# -- case lists ---------------------------------------------------------------


def build_cases(workload, seed):
    rng = random.Random(seed)
    if workload == "seminormal_sweep":
        cases = seminormal_cases()
    elif workload == "bgg_sweep":
        cases = bgg_cases()
    elif workload == "cli_session":
        cases = cli_cases(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
