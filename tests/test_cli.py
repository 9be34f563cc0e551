import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from calihecke import cli
from calihecke.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as ex:
        code = ex.code
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_json(capsys):
    code, out, err = run(capsys, "classify", "--e", "3", "--charge", "0,1", "--n", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) > 0
    for row in rows:
        assert set(row) == {"multipartition", "flotw", "cali", "alcove_length",
                            "standard_tableaux", "fundamental_paths"}
        assert row["flotw"] is True
    # deterministic output
    code2, out2, _ = run(capsys, "classify", "--e", "3", "--charge", "0,1", "--n", "2")
    assert out2 == out


def test_classify_tsv(capsys):
    code, out, _ = run(capsys, "classify", "--e", "3", "--charge", "0", "--n", "3")
    json_rows = json.loads(out)["rows"]
    code, out, _ = run(capsys, "classify", "--e", "3", "--charge", "0", "--n", "3",
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[0] == "multipartition"
    assert len(lines) == 1 + len(json_rows)


def test_charge_not_cylindrical(capsys):
    code, out, err = run(capsys, "classify", "--e", "3", "--charge", "1,0", "--n", "2")
    assert code == 2
    assert json.loads(err)["error"] == "CHARGE_NOT_CYLINDRICAL"
    code, _, err = run(capsys, "classify", "--e", "3", "--charge", "0,4", "--n", "2")
    assert code == 2
    assert json.loads(err)["error"] == "CHARGE_NOT_CYLINDRICAL"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--charge", "0", "--n", "2")
    assert code == 2 and json.loads(err)["error"] == "MISSING_E"
    code, _, err = run(capsys, "classify", "--e", "1", "--charge", "0", "--n", "2")
    assert code == 2 and json.loads(err)["error"] == "BAD_PARAMETERS"
    code, _, err = run(capsys, "classify", "--e", "3", "--charge", "0")
    assert code == 2 and json.loads(err)["error"] == "MISSING_N"
    code, _, err = run(capsys, "classify", "--e", "3", "--charge", "x", "--n", "1")
    assert code == 2 and json.loads(err)["error"] == "BAD_CHARGE"


def test_seminormal_by_weight(capsys):
    code, out, _ = run(capsys, "seminormal", "--e", "4", "--weight", "0,2")
    assert code == 0
    rep = json.loads(out)
    assert rep["dimension"] == 2
    assert rep["weights"] == [[0, 2], [2, 0]]
    assert rep["unitary"] is True
    assert rep["relations_pass"] and rep["invariance_pass"]


def test_seminormal_by_partition_with_membership(capsys):
    code, out, _ = run(capsys, "seminormal", "--e", "4", "--partition", "2,1",
                       "--charge", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["cyclotomic_member"] is True


def test_seminormal_nonunitary(capsys):
    code, out, _ = run(capsys, "seminormal", "--e", "5", "--a", "2",
                       "--partition", "2,1")
    assert code == 0  # relations still hold; only the form is indefinite
    assert json.loads(out)["unitary"] is False


def test_seminormal_rejects_uncalibrated(capsys):
    code, _, err = run(capsys, "seminormal", "--e", "2", "--partition", "2,1")
    assert code == 2
    assert json.loads(err)["error"] == "NOT_CALIBRATED"


def test_bgg_report(capsys):
    code, out, _ = run(capsys, "bgg", "--e", "4", "--charge", "0,1",
                       "--multipartition", "[[1,1],[2]]")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["nodes"]) == 5
    assert rep["diamonds"] == 1 and rep["strands"] == 1
    assert rep["signs_feasible"] and rep["euler"]["ok"]
    assert rep["convention"] == {"1": True, "2": False}
    assert rep["klr_pass"] is True


def test_bgg_rejects_non_fundamental(capsys):
    code, _, err = run(capsys, "bgg", "--e", "3", "--charge", "0",
                       "--multipartition", "[[4,1]]")
    assert code == 2
    assert json.loads(err)["error"] == "NOT_FUNDAMENTAL"


def test_bgg_rejects_non_integer_entries(capsys):
    for value in ("[[1.5]]", "[[1.0]]", "[[true]]", '[["1"]]'):
        code, out, err = run(capsys, "bgg", "--e", "3", "--charge", "0",
                             "--multipartition", value)
        assert code == 2 and out == "", value
        assert json.loads(err)["error"] == "BAD_MULTIPARTITION"


# int() accepts underscores, padding and a plus sign; the integer-list flags
# take only comma-separated -?[0-9]+ tokens
@pytest.mark.parametrize("argv, code", [
    (["classify", "--e", "3", "--n", "1", "--charge"], "BAD_CHARGE"),
    (["locus", "--partition"], "BAD_PARTITION"),
    (["seminormal", "--e", "5", "--weight"], "BAD_WEIGHT"),
])
def test_integer_lists_are_strict(capsys, argv, code):
    for value in ("1_0", " 0, 1", "+1", "1,0 ", "0,\u0661"):
        rc, out, err = run(capsys, *argv, value)
        assert rc == 2 and out == "", value
        assert json.loads(err)["error"] == code, value


def test_a_leading_negative_token_is_a_value(capsys):
    # argparse takes a token such as -1,0 for an option: after a space, the
    # value must read as it does after "="
    for argv, joined in (
            (["classify", "--e", "4", "--charge", "-1,0", "--n", "2"],
             ["classify", "--e", "4", "--charge=-1,0", "--n", "2"]),
            (["seminormal", "--e", "3", "--weight", "-1,1"],
             ["seminormal", "--e", "3", "--weight=-1,1"]),
            (["seminormal", "--e", "5", "--a", "2", "--weight", "-1,1", "--charge", "-1"],
             ["seminormal", "--e", "5", "--a", "2", "--weight=-1,1", "--charge=-1"])):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == "", argv
        assert run(capsys, *joined) == (code, out, err), joined
    # a flag followed by another flag still has no value
    code, out, err = run(capsys, "seminormal", "--e", "3", "--weight", "--charge", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_ARGUMENTS"


def test_locus_report(capsys):
    code, out, _ = run(capsys, "locus", "--partition", "2,1")
    assert code == 0
    rep = json.loads(out)
    assert rep == {"full": False, "exclusions": [],
                   "interval": ["-1/3", "1/3"], "points": []}
    code, out, _ = run(capsys, "locus", "--partition", "3,2")
    assert json.loads(out)["points"] == ["-1/3", "1/3"]


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "classification")
    assert code == 0
    assert json.loads(out) == {"classification": True}


def test_verify_bad_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "BAD_SUITE"


def test_negative_n_rejected(capsys):
    code, out, err = run(capsys, "classify", "--e", "3", "--charge", "0", "--n", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BAD_PARAMETERS"


def test_origin_on_wall_rejected(capsys):
    code, out, err = run(capsys, "bgg", "--e", "4", "--charge", "0,0",
                         "--multipartition", "[[1],[1]]")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ORIGIN_ON_WALL"


def test_every_label_of_an_on_wall_frame_gives_one_error(capsys):
    # one frame, hbar = (1, 2), whose origin lies on a wall: the error must
    # not depend on which root the label leaves the alcove by
    for la in ("[[2],[1,1]]", "[[1],[1,1]]"):
        code, out, err = run(capsys, "bgg", "--e", "4", "--charge", "0,1",
                             "--multipartition", la)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ORIGIN_ON_WALL", la


def test_argparse_errors_are_json(capsys):
    for argv in (["classify", "--e", "x", "--charge", "0", "--n", "3"],
                 ["nosuch"], [], ["locus", "--format", "xml"],
                 ["verify", "locus", "--jobs", "2"],
                 # a flag of another command: each command declares only
                 # the options it reads
                 ["locus", "--partition", "3,2", "--e", "7", "--charge", "0,1"],
                 ["locus", "--partition", "3,2", "--e", "1"],
                 ["classify", "--e", "3", "--charge", "0", "--n", "2", "--a", "2"],
                 ["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1,1],[2]]",
                  "--a", "3"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "BAD_ARGUMENTS"


def test_huge_e_is_a_usage_error(capsys):
    # Phi_e would be a list of e + 1 coefficients: more than an index can
    # address, or more memory than a process can ask for
    for e in ("99999999999999999999", str(2 ** 62)):
        for flag, value in (("--weight", "0,1"), ("--partition", "2,1")):
            code, out, err = run(capsys, "seminormal", "--e", e, flag, value)
            assert code == 2 and out == "", (e, flag)
            assert json.loads(err)["error"] == "BAD_PARAMETERS", (e, flag)
            assert "Traceback" not in err


# Exit code and sha256 of stdout for every query the benchmark's CLI session
# can draw (perfbench/workloads.py CLI_POOLS) and for each verify suite.  A
# change that keeps the CLI's output keeps these; one that changes the
# output on purpose records new digests.
PINNED_STDOUT = [
    (["classify", "--e", "4", "--charge", "0,1", "--n", "11"], 0,
     "02610b9f4f853b63e5eefb1d80a28f041050f89c48cf51eb8d87eb56966e690e"),
    (["classify", "--e", "5", "--charge", "0,2", "--n", "10"], 0,
     "8b9b8957f60ed4e0925e7d8580f217492e706dc458d06ebf10d7cec73581980a"),
    (["classify", "--e", "4", "--charge", "0,2", "--n", "10"], 0,
     "de99e2b6affb36bdd9d3ede10c387c3face043c1ff5de0b71b601e440a358317"),
    (["classify", "--e", "4", "--charge", "0,1", "--n", "12"], 0,
     "c2adfd75ac598ec401091bd07263499eb0f6e1023d0395a0cdb4e8bf118d80f4"),
    (["classify", "--e", "4", "--charge", "0,2", "--n", "12"], 0,
     "2ec93a65ebd0704dd76ec593142014b864d78612efe67c8af0acff5855c89b09"),
    (["classify", "--e", "3", "--charge", "0,1,2", "--n", "11"], 0,
     "e26dba4b381dfd0f35f68dc7991abfbeebb98cbaf79188143db55ba7558595ea"),
    (["classify", "--e", "4", "--charge", "0,1,2", "--n", "10"], 0,
     "39eb62b59c308a83afc5b9ba21b14306b88f107e2d2cd05e764bd7c1de88045e"),
    (["classify", "--e", "5", "--charge", "0,1,2", "--n", "10"], 0,
     "c0235175c74c85746fc80926372ab49c828686ff24a12fad93f66927be8f6920"),
    (["seminormal", "--e", "10", "--partition", "4,3"], 0,
     "911103da7c93ad82835fe7f70a6092f708a7fbc55e49c4e57e640acc20aca150"),
    (["seminormal", "--e", "10", "--partition", "5,2"], 0,
     "46f482bb805904197a44e439ed7a2eb60e967298669766aae5a3f9a3c3c7661d"),
    (["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1,1],[2]]"], 0,
     "a12f24abdde018ec76f541838a998ee689b7154a107dfbbe91c52a61cdd611f8"),
    (["bgg", "--e", "5", "--charge", "0,2", "--multipartition", "[[2,1],[1]]"], 0,
     "5e47ec2553331ec53770185475c0a8663688a661045a488f249d5c9bfce28704"),
    (["bgg", "--e", "6", "--charge", "0,3", "--multipartition", "[[3,1],[2]]"], 0,
     "871a6a5c97997fad701cb28bcd5afa53dbc9e22d7ba5a7b4177f60c4fe71b04c"),
    (["bgg", "--e", "3", "--charge", "0", "--multipartition", "[[2]]"], 0,
     "c9d5d8c69f8535999d0313b9f87a1190f1615914a421071dadd463350d9d3917"),
    (["bgg", "--e", "6", "--charge", "0", "--multipartition", "[[4,2]]"], 0,
     "62f836c2fb0cd474d49d81a67e5d5341699f3136715572391becc8bbf4e193a2"),
    (["bgg", "--e", "5", "--charge", "0,2", "--multipartition", "[[2],[1]]"], 0,
     "71e2936e3226e8ef8474b2df02853f8c2b69a5673378d570ea4bf6ccccd6d450"),
    (["locus", "--partition", "3,2"], 0,
     "0af883cb898635986e0021e5dcecbe27d6f5dba57658e86eb5082010d80eb86f"),
    (["locus", "--partition", "4,4,2,1"], 0,
     "d9fead565bd62b91f7515b1045a72db66a73a02fe4ae86803319714cdb791a00"),
    (["locus", "--partition", "1,1,1"], 0,
     "b78e02f4f70289e6f66aded920e91be19ab251b81acda3d3c07e7761f5248f83"),
    (["locus", "--partition", "5"], 0,
     "86c35d3e20b910f005455a8d48274e8fb47e2ce3d08170f1cb013a6496e7d007"),
    (["locus", "--partition", "3,3,3"], 0,
     "d29f1d5443e6c1b529fbf3c4dc7a3a6052be9084326614c4907008bd0239a8b6"),
    (["locus", "--partition", "4,2,1"], 0,
     "ecdababe6680f9e736f9cf77056d69354ded0f4c957750e2c62da948fd4a416a"),
    (["locus", "--partition", "6,1"], 0,
     "d9fead565bd62b91f7515b1045a72db66a73a02fe4ae86803319714cdb791a00"),
    (["locus", "--partition", "2,2,1,1"], 0,
     "9ccf00e8e1bc7257a111b7c5d4ec8eb61ced1c67faa781f8c8803cd1f86692a2"),
    (["verify", "classification"], 0,
     "1703fa9003f2fdd01148525ffc768f786bd7a831697c240d355c36a2e540dc03"),
    (["verify", "locus"], 0,
     "4fb33a731c4c833441b2236cf08c88a14e2b584ea118f518a920eabb01bd9ca3"),
    (["verify", "seminormal"], 0,
     "057e24c04cc857eecf2f8aea8ba64be23cb904707167b6a61d7237835fb188a8"),
    (["verify", "klr"], 0,
     "039bffe196bc83f7a285796d849655eab2508018f5d5380d3faaf995db15dbf8"),
]


def test_pinned_stdout():
    changed = []
    for argv, code, digest in PINNED_STDOUT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = main(list(argv))
        got_digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (got, got_digest) != (code, digest):
            changed.append((argv, got, got_digest))
    assert changed == []


# Each subcommand starts from a valid call (verify from an unknown suite, so
# that no sweep ever runs); one to three of its own flags are then set to
# malformed or borderline values, or dropped.  Every value is small enough
# that a valid combination runs in milliseconds.
VALID = {
    "classify": {"--e": "3", "--charge": "0,1", "--n": "2"},
    "seminormal": {"--e": "5", "--a": "2", "--partition": "2,1"},
    "bgg": {"--e": "4", "--charge": "0,1", "--multipartition": "[[1,1],[2]]"},
    "locus": {"--partition": "3,2"},
    "verify": {},
}
# malformed values first: hypothesis draws the head of a list more often
FLAG_VALUES = {
    "--e": ["x", "", "2.5", "-3", "0", "1", "2", "3", "5"],
    "--a": ["x", "0", "-1", "1", "2"],
    "--charge": ["x", "", ",", "0,,1", "1_0", " 1", "+1", "1,0", "0,4", "0,0", "-1", "0",
                 "0,1"],
    "--n": ["x", "", "-1", "0", "2"],
    "--partition": ["x", "", ",", "0", "1_0", " 1", "+1", "3,-1", "1,2", "1", "2,1"],
    "--multipartition": ["[[1e999]]", "[[1],", "", "3", "null", "{}", "[[\"a\"]]", "[[0]]",
                         "[[1.5]]", "[[1.0]]", "[[true]]", "[[\"1\"]]", "[[1,2]]", "[]",
                         "[[2,1]]", "[[1],[1]]", "[[1],[2]]"],
    "--weight": ["x", "", "1_0", " 1", "+1", "-1,3", "0,0", "0,1,2", "0,2"],
    "--format": ["xml", "", "json", "tsv"],
}
# the flags each subcommand declares
OWN_FLAGS = {
    "classify": ["--e", "--charge", "--n", "--format"],
    "seminormal": ["--e", "--a", "--charge", "--partition", "--weight", "--format"],
    "bgg": ["--e", "--charge", "--multipartition", "--format"],
    "locus": ["--partition", "--format"],
    "verify": ["--format"],
}
BAD_SUITES = ["nope", "", "LOCUS", "all,locus"]
STRAY = ["--bogus", "x", "--e"]


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    flags = dict(VALID[command])
    for flag in draw(st.lists(st.sampled_from(OWN_FLAGS[command]), min_size=1,
                              max_size=3, unique=True)):
        value = draw(st.sampled_from(FLAG_VALUES[flag] + [None]))
        if value is None:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(BAD_SUITES)))
    for flag, value in flags.items():
        argv += [flag, value]
    return argv + draw(st.lists(st.sampled_from(STRAY), max_size=1))


@settings(max_examples=500, deadline=None)
@given(malformed_argv())
def test_cli_contract_on_malformed_arguments(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as ex:
            code = ex.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error" in json.loads(err.getvalue().strip().splitlines()[-1]), argv


STDLIB_ONLY = """
import importlib, io, json, pkgutil, sys
from contextlib import redirect_stdout
import calihecke
from calihecke import cli
for info in pkgutil.iter_modules(calihecke.__path__):
    importlib.import_module("calihecke." + info.name)
with redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "classification"])
tops = {name.split(".")[0] for name in sys.modules} - {"__main__", "calihecke"}
print(json.dumps({"code": code, "foreign": sorted(tops - sys.stdlib_module_names)}))
"""


def test_package_loads_only_the_standard_library():
    # -S leaves site-packages off the path and site hooks (editable-install
    # finders, .pth imports) out of sys.modules: a third-party import fails,
    # and every module left was loaded by calihecke or by Python itself
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", STDLIB_ONLY], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "foreign": []}


def test_closed_stdout_exits_with_the_verdict():
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv in (["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1,1],[2]]"],
                 ["locus", "--partition", "3,2", "--format", "tsv"]):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, "-m", "calihecke.cli", *argv], stdout=w,
                                  stderr=subprocess.PIPE, text=True,
                                  env=dict(os.environ, PYTHONPATH=src), timeout=300)
        finally:
            os.close(w)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_huge_e_classify_returns_at_once():
    # f_tilde acts only at the residues of addable boxes, so the crystal
    # walk never loops over range(e)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "calihecke.cli", "classify", "--e",
                           "99999999999999999999", "--charge", "0", "--n", "2"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert [row["multipartition"] for row in rows] == [[[1, 1]], [[2]]]


# Each case runs in a fresh interpreter, so sys.modules holds only what the
# case itself loaded.  sys.argv[1] is JSON: null imports the package only,
# "__all__" lists the exported names that are not their home module's
# object, and a list runs that command.
LOADED = """
import contextlib, io, json, sys
import calihecke
argv = json.loads(sys.argv[1])
if argv is None:
    code = None
elif argv == "__all__":
    def at_home(name):
        obj = getattr(calihecke, name)
        return (obj.__module__.startswith("calihecke.")
                and getattr(sys.modules[obj.__module__], name) is obj)
    code = sorted(name for name in calihecke.__all__ if not at_home(name))
else:
    from calihecke import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as ex:
            code = ex.code
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "calihecke")}))
"""


def _loaded(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED, json.dumps(argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["code"], {m.removeprefix("calihecke.") for m in out["loaded"]} - {"calihecke"}


def test_import_calihecke_loads_no_submodule():
    assert _loaded(None) == (None, set())


def test_exports_are_their_home_objects():
    code, loaded = _loaded("__all__")
    assert code == []
    assert "cli" not in loaded and "sweeps" not in loaded


# The calihecke modules each README example and two `verify` suites load:
# a command imports only the layers it runs.
README_LOADS = [
    (["classify", "--e", "7", "--charge", "0,1,4", "--n", "11"],
     {"cli", "multipartitions", "crystal", "calibration", "alcoves"}),
    (["seminormal", "--e", "4", "--weight", "0,2"],
     {"cli", "multipartitions", "cyclotomics", "seminormal"}),
    (["seminormal", "--e", "5", "--a", "2", "--partition", "2,1"],
     {"cli", "multipartitions", "cyclotomics", "seminormal", "unitary_loci"}),
    (["bgg", "--e", "4", "--charge", "0,1", "--multipartition", "[[1,1],[2]]"],
     {"cli", "multipartitions", "alcoves", "bgg"}),
    (["locus", "--partition", "3,2"],
     {"cli", "multipartitions", "unitary_loci"}),
    (["verify", "classification"],
     {"cli", "multipartitions", "sweeps", "crystal", "calibration"}),
    (["verify", "locus"],
     {"cli", "multipartitions", "sweeps", "crystal", "cyclotomics", "seminormal",
      "unitary_loci"}),
]


@pytest.mark.parametrize("argv, modules", README_LOADS)
def test_command_loads_only_its_layers(argv, modules):
    assert _loaded(argv) == (0, modules)


def test_locus_and_bgg_load_no_exact_arithmetic():
    # the closed-form locus reads only the partition (its oracles import the
    # crystal and the seminormal layer when they run), and a BGG block is
    # integer combinatorics
    for argv in (["locus", "--partition", "4,4,2,1"], ["locus", "--partition", "1,1,1"]):
        code, loaded = _loaded(argv)
        assert code == 0 and not loaded & {"seminormal", "cyclotomics", "crystal"}, argv
    code, loaded = _loaded(["bgg", "--e", "5", "--charge", "0,2", "--multipartition", "[[2,1],[1]]"])
    assert code == 0 and not loaded & {"cyclotomics", "seminormal"}


@pytest.mark.parametrize("argv", [["verify", "nosuch"],
                                  ["seminormal", "--e", "5", "--partition", "3,x"],
                                  ["locus"]])
def test_malformed_command_loads_no_layer(argv):
    # verify reads its suite names from the sweep table before it rejects one
    table = {"sweeps"} if argv[0] == "verify" else set()
    assert _loaded(argv) == (2, {"cli", "multipartitions"} | table)


@pytest.mark.parametrize("source", [["--partition", "6,5,3"], ["--weight", "0,2"]])
def test_malformed_charge_builds_no_module(source):
    # the charge is parsed before the module is built, so a malformed one
    # exits at once, at dimension 15015 as at 2, with no exact arithmetic
    code, loaded = _loaded(["seminormal", "--e", "16", *source, "--charge", "0,x"])
    assert code == 2 and not loaded & {"seminormal", "cyclotomics"}, loaded


def test_seminormal_checks_its_input_in_order(capsys):
    # each input that fails one check keeps its error; the gcd check comes
    # before the charge
    for extra, error in ((["--charge", "0,x"], "BAD_CHARGE"),
                         (["--charge", "1,0"], "CHARGE_NOT_CYLINDRICAL"),
                         (["--a", "2", "--charge", "0,x"], "BAD_PARAMETERS"),
                         (["--weight", "0,0", "--charge", "0,2"], "NOT_CALIBRATED")):
        weight = [] if "--weight" in extra else ["--weight", "0,2"]
        code, _, err = run(capsys, "seminormal", "--e", "4", *weight, *extra)
        assert code == 2 and json.loads(err)["error"] == error, extra
    code, out, _ = run(capsys, "seminormal", "--e", "4", "--weight", "0,2", "--charge", "0,2")
    assert code == 0 and json.loads(out)["cyclotomic_member"] is True
