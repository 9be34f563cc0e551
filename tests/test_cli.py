import contextlib
import io
import json
import multiprocessing
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


def test_argparse_errors_are_json(capsys):
    for argv in (["classify", "--e", "x", "--charge", "0", "--n", "3"],
                 ["nosuch"], [], ["locus", "--format", "xml"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err.strip().splitlines()[-1])["error"] == "BAD_ARGUMENTS"


def test_jobs_below_one_rejected(capsys):
    for jobs in ("0", "-2"):
        code, out, err = run(capsys, "verify", "locus", "--jobs", jobs)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "BAD_PARAMETERS"


def test_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, f, tasks):
            return [f(x) for x in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(cli, "_locus_task", lambda la: True)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for jobs, expected in (("64", [3]), ("2", [2]), ("1", [])):
        sizes.clear()
        code, out, _ = run(capsys, "verify", "locus", "--jobs", jobs)
        assert code == 0 and json.loads(out) == {"locus": True}
        assert sizes == expected, jobs
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    sizes.clear()
    assert run(capsys, "verify", "locus", "--jobs", "8")[0] == 0
    assert sizes == []


# Each subcommand starts from a valid call (verify from an unknown suite, so
# that no sweep ever runs); one to three flags are then set to malformed or
# borderline values, or dropped.  Every value is small enough that a valid
# combination runs in milliseconds.
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
    "--jobs": ["x", "-1", "0", "1"],
}
BAD_SUITES = ["nope", "", "LOCUS", "all,locus"]
STRAY = ["--bogus", "x", "--e"]


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    flags = dict(VALID[command])
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), min_size=1,
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
