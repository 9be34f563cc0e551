"""The sweep table at the ranges of ``calihecke verify``, and the reduction
that turns records into verdicts."""

import json

import pytest

from calihecke import calibration, cli, sweeps
from calihecke.sweeps import Record, Tally


@pytest.mark.parametrize("suite", ["classification", "klr", "locus", "seminormal"])
def test_cli_ranges_meet_floors(suite):
    floors = sweeps.SUITES[suite][1]["verify"][1]
    assert sweeps.run_suite(suite, "verify") == dict.fromkeys(floors)


def test_reductions():
    records = [
        Record("a", "x=1", True),
        Record("convention_2", "x=1", False),
        Record("a", "x=2", None),
        Record("a", "x=3", False),
        Record("a", "x=4", False),
    ]
    tallies = sweeps.tally(records)
    assert tallies == {
        "a": Tally(checked=3, skipped=1, failed=2, first_failure=records[3]),
        "convention_2": Tally(checked=1, skipped=0, failed=1, first_failure=records[1]),
    }
    # a universal check must never fail, an existential one somewhere
    assert sweeps.problems(tallies, {"a": 3, "convention_2": 1}) == {
        "a": f"first failing record {records[3]}", "convention_2": None}
    holding = [records[0], records[2], Record("b", "x=1", True),
               Record("convention_2", "x=2", True)]
    assert sweeps.problems(sweeps.tally(holding), {"a": 1, "c": 1, "convention_2": 1}) == {
        "a": "a: 1 cases checked (floor 1), 1 skipped",
        "b": "b: 1 cases checked, but no floor",
        "c": "c: 0 cases checked (floor 1), 0 skipped",
        "convention_2": "convention_2 holds on all 1 cases",
    }


def test_broken_check_names_its_first_case(monkeypatch, capsys):
    monkeypatch.setattr(calibration, "is_flotw", lambda mp, ch: False)
    tallies = sweeps.tally(sweeps.classification_sweep(range(2, 3), (1,), 2))
    floors = {"no_stuttering=cali": 4, "reachable=flotw": 4, "e_tilde_keeps_cali": 3}
    assert sweeps.problems(tallies, floors)["reachable=flotw"] == (
        f"first failing record {Record('reachable=flotw', 'e=2 s=(0,) la=((),)', False)}")
    assert cli.main(["verify", "classification"]) == 1
    assert json.loads(capsys.readouterr().out) == {"classification": False}


def test_vacuous_suite_fails(monkeypatch, capsys):
    sweep, profiles = sweeps.SUITES["locus"]
    floors = profiles["verify"][1]
    monkeypatch.setitem(sweeps.SUITES, "locus",
                        (sweep, dict(profiles, verify=(((), ()), floors))))
    assert cli.main(["verify", "locus"]) == 1
    assert json.loads(capsys.readouterr().out) == {"locus": False}
