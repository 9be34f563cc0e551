"""The sweep engine at the ranges of ``calihecke verify``, and the reductions
that turn its records into verdicts."""

import json

import pytest

from calihecke import cli, sweeps
from calihecke.sweeps import Record, Tally

# Cases each suite of `calihecke verify` checks at its ranges today.
CLI_FLOORS = {
    "classification": ("no_stuttering=cali", 1341),
    "seminormal": ("hecke_relations", 526),
    "klr": ("klr_relations", 993),
    "locus": ("locus=oracle", 1364),
}


@pytest.mark.parametrize("suite", sorted(CLI_FLOORS))
def test_cli_ranges_meet_floors(suite):
    records = list(cli.VERIFY_SWEEPS[suite]())
    check, floor = CLI_FLOORS[suite]
    assert sweeps.tally(records)[check].checked >= floor
    assert sweeps.first_failure(records) is None


def test_reductions():
    records = [
        Record("a", "x=1", True),
        Record("convention_2", "x=1", False),
        Record("a", "x=2", None),
        Record("a", "x=3", False),
        Record("a", "x=4", False),
    ]
    assert sweeps.tally(records) == {
        "a": Tally(checked=3, skipped=1, failed=2, first_failure=records[3]),
        "convention_2": Tally(checked=1, skipped=0, failed=1, first_failure=records[1]),
    }
    # existential checks and skipped cases never fail a verdict
    assert sweeps.holds(records[:3])
    assert sweeps.first_failure(records) == records[3]
    assert not sweeps.holds(records)


def test_broken_check_names_its_first_case(monkeypatch, capsys):
    monkeypatch.setattr(sweeps, "is_flotw", lambda mp, ch: False)
    first = sweeps.first_failure(sweeps.classification_sweep(range(2, 3), (1,), 2))
    assert first == Record("reachable=flotw", "e=2 s=(0,) la=((),)", False)
    assert cli.main(["verify", "classification"]) == 1
    assert json.loads(capsys.readouterr().out) == {"classification": False}
