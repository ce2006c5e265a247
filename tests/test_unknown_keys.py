"""The unknown-key error of every document satlink reads.

A scenario, a scenario case, a terminal mapping, a `linkbudget --config`
file and a `SATLINK_CONSTANTS` file each refuse a key they do not know with
a ValidationError naming the first unknown key (sorted, prefixed by its
place in the document) and listing all of them. Through the CLI the same
text ends the run with exit 1.
"""

from __future__ import annotations

import json

import pytest

from satlink import cli, quantities, scenario
from satlink.errors import ValidationError

EXTRA = {"zeta": 1.0, "alpha": 2.0}


def _scenario(tmp_path):
    scenario.load_scenario({"name": "x", "orbit": "LEO", **EXTRA})


def _case(tmp_path):
    cases = [{"direction": "dl"}, {"direction": "ul", **EXTRA}]
    scenario.load_scenario({"name": "x", "orbit": "LEO", "cases": cases})


def _terminal(tmp_path):
    scenario.terminal_profile({"name": "vsat", **EXTRA})


def _scenario_terminal(tmp_path):
    scenario.load_scenario({"name": "x", "orbit": "LEO", "terminal": {"name": "x", "gain_dbi": 0.0, **EXTRA}})


def _config(tmp_path):
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"distance_km": 1000.0, **EXTRA}))
    cli._load_budget_config(str(path))


def _constants(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"t_ref_k": 290.0, **EXTRA}))
    quantities.PhysicalConstants.from_file(path)


def _constants_mapping(tmp_path):
    quantities.PhysicalConstants.from_mapping({"t_ref_k": 290.0, **EXTRA})


@pytest.mark.parametrize("read, field, message", [
    (_scenario, "alpha", "unknown scenario keys: ['alpha', 'zeta']"),
    (_case, "cases[1].alpha", "unknown case keys: ['alpha', 'zeta']"),
    (_terminal, "terminal.alpha", "unknown terminal keys: ['alpha', 'zeta']"),
    (_scenario_terminal, "terminal.alpha", "unknown terminal keys: ['alpha', 'zeta']"),
    (_config, "alpha", "unknown config keys: ['alpha', 'zeta']"),
    (_constants, "alpha", "unknown constant keys: ['alpha', 'zeta']"),
    (_constants_mapping, "alpha", "unknown constant keys: ['alpha', 'zeta']"),
], ids=lambda v: getattr(v, "__name__", "").lstrip("_") or None)
def test_unknown_keys_name_the_first_and_list_all(tmp_path, read, field, message):
    with pytest.raises(ValidationError) as info:
        read(tmp_path)
    assert info.value.field == field
    assert str(info.value) == message


@pytest.mark.parametrize("what, argv", [
    ("scenario", ["scenario", "run", "doc.json"]),
    ("config", ["linkbudget", "--config", "doc.json"]),
    ("constant", ["convert", "wavelength", "--freq-ghz", "2"]),
])
def test_cli_exits_1_on_unknown_keys(tmp_path, monkeypatch, capsys, what, argv):
    doc = {"name": "x", "orbit": "LEO", **EXTRA} if what == "scenario" else EXTRA
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    if what == "constant":
        monkeypatch.setenv("SATLINK_CONSTANTS", "doc.json")
    assert cli.main(argv) == cli.EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown {what} keys: ['alpha', 'zeta']\n"
