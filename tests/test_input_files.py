"""Every input file is opened by one reader, so each fails the same way.

The four inputs are a scenario (`scenario run`), a MODCOD catalog
(`modcod --catalog`), a link budget config (`linkbudget --config`) and a
constants file (`SATLINK_CONSTANTS`). A missing one exits 2 with
`error: <what> file '<path>' not found`, and the library loaders raise the
same text as a NotFoundError. A directory exits 4 with one error line.
"""

from __future__ import annotations

import pytest

from satlink import capacity, cli, quantities, scenario
from satlink.errors import NotFoundError
from test_cli_fuzz import invoke

# {noun: (SATLINK_CONSTANTS, argv)}, where "{}" stands for the path of the file
INPUTS = {
    "scenario": (None, ["scenario", "run", "{}"]),
    "MODCOD catalog": (None, ["modcod", "--snr-db", "3", "--catalog", "{}"]),
    "link budget config": (None, ["linkbudget", "--config", "{}"]),
    "constants": ("{}", ["convert", "db", "--linear", "2"]),
}


def _run(what: str, path: str) -> tuple[int, str, str]:
    constants, argv = INPUTS[what]
    return invoke([token.replace("{}", path) for token in argv], constants and path)


@pytest.mark.parametrize("what", INPUTS)
def test_a_missing_file_exits_2_with_one_message(what, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(what, "missing.json") == (cli.EXIT_USAGE, "", f"error: {what} file 'missing.json' not found\n")


@pytest.mark.parametrize("what", INPUTS)
def test_a_directory_exits_4_with_one_error_line(what, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder.json").mkdir()
    code, out, err = _run(what, "folder.json")
    assert (code, out) == (cli.EXIT_IO, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "folder.json" in err, err


@pytest.mark.parametrize("what, load", [
    ("scenario", scenario.load_scenario),
    ("MODCOD catalog", capacity.load_modcod_catalog),
    ("constants", quantities.PhysicalConstants.from_file),
])
def test_a_library_loader_raises_the_same_text(what, load, tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(NotFoundError) as caught:
        load(path)
    assert str(caught.value) == f"{what} file {str(path)!r} not found"


def test_a_scenario_name_that_is_no_file_and_no_json_is_an_unknown_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    code, _, err = invoke(["scenario", "run", "folder"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: unknown fixture 'folder'; available: ")
