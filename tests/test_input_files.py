"""Every input file is opened by one reader, so each fails the same way.

The four inputs are a scenario (`scenario run`), a MODCOD catalog
(`modcod --catalog`), a link budget config (`linkbudget --config`) and a
constants file (`SATLINK_CONSTANTS`). A missing one exits 2 with
`error: <what> file '<path>' not found`, and the library loaders raise the
same text as a NotFoundError. A directory exits 4 with one error line. A
file of the wrong shape is refused with a message that starts with its path.
"""

from __future__ import annotations

import pytest

from satlink import capacity, cli, quantities, scenario
from satlink.errors import NotFoundError, ParseError
from test_cli_fuzz import invoke

# {noun: (SATLINK_CONSTANTS, argv)}, where "{}" stands for the path of the file
INPUTS = {
    "scenario": (None, ["scenario", "run", "{}"]),
    "MODCOD catalog": (None, ["modcod", "--snr-db", "3", "--catalog", "{}"]),
    "link budget config": (None, ["linkbudget", "--config", "{}"]),
    "constants": ("{}", ["convert", "wavelength", "--freq-ghz", "2"]),
}


# an ordinary name, and one too long for the file system to look up (ENAMETOOLONG)
MISSING_NAMES = ("missing.json", "z" * 300 + ".json")


def _run(what: str, path: str) -> tuple[int, str, str]:
    constants, argv = INPUTS[what]
    return invoke([token.replace("{}", path) for token in argv], constants and path)


@pytest.mark.parametrize("what", INPUTS)
def test_a_missing_file_exits_2_with_one_message(what, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in MISSING_NAMES:
        assert _run(what, name) == (cli.EXIT_USAGE, "", f"error: {what} file '{name}' not found\n")


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
    for name in MISSING_NAMES:
        path = tmp_path / name
        with pytest.raises(NotFoundError) as caught:
            load(path)
        assert str(caught.value) == f"{what} file {str(path)!r} not found"


def test_a_scenario_name_that_is_no_file_and_no_json_is_an_unknown_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    code, _, err = invoke(["scenario", "run", "folder"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: unknown fixture 'folder'; available: ")


# (load, file text, refusal after "<path>: "), and the refusal of the same text given as text
_SHAPES = [
    (scenario.load_scenario, "[1, 2]", "scenario must be a JSON object", "scenario document must be a JSON object"),
    (capacity.load_modcod_catalog, "name,se\nx,1\n",
     "MODCOD CSV must have columns ['name', 'se_bps_hz', 'snr_qef_db'], got ['name', 'se']",
     "MODCOD CSV must have columns ['name', 'se_bps_hz', 'snr_qef_db'], got ['name', 'se']"),
    (capacity.load_modcod_catalog, "name,se_bps_hz,snr_qef_db\nx,abc,1\n",
     "bad MODCOD row: {'name': 'x', 'se_bps_hz': 'abc', 'snr_qef_db': '1'} (line 2)",
     "bad MODCOD row: {'name': 'x', 'se_bps_hz': 'abc', 'snr_qef_db': '1'}"),
]


@pytest.mark.parametrize("load, text, refusal, text_refusal", _SHAPES, ids=["scenario", "columns", "row"])
def test_a_file_of_the_wrong_shape_is_named_in_its_refusal(load, text, refusal, text_refusal, tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(text)
    for source in (path, str(path)):
        with pytest.raises(ParseError) as caught:
            load(source)
        assert str(caught.value) == f"{path}: {refusal}"
    with pytest.raises(ParseError) as caught:
        load(text)
    assert str(caught.value) == text_refusal


def test_a_bad_catalog_row_is_located_by_its_line_in_the_file(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text('name,se_bps_hz,snr_qef_db\n"two\nlines",0.5,5\n\nx,abc,1\n')
    with pytest.raises(ParseError) as caught:
        capacity.load_modcod_catalog(path)
    assert (str(caught.value).endswith(" (line 5)"), caught.value.line) == (True, 5)


@pytest.mark.parametrize("key", ["beams", "reuse"])
def test_a_scenario_count_past_the_float_range_exits_1_naming_its_field(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    count = "1" + "0" * 400
    (tmp_path / "big.json").write_text(f'{{"name": "big", "orbit": "LEO", "footprint_radius_km": 500, "{key}": {count}}}')
    refusal = f"error: {key} must lie within the float range, got {count}\n"
    assert _run("scenario", "big.json") == (cli.EXIT_DOMAIN, "", refusal)
