"""A refused flag is named in the unit the user typed, and a bare group prints its own help.

The CLI checks every frequency, bandwidth, distance, altitude, elevation and
RTT flag as typed, against the library's rule restated in the flag's unit,
and once more after scaling it to the library's unit. So a refusal reads
`--freq-ghz must be > 0 GHz, got -5.0`, never a rescaled number in Hz. A
`linkbudget --config` document is checked the same way, naming each key as
written (`freq_ghz must be > 0 GHz, got -5.0`).
"""

from __future__ import annotations

import json
import re

import pytest

from test_cli_fuzz import CASES, HOSTILE, _with, invoke
from test_cli_help import GOLDEN as HELP_GOLDEN

UNITS = {"ghz": "GHz", "mhz": "MHz", "khz": "kHz", "hz": "Hz", "km": "km", "deg": "degrees", "ms": "ms"}
# The library's names for the quantity each checked flag sets
LIBRARY_NAMES = {"freq": ("frequency",), "bw": ("bandwidth", "bw_hz"), "distance": ("distance",),
                 "altitude": ("altitude",), "elevation": ("elevation",), "rtt": ("RTT",)}
CHECKED = re.compile(r"--(freq|bw|distance|altitude|elevation|rtt)-(\w+)$")

SCALED = [
    pytest.param(leaf, base, flag, id=" ".join([*leaf, flag]))
    for leaf, base, flag, _ in CASES
    if CHECKED.match(flag)
]


def _argv(leaf, base, flag, value) -> list[str]:
    """`leaf base` with the flag's quantity set only by `flag`, to `value`."""
    return [*leaf, *_with(leaf, base, flag, value)]


def test_every_checked_flag_is_swept():
    flags = {param.values[2] for param in SCALED}
    assert len(SCALED) >= 30
    assert {"--freq-ghz", "--freq-mhz", "--freq-hz", "--bw-hz", "--bw-khz", "--bw-mhz", "--bw-ghz", "--distance-km",
            "--altitude-km", "--elevation-deg", "--rtt-ms"} == flags


@pytest.mark.parametrize("leaf, base, flag", SCALED)
def test_a_refused_flag_is_named_in_its_unit(leaf, base, flag):
    """Each hostile value is refused by the flag's name in its unit, or passes the
    flag's rule; a refusal of what is computed from it (a wavelength past float
    max, a frequency outside every band) may follow, but never the library's
    range refusal of the flag's own quantity in another unit."""
    quantity, suffix = CHECKED.match(flag).groups()
    library_refusals = tuple(f"error: {name} must" for name in LIBRARY_NAMES[quantity])
    named = 0
    for value in (*HOSTILE, "-5"):
        code, _, err = invoke(_argv(leaf, base, flag, value))
        if err.startswith(f"error: {flag} "):
            assert code == 1 and f" {UNITS[suffix]}" in err, (value, err)
            named += 1
        else:
            assert not err.startswith(library_refusals), (value, err)
    assert named >= 4  # nan, inf, -inf and -1e308 fail every rule


@pytest.mark.parametrize("argv, message", [
    (["tcp", "--mss", "1500", "--rtt-ms=-5", "--ploss", "1e-6"], "--rtt-ms must be > 0 ms, got -5.0"),
    (["convert", "wavelength", "--freq-ghz=-5"], "--freq-ghz must be > 0 GHz, got -5.0"),
    (["convert", "wavelength", "--freq-mhz=nan"], "--freq-mhz must be > 0 MHz, got nan"),
    (["convert", "wavelength", "--freq-ghz=1e308"], "--freq-ghz must fit a float in Hz, got 1e+308 GHz"),
    (["tcp", "--mss", "1500", "--rtt-ms=5e-324", "--ploss", "1e-6"],
     "--rtt-ms must fit a float in s, got 5e-324 ms"),
    (["linkbudget", "--distance-km", "1000", "--freq-ghz", "2", "--eirp-dbw", "40", "--g-over-t-dbk", "1",
      "--bw-mhz=-5"], "--bw-mhz must be > 0 MHz, got -5.0"),
    (["linkbudget", "--distance-km=1e308", "--freq-ghz", "2", "--eirp-dbw", "40", "--g-over-t-dbk", "1",
      "--bw-mhz", "1"], "--distance-km must fit a float in m, got 1e+308 km"),
    (["geometry", "slant", "--altitude-km", "600", "--elevation-deg=90.00000000000001"],
     "--elevation-deg must lie in [0, 90] degrees, got 90.00000000000001"),
    (["modcod", "--snr-db", "5", "--bw-khz=-0.5"], "--bw-khz must be >= 0 kHz, got -0.5"),
])
def test_refusal_messages(argv, message):
    assert invoke(argv) == (1, "", f"error: {message}\n")


_CONFIG = {"distance_km": 1000, "freq_ghz": 2, "eirp_dbw": 40, "g_over_t_dbk": 1, "bw_mhz": 1}


@pytest.mark.parametrize("change, flags, message", [
    ({"freq_ghz": -5}, [], "freq_ghz must be > 0 GHz, got -5.0"),
    ({"bw_mhz": -5}, [], "bw_mhz must be > 0 MHz, got -5.0"),
    ({"freq_mhz": 0, "freq_ghz": None}, [], "freq_mhz must be > 0 MHz, got 0.0"),
    ({"bw_khz": float("nan"), "bw_mhz": None}, [], "bw_khz must be finite, got nan"),
    ({"distance_km": 1e308}, [], "distance_km must fit a float in m, got 1e+308 km"),
    ({"distance_km": None, "altitude_km": 600, "elevation_deg": 95}, [],
     "elevation_deg must lie in [0, 90] degrees, got 95.0"),
    # a value that a flag overrides is still refused: the document itself is invalid
    ({"freq_ghz": -5}, ["--freq-ghz", "2"], "freq_ghz must be > 0 GHz, got -5.0"),
    ({"bw_mhz": -5}, ["--bw-khz", "1"], "bw_mhz must be > 0 MHz, got -5.0"),
])
def test_a_config_value_is_refused_in_its_unit(change, flags, message, tmp_path):
    path = tmp_path / "budget.json"
    doc = {key: value for key, value in {**_CONFIG, **change}.items() if value is not None}
    path.write_text(json.dumps(doc))
    assert invoke(["linkbudget", "--config", str(path), *flags]) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("terminal, flags, code, message", [
    ("nope", [], 2, "unknown terminal 'nope'; presets: class3-ue, iot, vsat"),
    (5, [], 1, "terminal must be a preset name or mapping, got int"),
    ({"name": "vsat", "nf_db": -1}, [], 1, "terminal noise figure must be >= 0 dB, got -1.0"),
    ("nope", ["--terminal", "vsat"], 2, "unknown terminal 'nope'; presets: class3-ue, iot, vsat"),
])
def test_a_config_terminal_is_refused_beside_another_receiver_form(terminal, flags, code, message, tmp_path):
    """The config's g_over_t_dbk (or a --terminal flag) displaces its terminal,
    which is still refused: the document itself is invalid."""
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({**_CONFIG, "terminal": terminal}))
    assert invoke(["linkbudget", "--config", str(path), *flags]) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["convert", "wavelength", "--freq-hz=1e308"],  # no scaling: the library takes it as typed
    ["convert", "wavelength", "--freq-ghz=1.7976931348623157e299"],  # the largest GHz value below float max Hz
    ["geometry", "slant", "--altitude-km", "600", "--elevation-deg=90"],
    ["geometry", "slant", "--altitude-km", "600", "--elevation-deg=-0"],
    ["modcod", "--snr-db", "5", "--bw-mhz=0"],  # a bitrate may be 0: the library's rule is >= 0
    ["tcp", "--mss", "1500", "--rtt-ms=1e-200", "--ploss", "1e-6"],
])
def test_values_at_the_edge_of_a_rule_pass(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, ""), err


@pytest.mark.parametrize("group", ["convert", "geometry", "antenna", "constellation", "scenario", ""])
def test_a_bare_group_prints_its_own_help(group, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    help_text = json.loads(HELP_GOLDEN.read_text())[group]["help"]
    assert invoke([group] if group else []) == (2, "", help_text)
