"""SATLINK_CONSTANTS is read only by the seven commands that use it.

`convert noise-temp` (unless --t-ref-k is given), `convert wavelength`,
`geometry slant`, `geometry footprint`, `linkbudget`, `constellation stats`
and `scenario run` read the file. Every other command ignores it, so a file
that cannot be read fails only those seven.
"""

from __future__ import annotations

import json

import pytest

from satlink import cli
from test_cli_fuzz import BASES, invoke

READERS = {
    ("convert", "noise-temp"), ("convert", "wavelength"), ("geometry", "slant"), ("geometry", "footprint"),
    ("linkbudget",), ("constellation", "stats"), ("scenario", "run"),
}
# test_cli_fuzz's argvs, with one that succeeds for the three leaves whose base lacks a quantity
ARGVS = {
    **BASES,
    ("convert", "power"): [("--watts", "2")],
    ("convert", "wavelength"): [("--freq-ghz", "2")],
    ("convert", "band"): [("--freq-ghz", "2", "--direction", "uplink")],
}
# every constant moved off its default
OVERRIDE = {
    "c_m_per_s": 299792458.0, "boltzmann_j_per_k": 1.4e-23, "earth_radius_km": 7000.0,
    "earth_perimeter_km": 44000.0, "earth_surface_km2": 615e6, "t_ref_k": 300.0,
}
DEVNULL_ERROR = "error: /dev/null: Expecting value (line 1, column 1)\n"


def test_every_leaf_has_a_working_argv():
    assert set(ARGVS) == set(BASES)
    assert READERS < set(ARGVS)
    assert len(ARGVS) - len(READERS) == 16


@pytest.mark.parametrize("leaf", sorted(ARGVS), ids="-".join)
def test_only_a_reader_prints_what_the_file_sets(leaf, tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(OVERRIDE))
    for base in ARGVS[leaf]:
        default = invoke([*leaf, *base])
        override = invoke([*leaf, *base], constants=str(path))
        assert default[0] == override[0] == cli.EXIT_OK, (default, override)
        if leaf in READERS:
            assert override[1] != default[1]
        else:
            assert override == default


@pytest.mark.parametrize("leaf", sorted(ARGVS), ids="-".join)
def test_an_unreadable_file_fails_only_the_readers(leaf):
    for base in ARGVS[leaf]:
        got = invoke([*leaf, *base], constants="/dev/null")
        if leaf in READERS:
            assert got == (cli.EXIT_DOMAIN, "", DEVNULL_ERROR)
        else:
            assert got == invoke([*leaf, *base])
            assert got[0] == cli.EXIT_OK


def test_noise_temp_reads_no_file_when_given_its_reference_temperature():
    argv = ["convert", "noise-temp", "--nf-db", "3", "--t-ref-k", "300"]
    got = invoke(argv, constants="/dev/null")
    assert got == invoke(argv)
    assert got[0] == cli.EXIT_OK


def test_a_scenario_takes_the_earth_radius_of_the_file(tmp_path):
    """README's example: under earth_radius_km 7000, `scenario run` and
    `geometry slant` print the same slant range."""
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"earth_radius_km": 7000}))
    slant = ["geometry", "slant", "--altitude-km", "600", "--elevation-deg", "30", "--format=json"]
    scenario = ["scenario", "run", "thales", "--format=json"]
    assert json.loads(invoke(slant, constants=str(path))[1])["slant_range_km"] == 1083.67
    assert json.loads(invoke(scenario, constants=str(path))[1])["slant_range_km"] == 1083.67
    assert json.loads(invoke(slant)[1])["slant_range_km"] == 1075.09


def test_footprint_and_shell_stats_refuse_a_coverage_that_underflows(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"earth_perimeter_km": 1e-150, "earth_surface_km2": 1e300}))
    refusal = (cli.EXIT_DOMAIN, "", "error: coverage fraction must lie in (0, 1], got 0.0\n")
    assert invoke(["geometry", "footprint", "--sats-per-orbit", "22"], constants=str(path)) == refusal
    assert invoke(["constellation", "stats", "S1"], constants=str(path)) == refusal


def test_wavelength_refuses_a_speed_of_light_that_underflows_it(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"c_m_per_s": 5e-324}))
    refusal = "error: speed of light 5e-324 m/s over frequency 2000000000.0 Hz is too small for a wavelength\n"
    assert invoke(["convert", "wavelength", "--freq-ghz", "2"], constants=str(path)) == (cli.EXIT_DOMAIN, "", refusal)
