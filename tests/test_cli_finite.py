"""A successful run prints only numbers its formulas give: no overflow to inf.

`test_cli_magnitudes.py` checks that each run keeps the exit-code contract,
and `test_cli_fuzz.invoke` that `--format json` output parses, but json
parses `Infinity` too. A value can pass every input guard and a product of
it then pass float max, and such a run would exit 0 with `Infinity` in its
output. This runs the same flag cases through two sweeps, the magnitude
sweep (one flag at +-1e{k}) and a pairwise sweep (two flags of one base argv
at once), and requires every number of every successful run to be finite.
A subcommand with `--format` runs as json; one without (the CSV of `antenna
pattern` and `convert bands`) has its cells read as numbers.

Two non-finite numbers are the formula's own answer, and are allowed exactly:
- the dB of a zero the user typed: `capacity --snr-linear 0` prints
  `snr_db: -inf` (a zero reached by underflow, as from `--snr-db=-1e8`, is
  not one);
- `antenna pattern`'s power_db of -inf at an exact null (amplitude 0).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import pytest

from test_cli_fuzz import CASES, _with, invoke
from test_cli_magnitudes import MAGNITUDES

PAIR_VALUES = ("1e300", "-1e300", "1e-300", "1e154")
LEAVES = sorted({case[0] for case in CASES})


def _records(out: str, fmt: str | None):
    """The mappings a run printed: json records and rows, or CSV rows."""
    if fmt is None:
        return list(csv.DictReader(io.StringIO(out)))
    doc = json.loads(out, parse_constant=float)
    stack, records = [doc], []
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            records.append(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return records


def _number(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return value if isinstance(value, float) else None


def _excused(argv: list[str], key: str, value: float, record: dict) -> bool:
    if argv[0] == "capacity":
        typed_db = any(arg.startswith("--snr-db") for arg in argv)
        return key == "snr_db" and value == -math.inf and record["snr_linear"] == 0 and not typed_db
    if argv[:2] == ["antenna", "pattern"]:
        return key == "power_db" and value == -math.inf and float(record["amplitude"]) == 0.0
    return False


def nonfinite(argv: list[str]) -> list[tuple]:
    """(argv, key, value) of each non-finite number a successful run of
    `satlink <argv>` prints and that is not one of the two exceptions."""
    code, out, _ = invoke(argv)
    if code:
        return []
    fmt = "json" if "--format=json" in argv else None
    return [
        (argv, key, number)
        for record in _records(out, fmt)
        for key, value in record.items()
        if (number := _number(value)) is not None
        and not math.isfinite(number)
        and not _excused(argv, key, number, record)
    ]


def _argv(leaf, base, settings, formats) -> list[str]:
    for flag, value in settings:
        base = _with(leaf, base, flag, value)
    return [*leaf, *base, *(["--format=json"] if "json" in formats else [])]


@pytest.mark.parametrize("leaf", LEAVES, ids="-".join)
def test_every_flag_at_every_magnitude_prints_finite_numbers(leaf):
    found = [
        hit
        for _, base, flag, formats in (case for case in CASES if case[0] == leaf)
        for value in MAGNITUDES
        for hit in nonfinite(_argv(leaf, base, [(flag, value)], formats))
    ]
    assert not found, found


@pytest.mark.parametrize("leaf", LEAVES, ids="-".join)
def test_every_pair_of_flags_at_extremes_prints_finite_numbers(leaf):
    found = []
    cases = [case for case in CASES if case[0] == leaf]
    for (_, base, flag_a, formats), (_, base_b, flag_b, _) in itertools.combinations(cases, 2):
        if base_b != base:
            continue
        for a, b in itertools.product(PAIR_VALUES, repeat=2):
            found += nonfinite(_argv(leaf, base, [(flag_a, a), (flag_b, b)], formats))
    assert not found, found


EXTREME_SCENARIOS = {
    # past float max, the slant range, and (without the altitude) the bitrate
    "altitude": {"altitude_km": 1e200, "elevation_deg": 30, "se_dl_bps_hz": 1e300, "bw_dl_mhz": 1e300},
    "bitrate": {"se_dl_bps_hz": 1e300, "bw_dl_mhz": 1e300},
    "reported-bitrate": {"se_dl_bps_hz": 2, "bw_dl_mhz": 1, "bitrate_dl_mbps": 1e306},
    # past float max only once scaled to Hz
    "bandwidth": {"se_dl_bps_hz": 2, "bw_dl_mhz": 1e305},
    "frequency": {"freq_dl_ghz": 1e305},
}


@pytest.mark.parametrize("fields", EXTREME_SCENARIOS.values(), ids=EXTREME_SCENARIOS)
def test_extreme_scenario_prints_finite_numbers(tmp_path, fields):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"name": "extreme", "orbit": "LEO", **fields}))
    assert not nonfinite(["scenario", "run", str(path), "--format=json"])


def test_noise_power_of_a_hot_wide_receiver_prints_finite_numbers():
    argv = ["linkbudget", "--distance-km=1000", "--freq-ghz=12", "--bw-hz=1e300", "--eirp-dbw=40",
            "--rx-gain-dbi=0", "--noise-temp-k=1e300", "--format=json"]
    assert not nonfinite(argv)


def test_typed_zero_snr_is_the_one_capacity_exception():
    argv = ["capacity", "--snr-linear=0", "--bw-mhz=1", "--format=json"]
    code, out, _ = invoke(argv)
    assert code == 0 and json.loads(out, parse_constant=float)["snr_db"] == -math.inf
    assert not nonfinite(argv)


def test_capacity_prints_the_snr_db_typed():
    code, out, _ = invoke(["capacity", "--snr-db=-1e8", "--bw-mhz=1", "--format=json"])
    assert code == 0
    assert json.loads(out, parse_constant=float)["snr_db"] == -1e8



HUGE_COUNT = "1" + "0" * 400  # an int past the float range


@pytest.mark.parametrize("argv, message", [
    (["multibeam", "--se=2", "--bw-ghz=1", f"--beams={HUGE_COUNT}", "--colors=1"],
     f"bandwidth 1000000000.0 Hz and {HUGE_COUNT} beams are too large for a multi-beam capacity"),
    (["antenna", "pattern", f"--elements={HUGE_COUNT}"],
     f"element count must lie within the float range, got {HUGE_COUNT}"),
], ids=["beams", "elements"])
def test_a_count_past_the_float_range_is_a_domain_error(argv, message):
    code, _, err = invoke(argv)
    assert code == 1 and message in err


# Products past float max that the power-of-ten grids above step over
@pytest.mark.parametrize("argv, constants, message", [
    (["capacity", "--snr-db=3000", "--bw-ghz=1e299", "--format=json"], None,
     "bandwidth 1e+308 Hz at SNR 1e+300 is too large for a Shannon capacity"),
    (["convert", "noise-temp", "--nf-db=10", "--t-ref-k=1e308"], None,
     "noise figure 10.0 dB over reference 1e+308 K is too large for a noise temperature"),
    (["geometry", "footprint", "--sats-per-orbit=1"], {"earth_perimeter_km": 1.55e154},
     "diameter 1.55e+154 km is too large for a footprint area"),
], ids=["shannon-capacity", "noise-temperature", "footprint-area"])
def test_a_product_past_float_max_is_refused(argv, constants, message, tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(constants or {}))
    assert invoke(argv, constants=str(path) if constants else None) == (1, "", f"error: {message}\n")
