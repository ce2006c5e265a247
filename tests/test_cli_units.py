"""One unit flag per quantity: frequency and bandwidth in any of their units.

Each subcommand that takes a frequency or a bandwidth offers it in several
units (`--freq-ghz`, `--freq-mhz`, `--freq-hz`; `--bw-hz` … `--bw-ghz`).
The same value in any unit gives the same run, byte for byte; two flags for
one quantity are a usage error (exit 2), whichever pair, as are flags of two
forms of one quantity (`linkbudget --distance-km` beside `--altitude-km`,
`antenna select --hpbw-deg` beside `--cell-radius-km`); and a `--config`
document holding two keys of one quantity reads the first of them in the
order freq_ghz, freq_mhz and bw_hz, bw_khz, bw_mhz, bw_ghz.
"""

from __future__ import annotations

import itertools
import json

import pytest

from satlink import cli
from test_cli_fuzz import FORMATS, LEAVES, invoke

# The same 12 GHz and 2 GHz in each unit, every product exact in binary floating point.
FREQ = {"--freq-ghz": "12", "--freq-mhz": "12000", "--freq-hz": "1.2e10"}
BW = {"--bw-hz": "2e9", "--bw-khz": "2e6", "--bw-mhz": "2000", "--bw-ghz": "2"}
BUDGET = ["--distance-km", "1000", "--eirp-dbw", "40", "--g-over-t-dbk", "1"]

# (subcommand, the rest of a working argv, the unit flags of each quantity it takes)
SUBCOMMANDS = [
    (("convert", "wavelength"), [], {"freq": ("--freq-ghz", "--freq-mhz", "--freq-hz")}),
    (("convert", "band"), ["--direction", "downlink"], {"freq": ("--freq-mhz", "--freq-ghz", "--freq-hz")}),
    (("linkbudget",), BUDGET, {"freq": ("--freq-ghz", "--freq-mhz"), "bw": tuple(BW)}),
    (("capacity",), ["--snr-db", "10"], {"bw": tuple(BW)}),
    (("modcod",), ["--snr-db", "5"], {"bw": tuple(BW)}),
]
VALUES = {"freq": FREQ, "bw": BW}
DEFAULTS = {"freq": ["--freq-ghz", "2"], "bw": ["--bw-mhz", "1"]}


def _argv(leaf, base, quantities, chosen: dict) -> list[str]:
    """`leaf base` with each quantity it takes set once, through the flag `chosen` names or a default."""
    argv = [*leaf, *base]
    for quantity in quantities:
        flag = chosen.get(quantity)
        argv += [flag, VALUES[quantity][flag]] if flag else DEFAULTS[quantity]
    return argv


CASES = [
    pytest.param(leaf, base, quantities, quantity, id=f"{' '.join(leaf)}-{quantity}")
    for leaf, base, quantities in SUBCOMMANDS
    for quantity in quantities
]


@pytest.mark.parametrize("leaf, base, quantities, quantity", CASES)
def test_the_same_value_in_every_unit_gives_the_same_output(leaf, base, quantities, quantity):
    for fmt in FORMATS:
        runs = [invoke([*_argv(leaf, base, quantities, {quantity: flag}), f"--format={fmt}"])
                for flag in quantities[quantity]]
        assert runs[0][0] == 0, runs[0]
        assert all(run == runs[0] for run in runs), (fmt, runs)


@pytest.mark.parametrize("leaf, base, quantities, quantity", CASES)
def test_two_flags_for_one_quantity_are_a_usage_error(leaf, base, quantities, quantity):
    for first, second in itertools.permutations(quantities[quantity], 2):
        argv = [*_argv(leaf, base, quantities, {quantity: first}), second, VALUES[quantity][second]]
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert f"argument {second}: not allowed with argument {first}" in err, (argv, err)


# A value each linkbudget and antenna select flag accepts
FLAG_VALUES = {
    "distance_km": "1000", "altitude_km": "600", "elevation_deg": "30", "freq_ghz": "2", "freq_mhz": "2000",
    "bw_hz": "1000", "bw_khz": "1", "bw_mhz": "1", "bw_ghz": "1", "eirp_dbw": "40", "power_w": "3", "gain_dbi": "2",
    "g_over_t_dbk": "1", "terminal": "vsat", "rx_gain_dbi": "0", "nf_db": "7", "noise_temp_k": "100",
    "hpbw_deg": "10", "cell_radius_km": "50",
}
# (leaf, a, b) for each flag a and b of two forms of one quantity, on each leaf that takes a
# quantity as a form of several flags, whose handler checks its forms
FORM_PAIRS = [
    (leaf, a, b) for leaf, parser in LEAVES.items() for forms in parser.get_default("forms")
    if any(len(form) > 1 for quantity in parser.get_default("forms") for form in quantity)
    for i, form in enumerate(forms) for later in forms[i + 1:] for a in form for b in later
]


def test_flags_of_two_forms_of_one_quantity_are_a_usage_error(capsys):
    assert len(FORM_PAIRS) == 21
    for leaf, a, b in FORM_PAIRS:
        first, second = cli._flag(a), cli._flag(b)
        with pytest.raises(SystemExit) as exc:
            cli.main([*leaf, first, FLAG_VALUES[a], second, FLAG_VALUES[b]])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), (leaf, a, b)
        assert f"argument {second}: not allowed with argument {first}" in err, (leaf, a, b, err)


def test_multibeam_takes_its_bandwidth_in_ghz_only():
    code, out, _ = invoke(["multibeam", "--se=2", "--bw-ghz=1.5", "--beams=60", "--colors=7", "--format=json"])
    assert code == 0 and json.loads(out)["bw_hz"] == 1.5e9
    code, _, err = invoke(["multibeam", "--se=2", "--bw-mhz=1500", "--beams=60", "--colors=7"])
    assert code == 2 and "the following arguments are required: --bw-ghz" in err


def _budget(tmp_path, doc: dict | None, *flags: str) -> dict:
    """The json record of a working linkbudget run with these flags and, if `doc`, this --config."""
    config = []
    if doc is not None:
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"distance_km": 1000, "eirp_dbw": 40, "g_over_t_dbk": 1, **doc}))
        config = ["--config", str(path)]
    code, out, err = invoke(["linkbudget", *config, *([] if config else BUDGET), *flags, "--format=json"])
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("doc", [
    {"freq_ghz": 2, "freq_mhz": 12000, "bw_khz": 1},
    {"freq_mhz": 12000, "freq_ghz": 2, "bw_khz": 1},
], ids=["ghz-first", "mhz-first"])
def test_config_with_two_frequencies_reads_freq_ghz(tmp_path, doc):
    assert _budget(tmp_path, doc) == _budget(tmp_path, None, "--freq-ghz=2", "--bw-khz=1")


def test_config_with_every_bandwidth_reads_bw_hz(tmp_path):
    doc = {"freq_ghz": 2, "bw_ghz": 7, "bw_mhz": 5, "bw_khz": 3, "bw_hz": 1000}
    assert _budget(tmp_path, doc) == _budget(tmp_path, None, "--freq-ghz=2", "--bw-hz=1000")


def test_a_flag_replaces_every_config_key_of_its_quantity(tmp_path):
    doc = {"freq_ghz": 2, "freq_mhz": 12000, "bw_hz": 1000, "bw_ghz": 7}
    flags = ("--freq-mhz=3000", "--bw-khz=5")
    assert _budget(tmp_path, doc, *flags) == _budget(tmp_path, None, *flags)

