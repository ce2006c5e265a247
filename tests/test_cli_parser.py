"""The CLI's argument parser: negative numbers in every written form, and one
parser tree per process that keeps no state from one call to the next."""

from __future__ import annotations

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from satlink import cli

NEGATIVE = ("-1e3", "-1E+3", "-2.5e-3", "-.5e1", "-1e308", "-1e400", "-7.")


def _leaves(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """(argv prefix, parser) for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*prefix, name))
            return
    yield prefix, parser


def _required(parser: argparse.ArgumentParser, skip: argparse.Action) -> list[str]:
    """Values for the parser's other required arguments and for one flag of each
    other required group, enough to parse."""
    actions = [action for action in parser._actions if action.required or not action.option_strings]
    actions += [group._group_actions[0] for group in parser._mutually_exclusive_groups
                if group.required and skip not in group._group_actions]
    argv = []
    for action in actions:
        if action is skip:
            continue
        value = str(action.choices[0]) if action.choices else "1"
        argv += [action.option_strings[0], value] if action.option_strings else [value]
    return argv


FLOAT_FLAGS = [
    pytest.param(leaf, action, id=" ".join([*leaf, action.option_strings[0]]))
    for leaf, parser in _leaves(cli._build_parser())
    for action in parser._actions
    if action.option_strings and action.type is float
]


def test_every_subcommand_with_float_flags_is_walked():
    leaves = {param.values[0] for param in FLOAT_FLAGS}
    assert len(FLOAT_FLAGS) > 40 and {("convert", "linear"), ("linkbudget",), ("tcp",)} <= leaves


@pytest.mark.parametrize("leaf, action", FLOAT_FLAGS)
def test_float_flags_take_negative_exponent_forms(leaf, action):
    parser = cli._build_parser()
    subparser = dict(_leaves(parser))[leaf]
    flag, rest = action.option_strings[0], _required(subparser, action)
    for value in NEGATIVE:
        for argv in ([*leaf, *rest, flag, value], [*leaf, *rest, f"{flag}={value}"]):
            assert getattr(parser.parse_args(argv), action.dest) == float(value), argv


def _required_rows(commands: dict = cli._COMMANDS, prefix: tuple = ()):
    """(argv prefix, required rows) for every leaf of `commands`, a level of
    cli._COMMANDS: each row, one flag or a group of flags, that must be given."""
    for name, (_, *entry) in commands.items():
        if len(entry) == 1:
            yield from _required_rows(entry[0], (*prefix, name))
        else:
            rows = [(key, dict(*options)) for key, _, *options in entry[1]]
            yield (*prefix, name), [(key, o) for key, o in rows if o.get("required") or o.get("positional")]


def _names(key, options: dict) -> list[str]:
    """How argparse names a row's arguments: its flags, or a positional's key."""
    keys = (key,) if isinstance(key, str) else key
    return list(keys) if options.get("positional") else [cli._flag(k) for k in keys]


def _given(key, options: dict) -> list[str]:
    """argv that gives a row: its first flag with a value the parser takes."""
    value = str(options["choices"][0]) if "choices" in options else "1"
    return [value] if options.get("positional") else [_names(key, options)[0], value]


REQUIRED_ROWS = [
    pytest.param(leaf, rows, i, id=" ".join([*leaf, "without", *_names(*rows[i])]))
    for leaf, rows in _required_rows()
    for i in range(len(rows))
]


def test_every_required_row_is_walked():
    ids = {param.id for param in REQUIRED_ROWS}
    assert len(REQUIRED_ROWS) >= 20
    assert {"convert power without --watts --dbw --dbm", "capacity without --snr-db --snr-linear",
            "capacity without --bw-hz --bw-khz --bw-mhz --bw-ghz", "constellation stats without shell"} <= ids


@pytest.mark.parametrize("leaf, rows, omitted", REQUIRED_ROWS)
def test_a_missing_required_row_is_a_usage_error(leaf, rows, omitted):
    argv = [*leaf, *(arg for i, row in enumerate(rows) if i != omitted for arg in _given(*row))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, out.getvalue()) == (cli.EXIT_USAGE, "")
    assert err.getvalue().startswith(f"usage: satlink {' '.join(leaf)} ")
    last = err.getvalue().splitlines()[-1]
    assert all(name in last for name in _names(*rows[omitted])), last


def test_every_form_names_flags_of_its_leaf_and_the_forms_of_a_quantity_are_disjoint():
    """A form with a mistyped key would never be given, so flags of two forms
    would pass unrefused; a key in two forms of one quantity would refuse itself."""
    several = []
    for leaf, parser in _leaves(cli._build_parser()):
        flags = {action.dest for action in parser._actions if action.option_strings}
        for quantity in parser.get_default("forms"):
            keys = [key for form in quantity for key in form]
            assert len(quantity) > 1 and all(quantity) and set(keys) <= flags, (leaf, quantity)
            assert len(keys) == len(set(keys)), (leaf, quantity)
            several += [(leaf, form) for form in quantity if len(form) > 1]
    assert several == [
        (("linkbudget",), ("altitude_km", "elevation_deg")),
        (("linkbudget",), ("power_w", "gain_dbi")),
        (("linkbudget",), ("rx_gain_dbi", "nf_db", "noise_temp_k")),
        (("antenna", "select"), ("cell_radius_km", "altitude_km")),
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_negative_exponent_value_runs_end_to_end():
    assert run(["convert", "linear", "--db", "-1e3", "--format", "json"]) == (
        0, '{\n  "db": -1000.0,\n  "linear": 1e-100\n}\n', "")
    assert run(["geometry", "cell", "--parent-radius-km", "-1e3", "--beams", "4"])[0] == cli.EXIT_DOMAIN


def test_non_finite_words_are_values():
    for value, shown in (("-inf", "-inf"), ("-Infinity", "-inf"), ("-nan", "nan"), ("-NaN", "nan")):
        for argv in (["convert", "linear", "--db", value], ["convert", "linear", f"--db={value}"]):
            assert run(argv) == (cli.EXIT_DOMAIN, "", f"error: dB value must be finite, got {shown}\n"), argv


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_calls_share_no_state(tmp_path, monkeypatch):
    """Back-to-back calls give what each call gives on a freshly built parser."""
    monkeypatch.delenv("SATLINK_CONSTANTS", raising=False)
    monkeypatch.chdir(tmp_path)
    calls = [
        ["convert", "linear", "--db", "3", "--format", "json"],
        ["convert", "linear", "--db", "3"],  # --format back to table
        ["convert", "linear", "--db", "3", "--format", "csv", "--precise"],
        ["convert", "linear", "--db", "3"],  # --precise back to off
        ["convert", "bands", "--out", "bands.csv"],
        ["convert", "bands"],  # --out not kept: the chart goes to stdout
        ["tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9", "--c", "1.2", "--format", "json"],
        ["tcp", "--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9", "--format", "json"],  # --c back to 1
        ["antenna", "pattern", "--elements", "4", "--resolution-deg", "30", "--spacing", "0.25"],
        ["antenna", "pattern", "--elements", "4", "--resolution-deg", "30"],  # --spacing back to 0.5
        ["convert", "linear"],  # a usage error between two runs
        ["modcod", "--snr-db", "5", "--format", "json"],
        ["modcod", "--snr-db", "-5"],
        ["modcod", "--snr-db", "5", "--bw-mhz", "1", "--format", "json"],
        ["modcod", "--snr-db", "5", "--format", "json"],  # no bitrate without a bandwidth
    ]
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert (tmp_path / "bands.csv").read_text() == shared[5][1] != ""
    assert shared[4][1] == "" and shared[0][1] != shared[1][1] != shared[2][1] and shared[8][1] != shared[9][1]
    assert json.loads(shared[7][1])["c_constant"] == 1.0
    assert "bitrate_bps" not in json.loads(shared[14][1])
    assert [code for code, _, _ in shared[10:13]] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_INFEASIBLE]
