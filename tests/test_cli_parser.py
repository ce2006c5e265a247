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
    """Values for the parser's other required arguments, enough to parse."""
    argv = []
    for action in parser._actions:
        if action is skip or not (action.required or not action.option_strings):
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
