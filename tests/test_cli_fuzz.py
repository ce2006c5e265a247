"""Bounded fuzz of the CLI boundary.

Two kinds of input drive `cli.main`: every numeric flag of every subcommand
set to a hostile value, and random scenario, `--config`, SATLINK_CONSTANTS
and MODCOD-CSV documents (bytes that are not UTF-8 among them). Each run must
end in an exit code of the contract with no exception escaping, and a
successful `--format json` run must print JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satlink import cli, quantities, scenario

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_USAGE, cli.EXIT_INFEASIBLE, cli.EXIT_IO}
HOSTILE = ("nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324", "1e400")
FORMATS = ("table", "json", "csv")


def invoke(argv: list[str], constants: str | None = None) -> tuple[int, str, str]:
    """Run `satlink <argv>` in process; assert the run keeps the CLI contract."""
    saved = os.environ.pop("SATLINK_CONSTANTS", None)
    if constants:
        os.environ["SATLINK_CONSTANTS"] = constants
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    finally:
        os.environ.pop("SATLINK_CONSTANTS", None)
        if saved is not None:
            os.environ["SATLINK_CONSTANTS"] = saved
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    if code == cli.EXIT_OK and "--format=json" in argv:
        json.loads(out.getvalue(), parse_constant=float)
    return code, out.getvalue(), err.getvalue()


# --- hostile flag values -------------------------------------------------------


def _leaf_parsers(parser: argparse.ArgumentParser, prefix: tuple = ()) -> dict:
    """{("convert", "db"): its parser, …} for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                leaf: leaf_parser
                for name, sub in action.choices.items()
                for leaf, leaf_parser in _leaf_parsers(sub, (*prefix, name)).items()
            }
    return {prefix: parser}


LEAVES = _leaf_parsers(cli._build_parser())

# A working argv per subcommand (two for linkbudget's two receiver paths); a
# hostile value replaces the flag's value here or is appended.
BASES = {
    ("convert", "db"): [("--linear", "2")],
    ("convert", "linear"): [("--db", "3")],
    ("convert", "power"): [()],
    ("convert", "noise-temp"): [("--nf-db", "3")],
    ("convert", "wavelength"): [()],
    ("convert", "band"): [("--direction", "uplink")],
    ("convert", "bands"): [()],
    ("geometry", "slant"): [("--altitude-km", "600", "--elevation-deg", "30")],
    ("geometry", "footprint"): [("--sats-per-orbit", "22")],
    ("geometry", "cell"): [("--parent-radius-km", "50", "--beams", "16", "--altitude-km", "500")],
    ("linkbudget",): [
        ("--distance-km", "1000", "--freq-ghz", "2", "--eirp-dbw", "40", "--g-over-t-dbk", "1", "--bw-mhz", "1"),
        ("--altitude-km", "600", "--elevation-deg", "30", "--freq-mhz", "2000", "--power-w", "2", "--gain-dbi", "13",
         "--rx-gain-dbi", "0", "--nf-db", "7", "--bw-khz", "1", "--atm-loss-db", "1", "--ad-loss-db", "1",
         "--margin-db", "3"),
    ],
    ("capacity",): [("--snr-db", "10", "--bw-mhz", "1")],
    ("modcod",): [("--snr-db", "5", "--bw-mhz", "10")],
    ("multibeam",): [("--se", "2", "--bw-ghz", "1.5", "--pol", "2", "--beams", "60", "--colors", "7")],
    ("cost",): [("--rtot-gbps", "46")],
    ("tcp",): [("--mss", "1500", "--rtt-ms", "200", "--ploss", "1e-9")],
    ("antenna", "pattern"): [("--elements", "4", "--resolution-deg", "10")],
    ("antenna", "select"): [("--cell-radius-km", "50", "--altitude-km", "500")],
    ("antenna", "table"): [()],
    ("constellation", "list"): [()],
    ("constellation", "stats"): [("S1",)],
    ("scenario", "run"): [("thales",)],
    ("scenario", "list"): [()],
}


def _quantities(leaf: tuple):
    """Each quantity the subcommand takes in several forms, as a tuple of its
    forms, each a set of flags: the forms its parser holds from cli._COMMANDS."""
    for forms in LEAVES[leaf].get_default("forms"):
        yield tuple({cli._flag(k) for k in form} for form in forms)


def _items(argv) -> list[tuple]:
    """The (flag, value) items of an argv, `--f v` and `--f=v` alike; a positional is (it, None)."""
    items, tokens = [], iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=")
        items.append((name, value if eq else next(tokens)) if token.startswith("--") else (token, None))
    return items


def _with(leaf: tuple, base, flag: str, value: str) -> list[str]:
    """`base` with its quantity of `flag` set only by `flag`, to `value` (as
    `--flag=value`, so "-inf" is not read as an option). Every other flag of
    that quantity, in its unit or another form, is dropped, and a flag that
    completes the form of `flag` (--elevation-deg beside --altitude-km) is
    added, with the value a base of the subcommand gives it."""
    forms = [form for quantity in _quantities(leaf) if any(flag in f for f in quantity) for form in quantity]
    own = set().union(*(form for form in forms if flag in form))
    other = set().union(*(form for form in forms if flag not in form))
    partners = own - other - {flag}
    items = [(f, v) for f, v in _items(base) if f in partners or f not in own | other]
    given = dict(item for argv in BASES[leaf] for item in reversed(_items(argv)))
    items += [(f, given[f]) for f in sorted(partners - {f for f, _ in items}) if f in given]
    return [*(token for f, v in items for token in ((f,) if v is None else (f, v))), f"{flag}={value}"]


# (subcommand, base, flag, formats) for every numeric flag of every subcommand
CASES = [
    (leaf, base, flag, FORMATS if "--format" in parser._option_string_actions else (None,))
    for leaf, parser in LEAVES.items()
    for base in BASES[leaf]
    for flag in (a.option_strings[0] for a in parser._actions if a.option_strings and a.type in (int, float))
]


def test_every_subcommand_has_a_base_argv():
    assert set(BASES) == set(LEAVES)
    assert len(CASES) > 50


# An in-range value of a flag no base sets, where 1 is not one
IN_RANGE = {"--freq-mhz": "2000", "--freq-ghz": "2", "--freq-hz": "2e9"}  # convert band's uplink S band


@pytest.mark.parametrize("leaf, base, flag, formats", CASES, ids=[" ".join([*c[0], c[2]]) for c in CASES])
def test_every_case_reaches_its_handler(leaf, base, flag, formats):
    """At an in-range value (the base's own where it sets the flag) each case
    runs, so a hostile value of it meets the handler, not a usage error."""
    value = dict(_items(base)).get(flag) or IN_RANGE.get(flag, "1")
    code, _, err = invoke([*leaf, *_with(leaf, base, flag, value)])
    assert code == cli.EXIT_OK, err


@settings(max_examples=200)
@given(case=st.sampled_from(CASES), value=st.sampled_from(HOSTILE), data=st.data())
def test_hostile_flag_values(case, value, data):
    leaf, base, flag, formats = case
    fmt = data.draw(st.sampled_from(formats))
    invoke([*leaf, *_with(leaf, base, flag, value), *([f"--format={fmt}"] if fmt else [])])


# --- random documents ------------------------------------------------------------

NUMBERS = st.one_of(
    st.floats(), st.integers(), st.sampled_from([10**400, -(10**400), 1e308, 5e-324, -0.0, True])
)
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _documents(keys, values=NUMBERS | JSON, required=None):
    """JSON text of mappings over `keys` (and a few stray keys)."""
    base = st.fixed_dictionaries(required or {})
    extra = st.dictionaries(st.sampled_from(sorted(keys)) | st.text(max_size=4), values, max_size=8)
    return st.builds(lambda a, b: {**a, **b}, base, extra).map(json.dumps)


CASE = st.dictionaries(st.sampled_from(sorted(scenario._CASE_KEYS)), NUMBERS | st.sampled_from(["dl", "ul"]) | JSON)
SCENARIO_VALUES = NUMBERS | JSON | st.sampled_from(sorted(scenario.TERMINALS)) | st.lists(CASE, max_size=2)
SCENARIOS = _documents(
    scenario._TOP_LEVEL_KEYS,
    SCENARIO_VALUES,
    {"name": st.just("fuzz"), "orbit": st.sampled_from(["LEO", "MEO", "GEO", "HAPS"])},
)
CONFIGS = _documents(cli._BUDGET_KEYS, NUMBERS | JSON | st.sampled_from(sorted(scenario.TERMINALS)))
CONSTANTS = _documents({f.name for f in dataclasses.fields(quantities.PhysicalConstants)})
CELL = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=5))
CATALOGS = st.builds(
    lambda header, rows: "\n".join([header, *(",".join(row) for row in rows)]),
    st.sampled_from(["name,se_bps_hz,snr_qef_db", "name,se", "", "snr_qef_db,name,se_bps_hz,x"]),
    st.lists(st.lists(CELL, max_size=4), max_size=4),
)
BUDGET_FLAGS = ("--nf-db=2", "--freq-mhz=1500", "--altitude-km=500", "--elevation-deg=30", "--bw-mhz=1",
                "--terminal=vsat", "--g-over-t-dbk=1", "--eirp-dbw=40", "--rx-gain-dbi=0")
CONSTANTS_ARGV = (
    ["convert", "wavelength", "--freq-ghz=2"],
    ["geometry", "slant", "--altitude-km=600", "--elevation-deg=30"],
    ["constellation", "stats", "S1"],
    ["scenario", "run", "thales"],
    ["linkbudget", *BASES[("linkbudget",)][1]],
)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document"


@settings(max_examples=150)
@given(
    kind=st.sampled_from(["scenario", "config", "constants", "catalog"]),
    fmt=st.sampled_from(FORMATS),
    data=st.data(),
)
def test_random_documents(document, kind, fmt, data):
    texts = {"scenario": SCENARIOS, "config": CONFIGS, "constants": CONSTANTS, "catalog": CATALOGS}[kind]
    document.write_bytes(data.draw(texts.map(str.encode) | st.binary(max_size=40)))
    path, fmt = str(document), f"--format={fmt}"
    if kind == "scenario":
        invoke(["scenario", "run", path, fmt])
    elif kind == "config":
        flags = data.draw(st.lists(st.sampled_from(BUDGET_FLAGS), max_size=3, unique=True))
        invoke(["linkbudget", f"--config={path}", *flags, fmt])
    elif kind == "constants":
        invoke([*data.draw(st.sampled_from(CONSTANTS_ARGV)), fmt], constants=path)
    else:
        invoke(["modcod", "--snr-db=5", f"--catalog={path}", fmt])
