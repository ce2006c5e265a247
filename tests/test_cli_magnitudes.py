"""Sweep of magnitudes through the CLI's numeric flags and constants.

The hostile values of `test_cli_fuzz.py` (nan, +-inf, 0, +-1e308, 5e-324,
1e400) are all stopped by the first range guard they meet, so they never
reach the band where a value passes every guard and a formula then
overflows (a square above ~1.3e154, an exponential above ~709). This runs
every numeric flag case at +-1e{k} for k = -320 ... 304 in steps of 8 (the
formats of a case in turn), and
every leaf's complete argv (`test_constants_readers.ARGVS`) under a
SATLINK_CONSTANTS file that sets one constant to an extreme value. Each run
must keep the CLI contract: an exit code of the contract and no exception
escaping. A constants run must also reach a formula, so none ends in a usage
error.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from satlink import cli, quantities
from test_cli_fuzz import CASES, _with, invoke
from test_constants_readers import ARGVS

MAGNITUDES = tuple(f"{sign}1e{k}" for k in range(-320, 309, 8) for sign in ("", "-"))
CONSTANT_VALUES = (1.7976931348623157e308, 1e300, 1e154, 5e-324, 1e-300)
CONSTANT_NAMES = tuple(f.name for f in dataclasses.fields(quantities.PhysicalConstants))


@pytest.mark.parametrize("leaf", sorted({case[0] for case in CASES}), ids="-".join)
def test_every_flag_at_every_magnitude(leaf):
    for _, base, flag, formats in (case for case in CASES if case[0] == leaf):
        for i, value in enumerate(MAGNITUDES):
            fmt = formats[i % len(formats)]  # each format in turn
            invoke([*leaf, *_with(leaf, base, flag, value), *([f"--format={fmt}"] if fmt else [])])


@pytest.mark.parametrize("name", CONSTANT_NAMES)
def test_every_base_under_an_extreme_constant(name, tmp_path):
    path = tmp_path / "constants.json"
    for value in CONSTANT_VALUES:
        path.write_text(json.dumps({name: value}))
        for leaf, argvs in ARGVS.items():
            for argv in argvs:
                code, _, err = invoke([*leaf, *argv], constants=str(path))
                assert code != cli.EXIT_USAGE, (leaf, argv, name, value, err)
