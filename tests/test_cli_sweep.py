"""Full sweep of the CLI's numeric flags, in both spellings of a value.

`test_cli_fuzz.py` samples its flag cases and writes each value as
`--flag=value`. This runs every case with every hostile value in every
format, once as `--flag=value` and once as `--flag value`. Both spellings
must keep the CLI contract and give the same run.
"""

from __future__ import annotations

import pytest

from test_cli_fuzz import CASES, HOSTILE, _with, invoke

VALUES = (*HOSTILE, "-1e3", "-2.5E-3")


@pytest.mark.parametrize("leaf", sorted({case[0] for case in CASES}), ids="-".join)
def test_every_flag_value_in_both_forms(leaf):
    for _, base, flag, formats in (case for case in CASES if case[0] == leaf):
        for value in VALUES:
            for fmt in formats:
                argv = _with(leaf, base, flag, value)  # ends in f"{flag}={value}"
                tail = [f"--format={fmt}"] if fmt else []
                joined = invoke([*leaf, *argv, *tail])
                separate = invoke([*leaf, *argv[:-1], flag, value, *tail])
                assert separate == joined, (leaf, base, flag, value, fmt)
