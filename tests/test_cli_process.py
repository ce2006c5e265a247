"""A `satlink` process ends through `cli.run` as `cli.main` would have it.

`run` flushes stdout and stderr and ends the process without the
interpreter's teardown, so these tests run the CLI as a process and check
that nothing written is lost: a large output arrives whole, and every exit
code comes with the same stdout and stderr that `main` gives in process.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satlink
from satlink import antenna, cli, scenario

SRC = Path(satlink.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"


@pytest.fixture(autouse=True)
def _default_constants(monkeypatch):
    monkeypatch.delenv("SATLINK_CONSTANTS", raising=False)


def satlink_process(*argv, cwd=None, constants=None, **variables) -> subprocess.CompletedProcess:
    """`satlink *argv` as a process, with `variables` set in its environment."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **variables}
    env.pop("SATLINK_CONSTANTS", None)
    if constants:
        env["SATLINK_CONSTANTS"] = constants
    env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as in a user's shell
    return subprocess.run([sys.executable, "-m", "satlink.cli", *argv], capture_output=True, env=env,
                          cwd=cwd, stdin=subprocess.DEVNULL, timeout=120)


class TestLargeOutput:
    """About 7 MB of pattern rows, far more than one buffer, arrive byte for byte."""

    ARGV = ("antenna", "pattern", "--elements", "64", "--resolution-deg", "0.001")

    @pytest.fixture(scope="class")
    def expected(self) -> bytes:
        return antenna.pattern_csv(antenna.ArraySpec.linear(64), 0.001).encode()

    def test_through_a_pipe(self, expected):
        proc = satlink_process(*self.ARGV)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(expected) > 5_000_000
        assert proc.stdout == expected

    def test_to_a_file(self, expected, tmp_path):
        proc = satlink_process(*self.ARGV, "--out", "cut.csv", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert (tmp_path / "cut.csv").read_bytes() == expected


@pytest.mark.parametrize("code, argv", [
    (cli.EXIT_OK, ["convert", "db", "--linear", "2"]),
    (cli.EXIT_DOMAIN, ["convert", "db", "--linear", "-2"]),
    (cli.EXIT_USAGE, ["scenario", "run", "nope.json"]),
    (cli.EXIT_USAGE, []),  # no subcommand: main prints the help and returns
    (cli.EXIT_INFEASIBLE, ["modcod", "--snr-db", "-30"]),
    (cli.EXIT_IO, ["antenna", "pattern", "--elements", "4", "--out", "missing/cut.csv"]),
])
def test_a_process_ends_as_main_returns(code, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    proc = satlink_process(*argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, captured.out, captured.err)


def test_a_missing_constants_file_exits_2(tmp_path):
    proc = satlink_process("convert", "wavelength", "--freq-ghz", "2", cwd=tmp_path, constants="missing.json")
    expected = (cli.EXIT_USAGE, b"", b"error: constants file 'missing.json' not found\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_a_usage_error_keeps_the_normal_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["convert", "db", "--linear", "two"])
    captured = capsys.readouterr()
    proc = satlink_process("convert", "db", "--linear", "two")
    assert exc.value.code == cli.EXIT_USAGE
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (exc.value.code, "", captured.err)


def test_a_warning_reaches_stderr():
    proc = satlink_process("tcp", "--mss", "1460", "--rtt-ms", "50", "--ploss", "0.01", "--c", "1.8")
    assert proc.returncode == cli.EXIT_OK
    assert b"UserWarning: C=1.8 is outside the typical 1-1.5 range" in proc.stderr
    assert b"throughput_bps" in proc.stdout


def test_the_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    target = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]["satlink"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


# A scenario of text that a table line or UTF-8 cannot carry as it is: C1 controls (under
# str.splitlines, \x85 ends a line; \x9b is an 8-bit CSI), line and paragraph separators,
# and lone surrogates, which are valid JSON.
UNCARRIED = {
    "name": "x\x85y",
    "orbit": "LEO",
    "description": "one\u2028two\u2029three",
    "altitude_km": 550.0,
    "elevation_deg": 45.0,
    "annotations": ["csi \x9b31m", "lone \ud800", "escaped \udc80"],
    "cases": [{"direction": "dl", "label": "edge \udcff", "sinr_db": 3.0, "bw_mhz": 1.0}],
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("stdout", [
    {"PYTHONIOENCODING": "utf-8:strict"},
    {"PYTHONIOENCODING": "", "PYTHONUTF8": "1"},  # UTF-8 mode writes a surrogate escape as its raw byte
], ids=["strict", "utf8-mode"])
def test_text_a_table_line_or_utf8_cannot_carry_is_written_as_its_escape(fmt, stdout, tmp_path):
    (tmp_path / "uncarried.json").write_text(json.dumps(UNCARRIED))
    proc = satlink_process("scenario", "run", "uncarried.json", "--format", fmt, cwd=tmp_path, **stdout)
    assert (proc.returncode, proc.stderr) == (0, b"")
    out = proc.stdout.decode("utf-8")  # strictly: every byte written is UTF-8
    findings = scenario.run_scenario(scenario.load_scenario(UNCARRIED)).findings
    if fmt == "json":  # JSON escapes every character it must, and reads back the raw text
        assert json.loads(out)["scenario"] == UNCARRIED
        return
    if fmt == "csv":  # the raw text, but for each lone surrogate
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert len(rows) == 1 + len(findings)
        assert {row[2] for row in rows[1:]} == {"", "edge \\udcff"}
        return
    # scenario, about, slant range, three notes and a blank line; a header and one line per finding
    lines = out.splitlines()
    assert len(lines) == 7 + 1 + len(findings)
    assert lines[:2] == ["scenario  x\\x85y (LEO)", "about     one\\u2028two\\u2029three"]
    assert lines[3:7] == ["note      csi \\x9b31m", "note      lone \\ud800", "note      escaped \\udc80", ""]
    assert sum("edge \\udcff" in line for line in lines[8:]) == 2
    assert not any(0x80 <= ord(c) < 0xA0 or c in "\u2028\u2029" for c in out)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_text_the_stdout_encoding_cannot_carry_is_written_as_its_escape(fmt, tmp_path, monkeypatch, capsys):
    """Under an ASCII stdout, "café" is written as "caf\\xe9", and a table is
    laid out as for that escaped text; JSON escapes it as "\\u00e9" itself."""
    doc = {"name": "café", "orbit": "LEO", "altitude_km": 550.0, "elevation_deg": 45.0,
           "cases": [{"direction": "dl", "label": "café", "sinr_db": 3.0, "bw_mhz": 1.0}]}
    (tmp_path / "cafe.json").write_text(json.dumps(doc))
    proc = satlink_process("scenario", "run", "cafe.json", "--format", fmt, cwd=tmp_path, PYTHONIOENCODING="ascii")
    assert (proc.returncode, proc.stderr) == (0, b"")
    out = proc.stdout.decode("ascii")
    if fmt == "json":
        assert json.loads(out)["scenario"] == doc
        return
    # the same scenario, named "caf\xe9" in ASCII, as main writes it in process
    (tmp_path / "escaped.json").write_text(json.dumps(doc).replace("\\u00e9", "\\\\xe9"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["scenario", "run", "escaped.json", "--format", fmt]) == cli.EXIT_OK
    assert out == capsys.readouterr().out
    assert out.count("caf\\xe9") == (3 if fmt == "table" else 2)
