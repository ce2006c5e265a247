"""A `satlink` process ends through `cli.run` as `cli.main` would have it.

`run` flushes stdout and stderr and ends the process without the
interpreter's teardown, so these tests run the CLI as a process and check
that nothing written is lost: a large output arrives whole, and every exit
code comes with the same stdout and stderr that `main` gives in process.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satlink
from satlink import antenna, cli

SRC = Path(satlink.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"


@pytest.fixture(autouse=True)
def _default_constants(monkeypatch):
    monkeypatch.delenv("SATLINK_CONSTANTS", raising=False)


def satlink_process(*argv, cwd=None, constants=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
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
