"""The `satlink` examples of README's CLI section run and exit 0.

Each line of the section's shell block (a trailing backslash joins the
next line) runs through `cli.main` in a temporary directory, so files
named by `--out` land there.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from satlink import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_block_is_found():
    examples = cli_examples()
    assert len(examples) >= 10
    assert all(line.startswith("satlink ") for line in examples)


@pytest.mark.parametrize("line", cli_examples())
def test_readme_cli_example_exits_0(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SATLINK_CONSTANTS", raising=False)
    argv = shlex.split(line)[1:]
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    captured = capsys.readouterr()
    assert captured.err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    else:
        assert captured.out
