"""Golden help: the `--help` and usage text of every node of the parser tree.

`golden/help.json` maps each node's argv prefix ("" for the root, "convert",
"convert db", …) to its help and usage text at a terminal width of 80
columns. A change to how the parser is built must leave every text as it
is; a change to a flag or a help string re-captures the file.

`python tests/test_cli_help.py` rewrites it from the code it imports.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from satlink import cli

GOLDEN = Path(__file__).parent / "golden" / "help.json"


def _nodes(parser: argparse.ArgumentParser, prefix: tuple = ()):
    """(argv prefix, parser) for the root, every group and every leaf, in tree order."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _nodes(sub, (*prefix, name))


def help_texts() -> dict:
    """{argv prefix: {"help": …, "usage": …}} for every parser node, at 80 columns."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    try:
        return {
            " ".join(prefix): {"help": parser.format_help(), "usage": parser.format_usage()}
            for prefix, parser in _nodes(cli._build_parser())
        }
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved


def test_every_node_is_pinned():
    texts = help_texts()
    groups = {name for name in texts for other in texts if other.startswith(f"{name} ")}
    assert len(texts) == 29 and len(groups) == 5  # the root, 5 groups and 23 leaves
    assert list(texts) == list(json.loads(GOLDEN.read_text()))


def test_help_and_usage_texts():
    expected = json.loads(GOLDEN.read_text())
    diffs = [(name, texts) for name, texts in help_texts().items() if texts != expected.get(name)]
    assert not diffs, "\n".join(f"{name!r}\n  want {expected.get(name)}\n  got  {texts}" for name, texts in diffs[:3])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(help_texts(), indent=1) + "\n")
