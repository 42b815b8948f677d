"""The parser a command builds for itself reads the same as the full one.

cli.run builds only the leaf that argv names (every group and top-level
name is still declared).  These cases pin stdout, stderr and the exit code
of the help texts and usage errors that such a narrow build could alter.
``tests/parser_golden.json`` holds them as captured from the parser that
built every leaf on every call; argparse's wording varies between Python
versions, so they are compared only under the version that captured them.
Recapture with ``PYTHONPATH=src python tests/test_parser.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from dflab import cli

GOLDEN = Path(__file__).resolve().parent / "parser_golden.json"
COLUMNS = "80"  # argparse wraps help to the terminal width

CASES = {
    "top-help": ["--help"],
    "no-args": [],
    "generate-help": ["generate", "--help"],
    "verify-help": ["verify", "--help"],
    "bound-help": ["bound", "--help"],
    "abc-help": ["abc", "--help"],
    "block-help": ["block", "--help"],
    "ratio-help": ["ratio", "--help"],
    "leaf-help": ["verify", "dusart", "--help"],
    "top-leaf-help": ["search", "--help"],
    "unknown-command": ["frobnicate"],
    "partial-command": ["verify"],
    "unknown-leaf": ["verify", "nope"],
    "leaf-missing-flag": ["bound", "thm12ii"],
    "leaf-bad-value": ["bound", "thm12ii", "--l1", "five"],
    "unrecognized-argument": ["bound", "thm12ii", "--l1", "5", "--bogus"],
}


def run_case(argv, parse=None) -> dict:
    """Exit code, stdout and stderr of parsing argv (with cli.run, or with parse)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if parse is None:
            code = cli.run(list(argv))
        else:
            try:
                parse(list(argv))
                code = None
            except SystemExit as exc:
                code = int(exc.code or 0)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_narrow_parser_reads_as_the_full_one(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    got = run_case(CASES[name])
    full = run_case(CASES[name], lambda argv: cli._parse(cli.build_parser(), argv))
    assert got == full
    golden = json.loads(GOLDEN.read_text())
    if golden["python"] == list(sys.version_info[:2]):
        assert got == golden["cases"][name]


def test_parser_builds_only_the_named_leaf():
    def leaves(parser):
        found = []
        for action in parser._subparsers._group_actions:
            for name, sub in action.choices.items():
                if sub._subparsers is not None:
                    found += [f"{name} {leaf}" for leaf in leaves(sub)]
                elif sub.get_default("leaf") is not None:
                    found.append(name)
        return found

    assert leaves(cli.build_parser()) == list(cli.COMMANDS)
    assert leaves(cli.build_parser(["verify"])) == list(cli.COMMANDS)
    assert leaves(cli.build_parser(["verify", "dusart", "--y", "5000"])) == ["verify dusart"]
    assert leaves(cli.build_parser(["gap-witness", "--n", "20"])) == ["gap-witness"]


def capture():
    """Rewrite the golden file from the code on the import path."""
    os.environ["COLUMNS"] = COLUMNS
    cases = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    payload = {"python": list(sys.version_info[:2]), "cases": cases}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(capture())
