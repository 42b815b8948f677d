"""The narrow parser reads as the full one, and a well-formed command loads no argparse.

cli.run reads a well-formed argv with its narrow parser, cli._read, straight
from COMMANDS; every other argv, help and usage errors included, goes to
the full argparse parser.  A namespace the narrow parser returns is the
one argparse gives.  The cases below pin stdout, stderr and the exit code
of the help texts and usage errors, which argparse reports.
``tests/parser_golden.json`` holds them as captured from the parser that
built every leaf on every call; argparse's wording varies between Python
versions, so they are compared only under the version that captured them.
Recapture with ``PYTHONPATH=src python tests/test_parser.py``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from dflab import cli
from test_golden import CASES as GOLDEN_CASES, FORMATS, SIEVE_LIMIT

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

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


def golden_argvs(cache_dir) -> dict:
    """Each golden case's argv in each format, by case and format."""
    tail = ["--sieve-limit", SIEVE_LIMIT, "--cache-dir", str(cache_dir)]
    return {
        f"{name}.{fmt}": argv + ["--format", fmt] + tail
        for name, argv in GOLDEN_CASES.items()
        for fmt in FORMATS
    }


@pytest.fixture(scope="module")
def full_parser():
    return cli.build_parser()


def check_read(parser, argv) -> bool:
    """Whether the narrow parser reads argv; if it does, argparse must give the same namespace."""
    read = cli._read(argv)
    if read is None:
        return False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parsed = cli._parse(parser, list(argv))
    assert vars(read) == {key: value for key, value in vars(parsed).items() if key != "usage_error"}
    return True


def test_every_golden_argv_is_read_without_argparse(full_parser, tmp_path):
    for argv in golden_argvs(tmp_path).values():
        assert check_read(full_parser, argv), argv


def test_well_formed_commands_never_import_argparse(tmp_path):
    # in one fresh interpreter, every golden argv in turn; it exits naming
    # the first after which argparse is loaded
    script = (
        "import contextlib, io, json, sys\n"
        "from dflab import cli\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.run(argv)\n"
        "    if 'argparse' in sys.modules:\n"
        "        sys.exit(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    argvs = json.dumps(golden_argvs(tmp_path))
    res = subprocess.run([sys.executable, "-c", script, argvs], capture_output=True, text=True, env=env)
    assert (res.returncode, res.stderr) == (0, "")


# values any flag may be given: in and out of each flag's domain, negative ones included
VALUES = st.one_of(
    st.integers(-3, 3000).map(str),
    st.sampled_from([
        "", "1_000", " 7", "+5", "0", "-5", "r0", "r1", "r2", "jsonl", "csv", "human", "xml",
        "2..7", "7..2", "3", "2,5,7", "5,718,6", "6,4", "4", "a..b", "five", "cache", "-h",
        "--help", "-2..7", "-1,5", "-cache",
    ]),
)
# values a flag's type takes, by type; an int flag's otherwise
VALID = {
    cli._parse_int_list: st.sampled_from(["", "4", "6,4", "5,718,6"]),
    cli._parse_k_range: st.sampled_from(["2..7", "3", "2,5,7"]),
    Path: st.sampled_from(["cache", "a b", ""]),
}


@pytest.mark.parametrize("path", list(cli.COMMANDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_what_the_narrow_parser_reads_argparse_reads_the_same(path, full_parser, data):
    flags, pairs = [], []
    for names, kind, _, required, choices in cli._specs(cli.COMMANDS[path].flags):
        flags += names
        if required or data.draw(st.booleans()):
            valid = st.sampled_from(choices) if choices else VALID.get(kind, st.integers(0, 3000).map(str))
            value = data.draw(valid if data.draw(st.integers(0, 7)) else VALUES)
            pairs.append([data.draw(st.sampled_from(names)), value])
    pairs = data.draw(st.permutations(pairs))
    # then, sometimes, what argparse must judge: help, an unknown or repeated
    # flag, an = form, an abbreviation, a stray or missing value, a dropped pair
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        flag, value = data.draw(st.sampled_from(flags)), data.draw(VALUES)
        where = data.draw(st.integers(0, len(pairs)))
        pairs[where:where] = [data.draw(st.sampled_from([
            ["-h"], ["--bogus", value], [flag, value], [f"{flag}={value}"], [flag[:-1], value],
            [value], [flag],
        ]))]
        if pairs and data.draw(st.booleans()):
            del pairs[data.draw(st.integers(0, len(pairs) - 1))]
    argv = path.split() + [token for pair in pairs for token in pair]
    event("read" if check_read(full_parser, argv) else "left to argparse")


def capture():
    """Rewrite the golden file from the code on the import path."""
    os.environ["COLUMNS"] = COLUMNS
    cases = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    payload = {"python": list(sys.version_info[:2]), "cases": cases}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(capture())
