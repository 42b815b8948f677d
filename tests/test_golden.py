"""Byte-exact CLI goldens: stdout and exit code of every leaf subcommand.

Each case runs in-process through ``cli.run`` in jsonl, csv and human
format against one shared sieve cache.  The expected stdout lives in
``tests/golden/<case>.<format>`` and the exit codes in
``tests/golden/exit_codes.json``.  After a deliberate output change,
rewrite them with ``PYTHONPATH=src python tests/test_golden.py`` and say
why in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dflab import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
FORMATS = ("jsonl", "csv", "human")
SIEVE_LIMIT = "20000"

CASES = {
    "search-r0": ["search", "--mode", "r0", "--n-max", "400", "--t-max", "3"],
    "search-r1": ["search", "--mode", "r1", "--n-max", "150", "--t-max", "3"],
    "classify": ["classify", "--n", "720", "--a", "5,718,6"],
    "generate-trivial-even": ["generate", "trivial-even", "--evens", "6,4"],
    "generate-trivial-odd": ["generate", "trivial-odd", "--a1", "5", "--evens", "4"],
    "verify-lemma21": ["verify", "lemma21", "--nu-max", "20000"],
    "verify-lemma22": ["verify", "lemma22", "--k-max", "20", "--n-max", "100", "--t-max", "3"],
    "verify-lemma23": ["verify", "lemma23", "--n-max", "150", "--t-max", "3"],
    "verify-lemma23-empty": ["verify", "lemma23", "--n-max", "10"],
    "verify-thm24": ["verify", "thm24", "--k", "2..7", "--x-max", "5000"],
    "verify-val2": [
        "verify", "val2", "--m-max", "5000", "--x-max", "5000", "--k-max", "20",
        "--samples", "200", "--seed", "3",
    ],
    "verify-dusart-y": ["verify", "dusart", "--y", "5000"],
    "verify-dusart-sweep": ["verify", "dusart", "--y-max", "3400"],
    "verify-known-factorials": ["verify", "known-factorials"],
    "bound-thm12ii": ["bound", "thm12ii", "--l1", "5"],
    "bound-ineq3": ["bound", "ineq3", "--k", "10", "--a2", "30", "--m", "1000"],
    "abc-triple": ["abc", "triple", "--a", "1", "--b", "4374"],
    "abc-proof-triple": ["abc", "proof-triple", "--x", "1000", "--j1", "5", "--j2", "2"],
    "abc-scan": ["abc", "scan", "--x", "1000", "--k", "12"],
    "block-analyze": ["block", "analyze", "--x", "24", "--k", "5"],
    "ratio-erdos-graham": ["ratio", "erdos-graham", "--n", "4374"],
    "ratio-erdos-block": ["ratio", "erdos-block", "--x", "24", "--k", "5"],
    "ratio-erdos-block-prime": ["ratio", "erdos-block", "--x", "13", "--k", "3"],
    "gap-witness": ["gap-witness", "--n", "20", "--l", "5"],
}


def run_case(name: str, fmt: str, cache_dir) -> tuple:
    """(exit code, stdout) of one case in one format."""
    argv = CASES[name] + ["--format", fmt, "--sieve-limit", SIEVE_LIMIT, "--cache-dir", str(cache_dir)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-cache")


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads(EXIT_CODES.read_text())


def test_every_case_has_a_golden(exit_codes):
    assert sorted(exit_codes) == sorted(CASES)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, fmt, cache_dir, exit_codes):
    code, out = run_case(name, fmt, cache_dir)
    assert code == exit_codes[name]
    assert out.encode() == (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()


def capture():
    """Rewrite every golden file from the code on the import path."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as cache:
        for name in sorted(CASES):
            for fmt in FORMATS:
                code, out = run_case(name, fmt, cache)
                if codes.setdefault(name, code) != code:
                    raise SystemExit(f"{name}: exit code differs between formats")
                (GOLDEN_DIR / f"{name}.{fmt}").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(capture())
