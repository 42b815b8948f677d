import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from dflab import cli, core
from dflab.cli import (
    CACHE_ENV_VAR,
    CommandConfig,
    load_or_build_sieve,
    run,
)
from oracles import block_lpf_violators, df_direct, spf_direct, trial_factor
from test_golden import CASES as GOLDEN_CASES, GOLDEN_DIR

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_inproc(argv, tmp_path, capsys):
    code = run(list(argv) + ["--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def proc_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_ENV_VAR] = str(cache_dir)
    return env


def run_proc(argv, cache_dir, extra_env=None):
    env = proc_env(cache_dir)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "dflab"] + list(argv),
        capture_output=True,
        text=True,
        env=env,
    )


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line]


def test_search_outputs_solution(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["search", "--mode", "r0", "--n-max", "20", "--t-max", "2", "--sieve-limit", "100"],
        tmp_path,
        capsys,
    )
    assert code == 0
    recs = parse_jsonl(out)
    assert len(recs) == 1
    assert recs[0]["kind"] == "solution"
    assert recs[0]["schema_version"] == 1
    assert recs[0]["payload"]["n"] == 8
    assert recs[0]["payload"]["a"] == [6, 4]
    assert recs[0]["payload"]["classification"] == "trivial-even"


def test_verify_lemma21_passes(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "lemma21", "--nu-max", "5000", "--sieve-limit", "5000"], tmp_path, capsys
    )
    assert code == 0
    recs = parse_jsonl(out)
    assert [r["payload"]["name"] for r in recs] == [
        "theta_linear_upper",
        "mertens_log_sum_upper",
    ]
    assert all(r["payload"]["passed"] for r in recs)
    assert all(r["payload"]["margin"] > 0 for r in recs)


def test_verify_thm24_reports_uncatalogued_pair(tmp_path, capsys):
    # (15, 2) violates the bound but is not in the catalogued exception
    # set, so the verification honestly fails
    code, out, _ = run_inproc(
        ["verify", "thm24", "--k", "2", "--x-max", "300", "--sieve-limit", "1000"],
        tmp_path,
        capsys,
    )
    assert code == 1
    rec = parse_jsonl(out)[0]
    assert rec["payload"]["counterexamples"] == [[15, 2]]


def test_verify_known_factorials(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "known-factorials", "--sieve-limit", "10"], tmp_path, capsys
    )
    assert code == 0
    rec = parse_jsonl(out)[0]
    assert rec["payload"]["all_hold"] is True
    assert len(rec["payload"]["identities"]) == 5


def test_verify_known_factorials_fails_on_a_false_identity(tmp_path, capsys, monkeypatch):
    from dflab import formulas
    monkeypatch.setattr(formulas, "KNOWN_FACTORIAL_IDENTITIES", (("3!*3! = 4!", (3, 3), 4),))
    code, out, _ = run_inproc(["verify", "known-factorials"], tmp_path, capsys)
    assert code == 1
    identities = [{"holds": False, "identity": "3!*3! = 4!"}]
    assert parse_jsonl(out)[0]["payload"] == {"all_hold": False, "identities": identities}


def test_verify_dusart_single(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "dusart", "--y", "3275", "--sieve-limit", "5000"], tmp_path, capsys
    )
    assert code == 0
    rec = parse_jsonl(out)[0]
    assert rec["payload"]["details"]["witness"] == 3271


def test_classify_and_generate(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["classify", "--n", "120", "--a", "118,5,4", "--sieve-limit", "200"], tmp_path, capsys
    )
    assert code == 0
    assert parse_jsonl(out)[0]["payload"]["classification"] == "trivial-odd"
    # an n at --sieve-limit is generated; one past it is refused (GENERATE_ERRORS)
    code, out, _ = run_inproc(
        ["generate", "trivial-even", "--evens", "6,4", "--sieve-limit", "384"],
        tmp_path,
        capsys,
    )
    assert code == 0
    payload = parse_jsonl(out)[0]["payload"]
    assert payload["n"] == 384 and payload["a"] == [382, 6, 4]


# argv and the end of its stderr
GENERATE_ERRORS = [
    # the generator runs before the table is asked for, so before the memory guard
    (
        ["generate", "trivial-even", "--evens", "5", "--sieve-limit", str(10**12)],
        "dflab: values must be even and >= 4, got 5",
    ),
    # an n past --sieve-limit, which no table of the limit could classify:
    # n = 117964800 at the default limit, refused by its log, and n = 960
    (
        ["generate", "trivial-even", "--evens", "10,10,4"],
        "dflab: generated n would exceed the configured bound 1000000",
    ),
    (
        ["generate", "trivial-odd", "--a1", "5", "--evens", "4", "--sieve-limit", "959"],
        "dflab: generated n = 960 exceeds the configured bound 959",
    ),
    # --sieve-limit bounds n, and --max-n is gone
    (["generate", "trivial-odd", "--a1", "5", "--max-n", "5"], "unrecognized arguments: --max-n 5"),
    (["generate", "trivial-even", "--evens", "6", "--max-n", "5"], "unrecognized arguments: --max-n 5"),
]


@pytest.mark.parametrize(
    "argv, message", GENERATE_ERRORS, ids=[" ".join(a) for a, _ in GENERATE_ERRORS]
)
def test_generate_argument_errors_exit_2_before_any_table(argv, message, tmp_path, capsys):
    code, out, err = run_inproc(argv, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"{message}\n"), err
    assert not (tmp_path / "cache").exists()


def test_classify_refuses_a_malformed_candidate_before_any_table(tmp_path, capsys):
    # n = 10^6 would read the cache, but one part is no candidate
    code, out, err = run_inproc(["classify", "--n", "1000000", "--a", "5"], tmp_path, capsys)
    assert (code, out, err) == (2, "", "dflab: need at least two parts (t >= 2)\n")
    assert not (tmp_path / "cache").exists()


# Table-reading commands whose reads would reach past the in-memory bound,
# so would load the cache, each with an argument the library refuses, and
# the end of its stderr
REFUSED_BEFORE_ANY_READ = [
    (["block", "analyze", "--x", "900000", "--k", "0"], "block length must be >= 1, got 0"),
    (["search", "--mode", "r1", "--n-max", "300000", "--t-max", "1"], "mode r1 needs t_max >= 3, got 1"),
    (["abc", "proof-triple", "--x", "900000", "--j1", "1", "--j2", "3"], "need j2 < j1, got j1=1, j2=3"),
    (["abc", "scan", "--x", "900000", "--k", "1"], "k must be >= 2, got 1"),
    (["verify", "lemma22", "--k-max", "2", "--n-max", "300000"], "k_max must be >= 3 for any block 2 <= x < k, got 2"),
    (["verify", "lemma23", "--n-max", "300000", "--t-max", "2"], "mode r1 needs t_max >= 3, got 2"),
    (["ratio", "erdos-block", "--x", "900000", "--k", "1"], "block length must be >= 2, got 1"),
    (["gap-witness", "--n", "900001", "--l", "2"], "n must be even, got 900001"),
]


@pytest.mark.parametrize(
    "argv, message", REFUSED_BEFORE_ANY_READ, ids=[" ".join(a) for a, _ in REFUSED_BEFORE_ANY_READ]
)
def test_refused_arguments_exit_2_before_any_table_is_built(argv, message, tmp_path, capsys):
    code, out, err = run_inproc(argv, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"{message}\n"), err
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["verify", "dusart", "--y", "5000"], ["--node-budget", "5"]),
        (["bound", "thm12ii", "--l1", "5"], ["--bogus"]),
        (["search", "--mode", "r1", "--n-max", "50", "--t-max", "3"], ["--nu-max", "5"]),
    ],
    ids=["verify-dusart", "bound-thm12ii", "search"],
)
def test_an_unrecognized_argument_is_the_leaf_usage_error(argv, extra, tmp_path, capsys):
    path = next(p for p in cli.COMMANDS if argv[: p.count(" ") + 1] == p.split())
    code, out, err = run_inproc(argv + extra, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: dflab {path} [-h]"), err
    assert err.endswith(f"\ndflab {path}: error: unrecognized arguments: {' '.join(extra)}\n"), err


def test_verify_lemma22_geometry_and_sandwich(tmp_path, capsys):
    code, out, _ = run_inproc(
        [
            "verify", "lemma22", "--k-max", "20", "--n-max", "100", "--t-max", "3",
            "--sieve-limit", "500",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    recs = parse_jsonl(out)
    assert recs[0]["payload"]["name"] == "all_composite_block_geometry"
    assert recs[0]["payload"]["passed"]
    # one sandwich record per all-even solution with n <= 100 (n = 8, 48, 64)
    assert len(recs) == 4
    assert all(r["payload"]["passed"] for r in recs)


def test_verify_lemma23_sandwich_on_odd_solutions(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "lemma23", "--n-max", "150", "--t-max", "3", "--sieve-limit", "500"],
        tmp_path,
        capsys,
    )
    assert code == 0
    recs = parse_jsonl(out)
    assert len(recs) == 7  # solutions at n = 12, 20, 24, 30, 72, 120, 144
    assert all(r["payload"]["passed"] for r in recs)


def test_verify_lemma23_empty_range(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "lemma23", "--n-max", "10", "--t-max", "3", "--sieve-limit", "100"],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert parse_jsonl(out)[0]["payload"]["checked"] == 0


def test_verify_val2(tmp_path, capsys):
    code, out, _ = run_inproc(
        [
            "verify", "val2", "--m-max", "10000", "--x-max", "2000", "--k-max", "20",
            "--samples", "200", "--seed", "5", "--sieve-limit", "3000",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    recs = parse_jsonl(out)
    assert [r["payload"]["name"] for r in recs] == [
        "factorial_power_of_two_lower",
        "block_power_of_two_upper_sweep",
    ]
    assert all(r["payload"]["passed"] for r in recs)


def test_verify_dusart_sweep_hits_gap_edge(tmp_path, capsys):
    # the sweep covers the four y where the narrow interval is empty, so
    # the verification honestly fails there
    code, out, _ = run_inproc(
        ["verify", "dusart", "--y-max", "3300", "--sieve-limit", "5000"], tmp_path, capsys
    )
    assert code == 1
    rec = parse_jsonl(out)[0]
    assert [pair[0] for pair in rec["payload"]["counterexamples"]] == [3296, 3297, 3298, 3299]
    code, out, _ = run_inproc(
        ["verify", "dusart", "--y-max", "3290", "--sieve-limit", "5000"], tmp_path, capsys
    )
    assert code == 0


def test_verify_dusart_single_y_and_sweep_are_exclusive(tmp_path, capsys):
    # --y 5000 used to check y = 5000 alone and exit 0, dropping a sweep
    # that fails at y = 3296..3299
    code, out, err = run_inproc(
        ["verify", "dusart", "--y", "5000", "--y-max", "3400", "--sieve-limit", "5000"],
        tmp_path,
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err
    code, out, err = run_inproc(["verify", "dusart", "--sieve-limit", "5000"], tmp_path, capsys)
    assert code == 2
    assert out == ""


def test_verify_thm24_names_only_the_k_it_scanned(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["verify", "thm24", "--k", "2..20", "--x-max", "50", "--sieve-limit", "1000"],
        tmp_path,
        capsys,
    )
    assert code == 1
    rec = parse_jsonl(out)[0]
    assert rec["payload"]["domain_checked"] == "k in [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], 4k < x <= 50"


def test_classify_non_solution_is_usage_error(tmp_path, capsys):
    code, _, err = run_inproc(
        ["classify", "--n", "10", "--a", "6,4", "--sieve-limit", "100"], tmp_path, capsys
    )
    assert code == 2
    assert "does not satisfy" in err


def test_abc_and_ratio_commands(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["abc", "triple", "--a", "1", "--b", "4374", "--sieve-limit", "5000"], tmp_path, capsys
    )
    assert code == 0
    payload = parse_jsonl(out)[0]["payload"]
    assert payload["rad"] == 210 and payload["c"] == 4375
    code, out, _ = run_inproc(
        ["ratio", "erdos-block", "--x", "13", "--k", "3", "--sieve-limit", "100"],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert parse_jsonl(out)[0]["payload"]["ratio"] is None


def test_block_analyze_and_gap_witness(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["block", "analyze", "--x", "9", "--k", "2", "--sieve-limit", "100"], tmp_path, capsys
    )
    assert code == 0
    payload = parse_jsonl(out)[0]["payload"]
    assert payload["lpf"] == 5 and payload["term_radicals"] == [3, 10]
    code, out, _ = run_inproc(
        ["gap-witness", "--n", "20", "--l", "5", "--sieve-limit", "100"], tmp_path, capsys
    )
    assert code == 0
    assert parse_jsonl(out)[0]["payload"]["witness"] == 13


def test_bound_evaluators(tmp_path, capsys):
    code, out, _ = run_inproc(
        ["bound", "thm12ii", "--l1", "1", "--sieve-limit", "10"], tmp_path, capsys
    )
    assert code == 0
    assert abs(parse_jsonl(out)[0]["payload"]["a1_upper_bound"] - 12.7817) < 1e-3
    code, out, _ = run_inproc(
        ["bound", "ineq3", "--k", "10", "--a2", "3", "--m", "1000000000", "--sieve-limit", "10"],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert parse_jsonl(out)[0]["payload"]["holds"] is False


def test_node_budget_exit_code(tmp_path, capsys):
    code, _, err = run_inproc(
        [
            "search", "--mode", "r1", "--n-max", "400", "--t-max", "3",
            "--sieve-limit", "500", "--node-budget", "50",
        ],
        tmp_path,
        capsys,
    )
    assert code == 3
    assert "node budget of 50 candidates; the last fully searched n is 20" in err


VAL2_EMPTY = "empty sweep: need x_max >= 2, k_max >= 1 and samples >= 1"


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["verify", "dusart", "--y-max", "100"],
            "the interval statement needs y >= 3275, got y_max=100",
            id="dusart",
        ),
        pytest.param(["verify", "thm24", "--x-max", "5"], "empty scan: no x with 4k < x <= 5", id="thm24"),
        pytest.param(["verify", "thm24", "--k", "7..2"], "k range '7..2' is empty", id="thm24-k"),
        pytest.param(["verify", "val2", "--x-max", "1"], VAL2_EMPTY, id="val2-x"),
        pytest.param(["verify", "val2", "--k-max", "0"], VAL2_EMPTY, id="val2-k"),
        pytest.param(["verify", "val2", "--samples", "0"], VAL2_EMPTY, id="val2-n"),
        pytest.param(
            ["verify", "lemma22", "--k-max", "2"],
            "empty scan: k_max must be >= 3 for any block 2 <= x < k, got 2",
            id="lemma22",
        ),
        # beyond the sieve: refused before the sweep
        pytest.param(
            ["verify", "dusart", "--y-max", "6000"],
            "y_max=6000 exceeds sieve limit 5000",
            id="dusart-limit",
        ),
    ],
)
def test_verify_sweep_domain_is_checked_first(tmp_path, capsys, argv, message):
    code, out, err = run_inproc(argv + ["--sieve-limit", "5000"], tmp_path, capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_verify_val2_reads_no_sieve_whatever_its_limit(tmp_path, capsys):
    # its blocks pass --sieve-limit 5000, which a sieve-reading command refuses
    argv = ["verify", "val2", "--x-max", "5000", "--samples", "20"]
    code, out, err = run_inproc(argv + ["--sieve-limit", "5000"], tmp_path, capsys)
    assert (code, err) == (0, "")
    assert run_inproc(argv + ["--sieve-limit", "20000"], tmp_path, capsys) == (0, out, "")
    assert len(parse_jsonl(out)) == 2


def test_verify_lemmas_honour_node_budget(tmp_path, capsys):
    for argv in (["verify", "lemma22", "--k-max", "5"], ["verify", "lemma23"]):
        code, out, err = run_inproc(
            argv + ["--n-max", "100", "--sieve-limit", "500", "--node-budget", "10"],
            tmp_path,
            capsys,
        )
        assert code == 3, argv
        assert "node budget" in err
        assert out == ""


def test_a_node_budget_below_1_is_refused_before_any_table(tmp_path, capsys):
    for argv in (["search", "--mode", "r0", "--t-max", "3"], ["verify", "lemma22"], ["verify", "lemma23"]):
        code, out, err = run_inproc(argv + ["--n-max", "1000000", "--node-budget", "0"], tmp_path, capsys)
        assert (code, out) == (2, ""), argv
        assert err.endswith("error: argument --node-budget: must be >= 1, got 0\n"), err
        assert not (tmp_path / "cache").exists()


# the leaves that declare no --node-budget: all but the three that search
# (tests/test_package.py pins which those are)
@pytest.mark.parametrize("path", [p for p, c in cli.COMMANDS.items() if "--node-budget" not in c.flags])
def test_leaves_that_run_no_search_refuse_a_node_budget(path, tmp_path, capsys):
    argv = next(a for a in GOLDEN_CASES.values() if a[: path.count(" ") + 1] == path.split())
    code, out, err = run_inproc(argv + ["--node-budget", "5"], tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --node-budget 5\n"), err


def test_search_to_a_million_exits_3_at_its_budget(tmp_path, capsys):
    # the search sizes no table, so only the node budget bounds a search to 10^6
    argv = ["search", "--mode", "r0", "--n-max", "1000000", "--t-max", "3"]
    start = time.perf_counter()
    code, out, err = run_inproc(argv + ["--node-budget", "1000"], tmp_path, capsys)
    assert time.perf_counter() - start < 30  # sieving 10^6 included
    assert code == 3
    assert "node budget of 1000 candidates; the last fully searched n is 654" in err
    assert out == ""


def test_csv_matches_jsonl_field_for_field(tmp_path, capsys):
    argv = ["search", "--mode", "r1", "--n-max", "200", "--t-max", "3", "--sieve-limit", "300"]
    code, out_j, _ = run_inproc(argv + ["--format", "jsonl"], tmp_path, capsys)
    assert code == 0
    code, out_c, _ = run_inproc(argv + ["--format", "csv"], tmp_path, capsys)
    assert code == 0
    json_recs = parse_jsonl(out_j)
    rows = list(csv.DictReader(io.StringIO(out_c)))
    assert len(rows) == len(json_recs)
    for row, rec in zip(rows, json_recs):
        assert row["kind"] == rec["kind"]
        for key, value in rec["payload"].items():
            cell = row[f"payload.{key}"]
            if isinstance(value, (dict, list)):
                assert json.loads(cell) == value
            elif value is None:
                assert cell in ("", "None") or json.loads(cell) is None
            else:
                assert str(value) == cell


def test_human_format_smoke(tmp_path, capsys):
    code, out, _ = run_inproc(
        [
            "search", "--mode", "r0", "--n-max", "20", "--t-max", "2",
            "--sieve-limit", "100", "--format", "human",
        ],
        tmp_path,
        capsys,
    )
    assert code == 0
    assert "solution n=8" in out and "trivial-even" in out


def test_usage_errors_in_subprocess(tmp_path):
    assert run_proc(["definitely-not-a-command"], tmp_path).returncode == 2
    assert run_proc(["search", "--mode", "r5", "--n-max", "10", "--t-max", "2"], tmp_path).returncode == 2
    assert run_proc(["--help"], tmp_path).returncode == 0
    assert run_proc(["search", "--help"], tmp_path).returncode == 0
    assert run_proc(["verify", "--help"], tmp_path).returncode == 0


def test_run_leaves_the_collector_unfrozen(tmp_path, capsys):
    # the bench and the tests call run() in a process that goes on
    frozen = gc.get_freeze_count()
    for argv in (GOLDEN_CASES["bound-thm12ii"], GOLDEN_CASES["classify"], ["bound", "thm12ii"]):
        run_inproc(argv + ["--sieve-limit", "1000"], tmp_path, capsys)
        assert gc.get_freeze_count() == frozen


def test_main_freezes_the_collector_once_after_the_output(monkeypatch, capsys):
    written = []
    monkeypatch.setattr(gc, "freeze", lambda: written.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["dflab"] + GOLDEN_CASES["bound-thm12ii"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert written == [(GOLDEN_DIR / "bound-thm12ii.jsonl").read_text()]


def test_search_determinism_across_threads(tmp_path):
    argv = ["search", "--mode", "r1", "--n-max", "400", "--t-max", "3", "--sieve-limit", "1000"]
    first = run_proc(argv + ["--threads", "1"], tmp_path)
    second = run_proc(argv + ["--threads", "3"], tmp_path)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(parse_jsonl(first.stdout)) == 7


# A sieve limit whose table a command with a need above the in-memory bound
# reads from the cache, and such a need
CACHED_LIMIT = 2 * cli._IN_MEMORY_MAX
CACHED_NEED = cli._IN_MEMORY_MAX + 1


def test_cache_roundtrip_and_recovery(tmp_path):
    cache = tmp_path / "c1"
    argv = ["verify", "lemma21", "--nu-max", str(CACHED_LIMIT - 100), "--sieve-limit", str(CACHED_LIMIT)]
    res = run_proc(argv, cache)
    assert res.returncode == 0
    cache_file = cache / "sieve.dfl"
    assert cache_file.exists()
    blob = cache_file.read_bytes()
    assert blob[:4] == b"DFL1"
    assert len(blob) == 32 + 4 * (CACHED_LIMIT + 1)

    # warm run reuses the cache byte for byte
    res = run_proc(argv, cache)
    assert res.returncode == 0
    assert cache_file.read_bytes() == blob

    # a smaller request still reuses the bigger table
    smaller = ["--nu-max", str(CACHED_NEED), "--sieve-limit", str(CACHED_NEED + 100)]
    res = run_proc(["verify", "lemma21"] + smaller, cache)
    assert res.returncode == 0
    assert cache_file.read_bytes() == blob

    # corruption triggers a rebuild and a warning, but the run succeeds
    cache_file.write_bytes(blob[: len(blob) // 2])
    res = run_proc(argv, cache)
    assert res.returncode == 0
    assert "rebuilding sieve cache" in res.stderr
    assert cache_file.read_bytes() == blob


def test_cache_env_var_override(tmp_path):
    env_cache = tmp_path / "from-env"
    argv = ["block", "analyze", "--x", str(CACHED_NEED), "--k", "2", "--sieve-limit", str(CACHED_LIMIT)]
    res = run_proc(argv, env_cache)
    assert res.returncode == 0
    assert (env_cache / "sieve.dfl").exists()


def run_reporting_import(argv, cache, env_dir, module="numpy"):
    """Run argv through cli.run in a fresh interpreter that prints on stderr which of module
    (one name or a tuple of names) loaded: their list, or False when none did."""
    names = (module,) if isinstance(module, str) else tuple(module)
    script = (
        "import sys; from dflab.cli import run; code = run(sys.argv[1:]); "
        f"print([m for m in {names!r} if m in sys.modules] or False, file=sys.stderr); "
        "sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv, "--cache-dir", str(cache)],
        capture_output=True,
        text=True,
        env=proc_env(env_dir),
    )


# records each closed form writes: one, but verify val2 checks two bounds
CLOSED_FORM_RECORDS = {"verify val2": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "thm12ii", "--l1", "5"],
        ["bound", "ineq3", "--k", "10", "--a2", "30", "--m", "1000"],
        ["verify", "known-factorials"],
        ["verify", "val2"],
    ],
)
def test_closed_form_commands_read_no_sieve(tmp_path, argv):
    # a 10^7 limit would make any sieve load or build visible: a 40 MB cache
    cache = tmp_path / "cache"
    res = run_reporting_import(argv + ["--sieve-limit", "10000000"], cache, tmp_path / "unused")
    assert res.returncode == 0, res.stderr
    assert len(parse_jsonl(res.stdout)) == CLOSED_FORM_RECORDS.get(" ".join(argv), 1)
    assert res.stderr == "False\n"
    assert not cache.exists() or not any(cache.iterdir())


POINT_QUERIES = [
    ["classify", "--n", "720", "--a", "5,718,6"],
    ["generate", "trivial-even", "--evens", "6,4"],
    ["generate", "trivial-odd", "--a1", "5", "--evens", "4"],
    ["abc", "triple", "--a", "1", "--b", "4374"],
    ["abc", "proof-triple", "--x", "1000", "--j1", "5", "--j2", "2"],
    ["abc", "scan", "--x", "1000", "--k", "12"],
    ["block", "analyze", "--x", "24", "--k", "5"],
    ["gap-witness", "--n", "20", "--l", "5"],
    ["ratio", "erdos-graham", "--n", "4374"],
    ["ratio", "erdos-block", "--x", "24", "--k", "5"],
    ["verify", "dusart", "--y", "5000"],
    ["verify", "dusart", "--y-max", "20000"],
    ["verify", "lemma21", "--nu-max", "20000"],
    ["verify", "lemma22", "--k-max", "100", "--n-max", "60"],
    ["search", "--mode", "r1", "--n-max", "800", "--t-max", "3"],
    ["verify", "thm24", "--k", "2..7", "--x-max", "5000"],
]
# records each point query writes: one, but the search's eight solutions,
# lemma21's two prime sums, and lemma22's geometry scan plus one sandwich
# check per r0 solution
POINT_RECORDS = {
    "search --mode r1 --n-max 800 --t-max 3": 8,
    "verify lemma21 --nu-max 20000": 2,
    "verify lemma22 --k-max 100 --n-max 60": 3,
}
# exit codes other than 0: the dusart sweep finds y = 3296..3299, thm24 (15, 2)
POINT_EXITS = {"verify dusart --y-max 20000": 1, "verify thm24 --k 2..7 --x-max 5000": 1}
POINT_LIMIT = ["--sieve-limit", "20000"]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm")
    load_or_build_sieve(CommandConfig(sieve_limit=20000, cache_dir=cache))
    return cache


@pytest.mark.parametrize("argv", POINT_QUERIES, ids=" ".join)
def test_point_queries_never_import_numpy(argv, warm_cache, tmp_path):
    res = run_reporting_import(argv + POINT_LIMIT, warm_cache, tmp_path / "unused")
    assert res.returncode == POINT_EXITS.get(" ".join(argv), 0), res.stderr
    assert len(parse_jsonl(res.stdout)) == POINT_RECORDS.get(" ".join(argv), 1)
    assert res.stderr == "False\n"


@pytest.mark.parametrize(
    "argv",
    [["ratio", "erdos-graham", "--n", "4374"], ["verify", "dusart", "--y", "5000"]],
    ids=" ".join,
)
def test_bounds_point_queries_leave_the_search_unloaded(argv, warm_cache, tmp_path):
    res = run_reporting_import(argv + POINT_LIMIT, warm_cache, tmp_path / "unused", "dflab.equation")
    assert res.returncode == 0, res.stderr
    assert len(parse_jsonl(res.stdout)) == 1
    assert res.stderr == "False\n"


# point queries and the modules each leaves unloaded: dataclasses (with the
# inspect, ast and dis it imports) for every one; bounds and equation for
# block analyze, ratio and gap-witness, which run on core alone; bounds and
# formulas for classify and generate, which run on core and equation
LEAN = ("dataclasses", "dflab.bounds", "dflab.equation")
SOLUTION_LEAN = ("dataclasses", "dflab.bounds", "dflab.formulas")
LEAN_QUERIES = [
    (["classify", "--n", "720", "--a", "5,718,6"], SOLUTION_LEAN),
    (["generate", "trivial-even", "--evens", "6,4"], SOLUTION_LEAN),
    (["generate", "trivial-odd", "--a1", "5", "--evens", "4"], SOLUTION_LEAN),
    (["abc", "triple", "--a", "1", "--b", "4374"], ("dataclasses",)),
    (["block", "analyze", "--x", "24", "--k", "5"], LEAN),
    (["gap-witness", "--n", "20", "--l", "5"], LEAN),
    (["ratio", "erdos-graham", "--n", "4374"], LEAN),
    (["ratio", "erdos-block", "--x", "24", "--k", "5"], LEAN),
]


@pytest.mark.parametrize("argv, unloaded", LEAN_QUERIES, ids=[" ".join(a) for a, _ in LEAN_QUERIES])
def test_point_queries_load_only_what_they_run(argv, unloaded, warm_cache, tmp_path):
    res = run_reporting_import(argv + POINT_LIMIT, warm_cache, tmp_path / "unused", unloaded)
    assert res.returncode == 0, res.stderr
    assert len(parse_jsonl(res.stdout)) == 1
    assert res.stderr == "False\n"


def test_point_query_on_empty_cache_builds_the_same_files(tmp_path):
    # SHA-256 of the file the loader wrote when it sieved with numpy
    parent = {"sieve.dfl": "8b19815b496ea65235285d263fc3c71b2f72b7aca9be5fe5da4d9e5575fcefb4"}
    cache = tmp_path / "cache"
    argv = ["block", "analyze", "--x", "24", "--k", "5"]
    res = run_reporting_import(argv + POINT_LIMIT, cache, tmp_path / "unused")
    assert res.returncode == 0, res.stderr
    assert res.stderr == "False\n"  # a need of 28 is sieved in memory, in pure Python
    golden = Path(__file__).resolve().parent / "golden" / "block-analyze.jsonl"
    assert res.stdout == golden.read_text()
    assert not cache.exists()
    # the pure-Python sieve writes the numpy sieve's bytes, and nothing else
    load_or_build_sieve(CommandConfig(sieve_limit=20000, cache_dir=cache))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in cache.iterdir()}
    assert got == parent
    blob = (cache / "sieve.dfl").read_bytes()
    assert list(struct.unpack_from("<20001I", blob, 32)) == spf_direct(20000)


def test_load_or_build_sieve_unwritable_dir(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    config = CommandConfig(sieve_limit=100, cache_dir=blocked / "sub")
    table = load_or_build_sieve(config)
    assert table.limit == 100
    assert "cannot persist" in capsys.readouterr().err


def test_negative_threads_is_usage_error(tmp_path, capsys):
    argv = ["search", "--mode", "r0", "--n-max", "20", "--t-max", "2", "--sieve-limit", "100"]
    code, out, err = run_inproc(argv + ["--threads", "-5"], tmp_path, capsys)
    assert code == 2
    assert "--threads" in err and out == ""
    code, out, _ = run_inproc(argv + ["--threads", "0"], tmp_path, capsys)
    assert code == 0 and len(parse_jsonl(out)) == 1


def test_sieve_memory_guard_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(core, "MAX_TABLE_BYTES", 4096)
    with pytest.raises(core.ResourceLimitError, match="sieve to 10000"):
        core.sieve_primes(10_000)
    assert core.sieve_primes(200).limit == 200  # 14 bytes per entry fit under 4096
    code, out, err = run_inproc(
        ["block", "analyze", "--x", "9", "--k", "2", "--sieve-limit", "10000"], tmp_path, capsys
    )
    assert code == 3
    assert "byte cap" in err and out == ""
    assert not (tmp_path / "cache").exists()


def _block_analyze_proc(cache, limit):
    argv = ["block", "analyze", "--x", str(CACHED_NEED), "--k", "2", "--sieve-limit", str(limit)]
    return subprocess.Popen(
        [sys.executable, "-m", "dflab"] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=proc_env(cache),
    )


def test_concurrent_builds_share_one_cache_dir(tmp_path):
    cache = tmp_path / "shared"
    small = CACHED_NEED + 1000
    procs = [_block_analyze_proc(cache, limit) for limit in (small, CACHED_LIMIT)]
    results = [(p.communicate(timeout=120), p.returncode) for p in procs]
    terms = [trial_factor(CACHED_NEED), trial_factor(CACHED_NEED + 1)]
    for (out, err), code in results:
        assert code == 0, err
        payload = parse_jsonl(out)[0]["payload"]
        assert payload["lpf"] == max(max(f) for f in terms)
        assert payload["term_radicals"] == [math.prod(f) for f in terms]
    assert results[0][0][0] == results[1][0][0]
    third = _block_analyze_proc(cache, small)
    out, err = third.communicate(timeout=120)
    assert third.returncode == 0 and out == results[0][0][0]
    assert "rebuilding" not in err
    assert sorted(p.name for p in cache.iterdir()) == ["sieve.dfl"]


def test_prefix_load_returns_requested_limit(tmp_path, capsys):
    cache = tmp_path / "cache"
    big = load_or_build_sieve(CommandConfig(sieve_limit=10**7, cache_dir=cache))
    assert big.limit == 10**7
    table = load_or_build_sieve(CommandConfig(sieve_limit=1000, cache_dir=cache))
    assert table.limit == 1000
    assert table.spf.tolist() == spf_direct(1000)
    argv = ["block", "analyze", "--x", "5000000", "--k", "3"]
    for cache_dir in (cache, tmp_path / "cold"):
        code = run(argv + ["--cache-dir", str(cache_dir)])
        captured = capsys.readouterr()
        assert code == 2, cache_dir
        assert "exceeds sieve limit 1000000" in captured.err
        assert captured.out == ""


def test_small_need_from_an_oversized_cache_holds_only_the_need_and_checks_the_rest(tmp_path, capsys):
    cache = tmp_path / "cache"
    # a cache of more than 2^21 entries, about a thousand times the need
    load_or_build_sieve(CommandConfig(sieve_limit=2 * (1 << 20) + 100, cache_dir=cache))
    config = CommandConfig(sieve_limit=2000, cache_dir=cache)
    table = load_or_build_sieve(config)
    assert table.spf.tolist() == spf_direct(2000)
    assert memoryview(table.spf.obj).nbytes == 4 * 2001  # the buffer holds the need, no more
    assert capsys.readouterr().err == ""
    path = cache / "sieve.dfl"
    blob = bytearray(path.read_bytes())
    blob[32 + 4 * (2 * (1 << 20) + 7)] ^= 0x10  # an entry far past the need
    path.write_bytes(blob)
    assert load_or_build_sieve(config).spf.tolist() == spf_direct(2000)
    assert "rebuilding sieve cache (checksum mismatch)" in capsys.readouterr().err
    assert load_or_build_sieve(config).spf.tolist() == spf_direct(2000)
    assert capsys.readouterr().err == ""


def _old_sidecar(cache_blob: bytes) -> bytes:
    """The per-chunk checksum file sieve.crc that dflab wrote beside sieve.dfl
    before the whole file was checked on every load."""
    limit, crc = struct.unpack_from("<QI", cache_blob, 8)
    payload, step = memoryview(cache_blob)[32:], 4 << 20
    crcs = [zlib.crc32(payload[i : i + step]) for i in range(0, len(payload), step)]
    table = struct.pack(f"<{len(crcs)}I", *crcs)
    return struct.pack("<4sIQIII4s", b"DFC1", 1, limit, crc, 1 << 20, zlib.crc32(table), bytes(4)) + table


def test_a_sidecar_left_by_an_older_version_is_ignored(tmp_path, capsys):
    cache = tmp_path / "cache"
    load_or_build_sieve(CommandConfig(sieve_limit=5000, cache_dir=cache))
    sidecar = cache / "sieve.crc"
    old = _old_sidecar((cache / "sieve.dfl").read_bytes())
    sidecar.write_bytes(old)
    for limit in (200, 5000, 8000):  # a prefix, the whole file, and a rebuild
        table = load_or_build_sieve(CommandConfig(sieve_limit=limit, cache_dir=cache))
        assert table.spf.tolist() == spf_direct(limit)
        assert capsys.readouterr().err == ""
        assert sidecar.read_bytes() == old
    assert sorted(p.name for p in cache.iterdir()) == ["sieve.crc", "sieve.dfl"]


def test_table_is_the_same_from_every_source(tmp_path):
    load_or_build_sieve(CommandConfig(sieve_limit=20_000, cache_dir=tmp_path / "warm"))
    tables = [
        core.sieve_primes(5000),  # in memory
        load_or_build_sieve(CommandConfig(sieve_limit=5000, cache_dir=tmp_path / "cold")),
        load_or_build_sieve(CommandConfig(sieve_limit=5000, cache_dir=tmp_path / "warm")),
    ]
    assert (tmp_path / "cold" / "sieve.dfl").exists()
    want = spf_direct(5000)
    primes = [m for m in range(2, 5001) if want[m] == m]
    for table in tables:
        assert table.limit == 5000 and len(table.spf) == 5001
        assert table.spf.tolist() == want
        assert [m for m in range(5001) if table.is_prime(m)] == primes
        with pytest.raises(TypeError):
            table.spf[7] = 1


def test_cache_stays_little_endian_on_a_big_endian_host(tmp_path, monkeypatch):
    load_or_build_sieve(CommandConfig(sieve_limit=1000, cache_dir=tmp_path / "here"))
    here = (tmp_path / "here" / "sieve.dfl").read_bytes()
    # on this host "big" swaps the entries: the file must hold them reversed,
    # and reading swaps them back
    monkeypatch.setattr(sys, "byteorder", "big")
    config = CommandConfig(sieve_limit=1000, cache_dir=tmp_path / "there")
    load_or_build_sieve(config)
    there = (tmp_path / "there" / "sieve.dfl").read_bytes()
    assert len(there) == len(here) and there != here
    assert all(there[i : i + 4] == here[i : i + 4][::-1] for i in range(32, len(here), 4))
    assert load_or_build_sieve(config).spf.tolist() == spf_direct(1000)


_DAMAGE_LIMIT = 1000
_DAMAGE_ORACLE = spf_direct(_DAMAGE_LIMIT)


@pytest.fixture(scope="module")
def pristine_cache():
    with tempfile.TemporaryDirectory() as d:
        load_or_build_sieve(CommandConfig(sieve_limit=_DAMAGE_LIMIT, cache_dir=d))
        return Path(d, "sieve.dfl").read_bytes()


@settings(max_examples=200, deadline=None)
@given(need=st.integers(2, _DAMAGE_LIMIT), truncate=st.booleans(), data=st.data())
def test_damaged_cache_is_rebuilt(pristine_cache, need, truncate, data):
    blob = bytearray(pristine_cache)
    units = 1 if truncate else 8  # truncate at a byte, or flip a bit
    header = st.integers(0, 32 * units - 1)
    pos = data.draw(st.one_of(header, st.integers(0, len(blob) * units - 1)), label="pos")
    if truncate:
        del blob[pos:]
    else:
        blob[pos // 8] ^= 1 << (pos % 8)

    with tempfile.TemporaryDirectory() as d:
        Path(d, "sieve.dfl").write_bytes(blob)
        config = CommandConfig(sieve_limit=need, cache_dir=d)
        for attempt in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                table = load_or_build_sieve(config)
            assert table.limit == need
            assert table.spf.tolist() == _DAMAGE_ORACLE[: need + 1]
            rebuilt = "rebuilding sieve cache" in err.getvalue()
            assert rebuilt == (attempt == 0), err.getvalue()


def _captured_run(argv) -> tuple:
    """(exit code, stdout, stderr) of cli.run(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_upto_on_demand = cli._TableOnDemand.upto


def _upto_whole_limit(table, hi, what=None):
    """The on-demand table's upto, with the table built to the whole --sieve-limit first."""
    _upto_on_demand(table, table.limit)
    return table.table.upto(hi, what)


def run_on_full_table(argv) -> tuple:
    """_captured_run with the command reading a table of exactly --sieve-limit, built in memory:
    the reference each table sized to its reads must agree with."""
    with mock.patch.object(cli._TableOnDemand, "upto", _upto_whole_limit), \
            mock.patch.object(cli, "_IN_MEMORY_MAX", math.inf):
        return _captured_run(argv)


def _upto(limit, lo=0):
    """Integers from lo to just past limit, so that some reads fall off the table."""
    return st.integers(lo, max(lo, limit + 2))


def _csv_ints(values) -> str:
    return ",".join(map(str, values))


def _limited(cap, argv_of):
    """Draw a --sieve-limit up to cap, then argv_of(draw, limit): (limit, argv)."""
    def draw(d):
        limit = d(st.integers(2, cap), label="limit")
        return limit, argv_of(d, limit)
    return draw


def _generated(family, parts):
    """Draw the generator's arguments, then a --sieve-limit around the n they make."""
    def draw(d):
        args = d(parts)
        n = math.prod(df_direct(e) for e in args[-1]) * (math.factorial(args[0]) if args[0] else 1)
        near = st.integers(min(max(2, n - 2), 50000), min(n + 2, 50000))
        limit = d(near | st.integers(2, 50000), label="limit")
        head = ["--a1", args[0]] if args[0] else []
        return limit, ["generate", family, *head, "--evens", _csv_ints(args[-1])]
    return draw


# Per table-reading leaf: its argv and a --sieve-limit, drawn so that reads
# land near the limit and sometimes past it.  Limits stay small where the
# command's cost grows fast.
NEED_ARGV = {
    "search": _limited(300, lambda d, n: [
        "search", "--mode", d(st.sampled_from(["r0", "r1"])),
        "--n-max", d(_upto(n)), "--t-max", d(st.integers(2, 3)),
    ]),
    "classify": _limited(2000, lambda d, n: d(st.one_of(
        st.sampled_from([
            ["classify", "--n", "720", "--a", "5,718,6"],
            ["classify", "--n", "144", "--a", "142,6,3"],
            ["classify", "--n", "48", "--a", "46,6,4"],
        ]),
        st.builds(
            lambda n, a: ["classify", "--n", str(n), "--a", _csv_ints(a)],
            _upto(n), st.lists(_upto(n), min_size=2, max_size=4),
        ),
    ))),
    "generate trivial-even": _generated(
        "trivial-even", st.tuples(st.just(0), st.lists(st.sampled_from([4, 6, 8, 10]), min_size=1, max_size=3))
    ),
    "generate trivial-odd": _generated(
        "trivial-odd", st.tuples(st.sampled_from([5, 7]), st.lists(st.sampled_from([4, 6]), max_size=2))
    ),
    "verify lemma21": _limited(6000, lambda d, n: ["verify", "lemma21", "--nu-max", str(d(_upto(n)))]),
    "verify lemma22": _limited(300, lambda d, n: [
        "verify", "lemma22", "--k-max", str(d(_upto(n // 2 + 1))),
        "--n-max", str(d(_upto(min(n, 200)))), "--t-max", "3",
    ]),
    "verify lemma23": _limited(300, lambda d, n: [
        "verify", "lemma23", "--n-max", str(d(_upto(n))), "--t-max", str(d(st.integers(2, 3))),
    ]),
    "verify dusart": _limited(6000, lambda d, n: [
        "verify", "dusart", d(st.sampled_from(["--y", "--y-max"])), str(d(_upto(n, 3270))),
    ]),
    "abc triple": _limited(5000, lambda d, n: [
        "abc", "triple", "--a", str(a := d(_upto(n))), "--b", str(d(_upto(n - a))),
    ]),
    "abc proof-triple": _limited(5000, lambda d, n: [
        "abc", "proof-triple", "--x", str(d(_upto(n))),
        "--j1", str(j1 := d(st.integers(0, 12))), "--j2", str(d(st.integers(0, j1))),
    ]),
    "abc scan": _limited(5000, lambda d, n: [
        "abc", "scan", "--x", str(d(_upto(n))), "--k", str(d(st.integers(0, 25))),
    ]),
    "block analyze": _limited(5000, lambda d, n: [
        "block", "analyze", "--x", str(d(_upto(n))), "--k", str(d(st.integers(0, 25))),
    ]),
    "ratio erdos-graham": _limited(5000, lambda d, n: ["ratio", "erdos-graham", "--n", str(d(_upto(n)))]),
    "ratio erdos-block": _limited(5000, lambda d, n: [
        "ratio", "erdos-block", "--x", str(d(_upto(n))), "--k", str(d(st.integers(0, 25))),
    ]),
    "gap-witness": _limited(5000, lambda d, n: [
        "gap-witness", "--n", str(m := 2 * d(_upto(n // 2))), "--l", str(2 * d(st.integers(-5, m // 2)) + 1),
    ]),
}


@pytest.fixture(scope="module")
def untouched_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("untouched")


@pytest.mark.parametrize("path", sorted(NEED_ARGV))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_need_sized_table_matches_the_full_table(path, untouched_cache, data):
    limit, argv = NEED_ARGV[path](data.draw)
    argv = [str(v) for v in argv]
    argv += ["--sieve-limit", str(limit), "--cache-dir", str(untouched_cache)]
    got = _captured_run(argv)
    assert got == run_on_full_table(argv)
    event(f"exit {got[0]}")
    assert not any(untouched_cache.iterdir())  # every table here is sieved in memory


WARM_LIMIT = CACHED_LIMIT + 1000
# One argv per table-reading leaf with a need above the in-memory bound, and
# some past --sieve-limit (exit 2), each read off a warm cache of WARM_LIMIT
CACHED_ARGV = [
    ["search", "--mode", "r0", "--n-max", str(WARM_LIMIT - 1), "--t-max", "3", "--node-budget", "1000"],
    ["classify", "--n", "184320", "--a", "10,6,184318"],
    ["generate", "trivial-even", "--evens", "10,6"],
    ["generate", "trivial-odd", "--a1", "7", "--evens", "6"],
    ["verify", "lemma21", "--nu-max", str(WARM_LIMIT)],
    ["verify", "lemma22", "--k-max", str(CACHED_NEED // 2 + 2), "--n-max", "100"],
    ["verify", "lemma23", "--n-max", str(CACHED_NEED), "--node-budget", "1000"],
    ["verify", "dusart", "--y", str(WARM_LIMIT)],
    ["verify", "dusart", "--y-max", str(CACHED_NEED)],
    # coprime, so that c = a + b; 100000 + 163144 has gcd 8 and c = 32893
    ["abc", "triple", "--a", "100001", "--b", str(WARM_LIMIT - 100001)],
    ["abc", "proof-triple", "--x", str(WARM_LIMIT - 7), "--j1", "7", "--j2", "3"],
    ["abc", "scan", "--x", str(WARM_LIMIT - 19), "--k", "20"],
    ["block", "analyze", "--x", str(WARM_LIMIT - 9), "--k", "10"],
    ["ratio", "erdos-graham", "--n", str(WARM_LIMIT - 1)],
    ["ratio", "erdos-block", "--x", str(WARM_LIMIT - 9), "--k", "10"],
    ["gap-witness", "--n", str(WARM_LIMIT - 1000), "--l", "-999"],
    # past the limit: the table is the whole limit, and the message names it
    ["ratio", "erdos-graham", "--n", str(WARM_LIMIT)],
    ["block", "analyze", "--x", "5000000", "--k", "3"],
    ["verify", "dusart", "--y-max", str(WARM_LIMIT + 1)],
    ["search", "--mode", "r1", "--n-max", str(WARM_LIMIT + 1), "--t-max", "3"],
]
PAST_LIMIT = CACHED_ARGV[-4:]
# exit codes other than 0: the search runs out of budget, and the dusart
# sweep finds y = 3296..3299
CACHED_EXITS = {"search": 3, "verify lemma23": 3, "verify dusart --y-max": 1}


@pytest.fixture(scope="module")
def warm_big_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm-big")
    load_or_build_sieve(CommandConfig(sieve_limit=WARM_LIMIT, cache_dir=cache))
    return cache, {p.name: p.read_bytes() for p in cache.iterdir()}


@pytest.mark.parametrize("argv", CACHED_ARGV, ids=" ".join)
def test_need_above_the_in_memory_bound_reads_the_cache(argv, warm_big_cache, monkeypatch):
    cache, files = warm_big_cache
    needs = []
    real_load = cli.load_or_build_sieve

    def spy(config, need=None):
        needs.append(need)
        return real_load(config, need)

    full = argv + ["--sieve-limit", str(WARM_LIMIT), "--cache-dir", str(cache)]
    want = run_on_full_table(full)
    monkeypatch.setattr(cli, "load_or_build_sieve", spy)
    got = _captured_run(full)
    assert got == want
    assert len(needs) == 1 and cli._IN_MEMORY_MAX < needs[0] <= WARM_LIMIT
    if argv in PAST_LIMIT:
        assert got[0] == 2 and got[1] == "" and f"exceeds sieve limit {WARM_LIMIT}\n" in got[2]
    else:
        code = next((c for key, c in CACHED_EXITS.items() if " ".join(argv).startswith(key)), 0)
        assert got[0] == code, got[2]
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == files


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--mode", "r0", "--n-max", "400", "--t-max", "3"],
        ["classify", "--n", "720", "--a", "5,718,6"],
        ["generate", "trivial-even", "--evens", "6,4"],
        ["generate", "trivial-odd", "--a1", "5", "--evens", "4"],
        ["verify", "lemma22", "--k-max", "100", "--n-max", "60"],
    ],
    ids=" ".join,
)
def test_small_needs_on_an_empty_cache_sieve_in_memory(argv, tmp_path):
    cache = tmp_path / "cache"
    res = run_reporting_import(argv, cache, tmp_path / "unused")
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_on_full_table(argv + ["--cache-dir", str(tmp_path / "full")])[1]
    assert res.stderr == "False\n"
    assert not cache.exists()


def test_abc_triple_reads_only_up_to_its_normalized_c(tmp_path, capsys):
    # a + b = 1.2 * 10^6, past the default limit, but make_triple reads only
    # c = (a + b) / gcd(a, b) = 2, which is sieved in memory
    code, out, err = run_inproc(["abc", "triple", "--a", "600000", "--b", "600000"], tmp_path, capsys)
    assert (code, err) == (0, "")
    assert out == (
        '{"kind":"triple","payload":{"a":1,"b":1,"c":2,"explicit_margin":0.5198603854199589,'
        '"explicit_ok":true,"quality":1.0,"rad":2},"schema_version":1}\n'
    )
    assert not (tmp_path / "cache").exists()


@settings(max_examples=40, deadline=None)
@given(
    ks=st.tuples(st.integers(1, 6), st.integers(2, 20)),
    x_max=st.integers(0, 6002),
    limit=st.integers(2, 6000),
)
def test_thm24_output_does_not_depend_on_the_sieve_limit(untouched_cache, ks, x_max, limit):
    argv = ["verify", "thm24", "--k", "{}..{}".format(*ks), "--x-max", str(x_max)]
    got = _captured_run(argv + ["--sieve-limit", str(limit), "--cache-dir", str(untouched_cache)])
    assert got == _captured_run(argv + ["--cache-dir", str(untouched_cache)])
    event(f"exit {got[0]}")
    assert not any(untouched_cache.iterdir())


def test_thm24_past_the_sieve_limit_reads_no_cache(tmp_path):
    # --x-max 2 * 10^6 is past the default --sieve-limit of 10^6
    cache = tmp_path / "cache"
    cache.mkdir()
    argv = ["verify", "thm24", "--k", "2..20", "--x-max", "2000000"]
    res = run_reporting_import(argv, cache, tmp_path / "unused")
    assert res.returncode == 1, res.stderr
    assert res.stderr == "False\n"
    (rec,) = parse_jsonl(res.stdout)
    exceptions = [tuple(p) for p in rec["payload"]["details"]["exceptions"]]
    assert exceptions == block_lpf_violators(range(2, 21), 2_000_000, 4.42)
    assert rec["payload"]["counterexamples"] == [[15, 2]]
    assert not any(cache.iterdir())


def test_thm24_refuses_a_scan_past_the_memory_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "MAX_TABLE_BYTES", 2**20)
    argv = ["verify", "thm24", "--k", "2..20", "--x-max", str(10**15), "--cache-dir", str(tmp_path)]
    code, out, err = _captured_run(argv)
    assert (code, out) == (3, "")
    assert err.startswith("dflab: the 88-smooth integers up to 1000000000000019 number at least ")
    assert err.endswith(" bytes, above the 1048576-byte cap\n")
