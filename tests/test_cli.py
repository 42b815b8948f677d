import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from dflab.cli import (
    CACHE_ENV_VAR,
    CommandConfig,
    load_or_build_sieve,
    run,
)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_inproc(argv, tmp_path, capsys):
    code = run(list(argv) + ["--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(argv, cache_dir, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_ENV_VAR] = str(cache_dir)
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
    code, out, _ = run_inproc(
        ["generate", "trivial-even", "--evens", "6,4", "--sieve-limit", "500"],
        tmp_path,
        capsys,
    )
    assert code == 0
    payload = parse_jsonl(out)[0]["payload"]
    assert payload["n"] == 384 and payload["a"] == [382, 6, 4]


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
    assert "node budget" in err


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


def test_oversized_search_table_exits_3(tmp_path, capsys):
    code, out, err = run_inproc(
        ["search", "--mode", "r0", "--n-max", "1000000", "--t-max", "3"], tmp_path, capsys
    )
    assert code == 3
    assert "valuation table" in err
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


def test_search_determinism_across_threads(tmp_path):
    argv = ["search", "--mode", "r1", "--n-max", "400", "--t-max", "3", "--sieve-limit", "1000"]
    first = run_proc(argv + ["--threads", "1"], tmp_path)
    second = run_proc(argv + ["--threads", "3"], tmp_path)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert len(parse_jsonl(first.stdout)) == 7


def test_cache_roundtrip_and_recovery(tmp_path):
    cache = tmp_path / "c1"
    argv = ["verify", "lemma21", "--nu-max", "900", "--sieve-limit", "1000"]
    res = run_proc(argv, cache)
    assert res.returncode == 0
    cache_file = cache / "sieve.dfl"
    assert cache_file.exists()
    blob = cache_file.read_bytes()
    assert blob[:4] == b"DFL1"
    assert len(blob) == 32 + 4 * 1001

    # warm run reuses the cache byte for byte
    res = run_proc(argv, cache)
    assert res.returncode == 0
    assert cache_file.read_bytes() == blob

    # a smaller request still reuses the bigger table
    res = run_proc(["verify", "lemma21", "--nu-max", "90", "--sieve-limit", "100"], cache)
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
    res = run_proc(["verify", "known-factorials", "--sieve-limit", "50"], env_cache)
    assert res.returncode == 0
    assert (env_cache / "sieve.dfl").exists()


def test_load_or_build_sieve_unwritable_dir(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    config = CommandConfig(sieve_limit=100, cache_dir=blocked / "sub")
    table = load_or_build_sieve(config)
    assert table.limit == 100
    assert "cannot persist" in capsys.readouterr().err
