"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings.  All ten criteria pass.  Criterion 5 checks the block
scan against a trial-division enumeration and pins one documented
omission: the pair (15, 2) -- P(15*16) = P(240) = 5 <= 8.84 with 15 > 8 --
violates the bound but is absent from the catalogued 38-pair exception
set.  The scan keeps reporting it, so its own verdict stays failed.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from dflab import (
    check_identity,
    classify,
    double_factorial,
    generate_trivial_even,
    generate_trivial_odd,
    make_triple,
    proof_triple,
    search,
    theorem24_scan,
    valuation2_block_bound_check,
    valuation2_factorial_lower_check,
    verify_known_factorial_solutions,
    verify_lemma21,
)
from dflab.bounds import EXCEPTIONAL_PAIRS

from oracles import block_lpf_violators, df_direct, enumerate_r0_solutions, trial_factor

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        print(f"\n[ACCEPTANCE] C{num:02d} {label}: FAIL")
        raise
    print(f"\n[ACCEPTANCE] C{num:02d} {label}: PASS ({elapsed:.2f}s)")


def test_c01_exact_double_factorial_identities():
    with criterion(1, "exact double-factorial identities", 1.0):
        for n in range(2, 301):
            assert double_factorial(n) * double_factorial(n - 1) == math.factorial(n)
        for ell in range(0, 151):
            assert double_factorial(2 * ell) == 2**ell * math.factorial(ell)


def test_c02_known_factorial_products():
    with criterion(2, "five classical factorial identities", 1.0):
        rows = verify_known_factorial_solutions().identities
        assert len(rows) == 5
        assert all(ok for _, ok in rows)


def test_c03_trivial_families_constructive(table_big):
    with criterion(3, "200 random trivial instances verify and classify", 10.0):
        rng = random.Random(1234)
        checked = 0
        while checked < 100:
            evens = [rng.choice([4, 6, 8, 10, 12, 14]) for _ in range(rng.randint(1, 3))]
            try:
                inst = generate_trivial_even(evens, max_n=table_big.limit)
            except OverflowError:
                continue
            assert check_identity(inst, table_big)
            assert classify(inst, table_big).classification == "trivial-even"
            checked += 1
        checked = 0
        while checked < 100:
            a1 = rng.choice([5, 7, 9])
            evens = [rng.choice([4, 6, 8]) for _ in range(rng.randint(0, 2))]
            try:
                inst = generate_trivial_odd(a1, evens, max_n=table_big.limit)
            except OverflowError:
                continue
            assert check_identity(inst, table_big)
            assert classify(inst, table_big).classification == "trivial-odd"
            checked += 1


def test_c04_search_matches_bigint_oracle(table_small):
    with criterion(4, "r0 search equals naive enumeration (n <= 60, t <= 3)", 60.0):
        got = {
            (r.instance.n, r.instance.a, r.classification)
            for r in search(60, 3, "r0", table_small)
        }
        assert got == enumerate_r0_solutions(60, 3)


def test_c05_block_lpf_scan_exceptions_all_catalogued():
    with criterion(5, "block LPF scan: all exceptions catalogued but (15, 2)", 120.0):
        result = theorem24_scan(range(2, 8), 5000)
        exceptions = result.details["exceptions"]
        assert exceptions == block_lpf_violators(range(2, 8), 5000, 4.42)
        # the catalogue omits (15, 2): 15*16 = 240 = 2^4*3*5, and 5 <= 4.42*2
        assert 15 * 16 == 240 and max(trial_factor(240)) == 5 <= 4.42 * 2
        assert result.counterexamples == [(15, 2)]
        assert set(exceptions) - {(15, 2)} <= EXCEPTIONAL_PAIRS
        assert not result.passed
        satisfied = {
            (v["x"], v["k"])
            for v in result.details["exceptional_member_verdicts"]
            if v["satisfies_bound"]
        }
        assert satisfied == {(29, 7), (30, 7)}


def test_c06_prime_log_sum_bounds(table_big):
    with criterion(6, "theta and log-sum bounds up to 10^6", 30.0):
        theta_res, mertens_res = verify_lemma21(10**6, table_big)
        assert theta_res.passed and theta_res.margin > 0
        assert mertens_res.passed and mertens_res.margin > 0


def test_c07_power_of_two_valuation_bounds():
    with criterion(7, "2-adic valuation bounds (factorials and blocks)", 30.0):
        res = valuation2_factorial_lower_check(10**6)
        assert res.passed and res.margin > 0
        rng = random.Random(4321)
        for _ in range(10_000):
            x = rng.randint(2, 10_000)
            k = rng.randint(1, 50)
            assert valuation2_block_bound_check(x, k).passed


def test_c08_abc_machinery(table_big):
    with criterion(8, "abc triple values and exact 7/4 checks", 120.0):
        t = make_triple(1, 4374, table_big)
        assert t.rad == 210
        assert abs(t.quality - 1.5679) < 1e-3
        for x in range(2, 10_001):
            for j1 in range(1, 8):
                for j2 in range(j1):
                    res = proof_triple(x, j1, j2, table_big)
                    tr = res.triple
                    assert tr.c**4 < tr.rad**7, (x, j1, j2)


def test_c09_parity_obstruction(table_big):
    with criterion(9, "no solution with exactly one even part (n <= 60, t <= 3)", 30.0):
        dfs = {m: df_direct(m) for m in range(3, 61)}
        for n in range(5, 61):
            target = dfs.get(n, df_direct(n))
            odds = range(3, n, 2)
            evens = range(4, n, 2)
            for e in evens:
                de = dfs[e]
                for o in odds:
                    assert dfs[o] * de != target
                for o1 in odds:
                    for o2 in range(3, o1 + 1, 2):
                        assert dfs[o1] * dfs[o2] * de != target


def test_c10_cli_determinism_across_threads(tmp_path):
    with criterion(10, "byte-identical jsonl across thread counts", 120.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["DFLAB_CACHE_DIR"] = str(tmp_path)
        argv = [
            sys.executable, "-m", "dflab",
            "search", "--mode", "r1", "--n-max", "400", "--t-max", "3",
            "--sieve-limit", "1000",
        ]
        runs = []
        for threads in ("1", "3"):
            proc = subprocess.run(
                argv + ["--threads", threads], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        payloads = [json.loads(line)["payload"] for line in runs[0].splitlines()]
        assert [p["n"] for p in payloads] == [12, 20, 24, 30, 72, 120, 144]
