import bisect
import math
import random
import time
import tracemalloc
from array import array

import pytest

from hypothesis import given, settings, strategies as st

from dflab import (
    EquationInstance,
    PrimeTable,
    SieveRangeError,
    analyze_block,
    classify,
    composite_block_geometry_scan,
    dusart_check,
    dusart_sweep,
    erdos_graham_ratio,
    erdos_ratio,
    sandwich_check,
    search,
    theorem24_scan,
    thm12ii_bound,
    valuation2_block_bound_check,
    valuation2_block_sweep,
    valuation2_factorial_lower_check,
    verify_lemma21,
)
from dflab import bounds, cli, core
from dflab.bounds import EXCEPTIONAL_PAIRS, EXCEPTIONAL_PAIRS_ORDERED, BoundCheckResult

from oracles import (
    block_lpf_margin,
    block_lpf_violators,
    dusart_failures,
    prime_sum_fold,
    primes_upto,
    smooth_count,
    trial_factor,
    trial_is_prime,
    val2_factorial_fold,
)

# Exceptions the k in [2,7], x <= 5000 scan actually finds.  (15, 2) is a
# true violator -- P(15*16) = P(240) = 5 <= 8.84 -- that the catalogued
# 38-pair exception set omits; (29, 7) and (30, 7) are catalogued but
# satisfy the bound (P = 31 > 30.94), so they never appear as exceptions.
OBSERVED_EXCEPTIONS = [
    (9, 2), (14, 2), (15, 2), (20, 2), (24, 2), (27, 2), (35, 2), (48, 2),
    (49, 2), (63, 2), (80, 2), (125, 2), (224, 2), (2400, 2), (4374, 2),
    (13, 3), (14, 3), (20, 3), (24, 3), (25, 3), (26, 3), (48, 3), (54, 3),
    (63, 3), (64, 3), (98, 3), (350, 3),
    (24, 4), (25, 4), (32, 4), (33, 4), (48, 4), (49, 4), (63, 4),
    (24, 5), (32, 5), (48, 5),
]


def test_exceptional_catalogue_shape():
    assert len(EXCEPTIONAL_PAIRS_ORDERED) == 38
    assert len(EXCEPTIONAL_PAIRS) == 38
    assert EXCEPTIONAL_PAIRS_ORDERED[0] == (9, 2)
    assert EXCEPTIONAL_PAIRS_ORDERED[-1] == (30, 7)
    assert all(x > 4 * k for x, k in EXCEPTIONAL_PAIRS)


def test_theta_bound_small(table_small):
    res, _ = verify_lemma21(10_000, table_small)
    assert res.passed
    assert res.margin > 0
    # slack at nu = 2 is 2 * 1.00008 - log 2
    assert res.margin <= 2 * 1.00008 - math.log(2)


def test_theta_bound_margin_at_100(table_small):
    res, _ = verify_lemma21(100, table_small)
    assert res.passed
    # minimum slack over the whole scan sits at nu = 3: 3*1.00008 - log 6
    assert res.margin == pytest.approx(3 * 1.00008 - math.log(6), abs=1e-9)
    # slack at the endpoint itself is much larger
    assert 1.00008 * 100 - 83.7284 > 5


def test_mertens_bound_small(table_small):
    _, res = verify_lemma21(10_000, table_small)
    assert res.passed
    assert res.margin == pytest.approx(math.log(2) / 2, abs=1e-12)


@pytest.fixture(scope="module")
def lemma21_ends(table_big):
    """nu_max values for the lemma21 comparisons, in three sets.

    "fixed": small ones, 10^6, and both sides of the per-prime prefix and
    of 2^16; "edges": both sides of sampled block edges of a default 10^6
    run; "random": 50 seeded values up to 10^6.
    """
    coeff, spf = bounds.THETA_COEFF, table_big.spf
    fold = bounds._prime_sum_fold(spf, bounds._LEMMA21_PREFIX, coeff)
    edges = [b for b, *_ in bounds._lemma21_blocks(spf, 10**6, coeff, fold)]
    assert edges[-1] == 10**6
    rng = random.Random(2024)
    sides = lambda xs: [x + d for x in xs for d in (-1, 0, 1)]
    return {
        "fixed": [2, 3, 100, 20_000, 10**6] + sides([bounds._LEMMA21_PREFIX, 1 << 16]),
        "edges": sides(edges[:3] + rng.sample(edges, 5)),
        "random": [rng.randint(2, 10**6) for _ in range(50)],
    }


# 1.00008 is the paper's; 1.0 and 0.99999 shrink the blocks near 1; at
# 0.998 theta first fails near 10^5, so the blocks run up to it and the
# fold reruns; at 0.95 it fails from nu = 283 on, inside the prefix, so the
# first block fails and the counterexample path runs at every later prime.
# The block edges matter only where blocks are skipped, and the random
# values run at the paper's constant only, to bound the suite's time.
@pytest.mark.parametrize("coeff", [bounds.THETA_COEFF, 1.0, 0.99999, 0.998, 0.95])
def test_lemma21_matches_the_prime_sum_fold(table_big, spf_1e6, lemma21_ends, monkeypatch, coeff):
    ends = lemma21_ends["fixed"]
    if coeff >= 0.99999:
        ends = ends + lemma21_ends["edges"]
    if coeff == bounds.THETA_COEFF:
        ends = ends + lemma21_ends["random"]
    theta_bad, mertens_bad, at = prime_sum_fold(ends, coeff, spf_1e6)
    monkeypatch.setattr(bounds, "THETA_COEFF", coeff)
    for nu_max in sorted(set(ends)):
        results = verify_lemma21(nu_max, table_big)
        assert [r.name for r in results] == ["theta_linear_upper", "mertens_log_sum_upper"]
        margins, count = at[nu_max][:2], at[nu_max][2]
        for res, bad, margin in zip(results, (theta_bad, mertens_bad), margins):
            assert res.counterexamples == bad[: bisect.bisect_right(bad, (nu_max, math.inf))], nu_max
            assert res.margin.hex() == margin.hex(), nu_max
            assert res.domain_checked == f"primes nu <= {nu_max}"
            assert res.details == {"primes_checked": count, "float_tolerance": 1e-9}
    theta_res, mertens_res = results
    assert theta_res.details["primes_checked"] == 78_498
    assert mertens_res.passed
    if coeff == 0.95:
        bad = theta_res.counterexamples
        assert (len(bad), bad[0][0], bad[-1][0]) == (78_392, 283, 999_983)
    else:
        assert theta_res.passed == (coeff > 0.998)


def test_lemma21_blocks_bound_the_running_sums(table_big, spf_1e6):
    # each block's bounds hold the fold's float sums at its end, and stay
    # close to them (at 10^6 they drift by about 47 and 0.016)
    coeff, spf = bounds.THETA_COEFF, table_big.spf
    fold = bounds._prime_sum_fold(spf, bounds._LEMMA21_PREFIX, coeff)
    blocks = list(bounds._lemma21_blocks(spf, 10**6, coeff, fold))
    theta = mertens = 0.0
    p = 2
    for b, r, theta_high, mertens_high in blocks:
        while p <= b:
            if spf_1e6[p] == p:
                theta += math.log(p)
                mertens += math.log(p) / p
            p += 1
        assert theta <= theta_high < theta + 100 and mertens <= mertens_high < mertens + 0.05, b
    assert sum(r for _, r, *_ in blocks) == 78_498 - fold.count


def test_lemma21_steps_prime_by_prime_only_up_to_the_prefix(table_big, monkeypatch):
    his = []  # the end of every prime stream bounds opens

    def spy(spf, lo, hi):
        his.append(hi)
        return core._primes_between(spf, lo, hi)

    monkeypatch.setattr(bounds, "_primes_between", spy)
    theta_res, mertens_res = verify_lemma21(10**6, table_big)
    assert his == [bounds._LEMMA21_PREFIX + 1]
    assert theta_res.details["primes_checked"] == mertens_res.details["primes_checked"] == 78_498
    # a failing block reruns the fold over the whole range, and the spy sees it
    monkeypatch.setattr(bounds, "THETA_COEFF", 0.95)
    his.clear()
    verify_lemma21(10**6, table_big)
    assert his == [bounds._LEMMA21_PREFIX + 1, 10**6 + 1]


def test_lemma21_rejects_an_empty_or_oversized_range(table_small):
    with pytest.raises(ValueError):
        verify_lemma21(1, table_small)
    with pytest.raises(SieveRangeError):
        verify_lemma21(10_001, table_small)


def _geometry_fold(k_max):
    """The geometry scan block by block: a block with x < k fails if trial division finds no prime in it."""
    bad = [
        (x, k)
        for k in range(2, k_max + 1)
        for x in range(2, k)
        if not any(map(trial_is_prime, range(x, x + k)))
    ]
    return BoundCheckResult(
        name="all_composite_block_geometry",
        domain_checked=f"2 <= x < k <= {k_max}",
        counterexamples=bad,
        margin=math.inf,
        details={"blocks_checked": (k_max - 1) * (k_max - 2) // 2},
    )


def test_geometry_scan_equals_per_block_checks(table_small):
    for k_max in (3, 4, 5, 17, 60):
        assert composite_block_geometry_scan(k_max, table_small) == _geometry_fold(k_max)
    assert composite_block_geometry_scan(100, table_small).details == {"blocks_checked": 4851}
    with pytest.raises(ValueError, match="empty scan"):
        composite_block_geometry_scan(2, table_small)


def test_geometry_scan_reports_every_prime_free_block(table_small):
    # By Bertrand no block 2 <= x < k is free of primes, so the real scan
    # always passes.  Against a thinned spf table it must report exactly
    # the blocks that table leaves prime-free.
    dropped = (3, 5, 7, 11, 13, 23)
    spf = [0 if v in dropped else s for v, s in enumerate(table_small.spf)]
    thinned = PrimeTable(table_small.limit, array("I", spf))
    kept_set = {v for v in range(2, 100) if spf[v] == v}
    want = [(x, k) for k in range(2, 41) for x in range(2, k) if not kept_set & set(range(x, x + k))]
    assert len(want) == 36
    assert composite_block_geometry_scan(40, thinned).counterexamples == want


def test_geometry_scan_memory_does_not_grow_with_k_squared(table_small):
    # (k_max + 1)^2 arrays over every block took a traced 175.8 MiB here
    tracemalloc.start()
    try:
        res = composite_block_geometry_scan(3000, table_small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and res.details == {"blocks_checked": 2999 * 2998 // 2}
    assert peak < 2**20


def _sandwich(n, parts, table):
    """sandwich_check on the record classify makes of (n; parts)."""
    return sandwich_check(classify(EquationInstance(n, parts), table), table)


def test_sandwich_even_case_values(table_small):
    res = _sandwich(8, (6, 4), table_small)
    assert res.passed
    lower, upper = res.details["inequalities"]
    assert lower["lhs"] == pytest.approx(4 * math.log(4) - 4, abs=1e-9)
    assert lower["rhs"] == pytest.approx(math.log(8), abs=1e-9)
    assert upper["rhs"] == pytest.approx(math.log(16), abs=1e-9)
    assert res.details["m"] == 4 and res.details["k"] == 1
    # trivial gap (k = 1): the inequalities are outside their hypotheses
    assert not lower["hypothesis_met"] and not upper["hypothesis_met"]


def test_sandwich_even_case_lower_bound_fails_numerically(table_small):
    # at a2 = 6 the stated lower bound is false (6ln6 - 6 > ln 48); it is
    # hypothesis-gated (k = 1 here), so the check still passes
    res = _sandwich(384, (382, 6, 4), table_small)
    assert res.passed
    lower = res.details["inequalities"][0]
    assert not lower["holds"]
    assert not lower["hypothesis_met"]


def test_sandwich_odd_case_values(table_small):
    res = _sandwich(120, (118, 5, 4), table_small)
    assert res.passed
    lower, upper = res.details["inequalities"]
    assert lower["lhs"] == pytest.approx(5 * math.log(5) - 5, abs=1e-9)
    assert lower["rhs"] == pytest.approx(math.log(720), abs=1e-9)
    assert upper["rhs"] == pytest.approx(2 * 1 * math.log(4 * 60), abs=1e-9)
    assert res.details["decomposition"] == {"x1": 60, "l1": 1, "x2": 3, "l2": 1}


def test_sandwich_odd_case_without_decomposition(table_small):
    res = _sandwich(144, (142, 6, 3), table_small)
    assert res.passed
    upper = res.details["inequalities"][1]
    assert not upper["hypothesis_met"]
    assert res.details["decomposition"] is None


def test_sandwich_on_all_searched_solutions(table_small):
    for mode, t_max in (("r0", 3), ("r1", 3)):
        for rec in search(400, t_max, mode, table_small):
            assert sandwich_check(rec, table_small).passed


def test_sandwich_errors(table_small):
    # a non-solution never reaches sandwich_check: classify raises on it
    # (test_equation.py's test_classify_families)
    with pytest.raises(ValueError, match="parity signatures 0 and 1, got r=3"):
        _sandwich(45, (43, 5, 3), table_small)


def test_theorem24_scan_matches_observed_exceptions():
    res = theorem24_scan(range(2, 8), 5000)
    assert sorted(res.details["exceptions"], key=lambda p: (p[1], p[0])) == OBSERVED_EXCEPTIONS
    assert res.counterexamples == [(15, 2)]
    assert not res.passed
    assert res.details["pairs_scanned"] > 29_000


def test_theorem24_exceptions_agree_with_trial_division():
    assert block_lpf_violators(range(2, 8), 5000, 4.42) == OBSERVED_EXCEPTIONS


def test_theorem24_member_verdicts():
    res = theorem24_scan([7], 5000)
    verdicts = {(d["x"], d["k"]): d for d in res.details["exceptional_member_verdicts"]}
    assert verdicts[(29, 7)]["lpf"] == 31 and verdicts[(29, 7)]["satisfies_bound"]
    assert verdicts[(30, 7)]["lpf"] == 31 and verdicts[(30, 7)]["satisfies_bound"]
    assert res.passed


def test_theorem24_scan_validation():
    with pytest.raises(ValueError):
        theorem24_scan([1], 100)
    with pytest.raises(ValueError, match="empty scan"):
        theorem24_scan([2, 3], 8)  # 4k < x <= 8 holds for no x
    res = theorem24_scan([2, 3], 9)
    assert res.details["pairs_scanned"] == 1


def test_theorem24_running_maximum_matches_trial_division():
    # k values with gaps: the running block maximum must still pass every k
    exceptions = theorem24_scan([3, 5, 9], 3000).details["exceptions"]
    assert sorted(exceptions, key=lambda p: (p[1], p[0])) == block_lpf_violators([3, 5, 9], 3000, 4.42)


def test_theorem24_domain_names_only_scanned_k():
    # 4k < x <= 50 holds for k <= 12 only
    res = theorem24_scan(range(2, 21), 50)
    assert res.domain_checked == f"k in {list(range(2, 13))}, 4k < x <= 50"
    assert res.details["pairs_scanned"] == sum(50 - 4 * k for k in range(2, 13))
    res = theorem24_scan(range(2, 8), 5000)
    assert res.domain_checked == "k in [2, 3, 4, 5, 6, 7], 4k < x <= 5000"


# (ks, x_max, the smoothness bounds B the scan takes) for the record test:
# the golden case, k with gaps, more k than the range holds, two with no
# non-member block (so no second scan), and four whose second scan takes
# the P of a first non-member block, e.g. because no 20 consecutive
# integers past 80 are 88-smooth, and 81..100 has P = 97
THM24_CASES = [
    (range(2, 8), 5000, [30]), ([3, 5, 9], 3000, [39, 43]), (range(2, 21), 50, [53]),
    ([2, 3], 9, [8]), ([7], 29, [30]), ([20], 20_000, [88, 97]),
    (range(6, 10), 20_000, [39, 43]), (range(12, 21), 3000, [88, 97]),
]


def test_theorem24_scan_matches_the_trial_division_record(monkeypatch):
    taken = []

    def spy(bound, hi, min_len):
        taken.append(bound)
        return core.smooth_runs(bound, hi, min_len)

    monkeypatch.setattr(bounds, "smooth_runs", spy)
    for ks, x_max, bounds_taken in THM24_CASES:
        taken.clear()
        res = theorem24_scan(ks, x_max)
        assert taken == bounds_taken, (ks, x_max)
        assert res.details["exceptions"] == block_lpf_violators(ks, x_max, 4.42), (ks, x_max)
        assert res.margin == block_lpf_margin(ks, x_max, 4.42, EXCEPTIONAL_PAIRS), (ks, x_max)
        want = [
            (x, k, max(max(trial_factor(t)) for t in range(x, x + k)))
            for k in ks if 4 * k < x_max
            for x in sorted(x for x, kk in EXCEPTIONAL_PAIRS if kk == k and 4 * k < x <= x_max)
        ]
        got = res.details["exceptional_member_verdicts"]
        assert [(d["x"], d["k"], d["lpf"]) for d in got] == want, (ks, x_max)
        assert all(d["satisfies_bound"] == (d["lpf"] > 4.42 * d["k"]) for d in got)
    assert theorem24_scan([20], 20_000).margin == pytest.approx(97 - 88.4)  # 81..100, P = 97


# verify thm24 --x-max 10^6 as it was when B doubled (88 -> 176) until the
# margin was exact: one k, and a mixed range with catalogued members
THM24_DOUBLING_OUTPUT = {
    "20..20": (
        '{"kind":"bound_check","payload":{"counterexamples":[],"details":{'
        '"exceptional_member_verdicts":[],"exceptions":[],"pairs_scanned":999920},'
        '"domain_checked":"k in [20], 4k < x <= 1000000","margin":8.599999999999994,'
        '"name":"block_lpf_linear_lower","passed":true},"schema_version":1}\n'
    ),
    "5,20": (
        '{"kind":"bound_check","payload":{"counterexamples":[],"details":{'
        '"exceptional_member_verdicts":[{"k":5,"lpf":13,"satisfies_bound":false,"x":24},'
        '{"k":5,"lpf":17,"satisfies_bound":false,"x":32},'
        '{"k":5,"lpf":17,"satisfies_bound":false,"x":48}],'
        '"exceptions":[[24,5],[32,5],[48,5]],"pairs_scanned":1999900},'
        '"domain_checked":"k in [5, 20], 4k < x <= 1000000","margin":0.8999999999999986,'
        '"name":"block_lpf_linear_lower","passed":true},"schema_version":1}\n'
    ),
}


@pytest.mark.parametrize("k", sorted(THM24_DOUBLING_OUTPUT))
def test_theorem24_second_scan_matches_the_doubling_path(k, monkeypatch, capsys):
    taken = []

    def spy(bound, hi, min_len):
        taken.append(bound)
        return core.smooth_runs(bound, hi, min_len)

    monkeypatch.setattr(bounds, "smooth_runs", spy)
    assert cli.run(["verify", "thm24", "--k", k, "--x-max", "1000000"]) == 0
    assert capsys.readouterr().out == THM24_DOUBLING_OUTPUT[k]
    assert taken == [88, 97]  # 81..100 is the first block of k = 20 past 80


def test_theorem24_scan_memory_is_bounded_by_the_smooth_count():
    # a scan holds each 88-smooth integer up to 10^6 + 19 a bounded number of
    # times, never an array over the scanned range
    tracemalloc.start()
    try:
        theorem24_scan(range(2, 21), 999_980)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < smooth_count(88, 999_980 + 19) * core._SMOOTH_BYTES_PER_ENTRY


def test_smooth_block_maxima_is_the_window_maximum():
    lpf = [1, 1] + [max(trial_factor(m)) for m in range(2, 3001)]
    for bound, hi, ks in ((30, 3000, [2, 3, 4, 7]), (13, 400, [3, 5]), (100, 3000, [2, 9, 17])):
        seen = []
        for k, xs, best in bounds._smooth_block_maxima(bound, hi, ks):
            seen.append(k)
            assert len(best) <= len(xs) and sorted(set(xs)) == xs
            inside = [(x, b) for x, b in zip(xs, best) if x + k - 1 <= hi]
            assert inside == [(x, min(max(lpf[x : x + k]), bound + 1)) for x, _ in inside], (bound, k)
            # every block of P <= bound is listed
            smooth = [x for x in range(1, hi - k + 2) if max(lpf[x : x + k]) <= bound]
            assert smooth == [x for x, b in zip(xs, best) if b <= bound], (bound, k)
        assert seen == ks


def test_erdos_ratio(table_small):
    assert erdos_ratio(9, 2, table_small).ratio == pytest.approx(5 / (2 * math.log(2)), abs=1e-9)
    assert erdos_ratio(13, 3, table_small).ratio is None
    assert erdos_ratio(24, 4, table_small).ratio == pytest.approx(13 / (4 * math.log(4)), abs=1e-9)


def test_valuation2_block_bound():
    res = valuation2_block_bound_check(2, 5)
    assert res.passed and res.details["val2"] == 4
    assert res.margin == pytest.approx(4 + math.log2(7) - 4, abs=1e-9)
    res = valuation2_block_bound_check(9, 2)
    assert res.passed and res.details["val2"] == 1


def test_valuation2_block_bound_sweep():
    rng = random.Random(17)
    for _ in range(600):
        x = rng.randint(2, 10_000)
        k = rng.randint(1, 50)
        assert valuation2_block_bound_check(x, k).passed


def test_valuation2_block_bound_checks_a_block_past_any_table():
    # the closed form reads no table, so a block at 10^12 is checked, not refused
    x, k = 10**12, 30
    res = valuation2_block_bound_check(x, k)
    assert res.passed
    assert res.details["val2"] == sum(((x + i) & -(x + i)).bit_length() - 1 for i in range(k))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**6 - 59), st.integers(1, 60))
def test_valuation2_closed_form_matches_block_factorization(table_big, x, k):
    res = valuation2_block_bound_check(x, k)
    assert res.details["val2"] == analyze_block(x, k, table_big).val2


def test_valuation2_block_sweep_equals_factored_fold(table_big):
    # the fold the sweep replaced: same draws, valuation from factored terms
    for seed in (0, 17, 123456):
        rng = random.Random(seed)
        worst, bad = math.inf, []
        for _ in range(2000):
            x = rng.randint(2, 10**4)
            k = rng.randint(1, 50)
            val2 = analyze_block(x, k, table_big).val2
            slack = k - 1 + math.log2(x + k) - val2
            worst = min(worst, slack)
            bad += [] if slack > 0 else [(x, k, val2)]
        res = valuation2_block_sweep(10**4, 50, 2000, seed)
        assert res.domain_checked == f"2000 samples, x <= 10000, k <= 50, seed={seed}"
        assert (res.counterexamples, res.margin.hex()) == (bad, worst.hex())
    with pytest.raises(ValueError, match="empty sweep"):
        valuation2_block_sweep(10, 5, 0, 0)


def test_valuation2_factorial_lower():
    res = valuation2_factorial_lower_check(100_000)
    assert res.passed
    # tightest at m = 127: nu_2(127!) = 120 and 0.99*127 - 7 = 118.73
    assert res.margin == pytest.approx(1.27, abs=1e-9)
    assert valuation2_factorial_lower_check(1).passed


def test_valuation2_factorial_lower_matches_the_fold(monkeypatch):
    # offsets 3 and 1 make the bound fail at 113 and 388 m, some of them past
    # where the walk stops at offset 7, so an early stop loses counterexamples
    checked = [*range(1, 3001), 10**4, 10**6]
    for offset in (bounds.VAL2_OFFSET, 3, 1):
        monkeypatch.setattr(bounds, "VAL2_OFFSET", offset)
        fold = val2_factorial_fold(checked, bounds.VAL2_SLOPE, offset)
        for m_max in checked:
            got = valuation2_factorial_lower_check(m_max)
            bad, margin = fold[m_max]
            assert (got.counterexamples, got.margin.hex()) == (bad, margin.hex()), (offset, m_max)
        assert [m for m, _ in got.counterexamples] == [
            m for m in range(1, 3001) if m - bin(m).count("1") <= bounds.VAL2_SLOPE * m - offset
        ]
    assert len(got.counterexamples) == 388


def test_valuation2_factorial_lower_stops_past_the_knee():
    t0 = time.perf_counter()
    res = valuation2_factorial_lower_check(10**18)
    assert time.perf_counter() - t0 < 0.5
    assert res.domain_checked == "1 <= m <= 1000000000000000000"
    assert (res.counterexamples, res.margin.hex()) == (
        [], valuation2_factorial_lower_check(10**6).margin.hex()
    )


def test_valuation2_factorial_matches_popcount_identity():
    res = valuation2_factorial_lower_check(4096)
    assert res.passed
    for m in (1, 16, 127, 1024, 4095):
        v2 = m - bin(m).count("1")
        assert v2 > 0.99 * m - 7


def test_thm12ii_bound():
    assert thm12ii_bound(1).a1_upper_bound == pytest.approx(12.7817, abs=1e-3)
    assert thm12ii_bound(10).a1_upper_bound == pytest.approx(55.856, abs=1e-2)
    assert thm12ii_bound(100).a1_upper_bound == pytest.approx(426.204, abs=1e-2)
    with pytest.raises(ValueError):
        thm12ii_bound(0)


def test_dusart_check(table_big):
    res = dusart_check(3275, table_big)
    assert res.passed
    assert res.details["witness"] == 3271
    assert trial_is_prime(3271)
    assert res.details["literal_form_ok"]
    assert res.details["interval_used"][0] == pytest.approx(3250.1946, abs=1e-3)
    with pytest.raises(ValueError):
        dusart_check(3274, table_big)


def test_dusart_sweep(table_big, spf_1e6):
    # The narrow (in-use) interval fails for exactly four y just above the
    # threshold: the gap 3271 -> 3299 is wider than the interval there
    # (at y = 3296 the cutoff is 3271.07, a hair above the prime 3271).
    # The wide literal-statement interval never fails on this range.
    assert dusart_failures(100_000) == [3296, 3297, 3298, 3299]
    primes = [p for p in range(2, 100_001) if spf_1e6[p] == p]
    ys = range(3275, 100_001)
    witness = {y: primes[bisect.bisect_left(primes, y) - 1] for y in ys}
    assert all(witness[y] > y / (1 + 2 * math.log(y) ** 2) for y in ys)
    # spot-check the checker against the oracle
    rng = random.Random(53)
    for y in [3275, 3296, 31397, 100_000] + [rng.randint(3300, 100_000) for _ in range(25)]:
        res = dusart_check(y, table_big)
        assert res.passed == (y not in (3296, 3297, 3298, 3299))
        assert res.details["witness"] == witness[y]
        assert res.details["literal_form_ok"]


def _dusart_folds(ends, table):
    """The dusart sweep to each y_max in ends, as folds of per-y dusart_check results."""
    ends = set(ends)
    worst, bad, literal_fail = math.inf, [], 0
    folds = {}
    for y in range(3275, max(ends) + 1):
        res = dusart_check(y, table)
        if res.margin < worst:
            worst = res.margin
        bad.extend(res.counterexamples)
        literal_fail += not res.details["literal_form_ok"]
        if y in ends:
            folds[y] = BoundCheckResult(
                name="short_prime_gap_interval_sweep",
                domain_checked=f"3275 <= y <= {y}",
                counterexamples=list(bad),
                margin=worst,
                details={"literal_form_failures": literal_fail},
            )
    return folds


@pytest.fixture(scope="module")
def dusart_fold_1e6(table_big):
    return _dusart_folds([10**6], table_big)[10**6]


def _assert_same_sweep(res, fold):
    assert res == fold
    assert res.margin.hex() == fold.margin.hex()


def test_dusart_sweep_equals_per_y_fold(table_big, dusart_fold_1e6):
    _assert_same_sweep(dusart_sweep(10**6, table_big), dusart_fold_1e6)


def test_dusart_sweep_equals_fold_at_every_end_near_the_gap(table_big):
    # sweep ends on, inside and around the run 3271 -> 3299 of the four failing y
    for y_max, fold in _dusart_folds(range(3275, 3320), table_big).items():
        _assert_same_sweep(dusart_sweep(y_max, table_big), fold)


def test_dusart_sweep_equals_fold_at_ends_around_2_16(table_big):
    # the prime stream switches from spf[m] == m to the entries' high halves
    # at 2^16; 65537 is the first prime above it
    ends = range(65535, 65540)
    assert next(m for m in range(2**16, 2**17) if trial_is_prime(m)) == 65537
    assert 65537 in ends
    for y_max, fold in _dusart_folds(ends, table_big).items():
        _assert_same_sweep(dusart_sweep(y_max, table_big), fold)


def test_dusart_cutoffs_rise_strictly_above_each_other():
    # the sweep decides each run between primes at its top; that is exact
    # only while both evaluated cutoffs rise strictly and literal < used
    ys = list(range(bounds.DUSART_MIN_Y, 2 * 10**5 + 1))
    rng = random.Random(61)
    for y in ys + [rng.randint(2 * 10**5, 10**7) for _ in range(20_000)]:
        used, literal = bounds._dusart_lo_used(y), bounds._dusart_lo_literal(y)
        assert literal < used, y
        assert bounds._dusart_lo_used(y + 1) > used, y
        assert bounds._dusart_lo_literal(y + 1) > literal, y


def test_dusart_sweep_keeps_no_array_over_its_range(table_big):
    # the sweep streams its witnesses off the spf table; numpy arrays over
    # y in chunks of 2^16 took a traced 4.6 MiB here
    tracemalloc.start()
    try:
        dusart_sweep(10**6, table_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_dusart_sweep_failures_match_oracle(table_big, dusart_fold_1e6):
    res = dusart_sweep(10**6, table_big)
    assert [y for y, _ in res.counterexamples] == dusart_failures(10**6) == [3296, 3297, 3298, 3299]
    assert res.details == {"literal_form_failures": 0}
    with pytest.raises(ValueError):
        dusart_sweep(3274, table_big)


def test_erdos_graham_ratio(table_small):
    assert erdos_graham_ratio(8, table_small).ratio == pytest.approx(3 / math.log(8), abs=1e-9)
    assert erdos_graham_ratio(2, table_small).ratio == pytest.approx(3 / math.log(2), abs=1e-9)
    assert erdos_graham_ratio(4374, table_small).ratio == pytest.approx(
        7 / math.log(4374), abs=1e-9
    )
