import math
import mmap
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from itertools import chain

import pytest

from dflab import (
    SieveRangeError,
    ResourceLimitError,
    analyze_block,
    double_factorial,
    factorize,
    largest_prime_factor,
    log_double_factorial,
    radical,
    sieve_primes,
    smooth_runs,
)
from dflab import bounds, core
from dflab.core import factorial_valuation

from oracles import df_direct, primes_upto, smooth_count, spf_direct, trial_factor, trial_is_prime


def test_sieve_rejects_small_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_smallest_legal_limit():
    t = sieve_primes(2)
    assert t.spf.tolist() == spf_direct(2) == [0, 0, 2]
    assert t.is_prime(2)


def test_sieve_agrees_with_trial_division():
    t = sieve_primes(2000)
    expected = primes_upto(2000)
    assert [m for m in range(2001) if t.is_prime(m)] == expected
    for c in range(2, 2001):
        p = int(t.spf[c])
        assert trial_is_prime(p)
        assert c % p == 0
        if not trial_is_prime(c):
            assert p * p <= c


def test_prime_count_at_million(table_big):
    assert sum(1 for _ in core._primes_between(table_big.spf, 0, 10**6 + 1)) == 78498


def test_factorize_examples(table_small):
    assert factorize(90, table_small) == {2: 1, 3: 2, 5: 1}
    assert factorize(1, table_small) == {}
    assert factorize(4374, table_small) == {2: 1, 3: 7}


def test_factorize_matches_trial_division(table_small):
    rng = random.Random(7)
    for n in [rng.randint(2, 10_000) for _ in range(300)]:
        fac = factorize(n, table_small)
        assert fac == trial_factor(n)
        assert list(fac) == sorted(fac)
        assert math.prod(p**e for p, e in fac.items()) == n


def test_factorize_errors(table_small):
    with pytest.raises(ValueError):
        factorize(0, table_small)
    with pytest.raises(SieveRangeError):
        factorize(10_001, table_small)


def test_largest_prime_factor(table_small):
    assert largest_prime_factor(1, table_small) == 1
    assert largest_prime_factor(90, table_small) == 5
    assert largest_prime_factor(4375, table_small) == 7
    for n in (2, 97, 360, 9973, 4374, 10_000):
        assert largest_prime_factor(n, table_small) == max(trial_factor(n))
    with pytest.raises(ValueError):
        largest_prime_factor(0, table_small)
    with pytest.raises(SieveRangeError):
        largest_prime_factor(10_001, table_small)


def test_radical_examples(table_small):
    assert radical(1, table_small) == 1
    assert radical(72, table_small) == 6
    assert radical(4374, table_small) == 6
    assert radical(10_000, table_small) == 10
    with pytest.raises(ValueError):
        radical(0, table_small)
    with pytest.raises(SieveRangeError):
        radical(10_001, table_small)


def test_smooth_runs_divisibility_sweep(table_big):
    hi = 100_000
    big = [1, 1] + [largest_prime_factor(m, table_big) for m in range(2, hi + 1)]
    for bound in (13, 50, 200):
        runs, lpf = smooth_runs(bound, hi)
        assert all(len(r) >= 2 and r == list(range(r[0], r[-1] + 1)) for r in runs)
        members = list(chain.from_iterable(runs))
        # every smooth neighbour of a smooth integer is in a run
        assert members == [
            m for m in range(1, hi + 1)
            if big[m] <= bound and (m > 1 and big[m - 1] <= bound or m < hi and big[m + 1] <= bound)
        ]
        assert members[0] == 1 and lpf[1] == 1
        for m in members[1:]:
            p = lpf[m]
            # P(m) is a prime <= bound dividing m, and no prime above it divides m / P(m)
            assert m % p == 0 and table_big.is_prime(p) and p <= bound, (bound, m)
            assert largest_prime_factor(m // p, table_big) <= p, (bound, m)


def test_factorial_valuation_examples():
    primes = (2, 3, 5, 7)
    assert [factorial_valuation(10, p) for p in primes] == [8, 4, 2, 1]  # 10! = 2^8 3^4 5^2 7
    assert [factorial_valuation(0, p) for p in primes] == [0, 0, 0, 0]
    assert factorial_valuation(16, 2) == 15
    with pytest.raises(ValueError):
        factorial_valuation(-1, 2)


def test_factorial_valuation_matches_summed_valuations():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    running = [0] * len(primes)
    for n in range(1, 10_001):
        fac = trial_factor(n)
        running = [acc + fac.get(p, 0) for acc, p in zip(running, primes)]
        if n % 997 == 0 or n < 40:
            assert [factorial_valuation(n, p) for p in primes] == running
    assert [factorial_valuation(10_000, p) for p in primes] == running


def test_double_factorial_examples():
    assert double_factorial(9) == 945
    assert double_factorial(10) == 3840
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    with pytest.raises(ValueError):
        double_factorial(-1)


def test_double_factorial_identities():
    for m in range(1, 80):
        assert double_factorial(m) * double_factorial(m - 1) == math.factorial(m)
    for ell in range(0, 40):
        assert double_factorial(2 * ell) == 2**ell * math.factorial(ell)
    for m in range(0, 60):
        assert double_factorial(m) == df_direct(m)


def test_log_double_factorial():
    for m in (0, 1, 5, 12, 37, 100):
        assert log_double_factorial(m) == pytest.approx(math.log(df_direct(m)), rel=1e-12)


def test_analyze_block_examples(table_small):
    rep = analyze_block(9, 2, table_small)
    assert (rep.lpf, rep.val2, rep.all_composite) == (5, 1, True)
    assert rep.term_radicals == (3, 10)
    rep = analyze_block(13, 3, table_small)
    assert rep.lpf == 13 and not rep.all_composite
    assert analyze_block(2, 5, table_small).val2 == 4
    with pytest.raises(SieveRangeError):
        analyze_block(9_990, 20, table_small)


def test_analyze_block_against_trial_division(table_big):
    rng = random.Random(23)
    for _ in range(120):
        k = rng.randint(1, 64)
        x = rng.randint(2, 100_000 - k)
        rep = analyze_block(x, k, table_big)
        val2 = 0
        lpf = 1
        comp = True
        rads = []
        for term in range(x, x + k):
            fac = trial_factor(term)
            val2 += fac.get(2, 0)
            lpf = max(lpf, max(fac))
            comp = comp and not trial_is_prime(term)
            r = 1
            for p in fac:
                r *= p
            rads.append(r)
        assert (rep.lpf, rep.val2, rep.all_composite) == (lpf, val2, comp)
        assert rep.term_radicals == tuple(rads)


def _fold(nu, table):
    """theta(nu) and sum_{p <= nu} log(p)/p, as Lemma 2.1's fold adds them."""
    return bounds._prime_sum_fold(table.spf, nu, bounds.THETA_COEFF)


def test_theta_values(table_small):
    ps = primes_upto(100)
    assert _fold(100, table_small).theta == pytest.approx(sum(math.log(p) for p in ps), abs=1e-9)
    assert _fold(100, table_small).theta == pytest.approx(83.728390399, abs=1e-6)
    assert _fold(10, table_small).theta == pytest.approx(5.347107530717, abs=1e-9)
    assert _fold(2, table_small).theta == pytest.approx(math.log(2), abs=1e-12)
    # the fold's one public caller keeps the argument checks
    with pytest.raises(ValueError):
        bounds.verify_lemma21(1, table_small)
    with pytest.raises(SieveRangeError):
        bounds.verify_lemma21(10_001, table_small)


def test_mertens_log_sum_values(table_small):
    four_terms = sum(math.log(p) / p for p in (2, 3, 5, 7))
    assert _fold(10, table_small).mertens == pytest.approx(four_terms, abs=1e-12)
    assert _fold(10, table_small).mertens == pytest.approx(1.3126524331, abs=1e-9)
    assert _fold(2, table_small).mertens == pytest.approx(math.log(2) / 2, abs=1e-12)
    assert _fold(1000, table_small).mertens < math.log(1000)


def test_smooth_runs_match_pointwise():
    lpf_of = [1] + [max(trial_factor(m), default=1) for m in range(1, 3001)]
    for bound in (2, 3, 7, 30, 97, 200):
        for hi in (1, 2, 3, 10, 64, 3000):
            smooth = [m for m in range(1, hi + 1) if lpf_of[m] <= bound]
            runs = [[smooth[0]]] if smooth else []
            for m in smooth[1:]:
                if m == runs[-1][-1] + 1:
                    runs[-1].append(m)
                else:
                    runs.append([m])
            for min_len in (2, 3, 5):
                got, lpf = smooth_runs(bound, hi, min_len)
                assert got == [r for r in runs if len(r) >= min_len], (bound, hi, min_len)
                assert all(lpf[m] == lpf_of[m] for m in chain.from_iterable(got)), (bound, hi)


def test_smooth_runs_rejects_bad_arguments():
    with pytest.raises(ValueError, match="bound must be >= 2"):
        smooth_runs(1, 100)
    with pytest.raises(ValueError, match="at least 2 long"):
        smooth_runs(10, 100, 1)


def test_smooth_runs_refuses_before_it_allocates(monkeypatch):
    # 88-smooth integers up to 10^15 are tens of millions; a 1 MiB cap stops
    # the count at 8192, before their lists are built
    monkeypatch.setattr(core, "MAX_TABLE_BYTES", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="above the 1048576-byte cap"):
            smooth_runs(88, 10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert smooth_count(88, 10**4) * core._SMOOTH_BYTES_PER_ENTRY < 2**20
    assert smooth_runs(88, 10**4)[0]  # a small range still fits


def test_primes_between_reads_the_primes_off_spf(table_big, spf_1e6):
    # below 2^16 spf[m] == m decides; above it the odd entries' high halves
    spf = table_big.spf
    primes = [m for m in range(2, 10**6 + 1) if spf_1e6[m] == m]
    assert list(core._primes_between(spf, 0, 10**6 + 1)) == primes
    for lo, hi in [(0, 3), (3272, 3272), (65_519, 65_540), (65_536, 65_537), (65_537, 65_538),
                   (65_538, 65_540), (65_540, 65_536), (131_000, 131_200), (999_900, 10**6 + 1)]:
        got = list(core._primes_between(spf, lo, hi))
        assert got == [m for m in range(lo, hi) if trial_is_prime(m)], (lo, hi)


def _prime_count_ranges(limit):
    """(lo, hi) ranges for _count_primes up to limit: across 256, 2^16 and limit, and odd or even ends."""
    ranges = [(255, 256), (255, 300), (256, 257), (1000, 1000), (1023, 5000), (65_000, 66_000)]
    ranges += [(65_535, 65_536), (65_536, 65_537), (65_520, 65_560), (60_000, limit), (255, limit)]
    rng = random.Random(7)
    for _ in range(40):
        lo = rng.randint(255, limit)
        ranges.append((lo, rng.randint(lo, min(limit, lo + rng.choice((10, 300, 20_000))))))
    return ranges


def test_count_primes_reads_the_top_byte_of_each_entry(table_big, spf_1e6):
    limit = 200_000
    total = [0]
    for m in range(1, limit + 1):
        total.append(total[-1] + (spf_1e6[m] == m))
    for lo, hi in _prime_count_ranges(limit):
        assert core._count_primes(table_big.spf, lo, hi) == total[hi] - total[lo], (lo, hi)


def test_count_primes_on_a_big_endian_host(monkeypatch):
    # on this host "big" swaps the entries, so a byte-swapped table reads as
    # a big-endian host would see its own
    table = core.sieve_primes(70_000)
    want = [core._count_primes(table.spf, lo, hi) for lo, hi in _prime_count_ranges(70_000)]
    swapped = array("I", table.spf)
    swapped.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big")
    got = [core._count_primes(memoryview(swapped), lo, hi) for lo, hi in _prime_count_ranges(70_000)]
    assert got == want


def test_primes_between_on_a_big_endian_host(spf_1e6, monkeypatch):
    # as for _count_primes, a byte-swapped table under "big" reads as a
    # big-endian host's own.  Below 2^16 the stream compares whole entries,
    # which a swapped table cannot pass off as native, so every range starts
    # at 2^16 or above.
    limit = 300_000
    primes = [m for m in range(1 << 16, limit + 1) if spf_1e6[m] == m]
    ranges = [(1 << 16, 1 << 16), (1 << 16, (1 << 16) + 2), ((1 << 16) + 1, 66_000)]
    ranges += [(65_537, 65_538), (65_538, 65_539), (1 << 16, limit + 1), (299_000, limit + 1)]
    rng = random.Random(11)
    for _ in range(48):
        lo = rng.randint(1 << 16, limit)
        ranges.append((lo, rng.randint(lo, min(limit + 1, lo + rng.choice((10, 300, 20_000, limit))))))
    swapped = array("I", core.sieve_primes(limit).spf)
    swapped.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big")
    for lo, hi in ranges:
        got = list(core._primes_between(memoryview(swapped), lo, hi))
        assert got == primes[bisect_left(primes, lo) : bisect_left(primes, hi)], (lo, hi)


def test_count_primes_above_2_24(spf_1e6):
    # entries from 2^24 on carry a prime's top byte in byte 3: the first
    # prime past 2^24, 2^24 + 43, has byte 2 zero.  Only a window around
    # 2^24 is written, by a sieve of its own; the rest of the anonymous map
    # stays unbacked zero pages.
    lo, hi = (1 << 24) - 3000, (1 << 24) + 3000
    window = [0] * (hi - lo + 1)
    for p in (p for p in range(2, math.isqrt(hi) + 1) if spf_1e6[p] == p):
        for m in range(-(-lo // p) * p, hi + 1, p):
            window[m - lo] = window[m - lo] or p
    primes = [m for m in range(lo + 1, hi + 1) if not window[m - lo]]
    assert min(p for p in primes if p > 1 << 24) == (1 << 24) + 43
    ranges = [(lo, hi), (lo, 1 << 24), ((1 << 24) - 1, hi), (1 << 24, (1 << 24) + 43), (lo + 17, hi - 5)]
    with mmap.mmap(-1, 4 * (hi + 1)) as buf:
        with memoryview(buf).cast("I") as spf:
            for m in range(lo, hi + 1):
                spf[m] = window[m - lo] or m
            got = [core._count_primes(spf, a, b) for a, b in ranges]
    assert got == [sum(a < p <= b for p in primes) for a, b in ranges]


def df_exponents(m, table):
    """m!! as a prime -> exponent dict: the spf-walk factorizations of its terms, summed."""
    out = {}
    for term in range(m, 1, -2):
        for p, e in factorize(term, table).items():
            out[p] = out.get(p, 0) + e
    return out


def df_valuation(m, p):
    """nu_p(m!!) from Legendre sums: (2l)!! = 2^l l! and (2l-1)!! = (2l)! / (2^l l!)."""
    half = (m + 1) // 2
    if m % 2 == 0:
        return factorial_valuation(half, p) + (half if p == 2 else 0)
    return factorial_valuation(m + 1, p) - factorial_valuation(half, p) - (half if p == 2 else 0)


def test_valuation_vectors_match_scalars(table_small):
    primes = primes_upto(200)
    for m in (0, 1, 7, 10, 16, 100, 199):
        truth = trial_factor(math.factorial(m))
        assert [factorial_valuation(m, p) for p in primes] == [truth.get(p, 0) for p in primes]
    for m in range(0, 50):
        truth = trial_factor(df_direct(m))
        assert df_exponents(m, table_small) == truth
        assert [df_valuation(m, p) for p in primes] == [truth.get(p, 0) for p in primes]


def test_double_factorial_expvec_examples(table_small):
    assert df_exponents(10, table_small) == {2: 8, 3: 1, 5: 1}
    assert df_exponents(9, table_small) == {3: 3, 5: 1, 7: 1}
    assert df_exponents(1, table_small) == {}
    assert [df_valuation(10, p) for p in (2, 3, 5, 7)] == [8, 1, 1, 0]
    assert [df_valuation(9, p) for p in (2, 3, 5, 7)] == [0, 3, 1, 1]
    assert [df_valuation(1, p) for p in (2, 3, 5, 7)] == [0, 0, 0, 0]


def test_double_factorial_expvec_reconstructs(table_small):
    primes = primes_upto(60)
    for m in range(0, 61):
        fac = df_exponents(m, table_small)
        assert math.prod(p**e for p, e in fac.items()) == df_direct(m)
        assert math.prod(p ** df_valuation(m, p) for p in primes) == df_direct(m)
