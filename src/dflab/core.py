"""Exact integer number theory: sieving, factorization, double factorials.

The sieve is a smallest-prime-factor table held as one read-only, flat
uint32 memoryview (4 bytes per integer), which makes factorization of any
n <= limit a walk of O(log n) lookups; factorize
returns the prime -> exponent dict, primes ascending.  Exponents have
this one form: spf-walk dicts for products of table-sized integers, and
the scalar Legendre sum factorial_valuation for nu_p(m!).  Every prime
fact is read off the same table: a prime test is spf[m] == m, the
primes of a range stream from _primes_between, with no prime list kept,
and _count_primes counts them at C speed.  These two are the only
library code, besides the cache in cli, that reads the table's bytes.
sieve_primes builds the table in pure Python, by slice assignment.
smooth_runs needs no table up to its range: it sieves the primes up to
its smoothness bound only, builds the smooth integers as their products
and keeps the runs of consecutive ones.
The CLI's point queries on blocks and pairs live here too, beside the
data they read: analyze_block, erdos_ratio, erdos_graham_ratio and
odd_gap_obstruction, so that block analyze, ratio and gap-witness load no
other library module.
Result types are namedtuple subclasses: importing dataclasses (with
inspect, ast and dis) takes about 10 ms, more than a point query's
arithmetic.
Integer arithmetic is exact everywhere; floats appear only in the
log-space helpers.  A PrimeTable never changes after construction, so
one instance can be shared freely.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress, islice
from operator import ne

__all__ = [
    "SieveRangeError",
    "ResourceLimitError",
    "MAX_TABLE_BYTES",
    "PrimeTable",
    "check_sieve_memory",
    "sieve_primes",
    "factorize",
    "largest_prime_factor",
    "radical",
    "factorial_valuation",
    "double_factorial",
    "log_double_factorial",
    "BlockReport",
    "analyze_block",
    "ErdosRatio",
    "ErdosGrahamRatio",
    "GapWitness",
    "erdos_ratio",
    "erdos_graham_ratio",
    "odd_gap_obstruction",
    "smooth_runs",
]

_UINT32_MAX = 2**32 - 1
# check_sieve_memory and smooth_runs refuse (ResourceLimitError) a charge above this
MAX_TABLE_BYTES = 2**30
# Bytes per entry the memory guard charges a sieve: 4 for the uint32 spf
# table and the rest headroom.  Building a table peaks at about 6 bytes per
# entry (the odd identity is copied in from a half-size array), and writing
# the cache streams it without a copy; loading one touches about 4.
# A loaded table holds only the entries to its need; the rest of the cache
# file passes through its CRC a piece at a time.  The charge sets the
# largest limit the memory cap allows (exit 3 above it), so it stays fixed
# as the table's own cost changes.
_SIEVE_BYTES_PER_ENTRY = 14
# Bytes per integer the memory guard charges smooth_runs: about 40 for the
# int and its list slot, up to 48 for its slot in the set of them all, and
# headroom for the sorts and the runs
_SMOOTH_BYTES_PER_ENTRY = 128


class SieveRangeError(ValueError):
    """An argument lies outside the range covered by the PrimeTable."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its node budget or a table memory cap."""


class PrimeTable:
    """Smallest-prime-factor sieve over [2, limit].

    ``spf[i]`` is the least prime dividing i (``spf[0] == spf[1] == 0``).
    For composite c the entry is a prime <= sqrt(c); for prime p it is p
    itself.  spf is a read-only memoryview of native uint32 entries (format
    "I"), taken without a copy from the buffer given.  The library reads it
    through upto(hi), which names the largest index the caller will read and
    is the one place a read past the table raises SieveRangeError.
    """

    __slots__ = ("limit", "spf")

    def __init__(self, limit: int, spf):
        if limit < 2:
            raise ValueError(f"sieve limit must be >= 2, got {limit}")
        spf = memoryview(spf)
        if spf.format != "I" or spf.ndim != 1:
            raise ValueError(f"spf must be a flat uint32 buffer, got format {spf.format!r}")
        if len(spf) != limit + 1:
            raise ValueError("spf array does not match the stated limit")
        self.limit = int(limit)
        self.spf = spf.toreadonly()

    def upto(self, hi: int, what: str | None = None):
        """spf, whose entries 0..hi the caller reads; past the limit, SieveRangeError naming what (or hi)."""
        if hi > self.limit:
            raise SieveRangeError(f"{what or hi} exceeds sieve limit {self.limit}")
        return self.spf

    def is_prime(self, n: int) -> bool:
        if n < 2:
            return False
        return self.upto(n)[n] == n

    def __repr__(self):
        return f"PrimeTable(limit={self.limit})"


def check_sieve_memory(limit: int):
    """Raise ResourceLimitError if a sieve to limit would touch more than MAX_TABLE_BYTES."""
    need = _SIEVE_BYTES_PER_ENTRY * (limit + 1)
    if need > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"a sieve to {limit} needs about {need} bytes, above the {MAX_TABLE_BYTES}-byte cap"
        )


def sieve_primes(limit: int) -> PrimeTable:
    """Build the smallest-prime-factor table for [2, limit], in pure Python.

    Every entry starts as its own index (2 for the evens), then each odd
    prime p <= sqrt(limit), largest first, overwrites its odd multiples
    from p*p, so the last write to a composite is its smallest prime
    factor.  Each write is one slice assignment, with no Python step per
    entry.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > _UINT32_MAX:
        raise ValueError("sieve entries are uint32; limit must be < 2**32")
    check_sieve_memory(limit)
    root = math.isqrt(limit)
    odd = bytearray([1]) * (root + 1)  # odd[m] for odd m: m is prime
    for p in range(3, math.isqrt(root) + 1, 2):
        if odd[p]:
            odd[p * p :: 2 * p] = bytes(len(range(p * p, root + 1, 2 * p)))
    spf = array("I", [0]) * (limit + 1)
    spf[3::2] = array("I", range(3, limit + 1, 2))
    spf[2::2] = array("I", [2]) * (limit // 2)
    for p in range(root - (root % 2 == 0), 2, -2):
        if odd[p]:
            spf[p * p :: 2 * p] = array("I", [p]) * len(range(p * p, limit + 1, 2 * p))
    return PrimeTable(limit, spf)


def _primes_between(spf, lo: int, hi: int):
    """Iterator over the primes m with lo <= m < hi, ascending, read off spf.

    Below 2^16 m is prime iff spf[m] == m.  Every composite below 2^32 has
    its smallest prime factor below 2^16, so from 2^16 on an odd m is prime
    iff the high uint16 of its entry is nonzero: itertools.compress picks
    the odd entries of that stretch off their high halves, with no Python
    step per entry.  Entries are native uint32, so sys.byteorder says which
    half is high.
    """
    mid = min(max(lo, 1 << 16), hi)
    odd = mid | 1
    high = 2 * odd + (sys.byteorder == "little")
    halves = spf.cast("B").cast("H")[high : 2 * hi : 4]
    small = (m for m in range(max(lo, 2), mid) if spf[m] == m)
    return chain(small, compress(range(odd, hi, 2), halves))


def _count_primes(spf, lo: int, hi: int) -> int:
    """The number of primes m with lo < m <= hi, for 255 <= lo <= hi < 2^32.

    Every composite m has spf[m] <= sqrt(m), so for 2^(8j) <= m < 2^(8j+8),
    j >= 1, byte j of spf[m] (its bits 8j to 8j+7) is nonzero iff m is
    prime: it is then m's own top byte.  Each stretch of one j is counted
    at C speed: one contiguous copy of its entries, sliced to byte j of the
    odd ones (no even m > 2 is prime), then bytes.count.  Entries are
    native uint32, so sys.byteorder says where byte j sits.
    """
    raw = spf.cast("B")
    big = sys.byteorder == "big"
    count = 0
    m = (lo + 1) | 1
    while m <= hi:
        j = (m.bit_length() - 1) // 8
        end = min(hi + 1, 1 << 8 * (j + 1))
        stripe = raw[4 * m : 4 * end].tobytes()[3 - j if big else j :: 8]
        count += len(stripe) - stripe.count(0)
        m = end | 1
    return count


def _walk_spf(n: int, spf) -> dict:
    """Prime -> exponent map of n via smallest-prime-factor chasing, primes ascending."""
    out = {}
    while n > 1:
        p = spf[n]
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def factorize(n: int, table: PrimeTable) -> dict:
    """Prime -> exponent map of 1 <= n <= table.limit, primes ascending; {} for 1."""
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    return _walk_spf(n, table.upto(n))


def largest_prime_factor(n: int, table: PrimeTable) -> int:
    """P(n): greatest prime dividing 1 <= n <= table.limit, with P(1) = 1."""
    return max(factorize(n, table), default=1)


def radical(n: int, table: PrimeTable) -> int:
    """N(n): product of the distinct primes dividing 1 <= n <= table.limit; N(1) = 1."""
    return math.prod(factorize(n, table))


def factorial_valuation(m: int, p: int) -> int:
    """nu_p(m!) for prime p, by Legendre's formula: the sum of m // p^i."""
    if m < 0:
        raise ValueError(f"factorial_valuation needs m >= 0, got {m}")
    e = 0
    while m >= p:
        m //= p
        e += m
    return e


def double_factorial(m: int) -> int:
    """Exact m!!, with 0!! = 1!! = 1.

    Uses (2l)!! = 2^l * l!  and  (2l-1)!! = (2l)! / (2^l * l!), so
    m!! * (m-1)!! = m! holds exactly for every m >= 1.
    """
    if m < 0:
        raise ValueError(f"double factorial needs m >= 0, got {m}")
    if m <= 1:
        return 1
    if m % 2 == 0:
        half = m // 2
        return (1 << half) * math.factorial(half)
    half = (m + 1) // 2
    return math.factorial(m + 1) // ((1 << half) * math.factorial(half))


def log_double_factorial(m: int) -> float:
    """Natural log of m!! via lgamma (exact up to float rounding)."""
    if m < 0:
        raise ValueError(f"double factorial needs m >= 0, got {m}")
    if m <= 1:
        return 0.0
    if m % 2 == 0:
        half = m // 2
        return half * math.log(2.0) + math.lgamma(half + 1)
    half = (m + 1) // 2
    return math.lgamma(m + 2) - half * math.log(2.0) - math.lgamma(half + 1)


class BlockReport(namedtuple("BlockReport", "x k lpf val2 all_composite term_radicals")):
    """Anatomy of the consecutive-integer product x(x+1)...(x+k-1)."""

    __slots__ = ()


def analyze_block(x: int, k: int, table: PrimeTable) -> BlockReport:
    """Factor every term of x(x+1)...(x+k-1); never forms the product.

    lpf is the max over terms of each term's largest prime factor, val2
    the total power of 2, all_composite true iff no term is prime.
    """
    if x < 2:
        raise ValueError(f"block start must be >= 2, got {x}")
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    hi = x + k - 1
    spf = table.upto(hi, f"block end {hi}")
    lpf = 1
    val2 = 0
    all_composite = True
    rads = []
    for t in range(x, hi + 1):
        if spf[t] == t:
            all_composite = False
        fac = _walk_spf(t, spf)
        rad = 1
        for p in fac:
            rad *= p
        rads.append(rad)
        val2 += fac.get(2, 0)
        big = max(fac)
        if big > lpf:
            lpf = big
    return BlockReport(x, k, lpf, val2, all_composite, tuple(rads))


# What erdos_ratio, erdos_graham_ratio and odd_gap_obstruction return: arguments and values
ErdosRatio = namedtuple("ErdosRatio", "x k ratio all_composite")
ErdosGrahamRatio = namedtuple("ErdosGrahamRatio", "n ratio")
GapWitness = namedtuple("GapWitness", "n l witness")


def erdos_ratio(x: int, k: int, table: PrimeTable) -> ErdosRatio:
    """P(block) / (k*log k) when the block is all composite, else ratio None."""
    if k < 2:
        raise ValueError(f"block length must be >= 2, got {k}")
    report = analyze_block(x, k, table)
    ratio = report.lpf / (k * math.log(k)) if report.all_composite else None
    return ErdosRatio(x, k, ratio, report.all_composite)


def erdos_graham_ratio(n: int, table: PrimeTable) -> ErdosGrahamRatio:
    """P(n(n+1)) / log(n), the growth statistic for consecutive pairs."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    table.upto(n + 1, f"n+1={n + 1}")
    lpf = max(largest_prime_factor(n, table), largest_prime_factor(n + 1, table))
    return ErdosGrahamRatio(n, lpf / math.log(n))


def odd_gap_obstruction(n: int, l: int, table: PrimeTable) -> GapWitness:
    """A prime witness p with n/2 < p <= n - l, if one exists (largest such).

    For even n and odd a1 = n - l, any such p divides a1!! but not
    n!! = 2^(n/2) (n/2)!, so no identity with largest part a1 can hold.
    The witness is None when the interval is empty of primes.
    """
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    a1 = n - l
    if a1 % 2 == 0:
        raise ValueError(f"n - l = {a1} must be odd")
    if a1 < 3:
        raise ValueError(f"n - l = {a1} must be >= 3")
    # a1 > n when l < 0; a read past the limit names n when n is past it
    spf = table.upto(max(n, a1), f"n={n}" if n > table.limit else f"n - l = {a1}")
    # odd v, downward: the first prime is the largest
    witness = next((v for v in range(a1, n // 2, -2) if spf[v] == v), None)
    return GapWitness(n, l, witness)


def smooth_runs(bound: int, hi: int, min_len: int = 2) -> tuple:
    """(runs, lpf): the maximal runs of consecutive bound-smooth integers in [1, hi].

    runs lists each run of at least min_len integers as an ascending list,
    runs ascending; lpf maps every integer in them to its largest prime
    factor (P(1) = 1).  Only the primes up to bound are sieved.  The smooth
    numbers are built as products of those primes, taken in ascending
    order: multiplying the numbers made so far by the powers of p makes
    exactly those whose largest prime is p.  Each batch is counted before
    it is built, and ResourceLimitError is raised before the count,
    charged _SMOOTH_BYTES_PER_ENTRY each, would pass MAX_TABLE_BYTES.  Runs
    are rare (Størmer: finitely many pairs of smooth neighbours for any
    bound), so they are a small part of the numbers built.
    """
    if bound < 2:
        raise ValueError(f"smoothness bound must be >= 2, got {bound}")
    if min_len < 2:
        raise ValueError(f"runs must be at least 2 long, got {min_len}")
    primes = list(_primes_between(sieve_primes(bound).spf, 2, bound + 1))
    groups = [[1]]  # groups[i]: the smooth m <= hi whose largest prime is primes[i - 1], ascending
    count = 1
    for p in primes:
        batch = []
        q = p
        while q <= hi:
            cuts = [bisect_right(g, hi // q) for g in groups]
            count += sum(cuts)
            if count * _SMOOTH_BYTES_PER_ENTRY > MAX_TABLE_BYTES:
                raise ResourceLimitError(
                    f"the {bound}-smooth integers up to {hi} number at least {count}, which need"
                    f" about {count * _SMOOTH_BYTES_PER_ENTRY} bytes, above the {MAX_TABLE_BYTES}-byte cap"
                )
            for g, cut in zip(groups, cuts):
                batch += map(q.__mul__, islice(g, cut))
            q *= p
        batch.sort()
        groups.append(batch)
    smooth = set(chain.from_iterable(groups))
    after = smooth.intersection(map((1).__add__, smooth))  # m with m - 1 smooth too
    del smooth
    inside = after.union(map((-1).__add__, after))
    lpf = {}
    for p, g in zip([1] + primes, groups):
        lpf.update(dict.fromkeys(inside.intersection(g), p))
    ms = sorted(inside)
    ends = [0, *compress(range(1, len(ms)), map(ne, islice(ms, 1, None), map((1).__add__, ms))), len(ms)]
    runs = [ms[a:b] for a, b in zip(ends, ends[1:]) if b - a >= min_len]
    return runs, lpf
