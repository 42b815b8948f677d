"""Empirical checkers for every explicit inequality the toolkit relies on.

Each checker scans its stated domain and returns a BoundCheckResult that
carries the counterexamples (empty means pass) and the minimum slack
observed, so a regression in the arithmetic shows up as a shrinking
margin long before it flips a verdict.  Named constants below are never
inlined at use sites.

Verdicts that rest on double-precision comparisons are reliable down to
FLOAT_TOLERANCE; every margin at desk scale sits orders of magnitude
above it.

verify_lemma21 folds the primes up to 2^10 one at a time and decides the
rest a block at a time, counting each block's primes off the sieve with
core._count_primes; dusart_sweep streams its primes off the sieve, and
the geometry scan and dusart_check read it entry by entry.
theorem24_scan reads no sieve: it scans the runs of consecutive smooth
integers, which it builds itself.  The val2 sweep and factorial check are
closed forms and read no sieve.  sandwich_check takes a SolutionRecord
that classify or search has already verified and decomposed, so this
module imports only core and formulas.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import chain, compress, islice

from .core import (
    PrimeTable,
    analyze_block,
    sieve_primes,
    smooth_runs,
    _count_primes,
    _primes_between,
)
from .formulas import THETA_COEFF, VAL2_SLOPE

__all__ = [
    "LPF_BLOCK_COEFF",
    "VAL2_OFFSET",
    "DUSART_MIN_Y",
    "FLOAT_TOLERANCE",
    "EXCEPTIONAL_PAIRS_ORDERED",
    "EXCEPTIONAL_PAIRS",
    "BoundCheckResult",
    "EmptyScan",
    "verify_lemma21",
    "composite_block_geometry_scan",
    "sandwich_check",
    "theorem24_scan",
    "valuation2_block_bound_check",
    "valuation2_block_sweep",
    "valuation2_factorial_lower_check",
    "dusart_check",
    "dusart_sweep",
]

# P(x(x+1)...(x+k-1)) > LPF_BLOCK_COEFF * k for x > 4k, k >= 2, outside the
# exceptional pairs below.
LPF_BLOCK_COEFF = 4.42
# nu_2(m!) > VAL2_SLOPE * m - VAL2_OFFSET; VAL2_SLOPE lives in formulas.
VAL2_OFFSET = 7.0
# Below this y the short prime-gap interval statement is not asserted.
DUSART_MIN_Y = 3275
# Double-precision comparisons are trusted down to this slack.
FLOAT_TOLERANCE = 1e-9

# The 38 (x, k) pairs exempted from the LPF_BLOCK_COEFF bound.
EXCEPTIONAL_PAIRS_ORDERED = (
    (9, 2), (14, 2), (20, 2), (24, 2), (27, 2), (35, 2), (48, 2), (49, 2),
    (63, 2), (80, 2), (125, 2), (224, 2), (2400, 2), (4374, 2),
    (13, 3), (14, 3), (20, 3), (24, 3), (25, 3), (26, 3), (48, 3), (54, 3),
    (63, 3), (64, 3), (98, 3), (350, 3),
    (24, 4), (25, 4), (32, 4), (33, 4), (48, 4), (49, 4), (63, 4),
    (24, 5), (32, 5), (48, 5),
    (29, 7), (30, 7),
)
EXCEPTIONAL_PAIRS = frozenset(EXCEPTIONAL_PAIRS_ORDERED)


class BoundCheckResult(
    namedtuple("BoundCheckResult", "name domain_checked counterexamples margin details")
):
    """A check's verdict: counterexamples (empty means pass), the least slack, details."""

    __slots__ = ()

    def __new__(cls, name, domain_checked, counterexamples, margin, details=None):
        # a fresh details dict per result, never one shared default
        details = {} if details is None else details
        return super().__new__(cls, name, domain_checked, counterexamples, margin, details)

    @property
    def passed(self) -> bool:
        return not self.counterexamples


# A scan that found nothing to check: the count checked (0) and why
EmptyScan = namedtuple("EmptyScan", "checked note")


class _Fold(namedtuple("_Fold", "theta mertens theta_margin mertens_margin theta_bad mertens_bad count")):
    """Lemma 2.1's per-prime fold: both running sums as the fold adds them,
    each least slack, the counterexamples (p, running sum) at a slack <= 0,
    and the primes folded."""

    __slots__ = ()


def _prime_sum_fold(spf, nu_max: int, coeff: float) -> _Fold:
    """Lemma 2.1's fold over the primes p <= nu_max, one prime at a time.

    One log per prime; both running sums are added in prime order.
    """
    theta = mertens = 0.0
    theta_margin = mertens_margin = math.inf
    theta_bad, mertens_bad = [], []
    count = 0
    for p in _primes_between(spf, 2, nu_max + 1):
        log_p = math.log(p)
        theta += log_p
        mertens += log_p / p
        slack = coeff * p - theta
        if slack < theta_margin:
            theta_margin = slack
        if slack <= 0:
            theta_bad.append((p, theta))
        slack = log_p - mertens
        if slack < mertens_margin:
            mertens_margin = slack
        if slack <= 0:
            mertens_bad.append((p, mertens))
        count += 1
    return _Fold(theta, mertens, theta_margin, mertens_margin, theta_bad, mertens_bad, count)


# verify_lemma21 folds the primes up to here one at a time: both margins
# are attained at nu = 2 and 3 with the paper's constants, and
# _count_primes starts at 256
_LEMMA21_PREFIX = 1 << 10
# a block this narrow that still cannot be skipped sends verify_lemma21
# back to the per-prime fold
_LEMMA21_MIN_BLOCK = 16
# relative pad on the bounds for each float rounding they cover, about
# 10^4 times the 2^-53 rounding unit
_LEMMA21_PAD = 1e-12


def _lemma21_blocks(spf, nu_max: int, coeff: float, fold: _Fold):
    """Skip the primes _LEMMA21_PREFIX < p <= nu_max a block (a, b] at a time.

    fold is the per-prime fold up to _LEMMA21_PREFIX.  Yields (b, primes
    in (a, b], theta bound, log-sum bound) for each block skipped,
    ascending, each bound at least the fold's running sum at b
    (verify_lemma21 says when a block can be skipped), and stops at
    nu_max, or early at a block of
    _LEMMA21_MIN_BLOCK integers that cannot be skipped.  Each block starts
    at about half the width that the slack either sum has to spare could
    absorb, and is halved while it cannot be skipped.
    """
    theta, mertens = fold.theta, fold.mertens
    theta_clear, mertens_clear = max(fold.theta_margin, 0), max(fold.mertens_margin, 0)
    log, pad = math.log, _LEMMA21_PAD
    a = _LEMMA21_PREFIX
    while a < nu_max:
        theta_low = coeff * (a + 1)  # coeff * p as the fold rounds it, at the least p
        log_low = log(a + 1)
        mertens_step = log_low / (a + 1)  # log(p)/p falls for p >= 3
        log_low *= 1 - pad
        width = min(theta_low - theta - theta_clear, (log_low - mertens - mertens_clear) * a) / 2
        width = max(int(width), _LEMMA21_MIN_BLOCK)
        while True:
            b = min(a + width, nu_max)
            r = _count_primes(spf, a, b)
            grow = 1 + pad * (r + 16)
            theta_high = (theta + r * log(b)) * grow
            mertens_high = (mertens + r * mertens_step) * grow
            if theta_low - theta_high > theta_clear and log_low - mertens_high > mertens_clear:
                break
            if width <= _LEMMA21_MIN_BLOCK:
                return
            width //= 2
        yield b, r, theta_high, mertens_high
        a, theta, mertens = b, theta_high, mertens_high


def verify_lemma21(nu_max: int, table: PrimeTable) -> tuple:
    """Lemma 2.1's prime sums at every prime nu <= nu_max: theta(nu) < THETA_COEFF * nu
    and sum_{p <= nu} log(p)/p < log(nu).

    Returns the two BoundCheckResults, theta's first.  Each sum only jumps
    at primes and each right side grows, so the minimum slack over real nu
    is attained at a prime.  The result is, bit for bit, that of the fold
    over every prime: one log each, both running sums added in prime order.

    That fold runs only up to _LEMMA21_PREFIX.  Above it the primes go a
    block (a, b] at a time, counted off the table (_count_primes), and
    the fold's two float sums are carried as upper bounds.  With math.log
    within 1 ulp, as assumed here, each term the fold adds in the block is
    at most log(b), resp. log(a+1)/(a+1), up to a few rounding units, and
    each addition rounds up by at most one unit.  So r primes raise each
    bound by r such terms, and the total is scaled by
    1 + _LEMMA21_PAD * (r + 16), which covers those units and the rounding
    of the bound's own arithmetic with room to spare.  Rounding is
    monotone, so at every prime of the block the fold's theta slack is at
    least coeff * (a+1) - theta_high, and its log-sum slack at least
    log(a+1) * (1 - _LEMMA21_PAD) - mertens_high, each as rounded; the
    pad also covers the log's ulp here.  When both exceed max(margin, 0),
    no prime of the block can lower a margin or fail, and the block is
    skipped.  If every block is, margins and counterexamples are the
    prefix fold's and only the prime count grows.  Otherwise the fold
    reruns from nu = 2 over the whole range.
    """
    if nu_max < 2:
        raise ValueError("nu_max must be at least 2")
    spf = table.upto(nu_max, f"nu_max={nu_max}")
    coeff = THETA_COEFF
    fold = _prime_sum_fold(spf, min(nu_max, _LEMMA21_PREFIX), coeff)
    count, top = fold.count, _LEMMA21_PREFIX
    for top, r, _, _ in _lemma21_blocks(spf, nu_max, coeff, fold):
        count += r
    if top < nu_max:  # a block could not be skipped
        fold = _prime_sum_fold(spf, nu_max, coeff)
        count = fold.count

    def result(name, bad, margin):
        return BoundCheckResult(
            name=name,
            domain_checked=f"primes nu <= {nu_max}",
            counterexamples=bad,
            margin=margin,
            details={"primes_checked": count, "float_tolerance": FLOAT_TOLERANCE},
        )

    return (
        result("theta_linear_upper", fold.theta_bad, fold.theta_margin),
        result("mertens_log_sum_upper", fold.mertens_bad, fold.mertens_margin),
    )


def composite_block_geometry_scan(k_max: int, table: PrimeTable) -> BoundCheckResult:
    """An all-composite block forces x >= k, checked at every 2 <= x < k <= k_max.

    (A prime sits in ((x+k-1)/2, x+k-1) by Bertrand; were x < k that
    interval would land inside the block.)  A block [x, x+k-1] is all
    composite iff it ends before the first prime >= x, so one walk down
    spf over [2, 2*k_max - 2], tracking that prime, decides every block
    exactly.  Counterexamples are ordered by k, then x.
    """
    if k_max < 3:
        raise ValueError(f"empty scan: k_max must be >= 3 for any block 2 <= x < k, got {k_max}")
    hi = 2 * k_max - 2
    spf = table.upto(hi, f"block end {hi}")
    nxt = hi + 1  # no prime found yet: every block ends before it
    bad = []
    for x in range(hi, 1, -1):
        if spf[x] == x:
            nxt = x
        if x < k_max:
            bad += [(x, k) for k in range(x + 1, min(k_max, nxt - x) + 1)]
    bad.sort(key=lambda block: (block[1], block[0]))
    return BoundCheckResult(
        name="all_composite_block_geometry",
        domain_checked=f"2 <= x < k <= {k_max}",
        counterexamples=bad,
        margin=math.inf,
        details={"blocks_checked": (k_max - 1) * (k_max - 2) // 2},
    )


def _log_factor_sum(m: int, step: int) -> float:
    """Sum of log over m, m-step, m-2*step, ..., down to 2 or 1."""
    total = 0.0
    v = m
    while v > 1:
        total += math.log(v)
        v -= step
    return total


def sandwich_check(solution: SolutionRecord, table: PrimeTable) -> BoundCheckResult:
    """Log-scale sandwich inequalities satisfied by nontrivial solutions.

    solution is a SolutionRecord from classify or search, so its identity
    is already verified and its decomposition already taken.
    Even case (r = 0), with m = a1/2 + 1 and k = (n - a1)/2:
        a2*log(a2) - a2 <= log(a2!!) <= k*log(4m)
    Odd case (r = 1), with (x1, l1) from the decomposition:
        a1*log(a1) - a1 <= log((a1+1)!) <= 2*l1*log(4*x1)
    Each inequality carries its hypotheses (k >= 2 resp. an all-composite
    block); inequalities whose hypotheses fail are evaluated and reported
    but cannot fail the check.  Logs of factorials are exact factor sums.
    """
    instance = solution.instance
    r = instance.r
    if r > 1:
        raise ValueError(f"sandwich checks cover parity signatures 0 and 1, got r={r}")
    ineqs = []
    details: dict = {"case": "even" if r == 0 else "odd", "float_tolerance": FLOAT_TOLERANCE}

    def add(label, lhs, rhs, hyp_met, note):
        ineqs.append(
            {
                "label": label,
                "lhs": lhs,
                "rhs": rhs,
                "holds": lhs <= rhs,
                "hypothesis_met": hyp_met,
                "hypothesis": note,
            }
        )

    if r == 0:
        a1, a2 = instance.a[0], instance.a[1]
        m = a1 // 2 + 1
        k = instance.half_n - a1 // 2
        block = analyze_block(m, k, table)
        gap_ok = k >= 2
        log_df = _log_factor_sum(a2, 2)
        details.update({"m": m, "k": k, "a2": a2, "block_all_composite": block.all_composite})
        add(
            "a2*log(a2) - a2 <= log(a2!!)",
            a2 * math.log(a2) - a2,
            log_df,
            gap_ok,
            "k >= 2",
        )
        add(
            "log(a2!!) <= k*log(4m)",
            log_df,
            k * math.log(4 * m),
            gap_ok and block.all_composite,
            "k >= 2 and block all composite",
        )
    else:
        a1 = instance.odd_parts[0]
        dec = solution.decomposition
        log_fact = _log_factor_sum(a1 + 1, 1)
        details["a1"] = a1
        add(
            "a1*log(a1) - a1 <= log((a1+1)!)",
            a1 * math.log(a1) - a1,
            log_fact,
            True,
            "none",
        )
        if dec is None:
            details["decomposition"] = None
            add("log((a1+1)!) <= 2*l1*log(4*x1)", log_fact, math.inf, False, "no decomposition")
        else:
            block = analyze_block(dec.x1, dec.l1, table)
            details.update(
                {
                    "decomposition": dec._asdict(),
                    "block_all_composite": block.all_composite,
                }
            )
            add(
                "log((a1+1)!) <= 2*l1*log(4*x1)",
                log_fact,
                2 * dec.l1 * math.log(4 * dec.x1),
                block.all_composite,
                "block all composite",
            )

    details["inequalities"] = ineqs
    active = [q for q in ineqs if q["hypothesis_met"]]
    counterexamples = [q for q in active if not q["holds"]]
    margin = min((q["rhs"] - q["lhs"] for q in active), default=math.inf)
    return BoundCheckResult(
        name="solution_sandwich",
        domain_checked=f"solution n={instance.n}, a={list(instance.a)}",
        counterexamples=counterexamples,
        margin=margin,
        details=details,
    )


def _smooth_block_maxima(bound: int, hi: int, ks):
    """Yield (k, xs, best) for each k in ks, ascending, over the bound-smooth runs up to hi.

    best[i] = min(P(xs[i] ... xs[i] + k - 1), bound + 1) for each block
    that ends at or below hi, and xs lists every start of a block with
    P <= bound: the members of the runs at least k long, each run followed
    by the integer after it, which is not smooth (or is past hi).  xs
    ascends; best can be up to k - 1 entries shorter.
    """
    runs, lpf = smooth_runs(bound, hi, ks[0])
    for k in ks:
        runs = [run for run in runs if len(run) >= k]
        xs, ps = [], []
        for run in runs:
            xs += run
            xs.append(run[-1] + 1)
            ps += map(lpf.__getitem__, run)
            ps.append(bound + 1)
        # window maxima of width k: doubling widths, then two overlapping windows
        best, width = ps, 1
        while 2 * width <= k:
            best = list(map(max, best, islice(best, width, None)))
            width *= 2
        if width < k:
            best = list(map(max, best, islice(best, k - width, None)))
        yield k, xs, best


def theorem24_scan(k_range, x_max: int) -> BoundCheckResult:
    """Scan P(block) > LPF_BLOCK_COEFF * k over 4k < x <= x_max, k in k_range.

    details["exceptions"] lists all pairs (x, k) at or under the bound,
    k-major and x ascending; the check passes iff every one is an
    exceptional pair.  The scan is one-directional: exceptional pairs that
    happen to satisfy the bound anyway are reported in details, never
    treated as errors.

    No table is read.  A block with P <= B has all its terms B-smooth, so
    it lies in a run of consecutive B-smooth integers, and core.smooth_runs
    lists those runs.  B = floor(LPF_BLOCK_COEFF * max k) finds every
    exception.  The margin is the least P over the non-member blocks, and
    a block outside the runs has P >= B + 1, so the least found inside is
    exact for each k that has one.  A k with none matters only if B + 1
    can still undercut the margin.  Then its first non-member block past
    4k, whose P is at most about 5k, bounds its least P from above, and one
    more scan, at the largest such P over those k, makes each exact.  The
    members' own verdicts and those first blocks are factored directly.
    """
    ks = sorted({int(k) for k in k_range})
    if not ks or ks[0] < 2:
        raise ValueError("k values must be >= 2")
    if x_max <= 4 * ks[0]:
        raise ValueError(f"empty scan: no x with 4k < x <= {x_max} for k in {ks}")
    ks = [k for k in ks if 4 * k < x_max]
    hi = x_max + ks[-1] - 1
    members = {
        k: sorted(x for (x, kk) in EXCEPTIONAL_PAIRS if kk == k and 4 * k < x <= x_max)
        for k in ks
    }
    found = {}
    # least P(block) over the non-member blocks of each k, an integer, so
    # the margin is float(least) - thresh, as rounding is monotone
    least = {}

    def scan(bound, scan_ks):
        """Record the blocks of each k with P <= bound; return the margin over every least P so far."""
        for k, xs, best in _smooth_block_maxima(bound, hi, scan_ks):
            lo = bisect_right(xs, 4 * k)
            top = min(bisect_right(xs, x_max), len(best))
            window = best[lo:top]
            if k not in found:  # the first scan: every block with P <= thresh <= bound is here
                cap = math.floor(LPF_BLOCK_COEFF * k)  # P <= thresh iff P <= cap, for integer P
                found[k] = list(compress(xs[lo:top], map(cap.__ge__, window)))
            for x in members[k]:
                i = bisect_left(xs, x, lo, top)
                if i < top and xs[i] == x:
                    window[i - lo] = bound + 1
            if min(window, default=bound + 1) <= bound:
                least[k] = min(window)
        return min((float(least[k]) - LPF_BLOCK_COEFF * k for k in least), default=math.inf)

    bound = math.floor(LPF_BLOCK_COEFF * ks[-1])
    margin = scan(bound, ks)
    firsts = []  # (x, k): the first non-member block of each k that may undercut the margin
    for k in ks:
        if k not in least and margin > float(bound + 1) - LPF_BLOCK_COEFF * k:
            x = 4 * k + 1
            while (x, k) in EXCEPTIONAL_PAIRS:
                x += 1
            if x <= x_max:
                firsts.append((x, k))
    ends = [x + k - 1 for k in ks for x in members[k]] + [x + k - 1 for x, k in firsts]
    table = sieve_primes(max(ends)) if ends else None
    if firsts:
        margin = scan(max(analyze_block(x, k, table).lpf for x, k in firsts), [k for _, k in firsts])
    verdicts = []
    for k in ks:
        thresh = LPF_BLOCK_COEFF * k
        for x in members[k]:
            p_val = analyze_block(x, k, table).lpf
            verdicts.append({"x": x, "k": k, "lpf": p_val, "satisfies_bound": p_val > thresh})
    exceptions = [(x, k) for k in ks for x in found[k]]
    counterexamples = [pair for pair in exceptions if pair not in EXCEPTIONAL_PAIRS]
    return BoundCheckResult(
        name="block_lpf_linear_lower",
        domain_checked=f"k in {ks}, 4k < x <= {x_max}",
        counterexamples=counterexamples,
        margin=margin,
        details={
            "pairs_scanned": sum(x_max - 4 * k for k in ks),
            "exceptions": exceptions,
            "exceptional_member_verdicts": verdicts,
        },
    )


def _val2_block_slack(x: int, k: int) -> tuple:
    """(nu_2 of the block, the bound k - 1 + log2(x + k), bound - nu_2).

    By Legendre nu_2(m!) = m - s_2(m), with s_2 the count of binary ones,
    so the block (x+k-1)!/(x-1)! has nu_2 = k - s_2(x+k-1) + s_2(x-1).
    """
    val2 = k - (x + k - 1).bit_count() + (x - 1).bit_count()
    bound = k - 1 + math.log2(x + k)
    return val2, bound, bound - val2


def valuation2_block_bound_check(x: int, k: int) -> BoundCheckResult:
    """nu_2(x(x+1)...(x+k-1)) <= k - 1 + log2(x + k), in closed form: no table is read."""
    if x < 2:
        raise ValueError(f"block start must be >= 2, got {x}")
    if k < 1:
        raise ValueError(f"block length must be >= 1, got {k}")
    val2, bound, slack = _val2_block_slack(x, k)
    return BoundCheckResult(
        name="block_power_of_two_upper",
        domain_checked=f"x={x}, k={k}",
        counterexamples=[] if slack > 0 else [(x, k, val2)],
        margin=slack,
        details={"val2": val2, "bound": bound, "float_tolerance": FLOAT_TOLERANCE},
    )


def valuation2_block_sweep(x_max: int, k_max: int, samples: int, seed: int) -> BoundCheckResult:
    """valuation2_block_bound_check at blocks drawn by random.Random(seed).

    Each sample draws x = randint(2, x_max), then k = randint(1, k_max).
    The valuation is the closed form above, so no block is factored; the
    bound keeps math.log2, so each margin equals the single check's.
    """
    if x_max < 2 or k_max < 1 or samples < 1:
        raise ValueError("empty sweep: need x_max >= 2, k_max >= 1 and samples >= 1")
    rng = random.Random(seed)
    worst = math.inf
    bad = []
    for _ in range(samples):
        x = rng.randint(2, x_max)
        k = rng.randint(1, k_max)
        val2, _, slack = _val2_block_slack(x, k)
        worst = min(worst, slack)
        if not slack > 0:
            bad.append((x, k, val2))
    return BoundCheckResult(
        name="block_power_of_two_upper_sweep",
        domain_checked=f"{samples} samples, x <= {x_max}, k <= {k_max}, seed={seed}",
        counterexamples=bad,
        margin=worst,
        details={},
    )


def valuation2_factorial_lower_check(m_max: int) -> BoundCheckResult:
    """nu_2(m!) > VAL2_SLOPE * m - VAL2_OFFSET for 1 <= m <= m_max.

    By Legendre nu_2(m!) = m - s_2(m), and s_2(m) <= log2(m) + 1, so the
    slack at m is at least low(m) = (1 - VAL2_SLOPE) * m + VAL2_OFFSET -
    log2(m) - 1.  low falls up to the knee 1 / ((1 - VAL2_SLOPE) ln 2),
    about 144, and rises after it, so below the knee it is at most every
    slack so far.  Once low(m) clears max(margin, 0) by FLOAT_TOLERANCE, far
    above the rounding of either side, m is past the knee and every later
    slack is larger.  The walk stops there (m = 387 with the paper's
    constants): no later m can fail or lower the margin, so the result
    equals the fold over every m <= m_max.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    slope, offset, rise, log2 = VAL2_SLOPE, VAL2_OFFSET, 1 - VAL2_SLOPE, math.log2
    counterexamples = []
    margin = math.inf
    clear = max(margin, 0) + FLOAT_TOLERANCE  # what low must exceed to stop
    for m in range(1, m_max + 1):
        v2 = m - m.bit_count()
        slack = v2 - (slope * m - offset)
        if slack < margin:
            margin = slack
            clear = max(margin, 0) + FLOAT_TOLERANCE
        if slack <= 0:
            counterexamples.append((m, v2))
        if rise * m + offset - log2(m) - 1 > clear:  # low(m)
            break
    return BoundCheckResult(
        name="factorial_power_of_two_lower",
        domain_checked=f"1 <= m <= {m_max}",
        counterexamples=counterexamples,
        margin=margin,
        details={"float_tolerance": FLOAT_TOLERANCE},
    )


def _dusart_lo_used(y: int) -> float:
    """Lower end of the prime-gap interval the downstream estimates use."""
    return y / (1 + 1 / (2 * math.log(y) ** 2))


def _dusart_lo_literal(y: int) -> float:
    """Lower end of the wider interval of the literal statement."""
    return y / (1 + 2 * math.log(y) ** 2)


def dusart_check(y: int, table: PrimeTable) -> BoundCheckResult:
    """A prime in (y / (1 + 1/(2*log^2 y)), y) for y >= DUSART_MIN_Y.

    This is the interval the downstream estimates use.  The wider
    literal-statement interval (y / (1 + 2*log^2 y), y) is evaluated
    alongside and reported in details; neither is silently preferred.
    """
    if y < DUSART_MIN_Y:
        raise ValueError(f"the interval statement needs y >= {DUSART_MIN_Y}, got {y}")
    spf = table.upto(y, f"y={y}")
    lo_used, lo_literal = _dusart_lo_used(y), _dusart_lo_literal(y)
    # the largest prime below y, walking down the spf table
    witness = next(v for v in range(y - 1, 1, -1) if spf[v] == v)
    return BoundCheckResult(
        name="short_prime_gap_interval",
        domain_checked=f"y={y}",
        counterexamples=[] if witness > lo_used else [(y, witness)],
        margin=witness - lo_used,
        details={
            "witness": witness,
            "interval_used": [lo_used, y],
            "interval_literal": [lo_literal, y],
            "literal_form_ok": witness > lo_literal,
        },
    )


def dusart_sweep(y_max: int, table: PrimeTable) -> BoundCheckResult:
    """dusart_check at every DUSART_MIN_Y <= y <= y_max, folded into one result.

    The sweep goes one run (p, p'] between consecutive primes at a time:
    every y of a run has witness p.  The witnesses stream upward through
    the spf table from the one of DUSART_MIN_Y, so no prime list is read or
    kept: each prime p' closes the run (p, p'], and y_max closes the last.
    Both cutoffs, as evaluated, rise strictly with y: each step is at least
    0.0016 at every y <= 10^7 (about 0.0014 at the largest sieve
    MAX_TABLE_BYTES allows), against rounding of a few ulp of y.  The
    literal cutoff also lies below the used one.  So a run's margin is least
    at its top, and its failing y for either interval form a final stretch:
    dusart_check's formula at the top decides the run, and a failing top is
    walked down while it fails.  Counterexamples, literal-form failures and
    the margin equal those of a per-y fold bit for bit.
    """
    if y_max < DUSART_MIN_Y:
        raise ValueError(f"the interval statement needs y >= {DUSART_MIN_Y}, got y_max={y_max}")
    spf = table.upto(y_max, f"y_max={y_max}")
    # the witness of DUSART_MIN_Y, the largest prime below it
    w = next(v for v in range(DUSART_MIN_Y - 1, 1, -1) if spf[v] == v)
    worst = math.inf
    bad = []
    literal_fail = 0
    for top in chain(_primes_between(spf, w + 1, y_max), (y_max,)):
        margin = w - _dusart_lo_used(top)
        if margin < worst:
            worst = margin
        if margin <= 0:
            y = top
            stretch = []
            while y >= max(w + 1, DUSART_MIN_Y) and not w > _dusart_lo_used(y):
                stretch.append((y, w))
                literal_fail += not w > _dusart_lo_literal(y)
                y -= 1
            bad += reversed(stretch)
        w = top
    return BoundCheckResult(
        name="short_prime_gap_interval_sweep",
        domain_checked=f"{DUSART_MIN_Y} <= y <= {y_max}",
        counterexamples=bad,
        margin=worst,
        details={"literal_form_failures": literal_fail},
    )
