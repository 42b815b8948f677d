"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (trial division, direct products,
exhaustive enumeration) so it shares no code path with the library.
"""

import math
from itertools import compress, repeat
from operator import le, sub


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_factor(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def df_direct(m: int) -> int:
    """m!! as a plain descending product."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def primes_upto(n: int) -> list:
    return [p for p in range(2, n + 1) if trial_is_prime(p)]


def block_lpf_violators(k_range, x_max: int, coeff: float) -> list:
    """All (x, k) with 4k < x <= x_max and P(x(x+1)...(x+k-1)) <= coeff*k.

    P is the largest prime factor.  Every term of such a block is
    B-smooth, B = coeff * max k.  An m <= hi is B-smooth iff it divides Q,
    the product over the primes p <= B of the largest power of p up to hi,
    and then P(m) is the largest of those primes dividing m.  A block of
    k >= 2 starts with two smooth neighbours.  Pairs are ordered by k,
    then x.
    """
    ks = sorted(set(k_range))
    hi = x_max + ks[-1] - 1
    small = primes_upto(math.floor(coeff * ks[-1]))
    q = 1
    for p in small:
        power = p
        while power * p <= hi:
            power *= p
        q *= power
    lpf = {m: max(p for p in small if m % p == 0) for m in range(2, hi + 1) if q % m == 0}
    pairs = sorted(m for m in lpf if m + 1 in lpf)
    out = []
    for k in ks:
        bound = coeff * k
        out += [
            (x, k)
            for x in pairs
            if 4 * k < x <= x_max and all(lpf.get(m, math.inf) <= bound for m in range(x, x + k))
        ]
    return out


def block_lpf_margin(k_range, x_max: int, coeff: float, exempt) -> float:
    """min over k of (least P over the blocks 4k < x <= x_max not in exempt) - coeff*k.

    Every P comes from trial_factor, every block is taken, and a k with no
    such block is left out (inf when none has one).
    """
    ks = sorted(set(k_range))
    lpf = [1, 1] + [max(trial_factor(m)) for m in range(2, x_max + ks[-1])]
    least = {
        k: min(
            (max(lpf[x : x + k]) for x in range(4 * k + 1, x_max + 1) if (x, k) not in exempt),
            default=None,
        )
        for k in ks
    }
    return min((p - coeff * k for k, p in least.items() if p is not None), default=math.inf)


def smooth_count(bound: int, hi: int) -> int:
    """How many m in [1, hi] have no prime factor above bound, by a depth-first walk of their factorizations."""
    primes = primes_upto(bound)

    def walk(m, i):
        # m times any product of primes[i:] that stays <= hi
        return 1 + sum(walk(m * p, j) for j, p in enumerate(primes[i:], i) if m * p <= hi)

    return walk(1, 0) if hi >= 1 else 0


def enumerate_r0_solutions(n_max: int, t_max: int) -> set:
    """All (n, parts, classification) with every part even, by big-int products."""
    dfs = {m: df_direct(m) for m in range(3, n_max + 1)}
    found = set()

    def rec(n, target, max_v, prod, parts):
        for v in range(max_v, 3, -2):
            nxt = prod * dfs[v]
            if nxt > target:
                continue
            cur = parts + (v,)
            if nxt == target and len(cur) >= 2:
                cls = "trivial-even" if n - cur[0] == 2 else "nontrivial"
                found.add((n, cur, cls))
            elif nxt < target and len(cur) < t_max:
                rec(n, target, v, nxt, cur)

    for n in range(4, n_max + 1, 2):
        rec(n, dfs.get(n, df_direct(n)), n - 2, 1, ())
    return found


def enumerate_r1_solutions(n_max: int, t_max: int) -> set:
    """All (n, parts) with exactly one odd part, by big-int products."""
    dfs = {m: df_direct(m) for m in range(3, n_max + 1)}
    found = set()

    def rec(n, target, max_v, prod, parts, odd_used):
        for v in range(max_v, 2, -1):
            if v % 2 == 1 and odd_used:
                continue
            nxt = prod * dfs[v]
            if nxt > target:
                continue
            cur = parts + (v,)
            now_odd = odd_used or v % 2 == 1
            if nxt == target:
                if len(cur) >= 3 and now_odd:
                    found.add((n, cur))
            elif len(cur) < t_max:
                rec(n, target, v, nxt, cur, now_odd)

    for n in range(4, n_max + 1, 2):
        rec(n, dfs.get(n, df_direct(n)), n - 1, 1, (), False)
    return found


def spf_direct(limit: int) -> list:
    """Smallest prime factor of each i in 0..limit (0 for 0 and 1), by a list sieve."""
    spf = list(range(limit + 1))
    spf[: min(2, limit + 1)] = [0] * min(2, limit + 1)
    p = 2
    while p * p <= limit:
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
        p += 1
    return spf


def dusart_failures(y_max: int, y_min: int = 3275) -> list:
    """y in [y_min, y_max] with no prime in (y / (1 + 1/(2 log^2 y)), y).

    A bytearray sieve gives the largest prime below each y; the cutoff is
    evaluated with math.log, one y at a time.
    """
    sieve = bytearray([1]) * y_max
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(y_max - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, y_max, p)))
    bad = []
    prev = 0  # largest prime below y
    for y in range(2, y_max + 1):
        if y >= y_min and not prev > y / (1 + 1 / (2 * math.log(y) ** 2)):
            bad.append(y)
        if y < y_max and sieve[y]:
            prev = y
    return bad


def prime_sum_fold(nu_maxes, coeff: float, spf: list) -> tuple:
    """Lemma 2.1's two folds over the primes up to max(nu_maxes), one prime at a time.

    theta(nu) < coeff * nu and sum_{p <= nu} log(p)/p < log(nu).  Returns
    (theta_bad, mertens_bad, at): the counterexamples (nu, running sum) at
    a slack <= 0 over the whole range, ascending, and for each nu_max
    given, at[nu_max] = (theta_margin, mertens_margin, primes), the least
    slacks and the prime count up to nu_max.  Primes come from spf, an
    spf_direct table; each running sum is added in prime order.
    """
    theta = mertens = 0.0
    theta_margin = mertens_margin = math.inf
    theta_bad, mertens_bad, at = [], [], {}
    count = 0
    primes = iter(p for p in range(2, max(nu_maxes) + 1) if spf[p] == p)
    p = next(primes)
    for stop in sorted(set(nu_maxes)):
        while p is not None and p <= stop:
            count += 1
            theta += math.log(p)
            mertens += math.log(p) / p
            theta_margin = min(theta_margin, coeff * p - theta)
            mertens_margin = min(mertens_margin, math.log(p) - mertens)
            if coeff * p - theta <= 0:
                theta_bad.append((p, theta))
            if math.log(p) - mertens <= 0:
                mertens_bad.append((p, mertens))
            p = next(primes, None)
        at[stop] = (theta_margin, mertens_margin, count)
    return theta_bad, mertens_bad, at


def val2_factorial_fold(m_maxes, slope: float, offset: float) -> dict:
    """{m_max: (counterexamples, margin)}: the fold of nu_2(m!) > slope * m - offset
    over m = 1..m_max, for each m_max given.

    nu_2(m!) is m minus the binary ones of m, counted by doubling a table
    (the ones of m + 2^i, for m < 2^i, are those of m plus one).  One pass
    goes up to the largest m_max, a chunk of m at a time: each slack is
    v2 - (slope * m - offset), evaluated by map with no Python step per m.
    """
    top_all = max(m_maxes)
    ones = [0]
    while len(ones) <= top_all:
        ones += list(map((1).__add__, ones))  # list(): a map over ones would see it grow
    out = {}
    bad = []
    margin = math.inf
    done = 0
    for top in sorted(set(m_maxes)):
        for lo in range(done + 1, top + 1, 1 << 16):
            ms = range(lo, min(lo + (1 << 16), top + 1))
            v2s = list(map(sub, ms, ones[ms.start : ms.stop]))
            slacks = list(map(sub, v2s, map(sub, map(slope.__mul__, ms), repeat(offset))))
            margin = min(margin, min(slacks))
            bad += compress(zip(ms, v2s), map(le, slacks, repeat(0)))
        done = top
        out[top] = (list(bad), margin)
    return out


def gap2_family(n_max: int, t_max: int) -> set:
    """Gap-2 family members (n, parts) with n <= n_max and at most t_max parts.

    n = e_1!! * ... * e_j!! * o!! for even e_i >= 4 (j >= 1) and at most one
    odd o >= 3.  Then n!! = n * (n-2)!! = (n-2)!! * e_1!! * ... * o!!, so
    (n; n-2, e_1, ..., e_j, o) solves the identity.  Parts are descending.
    """
    dfs = {}
    m = 3
    while df_direct(m) <= n_max:
        dfs[m] = df_direct(m)
        m += 1
    found = set()

    def rec(n, evens):
        if len(evens) + 1 <= t_max:
            found.add((n, tuple(sorted((n - 2,) + evens, reverse=True))))
        if len(evens) + 2 <= t_max:
            for o in range(3, m, 2):
                if n * dfs[o] <= n_max:
                    parts = (n * dfs[o] - 2,) + evens + (o,)
                    found.add((n * dfs[o], tuple(sorted(parts, reverse=True))))
            for e in range(4, evens[-1] + 1, 2):
                if n * dfs[e] <= n_max:
                    rec(n * dfs[e], evens + (e,))

    for e in range(4, m, 2):
        rec(dfs[e], (e,))
    return found
