"""Model and exhaustive search for products of double factorials.

The object of study is the identity  a_1!! * ... * a_t!! = n!!  over
integers n > a_i >= 3, t >= 2.  Parts are a multiset: the two infinite
trivial families put their largest even part out of the sorted order a
fixed ordering convention would impose, so instances carry a canonically
descending tuple and nothing more.

The parity signature r counts odd parts.  Whenever any part is even, n
must be even for the identity to hold, and r <= t - 2 is forced: with
exactly one even part the remaining product is odd while the even side
is not.  Instances violating these facts are still representable; they
are simply refuted by check_identity.

Everything here reads the sieve entry by entry, in plain Python with no
array library.  The search keeps what is still owed as a sparse
prime -> exponent dict times one factorial and branches only on the part
that covers the largest owed prime, so it needs no table beyond the sieve
and has no cap on n.  It skips the divide of a candidate whose child could
charge nothing: a second-to-last part that leaves no last part of matching
magnitude, and a root even part that leaves a prime too large for any next
part within what is owed.  Both compare the floats the child would, so the
charges, the budget messages and the solutions stay the same.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import namedtuple

from .core import (
    PrimeTable,
    ResourceLimitError,
    double_factorial,
    factorial_valuation,
    log_double_factorial,
)

__all__ = [
    "NotASolutionError",
    "EquationInstance",
    "OddDecomposition",
    "SolutionRecord",
    "check_identity",
    "odd_decomposition",
    "classify",
    "generate_trivial_even",
    "generate_trivial_odd",
    "search",
    "DEFAULT_MAX_GENERATED_N",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_MAX_GENERATED_N = 10**9
DEFAULT_NODE_BUDGET = 10**8
# The log-magnitude prunes for target n!!, the search's and check_identity's,
# allow a slack of _LOG_RTOL * (1 + log n!!); check_identity bounds its own
# rounding error where it prunes.  The search's log owed is log n!! minus
# the log_double_factorial of each part so far, at most t_max + 1 lgamma
# values.  Each is within 8.7e-16 of its value, relative (measured to
# m = 10^6, see check_identity), and on a live path the parts' logs total
# at most log n!! plus the slack, so the terms
# are off by at most 2e-15 * log n!!; each subtraction rounds once more,
# by at most 2**-53 * log n!!.  For t_max below 10^5 the error stays below
# 1.2e-11 * log n!!, and below 3e-15 * log n!! at the t_max <= 5 the tests
# run: the slack is 80 and 3 * 10^5 times as large.
_LOG_RTOL = 1e-9


class NotASolutionError(ValueError):
    """The candidate instance does not satisfy the product identity."""


class EquationInstance(namedtuple("EquationInstance", "n a")):
    """Candidate (n; a_1..a_t), parts stored as a descending tuple."""

    __slots__ = ()

    def __new__(cls, n, a):
        parts = tuple(sorted((int(v) for v in a), reverse=True))
        n = int(n)
        if len(parts) < 2:
            raise ValueError("need at least two parts (t >= 2)")
        if parts[-1] < 3:
            raise ValueError("every part must be >= 3")
        if parts[0] >= n:
            raise ValueError(f"largest part {parts[0]} must be < n = {n}")
        return super().__new__(cls, n, parts)

    @property
    def t(self) -> int:
        return len(self.a)

    @property
    def r(self) -> int:
        """Parity signature: number of odd parts."""
        return sum(1 for v in self.a if v % 2)

    @property
    def half_n(self) -> int:
        """N = n/2 (meaningful for even n)."""
        return self.n // 2

    @property
    def odd_parts(self) -> tuple:
        return tuple(v for v in self.a if v % 2)

    @property
    def even_parts(self) -> tuple:
        return tuple(v for v in self.a if v % 2 == 0)


class OddDecomposition(namedtuple("OddDecomposition", "x1 l1 x2 l2")):
    """Block coordinates for a single-odd-part solution.

    x1 + l1 = N + 1 and x2 + l2 = A1 + 1 hold by construction, where
    N = n/2 and A1 = (a1+1)/2 for the odd part a1.
    """

    __slots__ = ()


class SolutionRecord(
    namedtuple("SolutionRecord", "instance classification witness decomposition", defaults=(None,))
):
    """A verified solution, its family label (trivial-even, trivial-odd or
    nontrivial), the reason for the label, and its OddDecomposition or None."""

    __slots__ = ()


def check_identity(instance: EquationInstance, table: PrimeTable) -> bool:
    """True iff prod a_i!! = n!! exactly.

    The largest part top of n's parity cancels against n!! (top = n mod 2
    when no part has n's parity, as 0!! = 1!! = 1): the identity holds iff
    the product of the m with top < m <= n, m = n (mod 2), equals the
    product of the other parts' double factorials.  A log-magnitude prune
    rejects most non-solutions; integers decide the rest, by comparing the
    factorizations of both sides, each term factored by walking the spf
    table.  Neither product is ever formed.
    """
    n = instance.n
    spf = table.upto(n, f"n={n}")
    others = list(instance.a)
    top = next((v for v in others if v % 2 == n % 2), n % 2)
    if top > 1:
        others.remove(top)
    # The prune allows the search's slack _LOG_RTOL * (1 + log n!!).  Each
    # log_double_factorial came within 8.7e-16 of its value, relative, on
    # every m <= 20000 (against math.log of the exact integer) and on 3200
    # sampled m <= 10^6 (against a 50-digit Stirling series); lgamma itself
    # came within 2.7e-16.  fsum adds one rounding.  When the identity holds,
    # the terms for n, top and the other parts total at most 2 log n!!, so
    # the error stays below 2e-15 * log n!! plus two roundings: the slack is
    # over 10^5 times as large.
    log_n = log_double_factorial(n)
    gap = log_n - log_double_factorial(top) - math.fsum(map(log_double_factorial, others))
    if abs(gap) > _LOG_RTOL * (1.0 + log_n):
        return False
    owed = {}  # prime -> its exponent in the n side minus that in the parts side
    terms = [(range(top + 2, n + 1, 2), 1)] + [(range(v, 1, -2), -1) for v in others]
    for ms, sign in terms:
        for m in ms:
            while m > 1:
                p = spf[m]
                m //= p
                owed[p] = owed.get(p, 0) + sign
    return not any(owed.values())


def odd_decomposition(instance: EquationInstance) -> OddDecomposition | None:
    """(x1, l1, x2, l2) for an instance with exactly one odd part.

    The largest even part plays the n-side role (giving the minimal l1);
    the partner role goes to the largest remaining even part e with
    e <= a1 + 1, so that l2 >= 0.  Returns None when no even qualifies.
    """
    if instance.r != 1:
        raise ValueError("decomposition requires exactly one odd part")
    if instance.n % 2:
        raise ValueError("decomposition requires even n")
    evens = instance.even_parts
    if not evens:
        return None
    a1 = instance.odd_parts[0]
    big_half = (a1 + 1) // 2
    top_half = evens[0] // 2
    x1 = top_half + 1
    l1 = instance.half_n - top_half
    partner = next((e for e in evens[1:] if e <= a1 + 1), None)
    if partner is None:
        return None
    p_half = partner // 2
    return OddDecomposition(x1, l1, p_half + 1, big_half - p_half)


def classify(instance: EquationInstance, table: PrimeTable) -> SolutionRecord:
    """Attach the family label to a verified solution.

    trivial-even: all parts even and the largest is n-2 (then n equals
    the product of the remaining double factorials).
    trivial-odd: exactly one odd part a1, with n-2 and a1-1 both among
    the parts (then n = a1! times the remaining even double factorials).
    Anything else is nontrivial.
    """
    if not check_identity(instance, table):
        raise NotASolutionError(f"(n={instance.n}, a={instance.a}) does not satisfy the identity")
    n, a, r = instance.n, instance.a, instance.r
    dec = odd_decomposition(instance) if r == 1 and n % 2 == 0 else None
    if r == 0:
        if n - a[0] == 2:
            return SolutionRecord(
                instance, "trivial-even", f"all parts even and max(a) = n-2 = {n - 2}", dec
            )
        return SolutionRecord(
            instance, "nontrivial", f"all parts even but n - max(a) = {n - a[0]} != 2", dec
        )
    if r == 1:
        a1 = instance.odd_parts[0]
        has_gap = (n - 2) in a
        has_twin = (a1 - 1) in a
        if has_gap and has_twin:
            return SolutionRecord(
                instance,
                "trivial-odd",
                f"single odd part {a1} with n-2 = {n - 2} and a1-1 = {a1 - 1} among parts",
                dec,
            )
        missing = []
        if not has_gap:
            missing.append(f"n-2 = {n - 2}")
        if not has_twin:
            missing.append(f"a1-1 = {a1 - 1}")
        return SolutionRecord(
            instance, "nontrivial", f"single odd part but parts lack {', '.join(missing)}", dec
        )
    return SolutionRecord(instance, "nontrivial", f"parity signature r = {r} > 1", dec)


def generate_trivial_even(evens, *, max_n: int = DEFAULT_MAX_GENERATED_N) -> EquationInstance:
    """Trivial family with every part even: n = prod(evens!!), parts = evens + (n-2,)."""
    evens = tuple(evens)
    if not evens:
        raise ValueError("need at least one even value")
    return _trivial_instance(0, evens, max_n)


def generate_trivial_odd(
    a1: int, evens=(), *, max_n: int = DEFAULT_MAX_GENERATED_N
) -> EquationInstance:
    """Trivial family with one odd part: n = a1! * prod(evens!!).

    Parts are {a1, a1-1} + evens + {n-2}; the identity telescopes because
    a1! = a1!! * (a1-1)!! and n!! = n * (n-2)!!.
    """
    if a1 < 5 or a1 % 2 == 0:
        raise ValueError(f"a1 must be odd and >= 5, got {a1}")
    return _trivial_instance(a1, evens, max_n)


def _trivial_instance(a1: int, evens, max_n: int) -> EquationInstance:
    """The instance n = a1! * prod(evens!!) of either family (a1 = 0: no odd part), n <= max_n.

    n's log is checked first, so an n far past max_n is refused before it is built.
    """
    evens = tuple(sorted((int(e) for e in evens), reverse=True))
    for e in evens:
        if e < 4 or e % 2:
            raise ValueError(f"values must be even and >= 4, got {e}")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if math.lgamma(a1 + 1) + sum(log_double_factorial(e) for e in evens) > math.log(max_n) + 0.5:
        raise OverflowError(f"generated n would exceed the configured bound {max_n}")
    n = math.factorial(a1) * math.prod(double_factorial(e) for e in evens)
    if n > max_n:
        raise OverflowError(f"generated n = {n} exceeds the configured bound {max_n}")
    return EquationInstance(n, ((a1, a1 - 1) if a1 else ()) + evens + (n - 2,))


class _NodeBudget:
    """Count of candidates one search visited; done is the last n fully searched."""

    __slots__ = ("limit", "used", "done")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.done = None

    def spend(self, amount: int):
        self.used += amount
        if self.used > self.limit:
            done = f"the last fully searched n is {self.done}" if self.done else "no n finished"
            raise ResourceLimitError(
                f"search exceeded the node budget of {self.limit} candidates; {done}"
            )


def _divide(M: int, S: dict, v: int, spf):
    """(M', S', top) with M'! * S' = M! * S / v!!, or None when v!! does not divide M! * S.

    S maps primes to exponents, negative where M! covers them; top is the
    largest prime above M' still owed, or 0.  _divide only divides, so it
    needs M <= k for even v = 2k and M <= v for odd v (_rebase gets there).
    Even v: v!! = 2^k k!, so M! / v!! = 2^-k M!/k!, and M' = 0.  Odd
    v = 2j+1: v!! = v! / (2^j j!), so M! / v!! = 2^j a! b!/v! with
    a = min(j, M), b = max(j, M), and M' = a.  S is divided by the block
    k!/M! or v!/b! of consecutive integers, factored by spf walks.
    """
    S = dict(S)
    half = v >> 1
    if v & 1:
        S[2] = S.get(2, 0) + half
        new_m, hi, lo = min(half, M), v, max(half, M)
    else:
        S[2] = S.get(2, 0) - half
        new_m, hi, lo = 0, half, M
    # exponents only fall from here on, so with M' = 0 the first one below
    # zero rejects v; walking down meets large primes first
    for m in range(hi, lo, -1):
        while m > 1:
            p = spf[m]
            m //= p
            e = S.get(p, 0) - 1
            if e < 0 and not new_m:
                return None
            S[p] = e
    top = 0
    for p, e in list(S.items()):
        if not e:
            del S[p]
        elif e < 0 and factorial_valuation(new_m, p) + e < 0:
            return None
        elif e > 0 and p > top and p > new_m:
            top = p
    return new_m, S, top


def _rebase(M: int, S: dict, bases: range, spf) -> dict:
    """{m: S_m}, m! * S_m = M! * S, for each m < M of the range bases.

    S_m is S times the block (m+1)...M, which grows by one integer as m
    falls, so one walk down from M factors each integer once.  An odd part
    v < M divides from base v, an even part 2k < 2M from base k.
    """
    based = {}
    run = dict(S)
    x = M
    for m in reversed(range(bases.start, min(bases.stop, M))):
        while x > m:
            y = x
            while y > 1:
                p = spf[y]
                y //= p
                run[p] = run.get(p, 0) + 1
            x -= 1
        based[m] = dict(run)
    return based


def _top_owed(M: int, S: dict, top: int, spf) -> int:
    """Largest prime owed in M! * S (an integer), or 0 when it is 1, given
    top, the largest owed above M or 0: only primes in (top, M] are read."""
    for m in range(M, top, -1):
        if spf[m] == m and factorial_valuation(M, m) + S.get(m, 0) > 0:
            return m
    return top


class _Cover:
    """Depth-first prime-cover search for the solutions of one n.

    What is still owed is kept as M! * S.  Each node branches only on the
    part that covers the largest owed prime q, with p+ the next prime: an
    odd part from [q, p+), while the single odd part is free, or an even
    part from [max(2q, 4), 2p+).  Any part v has v!! dividing what is owed,
    so no v at or past those ends can divide, and some part must hold q,
    so the branching is complete.  Parts come out in any order, so a
    solution with several parts holding q is found once per order; found
    keeps them as descending tuples.

    Floats only prune: a part needs log v!! <= log owed + tol, and the
    last slot log v!! = log owed within tol.  Integers decide: a hit needs
    _divide to leave M <= 1 and an empty S.  (M stays above 1 only at the
    root and after an odd part taken there, and neither owes 1.)  There
    one _rebase walk, taken when the first candidate needs it, serves both
    windows: an odd part v < M is divided from base v and an even part
    2k < 2M from base k, so each integer of their blocks is factored once.
    Every candidate past the log cut is charged to the budget.

    Two prunes skip the divide of a charged candidate v, and so its child,
    when that child would charge nothing and find nothing.  They are exact
    because they compare the child's own floats: rest = log owed - log v!!
    against its cut rest + tol and, in the last slot, rest - tol.  The
    charges, the budget messages and the hits stay the same.
    - Second to last, the child is the last slot.  It charges only a w
      with rest - tol <= log w!! <= rest + tol: an even w in [4, n) or,
      while the odd part stays free, an odd w >= 3.  When a bisection of
      the logs finds no such w, v is skipped, unless v itself may end a
      solution.
    - At the root an even v = 2k leaves 2^(N-k) times the block
      (k+1)...N, N = n/2.  The child must cover the block's largest prime
      P with an odd part >= max(P, 3), while the odd part is free, or an
      even one >= 2P.  When the log of the smaller exceeds rest + tol, the
      child breaks on its first candidate, and v is skipped.  Every block
      holds N, so P is at least N's largest prime, and the window's
      smallest v leaves the largest rest: when N's prime already fails
      there, the whole even window is charged at once and skipped.
    """

    def __init__(self, n, t_max, one_odd, spf, budget, logs):
        self.n = n
        self.t_max = t_max
        self.one_odd = one_odd
        self.min_t = 3 if one_odd else 2
        self.spf = spf
        self.budget = budget
        self.logs = logs  # (even, odd): log (2i)!! and log (2i+1)!!, i <= n/2
        self.log_n = logs[0][n >> 1]
        self.tol = _LOG_RTOL * (1.0 + self.log_n)
        self.found = set()

    def run(self):
        half = self.n // 2
        # 2 <= n/2, so nothing above M is owed
        self._node(half, {2: half}, 0, (), self.log_n, self.one_odd)
        return self.found

    def _cover_log(self, p, odd_free):
        """log w!! of the smallest part w that can hold the prime p."""
        even_logs, odd_logs = self.logs
        if odd_free:
            return min(odd_logs[max(p, 3) >> 1], even_logs[p])
        return even_logs[p]

    def _last_fits(self, rest, odd_free):
        """Whether some last part w < n has log w!! = rest within tol."""
        lo, hi, half = rest - self.tol, rest + self.tol, self.n >> 1
        even_logs, odd_logs = self.logs
        i = bisect_left(even_logs, lo, 2, half)
        if i < half and even_logs[i] <= hi:
            return True
        i = bisect_left(odd_logs, lo, 1, half) if odd_free else half
        return i < half and odd_logs[i] <= hi

    def _node(self, M, S, top, parts, log_owed, odd_free):
        spf, tol = self.spf, self.tol
        q = _top_owed(M, S, top, spf)
        nxt = q + 1
        while spf[nxt] != nxt:
            nxt += 1
        depth = len(parts) + 1
        last = depth == self.t_max
        next_last = depth + 1 == self.t_max
        can_end = depth >= self.min_t
        root = not parts
        even_logs, odd_logs = self.logs
        odds = range(max(q, 3), nxt, 2) if odd_free else ()
        evens = range(max(2 * q, 4), min(2 * nxt, self.n), 2)
        if root and evens:
            # every even part leaves a block holding N = M, so N's largest prime
            # big is owed after any of them
            y = M
            while y > 1:
                big = spf[y]
                y //= big
            if self._cover_log(big, odd_free) > log_owed - even_logs[evens.start >> 1] + tol:
                self.budget.spend(len(evens))
                evens = ()
        based = None  # _rebase's walk, taken when a candidate first needs it
        spend, fits = self.budget.spend, self._last_fits
        cut, floor = log_owed + tol, log_owed - tol
        for window, logs, free in ((odds, odd_logs, False), (evens, even_logs, odd_free)):
            for v in window:
                log_v = logs[v >> 1]
                if log_v > cut:
                    break  # log v!! grows with v
                if last and log_v < floor:
                    continue
                spend(1)
                rest = log_owed - log_v
                if next_last and not (can_end and log_v >= floor) and not fits(rest, free):
                    continue
                m = v if v & 1 else v >> 1
                if m < M and based is None:
                    based = _rebase(M, S, range(max(q, 2), nxt), spf)
                # at the root based[k] holds 2 and the primes of (k+1)...N
                if root and not v & 1 and self._cover_log(max(based[m]), free) > rest + tol:
                    continue
                state = _divide(m, based[m], v, spf) if m < M else _divide(M, S, v, spf)
                if state is None:
                    continue
                if state[0] <= 1 and not state[1]:
                    if can_end and not free:
                        self.found.add(tuple(sorted(parts + (v,), reverse=True)))
                elif not last:
                    self._node(*state, parts + (v,), rest, free)


def search(
    n_max: int,
    t_max: int,
    mode: str,
    table: PrimeTable,
    *,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list:
    """Complete list of solutions with n <= n_max and t <= t_max.

    mode "r0" finds all-even-part solutions (t >= 2); mode "r1" finds
    solutions with exactly one odd part (t >= 3, forced by parity).
    The node budget caps the candidates that pass the log cut, charged in
    n order.  Results are classified and sorted by (n, parts).  threads is
    accepted for compatibility and ignored: the search runs in this process.
    """
    if mode not in ("r0", "r1"):
        raise ValueError(f"mode must be 'r0' or 'r1', got {mode!r}")
    min_t = 2 if mode == "r0" else 3
    if t_max < min_t:
        raise ValueError(f"mode {mode} needs t_max >= {min_t}, got {t_max}")
    if node_budget < 1:
        raise ValueError("node budget must be positive")
    spf = table.upto(n_max, f"n_max={n_max}")
    budget = _NodeBudget(node_budget)
    # log m!! by parity, grown with n: logs[0][i] = log (2i)!!, logs[1][i] = log (2i+1)!!
    logs = (array("d", [0.0, log_double_factorial(2)]), array("d", [0.0]))
    hits = []
    for n in range(4, n_max + 1, 2):
        logs[0].append(log_double_factorial(n))
        logs[1].append(log_double_factorial(n - 1))
        found = _Cover(n, t_max, mode == "r1", spf, budget, logs).run()
        hits += [(n, parts) for parts in sorted(found)]
        budget.done = n
    return [classify(EquationInstance(n, parts), table) for n, parts in hits]
