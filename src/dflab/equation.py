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
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_TABLE_BYTES,
    PrimeTable,
    ResourceLimitError,
    SieveRangeError,
    double_factorial,
    double_factorial_valuations,
    log_double_factorial,
)

__all__ = [
    "NotASolutionError",
    "ResourceLimitError",
    "EquationInstance",
    "OddDecomposition",
    "SolutionRecord",
    "check_identity",
    "odd_decomposition",
    "classify",
    "generate_trivial_even",
    "generate_trivial_odd",
    "search",
    "verify_known_factorial_solutions",
    "odd_gap_obstruction",
    "DEFAULT_MAX_GENERATED_N",
    "DEFAULT_NODE_BUDGET",
    "MAX_TABLE_BYTES",
    "KNOWN_FACTORIAL_IDENTITIES",
]

DEFAULT_MAX_GENERATED_N = 10**9
DEFAULT_NODE_BUDGET = 10**8
# The log-magnitude prune for target n!! allows a slack of
# _LOG_RTOL * (1 + log n!!).  logdf[m] is a running sum of m/2 logs, so its
# rounding error is below (m/2) * 2**-53 * log m!! <= 2.9e-12 * log n!! for
# every n the table cap admits (n <= 51217); the running log owed adds one
# such error per part.  The slack is hundreds of times larger than that bound,
# and at n = 2000 about 10^4 times.
_LOG_RTOL = 1e-9


class NotASolutionError(ValueError):
    """The candidate instance does not satisfy the product identity."""


@dataclass(frozen=True)
class EquationInstance:
    """Candidate (n; a_1..a_t), parts stored as a descending tuple."""

    n: int
    a: tuple

    def __post_init__(self):
        parts = tuple(sorted((int(v) for v in self.a), reverse=True))
        object.__setattr__(self, "a", parts)
        object.__setattr__(self, "n", int(self.n))
        if len(parts) < 2:
            raise ValueError("need at least two parts (t >= 2)")
        if parts[-1] < 3:
            raise ValueError("every part must be >= 3")
        if parts[0] >= self.n:
            raise ValueError(f"largest part {parts[0]} must be < n = {self.n}")

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


@dataclass(frozen=True)
class OddDecomposition:
    """Block coordinates for a single-odd-part solution.

    x1 + l1 = N + 1 and x2 + l2 = A1 + 1 hold by construction, where
    N = n/2 and A1 = (a1+1)/2 for the odd part a1.
    """

    x1: int
    l1: int
    x2: int
    l2: int


@dataclass(frozen=True)
class SolutionRecord:
    instance: EquationInstance
    classification: str  # trivial-even | trivial-odd | nontrivial
    witness: str
    decomposition: OddDecomposition | None = None


def check_identity(instance: EquationInstance, table: PrimeTable) -> bool:
    """True iff prod a_i!! = n!! exactly.

    Compares per-prime valuations of both sides over all primes <= n,
    which is exact and avoids materializing the products.
    """
    n = instance.n
    if n > table.limit:
        raise SieveRangeError(f"n={n} exceeds sieve limit {table.limit}")
    primes = table.primes_leq(n)
    total = np.zeros(primes.size, dtype=np.int64)
    for ai in instance.a:
        total += double_factorial_valuations(ai, primes)
    return bool(np.array_equal(total, double_factorial_valuations(n, primes)))


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


def _guard_generated_n(log_n: float, max_n: int):
    if log_n > math.log(max_n) + 0.5:
        raise OverflowError(f"generated n would exceed the configured bound {max_n}")


def generate_trivial_even(evens, *, max_n: int = DEFAULT_MAX_GENERATED_N) -> EquationInstance:
    """Trivial family with every part even: n = prod(evens!!), parts = evens + (n-2,)."""
    evens = tuple(sorted((int(e) for e in evens), reverse=True))
    if not evens:
        raise ValueError("need at least one even value")
    for e in evens:
        if e < 4 or e % 2:
            raise ValueError(f"values must be even and >= 4, got {e}")
    _guard_generated_n(sum(log_double_factorial(e) for e in evens), max_n)
    n = 1
    for e in evens:
        n *= double_factorial(e)
    if n > max_n:
        raise OverflowError(f"generated n = {n} exceeds the configured bound {max_n}")
    return EquationInstance(n, evens + (n - 2,))


def generate_trivial_odd(
    a1: int, evens=(), *, max_n: int = DEFAULT_MAX_GENERATED_N
) -> EquationInstance:
    """Trivial family with one odd part: n = a1! * prod(evens!!).

    Parts are {a1, a1-1} + evens + {n-2}; the identity telescopes because
    a1! = a1!! * (a1-1)!! and n!! = n * (n-2)!!.
    """
    if a1 < 5 or a1 % 2 == 0:
        raise ValueError(f"a1 must be odd and >= 5, got {a1}")
    evens = tuple(sorted((int(e) for e in evens), reverse=True))
    for e in evens:
        if e < 4 or e % 2:
            raise ValueError(f"values must be even and >= 4, got {e}")
    _guard_generated_n(
        math.lgamma(a1 + 1) + sum(log_double_factorial(e) for e in evens), max_n
    )
    n = math.factorial(a1)
    for e in evens:
        n *= double_factorial(e)
    if n > max_n:
        raise OverflowError(f"generated n = {n} exceeds the configured bound {max_n}")
    return EquationInstance(n, (a1, a1 - 1) + evens + (n - 2,))


class _NodeBudget:
    """Count of candidate rows compared by one search; done is the last n fully searched."""

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
                f"search exceeded the node budget of {self.limit} candidate rows; {done}"
            )


@dataclass(frozen=True)
class _ValuationTable:
    """Every row a search over n <= n_max reads, built once per call.

    v[m, i] = nu_{p_i}(m!!) over the primes p_i <= n_max, as int32 (nu_2
    of m!! is below m).  Row m is zero beyond its first count[m] columns,
    count[m] being the number of primes <= m.  rowsum[m] is the sum of
    row m and logdf[m] = log m!!.  Everything but v is a plain list, for
    fast scalar lookups.
    """

    v: np.ndarray
    primes: list
    count: list
    rowsum: list
    logdf: list


def _valuation_table(n_max: int, table: PrimeTable) -> _ValuationTable:
    primes = table.primes_leq(n_max)
    need = (n_max + 1) * primes.size * 4
    if need > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"the valuation table for n_max={n_max} needs {need} bytes, "
            f"above the {MAX_TABLE_BYTES}-byte cap"
        )
    v = np.zeros((n_max + 1, primes.size), dtype=np.int32)
    for i, p in enumerate(primes.tolist()):
        q = p
        while q <= n_max:
            v[q::q, i] += 1
            q *= p
    # v[m] held nu(m); v[m] = v[m-2] + nu(m) turns it into nu(m!!)
    np.cumsum(v[0::2], axis=0, out=v[0::2])
    np.cumsum(v[1::2], axis=0, out=v[1::2])
    logs = np.log(np.maximum(np.arange(n_max + 1), 1))
    logdf = np.empty(n_max + 1)
    np.cumsum(logs[0::2], out=logdf[0::2])
    np.cumsum(logs[1::2], out=logdf[1::2])
    return _ValuationTable(
        v,
        primes.tolist(),
        np.searchsorted(primes, np.arange(n_max + 1), side="right").tolist(),
        v.sum(axis=1, dtype=np.int64).tolist(),
        logdf.tolist(),
    )


def _search_one(n, tab, t_max, one_odd, budget):
    """All descending part tuples solving the identity for this n.

    Depth-first over nonincreasing parts; each node compares its whole
    candidate window against the owed exponent vector in one numpy pass
    and counts the rows it compared.  The window is cut three ways:

    - the largest odd prime q still owed forces v >= q (odd candidates)
      or v >= 2q (even candidates, whose double factorial contains odd
      primes only up to v/2);
    - log v!! <= log owed, since v!! must divide what is owed;
    - slots * log v!! >= log owed, since the remaining parts are all <= v.

    The two log cuts only prune: a hit needs the integer owed vector to
    reach exactly zero.
    """
    v_tab, primes, count, rowsum, logdf = tab.v, tab.primes, tab.count, tab.rowsum, tab.logdf
    owed = v_tab[n, : count[n]].copy()
    tol = _LOG_RTOL * (1.0 + logdf[n])
    found = []
    min_t = 3 if one_odd else 2

    def extend(v_cap, slots, odd_used, prefix, log_owed, owed_total):
        lo = bisect_left(logdf, (log_owed - tol) / slots)
        hi = min(v_cap, bisect_right(logdf, log_owed + tol) - 1)
        if lo > hi:
            return
        top = owed.nonzero()[0][-1]
        q = primes[top] if top else 0
        odd_available = one_odd and not odd_used
        lo = max(lo, (q if odd_available else 2 * q) if q else 4)
        if odd_available and slots == 1:
            if not q:
                return  # this last part must be odd, and no odd v!! divides a power of 2
            step, lo = 2, lo | 1
        elif odd_available and q:
            step = 1
        else:
            step, lo = 2, lo + (lo & 1)
        if lo > hi:
            return
        k = count[hi]
        rows = v_tab[lo : hi + 1 : step, :k]
        budget.spend(rows.shape[0])
        for j in np.flatnonzero((rows <= owed[:k]).all(axis=1))[::-1].tolist():
            v = lo + step * j
            row = v_tab[v, : count[v]]
            owed[: row.size] -= row
            rest = owed_total - rowsum[v]
            if not rest:
                if len(prefix) + 1 >= min_t and (odd_used or v & 1 or not one_odd):
                    found.append(prefix + (v,))
            elif slots > 1:
                extend(v, slots - 1, odd_used or v & 1 == 1, prefix + (v,), log_owed - logdf[v], rest)
            owed[: row.size] += row

    extend(n - 1, t_max, False, (), logdf[n], rowsum[n])
    return found


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
    The node budget caps the candidate rows compared.  Results are
    classified and sorted by (n, parts).  threads is accepted for
    compatibility and ignored: the search runs in this process.
    """
    if mode not in ("r0", "r1"):
        raise ValueError(f"mode must be 'r0' or 'r1', got {mode!r}")
    if n_max > table.limit:
        raise SieveRangeError(f"n_max={n_max} exceeds sieve limit {table.limit}")
    min_t = 2 if mode == "r0" else 3
    if t_max < min_t:
        raise ValueError(f"mode {mode} needs t_max >= {min_t}, got {t_max}")
    if node_budget < 1:
        raise ValueError("node budget must be positive")
    if n_max < 4:
        return []

    tab = _valuation_table(n_max, table)
    one_odd = mode == "r1"
    budget = _NodeBudget(node_budget)
    hits = []
    for n in range(4, n_max + 1, 2):
        hits += [(n, parts) for parts in _search_one(n, tab, t_max, one_odd, budget)]
        budget.done = n
    return [classify(EquationInstance(n, parts), table) for n, parts in sorted(hits)]


KNOWN_FACTORIAL_IDENTITIES = (
    ("7!*3!*3!*2! = 9!", (7, 3, 3, 2), 9),
    ("7!*6! = 10!", (7, 6), 10),
    ("7!*5!*3! = 10!", (7, 5, 3), 10),
    ("14!*5!*2! = 16!", (14, 5, 2), 16),
    ("15!*2!*2!*2!*2! = 16!", (15, 2, 2, 2, 2), 16),
)


def verify_known_factorial_solutions() -> list:
    """Evaluate the five classical single-factorial identities exactly."""
    out = []
    for label, parts, n in KNOWN_FACTORIAL_IDENTITIES:
        prod = 1
        for v in parts:
            prod *= math.factorial(v)
        out.append((label, prod == math.factorial(n)))
    return out


def odd_gap_obstruction(n: int, l: int, table: PrimeTable) -> int | None:
    """A prime p with n/2 < p <= n - l, if one exists (largest such).

    For even n and odd a1 = n - l, any such p divides a1!! but not
    n!! = 2^(n/2) (n/2)!, so no identity with largest part a1 can hold.
    Returns None when the interval is empty of primes.
    """
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    a1 = n - l
    if a1 % 2 == 0:
        raise ValueError(f"n - l = {a1} must be odd")
    if a1 < 3:
        raise ValueError(f"n - l = {a1} must be >= 3")
    if n > table.limit:
        raise SieveRangeError(f"n={n} exceeds sieve limit {table.limit}")
    primes = table.primes
    hi = np.searchsorted(primes, a1, side="right")
    lo = np.searchsorted(primes, n // 2, side="right")
    if hi > lo:
        return int(primes[hi - 1])
    return None
