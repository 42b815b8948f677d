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

check_identity, classify, the generators and odd_gap_obstruction read the
sieve entry by entry and never import numpy; the search imports it in the
functions that build and walk its batched frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    MAX_TABLE_BYTES,
    PrimeTable,
    ResourceLimitError,
    SieveRangeError,
    double_factorial,
    log_double_factorial,
)
from .formulas import KNOWN_FACTORIAL_IDENTITIES, verify_known_factorial_solutions

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
# The log-magnitude prunes for target n!!, the search's and check_identity's,
# allow a slack of _LOG_RTOL * (1 + log n!!); check_identity bounds its own
# rounding error where it prunes.  In the search logdf[m] is a running sum of
# m/2 logs, so its rounding error is below (m/2) * 2**-53 * log m!! <=
# 2.9e-12 * log n!! for every n the table cap admits (n <= 51217); the
# running log owed adds one such error per part.  The slack is hundreds of
# times larger than that bound, and at n = 2000 about 10^4 times.
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

    The largest part top of n's parity cancels against n!! (top = n mod 2
    when no part has n's parity, as 0!! = 1!! = 1): the identity holds iff
    the product of the m with top < m <= n, m = n (mod 2), equals the
    product of the other parts' double factorials.  A log-magnitude prune
    rejects most non-solutions; integers decide the rest, by comparing the
    factorizations of both sides, each term factored by walking the spf
    table.  Neither product is ever formed.
    """
    n = instance.n
    if n > table.limit:
        raise SieveRangeError(f"n={n} exceeds sieve limit {table.limit}")
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
    spf = table.spf
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
                f"search exceeded the node budget of {self.limit} candidate rows; {done}"
            )


class _ChunkOverflow(Exception):
    """A chunk of n spent more than the budget had left."""


@dataclass(frozen=True)
class _ValuationTable:
    """Every row a search over n <= n_max reads, built once per call.

    v[m, i] = nu_{p_i}(m!!) over the primes p_i <= n_max, as uint16 (every
    exponent of m!! is below m < 2**16).  Row m is zero beyond its first
    count[m] columns, count[m] being the number of primes <= m.  rowsum[m]
    is the sum of row m and logdf[m] = log m!!, nondecreasing in m.
    """

    v: np.ndarray
    primes: list
    count: np.ndarray
    rowsum: np.ndarray
    logdf: np.ndarray


def _valuation_table(n_max: int, table: PrimeTable) -> _ValuationTable:
    import numpy as np
    primes = table.primes_leq(n_max)
    need = (n_max + 1) * primes.size * 2
    if need > MAX_TABLE_BYTES:
        raise ResourceLimitError(
            f"the valuation table for n_max={n_max} needs {need} bytes, "
            f"above the {MAX_TABLE_BYTES}-byte cap"
        )
    if n_max >= 2**16:
        raise ResourceLimitError(
            f"the valuation table holds uint16 exponents, so n_max must be below 65536, got {n_max}"
        )
    v = np.zeros((n_max + 1, primes.size), dtype=np.uint16)
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
        np.searchsorted(primes, np.arange(n_max + 1), side="right"),
        v.sum(axis=1, dtype=np.int64),
        logdf,
    )


# Cells one batch of the search may hold: candidate rows times the owed
# columns they are compared on.  Batches are expanded depth-first, so each
# level keeps at most one batch live.
_CELL_CAP = 1 << 17
# A last-part lookup counts as this many cells: about the bytes of
# temporaries it holds against one compared cell's.
_LOOKUP_CELLS = 32


@dataclass(frozen=True)
class _States:
    """Live search states of one level, one per row.

    parts holds the parts chosen so far (descending, one column per level)
    for target n; owed is the exponent vector n!! / prod parts!! still owed
    (zero beyond its columns), rest its sum and log_owed its log; odd says
    whether the single odd part is used.
    """

    n: np.ndarray
    parts: np.ndarray
    owed: np.ndarray
    rest: np.ndarray
    log_owed: np.ndarray
    odd: np.ndarray


class _Frontier:
    """Batched depth-first search over a chunk of consecutive even n.

    Every live state of a level is a row of arrays.  Each level computes all
    states' candidate windows at once, cut three ways as in a plain
    depth-first search with nonincreasing parts:

    - the largest odd prime q still owed forces v >= q when the odd part is
      still free, else v >= 2q (an even v!! holds odd primes only up to v/2);
    - log v!! <= log owed, since v!! must divide what is owed;
    - slots * log v!! >= log owed, since the remaining parts are all <= v.

    Levels with at least three parts left compare each batch of candidate
    rows against the owed vectors in one call; a survivor either pays off
    the whole debt or becomes a state of the next level.  With two parts
    left no rows are compared: for every (state, a) pair the last part b is
    fixed by its log window, log b!! = log owed - log a!! within the
    tolerance, and a is also tried as the last part itself.  Floats only
    nominate: a hit needs the integer owed vector to reach exactly zero.

    spent counts the candidates visited, rows compared plus pairs looked
    up; past room the chunk stops with _ChunkOverflow.
    """

    def __init__(self, tab, t_max, one_odd, room):
        import numpy as np
        self.tab = tab
        self.primes = np.asarray(tab.primes)
        self.t_max = t_max
        self.one_odd = one_odd
        self.min_t = 3 if one_odd else 2
        self.room = room
        self.spent = 0
        self.found = []

    def run(self, ns):
        import numpy as np
        tab = self.tab
        width = int(tab.count[ns[-1]])
        roots = _States(
            ns,
            np.empty((ns.size, 0), dtype=np.int64),
            tab.v[ns, :width],
            tab.rowsum[ns],
            tab.logdf[ns],
            np.zeros(ns.size, dtype=bool),
        )
        self._level(roots, self.t_max)
        return self.found

    def _charge(self, amount):
        self.spent += amount
        if self.spent > self.room:
            raise _ChunkOverflow

    def _record(self, n, parts):
        self.found += zip(n.tolist(), map(tuple, parts.tolist()))

    def _windows(self, st, slots):
        """Per state: first candidate, candidate step and count, and log tolerance."""
        import numpy as np
        logdf = self.tab.logdf
        tol = _LOG_RTOL * (1.0 + logdf[st.n])
        lo = np.searchsorted(logdf, (st.log_owed - tol) / slots)
        cap = st.parts[:, -1] if st.parts.shape[1] else st.n - 1
        hi = np.minimum(cap, np.searchsorted(logdf, st.log_owed + tol, side="right") - 1)
        top = st.owed.shape[1] - 1 - np.argmax(st.owed[:, ::-1] != 0, axis=1)
        q = np.where(top > 0, self.primes[top], 0)
        free = ~st.odd if self.one_odd else np.zeros(st.n.size, dtype=bool)
        lo = np.maximum(lo, np.where(q > 0, np.where(free, q, 2 * q), 4))
        step = np.where(free & (q > 0), 1, 2)
        lo += (step == 2) & (lo & 1 == 1)
        count = np.maximum((hi - lo) // step + 1, 0)
        return lo, hi, step, count, tol

    @staticmethod
    def _batches(order, count, size):
        """Yield (i, s, j) per batch: candidate j of state s, over the states in order.

        A batch starts inside the state order[i] and holds at most size(i)
        candidates.
        """
        import numpy as np
        ends = np.cumsum(count[order])
        starts = ends - count[order]
        total = int(ends[-1]) if ends.size else 0
        start = 0
        while start < total:
            first = int(np.searchsorted(ends, start, side="right"))
            stop = min(total, start + size(first))
            last = int(np.searchsorted(ends, stop - 1, side="right")) + 1
            take = np.minimum(ends[first:last], stop) - np.maximum(starts[first:last], start)
            j = np.arange(start, stop) - np.repeat(starts[first:last], take)
            yield first, np.repeat(order[first:last], take), j
            start = stop

    def _level(self, st, slots):
        import numpy as np
        lo, hi, step, count, tol = self._windows(st, slots)
        live = np.flatnonzero(count)
        if slots == 2:
            self._last_two(st, lo, step, count, tol, live)
            return
        tab = self.tab
        # widest first, so a batch's first state has its widest row
        order = live[np.argsort(-tab.count[hi[live]], kind="stable")]
        k = tab.count[hi[order]]
        depth = self.t_max - slots + 1  # parts once v is chosen
        for first, s, j in self._batches(order, count, lambda i: max(1, _CELL_CAP // int(k[i]))):
            self._charge(s.size)
            kb = int(k[first])
            v = lo[s] + step[s] * j
            ok = (tab.v[v, :kb] <= st.owed[s, :kb]).all(axis=1)
            s, v = s[ok], v[ok]
            rest = st.rest[s] - tab.rowsum[v]
            odd = st.odd[s] | (v & 1 == 1)
            parts = np.column_stack((st.parts[s], v))
            done = rest == 0
            if depth >= self.min_t:
                hit = done & odd if self.one_odd else done
                self._record(st.n[s[hit]], parts[hit])
            go = ~done
            if go.any():
                s, v = s[go], v[go]
                owed = st.owed[s, :kb] - tab.v[v, :kb]
                nxt = _States(st.n[s], parts[go], owed, rest[go], st.log_owed[s] - tab.logdf[v], odd[go])
                self._level(nxt, slots - 1)

    def _last_two(self, st, lo, step, count, tol, live):
        import numpy as np
        tab = self.tab
        logdf = tab.logdf
        width = st.owed.shape[1]
        depth = self.t_max - 1  # parts once a is chosen
        for _, s, j in self._batches(live, count, lambda i: max(1, _CELL_CAP // _LOOKUP_CELLS)):
            self._charge(s.size)
            a = lo[s] + step[s] * j
            left = st.log_owed[s] - logdf[a]
            t = tol[s]
            # a as the last part
            if depth >= self.min_t:
                last = np.abs(left) <= t
                if self.one_odd:
                    last &= st.odd[s] | (a & 1 == 1)
                self._settle(st, s[last], a[last], None, width)
            # b <= a as the last part
            b_lo = np.maximum(np.searchsorted(logdf, left - t), 3)
            b_hi = np.minimum(np.searchsorted(logdf, left + t, side="right") - 1, a)
            m = np.maximum(b_hi - b_lo + 1, 0)
            if not m.any():
                continue
            i = np.repeat(np.arange(s.size), m)
            b = b_lo[i] + np.arange(i.size) - np.repeat(np.cumsum(m) - m, m)
            s, a = s[i], a[i]
            # b is odd exactly when the odd part is still free
            odd_b = ~(st.odd[s] | (a & 1 == 1)) if self.one_odd else np.zeros(b.size, dtype=bool)
            keep = (b & 1 == 1) == odd_b
            self._settle(st, s[keep], a[keep], b[keep], width)

    def _settle(self, st, s, a, b, width):
        """Record the nominated endings whose integer owed vector reaches zero."""
        import numpy as np
        if not s.size:
            return
        tab = self.tab
        rest = st.owed[s].astype(np.int32) - tab.v[a, :width]
        ends = a[:, None]
        if b is not None:
            rest -= tab.v[b, :width]
            ends = np.column_stack((a, b))
        ok = ~rest.any(axis=1)
        self._record(st.n[s[ok]], np.column_stack((st.parts[s[ok]], ends[ok])))


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
    The node budget caps the candidates visited: rows compared plus
    last-part lookups, charged in n order.  Results are classified and
    sorted by (n, parts).  threads is accepted for compatibility and
    ignored: the search runs in this process.
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
    import numpy as np
    tab = _valuation_table(n_max, table)
    budget = _NodeBudget(node_budget)

    def run(ns):
        frontier = _Frontier(tab, t_max, mode == "r1", budget.limit - budget.used)
        try:
            found = frontier.run(ns)
        except _ChunkOverflow:
            if ns.size == 1:
                budget.spend(frontier.spent)  # past the limit: raises, naming the last n done
            raise
        budget.spend(frontier.spent)
        budget.done = int(ns[-1])
        return found

    ns = np.arange(4, n_max + 1, 2)
    # a chunk's root owed vectors fill at most one batch
    per_chunk = max(1, _CELL_CAP // int(tab.count[n_max]))
    hits = []
    for chunk in np.split(ns, range(per_chunk, ns.size, per_chunk)):
        try:
            hits += run(chunk)
        except _ChunkOverflow:
            # redo the chunk one n at a time, so that the budget names the last n searched
            for i in range(chunk.size):
                hits += run(chunk[i : i + 1])
    return [classify(EquationInstance(n, parts), table) for n, parts in sorted(hits)]


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
    if a1 > table.limit:  # l < 0
        raise SieveRangeError(f"n - l = {a1} exceeds sieve limit {table.limit}")
    spf = table.spf
    for v in range(a1, n // 2, -2):  # odd v, downward: the first prime is the largest
        if spf[v] == v:
            return v
    return None
