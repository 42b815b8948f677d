"""Coprime sum triples, their radicals, and the 7/4-exponent check.

A triple (a, b, c) has a + b = c with the three entries pairwise
coprime; rad is N(abc) and quality log(c)/log(rad).  The explicit check
used throughout is c < rad^(7/4), decided exactly as c^4 < rad^7 with
the float margin reported alongside.
"""

import functools
import math
from collections import namedtuple

from .core import PrimeTable, radical, _walk_spf
from .formulas import ABC_EXPONENT

__all__ = [
    "AbcTriple",
    "make_triple",
    "ProofTripleResult",
    "proof_triple",
    "scan_block_triples",
]


class AbcTriple(namedtuple("AbcTriple", "a b c rad quality explicit_ok explicit_margin")):
    """A normalized triple a + b = c, rad = N(abc), quality log(c)/log(rad),
    explicit_ok for c < rad^(7/4), and explicit_margin (7/4)*log(rad) - log(c)."""

    __slots__ = ()


def _quality(c: int, rad: int) -> float:
    """log(c) / log(rad), inf when rad is 1."""
    return math.log(c) / math.log(rad) if rad > 1 else math.inf


def make_triple(a: int, b: int, table: PrimeTable) -> AbcTriple:
    """Normalize (a, b, a+b) by g = gcd(a, b) and evaluate it.

    Dividing a, b, c by gcd(a, b) alone yields pairwise coprimality:
    any prime dividing two of a, b, c = a + b divides the third, so the
    three pairwise gcds coincide.  rad then factors as
    N(a) * N(b) * N(c).
    """
    if a < 1 or b < 1:
        raise ValueError(f"triple entries must be positive, got ({a}, {b})")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    c = a + b
    table.upto(c, f"c={c}")
    rad = radical(a, table) * radical(b, table) * radical(c, table)
    return AbcTriple(
        a=a,
        b=b,
        c=c,
        rad=rad,
        quality=_quality(c, rad),
        explicit_ok=c**4 < rad**7,
        explicit_margin=ABC_EXPONENT * math.log(rad) - math.log(c),
    )


class ProofTripleResult(namedtuple("ProofTripleResult", "triple x j1 j2 d x_over_d bound holds")):
    """Difference triple of two block terms, plus its x/d bound."""

    __slots__ = ()


def proof_triple(x: int, j1: int, j2: int, table: PrimeTable) -> ProofTripleResult:
    """Triple built from (x+j2) + (j1-j2) = (x+j1), normalized by d.

    d = gcd(x+j1, j1-j2), which equals gcd(x+j2, j1-j2) since the two
    terms differ by j1-j2.  Alongside the triple, evaluates the bound
    x/d <= (N(x+j1) * N(x+j2) * (j1-j2)/d)^(7/4), deciding it exactly in
    integer arithmetic.
    """
    if j1 <= j2:
        raise ValueError(f"need j2 < j1, got j1={j1}, j2={j2}")
    if j2 < 0:
        raise ValueError(f"need j2 >= 0, got {j2}")
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    table.upto(x + j1, f"x+j1={x + j1}")
    diff = j1 - j2
    d = math.gcd(x + j1, diff)
    triple = make_triple(diff, x + j2, table)
    rad_pair = radical(x + j1, table) * radical(x + j2, table) * (diff // d)
    bound = rad_pair**ABC_EXPONENT
    holds = x**4 <= rad_pair**7 * d**4
    return ProofTripleResult(
        triple=triple,
        x=x,
        j1=j1,
        j2=j2,
        d=d,
        x_over_d=x / d,
        bound=bound,
        holds=holds,
    )


def scan_block_triples(x: int, k: int, table: PrimeTable) -> ProofTripleResult:
    """Best-quality difference triple over all pairs j2 < j1 < k.

    Deterministic: ties keep the first pair in (j1, j2) order.  Each
    distinct radical is computed once for the ranking.  Pairs are ranked
    by the quality proof_triple would report (the same g, c and rad, the
    same _quality), and only the first-best pair is built, by proof_triple.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    # past the table, name its first term past it, as the first such pair would
    spf = table.upto(x + k - 1, f"x+j1={max(x + 1, table.limit + 1)}")
    rad_of = functools.cache(lambda n: math.prod(_walk_spf(n, spf)))
    best = best_q = None
    for j1 in range(1, k):
        for j2 in range(j1):
            diff = j1 - j2
            g = math.gcd(diff, x + j2)
            c = (x + j1) // g
            q = _quality(c, rad_of(diff // g) * rad_of((x + j2) // g) * rad_of(c))
            if best is None or q > best_q:
                best, best_q = (j1, j2), q
    return proof_triple(x, *best, table)
