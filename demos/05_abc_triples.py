#!/usr/bin/env python3
"""Coprime sum triples a + b = c, their radicals, and the 7/4 check.

quality = log(c)/log(N(abc)) measures how far a triple beats its
radical; the explicit inequality in play is c < N(abc)^(7/4), decided
exactly as c^4 < rad^7.  Difference triples of two block terms drive
the finiteness arguments, so there is a scanner for those too.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import inequality3_rhs, make_triple, proof_triple, scan_block_triples, sieve_primes, thm12ii_bound

table = sieve_primes(100_000)

print("== triples and their quality ==")
for a, b in ((1, 8), (1, 4374), (3, 6), (5, 27)):
    t = make_triple(a, b, table)
    print(f"  {t.a} + {t.b} = {t.c:<5} rad={t.rad:<5} quality={t.quality:.4f} "
          f"explicit_ok={t.explicit_ok} (margin {t.explicit_margin:.3f})")

print("\n== difference triples of two block terms ==")
for x, j1, j2 in ((9, 1, 0), (24, 3, 1), (4374, 1, 0)):
    res = proof_triple(x, j1, j2, table)
    t = res.triple
    print(f"  x={x:<5} offsets ({j1},{j2}): ({t.a}, {t.b}, {t.c}), d={res.d}, "
          f"x/d = {res.x_over_d:.0f} <= {res.bound:.1f}: {res.holds}")

print("\n== best triple inside a block ==")
for x, k in ((24, 5), (4374, 2), (9800, 8)):
    res = scan_block_triples(x, k, table)
    t = res.triple
    print(f"  block ({x},{k}): best at offsets ({res.j1},{res.j2}) -> "
          f"({t.a}, {t.b}, {t.c}), quality {t.quality:.4f}")

print("\n== the chained inequality, as a pure evaluator ==")
for k, a2, m in ((2, 5, 9), (2, 3, 10**6), (10, 3, 10**9)):
    ineq = inequality3_rhs(k, a2, m)
    print(f"  k={k:<3} a2={a2:<2} m={m:<11} k*log(m)={ineq.lhs:8.2f}  rhs={ineq.rhs:8.2f}  "
          f"holds={ineq.holds}")
print("  (the last line documents that the inequality is solution-derived, not universal)")

print("\n== part-size cap when the short block is small ==")
for l1 in (1, 10, 100):
    print(f"  l1={l1:<4} ->  a1 <= {thm12ii_bound(l1).a1_upper_bound:.2f}")
