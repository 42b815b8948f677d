#!/usr/bin/env python3
"""Anatomy of consecutive-integer blocks x(x+1)...(x+k-1).

Blocks are factored term by term, never multiplied out.  The report
carries the largest prime factor, the power of 2, per-term radicals,
and a primality flag; on top sit the 2-adic counting bounds, the
largest-prime ratios, and the two smallest term radicals of a block.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import (
    analyze_block,
    erdos_graham_ratio,
    erdos_ratio,
    sieve_primes,
    valuation2_block_bound_check,
    valuation2_factorial_lower_check,
)

table = sieve_primes(100_000)

print("== block reports ==")
for x, k in ((9, 2), (13, 3), (24, 4), (2, 5)):
    rep = analyze_block(x, k, table)
    print(f"  x={x:<3} k={k}:  lpf={rep.lpf:<3} nu_2={rep.val2:<2} "
          f"all_composite={rep.all_composite}  radicals={list(rep.term_radicals)}")

print("\n== power-of-2 bounds ==")
res = valuation2_factorial_lower_check(1_000_000)
print(f"  nu_2(m!) > 0.99m - 7 for m <= 1e6: {res.passed}, min slack {res.margin:.2f} (at m=127)")
for x, k in ((2, 5), (9, 2), (1024, 12)):
    res = valuation2_block_bound_check(x, k)
    print(f"  nu_2(block {x},{k}) = {res.details['val2']} <= {res.details['bound']:.3f}")

print("\n== largest-prime ratios ==")
for x, k in ((9, 2), (24, 4), (13, 3)):
    r = erdos_ratio(x, k, table).ratio
    shown = f"{r:.4f}" if r is not None else "skipped (block contains a prime)"
    print(f"  P(block)/(k log k) at ({x},{k}): {shown}")
for n in (2, 8, 4374):
    print(f"  P(n(n+1))/log(n) at n={n}: {erdos_graham_ratio(n, table).ratio:.4f}")

print("\n== the two smallest term radicals ==")
for x, k in ((9, 2), (24, 4)):
    rads = analyze_block(x, k, table).term_radicals
    j1, j2 = sorted(range(k), key=lambda i: (rads[i], i))[:2]
    print(f"  block ({x},{k}): radicals {list(rads)}, smallest at offsets j1={j1}, j2={j2}")
