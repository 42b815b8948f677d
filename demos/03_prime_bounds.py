#!/usr/bin/env python3
"""Prime-sum bounds and the exceptional pairs of the block LPF theorem.

Scans theta(nu) < 1.00008*nu and sum log(p)/p < log(nu) with margins,
then sweeps P(x(x+1)...(x+k-1)) > 4.42k for x > 4k.  The sweep is also
a cautionary tale: it finds one violator, (15, 2), that the catalogued
38-pair exception set omits -- P(15*16) = P(240) = 5.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import dusart_check, sieve_primes, theorem24_scan, verify_lemma21
from dflab.bounds import EXCEPTIONAL_PAIRS

table = sieve_primes(100_000)

print("== Chebyshev theta and the log-sum of primes ==")
for nu in (10, 100, 1000, 100_000):
    theta = sum(math.log(p) for p in range(2, nu + 1) if table.spf[p] == p)
    print(f"  theta({nu}) = {theta:.5f}   (linear cap {1.00008 * nu:.3f})")
theta_res, mertens_res = verify_lemma21(100_000, table)
print(f"  theta(nu) < 1.00008*nu on primes <= 1e5: {theta_res.passed}, min slack {theta_res.margin:.4f}")
print(f"  sum log(p)/p < log(nu) on primes <= 1e5: {mertens_res.passed}, min slack {mertens_res.margin:.4f}")

print("\n== largest prime factor of k consecutive integers ==")
res = theorem24_scan(range(2, 8), 5000)  # reads no table
exceptions = res.details["exceptions"]
print(f"  scanned {res.details['pairs_scanned']} pairs (k in 2..7, 4k < x <= 5000)")
print(f"  pairs at or under the 4.42k line: {len(exceptions)}")
uncatalogued = [p for p in exceptions if p not in EXCEPTIONAL_PAIRS]
print(f"  violators missing from the 38-pair catalogue: {uncatalogued}")
print("  (P(15*16) = P(2^4 * 3 * 5) = 5 <= 8.84, a genuine omission)")
satisfied = [d for d in res.details["exceptional_member_verdicts"] if d["satisfies_bound"]]
print(f"  catalogued pairs that satisfy the bound anyway: "
      f"{[(d['x'], d['k']) for d in satisfied]}")

print("\n== short prime-gap intervals below y ==")
for y in (3275, 3296, 50_000):
    res = dusart_check(y, table)
    lo = res.details["interval_used"][0]
    print(f"  y={y}: narrow interval ({lo:.2f}, {y}) -> "
          f"{'prime ' + str(res.details['witness']) if res.passed else 'NO PRIME (gap 3271->3299)'}"
          f", wide literal form ok: {res.details['literal_form_ok']}")
