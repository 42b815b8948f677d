#!/usr/bin/env python3
"""Double factorials, exactly: values, identities, prime-exponent form.

Walks the arithmetic layer everything else is built on: m!! as an exact
integer, the two structural identities, and the prime -> exponent dicts
(spf walks of each term, Legendre sums for factorials) that let gigantic
products be compared without ever materializing them.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import double_factorial, factorize, sieve_primes
from dflab.core import factorial_valuation

table = sieve_primes(10_000)

print("== values ==")
for m in (0, 1, 5, 9, 10, 20):
    print(f"{m:>3}!! = {double_factorial(m)}")

print("\n== the two identities behind everything ==")
print("m!! * (m-1)!! = m!      for m up to 300:",
      all(double_factorial(m) * double_factorial(m - 1) == math.factorial(m)
          for m in range(1, 301)))
print("(2l)!! = 2^l * l!       for l up to 150:",
      all(double_factorial(2 * l) == 2**l * math.factorial(l) for l in range(151)))

print("\n== prime-exponent form ==")


def df_exponents(m):
    """m!! as a prime -> exponent dict: the spf walks of m, m-2, ..., summed."""
    out = {}
    for term in range(m, 1, -2):
        for p, e in factorize(term, table).items():
            out[p] = out.get(p, 0) + e
    return dict(sorted(out.items()))


def times(a, b, sign=1):
    out = {p: a.get(p, 0) + sign * b.get(p, 0) for p in sorted(a.keys() | b.keys())}
    return {p: e for p, e in out.items() if e}


for m in (9, 10, 30):
    exps = df_exponents(m)
    value = math.prod(p**e for p, e in exps.items())
    print(f"{m:>3}!! = {exps}  ->  {value}")

print("\n== exponents add like the integers multiply ==")
ten, nine = df_exponents(10), df_exponents(9)
fact10 = {p: factorial_valuation(10, p) for p in (2, 3, 5, 7)}
print("10!! * 9!! =", times(ten, nine))
print("equals 10! =", times(ten, nine) == fact10)
print("9!! divides 10!:", all(fact10.get(p, 0) >= e for p, e in nine.items()))
print("10! / 9!! recovers 10!!:", times(fact10, nine, -1) == ten)

print("\n== Legendre floor sums ==")
for m, p in ((10, 2), (16, 2), (100, 5)):
    print(f"nu_{p}({m}!) = {factorial_valuation(m, p)}")

print("\n== factorization via the sieve ==")
for n in (90, 4374, 9973):
    print(f"{n} = {factorize(n, table)}")
