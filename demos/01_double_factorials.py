#!/usr/bin/env python3
"""Double factorials, exactly: values, identities, prime-exponent form.

Walks the arithmetic layer everything else is built on: m!! as an exact
integer, the two structural identities, and the per-prime valuation
vectors that let gigantic products be compared without ever
materializing them.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import double_factorial, factorize, sieve_primes
from dflab.core import double_factorial_valuations, factorial_valuations

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
primes = table.primes_leq(30)


def exponents(vec):
    return {int(p): int(e) for p, e in zip(primes, vec) if e}


for m in (9, 10, 30):
    vec = double_factorial_valuations(m, primes)
    value = math.prod(int(p) ** int(e) for p, e in zip(primes, vec))
    print(f"{m:>3}!! = {exponents(vec)}  ->  {value}")

print("\n== valuation vectors add like the integers multiply ==")
ten = double_factorial_valuations(10, primes)
nine = double_factorial_valuations(9, primes)
print("10!! * 9!! =", exponents(ten + nine))
print("equals 10! =", (ten + nine == factorial_valuations(10, primes)).all())
print("9!! divides 10!:", (nine <= factorial_valuations(10, primes)).all())
print("10! / 9!! recovers 10!!:", (factorial_valuations(10, primes) - nine == ten).all())

print("\n== Legendre floor sums ==")
for m, p in ((10, 2), (16, 2), (100, 5)):
    print(f"nu_{p}({m}!) = {factorial_valuations(m, primes[primes == p])[0]}")

print("\n== factorization via the sieve ==")
for n in (90, 4374, 9973):
    print(f"{n} = {factorize(n, table)}")
