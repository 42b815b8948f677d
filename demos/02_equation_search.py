#!/usr/bin/env python3
"""Exhaustive search for a_1!! * ... * a_t!! = n!! and the trivial families.

Two infinite families are easy to write down: with every part even,
take the largest part to be n-2 and n the product of the rest; with one
odd part a1, take n = a1! times even double factorials, which drags
both n-2 and a1-1 into the part list.  The search below finds everything
else too, and on n <= 400 it turns up solutions in neither family.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # run from a checkout

from dflab import (
    check_identity,
    classify,
    double_factorial,
    generate_trivial_even,
    generate_trivial_odd,
    odd_gap_obstruction,
    search,
    sieve_primes,
    verify_known_factorial_solutions,
)

table = sieve_primes(10_000)

print("== the classical single-factorial identities ==")
for label, ok in verify_known_factorial_solutions().identities:
    print(f"  {label:26}  {ok}")

print("\n== trivial families, constructed then re-verified ==")
for inst in (
    generate_trivial_even([4]),
    generate_trivial_even([6, 4]),
    generate_trivial_odd(5),
    generate_trivial_odd(5, [4]),
):
    rec = classify(inst, table)
    print(f"  n={inst.n:<6} parts={list(inst.a)}  ->  {rec.classification}")
    assert check_identity(inst, table)

print("\n== all-even-part search (r = 0), n <= 400 ==")
for rec in search(400, 3, "r0", table):
    print(f"  n={rec.instance.n:<4} parts={list(rec.instance.a)}  {rec.classification}")

print("\n== single-odd-part search (r = 1), n <= 400 ==")
family, sporadic = [], []
for rec in search(400, 3, "r1", table):
    dec = rec.decomposition
    dec_s = f"  blocks (x1,l1,x2,l2)=({dec.x1},{dec.l1},{dec.x2},{dec.l2})" if dec else ""
    print(f"  n={rec.instance.n:<4} parts={list(rec.instance.a)}  {rec.classification}{dec_s}")
    # gap-2 family: (n-2)!! times parts whose double factorials multiply to n
    n, (top, *rest) = rec.instance.n, rec.instance.a
    in_family = top == n - 2 and math.prod(map(double_factorial, rest)) == n
    (family if in_family else sporadic).append(n)
print(f"  {len(family)} gap-2 family members {family}", end="")
print(f" and {len(sporadic)} sporadic solutions {sporadic};")
print("  each sporadic one telescopes a tail of n!!, e.g.")
print("  5!!*4!! = 120 = 12*10, 8!!*5!! = 5760 = 20*18*16, 7!!*4!! = 840 = 30*28.")

print("\n== why a lone odd part near n cannot work ==")
for n, l in ((20, 5), (1000, 3)):
    p = odd_gap_obstruction(n, l, table).witness
    print(f"  n={n}, largest part n-{l}={n - l}: prime {p} divides ({n - l})!! but not {n}!!")
