import math
import random

import pytest

from dflab import (
    SieveRangeError,
    inequality3_rhs,
    make_triple,
    proof_triple,
    scan_block_triples,
)

from oracles import trial_factor


def test_make_triple_examples(table_small):
    t = make_triple(1, 8, table_small)
    assert (t.a, t.b, t.c, t.rad) == (1, 8, 9, 6)
    assert t.quality == pytest.approx(math.log(9) / math.log(6), abs=1e-9)
    assert t.explicit_ok
    t = make_triple(1, 4374, table_small)
    assert (t.c, t.rad) == (4375, 210)
    assert t.quality == pytest.approx(1.5679, abs=1e-3)
    assert t.explicit_ok
    t = make_triple(3, 6, table_small)
    assert (t.a, t.b, t.c, t.rad) == (1, 2, 3, 6)


def test_make_triple_errors(table_small):
    with pytest.raises(ValueError):
        make_triple(0, 5, table_small)
    with pytest.raises(SieveRangeError):
        make_triple(1, 10_000, table_small)


def test_triple_invariants_random(table_small):
    rng = random.Random(13)
    for _ in range(400):
        a = rng.randint(1, 4000)
        b = rng.randint(1, 4000)
        t = make_triple(a, b, table_small)
        assert t.a + t.b == t.c
        assert math.gcd(t.a, t.b) == math.gcd(t.a, t.c) == math.gcd(t.b, t.c) == 1
        assert t.rad == math.prod(math.prod(trial_factor(n)) for n in (t.a, t.b, t.c))
        assert t.explicit_ok == (t.c**4 < t.rad**7)
        assert (t.quality > 1) == (t.c > t.rad)


def test_quality_ordering(table_small):
    assert make_triple(1, 4374, table_small).quality > make_triple(1, 8, table_small).quality


def test_proof_triple_examples(table_small):
    res = proof_triple(9, 1, 0, table_small)
    assert (res.triple.a, res.triple.b, res.triple.c) == (1, 9, 10)
    assert res.triple.rad == 30
    assert res.d == 1
    assert res.bound == pytest.approx(30**1.75, abs=1e-6)
    assert res.holds
    res = proof_triple(24, 3, 1, table_small)
    assert (res.triple.a, res.triple.b, res.triple.c) == (2, 25, 27)
    assert res.triple.rad == 30
    res = proof_triple(4374, 1, 0, table_small)
    assert res.triple.quality == pytest.approx(1.5679, abs=1e-3)


def test_proof_triple_gcd_identity(table_small):
    # gcd(x+j1, j1-j2) == gcd(x+j2, j1-j2): the two terms differ by j1-j2
    rng = random.Random(29)
    for _ in range(300):
        x = rng.randint(2, 9000)
        j1 = rng.randint(1, 7)
        j2 = rng.randint(0, j1 - 1)
        res = proof_triple(x, j1, j2, table_small)
        assert res.d == math.gcd(x + j2, j1 - j2)
        assert res.x_over_d == pytest.approx(x / res.d)
        assert res.holds == (res.x / res.d <= res.bound * (1 + 1e-12))


def test_proof_triple_errors(table_small):
    with pytest.raises(ValueError):
        proof_triple(9, 1, 1, table_small)
    with pytest.raises(ValueError):
        proof_triple(1, 1, 0, table_small)


def test_inequality3_rhs_examples():
    res = inequality3_rhs(2, 5, 9)
    assert res.rhs == pytest.approx(47.133, abs=1e-2)
    assert res.holds
    res = inequality3_rhs(2, 3, 10**6)
    assert res.rhs == pytest.approx(33.13, abs=1e-2)
    assert res.holds  # 27.63 <= 33.13
    res = inequality3_rhs(10, 3, 10**9)
    assert res.rhs == pytest.approx(141.51, abs=1e-2)
    assert not res.holds  # the inequality is not a universal truth
    with pytest.raises(ValueError):
        inequality3_rhs(1, 5, 9)


def test_scan_block_triples(table_small):
    res = scan_block_triples(9, 2, table_small)
    assert (res.triple.a, res.triple.b, res.triple.c) == (1, 9, 10)
    res = scan_block_triples(4374, 2, table_small)
    assert res.triple.quality == pytest.approx(1.5679, abs=1e-3)


def test_scan_block_triples_errors(table_small):
    # the k check comes first, then x, then the first term past the table
    with pytest.raises(ValueError, match=r"^k must be >= 2, got 1$"):
        scan_block_triples(1, 1, table_small)
    for x in (-3, 0, 1):
        with pytest.raises(ValueError, match=rf"^need x >= 2, got {x}$"):
            scan_block_triples(x, 5, table_small)
    for x, k in [(10_000, 2), (12_345, 3), (9_990, 12), (9_990, 40)]:
        first = max(x + 1, 10_001)
        with pytest.raises(SieveRangeError, match=rf"^x\+j1={first} exceeds sieve limit 10000$"):
            scan_block_triples(x, k, table_small)
    assert scan_block_triples(9_990, 11, table_small).x == 9_990  # ends at the limit


def test_scan_block_triples_is_argmax(table_small):
    rng = random.Random(37)
    for _ in range(40):
        x = rng.randint(2, 9000)
        k = rng.randint(2, 8)
        best = scan_block_triples(x, k, table_small)
        qualities = [
            proof_triple(x, j1, j2, table_small).triple.quality
            for j1 in range(1, k)
            for j2 in range(j1)
        ]
        assert best.triple.quality == max(qualities)


def test_scan_block_triples_equals_fold_of_proof_triple(table_big):
    # the scan shares radicals between pairs; the result must be the
    # first-best pair of independent proof_triple calls, field for field
    rng = random.Random(47)
    for x, k in [(2, 2), (9, 40), (999_900, 60)] + [
        (rng.randint(2, 999_000), rng.randint(2, 40)) for _ in range(12)
    ]:
        best = None
        for j1 in range(1, k):
            for j2 in range(j1):
                cand = proof_triple(x, j1, j2, table_big)
                if best is None or cand.triple.quality > best.triple.quality:
                    best = cand
        assert scan_block_triples(x, k, table_big) == best


def test_rad_multiplicativity_against_trial_division(table_small):
    # coprimality makes rad(a)*rad(b)*rad(c) the radical of the product
    rng = random.Random(43)
    for _ in range(120):
        a = rng.randint(1, 300)
        b = rng.randint(1, 300)
        t = make_triple(a, b, table_small)
        prod = t.a * t.b * t.c
        prod_fac = trial_factor(prod) if prod > 1 else {}
        rad = 1
        for p in prod_fac:
            rad *= p
        assert t.rad == rad
