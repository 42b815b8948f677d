import hashlib
import json
import math
import random
import re
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dflab import (
    EquationInstance,
    NotASolutionError,
    PrimeTable,
    ResourceLimitError,
    SieveRangeError,
    check_identity,
    classify,
    generate_trivial_even,
    generate_trivial_odd,
    odd_decomposition,
    odd_gap_obstruction,
    search,
    verify_known_factorial_solutions,
)
from dflab import equation
from dflab.core import log_double_factorial

from oracles import (
    df_direct,
    enumerate_r0_solutions,
    enumerate_r1_solutions,
    gap2_family,
    trial_factor,
    trial_is_prime,
)

# Verified by exact big-integer products below; all but n = 120 are genuine
# nontrivial single-odd-part solutions (each telescopes a tail of n!!, e.g.
# 5!!*4!! = 120 = 12*10 and 7!!*4!! = 840 = 30*28).
R1_SOLUTIONS = [
    (12, (8, 5, 4), "nontrivial"),
    (20, (14, 8, 5), "nontrivial"),
    (24, (22, 4, 3), "nontrivial"),
    (30, (26, 7, 4), "nontrivial"),
    (72, (68, 7, 6), "nontrivial"),
    (120, (118, 5, 4), "trivial-odd"),
    (144, (142, 6, 3), "nontrivial"),
]


def test_instance_normalizes_and_validates():
    inst = EquationInstance(10, (4, 6))
    assert inst.a == (6, 4)
    assert (inst.t, inst.r, inst.half_n) == (2, 0, 5)
    with pytest.raises(ValueError):
        EquationInstance(10, (6,))
    with pytest.raises(ValueError):
        EquationInstance(10, (6, 2))
    with pytest.raises(ValueError):
        EquationInstance(6, (6, 4))


def test_check_identity_examples(table_small):
    assert check_identity(EquationInstance(8, (6, 4)), table_small)
    assert check_identity(EquationInstance(120, (118, 5, 4)), table_small)
    assert not check_identity(EquationInstance(10, (6, 4)), table_small)
    with pytest.raises(SieveRangeError):
        check_identity(EquationInstance(10_001, (10_000, 3)), table_small)


def test_check_identity_matches_bigint_exhaustively(table_small):
    for n in range(5, 25):
        target = df_direct(n)
        for a1 in range(3, n):
            for a2 in range(3, a1 + 1):
                inst = EquationInstance(n, (a1, a2))
                truth = df_direct(a1) * df_direct(a2) == target
                assert check_identity(inst, table_small) == truth


def test_check_identity_matches_expvec_product(table_small):
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(6, 120)
        parts = tuple(rng.randint(3, n - 1) for _ in range(rng.randint(2, 4)))
        inst = EquationInstance(n, parts)
        expected = math.prod(df_direct(v) for v in inst.a) == df_direct(n)
        assert check_identity(inst, table_small) == expected


def test_r1_solutions_are_exact(table_small):
    for n, parts, _ in R1_SOLUTIONS:
        prod = 1
        for v in parts:
            prod *= df_direct(v)
        assert prod == df_direct(n)
        assert check_identity(EquationInstance(n, parts), table_small)


def test_classify_families(table_small):
    rec = classify(EquationInstance(8, (6, 4)), table_small)
    assert rec.classification == "trivial-even"
    rec = classify(EquationInstance(120, (118, 5, 4)), table_small)
    assert rec.classification == "trivial-odd"
    for n, parts, expected in R1_SOLUTIONS:
        assert classify(EquationInstance(n, parts), table_small).classification == expected
    with pytest.raises(NotASolutionError):
        classify(EquationInstance(10, (6, 4)), table_small)


def test_classify_all_odd_solution_is_nontrivial(table_small):
    # 3!!*5!! = 45 = 45!!/43!!, an all-odd solution; outside both families.
    inst = EquationInstance(45, (43, 5, 3))
    assert df_direct(43) * df_direct(5) * df_direct(3) == df_direct(45)
    rec = classify(inst, table_small)
    assert rec.classification == "nontrivial"
    assert "r = 3" in rec.witness


def test_odd_decomposition(table_small):
    dec = odd_decomposition(EquationInstance(120, (118, 5, 4)))
    assert (dec.x1, dec.l1, dec.x2, dec.l2) == (60, 1, 3, 1)
    assert dec.x1 + dec.l1 == 120 // 2 + 1
    assert dec.x2 + dec.l2 == (5 + 1) // 2 + 1
    # no remaining even part <= a1 + 1 = 4: no partner role
    assert odd_decomposition(EquationInstance(144, (142, 6, 3))) is None
    with pytest.raises(ValueError):
        odd_decomposition(EquationInstance(8, (6, 4)))


def test_generate_trivial_even_examples(table_small):
    inst = generate_trivial_even([6, 4])
    assert (inst.n, inst.a) == (384, (382, 6, 4))
    assert (generate_trivial_even([4]).n, generate_trivial_even([4]).a) == (8, (6, 4))
    assert (generate_trivial_even([6]).n, generate_trivial_even([6]).a) == (48, (46, 6))
    assert check_identity(generate_trivial_even([6, 4]), table_small)


def test_generate_trivial_odd_examples(table_small):
    inst = generate_trivial_odd(5)
    assert (inst.n, inst.a) == (120, (118, 5, 4))
    inst = generate_trivial_odd(7)
    assert (inst.n, inst.a) == (5040, (5038, 7, 6))
    inst = generate_trivial_odd(5, [4])
    assert (inst.n, inst.a) == (960, (958, 5, 4, 4))
    assert check_identity(inst, table_small)


def test_generator_validation_and_overflow():
    with pytest.raises(ValueError):
        generate_trivial_even([])
    with pytest.raises(ValueError):
        generate_trivial_even([5])
    with pytest.raises(ValueError):
        generate_trivial_odd(4)
    with pytest.raises(OverflowError):
        generate_trivial_even([40, 40], max_n=10**6)
    with pytest.raises(OverflowError):
        generate_trivial_odd(15, max_n=10**6)
    # the CLI passes --sieve-limit, which is at least 2; a library caller may pass less
    with pytest.raises(ValueError, match=r"^max_n must be >= 1, got 0$"):
        generate_trivial_even([6], max_n=0)
    with pytest.raises(ValueError, match=r"^max_n must be >= 1, got -3$"):
        generate_trivial_odd(5, max_n=-3)


def test_generated_instances_classify_to_their_family(table_big):
    rng = random.Random(99)
    even_pool = [4, 6, 8, 10, 12, 14]
    done = 0
    while done < 25:
        evens = [rng.choice(even_pool) for _ in range(rng.randint(1, 3))]
        try:
            inst = generate_trivial_even(evens, max_n=10**6)
        except OverflowError:
            continue
        rec = classify(inst, table_big)
        assert rec.classification == "trivial-even"
        done += 1
    done = 0
    while done < 25:
        a1 = rng.choice([5, 7, 9])
        evens = [rng.choice([4, 6, 8]) for _ in range(rng.randint(0, 2))]
        try:
            inst = generate_trivial_odd(a1, evens, max_n=10**6)
        except OverflowError:
            continue
        rec = classify(inst, table_big)
        assert rec.classification == "trivial-odd"
        done += 1


def test_search_small_examples(table_small):
    recs = search(20, 2, "r0", table_small)
    assert [(r.instance.n, r.instance.a, r.classification) for r in recs] == [
        (8, (6, 4), "trivial-even")
    ]
    assert search(10, 3, "r1", table_small) == []
    assert search(6, 2, "r0", table_small) == []


def test_search_r0_matches_enumeration_oracle(table_small):
    got = {
        (r.instance.n, r.instance.a, r.classification)
        for r in search(40, 3, "r0", table_small)
    }
    assert got == enumerate_r0_solutions(40, 3)


def test_search_r1_full_range(table_small):
    recs = search(400, 3, "r1", table_small)
    assert [(r.instance.n, r.instance.a, r.classification) for r in recs] == R1_SOLUTIONS


def test_search_r1_matches_enumeration_oracle(table_small):
    # the even part of (12, (8, 5, 4)) sits between the largest owed prime
    # and twice it, the regime where over-eager pruning once lost solutions
    got = {(r.instance.n, r.instance.a) for r in search(150, 3, "r1", table_small)}
    assert got == enumerate_r1_solutions(150, 3)


def test_search_r1_wider_t_matches_enumeration_oracle(table_small):
    got = {(r.instance.n, r.instance.a) for r in search(120, 4, "r1", table_small)}
    assert got == enumerate_r1_solutions(120, 4)
    assert len(got) == 10


def test_search_thread_counts_agree(table_small):
    one = search(200, 3, "r1", table_small, threads=1)
    two = search(200, 3, "r1", table_small, threads=2)
    assert one == two


def test_search_r1_frontier_to_800(table_small):
    recs = search(800, 3, "r1", table_small)
    assert [r.instance.n for r in recs] == [12, 20, 24, 30, 72, 120, 144, 720]
    assert (recs[-1].instance.a, recs[-1].classification) == ((718, 6, 5), "nontrivial")
    assert df_direct(718) * df_direct(6) * df_direct(5) == df_direct(720)


# r1 solutions outside the gap-2 family, keyed by their number of parts
# (none has n above 72, though the r1 sizes below reach n = 2000)
SPORADIC_R1 = {
    3: {(12, (8, 5, 4)), (20, (14, 8, 5)), (30, (26, 7, 4)), (72, (68, 7, 6))},
    4: {(12, (6, 5, 4, 4)), (20, (14, 6, 5, 4)), (30, (16, 13, 10, 4)), (32, (28, 5, 4, 4))},
    5: {(18, (9, 8, 4, 4, 4))},
}


# True solutions with n <= 150 and t <= 4: the gap-2 family, the pinned
# sporadic ones and the all-odd 45!! = 43!! * 5!! * 3!!
IDENTITY_SOLUTIONS = sorted(
    gap2_family(150, 4) | SPORADIC_R1[3] | SPORADIC_R1[4] | {(45, (43, 5, 3))}
)


@st.composite
def identity_candidates(draw):
    """(n, parts): a true solution, or parts of mixed or of n's opposite parity."""
    if draw(st.booleans()):
        return draw(st.sampled_from(IDENTITY_SOLUTIONS))
    n = draw(st.integers(5, 150))
    t = draw(st.integers(2, 4))
    if draw(st.booleans()):  # no part shares n's parity
        part = st.integers(3, n - 1).filter(lambda v: v % 2 != n % 2)
    else:
        part = st.integers(3, n - 1)
    return n, tuple(draw(part) for _ in range(t))


# with an infinite slack the log prune passes everything, so integers decide
@pytest.mark.parametrize("rtol", [equation._LOG_RTOL, math.inf], ids=["pruned", "unpruned"])
@settings(max_examples=400, deadline=None)
@given(case=identity_candidates())
def test_check_identity_matches_bigint_oracle(table_small, rtol, case):
    n, parts = case
    truth = math.prod(df_direct(v) for v in parts) == df_direct(n)
    with mock.patch.object(equation, "_LOG_RTOL", rtol):
        assert check_identity(EquationInstance(n, parts), table_small) == truth


def test_check_identity_large_cases(table_big):
    # 9!! * 8!! = 945 * 384 = 362880, so 362880!! = 362880 * 362878!! splits
    assert check_identity(EquationInstance(362880, (9, 8, 362878)), table_big)
    # the log prune decides: a table of zero entries would fail any walk
    no_entries = PrimeTable(10**6, array("I", bytes(4 * (10**6 + 1))))
    assert not check_identity(EquationInstance(10**6, (4, 3)), no_entries)


def test_log_double_factorial_error_is_far_below_the_prune_tolerance():
    for start in (2, 3):
        prod = 1
        for m in range(start, 20_001, 2):
            prod *= m
            exact = math.log(prod)
            err = abs(log_double_factorial(m) - exact)
            assert 10**4 * err <= equation._LOG_RTOL * (1 + exact), m


@pytest.mark.parametrize(
    "mode, n_max, t_max",
    [("r1", 2000, 3), ("r1", 1000, 4), ("r1", 300, 5), ("r0", 2000, 4), ("r0", 10_000, 3)],
)
def test_search_is_gap2_family_plus_pinned_sporadics(table_small, mode, n_max, t_max):
    got = {(r.instance.n, r.instance.a) for r in search(n_max, t_max, mode, table_small)}
    odd_parts = 1 if mode == "r1" else 0
    family = {
        (n, parts)
        for n, parts in gap2_family(n_max, t_max)
        if sum(v % 2 for v in parts) == odd_parts
    }
    assert family <= got
    sporadic = set().union(*(SPORADIC_R1[t] for t in range(3, t_max + 1))) if mode == "r1" else set()
    assert got - family == sporadic


# (mode, n_max, t_max) the search must answer alike under every log tolerance
SEARCH_CASES = [("r1", 150, 3), ("r1", 100, 4), ("r1", 50, 5), ("r0", 300, 4), ("r0", 100, 2)]


def _search_lists(table):
    return [
        [(r.instance.n, r.instance.a) for r in search(n_max, t_max, mode, table)]
        for mode, n_max, t_max in SEARCH_CASES
    ]


@pytest.fixture(scope="module")
def search_lists(table_small):
    return _search_lists(table_small)


def test_frontier_cases_match_enumeration_oracles(search_lists):
    for (mode, n_max, t_max), got in zip(SEARCH_CASES, search_lists):
        if n_max > 60:
            continue
        oracle = enumerate_r1_solutions if mode == "r1" else enumerate_r0_solutions
        assert set(got) == {(n, parts) for n, parts, *_ in oracle(n_max, t_max)}



@pytest.mark.parametrize("cap", [1, 7, 100])
def test_frontier_batches_do_not_change_the_search(table_small, search_lists, cap):
    # each n is searched on its own and charged in n order, so a budget of
    # cap candidates either fits the whole run or cuts it after a whole n: a
    # run that stops at that n fits the same budget and returns exactly the
    # full run's prefix, and a run one n further does not fit
    cut = 0
    for (mode, n_max, t_max), got in zip(SEARCH_CASES, search_lists):
        try:
            whole = search(n_max, t_max, mode, table_small, node_budget=cap)
        except ResourceLimitError as err:
            done = int(re.search(r"the last fully searched n is (\d+)$", str(err)).group(1))
        else:
            # r0 n <= 100 t <= 2 spends 74 candidates in all
            assert (mode, n_max, t_max, cap) == ("r0", 100, 2, 100)
            assert [(r.instance.n, r.instance.a) for r in whole] == got
            continue
        cut += 1
        prefix = search(done, t_max, mode, table_small, node_budget=cap)
        assert [(r.instance.n, r.instance.a) for r in prefix] == [x for x in got if x[0] <= done]
        with pytest.raises(ResourceLimitError, match=f"the last fully searched n is {done}$"):
            search(done + 2, t_max, mode, table_small, node_budget=cap)
    assert cut >= 4

def _count_divides(monkeypatch):
    """Count _divide's calls from now on, by what they left owed: None, 1 or more."""
    counts = Counter()
    divide = equation._divide

    def spy(M, S, v, spf):
        state = divide(M, S, v, spf)
        if state is None:
            counts["rejected"] += 1
        else:
            counts["paid" if state[0] <= 1 and not state[1] else "divided"] += 1
        return state

    monkeypatch.setattr(equation, "_divide", spy)
    return counts


def _count_charges(monkeypatch):
    """List (n, candidates charged so far) each time a search from now on finishes an n."""
    marks = []

    class Spy(equation._NodeBudget):
        __slots__ = ()

        def __setattr__(self, name, value):
            object.__setattr__(self, name, value)
            if name == "done" and value is not None:
                marks.append((value, self.used))

    monkeypatch.setattr(equation, "_NodeBudget", Spy)
    return marks


def test_search_state_is_what_is_still_owed(table_small, monkeypatch):
    # at every node M! * S (S may hold negative exponents) is n!! / prod parts!!
    # exactly, and the float log owed is within the prune tolerance of its log
    node = equation._Cover._node
    nodes = Counter()

    def spy(self, M, S, top, parts, log_owed, odd_free):
        owed, rem = divmod(df_direct(self.n), math.prod(map(df_direct, parts)))
        assert rem == 0, (self.n, parts)
        num = math.factorial(M) * math.prod(p**e for p, e in S.items() if e > 0)
        den = math.prod(p**-e for p, e in S.items() if e < 0)
        assert num == owed * den, (self.n, parts)
        assert top == max((p for p, e in S.items() if e > 0 and p > M), default=0)
        assert abs(log_owed - math.log(owed)) <= self.tol, (self.n, parts)
        assert odd_free == (self.one_odd and not any(v % 2 for v in parts))
        nodes[len(parts)] += 1
        node(self, M, S, top, parts, log_owed, odd_free)

    monkeypatch.setattr(equation._Cover, "_node", spy)
    for mode, t_max in (("r1", 4), ("r0", 4)):
        search(200, t_max, mode, table_small)
    assert min(nodes[depth] for depth in range(4)) > 0
    # one budget unit per candidate past the log cut; the prunes divide only
    # the candidates whose child can still charge or find something
    marks = _count_charges(monkeypatch)
    counts = _count_divides(monkeypatch)
    search(100, 3, "r1", table_small, node_budget=575)
    assert marks[-1] == (100, 575)
    assert sum(counts.values()) == 152
    with pytest.raises(ResourceLimitError, match="the last fully searched n is 98$"):
        search(100, 3, "r1", table_small, node_budget=574)


# (solutions, charged in all, SHA-256 of the JSON list of (n, charged so
# far) per n), captured from the search before it pruned divides by magnitude
CHARGE_PINS = {
    ("r1", 800, 3): (8, 10965, "870b173f3097a7f47127241d55621dbd1b3dca54d6a53aa747492f9496f26f92"),
    ("r1", 500, 4): (12, 8922, "d664b165cfeda2d73aef6d43fee59134d28ea48f72e26d0193a044ec527e74fc"),
    ("r0", 2000, 4): (6, 3583, "51539f3f97671153ec591b842368f027adc4db9be6a51b0eeacd0b1cf5bf9593"),
    ("r1", 300, 5): (13, 4705, "246acb4668a09eabf781f3dca7df748c33c05ec43f190f826ad414064ee49606"),
    ("r0", 2000, 6): (6, 3584, "4ccd1d896dc8bcc89ac9c1150a48967e958ed0aa09899ced01c85890b10ca6f9"),
}


@pytest.mark.parametrize("case", CHARGE_PINS)
def test_divide_prunes_keep_every_charge(table_small, monkeypatch, case):
    # a prune may skip a divide only when the child would charge nothing and
    # the part itself cannot end a solution, so every n charges what it did
    # before: an over-eager prune fails here even when it loses no solution
    mode, n_max, t_max = case
    marks = _count_charges(monkeypatch)
    solutions, total, digest = CHARGE_PINS[case]
    assert len(search(n_max, t_max, mode, table_small)) == solutions
    assert marks[-1] == (n_max, total)
    assert hashlib.sha256(json.dumps(marks).encode()).hexdigest() == digest


def test_wide_log_window_leaves_the_decision_to_integers(table_small, search_lists, monkeypatch):
    # at 1e-3 the log windows admit parts whose v!! is not what is owed (336
    # rejections here against 285), so more candidates reach the integer
    # check; it turns every extra one down and the lists stay the same
    narrow = _count_divides(monkeypatch)
    assert _search_lists(table_small) == search_lists
    monkeypatch.undo()
    monkeypatch.setattr(equation, "_LOG_RTOL", 1e-3)
    wide = _count_divides(monkeypatch)
    assert _search_lists(table_small) == search_lists
    assert wide["paid"] == narrow["paid"]
    assert wide["rejected"] > narrow["rejected"]
    got = {(r.instance.n, r.instance.a) for r in search(60, 4, "r1", table_small)}
    assert got == enumerate_r1_solutions(60, 4)


@st.composite
def _search_sizes(draw):
    mode = draw(st.sampled_from(["r0", "r1"]))
    t_max = draw(st.integers(2 if mode == "r0" else 3, 4))
    return draw(st.integers(0, 60)), t_max, mode


@settings(max_examples=30, deadline=None)
@given(_search_sizes())
def test_search_matches_oracles_on_random_sizes(table_small, sizes):
    n_max, t_max, mode = sizes
    recs = search(n_max, t_max, mode, table_small)
    if mode == "r0":
        got = {(r.instance.n, r.instance.a, r.classification) for r in recs}
        assert got == enumerate_r0_solutions(n_max, t_max)
    else:
        got = {(r.instance.n, r.instance.a) for r in recs}
        assert got == enumerate_r1_solutions(n_max, t_max)


_PRIMES_TO_300 = [p for p in range(2, 301) if trial_is_prime(p)]


def _expand_owed(M, S):
    """Nonzero exponents of M! * S over the primes up to 300."""
    exps = {p: equation.factorial_valuation(M, p) + S.get(p, 0) for p in _PRIMES_TO_300}
    return {p: e for p, e in exps.items() if e}


def _check_divided(state, owed, spf, key):
    """state is what _divide left of a value with exponents owed, None exactly
    when one is negative, and its third field is the largest owed prime above
    its M"""
    if min(owed.values(), default=0) < 0:
        assert state is None, key
        return
    assert state is not None, key
    M, S, top = state
    owed = {p: e for p, e in owed.items() if e}
    assert _expand_owed(M, S) == owed, key
    assert top == max((p for p in owed if p > M), default=0), key
    if owed:
        assert equation._top_owed(M, S, top, spf) == max(owed), key


def test_valuation_table_matches_bigint_factorizations(table_small):
    # the search keeps valuations as M! * S, not in a table: the root state of
    # each n, and what _divide leaves of it for every part v < n, divided
    # from v's _rebase base, must expand to the bigint factorization of
    # n!! / v!!, and _divide must refuse exactly the v whose v!! does not
    # divide n!!
    spf = table_small.spf
    fac = [trial_factor(df_direct(m)) for m in range(301)]
    for n in range(4, 301, 2):
        M, S = n // 2, {2: n // 2}
        assert _expand_owed(M, S) == fac[n]
        assert equation._top_owed(M, S, 0, spf) == max(fac[n])
        based = equation._rebase(M, S, range(1, n), spf)
        for v in range(1, n):
            m = v if v % 2 else v // 2
            state = equation._divide(*((m, based[m]) if m < M else (M, S)), v, spf)
            owed = {p: fac[n].get(p, 0) - fac[v].get(p, 0) for p in _PRIMES_TO_300}
            _check_divided(state, owed, spf, (n, v))


def test_rebased_states_divide_like_the_original(table_small):
    # _rebase rewrites M! * S as m! * S_m for each base m < M; the owed value
    # must not change, and dividing the odd part m or the even part 2m out of
    # base m must leave the bigint quotient, also from states with negative
    # exponents (after an odd part)
    spf = table_small.spf
    fac = [trial_factor(df_direct(m)) for m in range(301)]
    divided = Counter()
    for n in range(8, 301, 2):
        root = (n // 2, {2: n // 2})
        odds = range(n // 2 | 1, min(n, n // 2 + 20), 2)
        states = [root] + [equation._divide(*root, a, spf) for a in odds]
        for M, S, *_ in (state for state in states if state and state[0] > 2):
            bases = range(max(1, M - 15), M + 3)
            based = equation._rebase(M, S, bases, spf)
            assert sorted(based) == [m for m in bases if m < M]
            owed = _expand_owed(M, S)
            for m, S_m in based.items():
                assert _expand_owed(m, S_m) == owed, (n, M, m)
                for v in (m, 2 * m) if m % 2 else (2 * m,):
                    quotient = {p: owed.get(p, 0) - fac[v].get(p, 0) for p in _PRIMES_TO_300}
                    _check_divided(equation._divide(m, S_m, v, spf), quotient, spf, (n, M, v))
                    divided[v % 2, min(quotient.values()) >= 0] += 1
    # odd and even parts, each both divided and refused
    assert len(divided) == 4 and min(divided.values()) > 100, divided


def test_search_to_a_million_stops_at_its_budget(table_big):
    # no table to size: a search to n = 10^6 runs until its node budget ends it
    with pytest.raises(
        ResourceLimitError, match="node budget of 1000 candidates; the last fully searched n is 654$"
    ):
        search(10**6, 3, "r0", table_big, node_budget=1000)


def test_search_runs_past_65536(table_big):
    # the only search past n = 65536 in the suite: r0 t <= 2 is the gap-2 family
    got = {(r.instance.n, r.instance.a) for r in search(70_000, 2, "r0", table_big)}
    assert got == gap2_family(70_000, 2) == {
        (8, (6, 4)), (48, (46, 6)), (384, (382, 8)), (3840, (3838, 10)), (46080, (46078, 12))
    }


def test_node_budget_counts_candidate_rows(table_small):
    # r1 n <= 100 t <= 3 passes 575 candidates through the log cut, over all
    # levels, in n order
    search(100, 3, "r1", table_small, node_budget=575)
    with pytest.raises(
        ResourceLimitError, match="node budget of 574 .*; the last fully searched n is 98$"
    ):
        search(100, 3, "r1", table_small, node_budget=574)


def test_search_validation(table_small):
    with pytest.raises(ValueError):
        search(100, 2, "r2", table_small)
    with pytest.raises(ValueError):
        search(100, 2, "r1", table_small)  # r1 needs t_max >= 3
    with pytest.raises(ValueError):
        search(100, 1, "r0", table_small)


def test_search_node_budget(table_small):
    with pytest.raises(ResourceLimitError, match="the last fully searched n is 20$"):
        search(400, 3, "r1", table_small, node_budget=50)
    # spent before the first n finishes
    with pytest.raises(ResourceLimitError, match="no n finished"):
        equation._NodeBudget(1).spend(2)


def test_parity_obstruction_small(table_small):
    # exactly one even part can never solve the identity
    for n in range(5, 31):
        target = df_direct(n)
        odds = [v for v in range(3, n, 2)]
        evens = [v for v in range(4, n, 2)]
        for e in evens:
            for o in odds:
                assert df_direct(o) * df_direct(e) != target
            for i, o1 in enumerate(odds):
                for o2 in odds[: i + 1]:
                    assert df_direct(o1) * df_direct(o2) * df_direct(e) != target


def test_even_part_with_odd_n_never_solves(table_small):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(7, 99, 2)
        parts = [rng.randrange(4, n, 2)] + [
            rng.randint(3, n - 1) for _ in range(rng.randint(1, 2))
        ]
        assert not check_identity(EquationInstance(n, tuple(parts)), table_small)


def test_known_factorial_identities():
    rows = verify_known_factorial_solutions().identities
    assert len(rows) == 5
    assert all(ok for _, ok in rows)
    assert rows[0][0].startswith("7!*3!*3!*2!")


def test_odd_gap_obstruction(table_small):
    assert odd_gap_obstruction(20, 5, table_small).witness == 13
    assert odd_gap_obstruction(10, 5, table_small).witness is None
    assert odd_gap_obstruction(1000, 3, table_small).witness == 997
    with pytest.raises(ValueError):
        odd_gap_obstruction(20, 4, table_small)
    with pytest.raises(ValueError):
        odd_gap_obstruction(21, 4, table_small)


def test_odd_gap_witness_divides_only_odd_side(table_small):
    for n, l in [(20, 5), (100, 7), (1000, 3), (2000, 11)]:
        p = odd_gap_obstruction(n, l, table_small).witness
        if p is None:
            continue
        assert trial_is_prime(p)
        assert n // 2 < p <= n - l
        # p divides (n-l)!! but not n!! = 2^(n/2) (n/2)!
        assert p % 2 == 1
        assert df_direct(n - l) % p == 0
