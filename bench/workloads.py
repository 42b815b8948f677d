"""Workload command lists and the correctness gate for the dflab benchmark.

Every command is the argv that follows `python -m dflab`.  A workload has a
set-up command, run against an empty cache directory to build the sieve
cache, and the command list of one pass.  Inputs come only from the seed.

The gate has two halves.  Commands present in expected.json (every fixed
command, plus the seeded ones at DEFAULT_SEED) must reproduce the exit
code and stdout digest captured from the seed code byte for byte.  Every
output is also re-checked here with plain integer arithmetic (trial
division, big-int double factorials, a bytearray sieve), independently
of the library's code paths.
"""

import functools
import hashlib
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
EXACT_LIMIT = 10**6  # the CLI's default --sieve-limit
BIG_LIMIT = 10**7  # the oversized cache the cli-short commands hit

SEARCH_COMMANDS = (
    ("search", "--mode", "r1", "--n-max", "800", "--t-max", "3"),
    ("search", "--mode", "r1", "--n-max", "500", "--t-max", "4"),
    ("search", "--mode", "r0", "--n-max", "2000", "--t-max", "4"),
)

# n of every reported solution, captured from the seed code; each identity
# is re-proved with big integers on every run.
SEARCH_N_LISTS = {
    SEARCH_COMMANDS[0]: [12, 20, 24, 30, 72, 120, 144, 720],
    SEARCH_COMMANDS[1]: [12, 12, 20, 20, 24, 30, 30, 32, 72, 120, 144, 192],
    SEARCH_COMMANDS[2]: [8, 48, 64, 384, 384, 512],
}

# Nontrivial solutions listed in the README; classify inputs draw from them.
KNOWN_SOLUTIONS = (
    (12, (8, 5, 4)),
    (20, (14, 8, 5)),
    (24, (22, 4, 3)),
    (30, (26, 7, 4)),
    (72, (68, 7, 6)),
    (144, (142, 6, 3)),
    (720, (718, 6, 5)),
)

DUSART_MIN_Y = 3275
DUSART_Y_MAX = 100000
DUSART_FAILURES = [3296, 3297, 3298, 3299]
THM24_X_MAX = 999980
LPF_BLOCK_COEFF = 4.42
ABC_SCAN_K = 150


def _df(m: int) -> int:
    return math.prod(range(m, 1, -2))


def trivial_pool(limit: int = EXACT_LIMIT) -> list:
    """Every trivial-family instance with n <= limit, as (family, a1, evens, n, parts)."""
    evens_choices = [()]
    for e1 in range(4, 13, 2):
        evens_choices.append((e1,))
        for e2 in range(4, e1 + 1, 2):
            evens_choices.append((e1, e2))
    pool = []
    for evens in evens_choices[1:]:
        n = math.prod(_df(e) for e in evens)
        if 4 < n <= limit and n - 2 > max(evens):
            pool.append(("trivial-even", None, evens, n, tuple(evens) + (n - 2,)))
    for a1 in (5, 7, 9):
        for evens in evens_choices:
            n = math.factorial(a1) * math.prod(_df(e) for e in evens)
            if n <= limit:
                pool.append(("trivial-odd", a1, evens, n, (a1, a1 - 1) + tuple(evens) + (n - 2,)))
    return pool


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _cli_short_commands(rng: random.Random) -> list:
    pool = trivial_pool()
    cmds = []
    for _ in range(3):
        if rng.random() < 0.5:
            n, parts = rng.choice(KNOWN_SOLUTIONS)
        else:
            _, _, _, n, parts = rng.choice(pool)
        shuffled = list(parts)
        rng.shuffle(shuffled)
        cmds.append(("classify", "--n", str(n), "--a", _csv(shuffled)))

        family, a1, evens, _, _ = rng.choice(pool)
        if family == "trivial-even":
            cmds.append(("generate", "trivial-even", "--evens", _csv(evens)))
        else:
            cmds.append(("generate", "trivial-odd", "--a1", str(a1), "--evens", _csv(evens)))

        if rng.random() < 0.5:
            cmds.append(("bound", "thm12ii", "--l1", str(rng.randint(1, 10**6))))
        else:
            cmds.append(("bound", "ineq3", "--k", str(rng.randint(2, 50)),
                         "--a2", str(rng.randint(3, 10**4)), "--m", str(rng.randint(2, 10**6))))

        a = rng.randint(1, EXACT_LIMIT // 2)
        cmds.append(("abc", "triple", "--a", str(a), "--b", str(rng.randint(1, EXACT_LIMIT - a))))

        k = rng.randint(1, 60)
        cmds.append(("block", "analyze", "--x", str(rng.randint(2, EXACT_LIMIT - k)), "--k", str(k)))

        n = 2 * rng.randint(4, EXACT_LIMIT // 2)
        cmds.append(("gap-witness", "--n", str(n), "--l", str(2 * rng.randint(0, n // 2 - 2) + 1)))

        if rng.random() < 0.5:
            cmds.append(("ratio", "erdos-graham", "--n", str(rng.randint(2, EXACT_LIMIT - 1))))
        else:
            k = rng.randint(2, 60)
            cmds.append(("ratio", "erdos-block", "--x", str(rng.randint(2, EXACT_LIMIT - k)),
                         "--k", str(k)))

        cmds.append(("verify", "known-factorials"))
    rng.shuffle(cmds)
    return cmds


def workload(name: str, seed: int):
    """(setup command, commands of one pass) for a workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "search":
        cmds = list(SEARCH_COMMANDS)
        rng.shuffle(cmds)
        return ("search", "--mode", "r0", "--n-max", "400", "--t-max", "3"), cmds
    if name == "verify":
        x = rng.randint(10**5, EXACT_LIMIT - ABC_SCAN_K)
        cmds = [
            ("verify", "dusart", "--y-max", str(DUSART_Y_MAX)),
            ("verify", "thm24", "--k", "2..20", "--x-max", str(THM24_X_MAX)),
            ("verify", "val2", "--seed", str(rng.randrange(10**6))),
            ("verify", "lemma21"),
            ("verify", "lemma22", "--k-max", "100"),
            ("abc", "scan", "--x", str(x), "--k", str(ABC_SCAN_K)),
        ]
        rng.shuffle(cmds)
        return ("verify", "lemma21", "--nu-max", "100000"), cmds
    if name == "cli-short":
        return ("verify", "known-factorials", "--sieve-limit", str(BIG_LIMIT)), _cli_short_commands(rng)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "verify", "cli-short")


def command_key(cmd) -> str:
    return " ".join(cmd)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ----------------------------------------------------------------------
# Independent arithmetic.


def factor(n: int) -> dict:
    """Trial-division factorization (n <= ~10^7 here)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == {n: 1}


def rad(n: int) -> int:
    return math.prod(factor(n)) if n > 1 else 1


def identity_holds(n: int, parts) -> bool:
    """prod(parts!!) == n!!, in big integers.

    When the largest part shares n's parity, the common factor (a_max)!! is
    cancelled rather than formed, which keeps n near 10^6 cheap.
    """
    parts = sorted(parts, reverse=True)
    top, rest = parts[0], parts[1:]
    if (n - top) % 2:
        return math.prod(_df(v) for v in parts) == _df(n)
    return math.prod(range(n, top, -2)) == math.prod(_df(v) for v in rest)


def family_of(n: int, parts) -> str:
    odd = [v for v in parts if v % 2]
    if not odd and max(parts) == n - 2:
        return "trivial-even"
    if len(odd) == 1 and n - 2 in parts and odd[0] - 1 in parts:
        return "trivial-odd"
    return "nontrivial"


@functools.lru_cache(maxsize=None)
def dusart_failures(y_max: int) -> list:
    """y in [DUSART_MIN_Y, y_max] with no prime in (y / (1 + 1/(2 log^2 y)), y)."""
    sieve = bytearray([1]) * y_max
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(y_max - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, y_max, p)))
    bad = []
    prev = 0  # largest prime below y
    for y in range(2, y_max + 1):
        if y >= DUSART_MIN_Y and not prev > y / (1 + 1 / (2 * math.log(y) ** 2)):
            bad.append(y)
        if y < y_max and sieve[y]:
            prev = y
    return bad


# ----------------------------------------------------------------------
# The gate.


def _records(stdout: bytes) -> list:
    return [json.loads(line) for line in stdout.decode().splitlines() if line]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def _check_solution(p: dict, problems: list):
    n, parts = p["n"], p["a"]
    if not identity_holds(n, parts):
        problems.append(f"{parts} !!-product != {n}!!")
    if p["classification"] != family_of(n, parts):
        problems.append(f"n={n} classified {p['classification']}, expected {family_of(n, parts)}")


def _check_triple(p: dict, a: int, b: int, problems: list):
    g = math.gcd(a, b)
    a, b = a // g, b // g
    c = a + b
    r = rad(a) * rad(b) * rad(c)
    want = {"a": a, "b": b, "c": c, "rad": r, "explicit_ok": c**4 < r**7}
    got = {key: p[key] for key in want}
    if got != want:
        problems.append(f"triple {got} != {want}")
    elif r > 1 and not _close(p["quality"], math.log(c) / math.log(r)):
        problems.append(f"quality {p['quality']} wrong")


def _block_terms(x: int, k: int) -> list:
    return [factor(t) for t in range(x, x + k)]


def _semantic(cmd: tuple, code: int, recs: list) -> list:
    """Problems with an output, judged without the library."""
    problems = []
    head = cmd[:2]
    opt = {cmd[i]: cmd[i + 1] for i in range(len(cmd) - 1) if cmd[i].startswith("--")}
    if cmd[0] == "search":
        ns = [r["payload"]["n"] for r in recs]
        want = SEARCH_N_LISTS.get(cmd)
        if want is not None and ns != want:
            problems.append(f"n-list {ns} != {want}")
        for r in recs:
            _check_solution(r["payload"], problems)
        return problems
    if head == ("verify", "dusart"):
        if code != 1:
            problems.append(f"exit {code}, expected 1 (the sweep has counterexamples)")
        ys = [ce[0] for ce in recs[0]["payload"]["counterexamples"]]
        if ys != DUSART_FAILURES or ys != dusart_failures(int(opt["--y-max"])):
            problems.append(f"dusart failures {ys} != {DUSART_FAILURES}")
        return problems
    if head == ("verify", "thm24"):
        if code != 1:
            problems.append(f"exit {code}, expected 1 ((15, 2) is uncatalogued)")
        ces = [tuple(ce) for ce in recs[0]["payload"]["counterexamples"]]
        if (15, 2) not in ces:
            problems.append("(15, 2) missing from the uncatalogued pairs")
        for x, k in ces:
            if max(max(f) for f in _block_terms(x, k)) > LPF_BLOCK_COEFF * k:
                problems.append(f"({x}, {k}) reported but satisfies the bound")
        return problems
    if code != 0:
        return [f"exit {code}, expected 0"]
    p = recs[0]["payload"]
    if len(recs) != 1 and cmd[0] != "verify":
        problems.append(f"{len(recs)} records, expected 1")
    if cmd[0] in ("classify", "generate"):
        _check_solution(p, problems)
        if cmd[0] == "classify" and (p["n"], sorted(p["a"])) != (
            int(opt["--n"]), sorted(int(v) for v in opt["--a"].split(","))
        ):
            problems.append("classify echoed a different instance")
    elif head == ("bound", "thm12ii"):
        l1 = int(opt["--l1"])
        want = (4 * l1 + 4.01 + 2 * math.log2(5) + 2 * math.log2(l1)) / 0.99
        if p["l1"] != l1 or not _close(p["a1_upper_bound"], want):
            problems.append(f"thm12ii bound {p['a1_upper_bound']} != {want}")
    elif head == ("bound", "ineq3"):
        k, a2, m = (int(opt[f]) for f in ("--k", "--a2", "--m"))
        rhs = 1.75 * (k * 2.00016 * a2 / (k - 1) + 2 * k * k * math.log(k) / (k - 1) + k * math.log(k))
        if not _close(p["rhs"], rhs) or p["holds"] != (k * math.log(m) <= rhs):
            problems.append(f"ineq3 rhs {p['rhs']} != {rhs}")
    elif head == ("abc", "triple"):
        _check_triple(p, int(opt["--a"]), int(opt["--b"]), problems)
    elif head == ("abc", "scan"):
        x, j1, j2 = p["x"], p["j1"], p["j2"]
        if x != int(opt["--x"]) or not 0 <= j2 < j1 < int(opt["--k"]):
            problems.append("scan reported a pair outside the block")
        _check_triple(p, j1 - j2, x + j2, problems)
    elif head == ("block", "analyze"):
        x, k = int(opt["--x"]), int(opt["--k"])
        terms = _block_terms(x, k)
        want = {
            "lpf": max(max(f) for f in terms),
            "val2": sum(f.get(2, 0) for f in terms),
            "all_composite": not any(f == {x + i: 1} for i, f in enumerate(terms)),
            "term_radicals": [math.prod(f) for f in terms],
        }
        if {key: p[key] for key in want} != want:
            problems.append("block anatomy differs from trial division")
    elif cmd[0] == "gap-witness":
        n, l = int(opt["--n"]), int(opt["--l"])
        v = n - l
        while v > n // 2 and not is_prime(v):
            v -= 1
        want = v if v > n // 2 else None
        if p["witness"] != want:
            problems.append(f"gap witness {p['witness']} != {want}")
    elif head == ("ratio", "erdos-graham"):
        n = int(opt["--n"])
        want = max(max(factor(n)), max(factor(n + 1))) / math.log(n)
        if not _close(p["ratio"], want):
            problems.append(f"erdos-graham ratio {p['ratio']} != {want}")
    elif head == ("ratio", "erdos-block"):
        x, k = int(opt["--x"]), int(opt["--k"])
        terms = _block_terms(x, k)
        composite = not any(f == {x + i: 1} for i, f in enumerate(terms))
        want = max(max(f) for f in terms) / (k * math.log(k)) if composite else None
        if p["all_composite"] != composite or (
            p["ratio"] != want and not (composite and _close(p["ratio"], want))
        ):
            problems.append(f"erdos-block ratio {p['ratio']} != {want}")
    elif head == ("verify", "known-factorials"):
        if not p["all_hold"] or len(p["identities"]) != 5:
            problems.append("a classical factorial identity is reported false")
    elif cmd[0] == "verify":
        for r in recs:
            if not r["payload"]["passed"]:
                problems.append(f"{r['payload']['name']} reported counterexamples")
    return problems


class Gate:
    """Counts invocations and what is wrong with them; verdicts are cached per output."""

    def __init__(self):
        self.expected = load_expected()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._seen = {}

    def judge(self, cmd: tuple, code: int, stdout: bytes):
        key = (cmd, code, digest(stdout))
        if key not in self._seen:
            self._seen[key] = self._problems(cmd, code, stdout)
        self.count(command_key(cmd), self._seen[key])

    def count(self, what: str, problems: list):
        """One attempt at `what`, failed when problems is not empty."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems]

    def _problems(self, cmd, code, stdout) -> list:
        problems = []
        pinned = self.expected.get(command_key(cmd))
        if pinned is not None and pinned != [code, digest(stdout)]:
            problems.append(f"exit/stdout digest {[code, digest(stdout)[:12]]} != pinned {pinned[0]}")
        try:
            problems += _semantic(cmd, code, _records(stdout))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems
