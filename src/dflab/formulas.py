"""Closed-form evaluators and the explicit constants they use.

Nothing here reads a sieve, so a command that only evaluates a formula
builds none.  Like core, this module imports nothing from the package.
"""

import math
from collections import namedtuple

__all__ = [
    "THETA_COEFF",
    "VAL2_SLOPE",
    "THM12II_OFFSET",
    "ABC_EXPONENT",
    "KNOWN_FACTORIAL_IDENTITIES",
    "Thm12iiBound",
    "Inequality3",
    "KnownFactorials",
    "thm12ii_bound",
    "inequality3_rhs",
    "verify_known_factorial_solutions",
]

# theta(nu) < THETA_COEFF * nu for nu > 1 (natural logs throughout).
THETA_COEFF = 1.00008
# nu_2(m!) > VAL2_SLOPE * m - VAL2_OFFSET (seven-term truncation of the
# floor sum).
VAL2_SLOPE = 0.99
# 0.99*a1 <= 4*l1 + THM12II_OFFSET + 2*log2(5) + 2*log2(l1) when x1 <= 4*l1.
THM12II_OFFSET = 4.01
# Explicit exponent: c < N(abc)^ABC_EXPONENT, checked exactly as c^4 < rad^7.
ABC_EXPONENT = 7.0 / 4.0

KNOWN_FACTORIAL_IDENTITIES = (
    ("7!*3!*3!*2! = 9!", (7, 3, 3, 2), 9),
    ("7!*6! = 10!", (7, 6), 10),
    ("7!*5!*3! = 10!", (7, 5, 3), 10),
    ("14!*5!*2! = 16!", (14, 5, 2), 16),
    ("15!*2!*2!*2!*2! = 16!", (15, 2, 2, 2, 2), 16),
)


# What thm12ii_bound and inequality3_rhs return: arguments and values
Thm12iiBound = namedtuple("Thm12iiBound", "l1 a1_upper_bound")
Inequality3 = namedtuple("Inequality3", "k a2 m lhs rhs holds")
_Identity = namedtuple("_Identity", "identity holds")


class KnownFactorials(namedtuple("KnownFactorials", "identities all_hold")):
    """Each classical identity's label and whether it holds; passed iff all do."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.all_hold


def thm12ii_bound(l1: int) -> Thm12iiBound:
    """Upper bound on a1 implied by 0.99*a1 <= 4*l1 + 4.01 + 2*log2(5) + 2*log2(l1)."""
    if l1 < 1:
        raise ValueError(f"l1 must be >= 1, got {l1}")
    rhs = 4 * l1 + THM12II_OFFSET + 2 * math.log2(5) + 2 * math.log2(l1)
    return Thm12iiBound(l1, rhs / VAL2_SLOPE)


def inequality3_rhs(k: int, a2: int, m: int) -> Inequality3:
    """Evaluate k*log(m) <= (7/4)*(k*2.00016*a2/(k-1) + 2k^2*log(k)/(k-1) + k*log(k)).

    Returns both sides and whether it holds.  A pure evaluator: the
    inequality is a consequence of the explicit triple bound for
    solution-derived (k, a2, m), not a universal truth, and callers pick
    the inputs.
    The same formula serves the single-odd-part case under the
    substitution a2 -> a1 + 1, m -> x1, k -> l1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if a2 < 3:
        raise ValueError(f"a2 must be >= 3, got {a2}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    log_k = math.log(k)
    rhs = ABC_EXPONENT * (
        k * (2 * THETA_COEFF) * a2 / (k - 1) + 2 * k * k * log_k / (k - 1) + k * log_k
    )
    lhs = k * math.log(m)
    return Inequality3(k, a2, m, lhs, rhs, lhs <= rhs)


def verify_known_factorial_solutions() -> KnownFactorials:
    """Evaluate the five classical single-factorial identities exactly."""
    rows = tuple(
        _Identity(label, math.prod(map(math.factorial, parts)) == math.factorial(n))
        for label, parts, n in KNOWN_FACTORIAL_IDENTITIES
    )
    return KnownFactorials(rows, all(row.holds for row in rows))
