"""Double-factorial product equations: exact search and bound verification.

Library layout:
    core         sieve, factorization, valuations, double factorials, blocks
    equation     the product identity, trivial families, exhaustive search
    bounds       empirical checkers for every explicit inequality used
    abc_triples  coprime sum triples, radicals, the 7/4-exponent check
    formulas     closed-form evaluators and their constants (no sieve)
    cli          command-line surface with jsonl/csv/human output

The public names below are resolved on first use (PEP 562), so importing
the package loads no submodule.  Each is filed under the module that
defines it, its one home.  The library needs only the standard library.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "core": (
        "BlockReport ErdosGrahamRatio ErdosRatio GapWitness PrimeTable ResourceLimitError"
        " SieveRangeError analyze_block double_factorial erdos_graham_ratio erdos_ratio factorize"
        " largest_prime_factor log_double_factorial odd_gap_obstruction radical sieve_primes"
        " smooth_runs"
    ),
    "equation": (
        "EquationInstance NotASolutionError OddDecomposition SolutionRecord check_identity classify"
        " generate_trivial_even generate_trivial_odd odd_decomposition search"
    ),
    "bounds": (
        "EXCEPTIONAL_PAIRS BoundCheckResult EmptyScan composite_block_geometry_scan dusart_check"
        " dusart_sweep sandwich_check theorem24_scan valuation2_block_bound_check"
        " valuation2_block_sweep valuation2_factorial_lower_check verify_lemma21"
    ),
    "abc_triples": "AbcTriple ProofTripleResult make_triple proof_triple scan_block_triples",
    "formulas": (
        "Inequality3 KnownFactorials Thm12iiBound inequality3_rhs thm12ii_bound"
        " verify_known_factorial_solutions"
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
