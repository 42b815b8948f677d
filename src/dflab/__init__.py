"""Double-factorial product equations: exact search and bound verification.

Library layout:
    core         sieve, factorization, valuations, double factorials, blocks
    equation     the product identity, trivial families, exhaustive search
    bounds       empirical checkers for every explicit inequality used
    abc_triples  coprime sum triples, radicals, the 7/4-exponent check
    cli          command-line surface with jsonl/csv/human output
"""

from .core import (
    BlockReport,
    PrimeTable,
    SieveRangeError,
    analyze_block,
    double_factorial,
    factorize,
    largest_prime_factor,
    log_double_factorial,
    lpf_array,
    mertens_log_sum,
    radical,
    radical_array,
    sieve_primes,
    theta,
    valuation,
)
from .equation import (
    EquationInstance,
    NotASolutionError,
    OddDecomposition,
    ResourceLimitError,
    SolutionRecord,
    check_identity,
    classify,
    generate_trivial_even,
    generate_trivial_odd,
    odd_decomposition,
    odd_gap_obstruction,
    search,
    verify_known_factorial_solutions,
)
from .bounds import (
    EXCEPTIONAL_PAIRS,
    BoundCheckResult,
    HypothesisViolationError,
    check_composite_block_geometry,
    composite_block_geometry_scan,
    dusart_check,
    dusart_sweep,
    erdos_graham_ratio,
    erdos_ratio,
    radical_product_bound_check,
    sandwich_check,
    smallest_two_radicals,
    theorem24_scan,
    thm12ii_bound,
    valuation2_block_bound_check,
    valuation2_block_sweep,
    valuation2_factorial_lower_check,
    verify_mertens_bound,
    verify_theta_bound,
)
from .abc_triples import (
    AbcTriple,
    ProofTripleResult,
    inequality3_rhs,
    make_triple,
    proof_triple,
    scan_block_triples,
)

__version__ = "0.1.0"
