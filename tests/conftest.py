import pytest

from dflab import sieve_primes

from oracles import spf_direct


@pytest.fixture(scope="session")
def table_small():
    return sieve_primes(10_000)


@pytest.fixture(scope="session")
def table_big():
    return sieve_primes(1_000_000)


@pytest.fixture(scope="session")
def spf_1e6():
    return spf_direct(10**6)
