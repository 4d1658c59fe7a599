"""Primality of the field size: the deterministic Miller-Rabin test against
trial division, known strong pseudoprimes and a Lucas-Lehmer test, and the
refusal above the bound where its bases stop deciding."""

import time

import pytest

from alcalc.cli import run
from alcalc.gf import GF, PRIME_BOUND, is_prime


def trial_division(m: int) -> bool:
    """The oracle: m is prime iff no d with d*d <= m divides it."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def lucas_lehmer(e: int) -> bool:
    """2^e - 1 is prime, for an odd prime e."""
    m = 2**e - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_agrees_with_trial_division_below_10_5():
    assert [m for m in range(-3, 10**5) if is_prime(m) != trial_division(m)] == []


@pytest.mark.parametrize(
    "m, factors",
    [
        # strong pseudoprime to the bases 2, 3, 5 and 7
        (3215031751, (151, 751, 28351)),
        # strong pseudoprime to the first nine prime bases, 2 to 23
        (3825123056546413051, (149491, 747451, 34233211)),
        # psi_12: strong pseudoprime to the first twelve prime bases, 2 to 37
        (318665857834031151167461, (399165290221, 798330580441)),
    ],
)
def test_strong_pseudoprimes_are_composite(m, factors):
    product = 1
    for d in factors:
        product *= d
    assert product == m
    assert not is_prime(m)


def test_mersenne_primes():
    assert is_prime(2**31 - 1) and trial_division(2**31 - 1)
    assert lucas_lehmer(61)
    assert is_prime(2**61 - 1)
    # 2^67 - 1 = 193707721 * 761838257287 is composite
    assert not lucas_lehmer(67)
    assert not is_prime(2**67 - 1)


def test_refused_from_the_bound_on():
    for m in (PRIME_BOUND, PRIME_BOUND + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(m)
        with pytest.raises(ValueError):
            GF(m)
    assert not is_prime(PRIME_BOUND - 1)


def test_cli_p_bound(capsys):
    # a prime near 2^61 is accepted at once; p at the bound is exit 1
    start = time.process_time()
    assert run(["setup", "build", "--n", "3", "--p", str(2**61 - 1)]) == 0
    assert time.process_time() - start < 5
    capsys.readouterr()
    assert run(["setup", "build", "--n", "3", "--p", str(PRIME_BOUND)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: p must be below ") and captured.err.count("\n") == 1
