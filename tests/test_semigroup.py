from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfe import (ALL_PRIMES, QQ, CyclotomicField, PrimeField, PrimeSet,
                 enumerate_semigroup, euler_phi, factorize, in_semigroup,
                 is_prime, omega, seed_gcd, support_members)
from qfe.semigroup import (divisors, first_nonmultiplicative,
                           multiplicative_value, primeset_from_json,
                           primeset_to_json)


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(350).factors == ((2, 1), (5, 2), (7, 1))
    with pytest.raises(ValueError):
        factorize(0)


def test_omega_examples():
    assert omega(12) == 3
    assert omega(1) == 0
    assert omega(7**3) == 3


def test_in_semigroup_examples():
    P = PrimeSet.of([2, 5, 7])
    assert in_semigroup(50, P)
    assert not in_semigroup(6, P)
    assert in_semigroup(1, PrimeSet.of([]))
    assert in_semigroup(123456, ALL_PRIMES)
    for support in (P, ALL_PRIMES):
        with pytest.raises(ValueError, match="requires n >= 1, got 0"):
            in_semigroup(0, support)


def test_enumerate_semigroup_examples():
    assert enumerate_semigroup(PrimeSet.of([2]), 20) == [1, 2, 4, 8, 16]
    assert enumerate_semigroup(PrimeSet.of([]), 10) == [1]
    # independent oracle: brute-force trial division filter over 1..30
    def smooth(n):
        for p in (2, 5, 7):
            while n % p == 0:
                n //= p
        return n == 1
    expected = [n for n in range(1, 31) if smooth(n)]
    assert expected == [1, 2, 4, 5, 7, 8, 10, 14, 16, 20, 25, 28]
    assert enumerate_semigroup(PrimeSet.of([2, 5, 7]), 30) == expected
    with pytest.raises(ValueError):
        enumerate_semigroup(ALL_PRIMES, 10)


def test_support_members_all_primes_is_the_range():
    assert support_members(ALL_PRIMES, 5) == [1, 2, 3, 4, 5]
    assert support_members(PrimeSet.of([3]), 10) == [1, 3, 9]


def test_seed_gcd_examples():
    assert seed_gcd(PrimeSet.of([3])) == 2
    assert seed_gcd(PrimeSet.of([2, 5, 7])) == 1
    assert seed_gcd(PrimeSet.of([5, 13])) == 4
    with pytest.raises(ValueError):
        seed_gcd(PrimeSet.of([]))
    with pytest.raises(ValueError):
        seed_gcd(ALL_PRIMES)


def test_prime_set_validation():
    with pytest.raises(ValueError):
        PrimeSet((4,))
    with pytest.raises(ValueError):
        PrimeSet((3, 2))
    P = PrimeSet.of([7, 2, 2])
    assert P.primes == (2, 7)
    assert PrimeSet.of(P) is P and PrimeSet.of(ALL_PRIMES) is ALL_PRIMES


def test_prime_set_json_round_trip():
    for P in (PrimeSet.of([2, 5, 7]), PrimeSet.of([]), ALL_PRIMES):
        assert primeset_from_json(primeset_to_json(P)) == P
    with pytest.raises(ValueError):
        primeset_from_json("some")


def test_is_prime_small_values():
    primes_below_60 = [n for n in range(60) if is_prime(n)]
    assert primes_below_60 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                               41, 43, 47, 53, 59]


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1


@given(m=st.integers(1, 1000), n=st.integers(1, 1000))
def test_omega_is_completely_additive(m, n):
    assert omega(m * n) == omega(m) + omega(n)


@given(m=st.integers(1, 60), n=st.integers(1, 60))
def test_semigroup_closure(m, n):
    P = PrimeSet.of([2, 3, 7])
    if in_semigroup(m, P) and in_semigroup(n, P):
        assert in_semigroup(m * n, P)


@pytest.mark.parametrize("primes", [[3], [5, 13], [2, 5, 7], [7], [3, 7]])
def test_members_are_one_mod_seed_gcd(primes):
    P = PrimeSet.of(primes)
    d = seed_gcd(P)
    for m in enumerate_semigroup(P, 2000):
        assert m % d == 1 % d


@given(bound=st.integers(1, 300))
def test_enumeration_matches_membership(bound):
    P = PrimeSet.of([2, 3])
    members = enumerate_semigroup(P, bound)
    assert members == [n for n in range(1, bound + 1) if in_semigroup(n, P)]
    assert members[0] == 1
    assert members == sorted(set(members))


def reference_first_nonmultiplicative(values, mul, power, one):
    """``first_nonmultiplicative`` before its one product per index: every
    tabulated n is expanded over its whole factorization."""
    return next((n for n in sorted(values) if values[n]
                 != multiplicative_value(values, n, mul, power, one)), None)


Z12 = CyclotomicField(12)
SCALARS = {
    QQ: (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)),
    PrimeField(7): tuple(range(1, 7)),
    Z12: tuple(Z12.mul(Z12.pow(Z12.zeta, k), Z12.normalize(c))
               for k in (0, 1, 5) for c in (1, -1, 2)),
}


@st.composite
def lambda_tables(draw):
    """(ring, table): a completely multiplicative table on S(P) up to 60,
    whole (divisor-closed) or at a random subset of its members, with one
    value changed or none.  "scattered" tables have random keys in 1..60
    and random values, most of whose prime factors are not tabulated."""
    ring = draw(st.sampled_from(list(SCALARS)))
    scalars = st.sampled_from(SCALARS[ring] + (ring.zero,))
    shape = draw(st.sampled_from(("closed", "sparse", "scattered")))
    if shape == "scattered":
        keys = draw(st.sets(st.integers(1, 60), min_size=1, max_size=12))
        return ring, {n: ring.normalize(draw(scalars)) for n in keys}
    P = draw(st.sets(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3))
    at = {p: ring.normalize(draw(st.sampled_from(SCALARS[ring]))) for p in P}

    def lam(n):
        v = ring.one
        for p, e in factorize(n).factors:
            v = ring.mul(v, ring.pow(at[p], e))
        return v
    table = {n: lam(n) for n in enumerate_semigroup(PrimeSet.of(P), 60)
             if shape == "closed" or draw(st.booleans())}
    if table and draw(st.booleans()):
        n = draw(st.sampled_from(sorted(table)))
        table[n] = ring.normalize(draw(scalars))
    return ring, table


@given(case=lambda_tables())
def test_first_nonmultiplicative_matches_reference(case):
    ring, table = case
    ops = (ring.mul, ring.pow, ring.one)
    assert (first_nonmultiplicative(table, *ops)
            == reference_first_nonmultiplicative(table, *ops))


def test_first_nonmultiplicative_examples():
    ops = (QQ.mul, QQ.pow, QQ.one)
    assert first_nonmultiplicative({1: 1, 2: 3, 4: 9, 8: 27}, *ops) is None
    assert first_nonmultiplicative({1: 1, 2: 3, 4: 9, 8: 26}, *ops) == 8
    assert first_nonmultiplicative({1: 2, 2: 3}, *ops) == 1
    assert first_nonmultiplicative({2: 3, 3: 5, 6: 15, 12: 45}, *ops) is None
    # Cofactor 6 of 12 is not tabulated, nor is the prime factor 3 of 6:
    # both are expanded over the factorization.
    assert first_nonmultiplicative({2: 3, 3: 5, 12: 45}, *ops) is None
    assert first_nonmultiplicative({2: 3, 3: 5, 12: 44}, *ops) == 12
    assert first_nonmultiplicative({2: 3, 6: 15}, *ops) == 6
