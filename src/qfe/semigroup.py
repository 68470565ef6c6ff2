"""Prime semigroups S(P) and the small number theory the library runs on.

S(P) is the set of positive integers all of whose prime factors lie in a
prime set P; it always contains 1 and is closed under multiplication.
Everything here is deterministic trial division -- inputs stay at desk
scale (n below 10**6), so no probabilistic primality or fancy factoring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .record import Record

# Largest prime accepted from outside input (seed files, --ring): trial
# division takes about sqrt(p)/3 steps, 15 000 here against 5 * 10**8 at
# 2**61 - 1.
MAX_PRIME = 2**31 - 1


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class Factorization(Record):
    """n as a product of prime powers, primes strictly ascending.

    The empty factor list represents n = 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]


def factorize(n: int) -> Factorization:
    """Canonical prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def multiplicative_value(values: Mapping[int, object], n: int, mul, power, one):
    """The product of values[p]**e over n = prod p**e (one at n = 1) in the
    ring of mul, power and one; None when values lacks a prime factor of n."""
    acc = one
    for p, e in factorize(n).factors:
        if p not in values:
            return None
        acc = mul(acc, power(values[p], e))
    return acc


def first_nonmultiplicative(values: Mapping[int, object], mul, power, one):
    """The least n in values with values[n] != multiplicative_value(values, n).

    None means values is completely multiplicative where tabulated.  On a
    divisor-closed table that is values[mn] = values[m] values[n] for every
    tabulated mn: induct on the factorization one way, expand it the other.

    A tabulated n with a tabulated prime factor p and n // p tabulated is
    compared with values[p] values[n // p], one product: every tabulated
    index below n has passed, so values[n // p] is the expansion of n // p
    and values[p] that of p, and their product is the expansion of n.  The
    other indices (1, the primes, and n with no tabulated prime factor or
    with n // p not tabulated) are expanded by ``multiplicative_value``.
    """
    primes = []  # the tabulated primes passed so far, ascending
    for n in sorted(values):
        p = next((p for p in primes if n % p == 0), None)
        if p is not None and n // p in values:
            want = mul(values[p], values[n // p])
        else:
            want = multiplicative_value(values, n, mul, power, one)
            if p is None and is_prime(n):
                primes.append(n)
        if values[n] != want:
            return n
    return None


def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity; omega(1) = 0."""
    return sum(e for _, e in factorize(n).factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    """Euler's totient."""
    phi = n
    for p, _ in factorize(n).factors:
        phi -= phi // p
    return phi


class PrimeSet(Record):
    """A finite sorted set of primes, or the distinguished set of all primes.

    ``primes is None`` means every prime (the semigroup is then all of N).
    """

    primes: tuple[int, ...] | None

    def __init__(self, primes: tuple[int, ...] | None) -> None:
        if primes is not None:
            if list(primes) != sorted(set(primes)):
                raise ValueError("primes must be strictly ascending and distinct")
            for p in primes:
                if not is_prime(p):
                    raise ValueError(f"{p} is not prime")
        super().__init__(primes)

    @classmethod
    def of(cls, primes: Iterable[int] | PrimeSet) -> PrimeSet:
        """The set of the given primes; a PrimeSet is returned unchanged."""
        if isinstance(primes, PrimeSet):
            return primes
        return cls(tuple(sorted(set(primes))))

    @property
    def is_all(self) -> bool:
        return self.primes is None

    def __str__(self) -> str:
        if self.is_all:
            return "all"
        return "{" + ",".join(str(p) for p in self.primes) + "}"


ALL_PRIMES = PrimeSet(None)


def primeset_to_json(P: PrimeSet):
    """JSON form: an array of primes, or the string "all"."""
    return "all" if P.is_all else list(P.primes)


def primeset_from_json(obj) -> PrimeSet:
    if obj == "all":
        return ALL_PRIMES
    if isinstance(obj, list) and all(type(p) is int for p in obj):  # not bool
        if any(p > MAX_PRIME for p in obj):
            raise ValueError(f"prime set entries must be at most {MAX_PRIME}")
        return PrimeSet.of(obj)
    raise ValueError(f"prime set must be an integer array or \"all\", got {obj!r}")


def in_semigroup(n: int, P: PrimeSet) -> bool:
    """True iff every prime factor of n lies in P (vacuously true for n = 1)."""
    if n < 1:
        raise ValueError(f"semigroup membership requires n >= 1, got {n}")
    if P.is_all:
        return True
    m = n
    for p in P.primes:
        while m % p == 0:
            m //= p
    return m == 1


def enumerate_semigroup(P: PrimeSet, bound: int) -> list[int]:
    """All members of S(P) up to bound, ascending, starting with 1."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if P.is_all:
        raise ValueError("cannot enumerate S(all primes); use range(1, bound+1)")
    members = [1]
    for p in P.primes:
        grown = []
        for m in members:
            v = m
            while v <= bound:
                grown.append(v)
                v *= p
        members = grown
    return sorted(members)


def support_members(P: PrimeSet, bound: int) -> list[int]:
    """Members of the support semigroup up to bound (all of 1..bound for N)."""
    if P.is_all and bound >= 1:
        return list(range(1, bound + 1))
    return enumerate_semigroup(P, bound)


def seed_gcd(P: PrimeSet) -> int:
    """gcd of {p - 1 : p in P}; the scaling-admissibility order for S(P)."""
    if P.is_all:
        raise ValueError("seed_gcd is defined for finite prime sets only")
    if not P.primes:
        raise ValueError("seed_gcd requires a nonempty prime set")
    return math.gcd(*(p - 1 for p in P.primes))
