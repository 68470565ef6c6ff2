"""Sequences of polynomials under quantum-integer multiplication.

The central objects are lazily evaluated sequences n -> f_n(q) meant to
satisfy the multiplicative law

    f_{mn}(q) = f_m(q) * f_n(q^m)

on a declared support (a prime semigroup S(P), or all of N), with f_n = 0
off the support.  This module provides the built-in solutions (quantum
integers, monomials, the identity), construction from per-prime seed
polynomials, the transforms that carry solutions to solutions (dilation,
admissible substitutions, reciprocals, scalar-scaled quantum integers,
value-wise products), formal quotients of solutions, reassembly from a
(t, lambda, G) decomposition, and the additive analogue

    f_m(q) (+) f_n(q) = f_m(q) + q^m f_n(q).

Evaluation is memoized per sequence.  Cache entries are write-once and each
eval is a pure function of (rule, n), so concurrent evaluation of a shared
sequence is safe: duplicate computation can only produce the identical
polynomial.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from itertools import combinations

from . import poly
from .poly import Polynomial, monomial, quantum_integer, scaled_quantum_integer
from .record import Record
from .rings import QQ, Ring, first_inadmissible_prime, scalar_text
from .semigroup import (ALL_PRIMES, PrimeSet, enumerate_semigroup,
                        first_nonmultiplicative, in_semigroup, is_prime,
                        multiplicative_value, seed_gcd)


def otimes(fm: Polynomial, fn: Polynomial, m: int) -> Polynomial:
    """fm (x) fn at left index m: fm(q) * fn(q^m), with fn(q^m) never built."""
    if m < 1:
        raise ValueError(f"left index must be >= 1, got {m}")
    return poly._product(fm, fn, m)


def oplus(fm: Polynomial, fn: Polynomial, m: int) -> Polynomial:
    """fm (+) fn at left index m: fm(q) + q^m * fn(q)."""
    if m < 1:
        raise ValueError(f"left index must be >= 1, got {m}")
    return fm + fn.shift(m)


class FESequence:
    """A memoized sequence n -> f_n(q) with a declared support.

    ``rule(n)`` supplies the value for n inside the support; eval returns the
    zero polynomial off the support, one object built once per sequence
    (polynomials are immutable) and memoized under each off-support index.
    Rules built by the constructors in this module all return 1 at n = 1, as
    any nonzero solution of the multiplicative law must.
    """

    def __init__(self, ring: Ring, support: PrimeSet,
                 rule: Callable[[int], Polynomial], name: str = "sequence"):
        self.ring = ring
        self.support = support
        self.name = name
        self._rule = rule
        self._memo: dict[int, Polynomial] = {}
        self._zero = poly.zero(ring)

    def eval(self, n: int) -> Polynomial:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        got = self._memo.get(n)
        if got is None:
            if in_semigroup(n, self.support):
                got = self._rule(n)
            else:
                got = self._zero
            self._memo[n] = got
        return got

    def __repr__(self):
        return f"FESequence({self.name}, ring={self.ring}, support={self.support})"


def quantum_sequence(ring: Ring = QQ, support: PrimeSet = ALL_PRIMES) -> FESequence:
    """f_n = [n]_q on the support, 0 off it."""
    return FESequence(ring, support, lambda n: quantum_integer(n, ring), "quantum")


def monomial_sequence(ring: Ring = QQ, support: PrimeSet = ALL_PRIMES) -> FESequence:
    """f_n = q^(n-1); a solution since q^(mn-1) = q^(m-1) (q^m)^(n-1)."""
    return FESequence(ring, support, lambda n: monomial(ring, n - 1), "monomial")


def identity_sequence(ring: Ring = QQ, support: PrimeSet = ALL_PRIMES) -> FESequence:
    """f_n = 1 on the support: the unit for value-wise products."""
    return FESequence(ring, support, lambda n: poly.one(ring), "identity")


class CommutativityFailure(Record):
    """First failing seed pair: h_{p1}(q) h_{p2}(q^{p1}) != h_{p2}(q) h_{p1}(q^{p2})."""

    p1: int
    p2: int
    lhs: Polynomial
    rhs: Polynomial


class CommutativityError(ValueError):
    def __init__(self, failure: CommutativityFailure):
        self.failure = failure
        super().__init__(
            f"seed commutativity fails for ({failure.p1}, {failure.p2}): "
            f"{failure.lhs} != {failure.rhs}")


def first_failing_pair(
        pairs: Iterable[tuple[int, int]],
        sides: Callable[[int, int], tuple[Polynomial, Polynomial]]
) -> tuple[int, int, Polynomial, Polynomial] | None:
    """The first pair (m, n) whose identity lhs = rhs fails.

    ``sides(m, n)`` expands both sides of the identity at (m, n).  Pairs
    are expanded in the order given and the sweep stops at the first
    failure, returned as (m, n, lhs, rhs); None when every pair holds.
    The law and commutation sweeps of ``verify_fe`` and the seed check
    ``check_seed_commutativity`` all expand their identities here.
    """
    for m, n in pairs:
        lhs, rhs = sides(m, n)
        if lhs != rhs:
            return m, n, lhs, rhs
    return None


def check_seed_commutativity(
        seeds: Mapping[int, Polynomial]) -> CommutativityFailure | None:
    """Check every unordered seed pair; None on pass, else the first failure.

    Pairs are tested in ascending order, so the reported failure is
    deterministic.
    """
    primes = sorted(seeds)
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"seed key {p} is not prime")
        if seeds[p].is_zero():
            raise ValueError(f"seed polynomial for {p} is zero")
    hit = first_failing_pair(
        combinations(primes, 2),
        lambda m, n: (otimes(seeds[m], seeds[n], m),
                      otimes(seeds[n], seeds[m], n)))
    return None if hit is None else CommutativityFailure(*hit)


def _least_prime(P: PrimeSet, n: int) -> int:
    """The least prime of the finite set P dividing n, for n > 1 in S(P)."""
    return next(p for p in P.primes if n % p == 0)


def from_seeds(primes, seeds: Mapping[int, Polynomial]) -> FESequence:
    """The unique solution with support S(P) and f_p equal to the given seeds.

    Evaluation splits off the smallest prime p dividing n:

        f_1 = 1,   f_p = the seed,   f_n(q) = f_p(q) f_{n/p}(q^p)

    which is the law at (p, n/p).  Once the seeds commute pairwise, any
    other split yields the same value; fixing this one makes memoization
    deterministic.
    """
    P = PrimeSet.of(primes)
    if P.is_all:
        raise ValueError("seed construction needs a finite prime set")
    if set(seeds) != set(P.primes):
        raise ValueError(
            f"seed keys {sorted(seeds)} must match the prime set {list(P.primes)}")
    rings = {h.ring for h in seeds.values()}
    if len(rings) > 1:
        raise ValueError("seed polynomials must share one ring")
    ring = rings.pop() if rings else QQ
    failure = check_seed_commutativity(seeds)
    if failure is not None:
        raise CommutativityError(failure)

    def rule(n: int) -> Polynomial:
        if n == 1:
            return poly.one(ring)
        p = _least_prime(P, n)
        return seeds[p] if n == p else otimes(seeds[p], seq.eval(n // p), p)

    seq = FESequence(ring, P, rule, f"seeds(P={P})")
    return seq


class ZetaAdmissibilityError(ValueError):
    """The scaling constant is not a d-th root of unity for d = gcd{p-1}."""

    def __init__(self, zeta_text: str, d: int):
        self.d = d
        super().__init__(
            f"{zeta_text} is not a {d}th root of unity "
            f"(d = gcd of p-1 over the prime set); the scaled sequence "
            f"would not satisfy the functional equation")


def zeta_scaled_sequence(primes, zeta, ring: Ring = QQ) -> FESequence:
    """f_n = [n]_{zeta q} on S(P); requires zeta**d = 1 for d = gcd{p-1}.

    Refusal is exact: when zeta**d != 1 the sequence genuinely fails the
    functional equation, so construction raises instead of producing it.
    """
    P = PrimeSet.of(primes)
    zeta = ring.normalize(zeta)
    d = seed_gcd(P)
    if first_inadmissible_prime(P.primes, zeta, ring) is not None:
        raise ZetaAdmissibilityError(scalar_text(ring, zeta), d)
    return FESequence(ring, P,
                      lambda n: scaled_quantum_integer(n, zeta, ring),
                      f"zeta-scaled(P={P})")


def dilate_sequence(F: FESequence, t: int) -> FESequence:
    """n -> f_n(q^t); a solution whenever F is, for any integer t >= 1."""
    if t < 1:
        raise ValueError(f"dilation exponent must be >= 1, got {t}")
    return FESequence(F.ring, F.support, lambda n: F.eval(n).dilate(t),
                      f"dilate({F.name}, {t})")


class PsiIdentityError(ValueError):
    """The substitution polynomial fails psi(q)^p = psi(q^p) on a generator."""

    def __init__(self, p: int, lhs: Polynomial, rhs: Polynomial):
        self.p = p
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"psi(q)^{p} != psi(q^{p}): {lhs} != {rhs}; "
            f"substitution would break the functional equation")


def psi_substitute_sequence(F: FESequence, psi: Polynomial) -> FESequence:
    """n -> f_n(psi(q)) for psi with psi(q)^p = psi(q^p) on every generator p.

    Checking the generators of S(P) suffices: if psi(x)^m = psi(x^m) and
    psi(x)^k = psi(x^k) hold identically then
    psi(x)^{mk} = (psi(x)^m)^k = psi(x^m)^k = psi((x^m)^k), so the identity
    propagates to all products of generators.  psi = q^t (t >= 1) is the
    dilation: its checks hold identically, so it is admitted on any support
    and built as ``dilate_sequence`` builds it.  No finite check exists over
    full support N, so every other psi (c q^t with c != 1 too) needs a
    finite one, where it is checked.

    Such a psi is composed only at 1, at the primes, and where F fails the
    law.  Write h_k = f_k(psi(q)) for the values built.  At a composite
    member n the rule splits off the least prime p of P dividing n, as
    ``from_seeds`` does, and when F's value there is the product
    f_n(x) = f_p(x) f_m(x^p), m = n/p, exactly, it returns h_p(q) h_m(q^p)
    instead.  Substituting x = psi(q) is a ring map, and
    psi(q)^p = psi(q^p) was checked above, so

        h_n = f_p(psi(q)) f_m(psi(q)^p) = f_p(psi(q)) f_m(psi(q^p))
            = h_p(q) h_m(q^p),

    with h_p and h_m equal to f_p(psi) and f_m(psi) by induction on n.  So
    the values are those of composing every member, for solutions and
    non-solutions alike; a member whose split fails the law is composed.
    """
    if psi.ring != F.ring:
        raise ValueError(f"ring mismatch: {psi.ring} vs {F.ring}")
    t = psi.degree
    if t and psi == monomial(F.ring, t):
        return FESequence(F.ring, F.support, lambda n: F.eval(n).dilate(t),
                          f"substitute({F.name})")
    if F.support.is_all:
        raise ValueError("over full support only the substitutions psi = q^t "
                         "are admissible; use dilate_sequence")
    for p in F.support.primes:
        lhs = psi ** p
        rhs = psi.dilate(p)
        if lhs != rhs:
            raise PsiIdentityError(p, lhs, rhs)

    def rule(n: int) -> Polynomial:
        f = F.eval(n)
        if n > 1:
            p = _least_prime(F.support, n)
            m = n // p
            if m > 1 and f == otimes(F.eval(p), F.eval(m), p):
                return otimes(H.eval(p), H.eval(m), p)
        return f.compose(psi)

    H = FESequence(F.ring, F.support, rule, f"substitute({F.name})")
    return H


def reciprocal_sequence(F: FESequence) -> FESequence:
    """n -> the coefficient-reversed f_n; a solution whenever F is."""
    return FESequence(F.ring, F.support, lambda n: F.eval(n).reciprocal(),
                      f"reciprocal({F.name})")


def _check_agree(F: FESequence, G: FESequence) -> None:
    if F.ring != G.ring:
        raise ValueError(f"ring mismatch: {F.ring} vs {G.ring}")
    if F.support != G.support:
        raise ValueError(f"support mismatch: {F.support} vs {G.support}")


def product_sequence(F: FESequence, G: FESequence) -> FESequence:
    """Value-wise product; solutions with equal support are closed under it."""
    _check_agree(F, G)
    return FESequence(F.ring, F.support, lambda n: F.eval(n) * G.eval(n),
                      f"product({F.name}, {G.name})")


def exact_quotient_sequence(F: FESequence, G: FESequence) -> FESequence:
    """Value-wise exact polynomial quotient F/G.

    Recovers the cofactor when F is known to be a value-wise product with
    divisor G; eval raises InexactDivision at any index where it is not.
    """
    _check_agree(F, G)
    return FESequence(F.ring, F.support,
                      lambda n: F.eval(n).exact_div(G.eval(n)),
                      f"quotient({F.name}, {G.name})")


class RationalSequence:
    """A formal quotient F/G of two solutions sharing one finite support.

    These are the elements of the group completion of the value-wise product
    semigroup: multiply componentwise, invert by swapping, and compare by
    cross-multiplication (F/G = F1/G1 iff F G1 = F1 G value-wise), decided up
    to an explicit index bound.
    """

    def __init__(self, numerator: FESequence, denominator: FESequence):
        _check_agree(numerator, denominator)
        if numerator.support.is_all:
            raise ValueError("formal quotients need a finite support")
        self.numerator = numerator
        self.denominator = denominator

    @property
    def ring(self) -> Ring:
        return self.numerator.ring

    @property
    def support(self) -> PrimeSet:
        return self.numerator.support

    def value(self, n: int) -> tuple[Polynomial, Polynomial]:
        """The pair (f_n, g_n); (0, 1) off the support."""
        if not in_semigroup(n, self.support):
            return poly.zero(self.ring), poly.one(self.ring)
        return self.numerator.eval(n), self.denominator.eval(n)

    def __mul__(self, other: "RationalSequence") -> "RationalSequence":
        return RationalSequence(
            product_sequence(self.numerator, other.numerator),
            product_sequence(self.denominator, other.denominator))

    def inverse(self) -> "RationalSequence":
        return RationalSequence(self.denominator, self.numerator)

    def equals(self, other: "RationalSequence", bound: int) -> bool:
        """Cross-multiplicative equality on every support member <= bound."""
        if self.support != other.support:
            return False
        for n in enumerate_semigroup(self.support, bound):
            lhs = self.numerator.eval(n) * other.denominator.eval(n)
            rhs = other.numerator.eval(n) * self.denominator.eval(n)
            if lhs != rhs:
                return False
        return True

    def __repr__(self):
        return f"RationalSequence({self.numerator.name} / {self.denominator.name})"


def rational_quotient(F: FESequence, G: FESequence) -> RationalSequence:
    """The formal quotient F/G as a group element."""
    return RationalSequence(F, G)


def assemble(t, lam, G: FESequence) -> FESequence:
    """Rebuild f_n = lambda(n) * q^(t(n-1)) * g_n from decomposition data.

    t is an exact nonnegative rational; t(n-1) must be a nonnegative integer
    for every evaluated support member (checked per evaluation, since t may
    be a proper fraction such as 1/3 on sparse supports).  lam is the
    completely multiplicative scalar part as a mapping from support members
    to nonzero scalars: every key must be an int (not a bool) in S(P), each
    tabulated lambda(n) must be the product of lambda(p)^e over
    n = prod p^e with every p tabulated, and members left out are extended
    by that product, which determines them.
    """
    if not isinstance(lam, Mapping):
        raise TypeError(f"lambda must be a mapping from support members to "
                        f"scalars, got {type(lam).__name__}")
    for n in lam:
        if type(n) is not int or n < 1 or not in_semigroup(n, G.support):
            raise ValueError(f"lambda key {n!r} is not a member of the "
                             f"support S({G.support})")
    t = QQ.normalize(t)
    if t < 0:
        raise ValueError(f"exponent slope must be >= 0, got {t}")
    ring = G.ring
    table = {n: ring.normalize(v) for n, v in lam.items()}
    for n, v in table.items():
        if ring.is_zero(v):
            raise ValueError(f"lambda({n}) = 0 on the support")
    bad = first_nonmultiplicative(table, ring.mul, ring.pow, ring.one)
    if bad is not None:
        raise ValueError(f"lambda is not completely multiplicative: lambda({bad}) "
                         f"is not the product over its tabulated primes")

    def lam_at(n: int):
        got = table.get(n)
        if got is None:
            got = multiplicative_value(table, n, ring.mul, ring.pow, ring.one)
            if got is None:
                raise ValueError(
                    f"lambda table has no value for a prime factor of {n}")
        return got

    def rule(n: int) -> Polynomial:
        e = t * (n - 1)
        if e.denominator != 1:
            raise ValueError(
                f"exponent t(n-1) = {e} is not an integer at n = {n}")
        return G.eval(n).scale(lam_at(n)).shift(int(e))

    return FESequence(ring, G.support, rule, f"assembled(t={t}, {G.name})")


class AdditiveSequence:
    """The sequence n -> h(q) * [n]_q, solving f_{m+n} = f_m + q^m f_n."""

    def __init__(self, h: Polynomial):
        self.h = h
        self.ring = h.ring
        self._memo: dict[int, Polynomial] = {}

    def eval(self, n: int) -> Polynomial:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        got = self._memo.get(n)
        if got is None:
            got = self._memo[n] = self.h * quantum_integer(n, self.ring)
        return got

    def __repr__(self):
        return f"AdditiveSequence(h={self.h})"


def additive_sequence(h: Polynomial) -> AdditiveSequence:
    """Scale the quantum integers by a fixed polynomial h."""
    return AdditiveSequence(h)
