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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from . import poly
from .poly import Polynomial, monomial, quantum_integer, scaled_quantum_integer
from .rings import QQ, Ring, scalar_text
from .semigroup import (ALL_PRIMES, PrimeSet, factorize, in_semigroup,
                        is_prime, seed_gcd)


def otimes(fm: Polynomial, fn: Polynomial, m: int) -> Polynomial:
    """fm (x) fn at left index m: fm(q) * fn(q^m)."""
    if m < 1:
        raise ValueError(f"left index must be >= 1, got {m}")
    return fm * fn.dilate(m)


def oplus(fm: Polynomial, fn: Polynomial, m: int) -> Polynomial:
    """fm (+) fn at left index m: fm(q) + q^m * fn(q)."""
    if m < 1:
        raise ValueError(f"left index must be >= 1, got {m}")
    return fm + fn.shift(m)


class FESequence:
    """A memoized sequence n -> f_n(q) with a declared support.

    ``rule(n)`` supplies the value for n inside the support; eval returns the
    zero polynomial off the support.  Rules built by the constructors in this
    module all return 1 at n = 1, as any nonzero solution of the
    multiplicative law must.
    """

    def __init__(self, ring: Ring, support: PrimeSet,
                 rule: Callable[[int], Polynomial], name: str = "sequence"):
        self.ring = ring
        self.support = support
        self.name = name
        self._rule = rule
        self._memo: dict[int, Polynomial] = {}

    def eval(self, n: int) -> Polynomial:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        got = self._memo.get(n)
        if got is None:
            if in_semigroup(n, self.support):
                got = self._rule(n)
            else:
                got = poly.zero(self.ring)
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


@dataclass(frozen=True)
class CommutativityFailure:
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


def first_noncommuting_pair(
        pairs: Iterable[tuple[int, int]], value: Callable[[int], Polynomial]
) -> tuple[int, int, Polynomial, Polynomial] | None:
    """The first pair (m, n) with f_m(q) f_n(q^m) != f_n(q) f_m(q^n).

    ``value(k)`` supplies f_k.  Pairs are expanded in the order given and
    the sweep stops at the first failure, returned as (m, n, lhs, rhs);
    None when every pair commutes.
    """
    for m, n in pairs:
        fm, fn = value(m), value(n)
        lhs = otimes(fm, fn, m)
        rhs = otimes(fn, fm, n)
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
    hit = first_noncommuting_pair(combinations(primes, 2), seeds.__getitem__)
    return None if hit is None else CommutativityFailure(*hit)


def from_seeds(primes, seeds: Mapping[int, Polynomial]) -> FESequence:
    """The unique solution with support S(P) and f_p equal to the given seeds.

    Evaluation splits off the largest prime power last:

        f_{p^k}(q) = f_p(q) f_{p^{k-1}}(q^p)
        f_n(q)     = f_{n'}(q) f_{p^a}(q^{n'})   with n = n' p^a, p the
                                                 largest prime dividing n

    Once the seeds commute pairwise, any other split yields the same value;
    fixing this one makes memoization deterministic.
    """
    P = primes if isinstance(primes, PrimeSet) else PrimeSet.of(primes)
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
        factors = factorize(n).factors
        p, a = factors[-1]
        if len(factors) == 1:
            if a == 1:
                return seeds[p]
            return otimes(seeds[p], seq.eval(p ** (a - 1)), p)
        rest = n // p ** a
        return otimes(seq.eval(rest), seq.eval(p ** a), rest)

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
    P = primes if isinstance(primes, PrimeSet) else PrimeSet.of(primes)
    zeta = ring.normalize(zeta)
    if ring.is_zero(zeta):
        raise ValueError("scaling constant must be nonzero")
    d = seed_gcd(P)
    if ring.pow(zeta, d) != ring.one:
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
    propagates to all products of generators.  Over full support N no finite
    generator check exists, so only psi = q^t is admitted there.
    """
    if psi.ring != F.ring:
        raise ValueError(f"ring mismatch: {psi.ring} vs {F.ring}")
    if F.support.is_all:
        deg = psi.degree
        if deg is None or deg < 1 or psi != monomial(F.ring, deg):
            raise ValueError(
                "over full support only the substitutions psi = q^t are "
                "admissible; use dilate_sequence")
    else:
        for p in F.support.primes:
            lhs = psi ** p
            rhs = psi.dilate(p)
            if lhs != rhs:
                raise PsiIdentityError(p, lhs, rhs)
    return FESequence(F.ring, F.support, lambda n: F.eval(n).compose(psi),
                      f"substitute({F.name})")


def reciprocal_sequence(F: FESequence) -> FESequence:
    """n -> the coefficient-reversed f_n; a solution whenever F is."""
    return FESequence(F.ring, F.support, lambda n: F.eval(n).reciprocal(),
                      f"reciprocal({F.name})")


def product_sequence(F: FESequence, G: FESequence) -> FESequence:
    """Value-wise product; solutions with equal support are closed under it."""
    if F.ring != G.ring:
        raise ValueError(f"ring mismatch: {F.ring} vs {G.ring}")
    if F.support != G.support:
        raise ValueError(f"support mismatch: {F.support} vs {G.support}")
    return FESequence(F.ring, F.support, lambda n: F.eval(n) * G.eval(n),
                      f"product({F.name}, {G.name})")


def exact_quotient_sequence(F: FESequence, G: FESequence) -> FESequence:
    """Value-wise exact polynomial quotient F/G.

    Recovers the cofactor when F is known to be a value-wise product with
    divisor G; eval raises InexactDivision at any index where it is not.
    """
    if F.ring != G.ring:
        raise ValueError(f"ring mismatch: {F.ring} vs {G.ring}")
    if F.support != G.support:
        raise ValueError(f"support mismatch: {F.support} vs {G.support}")
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
        if numerator.ring != denominator.ring:
            raise ValueError("numerator and denominator must share a ring")
        if numerator.support != denominator.support:
            raise ValueError("numerator and denominator must share a support")
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
        from .semigroup import enumerate_semigroup

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
    to nonzero scalars: checked for multiplicativity on every tabulated pair
    and extended to missing members from their prime factorization, which
    determines it.
    """
    if not isinstance(lam, Mapping):
        raise TypeError(f"lambda must be a mapping from support members to "
                        f"scalars, got {type(lam).__name__}")
    t = Fraction(t)
    if t < 0:
        raise ValueError(f"exponent slope must be >= 0, got {t}")
    ring = G.ring
    table = {n: ring.normalize(v) for n, v in lam.items()}
    for n, v in table.items():
        if ring.is_zero(v):
            raise ValueError(f"lambda({n}) = 0 on the support")
    keys = sorted(table)
    for i, m in enumerate(keys):
        for n in keys[i:]:
            if m * n in table:
                if table[m * n] != ring.mul(table[m], table[n]):
                    raise ValueError(
                        f"lambda is not completely multiplicative: "
                        f"lambda({m})*lambda({n}) != lambda({m * n})")

    def lam_at(n: int):
        got = table.get(n)
        if got is not None:
            return got
        acc = ring.one
        for p, e in factorize(n).factors:
            if p not in table:
                raise ValueError(f"lambda table has no value for prime {p}")
            acc = ring.mul(acc, ring.pow(table[p], e))
        return acc

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

    def eval(self, n: int) -> Polynomial:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        return self.h * quantum_integer(n, self.ring)

    def __repr__(self):
        return f"AdditiveSequence(h={self.h})"


def additive_sequence(h: Polynomial) -> AdditiveSequence:
    """Scale the quantum integers by a fixed polynomial h."""
    return AdditiveSequence(h)
