"""Verification and classification of functional-equation sequences.

This module is the other half of a dual-route design: sequences are built
by construction rules in ``sequences`` and then checked here by exhaustive
exact-identity sweeps.  Nothing in this module trusts a construction --
``verify_fe`` expands both sides of every identity that its own law sweep
does not already decide, ``decompose`` recovers the canonical
(t, lambda, G) factorization from raw coefficient data, and
``uniqueness_oracle`` re-derives the quantum integers from the coefficient
constraints alone, with the scaling unknown treated symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from . import poly
from .poly import Polynomial, monomial, quantum_integer
from .rings import QQ, Ring
from .semigroup import (PrimeSet, divisors, enumerate_semigroup, is_prime,
                        seed_gcd, support_members)
from .sequences import FESequence, first_noncommuting_pair, otimes


@dataclass(frozen=True)
class FailedIdentity:
    """A counterexample pair with both fully expanded sides."""

    m: int
    n: int
    lhs: Polynomial
    rhs: Polynomial


@dataclass(frozen=True)
class VerificationReport:
    bound: int
    fe_ok: bool
    commutativity_ok: bool
    support_ok: bool
    first_failure: FailedIdentity | None

    @property
    def ok(self) -> bool:
        return self.fe_ok and self.commutativity_ok and self.support_ok


def verify_fe(F: FESequence, bound: int) -> VerificationReport:
    """Exhaustively check a sequence up to an index bound.

    Three sweeps, all exact:
      * the multiplicative law f_{mn} = f_m(q) f_n(q^m) for every ordered
        pair with mn <= bound (mn <= bound rather than m,n <= bound keeps
        expanded degrees at desk scale without losing coverage per bound);
      * the commutation identity f_m(q) f_n(q^m) = f_n(q) f_m(q^n) for every
        unordered pair of support members m < n <= bound (a strictly weaker
        condition: the constant sequence f_n = 2 passes it and fails the law
        at (1,1));
      * the support law: the nonzero indices <= bound must be exactly the
        declared semigroup.

    The commutation identity is expanded only where the law sweep does not
    already decide it.  When the law holds up to the bound, only the pairs
    of primes p1 < p2 <= bound in the support with p1 p2 > bound are
    expanded, in lexicographic order: every other member pair commutes
    whenever those do, and a failing member pair implies a failing prime
    pair no later in that order (proof in the body).  When the law fails,
    every member pair is expanded.  Either way ``commutativity_ok`` and
    ``first_failure`` are those of the sweep over all member pairs.

    Failures are report content, not errors; the first counterexample is
    returned with both sides.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    fe_ok = True
    first_failure = None
    for m in range(1, bound + 1):
        for n in range(1, bound // m + 1):
            lhs = F.eval(m * n)
            rhs = otimes(F.eval(m), F.eval(n), m)
            if lhs != rhs:
                fe_ok = False
                first_failure = FailedIdentity(m, n, lhs, rhs)
                break
        if not fe_ok:
            break

    members = support_members(F.support, bound)
    if fe_ok:
        # Write x_n = (f_n, n) in the monoid (a, m)(b, n) = (a(q) b(q^m), mn),
        # so the commutation identity at (m, n) says x_m x_n = x_n x_m.  The
        # law sweep passed, so x_{mn} = x_m x_n whenever mn <= bound, hence:
        #   * pairs (1, n) commute: x_1 x_n = x_n = x_n x_1;
        #   * a member k <= bound is the product of x_p over its prime
        #     factors p, all support members <= bound;
        #   * the centraliser {y : x y = y x} is a submonoid, so x_m and x_n
        #     commute once x_p and x_r commute for all primes p | m, r | n;
        #   * a prime pair with p1 p2 <= bound commutes:
        #     x_{p1} x_{p2} = x_{p1 p2} = x_{p2} x_{p1}.
        # If (m, n) fails, some primes p | m, r | n with p != r fail, and
        # (min(p, r), max(p, r)) is lexicographically <= (m, n): min <= m,
        # and min = m forces p = m prime and max = r <= n.  So the first
        # failing member pair is a prime pair with p1 p2 > bound, and
        # sweeping only those pairs finds the same pair with the same sides.
        primes = [p for p in members if is_prime(p)]
        pairs = ((p1, p2) for p1, p2 in combinations(primes, 2)
                 if p1 * p2 > bound)
    else:
        pairs = combinations(members, 2)
    hit = first_noncommuting_pair(pairs, F.eval)
    commutativity_ok = hit is None
    if first_failure is None and hit is not None:
        first_failure = FailedIdentity(*hit)

    member_set = set(members)
    support_ok = all((n in member_set) == (not F.eval(n).is_zero())
                     for n in range(1, bound + 1))
    return VerificationReport(bound, fe_ok, commutativity_ok, support_ok,
                              first_failure)


class DeltaInconsistencyError(ValueError):
    """The table cannot be written as delta(n) = t(n-1) for a single t."""

    def __init__(self, m: int, delta_m, n: int, delta_n):
        self.witness = (m, delta_m, n, delta_n)
        if m == 1:
            super().__init__(f"delta(1) = {delta_m} but t(1-1) is always 0")
        else:
            super().__init__(
                f"delta({m}) = {delta_m} gives slope {Fraction(delta_m, m - 1)} "
                f"but delta({n}) = {delta_n} gives slope "
                f"{Fraction(delta_n, n - 1)}")


def solve_delta(table: Mapping[int, int | Fraction]) -> Fraction:
    """Fit delta(n) = t(n-1) to a table over support members; exact t.

    The slope is anchored at the smallest tabulated n >= 2 and every other
    entry is cross-checked; a mismatch raises with the witness pair.  A table
    with no entry beyond n = 1 leaves t undetermined and is an error rather
    than a guess.
    """
    if 1 in table and table[1] != 0:
        raise DeltaInconsistencyError(1, table[1], 1, table[1])
    keys = sorted(n for n in table if n >= 2)
    if not keys:
        raise ValueError("t is undetermined: no table entry with n >= 2")
    anchor = keys[0]
    t = Fraction(table[anchor]) / (anchor - 1)
    for n in keys[1:]:
        if Fraction(table[n]) / (n - 1) != t:
            raise DeltaInconsistencyError(anchor, table[anchor], n, table[n])
    return t


def infer_degree_t(F: FESequence, bound: int) -> Fraction:
    """The slope t with deg(f_n) = t(n-1) across the support up to bound."""
    table = {}
    for n in support_members(F.support, bound):
        deg = F.eval(n).degree
        if deg is None:
            raise ValueError(f"f_{n} is zero on the declared support")
        table[n] = deg
    return solve_delta(table)


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class Decomposition:
    """The canonical factorization f_n = lambda(n) q^(t(n-1)) g_n(q).

    delta tabulates the valuation of f_n, lambda its trailing nonzero
    coefficient, and G is the monic-at-0 cofactor sequence (g_n(0) = 1 on
    the support); all three are uniquely determined by F.
    """

    t: Fraction
    delta: dict[int, int]
    lam: dict[int, object]
    G: FESequence


def decompose(F: FESequence, bound: int) -> Decomposition:
    """Split F into slope, multiplicative scalar part, and unit-constant core.

    Expects a sequence satisfying the functional equation up to the bound
    (run verify_fe first when in doubt); a delta table off the t(n-1) line or
    a non-multiplicative lambda means the input was not a solution, and
    raises DecompositionError.
    """
    ring = F.ring
    members = support_members(F.support, bound)
    delta: dict[int, int] = {}
    lam: dict[int, object] = {}
    for n in members:
        f = F.eval(n)
        if f.is_zero():
            raise DecompositionError(f"f_{n} is zero on the declared support")
        v = f.valuation()
        delta[n] = v
        lam[n] = f.coefficient(v)
    try:
        t = solve_delta(delta)
    except (DeltaInconsistencyError, ValueError) as exc:
        raise DecompositionError(f"valuation table: {exc}") from exc
    for i, m in enumerate(members):
        for n in members[i:]:
            mn = m * n
            if mn in lam and lam[mn] != ring.mul(lam[m], lam[n]):
                raise DecompositionError(
                    f"lambda is not completely multiplicative at "
                    f"({m}, {n}): lambda({mn}) != lambda({m})lambda({n})")

    def core_rule(n: int) -> Polynomial:
        f = F.eval(n)
        v = f.valuation()
        unit = ring.inv(f.coefficient(v))
        # A slice of a normalized polynomial that keeps its last coefficient
        # is normalized already.
        return Polynomial._raw(ring, f.coeffs[v:]).scale(unit)

    G = FESequence(ring, F.support, core_rule, f"core({F.name})")
    return Decomposition(t, delta, lam, G)


@dataclass(frozen=True)
class QuantumForcedReport:
    """Outcome of the forced-form check deg f_n = n-1, f_n(0) = 1 => [n]_q.

    Hypothesis failures are outcomes, not errors: callers legitimately probe
    sequences that violate them.
    """

    confirmed: bool
    failed_hypothesis: str | None
    witness: int | None


def check_quantum_forced(F: FESequence, bound: int) -> QuantumForcedReport:
    """Check the hypotheses and conclusion forcing f_n = [n]_q.

    Hypotheses: the support contains 2 and an odd member > 1, and every
    support member n <= bound has deg f_n = n-1 and constant term 1.  When
    they hold, the conclusion f_n = [n]_q is asserted for every support
    member <= bound.
    """
    members = support_members(F.support, bound)
    if 2 not in members:
        return QuantumForcedReport(False, "support does not contain 2", 2)
    odd = next((n for n in members if n > 1 and n % 2 == 1), None)
    if odd is None:
        return QuantumForcedReport(
            False, "support has no odd member greater than 1", None)
    for n in members:
        f = F.eval(n)
        if f.degree != n - 1:
            return QuantumForcedReport(False, "degree is not n-1", n)
        if f.constant_term != F.ring.one:
            return QuantumForcedReport(False, "constant term is not 1", n)
    for n in members:
        if F.eval(n) != quantum_integer(n, F.ring):
            return QuantumForcedReport(False, "conclusion fails", n)
    return QuantumForcedReport(True, None, None)


@dataclass(frozen=True)
class OracleFamily:
    """One solution of the degree-(n-1), unit-constant constraint system."""

    a: Fraction
    polynomials: dict[int, Polynomial]


def _rational_roots(c: Polynomial) -> set[Fraction]:
    """All rational roots of a nonzero polynomial over the rationals."""
    denom_lcm = 1
    for x in c.coeffs:
        if isinstance(x, Fraction):
            denom_lcm = denom_lcm * x.denominator // math.gcd(
                denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in c.coeffs]
    while ints and ints[0] == 0:
        ints.pop(0)
    if not ints:
        return set()
    roots = set()
    lead, const = ints[-1], ints[0]
    for p in divisors(abs(const)):
        for q in divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if c.evaluate(cand) == 0:
                    roots.add(cand)
    if c.evaluate(Fraction(0)) == 0:
        roots.add(Fraction(0))
    return roots


def _forced_coefficients(n: int, a, one):
    """What f_n(q) f_2(q^n) = f_2(q) f_n(q^2) forces, degree by degree.

    Take f_2 = 1 + a q and f_n = b_0 + b_1 q + ... + b_{n-1} q^{n-1} with
    b_0 = 1.  At degree k the left side is b_k for k < n and a b_{k-n} for
    n <= k < 2n; the right side is b_{k//2} for even k and a b_{k//2} for
    odd k; from degree 2n up both sides are zero.  So each k < n pins b_k
    to an earlier coefficient, and each n <= k < 2n leaves diffs[k - n],
    left minus right, which a solution must make zero.

    a and one are values of one ring: the unknown and 1 in Q[a] (symbolic),
    or a rational and 1 (numeric).  Returns (b, diffs).
    """
    b = [one]

    def right(k: int):
        return b[k // 2] if k % 2 == 0 else a * b[k // 2]

    for k in range(1, n):
        b.append(right(k))
    return b, [a * b[k - n] - right(k) for k in range(n, 2 * n)]


def uniqueness_oracle(N: int) -> list[OracleFamily]:
    """Reconstruct, from scratch, all length-N solutions with deg f_n = n-1
    and f_n(0) = 1 over the rationals.

    Works the coefficient recurrence of ``_forced_coefficients`` directly.
    With f_2 = 1 + a q, the identity f_n(q) f_2(q^n) = f_2(q) f_n(q^2) pins
    b_k = b_{k//2} (k even) or a b_{k//2} (k odd) for k < n and leaves the
    differences a b_{k-n} - (b_{k//2} or a b_{k//2}) for n <= k < 2n.  At
    n = 3 these are polynomials in the unknown a (a - a^2 and a^2 - a); the
    admissible values of a are their common nonzero rational roots.  Each
    candidate is then run through every odd n <= N over Q, extended to even
    indices by f_{2m} = f_2(q) f_m(q^2), and kept only if every difference
    vanishes.  b_{n-1} = a^popcount(n-1) is nonzero, so deg f_n = n-1 holds.

    Candidates that fail, and non-unique outcomes, are returned rather than
    suppressed.
    """
    if N < 3:
        raise ValueError(f"the constraint system needs N >= 3, got {N}")
    _, diffs = _forced_coefficients(3, monomial(QQ, 1), poly.one(QQ))
    candidates = set.intersection(*({r for r in _rational_roots(c) if r != 0}
                                    for c in diffs if not c.is_zero()))

    families = []
    for a in sorted(candidates):
        fs = {1: poly.one(QQ), 2: poly.from_rationals([1, a])}
        for n in range(3, N + 1):
            if n % 2 == 0:
                fs[n] = otimes(fs[2], fs[n // 2], 2)
                continue
            b, diffs = _forced_coefficients(n, a, QQ.one)
            if any(diffs):
                break
            fs[n] = poly.from_rationals(b)
        else:
            families.append(OracleFamily(a, fs))
    return families


@dataclass(frozen=True)
class ZetaAdmissibilityReport:
    admissible: bool
    d: int
    counterexample: int | None


def zeta_admissibility(primes, zeta, ring: Ring = QQ,
                       bound: int = 1000) -> ZetaAdmissibilityReport:
    """Decide zeta**d = 1 for d = gcd{p-1} and cross-validate exhaustively.

    zeta**d = 1 exactly when zeta**(p-1) = 1 for every p in P.  Members m
    with zeta**(m-1) = 1 are closed under products, so the first failing
    member is the smallest failing prime.  The scan of zeta**(m-1) over
    the semigroup members m <= bound must find that prime when it is at
    most bound, and nothing otherwise (a disagreement would be a library
    defect, not an input property, and raises).
    """
    P = primes if isinstance(primes, PrimeSet) else PrimeSet.of(primes)
    zeta = ring.normalize(zeta)
    if ring.is_zero(zeta):
        raise ValueError("scaling constant must be nonzero")
    d = seed_gcd(P)
    algebraic = ring.pow(zeta, d) == ring.one
    failing = [p for p in P.primes if ring.pow(zeta, p - 1) != ring.one]
    predicted = failing[0] if failing and failing[0] <= bound else None
    counterexample = None
    for m in enumerate_semigroup(P, bound):
        if ring.pow(zeta, m - 1) != ring.one:
            counterexample = m
            break
    if algebraic == bool(failing) or counterexample != predicted:
        raise AssertionError(
            f"admissibility verdicts disagree: algebraic={algebraic}, "
            f"failing primes={failing}, "
            f"exhaustive counterexample={counterexample}")
    return ZetaAdmissibilityReport(algebraic, d, counterexample)
