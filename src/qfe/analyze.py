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


def _pair_terms(n: int, k: int):
    """Symbolic term of degree k on each side of f_n(q) f_2(q^n) = f_2(q) f_n(q^2).

    Terms are tagged ("b", j) for b_j, ("ab", j) for a*b_j, or ("a",); the
    left side runs 1, b_1..b_{n-1}, a q^n, a b_j q^{n+j}, the right side
    interleaves b_j at even degrees with a b_j at odd degrees.
    """
    if k <= n - 1:
        lhs = ("b", k)
    elif k == n:
        lhs = ("a",)
    else:
        lhs = ("ab", k - n)
    rhs = ("b", k // 2) if k % 2 == 0 else ("ab", (k - 1) // 2)
    return lhs, rhs


def uniqueness_oracle(N: int) -> list[OracleFamily]:
    """Reconstruct, from scratch, all length-N solutions with deg f_n = n-1
    and f_n(0) = 1 over the rationals.

    Works the coefficient constraint system directly.  f_2 = 1 + a q with a
    symbolic nonzero unknown; for the smallest odd n >= 3 the constraints of
    f_n(q) f_2(q^n) = f_2(q) f_n(q^2) are propagated degree by degree with
    coefficients in Q[a], pinning each b_j and leaving polynomial constraints
    on a alone (a^2 = a and friends).  The admissible values of a are the
    common nonzero rational roots.  Each candidate is then propagated through
    every odd n <= N over Q, extended to even indices by
    f_{2m} = f_2(q) f_m(q^2), and kept only if all constraints close.

    Candidates that fail, and non-unique outcomes, are returned rather than
    suppressed.
    """
    if N < 3:
        raise ValueError(f"the constraint system needs N >= 3, got {N}")
    a_sym = monomial(QQ, 1)

    def propagate(n: int, a_val: Polynomial):
        """Run the degree sweep for odd n with f_2 = 1 + a q, a = a_val.

        a_val is a polynomial in the unknown (the unknown itself in the
        symbolic phase, a constant in the numeric phase).  Returns the b
        assignments and the list of unresolved constraints.
        """
        b: list[Polynomial | None] = [poly.one(QQ)] + [None] * (n - 1)
        constraints = []

        def term_value(term):
            if term == ("a",):
                return a_val
            kind, j = term
            if b[j] is None:
                return None
            return b[j] if kind == "b" else a_val * b[j]

        for k in range(2 * n):
            lhs_t, rhs_t = _pair_terms(n, k)
            lhs_v, rhs_v = term_value(lhs_t), term_value(rhs_t)
            if lhs_t[0] == "b" and lhs_v is None and rhs_v is not None:
                b[lhs_t[1]] = rhs_v
            elif lhs_v is not None and rhs_v is not None:
                diff = lhs_v - rhs_v
                if not diff.is_zero():
                    constraints.append(diff)
            else:
                constraints.append(None)  # underdetermined degree
        return b, constraints

    # Symbolic phase on the smallest odd index: admissible values of a.
    _, constraints = propagate(3, a_sym)
    if not constraints or any(c is None for c in constraints):
        raise AssertionError("constraint sweep left an unknown unpinned")
    candidates: set[Fraction] | None = None
    for c in constraints:
        roots = {r for r in _rational_roots(c) if r != 0}
        candidates = roots if candidates is None else candidates & roots

    families = []
    for a_val in sorted(candidates):
        a_const = poly.constant(QQ, a_val)
        fs: dict[int, Polynomial] = {1: poly.one(QQ),
                                     2: poly.from_rationals([1, a_val])}
        ok = True
        for n in range(3, N + 1):
            if n % 2 == 0:
                fs[n] = otimes(fs[2], fs[n // 2], 2)
                continue
            b, constraints = propagate(n, a_const)
            if any(c is not None and not c.is_zero() for c in constraints) \
                    or any(v is None for v in b):
                ok = False
                break
            coeffs = [v.constant_term for v in b]
            if coeffs[-1] == 0:
                ok = False  # degree would drop below n-1
                break
            fs[n] = poly.from_rationals(coeffs)
        if ok:
            families.append(OracleFamily(a_val, fs))
    return families


@dataclass(frozen=True)
class ZetaAdmissibilityReport:
    admissible: bool
    d: int
    counterexample: int | None


def zeta_admissibility(primes, zeta, ring: Ring = QQ,
                       bound: int = 1000) -> ZetaAdmissibilityReport:
    """Decide zeta**d = 1 for d = gcd{p-1} and cross-validate exhaustively.

    The algebraic verdict is checked against zeta**(m-1) = 1 for every
    semigroup member m <= bound; the two must agree (a disagreement would be
    a library defect, not an input property, and raises).
    """
    P = primes if isinstance(primes, PrimeSet) else PrimeSet.of(primes)
    zeta = ring.normalize(zeta)
    if ring.is_zero(zeta):
        raise ValueError("scaling constant must be nonzero")
    d = seed_gcd(P)
    algebraic = ring.pow(zeta, d) == ring.one
    counterexample = None
    for m in enumerate_semigroup(P, bound):
        if ring.pow(zeta, m - 1) != ring.one:
            counterexample = m
            break
    exhaustive = counterexample is None
    if algebraic != exhaustive:
        raise AssertionError(
            f"admissibility verdicts disagree: algebraic={algebraic}, "
            f"exhaustive counterexample={counterexample}")
    return ZetaAdmissibilityReport(algebraic, d, counterexample)
