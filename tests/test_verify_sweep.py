"""verify_fe against the all-pairs reference sweep, and the work it does.

``reference_verify_fe`` is the verifier before the commutation sweep was
cut down to prime pairs: it expands the commutation identity for every
unordered pair of support members.  The fast sweep must agree with it on
every report field, failure sides included, for solutions and for
non-solutions alike.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (ALL_PRIMES, QQ, CyclotomicField, FESequence, FailedIdentity,
                 PrimeField, PrimeSet, VerificationReport, analyze,
                 dilate_sequence, from_seeds, is_prime, monomial,
                 monomial_sequence, product_sequence, quantum_integer,
                 quantum_sequence, reciprocal_sequence, sequences,
                 support_members, verify_fe)
from qfe.sequences import otimes

SMALL_PRIMES = (2, 3, 5, 7, 11)

# Each ring with the largest bound the all-pairs reference sweeps quickly.
RINGS = (
    (QQ, 30),
    (PrimeField(2), 30),
    (PrimeField(7), 30),
    (CyclotomicField(3), 12),
    (CyclotomicField(4), 12),
)


def reference_verify_fe(F, bound):
    """The law sweep, then the commutation identity at every member pair."""
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

    commutativity_ok = True
    members = support_members(F.support, bound)
    for i, m in enumerate(members):
        if not commutativity_ok:
            break
        for n in members[i + 1:]:
            lhs = otimes(F.eval(m), F.eval(n), m)
            rhs = otimes(F.eval(n), F.eval(m), n)
            if lhs != rhs:
                commutativity_ok = False
                if first_failure is None:
                    first_failure = FailedIdentity(m, n, lhs, rhs)
                break

    member_set = set(members)
    support_ok = all((n in member_set) == (not F.eval(n).is_zero())
                     for n in range(1, bound + 1))
    return VerificationReport(bound, fe_ok, commutativity_ok, support_ok,
                              first_failure)


def assert_matches_reference(F, bound):
    """Reports compare field by field; polynomials compare by value, so
    equal reports also print and serialise identically."""
    got = verify_fe(F, bound)
    assert got == reference_verify_fe(F, bound)
    return got


@st.composite
def nonzero_scalars(draw, ring):
    if isinstance(ring, CyclotomicField):
        k = draw(st.integers(0, ring.d - 1))
        return ring.mul(ring.pow(ring.zeta, k), ring.normalize(draw(
            st.sampled_from((1, -1, 2)))))
    if ring is QQ:
        return draw(st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2))))
    return draw(st.integers(1, ring.p - 1))


@st.composite
def supports(draw):
    if draw(st.booleans()):
        return ALL_PRIMES
    return PrimeSet.of(draw(st.sets(st.sampled_from(SMALL_PRIMES),
                                    min_size=1, max_size=3)))


@st.composite
def seed_solutions(draw, ring):
    """from_seeds with h_p = lambda_p q^(t(p-1)) [p]_{q^a}; these seeds
    commute for any nonzero lambda_p, any t >= 0 and any a >= 1."""
    P = PrimeSet.of(draw(st.sets(st.sampled_from(SMALL_PRIMES),
                                 min_size=1, max_size=3)))
    t = draw(st.integers(0, 2))
    a = draw(st.integers(1, 3))
    seeds = {p: quantum_integer(p, ring).dilate(a).shift(t * (p - 1))
             .scale(draw(nonzero_scalars(ring)))
             for p in P.primes}
    return from_seeds(P, seeds)


@st.composite
def solutions(draw):
    ring, max_bound = draw(st.sampled_from(RINGS))
    kind = draw(st.sampled_from(("quantum", "monomial", "dilate",
                                 "reciprocal", "product", "seeds")))
    if kind == "seeds":
        F = draw(seed_solutions(ring))
    else:
        support = draw(supports())
        F = quantum_sequence(ring, support)
        if kind == "monomial":
            F = monomial_sequence(ring, support)
        elif kind == "dilate":
            F = dilate_sequence(F, draw(st.integers(2, 3)))
        elif kind == "reciprocal":
            F = reciprocal_sequence(dilate_sequence(F, 2))
        elif kind == "product":
            F = product_sequence(F, monomial_sequence(ring, support))
    return F, draw(st.integers(max_bound // 3, max_bound))


def tampered_quantum(ring, c, k, coef):
    """The quantum solution with f_c replaced by [c]_q + coef q^k."""
    delta = monomial(ring, k, coef)

    def rule(n):
        f = quantum_integer(n, ring)
        return f + delta if n == c else f
    return FESequence(ring, ALL_PRIMES, rule, f"tampered({c})")


@st.composite
def tamperings(draw, prime_above_half):
    """(F, B, c): quantum with f_c tampered by a nonzero monomial.

    With prime_above_half, c is a prime in (B/2, B], so the law sweep never
    reaches f_c beyond the trivial pairs (1, c) and (c, 1); otherwise c is
    composite or at most B/2, so the law sweep sees it."""
    ring, max_bound = draw(st.sampled_from(RINGS))
    B = draw(st.integers(4, max_bound))
    if prime_above_half:
        choices = [c for c in range(B // 2 + 1, B + 1) if is_prime(c)]
    else:
        choices = [c for c in range(2, B + 1)
                   if not is_prime(c) or 2 * c <= B]
    c = draw(st.sampled_from(choices))
    k = draw(st.integers(0, c + 2))
    return tampered_quantum(ring, c, k, draw(nonzero_scalars(ring))), B, c


@settings(max_examples=60, deadline=None)
@given(case=solutions())
def test_sweep_matches_reference_on_solutions(case):
    F, bound = case
    assert assert_matches_reference(F, bound).ok


@settings(max_examples=40, deadline=None)
@given(case=tamperings(prime_above_half=True))
def test_sweep_matches_reference_past_the_law_sweep(case):
    F, bound, c = case
    report = assert_matches_reference(F, bound)
    assert report.fe_ok and not report.commutativity_ok
    assert (report.first_failure.m, report.first_failure.n) == (2, c)


@settings(max_examples=40, deadline=None)
@given(case=tamperings(prime_above_half=False))
def test_sweep_matches_reference_when_the_law_fails(case):
    F, bound, _ = case
    assert not assert_matches_reference(F, bound).fe_ok


def test_sweep_work_is_the_law_pairs_plus_large_prime_pairs(monkeypatch):
    """verify_fe expands the law at every (m, n) with mn <= B and the
    commutation identity only at prime pairs with p1 p2 > B.

    otimes is wrapped in every module that binds it, so the count covers
    both sweeps; quantum values are built without otimes."""
    calls = [0]
    real = sequences.otimes

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for module in (analyze, sequences):
        monkeypatch.setattr(module, "otimes", counted)
    B = 64
    assert verify_fe(quantum_sequence(), B).ok
    law_pairs = sum(B // m for m in range(1, B + 1))
    primes = [p for p in range(2, B + 1) if is_prime(p)]
    large_prime_pairs = sum(1 for i, p1 in enumerate(primes)
                            for p2 in primes[i + 1:] if p1 * p2 > B)
    assert calls[0] <= law_pairs + 2 * large_prime_pairs
