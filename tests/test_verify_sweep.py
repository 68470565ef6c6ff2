"""verify_fe against the all-pairs reference sweep, and the work it does.

``reference_verify_fe`` is the verifier before the per-index profile and
before either sweep was cut down to the rows where a first failure can lie
(the law in rows 1 and primes, the commutation identity in the rows of two
regular anchors and of the exceptional members, and once the law holds
only at prime pairs past the bound): it expands the law at every pair and
the commutation identity for every unordered pair of support members.
verify_fe must agree with it on every report field, failure sides
included, for solutions and for non-solutions alike, however many pairs
its profile decides or its row cuts leave out.  The shapeless seeds below,
where no value but f_1 is regular, are where the composite law rows used
to be expanded.

``reference_profile`` is that profile before its one-factor template,
comparing each member with its quantum-type form as a product of
polynomials; the profile must equal it, dict and support flag.
"""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (ALL_PRIMES, QQ, CyclotomicField, FESequence, FailedIdentity,
                 PrimeField, PrimeSet, VerificationReport, analyze, assemble,
                 dilate_sequence, exact_quotient_sequence, from_rationals,
                 from_seeds, is_prime, monomial, monomial_sequence, poly,
                 product_sequence, psi_substitute_sequence, quantum_integer,
                 quantum_sequence, reciprocal_sequence, root_of_unity_order,
                 scaled_quantum_integer, sequences, support_members, verify_fe,
                 zeta_scaled_sequence)
from qfe.analyze import _profile
from qfe.poly import Polynomial
from qfe.cli import builtin_sequence, load_seed_spec
from qfe.rings import first_inadmissible_prime
from qfe.semigroup import divisors
from qfe.sequences import otimes

GOLDEN = Path(__file__).parent / "golden"

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


def reference_profile(F, members, bound):
    """``analyze._profile`` before its one-factor template: every member n
    is compared with c_n q^(s_n) G_n as a product of polynomials, the
    factors of e_u < 0 multiplied into f_n."""
    ring = F.ring
    peels = (analyze._peel_exponents(F.eval(p), p) for p in members if is_prime(p))
    e = next((e for e in peels if e is not None), {})
    zetas = {z for _, z in e.values()}
    if any(first_inadmissible_prime(filter(is_prime, members), z, ring)
           for z in zetas - {ring.one}):
        e, zetas = {}, set()
    member_set = set(members)
    profile = {}
    support_ok = True
    for n in range(1, bound + 1):
        f = F.eval(n)
        zero, member = f.is_zero(), n in member_set
        support_ok &= zero != member
        if zero and not member:
            profile[n] = 0
        if zero or not member:
            continue
        s = f.valuation()
        c = f.coefficient(s)
        base = {z: scaled_quantum_integer(n, z, ring) for z in zetas}
        num = [(base[z] ** k).dilate(u) for u, (k, z) in e.items() if k > 0]
        den = [(base[z] ** -k).dilate(u) for u, (k, z) in e.items() if k < 0]
        rhs = reduce(mul, num) if num else poly.one(ring)
        if reduce(mul, den, f) == rhs.scale(c).shift(s):
            profile[n] = (c, s)
    return profile, support_ok


def assert_profile_matches_reference(F, bound):
    """The profile dict and the support flag, both as the reference's."""
    members = support_members(F.support, bound)
    got = _profile(F, members, bound)
    assert got == reference_profile(F, members, bound)
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


def quotient_seed(p, a, ring):
    """[p]_{q^a} / [p]_q, a polynomial when p does not divide a."""
    return quantum_integer(p, ring).dilate(a).exact_div(quantum_integer(p, ring))


@st.composite
def seed_solutions(draw, ring):
    """from_seeds with h_p = lambda_p q^(t(p-1)) [p]_{q^a}, or that divided
    by [p]_q when a is prime to P (a negative exponent, as in the
    seed-tables benchmark families).  These seeds commute for any nonzero
    lambda_p, any a >= 1 and any t >= 0 with t(p-1) an integer, so t may be
    a fraction whose denominator divides gcd{p-1} (t = 1/3 on S({7}))."""
    P = PrimeSet.of(draw(st.sets(st.sampled_from(SMALL_PRIMES),
                                 min_size=1, max_size=3)))
    step = math.gcd(*(p - 1 for p in P.primes))
    t = Fraction(draw(st.integers(0, 2)), draw(st.sampled_from(divisors(step))))
    a = draw(st.integers(1, 3))
    quotient = a > 1 and all(a % p for p in P.primes) and draw(st.booleans())

    def seed(p):
        h = quotient_seed(p, a, ring) if quotient else quantum_integer(p, ring).dilate(a)
        return h.shift(int(t * (p - 1))).scale(draw(nonzero_scalars(ring)))
    return from_seeds(P, {p: seed(p) for p in P.primes})


GF7, Z12 = PrimeField(7), CyclotomicField(12)
TWO_ZETA = Z12.mul(Z12.zeta, Z12.normalize(2))


def one_factor_solution(ring, primes, lam, t, u):
    """from_seeds with h_p = lam q^(t(p-1)) [p]_{q^u}: the values
    lam^Omega(n) q^(t(n-1)) [n]_{q^u} on S(P), one factor of the shape
    with trailing coefficients other than 1."""
    return from_seeds(primes, {
        p: quantum_integer(p, ring).dilate(u).shift(t * (p - 1)).scale(lam)
        for p in primes})


def power_sequence(ring, support, k):
    """n -> [n]_q^k, as a value-wise product of k quantum sequences."""
    F = quantum_sequence(ring, support)
    for _ in range(k - 1):
        F = product_sequence(F, quantum_sequence(ring, support))
    return F


@st.composite
def solutions(draw, rings=RINGS):
    ring, max_bound = draw(st.sampled_from(rings))
    kind = draw(st.sampled_from(("quantum", "monomial", "dilate",
                                 "reciprocal", "product", "power", "seeds")))
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
        elif kind == "power":
            # Over GF(l), [n]_q^l = [n]_{q^l}, and l - 1 reads as -1.
            ks = (2, 3)
            if isinstance(ring, PrimeField):
                ks = tuple(k for k in (ring.p - 1, ring.p, ring.p + 1) if k > 1)
            F = power_sequence(ring, support, draw(st.sampled_from(ks)))
            max_bound = min(max_bound, 16)
    return F, draw(st.integers(max_bound // 3, max_bound))


def scaled_at(F, c, a, k=0):
    """F with f_c replaced by a q^k f_c."""
    def rule(n):
        return F.eval(n).scale(a).shift(k) if n == c else F.eval(n)
    return FESequence(F.ring, F.support, rule, f"scaled({F.name}, {c})")


def tampered(F, c, delta):
    """F with f_c replaced by f_c + delta."""
    def rule(n):
        return F.eval(n) + delta if n == c else F.eval(n)
    return FESequence(F.ring, F.support, rule, f"tampered({F.name}, {c})")


class Misdeclared(FESequence):
    """The values of F at every index, under a narrower declared support."""

    def __init__(self, F, support):
        super().__init__(F.ring, support, F.eval, f"misdeclared({F.name})")
        self.values = F

    def eval(self, n):
        return self.values.eval(n)


@st.composite
def misdeclared_solutions(draw):
    """(F, B): a drawn solution's values under a declared support that
    leaves out some of its primes, so values off that support are nonzero."""
    F, B = draw(solutions())
    primes = SMALL_PRIMES if F.support.is_all else F.support.primes
    kept = draw(st.sets(st.sampled_from(primes), max_size=len(primes) - 1))
    return Misdeclared(F, PrimeSet.of(kept)), B


@st.composite
def zero_member_solutions(draw):
    """(F, B): a drawn solution with its value at one member <= B set to 0."""
    F, B = draw(solutions())
    c = draw(st.sampled_from(support_members(F.support, B)))
    return tampered(F, c, -F.eval(c)), B


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
    delta = monomial(ring, k, draw(nonzero_scalars(ring)))
    return tampered(quantum_sequence(ring), c, delta), B, c


@st.composite
def tampered_solutions(draw):
    """(F, B): a drawn solution with one member's value moved by a nonzero
    monomial, at f_1, at a prime, at a composite, or at exactly f_B (the
    largest member, made the bound, so all values below it still fit)."""
    F, B = draw(solutions())
    members = support_members(F.support, B)
    where = draw(st.sampled_from(("one", "prime", "composite", "last")))
    if where == "last" and members[-1] > 1:
        B = members[-1]
    choices = {"one": [1],
               "prime": [n for n in members if is_prime(n)],
               "composite": [n for n in members if n > 1 and not is_prime(n)],
               "last": [members[-1]]}[where]
    c = draw(st.sampled_from(choices or members))
    k = draw(st.integers(0, c + 2))
    return tampered(F, c, monomial(F.ring, k, draw(nonzero_scalars(F.ring)))), B


@settings(max_examples=60, deadline=None)
@given(case=solutions())
def test_sweep_matches_reference_on_solutions(case):
    F, bound = case
    assert assert_matches_reference(F, bound).ok


@settings(max_examples=60, deadline=None)
@given(case=tampered_solutions())
def test_verify_matches_reference_on_tampered_solutions(case):
    assert_matches_reference(*case)


@st.composite
def scalar_tamperings(draw, ring_bound):
    """(F, B): a drawn solution with one to three members' values f_c
    replaced by a q^k f_c, a nonzero, 0 <= k <= 3.  Such values stay
    regular in verify_fe's profile, so only its scalar rules can tell
    them apart from the solution."""
    F, B = draw(solutions(rings=(ring_bound,)))
    members = support_members(F.support, B)
    for c in draw(st.sets(st.sampled_from(members), min_size=1, max_size=3)):
        F = scaled_at(F, c, draw(nonzero_scalars(F.ring)), draw(st.integers(0, 3)))
    return F, B


@pytest.mark.parametrize("ring_bound", RINGS, ids=lambda rb: str(rb[0]))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_verify_matches_reference_on_scalar_tamperings(ring_bound, data):
    assert_matches_reference(*data.draw(scalar_tamperings(ring_bound)))


def seed_quotient_sequence(ring, primes, a, lam, t):
    """lambda q^(t(n-1)) [n]_{q^a} / [n]_q on S(P), lambda constant on P."""
    return from_seeds(primes, {
        p: quotient_seed(p, a, ring).shift(t * (p - 1)).scale(lam)
        for p in primes})


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(3)],
                         ids=str)
@pytest.mark.parametrize("make", [
    lambda ring: quantum_sequence(ring),
    lambda ring: assemble(1, {p: 2 for p in range(2, 31) if is_prime(p)},
                          product_sequence(quantum_sequence(ring),
                                           dilate_sequence(quantum_sequence(ring), 2))),
], ids=["quantum", "scaled-product"])
@pytest.mark.parametrize("c", [1, 23, 24, 29, 30])
def test_verify_matches_reference_at_each_tampered_index(ring, make, c):
    """f_1, a prime in the middle, a composite, the last prime <= B and
    f_B itself: a certificate that skipped any of them would pass."""
    F = tampered(make(ring), c, monomial(ring, 2, 3))
    assert not assert_matches_reference(F, 30).ok


@pytest.mark.parametrize("ring, bound", RINGS, ids=str)
def test_verify_matches_reference_on_support_violations(ring, bound):
    """Nonzero values off the declared support, a zero on it (at f_4, and
    at the prime f_2, which the peel must give up on and pass over), and a
    nonzero f_10 off S({2, 3}), whose law pair (2, 5) has f_5 = 0 on one
    side."""
    report = assert_matches_reference(
        Misdeclared(quantum_sequence(ring), PrimeSet.of([2, 3])), bound)
    assert report.fe_ok and not report.support_ok
    F = quantum_sequence(ring)
    assert not assert_matches_reference(
        tampered(F, 4, -F.eval(4)), bound).support_ok
    report = assert_matches_reference(tampered(F, 2, -F.eval(2)), bound)
    assert (report.fe_ok, report.commutativity_ok, report.support_ok) == (
        False, True, False)
    assert (report.first_failure.m, report.first_failure.n) == (2, 2)
    S23 = PrimeSet.of([2, 3])
    Q = quantum_sequence(ring, S23)
    F = FESequence(ring, ALL_PRIMES,
                   lambda n: monomial(ring, 0) if n == 10 else Q.eval(n), "f10")
    report = assert_matches_reference(Misdeclared(F, S23), bound)
    assert not report.fe_ok and (report.first_failure.m,
                                 report.first_failure.n) == (2, 5)


def test_off_support_sweep_reads_only_an_overridden_eval(monkeypatch):
    """A plain FESequence is zero off its support by construction, so the
    verifier asks the support only about its members; a sequence that
    overrides eval is still read at every index off its support."""
    asked = []
    real = sequences.in_semigroup
    monkeypatch.setattr(sequences, "in_semigroup",
                        lambda n, S: asked.append(n) or real(n, S))
    S23, bound = PrimeSet.of([2, 3]), 60
    members = support_members(S23, bound)
    report = verify_fe(quantum_sequence(QQ, S23), bound)
    assert report.ok and report.support_ok
    assert sorted(set(asked)) == members
    assert not verify_fe(Misdeclared(quantum_sequence(QQ), S23), bound).support_ok


def test_profile_has_no_exception_on_the_quantum_type_constructions():
    """Every index is regular, so no pair is expanded, on the builtins of
    quantum type, the library transforms of the verify-full benchmark, a
    seed-tables family and quantum over the other rings."""
    qs = quantum_sequence
    cases = [builtin_sequence(name) for name in
             ("quantum", "monomial", "identity", "power7-third")]
    cases += [
        dilate_sequence(qs(), 3),
        reciprocal_sequence(dilate_sequence(qs(), 2)),
        product_sequence(qs(), dilate_sequence(qs(), 2)),
        psi_substitute_sequence(qs(), monomial(QQ, 2)),
        exact_quotient_sequence(product_sequence(qs(), dilate_sequence(qs(), 2)),
                                dilate_sequence(qs(), 2)),
        seed_quotient_sequence(QQ, [2, 3], 5, Fraction(5, 6), 2),
        qs(PrimeField(257)),
        qs(CyclotomicField(12)),
        one_factor_solution(GF7, [2, 3, 5], 3, 1, 2),
        one_factor_solution(Z12, [2, 3], TWO_ZETA, 1, 2),
    ]
    for F in cases:
        profile, _ = _profile(F, support_members(F.support, 60), 60)
        assert profile.keys() == set(range(1, 61)), F


def test_profile_has_no_exception_on_quotient_shapes_over_other_rings():
    """lambda^Omega(n) q^(n-1) [n]_{q^5} / [n]_q on S({2, 3}) over GF(7),
    lambda = 3, and over Q(zeta_12), lambda = 2 zeta, not rational: every
    index is regular.  With t = 1 the comparison must start at f_n's
    valuation, and with lambda != 1 outside Q, G_n must be scaled by the
    trailing entry of f_n's primitive part before it is compared."""
    for ring, lam in ((GF7, 3), (Z12, TWO_ZETA)):
        F = seed_quotient_sequence(ring, [2, 3], 5, lam, 1)
        assert analyze._peel_exponents(F.eval(2), 2) == {1: (-1, ring.one),
                                                          5: (1, ring.one)}
        profile, support_ok = _profile(F, support_members(F.support, 60), 60)
        assert support_ok and profile.keys() == set(range(1, 61)), ring


def test_profile_multiplies_only_off_the_template_shapes(monkeypatch):
    """With every value built, the profile decides each member of an empty
    or one-factor shape by its template and makes no polynomial product.
    Shapes with a power or two positive factors still multiply, once per
    member: [n]_q [n]_{q^2} multiplies its two factors, and [n]_q^2
    squares [n]_q, after one product in the peel of f_2 that squares
    [2]_q.  The quotient [n]_{q^5}/[n]_q divides [n]_{q^5} by [n]_q and
    multiplies nothing per member; its one product is in the peel of f_2,
    whose [2]_q^(-1) is multiplied in."""
    qs, B = quantum_sequence, 60
    template = [builtin_sequence(name) for name in ("quantum", "monomial", "identity")]
    template += [dilate_sequence(qs(), 3), psi_substitute_sequence(qs(), monomial(QQ, 2))]
    products = [(product_sequence(qs(), dilate_sequence(qs(), 2)), 1, 0),
                (power_sequence(QQ, ALL_PRIMES, 2), 1, 1),
                (seed_quotient_sequence(QQ, [2, 3], 5, Fraction(5, 6), 2), 0, 1)]
    for F in template + [F for F, _, _ in products]:
        for n in range(1, B + 1):
            F.eval(n)
    calls = [0]
    real = poly._product

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(poly, "_product", counted)
    for F in template:
        _profile(F, support_members(F.support, B), B)
        assert calls[0] == 0, F
    for F, per_member, peel in products:
        members = support_members(F.support, B)
        profile, _ = _profile(F, members, B)
        assert profile.keys() == set(range(1, B + 1))
        assert calls[0] == per_member * len(members) + peel, F
        calls[0] = 0


@pytest.mark.parametrize("make", [
    lambda draw: draw(solutions()),
    lambda draw: draw(tampered_solutions()),
    lambda draw: draw(scalar_tamperings(draw(st.sampled_from(RINGS)))),
    lambda draw: draw(twisted_sequences()),
    lambda draw: draw(twisted_sequences(admissible=False)),
    lambda draw: draw(misdeclared_solutions()),
    lambda draw: draw(zero_member_solutions()),
], ids=["solutions", "tampered", "scalar-tampered", "twisted", "inadmissible",
        "misdeclared", "zero-member"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_profile_matches_reference(make, data):
    assert_profile_matches_reference(*make(data.draw))


def change_value(f, change, u):
    """f = a q^s [n]_{q^u} (n >= 2) with one change: the coefficient at a
    pattern slot doubled, a zero slot set to 1 (q^(s - 1) when u = 1), one
    more pattern term, one fewer, or the n pattern terms u + 1 apart."""
    ring, coeffs = f.ring, list(f.coeffs)
    s = f.valuation()
    n = (len(coeffs) - s - 1) // u + 1
    if change == "pattern-slot":
        i = s + u * (n // 2)
        coeffs[i] = ring.mul(coeffs[i], ring.normalize(2))
    elif change == "zero-slot":
        coeffs[s + 1 if u > 1 else s - 1] = ring.one
    elif change == "longer":
        coeffs += [ring.zero] * (u - 1) + [coeffs[s]]
    elif change == "stride":
        coeffs[s:] = Polynomial(ring, coeffs[s::u]).dilate(u + 1).coeffs
    else:
        del coeffs[-u:]
    return Polynomial(ring, coeffs)


@pytest.mark.parametrize("ring, lam", [pytest.param(GF7, 3, id="GF(7)"),
                                       pytest.param(Z12, TWO_ZETA, id="Q(zeta_12)")])
@pytest.mark.parametrize("u", [1, 2, 3])
@pytest.mark.parametrize("change", ["pattern-slot", "zero-slot", "longer", "shorter",
                                    "stride"])
def test_profile_matches_reference_on_changed_one_factor_values(ring, lam, u, change):
    """lam^Omega(n) q^(n-1) [n]_{q^u} on S({2, 3, 5}) at B = 30, lam != 1,
    with one change at f_3, f_4 or f_6: exactly that index leaves the
    profile, and the profile is the reference's."""
    F, B = one_factor_solution(ring, [2, 3, 5], lam, 1, u), 30
    for c in (3, 4, 6):
        changed = change_value(F.eval(c), change, u)
        G = FESequence(ring, F.support,
                       lambda n: changed if n == c else F.eval(n), "changed")
        profile, support_ok = assert_profile_matches_reference(G, B)
        assert support_ok and profile.keys() == set(range(1, B + 1)) - {c}


def test_peel_gives_up_within_its_limits(monkeypatch):
    """The peel stops at an exponent past its cap, and before a peel would
    double the degree: 1 - q^4 on S({2}) peels c = -1 at u = 4, 8, 16, ...
    without end.  Either way verify_fe still matches the reference."""
    too_high = power_sequence(QQ, PrimeSet.of([2, 3]), analyze._PEEL_LIMIT + 1)
    assert analyze._peel_exponents(too_high.eval(2), 2) is None
    growing = from_seeds([2], {2: from_rationals([1, 0, 0, 0, -1])})
    peels = [0]
    real = analyze.scaled_quantum_integer

    def counted(*args):
        peels[0] += 1
        return real(*args)

    monkeypatch.setattr(analyze, "scaled_quantum_integer", counted)
    assert analyze._peel_exponents(growing.eval(2), 2) is None
    assert peels[0] == 1
    monkeypatch.undo()
    for F, B in ((too_high, 12), (growing, 16)):
        assert assert_matches_reference(F, B).ok


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


def count_otimes(monkeypatch):
    """A one-item list that counts otimes calls from here on.

    otimes is wrapped in every module that binds it, so the count covers
    both sweeps."""
    calls = [0]
    real = sequences.otimes

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for module in (analyze, sequences):
        monkeypatch.setattr(module, "otimes", counted)
    return calls


def test_otimes_never_dilates(monkeypatch):
    """otimes multiplies f_m(q) by f_n(q^m) with f_n's slots at stride m, so
    building a seed table and verifying it dilates nothing inside otimes.

    seeds-23-frac.json is a {2, 3} seed file.  Its table to 2000 makes one
    otimes per composite member (44; f_2 and f_3 are the seeds) and two for
    the seed commutation check.  verify_fe expands no identity of the
    solution, and three once f_96 is shifted by q, where the law fails."""
    calls = count_otimes(monkeypatch)
    inside, dilations = [0], [0]
    counted, dilate = sequences.otimes, Polynomial.dilate

    def nested(*args):
        inside[0] += 1
        try:
            return counted(*args)
        finally:
            inside[0] -= 1

    def counting_dilate(self, m):
        dilations[0] += inside[0] > 0
        return dilate(self, m)
    for module in (analyze, sequences):
        monkeypatch.setattr(module, "otimes", nested)
    monkeypatch.setattr(Polynomial, "dilate", counting_dilate)
    spec = load_seed_spec(str(GOLDEN / "seeds-23-frac.json"))
    F = from_seeds(spec.primes, spec.seeds)
    for n in range(1, 2001):
        F.eval(n)
    assert calls[0] == 46
    assert verify_fe(F, 2000).ok
    assert calls[0] == 46
    report = verify_fe(scaled_at(F, 96, 1, 1), 2000)
    assert not report.fe_ok
    assert calls[0] == 46 + 3
    assert dilations[0] == 0
    # A dilation stores a new stride and shares the primitive part.
    f = F.eval(96)
    assert f.dilate(7).primitive is f.primitive


def test_regular_solution_expands_no_identity(monkeypatch):
    """Every index of the quantum sequence is regular: no otimes at all."""
    calls = count_otimes(monkeypatch)
    assert verify_fe(quantum_sequence(), 200).ok
    assert calls[0] == 0


def frobenius_quotient_sequence(ring, H, primes):
    """f_n = H(q^n) / H(q) on S(primes), from its seeds at the primes.

    It telescopes, H(q^mn) / H(q) = H(q^m) / H(q) * H(q^mn) / H(q^m), so
    it solves the law wherever every H(q) | H(q^p).  For H an irreducible
    factor over GF(l) of Phi_N, N prime to l, whose roots are a, a^l,
    a^(l^2), ..., that holds exactly when p is a power of l mod N."""
    return from_seeds(primes, {p: H.dilate(p).exact_div(H) for p in primes})


def test_sweep_work_is_the_law_row_pairs_plus_large_prime_pairs(monkeypatch):
    """Where every member but 1 is exceptional, verify_fe expands the law at
    every member pair (m, n) with mn <= B in rows m = 1 and m prime but
    (1, 1), and the commutation identity only at prime pairs with
    p1 p2 > B.  That is 17 identities on GF(7) S({7, 11, 83}) at B = 250,
    28 on GF(5) S({3, 5, 23}) and 27 on GF(5) S({3, 5, 47}) at B = 100,
    where the law sweep's composite rows would add 3, 15 and 14.  On
    S({3, 5, 47}) the commutation sweep leaves out (9, 47), a composite
    exceptional row's pair with a prime past B.

    The sequences are H(q^n) / H(q) (``frobenius_quotient_sequence``) for
    H = 6 + 5q^2 + q^3, a cubic factor of Phi_19 over GF(7) (7 has order 3
    mod 19, and 7, 11 and 83 are 1, 7 or 11 mod 19), and for
    H = 4 + q + q^2 + 4q^3 + 2q^4 + q^5, a quintic factor of Phi_11 over
    GF(5) (5 has order 5 mod 11, and 3, 5, 23 and 47 are powers of 5 mod
    11).  H is not all of Phi_N, so no value is a product of quantum
    integers, and no prime's value peels.  No member's value but f_1 is a
    monomial.  Law pairs with a non-member have two regular zeros.  Each
    bound leaves prime pairs with p1 p2 <= B, and law pairs in composite
    rows, whose expansion the count would show.  Values are built before
    counting."""
    GF5 = PrimeField(5)
    H7, H5 = Polynomial(GF7, [6, 0, 5, 1]), Polynomial(GF5, [4, 1, 1, 4, 2, 1])
    assert Polynomial(GF7, poly.cyclotomic_polynomial(19).coeffs).divmod(H7)[1].is_zero()
    assert Polynomial(GF5, poly.cyclotomic_polynomial(11).coeffs).divmod(H5)[1].is_zero()
    cases = [(frobenius_quotient_sequence(GF7, H7, [7, 11, 83]), 250, 17),
             (frobenius_quotient_sequence(GF5, H5, [3, 5, 23]), 100, 28),
             (frobenius_quotient_sequence(GF5, H5, [3, 5, 47]), 100, 27)]
    for F, B, expected in cases:
        for n in range(1, B + 1):
            F.eval(n)
        members = support_members(F.support, B)
        profile, _ = _profile(F, members, B)
        assert [n for n in members if n in profile] == [1]
        assert all(analyze._peel_exponents(F.eval(p), p) is None
                   for p in members if is_prime(p))
        calls = count_otimes(monkeypatch)
        assert verify_fe(F, B).ok
        rows = [m for m in members if m == 1 or is_prime(m)]
        law_pairs = sum(1 for m in rows for n in members if m * n <= B)
        assert law_pairs < sum(1 for m in members for n in members if m * n <= B)
        primes = [p for p in members if is_prime(p)]
        prime_pairs = [(p1, p2) for i, p1 in enumerate(primes)
                       for p2 in primes[i + 1:]]
        large_prime_pairs = sum(1 for p1, p2 in prime_pairs if p1 * p2 > B)
        assert large_prime_pairs < len(prime_pairs)
        assert calls[0] == law_pairs - 1 + 2 * large_prime_pairs == expected


def test_twist_by_a_small_residue_peels(monkeypatch):
    """[n]_{2q} over GF(7) on S({13, 19}) at B = 250: the term 2q of f_13
    first reads as the integer exponent 2, and [13]_q^2 has twice the
    degree of f_13.  2 has order 3, which divides 12, so the peel then
    tries the twist zeta = 2, and every member is regular.  Without that
    second reading no value but f_1 is regular and verify_fe expands 9
    identities; with it, none, and the report is the reference's."""
    F, B = zeta_scaled_sequence([13, 19], 2, GF7), 250
    for n in range(1, B + 1):
        F.eval(n)
    assert analyze._peel_exponents(F.eval(13), 13) == {1: (1, 2)}
    members = support_members(F.support, B)
    assert set(members) <= _profile(F, members, B)[0].keys()
    calls = count_otimes(monkeypatch)
    report = verify_fe(F, B)
    assert calls[0] == 0
    monkeypatch.undo()
    assert report.ok and report == reference_verify_fe(F, B)


def random_seed_sequence(ring, p, coeffs):
    """from_seeds on S({p}) with the seed sum_i coeffs[i] q^i.  A single
    seed commutes with itself, so any nonzero seed gives a solution."""
    return from_seeds([p], {p: Polynomial(ring, coeffs)})


def test_shapeless_seed_expands_only_rows_one_and_two(monkeypatch):
    """A random 200-term seed on S({2}) over Q at B = 64: no value but f_1
    is regular, so the law sweep expands rows 1 and 2 but (1, 1), 6 + 6
    identities, and the rows 4, 8, 16 and 32 of the 27 member pairs with
    mn <= 64 are left out.  With one prime there is no prime pair, and
    the commutation sweep expands nothing."""
    rng = random.Random(1964)
    F = random_seed_sequence(QQ, 2, [rng.choice((1, -1, 2, -3))
                                     for _ in range(200)])
    members = support_members(F.support, 64)
    for n in members:
        F.eval(n)
    assert [n for n in members if n in _profile(F, members, 64)[0]] == [1]
    sweeps = record_sweeps(monkeypatch)
    calls = count_otimes(monkeypatch)
    assert verify_fe(F, 64).ok
    law, commutation = sweeps
    assert law == [(1, n) for n in members[1:]] + [(2, n) for n in members[:-1]]
    assert commutation == []
    assert calls[0] == 12


def test_shaped_solution_costs_one_scalar_product_per_row_pair(monkeypatch):
    """[n]_q over Q(zeta_12) at B = 1000: every index is regular, so the
    sweeps multiply scalars only in ``times``.  The law sweep calls it once
    at each pair (m, n) with mn <= B in rows 1 and primes, and the
    commutation sweep, once the law holds, twice at each pair (2, p) of its
    anchor row 2 with a prime p > B/2; row 1 has no pair past B.  Every
    other K.mul call is the profile's: one, for the lowest term of f_2, whose
    peel divides by [2]_q through 1 - q^2 with no scalar product."""
    K, B = CyclotomicField(12), 1000
    F = quantum_sequence(K)
    members = support_members(F.support, B)
    for n in members:
        F.eval(n)
    calls = [0]
    real = K.mul

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(K, "mul", counted)
    _profile(F, members, B)
    profile_calls, calls[0] = calls[0], 0
    assert verify_fe(F, B).ok
    law_pairs = sum(B // m for m in members if m == 1 or is_prime(m))
    large_primes = sum(1 for p in members if is_prime(p) and 2 * p > B)
    assert calls[0] == profile_calls + law_pairs + 2 * large_primes == 3273


def gaussian_quantum(B):
    """[n]_{iq} over Q(i) on the primes = 1 mod 4 up to B, values built."""
    K = CyclotomicField(4)
    F = zeta_scaled_sequence([p for p in range(5, B + 1, 4) if is_prime(p)],
                             K.zeta, K)
    for n in range(1, B + 1):
        F.eval(n)
    return F


def record_sweeps(monkeypatch):
    """The pairs each sweep of verify_fe expands, one list per sweep."""
    sweeps = []
    real = analyze.first_failing_pair

    def recording(pairs, sides):
        seen = []
        sweeps.append(seen)
        return real((seen.append(pair) or pair for pair in pairs), sides)

    monkeypatch.setattr(analyze, "first_failing_pair", recording)
    return sweeps


def test_twisted_solution_expands_no_identity(monkeypatch):
    """f_5 = [5]_{iq} peels as the twisted shape {1: (1, i)}, and i^(p-1) = 1
    at every prime p = 1 mod 4, so every index is regular."""
    F = gaussian_quantum(200)
    calls = count_otimes(monkeypatch)
    assert verify_fe(F, 200).ok
    assert calls[0] == 0


def test_twisted_tampering_expands_only_pairs_at_five(monkeypatch):
    """With f_5 scaled by 3, 5 stays regular and only pairs that touch it
    are expanded: the law fails at (5, 5), whose monomials are (9, 0) and
    (1, 0), and the commutation rows of the anchors 1 and 5 agree."""
    F = scaled_at(gaussian_quantum(200), 5, 3)
    for n in range(1, 201):
        F.eval(n)
    sweeps = record_sweeps(monkeypatch)
    calls = count_otimes(monkeypatch)
    report = verify_fe(F, 200)
    assert (report.fe_ok, report.commutativity_ok, report.support_ok) == (
        False, True, True)
    assert (report.first_failure.m, report.first_failure.n) == (5, 5)
    law, commutation = sweeps
    assert law and all(5 in pair for pair in law + commutation)
    assert calls[0] == len(law) + 2 * len(commutation)


def test_inadmissible_twisted_shape_is_dropped():
    """[n]_{iq} declared on S({3, 5}) peels as {1: (1, i)} at f_3, but
    i^(3-1) = -1: kept, the shape would make 3 and 9 regular and skip the
    failing law pair (3, 3)."""
    K = CyclotomicField(4)
    F = FESequence(K, PrimeSet.of([3, 5]),
                   lambda n: scaled_quantum_integer(n, K.zeta, K), "iq-on-3-5")
    assert analyze._peel_exponents(F.eval(3), 3) == {1: (1, K.zeta)}
    members = support_members(F.support, 27)
    assert [n for n in members if n in _profile(F, members, 27)[0]] == [1]
    report = assert_matches_reference(F, 27)
    assert (report.first_failure.m, report.first_failure.n) == (3, 3)


def test_twisted_shape_keeps_non_members_exceptional():
    """[n]_{iq} at every n, declared on S({5, 13}).  i^(p-1) = 1 at 5 and
    13, so the shape is kept, but [4]_{iq} != [2]_{iq}(q) [2]_{iq}(q^2):
    the non-members 2 and 4 must not be read as regular."""
    K = CyclotomicField(4)
    F = FESequence(K, ALL_PRIMES,
                   lambda n: scaled_quantum_integer(n, K.zeta, K), "iq")
    report = assert_matches_reference(Misdeclared(F, PrimeSet.of([5, 13])), 30)
    assert (report.first_failure.m, report.first_failure.n) == (2, 2)


# Rings with roots of unity beyond -1, each with the largest bound the
# reference sweeps quickly on the sparse supports drawn below.
TWIST_RINGS = (
    (CyclotomicField(4), 70),
    (CyclotomicField(12), 40),
    (PrimeField(7), 60),
    (PrimeField(13), 60),
)


@st.composite
def twisted_sequences(draw, admissible=True):
    """(F, B): [n]_{zeta q} on S(P), for a root of unity zeta of the ring,
    with one to three primes P below 40.  Admissible ones are the
    solutions zeta_scaled_sequence builds; inadmissible ones declare the
    values directly, and some p in P has zeta^(p-1) != 1."""
    ring, max_bound = draw(st.sampled_from(TWIST_RINGS))
    if isinstance(ring, CyclotomicField):
        zeta = ring.pow(ring.zeta, draw(st.integers(1, ring.d - 1)))
    else:
        zeta = draw(st.integers(2, ring.p - 1))
    order = root_of_unity_order(ring, zeta)
    fits = [p for p in range(2, 40) if is_prime(p) and (p - 1) % order == 0]
    misfits = [p for p in range(2, 40) if is_prime(p) and (p - 1) % order]
    if admissible:
        P = draw(st.sets(st.sampled_from(fits), min_size=1, max_size=3))
        F = zeta_scaled_sequence(P, zeta, ring)
    else:
        P = (draw(st.sets(st.sampled_from(fits), max_size=2))
             | draw(st.sets(st.sampled_from(misfits), min_size=1, max_size=2)))
        F = FESequence(ring, PrimeSet.of(P),
                       lambda n: scaled_quantum_integer(n, zeta, ring),
                       "inadmissible")
    return F, draw(st.integers(max_bound // 2, max_bound))


@settings(max_examples=40, deadline=None)
@given(case=twisted_sequences())
def test_verify_matches_reference_on_twisted_solutions(case):
    assert assert_matches_reference(*case).ok


@settings(max_examples=40, deadline=None)
@given(case=twisted_sequences(), data=st.data())
def test_verify_matches_reference_on_twisted_scalar_tamperings(case, data):
    """One member's value f_c replaced by a q^k f_c."""
    F, B = case
    c = data.draw(st.sampled_from(support_members(F.support, B)))
    a = data.draw(nonzero_scalars(F.ring))
    assert_matches_reference(scaled_at(F, c, a, data.draw(st.integers(0, 3))), B)


@settings(max_examples=40, deadline=None)
@given(case=twisted_sequences(admissible=False))
def test_verify_matches_reference_on_inadmissible_twists(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize("make, expanded, failure", [
    (lambda: builtin_sequence("constant2"), 1, (1, 1)),
    (lambda: scaled_at(quantum_sequence(), 6, 3), 1, (2, 3)),
    (lambda: tampered(quantum_sequence(), 151, monomial(QQ, 1)), 4, (2, 151)),
    (lambda: tampered(quantum_sequence(), 199, monomial(QQ, 1)), 4, (2, 199)),
    (lambda: tampered(quantum_sequence(), 150, monomial(QQ, 1)), 6, (2, 75)),
], ids=["constant2", "f6-times-3", "f151-plus-q", "f199-plus-q", "f150-plus-q"])
def test_non_solutions_expand_only_the_pairs_at_an_exception(
        monkeypatch, make, expanded, failure):
    """At B = 200.  constant2 and 3 f_6 are regular everywhere: only the
    law pair where the scalars disagree, (1, 1) or (2, 3), is expanded.
    f_c + q makes c exceptional.  For a prime c the law holds, with (1, c)
    and (c, 1) expanded, and the first commutation pair touching c, (2, c),
    fails.  For c = 150 the law fails at (2, 75) after (1, 150), and the
    member pairs (1, 150) and (2, 150) are expanded, the second failing."""
    F = make()
    for n in range(1, 201):
        F.eval(n)
    calls = count_otimes(monkeypatch)
    report = verify_fe(F, 200)
    assert (report.first_failure.m, report.first_failure.n) == failure
    assert calls[0] == expanded


def test_commutation_rows_after_a_law_failure(monkeypatch):
    """After a law failure the commutation sweep visits the rows of the
    first two regular members and of every exceptional member, and no
    other pair.

    3 f_6 fails the law at (2, 3) and is regular; f_7 = 0 on the support is
    exceptional and commutes with everything, so the sweep runs to the end.
    It expands (1, 7) and (2, 7) in the anchor rows and all of 7's row, and
    leaves out (m, 7) for the regular members 3 <= m <= 6."""
    B = 20
    F = scaled_at(scaled_at(quantum_sequence(), 6, 3), 7, 0)
    for n in range(1, B + 1):
        F.eval(n)
    sweeps = record_sweeps(monkeypatch)
    calls = count_otimes(monkeypatch)
    report = verify_fe(F, B)
    assert not report.fe_ok and report.commutativity_ok and not report.support_ok
    assert (report.first_failure.m, report.first_failure.n) == (2, 3)
    law, commutation = sweeps
    assert law == [(1, 7), (2, 3)]
    assert commutation == [(1, 7), (2, 7)] + [(7, n) for n in range(8, B + 1)]
    assert calls[0] == len(law) + 2 * len(commutation)
    assert report == assert_matches_reference(F, B)


@pytest.mark.parametrize("delta", ["plus-q", "zero"])
def test_law_holding_commutation_sweep_stays_in_the_anchor_and_exceptional_rows(
        monkeypatch, delta):
    """[n]_q at B = 100 with f_53 and f_97 moved: by q, or to 0.  Either
    way the law holds, as 53 and 97 > B/2 enter only the law pairs (1, p)
    and (p, 1), and 53 and 97 are exceptional.  The commutation sweep
    takes prime pairs past B in the anchor rows 1 and 2 and in rows 53 and
    97, and expands those that touch 53 or 97.  f_p + q fails at (2, 53).
    f_p = 0 commutes with everything, so the sweep runs to its end, and it
    leaves out the pairs (p, 53) and (p, 97) of the regular primes
    3 <= p < 53, where the prime-pair sweep alone would expand them."""
    B, tampered_primes = 100, (53, 97)
    F = quantum_sequence()
    for c in tampered_primes:
        F = tampered(F, c, monomial(QQ, 1) if delta == "plus-q" else -F.eval(c))
    for n in range(1, B + 1):
        F.eval(n)
    sweeps = record_sweeps(monkeypatch)
    report = verify_fe(F, B)
    law, commutation = sweeps
    assert report.fe_ok
    assert sorted(law) == [(1, 53), (1, 97), (53, 1), (97, 1)]
    assert all(m in (2,) + tampered_primes for m, _ in commutation)
    if delta == "plus-q":
        assert commutation == [(2, 53)]
        assert (report.first_failure.m, report.first_failure.n) == (2, 53)
    else:
        assert report.commutativity_ok and not report.support_ok
        assert commutation == [(2, 53), (2, 97)] + [
            (53, p) for p in range(54, B + 1) if is_prime(p)]
    assert report == assert_matches_reference(F, B)


SHAPELESS_RINGS = (QQ, PrimeField(7), CyclotomicField(3))


@st.composite
def shapeless_seed_solutions(draw):
    """(F, B): from_seeds on one prime p with a seed of random
    coefficients, B <= 32 and p^2 <= B, so a composite member exists.
    Most such seeds peel to nothing, so every member but 1 is exceptional
    and every law pair but (1, 1) is decided by expansion."""
    ring = draw(st.sampled_from(SHAPELESS_RINGS))
    p = draw(st.sampled_from((2, 3, 5)))
    coeff = st.one_of(st.just(ring.zero), nonzero_scalars(ring))
    coeffs = draw(st.lists(coeff, min_size=1, max_size=6))
    F = random_seed_sequence(ring, p, coeffs + [draw(nonzero_scalars(ring))])
    return F, draw(st.integers(p * p, 32))


@settings(max_examples=40, deadline=None)
@given(case=shapeless_seed_solutions())
def test_verify_matches_reference_on_shapeless_seeds(case):
    assert assert_matches_reference(*case).ok


@settings(max_examples=60, deadline=None)
@given(case=shapeless_seed_solutions(), data=st.data())
def test_verify_matches_reference_on_tampered_shapeless_seeds(case, data):
    """One value moved by a nonzero monomial, at f_1, at the prime p or at
    a composite member p^k <= B."""
    F, B = case
    members = support_members(F.support, B)
    c = {"one": 1, "prime": members[1],
         "composite": data.draw(st.sampled_from(members[2:]))}[
        data.draw(st.sampled_from(("one", "prime", "composite")))]
    k = data.draw(st.integers(0, 4))
    delta = monomial(F.ring, k, data.draw(nonzero_scalars(F.ring)))
    assert_matches_reference(tampered(F, c, delta), B)
