from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (ALL_PRIMES, QQ, CyclotomicField, DecompositionError,
                 PrimeField, DeltaInconsistencyError, FESequence, PrimeSet,
                 additive_law_holds, additive_sequence, assemble,
                 check_quantum_forced, decompose, from_rationals,
                 monomial, infer_degree_t, is_prime, monomial_sequence,
                 quantum_integer, quantum_sequence, solve_delta,
                 support_members, uniqueness_oracle, verify_fe,
                 zeta_admissibility, zeta_scaled_sequence)
from qfe.analyze import _forced_coefficients
from qfe.cli import builtin_sequence
from qfe.sequences import oplus, otimes
from qfe.poly import Polynomial, constant, one, zero
from qfe.semigroup import ALL_PRIMES, enumerate_semigroup, omega, seed_gcd
from qfe.sequences import ZetaAdmissibilityError


def override(F, replacements):
    """A copy of F with some values replaced; for tampering tests."""
    def rule(n):
        return replacements.get(n, F.eval(n))
    return FESequence(F.ring, F.support, rule, f"tampered({F.name})")


def test_verify_fe_quantum():
    report = verify_fe(quantum_sequence(), 16)
    assert report.fe_ok and report.commutativity_ok and report.support_ok
    assert report.first_failure is None
    with pytest.raises(ValueError, match=r"^bound must be >= 2, got 1$"):
        verify_fe(quantum_sequence(), 1)


def test_verify_fe_footnote_constant_two():
    report = verify_fe(builtin_sequence("constant2"), 20)
    assert report.commutativity_ok
    assert not report.fe_ok
    fail = report.first_failure
    assert (fail.m, fail.n) == (1, 1)
    assert fail.lhs == constant(QQ, 2)
    assert fail.rhs == constant(QQ, 4)


def test_verify_fe_detects_tampering():
    bad = override(quantum_sequence(), {4: from_rationals([1, 1, 1, 0, 1])})
    report = verify_fe(bad, 16)
    assert not report.fe_ok
    assert (report.first_failure.m, report.first_failure.n) == (2, 2)
    assert report.first_failure.rhs == quantum_integer(4)


def test_verify_fe_detects_support_violation():
    # A zero slipped onto the declared support breaks the support law.
    bad = override(quantum_sequence(), {5: from_rationals([])})
    report = verify_fe(bad, 10)
    assert not report.support_ok


def test_solve_delta_examples():
    assert solve_delta({n: n - 1 for n in range(1, 20)}) == 1
    assert solve_delta({7**k: (7**k - 1) // 3 for k in range(3)}) == Fraction(1, 3)
    assert solve_delta({1: 0, 3: 0, 9: 0}) == 0
    with pytest.raises(DeltaInconsistencyError) as err:
        solve_delta({2: 1, 3: 7})
    assert err.value.witness == (2, 1, 3, 7)
    with pytest.raises(ValueError):
        solve_delta({1: 0})
    with pytest.raises(DeltaInconsistencyError):
        solve_delta({1: 2, 2: 1})


def test_solve_delta_rejects_multiplicative_law_violations():
    # delta(mn) = delta(m) + m delta(n) fails on (2, 3, 6) here, and no
    # single slope can fit the table.
    with pytest.raises(DeltaInconsistencyError):
        solve_delta({2: 1, 3: 2, 6: 11})


def test_infer_degree_t_examples(seq_257):
    assert infer_degree_t(monomial_sequence(), 40) == 1
    assert infer_degree_t(quantum_sequence(), 40) == 1
    assert infer_degree_t(seq_257, 100) == 2
    hole = override(quantum_sequence(), {4: zero(QQ)})
    with pytest.raises(ValueError, match=r"^f_4 is zero on the declared support$"):
        infer_degree_t(hole, 12)


def test_decompose_quantum():
    F = quantum_sequence()
    dec = decompose(F, 60)
    assert dec.t == 0
    assert all(v == 1 for v in dec.lam.values())
    assert all(dec.G.eval(n) == F.eval(n) for n in range(1, 61))


def test_decompose_monomial():
    dec = decompose(monomial_sequence(), 60)
    assert dec.t == 1
    assert all(v == 1 for v in dec.lam.values())
    assert all(dec.G.eval(n) == one(QQ) for n in range(1, 61))
    assert dec.delta[7] == 6


def test_decompose_scaled_shifted_quantum():
    F = assemble(1, {p: p for p in range(2, 41) if is_prime(p)},
                 quantum_sequence())
    assert verify_fe(F, 20).ok
    dec = decompose(F, 40)
    assert dec.t == 1
    assert dec.lam[6] == 6
    assert all(dec.G.eval(n) == quantum_integer(n) for n in range(1, 41))


def test_decompose_rejects_non_solutions():
    with pytest.raises(DecompositionError):
        decompose(builtin_sequence("constant2"), 12)
    bad = override(monomial_sequence(), {4: monomial(QQ, 5)})
    with pytest.raises(DecompositionError):
        decompose(bad, 12)
    hole = override(quantum_sequence(), {4: zero(QQ)})
    with pytest.raises(DecompositionError,
                       match=r"^f_4 is zero on the declared support$"):
        decompose(hole, 12)


def pairwise_multiplicative(lam, ring) -> bool:
    """The check decompose made before it checked each member against its
    factorization: lambda(mn) = lambda(m) lambda(n) for every pair of
    tabulated m <= n with mn tabulated."""
    members = sorted(lam)
    return all(lam[m * n] == ring.mul(lam[m], lam[n])
               for i, m in enumerate(members) for n in members[i:]
               if m * n in lam)


@settings(max_examples=60)
@given(ring=st.sampled_from([QQ, PrimeField(7), CyclotomicField(4)]),
       primes=st.lists(st.sampled_from((2, 3, 5)), min_size=1, unique=True),
       at=st.lists(st.sampled_from((1, -1, 2, 3)), min_size=3, max_size=3),
       c=st.sampled_from((1, -1, 2)), every=st.booleans(), data=st.data())
def test_decompose_refuses_exactly_what_the_pairwise_check_refused(
        ring, primes, at, c, every, data):
    # A solution with one member's trailing coefficient scaled by c, or
    # every member n's by c^Omega(n), which keeps lambda multiplicative.
    P = PrimeSet.of(primes)
    F = assemble(1, {p: x for p, x in zip(P.primes, at)},
                 quantum_sequence(ring, P))
    bound = 40
    members = support_members(P, bound)
    target = data.draw(st.sampled_from(members))
    c = ring.normalize(c)

    def scaled(n):
        cs = list(F.eval(n).coeffs)
        v = F.eval(n).valuation()
        cs[v] = ring.mul(ring.pow(c, omega(n) if every else int(n == target)), cs[v])
        return Polynomial(ring, cs)
    G = FESequence(ring, P, scaled, "scaled")
    lam = {n: G.eval(n).coefficient(G.eval(n).valuation()) for n in members}
    try:
        decompose(G, bound)
    except DecompositionError as exc:
        assert not pairwise_multiplicative(lam, ring)
        assert "not completely multiplicative" in str(exc)
    else:
        assert pairwise_multiplicative(lam, ring)


@pytest.mark.parametrize("build, bound", [
    (lambda s: quantum_sequence(), 100),
    (lambda s: monomial_sequence(), 100),
    (lambda s: assemble(1, {p: p for p in range(2, 61) if is_prime(p)},
                        quantum_sequence()), 60),
    (lambda s: s, 200),
])
def test_decomposition_round_trip(build, bound, seq_257):
    F = build(seq_257)
    dec = decompose(F, bound)
    rebuilt = assemble(dec.t, dec.lam, dec.G)
    for n in support_members(F.support, bound):
        assert rebuilt.eval(n) == F.eval(n)
        assert dec.G.eval(n).constant_term == QQ.one


def test_check_quantum_forced_confirms_quantum():
    report = check_quantum_forced(quantum_sequence(), 48)
    assert report.confirmed
    assert report.failed_hypothesis is None


@pytest.mark.parametrize("support", [ALL_PRIMES, PrimeSet.of([2, 3])], ids=str)
@pytest.mark.parametrize("bound", [0, -1])
def test_a_bound_below_one_is_refused_on_every_support(support, bound):
    # An empty sweep would confirm the conclusion vacuously.
    message = rf"^bound must be >= 1, got {bound}$"
    with pytest.raises(ValueError, match=message):
        support_members(support, bound)
    with pytest.raises(ValueError, match=message):
        check_quantum_forced(quantum_sequence(QQ, support), bound)


def test_check_quantum_forced_reports_hypothesis_failures(seq_257):
    report = check_quantum_forced(monomial_sequence(), 20)
    assert not report.confirmed
    assert report.failed_hypothesis == "constant term is not 1"
    assert report.witness == 2

    report = check_quantum_forced(seq_257, 20)
    assert not report.confirmed
    assert report.failed_hypothesis == "degree is not n-1"
    assert report.witness == 2

    # The hypotheses hold but the conclusion does not: (1 + q)^2 has degree
    # 2 and constant term 1, and is not [3]_q.
    F = override(quantum_sequence(), {3: from_rationals([1, 2, 1])})
    report = check_quantum_forced(F, 10)
    assert (report.confirmed, report.failed_hypothesis, report.witness) == (
        False, "conclusion fails", 3)

    no_two = check_quantum_forced(quantum_sequence(QQ, PrimeSet.of([3])), 20)
    assert not no_two.confirmed
    assert no_two.failed_hypothesis == "support does not contain 2"

    no_odd = check_quantum_forced(quantum_sequence(QQ, PrimeSet.of([2])), 20)
    assert not no_odd.confirmed
    assert no_odd.failed_hypothesis == "support has no odd member greater than 1"

    # The support hypotheses are properties of P, not of the members <= bound.
    for support, bound in ((PrimeSet.of([2, 7]), 6), (ALL_PRIMES, 2),
                           (ALL_PRIMES, 1)):
        report = check_quantum_forced(quantum_sequence(QQ, support), bound)
        assert (report.confirmed, report.failed_hypothesis) == (True, None)


def test_uniqueness_oracle_small_cases():
    fams = uniqueness_oracle(3)
    assert len(fams) == 1 and fams[0].a == 1
    assert fams[0].polynomials[3] == quantum_integer(3)
    fams = uniqueness_oracle(5)
    assert fams[0].polynomials[5] == quantum_integer(5)
    with pytest.raises(ValueError):
        uniqueness_oracle(2)


@pytest.mark.parametrize("N", range(3, 16))
def test_uniqueness_oracle_is_a_singleton(N):
    fams = uniqueness_oracle(N)
    assert len(fams) == 1
    fam = fams[0]
    assert fam.a == 1
    for n in range(1, N + 1):
        assert fam.polynomials[n] == quantum_integer(n)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from(range(1, 26, 2)),
       a=st.fractions(-6, 6, max_denominator=9).filter(bool))
def test_forced_coefficients_are_the_identity_degree_by_degree(n, a):
    # Expand f_n(q) f_2(q^n) - f_2(q) f_n(q^2) independently: it must vanish
    # below degree n, equal diffs from n to 2n - 1, and stop there.
    b, diffs = _forced_coefficients(n, a, QQ.one)
    assert len(b) == n
    fn, f2 = from_rationals(b), from_rationals([1, a])
    gap = otimes(fn, f2, n) - otimes(f2, fn, 2)
    assert [gap.coefficient(k) for k in range(2 * n)] == [0] * n + diffs
    assert gap.degree is None or gap.degree < 2 * n
    # The symbolic run, with a as the unknown of Q[a], agrees at this a.
    sym_b, sym_diffs = _forced_coefficients(n, monomial(QQ, 1), one(QQ))
    assert [c.evaluate(a) for c in sym_b] == b
    assert [c.evaluate(a) for c in sym_diffs] == diffs


def test_zeta_admissibility_cases():
    ok = zeta_admissibility([3], -1, QQ, 1000)
    assert ok.admissible and ok.d == 2 and ok.counterexample is None
    bad = zeta_admissibility([2], -1, QQ, 1000)
    assert not bad.admissible and bad.d == 1 and bad.counterexample == 2
    assert zeta_admissibility([2, 5, 7], 1, QQ, 1000).admissible
    K4 = CyclotomicField(4)
    assert zeta_admissibility([5, 13], K4.zeta, K4, 1000).admissible
    K3 = CyclotomicField(3)
    report = zeta_admissibility([5], K3.zeta, K3, 1000)
    assert not report.admissible and report.counterexample == 5
    with pytest.raises(ValueError):
        zeta_admissibility([3], 0, QQ, 100)


@pytest.mark.parametrize("bound, counterexample", [(1000, None), (1019, 1019)])
def test_zeta_admissibility_witness_above_the_bound(bound, counterexample):
    # i^(5-1) = 1 but i^(1019-1) = -1: the only witness is the prime 1019,
    # so a scan to 1000 finds none while the algebraic verdict is still no.
    K4 = CyclotomicField(4)
    report = zeta_admissibility([5, 1019], K4.zeta, K4, bound)
    assert not report.admissible and report.d == 2
    assert report.counterexample == counterexample


def test_zeta_admissibility_matches_direct_power_check():
    # Independent exhaustive re-check of the agreed verdict.
    from qfe import enumerate_semigroup
    cases = [([3], -1, QQ), ([7], -1, QQ), ([5, 13], -1, QQ)]
    for primes, zeta, ring in cases:
        report = zeta_admissibility(primes, zeta, ring, 500)
        brute = all(ring.pow(ring.normalize(zeta), m - 1) == ring.one
                    for m in enumerate_semigroup(PrimeSet.of(primes), 500))
        assert report.admissible == brute


def first_failing_member(primes, zeta, ring, bound):
    """The least member m <= bound of S(primes) with zeta**(m-1) != 1, by
    scanning the members: the oracle for zeta_admissibility's witness."""
    return next((m for m in enumerate_semigroup(PrimeSet.of(primes), bound)
                 if ring.pow(zeta, m - 1) != ring.one), None)


@st.composite
def scalings(draw):
    """(ring, zeta): roots of unity and non-roots over Q, Q(zeta_4),
    Q(zeta_12) and GF(13)."""
    ring = draw(st.sampled_from((QQ, CyclotomicField(4), CyclotomicField(12),
                                 PrimeField(13))))
    if isinstance(ring, CyclotomicField):
        root = ring.pow(ring.zeta, draw(st.integers(0, ring.d - 1)))
        return ring, ring.mul(root, ring.normalize(draw(st.sampled_from((1, -1, 2)))))
    if ring is QQ:
        return ring, draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
    return ring, draw(st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(scaling=scalings(),
       primes=st.sets(st.sampled_from((2, 3, 5, 7, 13, 37, 61, 1019)),
                      min_size=1, max_size=3),
       bound=st.integers(1, 1100))
def test_zeta_admissibility_matches_the_member_scan(scaling, primes, bound):
    """The verdict is zeta**d = 1 for d = gcd{p-1}, the witness is the first
    failing member <= bound, and zeta_scaled_sequence refuses exactly the
    inadmissible zeta."""
    ring, zeta = scaling
    report = zeta_admissibility(primes, zeta, ring, bound)
    z = ring.normalize(zeta)
    assert report.d == seed_gcd(PrimeSet.of(primes))
    assert report.admissible == (ring.pow(z, report.d) == ring.one)
    assert report.counterexample == first_failing_member(primes, z, ring, bound)
    try:
        zeta_scaled_sequence(primes, zeta, ring)
        refused = False
    except ZetaAdmissibilityError as exc:
        refused = exc.d == report.d
    assert refused == (not report.admissible)


@settings(max_examples=60, deadline=None)
@given(h=st.lists(st.integers(-3, 3), max_size=4),
       c=st.integers(1, 62), k=st.integers(0, 64),
       coef=st.sampled_from((1, -1, 2, Fraction(1, 2))),
       bound=st.integers(1, 60))
def test_additive_law_holds_matches_all_pairs(h, c, k, coef, bound):
    """The generator-pair check agrees with the law at every pair m + n <=
    bound, on h(q) [n]_q with f_c moved by a monomial (a solution when c is
    past the bound)."""
    F = additive_sequence(from_rationals(h))
    delta = monomial(QQ, k, coef)

    def value(n):
        return F.eval(n) + delta if n == c else F.eval(n)
    all_pairs = all(value(m + n) == oplus(value(m), value(n), m)
                    for m in range(1, bound) for n in range(1, bound - m + 1))
    assert additive_law_holds(value, bound) == all_pairs
