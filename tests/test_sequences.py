from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (ALL_PRIMES, QQ, CommutativityError, CyclotomicField,
                 PrimeField, PrimeSet, PsiIdentityError,
                 ZetaAdmissibilityError, additive_sequence, assemble,
                 check_seed_commutativity, dilate_sequence,
                 enumerate_semigroup, exact_quotient_sequence, from_rationals,
                 from_seeds, identity_sequence, is_prime, monomial_sequence,
                 oplus, otimes, product_sequence, psi_substitute_sequence,
                 quantum_integer, quantum_sequence, rational_quotient,
                 reciprocal_sequence, scaled_quantum_integer, verify_fe,
                 zeta_scaled_sequence)
from qfe.poly import Polynomial, monomial, one, zero


def test_otimes_examples():
    assert otimes(quantum_integer(2), quantum_integer(3), 2) == quantum_integer(6)
    assert otimes(monomial(QQ, 1), monomial(QQ, 2), 2) == monomial(QQ, 5)
    f = from_rationals([3, 1, 4])
    assert otimes(one(QQ), f, 1) == f


def test_oplus_examples():
    assert oplus(quantum_integer(2), quantum_integer(3), 2) == quantum_integer(5)
    f = from_rationals([2, 7])
    assert oplus(f, zero(QQ), 3) == f
    h = from_rationals([1, 1])
    assert oplus(h, h, 1) == from_rationals([1, 2, 1])


def test_quantum_sequence_values():
    F = quantum_sequence()
    assert F.eval(6) == quantum_integer(6)
    assert F.eval(1) == one(QQ)
    G = quantum_sequence(QQ, PrimeSet.of([2, 5, 7]))
    assert G.eval(3).is_zero()
    assert G.eval(10) == quantum_integer(10)


def test_monomial_sequence_values():
    F = monomial_sequence()
    assert F.eval(1) == one(QQ)
    assert F.eval(4) == monomial(QQ, 3)
    assert otimes(F.eval(2), F.eval(3), 2) == F.eval(6)


def test_identity_sequence_values():
    F = identity_sequence(QQ, PrimeSet.of([2]))
    assert F.eval(1) == one(QQ)
    assert F.eval(3).is_zero()
    quant = quantum_sequence(QQ, PrimeSet.of([2]))
    prod = product_sequence(identity_sequence(QQ, PrimeSet.of([2])), quant)
    assert all(prod.eval(n) == quant.eval(n) for n in range(1, 33))


def test_seed_commutativity_pass_and_fail(seeds_257):
    assert check_seed_commutativity(seeds_257) is None
    assert check_seed_commutativity({3: from_rationals([1, 2, 3])}) is None
    bad = {2: from_rationals([1, 1]), 3: from_rationals([1, 1, 2])}
    failure = check_seed_commutativity(bad)
    assert failure is not None
    assert (failure.p1, failure.p2) == (2, 3)
    assert failure.lhs == from_rationals([1, 1, 1, 1, 2, 2])
    assert failure.rhs == from_rationals([1, 1, 2, 1, 1, 2])
    with pytest.raises(ValueError):
        check_seed_commutativity({4: from_rationals([1, 1])})
    with pytest.raises(ValueError):
        check_seed_commutativity({2: zero(QQ)})


def test_from_seeds_rejects_bad_input():
    with pytest.raises(CommutativityError) as err:
        from_seeds([2, 3], {2: from_rationals([1, 1]),
                            3: from_rationals([1, 1, 2])})
    assert err.value.failure.p1 == 2
    with pytest.raises(ValueError):
        from_seeds([2, 3], {2: from_rationals([1, 1])})
    with pytest.raises(ValueError):
        from_seeds(ALL_PRIMES, {})


def test_from_seeds_empty_prime_set():
    F = from_seeds([], {})
    assert F.eval(1) == one(QQ)
    assert all(F.eval(n).is_zero() for n in range(2, 10))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_from_seeds_single_quantum_seed(p):
    F = from_seeds([p], {p: quantum_integer(p)})
    assert F.eval(p * p) == quantum_integer(p * p)
    assert F.eval(p**3) == quantum_integer(p**3)


def test_from_seeds_257_values(seq_257):
    f10 = seq_257.eval(10)
    assert f10.degree == 18
    assert f10 == quantum_integer(10).dilate(3).exact_div(quantum_integer(10))
    assert seq_257.eval(3).is_zero()
    assert seq_257.eval(1) == one(QQ)


def test_from_seeds_is_split_order_independent(seeds_257):
    # Independent oracle: recompute f_n by splitting off the SMALLEST prime
    # power first instead of the largest-last rule the library fixes.
    P = PrimeSet.of([2, 5, 7])
    F = from_seeds(P, seeds_257)

    def small_first(n):
        if n == 1:
            return one(QQ)
        from qfe import factorize
        p, a = factorize(n).factors[0]
        if p**a == n:
            if a == 1:
                return seeds_257[p]
            return otimes(seeds_257[p], small_first(p**(a - 1)), p)
        rest = n // p**a
        return otimes(small_first(p**a), small_first(rest), p**a)

    for n in enumerate_semigroup(P, 150):
        assert F.eval(n) == small_first(n)

    # Evaluation order does not change values either.
    cold = from_seeds(P, seeds_257)
    warm = from_seeds(P, seeds_257)
    for n in enumerate_semigroup(P, 100):
        warm.eval(n)
    for n in reversed(enumerate_semigroup(P, 100)):
        assert cold.eval(n) == warm.eval(n)


def test_memoization_returns_identical_values(seq_257):
    assert seq_257.eval(50) is seq_257.eval(50)


def test_zeta_scaled_sequence_accepts_admissible_scaling():
    F = zeta_scaled_sequence([3], -1)
    f3 = F.eval(3)
    assert f3 == from_rationals([1, -1, 1])
    expected_f9 = from_rationals([(-1)**k for k in range(9)])
    assert otimes(f3, f3, 3) == expected_f9
    assert F.eval(9) == expected_f9


def test_zeta_scaled_sequence_with_one_is_quantum():
    F = zeta_scaled_sequence([2, 5, 7], 1)
    G = quantum_sequence(QQ, PrimeSet.of([2, 5, 7]))
    assert all(F.eval(n) == G.eval(n) for n in range(1, 60))


def test_zeta_scaled_sequence_refuses_inadmissible_scaling():
    with pytest.raises(ZetaAdmissibilityError):
        zeta_scaled_sequence([2], -1)
    # the refusal is honest: the scaled values really fail the law
    f2 = scaled_quantum_integer(2, -1)
    assert otimes(f2, f2, 2) == from_rationals([1, -1, -1, 1])
    assert scaled_quantum_integer(4, -1) == from_rationals([1, -1, 1, -1])
    with pytest.raises(ValueError):
        zeta_scaled_sequence([3], 0)


def test_zeta_scaled_sequence_over_cyclotomic_ring():
    K = CyclotomicField(4)
    F = zeta_scaled_sequence([5, 13], K.zeta, K)
    assert verify_fe(F, 65).ok


def test_dilate_sequence_values():
    F = dilate_sequence(quantum_sequence(), 3)
    assert F.eval(4) == quantum_integer(4).dilate(3)
    base = monomial_sequence()
    assert dilate_sequence(base, 2).eval(3) == monomial(QQ, 4)
    same = dilate_sequence(base, 1)
    assert all(same.eval(n) == base.eval(n) for n in range(1, 20))
    with pytest.raises(ValueError):
        dilate_sequence(base, 0)


def test_psi_substitute_matches_dilate_for_monomials():
    F = quantum_sequence(QQ, PrimeSet.of([2, 3]))
    sub = psi_substitute_sequence(F, monomial(QQ, 2))
    dil = dilate_sequence(F, 2)
    assert all(sub.eval(n) == dil.eval(n) for n in range(1, 33))


def test_psi_substitute_frobenius_over_gf2():
    F2 = PrimeField(2)
    base = quantum_sequence(F2, PrimeSet.of([2]))
    psi = Polynomial(F2, [1, 1, 0, 1])
    F = psi_substitute_sequence(base, psi)
    assert verify_fe(F, 32).ok


def test_psi_substitute_zeta_matches_scaled_sequence():
    K = CyclotomicField(2)
    psi = Polynomial(K, [K.zero, K.zeta])  # psi = -q
    base = quantum_sequence(K, PrimeSet.of([3]))
    sub = psi_substitute_sequence(base, psi)
    scaled = zeta_scaled_sequence([3], K.zeta, K)
    assert all(sub.eval(n) == scaled.eval(n) for n in range(1, 28))


def test_psi_substitute_rejects_bad_psi():
    base = quantum_sequence(QQ, PrimeSet.of([2]))
    with pytest.raises(PsiIdentityError) as err:
        psi_substitute_sequence(base, from_rationals([1, 1]))
    assert err.value.p == 2
    assert err.value.lhs == from_rationals([1, 2, 1])
    assert err.value.rhs == from_rationals([1, 0, 1])
    with pytest.raises(ValueError):
        psi_substitute_sequence(quantum_sequence(), from_rationals([1, 1]))
    ok = psi_substitute_sequence(quantum_sequence(), monomial(QQ, 3))
    assert ok.eval(2) == quantum_integer(2).dilate(3)


def test_reciprocal_sequence_values(seq_257):
    mono = reciprocal_sequence(monomial_sequence())
    ident = identity_sequence()
    assert all(mono.eval(n) == ident.eval(n) for n in range(1, 50))
    quant = reciprocal_sequence(quantum_sequence())
    assert all(quant.eval(n) == quantum_integer(n) for n in range(1, 50))
    twice = reciprocal_sequence(reciprocal_sequence(seq_257))
    for n in enumerate_semigroup(seq_257.support, 100):
        assert twice.eval(n) == seq_257.eval(n)


def test_product_sequence_values():
    F = quantum_sequence()
    sq = product_sequence(F, F)
    assert sq.eval(3) == from_rationals([1, 2, 3, 2, 1])
    assert verify_fe(sq, 24).ok
    mono_quant = product_sequence(monomial_sequence(), quantum_sequence())
    assert all(mono_quant.eval(n) == quantum_integer(n).shift(n - 1)
               for n in range(1, 30))
    with pytest.raises(ValueError):
        product_sequence(F, quantum_sequence(QQ, PrimeSet.of([2])))
    with pytest.raises(ValueError):
        product_sequence(F, quantum_sequence(PrimeField(3)))


def test_exact_quotient_recovers_cofactor():
    P = PrimeSet.of([2, 3])
    F = quantum_sequence(QQ, P)
    G = monomial_sequence(QQ, P)
    FG = product_sequence(F, G)
    back = exact_quotient_sequence(FG, F)
    assert all(back.eval(n) == G.eval(n) for n in range(1, 50))


def test_rational_quotient_group_laws():
    P = PrimeSet.of([2])
    F = quantum_sequence(QQ, P)
    G = monomial_sequence(QQ, P)
    ident = identity_sequence(QQ, P)
    assert rational_quotient(F, F).equals(rational_quotient(ident, ident), 64)
    H = quantum_sequence(QQ, P)
    lhs = rational_quotient(product_sequence(F, H), product_sequence(G, H))
    rhs = rational_quotient(F, G)
    assert lhs.equals(rhs, 64)
    num, den = rational_quotient(F, G).value(2)
    assert (num, den) == (from_rationals([1, 1]), monomial(QQ, 1))
    inv = rational_quotient(F, G).inverse()
    assert inv.value(2) == (monomial(QQ, 1), from_rationals([1, 1]))
    with pytest.raises(ValueError):
        rational_quotient(quantum_sequence(), monomial_sequence())


def test_rational_quotient_multiplication_and_inverse():
    P = PrimeSet.of([2, 3])
    F = quantum_sequence(QQ, P)
    G = monomial_sequence(QQ, P)
    ident = identity_sequence(QQ, P)
    unit = rational_quotient(ident, ident)
    ratio = rational_quotient(F, G)
    assert (ratio * ratio.inverse()).equals(unit, 60)
    assert (ratio * unit).equals(ratio, 60)


def test_rational_quotient_value_off_support():
    P = PrimeSet.of([2])
    ratio = rational_quotient(quantum_sequence(QQ, P), monomial_sequence(QQ, P))
    assert ratio.value(3) == (zero(QQ), one(QQ))


def test_assemble_monomial_times_quantum():
    F = assemble(1, {p: 1 for p in range(2, 21) if is_prime(p)},
                 quantum_sequence())
    assert all(F.eval(n) == quantum_integer(n).shift(n - 1) for n in range(1, 21))
    assert verify_fe(F, 20).ok


def test_assemble_identity_cases(seq_257):
    same = assemble(0, {2: 1, 5: 1, 7: 1}, seq_257)
    for n in (1, 2, 10, 50):
        assert same.eval(n) == seq_257.eval(n)


def test_assemble_fractional_exponent():
    base = identity_sequence(QQ, PrimeSet.of([7]))
    F = assemble(Fraction(1, 3), {1: 1, 7: 1}, base)
    for k in range(0, 5):
        assert F.eval(7**k) == monomial(QQ, (7**k - 1) // 3)


def test_assemble_rejects_bad_data():
    base = quantum_sequence()
    with pytest.raises(ValueError):
        assemble(Fraction(1, 3), {1: 1}, base).eval(2)  # t(n-1) = 1/3
    with pytest.raises(ValueError):
        assemble(1, {1: 1, 2: 2, 3: 3, 6: 5}, base)  # not multiplicative
    with pytest.raises(ValueError):
        assemble(1, {1: 1, 2: 0}, base)  # zero on support
    with pytest.raises(ValueError):
        assemble(-1, {1: 1}, base)
    with pytest.raises(ValueError):
        assemble(1, {1: 1}, base).eval(6)  # no lambda value for 2, 3
    with pytest.raises(TypeError):
        assemble(1, lambda n: 1, base)  # lambda is a table, not a callable


def test_additive_sequence_examples():
    ones = additive_sequence(one(QQ))
    assert all(ones.eval(n) == quantum_integer(n) for n in range(1, 30))
    nothing = additive_sequence(zero(QQ))
    assert nothing.eval(5).is_zero()
    h = from_rationals([1, 1])
    F = additive_sequence(h)
    assert F.eval(2) == from_rationals([1, 2, 1])
    assert F.eval(2) == oplus(F.eval(1), F.eval(1), 1)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40))
def test_additive_law_for_scaled_sequences(m, n):
    for h in (one(QQ), from_rationals([1, 1]), from_rationals([3, 0, -1])):
        F = additive_sequence(h)
        assert F.eval(m + n) == oplus(F.eval(m), F.eval(n), m)


@pytest.mark.parametrize("make", [
    lambda: quantum_sequence(),
    lambda: monomial_sequence(),
    lambda: identity_sequence(),
    lambda: quantum_sequence(QQ, PrimeSet.of([2, 3])),
    lambda: dilate_sequence(quantum_sequence(), 2),
    lambda: zeta_scaled_sequence([3], -1),
])
def test_builders_satisfy_the_functional_equation(make):
    report = verify_fe(make(), 32)
    assert report.fe_ok and report.commutativity_ok and report.support_ok


def test_eval_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        quantum_sequence().eval(0)


def test_commutation_identity_holds_pairwise(seq_257):
    # f_m(q) f_n(q^m) = f_n(q) f_m(q^n), including off-support indices.
    for m in range(1, 17):
        for n in range(1, 17):
            lhs = otimes(seq_257.eval(m), seq_257.eval(n), m)
            rhs = otimes(seq_257.eval(n), seq_257.eval(m), n)
            assert lhs == rhs
