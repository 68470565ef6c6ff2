"""Acceptance criteria, one test per criterion.

Every check here is an exact algebraic identity: no tolerances anywhere.
Each test prints a single pass/fail line (visible with `pytest -s` or in
captured output).
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from qfe import (QQ, CyclotomicField, FESequence, PrimeField, PrimeSet,
                 ZetaAdmissibilityError, additive_sequence, assemble,
                 check_seed_commutativity, decompose, dilate_sequence,
                 enumerate_semigroup, exact_quotient_sequence, from_rationals,
                 identity_sequence, is_prime, monomial, monomial_sequence,
                 oplus, otimes, product_sequence, psi_substitute_sequence,
                 quantum_integer, quantum_sequence, rational_quotient,
                 reciprocal_sequence, scaled_quantum_integer, seed_gcd,
                 support_members, uniqueness_oracle, verify_fe,
                 zeta_admissibility, zeta_scaled_sequence)
from qfe.cli import SEEDS_257, builtin_sequence, main
from qfe.poly import Polynomial, one


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {text}")
        raise
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_quantum_functional_equation():
    with criterion(1, "quantum-integer law for mn <= 64, products all-ones"):
        report = verify_fe(quantum_sequence(), 64)
        assert report.fe_ok and report.commutativity_ok and report.support_ok
        for m in range(1, 65):
            for n in range(1, 64 // m + 1):
                prod = otimes(quantum_integer(m), quantum_integer(n), m)
                assert prod.coeffs == (1,) * (m * n)
                assert prod == quantum_integer(m * n)


def test_criterion_02_footnote_discrimination():
    with criterion(2, "constant-2 sequence commutes but breaks the law at (1,1)"):
        c2 = builtin_sequence("constant2")
        report = verify_fe(c2, 20)
        assert report.commutativity_ok
        assert not report.fe_ok
        fail = report.first_failure
        assert (fail.m, fail.n) == (1, 1)
        assert fail.lhs == from_rationals([2])
        assert fail.rhs == from_rationals([4])
        two = from_rationals([2])
        for m in range(1, 21):
            for n in range(1, 21):
                assert otimes(two, two, m) == otimes(two, two, n)


def test_criterion_03_seed_demo_257(seq_257, seeds_257):
    with criterion(3, "{2,5,7} seeds commute; f_n = [n]_{q^3}/[n]_q with "
                      "degree 2(n-1) up to 500"):
        assert seeds_257 == SEEDS_257
        assert check_seed_commutativity(seeds_257) is None
        for n in enumerate_semigroup(PrimeSet.of([2, 5, 7]), 500):
            qn = quantum_integer(n)
            expected = qn.dilate(3).exact_div(qn)
            f = seq_257.eval(n)
            assert f == expected
            assert f.degree == 2 * (n - 1)


def test_criterion_04_fractional_slope():
    with criterion(4, "valuation slope of the {7^k} monomial family is 1/3"):
        support = PrimeSet.of([7])
        F = FESequence(QQ, support,
                       lambda n: monomial(QQ, (n - 1) // 3), "power7-third")
        members = enumerate_semigroup(support, 7**5)
        assert members == [1, 7, 49, 343, 2401, 16807]
        for n in members:
            assert (n - 1) % 3 == 0
        dec = decompose(F, 7**5)
        assert dec.t == Fraction(1, 3)
        assert set(dec.delta) == set(members)


def test_criterion_05_decomposition_round_trip(seq_257):
    with criterion(5, "assemble(decompose(F, 200)) = F for four families; "
                      "lambda multiplicative; g_n(0) = 1"):
        families = [
            quantum_sequence(),
            monomial_sequence(),
            assemble(1, {p: p for p in range(2, 201) if is_prime(p)},
                     quantum_sequence()),
            seq_257,
        ]
        for F in families:
            dec = decompose(F, 200)
            rebuilt = assemble(dec.t, dec.lam, dec.G)
            members = support_members(F.support, 200)
            for n in range(1, 201):
                assert rebuilt.eval(n) == F.eval(n)
            for n in members:
                assert dec.G.eval(n).constant_term == QQ.one
            for m in members:
                for n in members:
                    mn = m * n
                    if mn in dec.lam:
                        assert dec.lam[mn] == QQ.mul(dec.lam[m], dec.lam[n])


def test_criterion_06_transform_closure():
    with criterion(6, "dilations of quantum verify; reversal fixes quantum "
                      "and collapses monomials"):
        for t in (2, 3, 5):
            report = verify_fe(dilate_sequence(quantum_sequence(), t), 64)
            assert report.fe_ok and report.commutativity_ok and report.support_ok
        rec_mono = reciprocal_sequence(monomial_sequence())
        ident = identity_sequence()
        rec_quant = reciprocal_sequence(quantum_sequence())
        for n in range(1, 201):
            assert rec_mono.eval(n) == ident.eval(n)
            assert rec_quant.eval(n) == quantum_integer(n)


def test_criterion_07_scaling_both_directions():
    with criterion(7, "zeta = -1 accepted for P={3}, refused for P={2}; "
                      "verdicts agree on five cases up to 1000"):
        F = zeta_scaled_sequence([3], -1)
        report = verify_fe(F, 81)
        assert report.fe_ok and report.commutativity_ok and report.support_ok

        with pytest.raises(ZetaAdmissibilityError):
            zeta_scaled_sequence([2], -1)
        f2 = scaled_quantum_integer(2, -1)
        assert otimes(f2, f2, 2) != scaled_quantum_integer(4, -1)

        K4 = CyclotomicField(4)
        K3 = CyclotomicField(3)
        cases = [
            ([3], -1, QQ),
            ([2], -1, QQ),
            ([5, 13], K4.zeta, K4),
            ([7], K3.zeta, K3),
            ([5], K3.zeta, K3),
        ]
        verdicts = []
        for primes, zeta, ring in cases:
            P = PrimeSet.of(primes)
            report = zeta_admissibility(primes, zeta, ring, 1000)
            z = ring.normalize(zeta)
            algebraic = ring.pow(z, seed_gcd(P)) == ring.one
            exhaustive = all(ring.pow(z, m - 1) == ring.one
                             for m in enumerate_semigroup(P, 1000))
            assert algebraic == exhaustive == report.admissible
            verdicts.append(report.admissible)
        assert verdicts == [True, False, True, True, False]


def test_criterion_08_frobenius_substitution():
    with criterion(8, "psi = 1+q+q^3 over GF(2) accepted on S({2}); "
                      "verified to 2^5"):
        F2 = PrimeField(2)
        base = quantum_sequence(F2, PrimeSet.of([2]))
        psi = Polynomial(F2, [1, 1, 0, 1])
        F = psi_substitute_sequence(base, psi)
        report = verify_fe(F, 32)
        assert report.fe_ok and report.commutativity_ok and report.support_ok


def test_criterion_09_products_and_cancellation():
    with criterion(9, "products verify on S({2,3}); cofactor recovered; "
                      "common factors cancel in quotients"):
        P = PrimeSet.of([2, 3])
        F = quantum_sequence(QQ, P)
        G = monomial_sequence(QQ, P)
        FG = product_sequence(F, G)
        report = verify_fe(FG, 64)
        assert report.fe_ok and report.commutativity_ok and report.support_ok

        recovered = exact_quotient_sequence(FG, F)
        report = verify_fe(recovered, 64)
        assert report.fe_ok and report.commutativity_ok and report.support_ok
        for n in enumerate_semigroup(P, 64):
            assert recovered.eval(n) == G.eval(n)

        H = quantum_sequence(QQ, P)
        lhs = rational_quotient(product_sequence(F, H), product_sequence(G, H))
        rhs = rational_quotient(F, G)
        assert lhs.equals(rhs, 100)
        assert rhs.equals(lhs, 100)


def test_criterion_10_uniqueness_oracle(capsys):
    with criterion(10, "constraint system up to 12 has exactly the all-ones "
                       "family with a = 1"):
        families = uniqueness_oracle(12)
        assert len(families) == 1
        fam = families[0]
        assert fam.a == 1
        for n in range(1, 13):
            assert fam.polynomials[n] == quantum_integer(n)
        code = main(["oracle", "--upto", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "families: 1" in out and "a = 1" in out


def test_criterion_11_additive_equation():
    with criterion(11, "shifted sums add indices for m,n <= 100; h-scaled "
                       "sequences solve the additive law to 60"):
        for m in range(1, 101):
            fm = quantum_integer(m)
            for n in range(1, 101):
                assert oplus(fm, quantum_integer(n), m) == quantum_integer(m + n)
        scales = (one(QQ), from_rationals([1, 1]), from_rationals([3, 0, -1]))
        for h in scales:
            F = additive_sequence(h)
            values = {k: F.eval(k) for k in range(1, 61)}
            for m in range(1, 60):
                for n in range(1, 61 - m):
                    assert values[m + n] == oplus(values[m], values[n], m)
