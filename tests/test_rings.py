from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (QQ, CyclotomicField, PrimeField, cyclotomic_polynomial,
                 euler_phi, from_rationals, ring_from_descriptor,
                 root_of_unity_order)
from qfe import kernels
from qfe.rings import MAX_CYCLOTOMIC_ORDER
from qfe.semigroup import MAX_PRIME, divisors
from qfe.poly import Polynomial, monomial, one, zero

from tests.test_fold_table import schoolbook

rational_values = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


def cyclo_values(K):
    return st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    min_size=K.phi, max_size=K.phi).map(K.normalize)


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), 3) == 2
    assert QQ.inv(Fraction(2, 5)) == Fraction(5, 2)
    assert QQ.normalize(Fraction(4, 2)) == 2
    assert isinstance(QQ.normalize(Fraction(4, 2)), int)


def test_prime_field_arithmetic():
    F5 = PrimeField(5)
    assert F5.mul(3, 4) == 2
    assert F5.add(3, 4) == 2
    assert F5.inv(3) == 2
    assert F5.normalize(-1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)], ids=str)
def test_inverse_of_zero_raises(ring):
    with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
        ring.inv(ring.zero)


def test_prime_field_rejects_a_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError, match="^denominator divisible by 7$"):
        PrimeField(7).normalize(Fraction(1, 7))


def test_prime_field_normalizes_exact_rationals_only():
    F7 = PrimeField(7)
    for v in (2.5, 0.5, "3"):
        with pytest.raises(TypeError, match="^not an exact rational value: "):
            F7.normalize(v)
    assert [F7.normalize(v) for v in (9, -1, True, False)] == [2, 6, 1, 0]
    assert [F7.normalize(v) for v in (Fraction(1, 2), Fraction(14, 2))] == [4, 0]
    assert all(type(F7.normalize(v)) is int for v in (True, Fraction(14, 2)))


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_cyclotomic_4_squares_to_minus_one():
    K = CyclotomicField(4)
    z = K.zeta
    assert K.mul(z, z) == K.normalize(-1)


def test_cyclotomic_add_and_sub_return_normalized_coordinates():
    # int where a coordinate is integral, as normalize and the kernels give.
    K = CyclotomicField(12)
    a = (Fraction(1, 2), Fraction(3, 2), 0, 0)
    b = (Fraction(-1, 2), Fraction(1, 2), 0, 0)
    half = Fraction(3, 2)
    for got, want in ((K.add(a, b), (0, 2, 0, 0)), (K.sub(a, b), (1, 1, 0, 0)),
                      (K.add(a, K.one), (half, half, 0, 0))):
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def test_cyclotomic_normalize_passes_a_tuple_of_phi_ints_through():
    # Already normalized, so it comes back as the same object; bools,
    # Fractions (Fraction(k, 1) too), lists and longer or shorter vectors
    # still convert, to ints where integral.
    K = CyclotomicField(12)  # Phi_12 = z^4 - z^2 + 1
    t = (1, -2, 0, 2 ** 70)
    assert K.normalize(t) is t
    half = Fraction(1, 2)
    for v, want in (((True, 0, False, 1), (1, 0, 0, 1)),
                    ((Fraction(3, 1), 0, 0, 0), (3, 0, 0, 0)),
                    ((half, 0, 0, 1), (half, 0, 0, 1)),
                    ([1, 2, 3, 4], (1, 2, 3, 4)),
                    ((0, 0, 0, 0, 1), (-1, 0, 1, 0)),
                    ((1, 2), (1, 2, 0, 0)),
                    (Fraction(6, 3), (2, 0, 0, 0))):
        got = K.normalize(v)
        assert got == want and type(got) is tuple
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got is not v


def test_cyclotomic_rejects_bad_index():
    with pytest.raises(ValueError):
        CyclotomicField(0)


def test_cyclotomic_1_is_rational():
    K = CyclotomicField(1)
    assert K.phi == 1
    assert K.zeta == K.one
    assert K.mul(K.normalize(Fraction(1, 2)), K.normalize(2)) == K.one


@pytest.mark.parametrize("d, coeffs", [
    (1, [-1, 1]),
    (2, [1, 1]),
    (12, [1, 0, -1, 0, 1]),
])
def test_cyclotomic_polynomial_values(d, coeffs):
    assert cyclotomic_polynomial(d) == from_rationals(coeffs)


def test_cyclotomic_polynomial_product_identity():
    # Independent cross-check: the product over divisors of n rebuilds
    # q^n - 1, for every n up to 64.
    for n in range(1, 65):
        prod = one(QQ)
        for e in range(1, n + 1):
            if n % e == 0:
                prod = prod * cyclotomic_polynomial(e)
        expected = monomial(QQ, n) - one(QQ)
        assert prod == expected, f"divisor product fails at n={n}"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12, 15])
def test_zeta_is_a_root_of_its_minimal_polynomial(d):
    K = CyclotomicField(d)
    assert K.pow(K.zeta, d) == K.one
    phi_d = cyclotomic_polynomial(d)
    value = Polynomial(K, [K.normalize(c) for c in phi_d.coeffs]).evaluate(K.zeta)
    assert K.is_zero(value)
    assert cyclotomic_polynomial(d).degree == euler_phi(d)


def test_root_of_unity_orders():
    K2 = CyclotomicField(2)
    assert root_of_unity_order(K2, K2.normalize(-1)) == 2
    assert root_of_unity_order(QQ, 1) == 1
    assert root_of_unity_order(QQ, 2) is None
    K6 = CyclotomicField(6)
    assert root_of_unity_order(K6, K6.zeta) == 6
    # GF(p) searches up to p - 1: 3 generates GF(7)*, 6 = -1.
    assert root_of_unity_order(PrimeField(7), 3) == 6
    assert root_of_unity_order(PrimeField(7), 6) == 2
    assert root_of_unity_order(PrimeField(2), 1) == 1
    # cross-check by direct powers
    acc = K6.one
    for k in range(1, 6):
        acc = K6.mul(acc, K6.zeta)
        assert acc != K6.one or k == 6
    with pytest.raises(ValueError):
        root_of_unity_order(QQ, 0)


def test_root_of_unity_order_is_the_least_power_that_is_one():
    """Against powers multiplied out one by one up to the exponent of the
    roots of unity (2d, p - 1, 2), on every z^k and the non-roots 1 + z and
    2 z in Q(zeta_12), every residue of GF(13), and -1, 2, 1/2 over Q; and
    in GF(MAX_PRIME), where 7 has order p - 1, which a search through the
    powers would not reach in time."""
    K = CyclotomicField(12)
    cases = [(K, K.pow(K.zeta, k), 24) for k in range(12)]
    cases += [(K, K.normalize([1, 1]), 24), (K, K.normalize([0, 2]), 24)]
    cases += [(PrimeField(13), x, 12) for x in range(1, 13)]
    cases += [(QQ, x, 2) for x in (1, -1, 2, Fraction(1, 2))]
    for ring, z, exponent in cases:
        acc, least = z, None
        for k in range(1, exponent + 1):
            if acc == ring.one:
                least = k
                break
            acc = ring.mul(acc, z)
        assert root_of_unity_order(ring, z) == least
    F = PrimeField(MAX_PRIME)
    assert MAX_PRIME - 1 == 2 * 3**2 * 7 * 11 * 31 * 151 * 331
    assert all(pow(7, (MAX_PRIME - 1) // r, MAX_PRIME) != 1
               for r in (2, 3, 7, 11, 31, 151, 331))
    assert root_of_unity_order(F, 7) == MAX_PRIME - 1
    assert root_of_unity_order(F, F.normalize(-1)) == 2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 12, 15, 105])
def test_cyclotomic_root_orders_match_brute_force(d):
    """Every +-z^j, and a few other nonzero elements, against the least
    k | 2d with x^k = 1, found by powering."""
    K = CyclotomicField(d)
    cases, x = [], K.one
    for _ in range(d):
        cases += [x, K.neg(x)]
        x = K.mul(x, K.zeta)
    others = map(K.normalize, ([1, 1], [0, 2], [Fraction(1, 2)], [2, -1, 1], [1, 0, 1]))
    cases += [y for y in others if not K.is_zero(y)]
    for x in cases:
        least = next((k for k in divisors(2 * d) if K.pow(x, k) == K.one), None)
        assert root_of_unity_order(K, x) == least


def test_ring_descriptors_round_trip():
    for ring in (QQ, PrimeField(7), CyclotomicField(12)):
        assert ring_from_descriptor(ring.descriptor) == ring
    # p and d are JSON integers up to the caps, which are inclusive.
    assert ring_from_descriptor({"kind": "prime_field", "p": MAX_PRIME}).p == MAX_PRIME
    d = MAX_CYCLOTOMIC_ORDER
    assert ring_from_descriptor({"kind": "cyclotomic", "d": d}).d == d
    for bad in ({"kind": "padic"},
                {"kind": "prime_field", "p": 7.5},
                {"kind": "prime_field", "p": "7"},
                {"kind": "prime_field", "p": True},
                {"kind": "prime_field"},
                {"kind": "prime_field", "p": 2**61 - 1},  # before is_prime runs
                {"kind": "cyclotomic", "d": True},
                {"kind": "cyclotomic", "d": "12"},
                {"kind": "cyclotomic", "d": 12.0},
                {"kind": "cyclotomic", "d": 10**9}):  # before Phi_d is built
        with pytest.raises(ValueError):
            ring_from_descriptor(bad)


def test_scalar_json_round_trips():
    assert QQ.scalar_from_json("3/4") == Fraction(3, 4)
    assert QQ.scalar_from_json("-2") == -2
    assert QQ.scalar_to_json(Fraction(-1, 3)) == "-1/3"
    F3 = PrimeField(3)
    assert F3.scalar_from_json("5") == 2
    K4 = CyclotomicField(4)
    z = K4.zeta
    assert K4.scalar_from_json(K4.scalar_to_json(z)) == z
    with pytest.raises(ValueError):
        K4.scalar_from_json(["1"])  # wrong length
    # One literal grammar: a JSON integer, or a string -?[0-9]+(/[0-9]+)?;
    # GF(p) takes no fractions.
    assert QQ.scalar_from_json(7) == 7
    assert QQ.scalar_from_json("-6/4") == Fraction(-3, 2)
    assert PrimeField(7).scalar_from_json(-1) == 6
    assert K4.scalar_from_json([1, "1/2"]) == (1, Fraction(1, 2))
    for bad in (True, 2.5, None, "1e999999999", " 7 ", "1_000", "2.5", "+1",
                "1/-2", "", "\u0663"):
        with pytest.raises(ValueError):
            QQ.scalar_from_json(bad)
        with pytest.raises(ValueError):
            K4.scalar_from_json([bad, "0"])
    for bad in ("1/2", True, 1.0):
        with pytest.raises(ValueError):
            PrimeField(7).scalar_from_json(bad)


@given(a=rational_values, b=rational_values, c=rational_values)
def test_rational_ring_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == 1


@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
def test_prime_field_ring_axioms(a, b, c):
    F7 = PrimeField(7)
    assert F7.add(F7.add(a, b), c) == F7.add(a, F7.add(b, c))
    assert F7.mul(a, F7.add(b, c)) == F7.add(F7.mul(a, b), F7.mul(a, c))
    if a % 7:
        assert F7.mul(a, F7.inv(a)) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 15])
@settings(max_examples=30)
@given(data=st.data())
def test_cyclotomic_ring_axioms(d, data):
    # d = 1, 2 (phi = 1): every element is rational, and inverts over Q.
    K = CyclotomicField(d)
    a, b, c = (data.draw(cyclo_values(K)) for _ in range(3))
    assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
    assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    if not K.is_zero(a):
        assert K.mul(a, K.inv(a)) == K.one


def reference_inv(K, a):
    """CyclotomicField.inv before a rational inverted over Q: the extended
    Euclid against Phi_d, for every nonzero element."""
    old_r, r = Polynomial(QQ, a), Polynomial(QQ, K.modulus)
    old_s, s = one(QQ), zero(QQ)
    while not r.is_zero():
        quo, rem = old_r.divmod(r)
        old_r, r = r, rem
        old_s, s = s, old_s - quo * s
    return K.normalize(old_s.scale(QQ.inv(old_r.constant_term)).coeffs)


def assert_same_scalar(got, want):
    assert got == want and [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("d", [3, 4, 5, 12, 17, 105])
@settings(max_examples=40)
@given(data=st.data())
def test_cyclotomic_mul_and_inv_match_the_schoolbook_and_the_euclid(d, data):
    # Half the operands are rational: mul scales by them and inv inverts
    # them over Q.  At d = 105 (phi = 48) the fold rows hold +-2.
    K = CyclotomicField(d)
    a, b = (data.draw(st.one_of(cyclo_values(K), rational_values.map(K.normalize)))
            for _ in range(2))
    assert_same_scalar(K.mul(a, b), schoolbook(K, a, b))
    if not K.is_zero(a):
        assert_same_scalar(K.inv(a), reference_inv(K, a))


def test_cyclotomic_rational_scalars_at_large_phi():
    K = CyclotomicField(997)
    x = K.add(K.zeta, K.normalize([Fraction(1, 2), 0, 0, -3]))
    for r in (Fraction(-3, 7), 1, 2, 0):
        c = K.normalize(r)
        assert_same_scalar(K.mul(c, x), schoolbook(K, c, x))
        assert_same_scalar(K.mul(x, c), schoolbook(K, x, c))
        assert_same_scalar(K.mul(c, c), schoolbook(K, c, c))
        if r:
            assert_same_scalar(K.inv(c), reference_inv(K, c))


@pytest.mark.parametrize("d", [3, 4, 5, 8, 12, 105])
def test_cyclotomic_inverse_of_a_power_of_zeta(d):
    K = CyclotomicField(d)
    powers = [K.pow(K.zeta, k) for k in range(d)]
    for k in range(1, d):
        assert_same_scalar(K.inv(powers[k]), powers[d - k])


def test_cyclotomic_inverse_at_large_phi():
    # The sparse non-rational x of the rational scalars above: its inverse
    # is dense, with coordinates of hundreds of digits.
    K = CyclotomicField(997)
    x = K.add(K.zeta, K.normalize([Fraction(1, 2), 0, 0, -3]))
    assert K.mul(x, K.inv(x)) == K.one


@pytest.mark.parametrize("d", [3, 5, 12, 105])
def test_cyclotomic_inverse_divides_once_by_a_positive_constant(d, monkeypatch):
    """The Euclid stays in ints: its one ``kernels._over`` call divides the
    int cofactor by the last remainder, a positive constant."""
    calls = []

    def over(ints, num, den):
        calls.append((kernels._ints(ints), den))
        return original(ints, num, den)
    original = kernels._over
    monkeypatch.setattr(kernels, "_over", over)
    K = CyclotomicField(d)
    xs = [K.normalize([1, -1]), K.normalize([Fraction(2, 3), 0, -5]),
          K.normalize([(-1) ** i * (i % 4 + 1) for i in range(K.phi)])]
    for x in xs:
        calls.clear()
        y = K.inv(x)
        assert len(calls) == 1 and calls[0][0] and calls[0][1] > 0, (d, x, calls)
        assert K.mul(x, y) == K.one


def test_cyclotomic_dense_products_at_large_phi():
    # phi = 996: dense ints pack, a square of Fraction coordinates packs its
    # operand once over den^2, and z times a vector folds its top coordinate.
    K = CyclotomicField(997)
    a = K.normalize([i * 7 % 11 - 5 for i in range(996)])
    b = K.normalize([i * i % 13 - 6 for i in range(996)])
    c = K.normalize([Fraction(x, 6) for x in a])
    assert_same_scalar(K.mul(a, b), schoolbook(K, a, b))
    assert_same_scalar(K.mul(c, c),
                       K.normalize([Fraction(x, 36) for x in schoolbook(K, a, a)]))
    assert_same_scalar(K.mul(K.zeta, b), schoolbook(K, K.zeta, b))


def test_cyclotomic_mul_makes_one_convolution_per_non_rational_product(monkeypatch):
    calls = []

    def counting(u, v, *rest):
        calls.append((len(u), len(v), *rest))
        return convolve(u, v, *rest)
    convolve = kernels._convolve
    monkeypatch.setattr(kernels, "_convolve", counting)
    for d in (3, 12, 105):
        K = CyclotomicField(d)
        x = K.add(K.zeta, K.normalize(Fraction(1, 2)))
        for r in (K.one, K.normalize(-3), K.normalize(Fraction(2, 7)), K.zero):
            calls.clear()
            K.mul(r, x), K.mul(x, r), K.mul(r, r)
            assert calls == [], (d, r)
        for y in (x, K.zeta, K.normalize(list(range(1, K.phi + 1)))):
            calls.clear()
            assert_same_scalar(K.mul(x, y), schoolbook(K, x, y))
            assert calls == [(K.phi, K.phi)], (d, y)
