from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (QQ, CyclotomicField, InexactDivision, PrimeField,
                 RationalField, from_rationals, quantum_integer,
                 root_of_unity_order, scaled_quantum_integer)
from qfe.poly import Polynomial, constant, monomial, one, zero

polys = st.lists(st.integers(-9, 9), max_size=8).map(from_rationals)
nonzero_polys = polys.filter(lambda f: not f.is_zero())


def test_add_examples():
    assert from_rationals([1, 1]) + from_rationals([0, 1, 1]) == from_rationals([1, 2, 1])
    f = from_rationals([3, 0, 2])
    assert f + zero(QQ) == f
    assert from_rationals([1, 1]) + from_rationals([-1, -1]) == zero(QQ)
    assert (from_rationals([1, 1]) + from_rationals([-1, -1])).coeffs == ()


def test_mul_examples():
    assert from_rationals([1, 1]) * from_rationals([1, -1, 1]) == from_rationals([1, 0, 0, 1])
    f = from_rationals([2, 0, 5])
    assert f * one(QQ) == f
    assert from_rationals([1, 1]) * from_rationals([1, 0, 1, 0, 1]) == quantum_integer(6)


def test_mul_degree_adds():
    f = from_rationals([1, 2])
    g = from_rationals([0, 0, 3])
    assert (f * g).degree == f.degree + g.degree


def test_dilate_examples():
    assert from_rationals([1, 1]).dilate(3) == from_rationals([1, 0, 0, 1])
    assert from_rationals([1, -1, 1]).dilate(2) == from_rationals([1, 0, -1, 0, 1])
    f = from_rationals([5, 1, 3])
    assert f.dilate(1) == f
    with pytest.raises(ValueError):
        f.dilate(0)


def test_compose_examples():
    assert from_rationals([1, 1, 1]).compose(monomial(QQ, 2)) == from_rationals([1, 0, 1, 0, 1])
    f = from_rationals([2, -1, 4])
    assert f.compose(monomial(QQ, 1)) == f
    assert from_rationals([1, 1]).compose(from_rationals([1, 1])) == from_rationals([2, 1])


def test_reciprocal_examples():
    assert monomial(QQ, 3).reciprocal() == one(QQ)
    assert from_rationals([1, 1, 1]).reciprocal() == from_rationals([1, 1, 1])
    assert from_rationals([1, -1, 0, 1]).reciprocal() == from_rationals([1, 0, -1, 1])
    with pytest.raises(ValueError):
        zero(QQ).reciprocal()


def test_valuation_examples():
    assert from_rationals([0, 0, 1, 1]).valuation() == 2
    assert from_rationals([1, 1]).valuation() == 0
    assert monomial(QQ, 2).valuation() == 2  # q^((7-1)/3)
    with pytest.raises(ValueError):
        zero(QQ).valuation()


def test_exact_div_examples():
    q3 = from_rationals([1, 0, 0, 1])
    q1 = from_rationals([1, 1])
    assert q3.exact_div(q1) == from_rationals([1, -1, 1])
    f = from_rationals([4, 0, 9])
    assert f.exact_div(one(QQ)) == f
    with pytest.raises(InexactDivision):
        from_rationals([1, 1]).exact_div(from_rationals([1, 0, 1]))
    with pytest.raises(ValueError):
        f.exact_div(zero(QQ))
    # Errors in order of precedence: ring mismatch, zero divisor, degree
    # below the divisor's, nonzero remainder.
    g = from_rationals([1, 0, 1])
    with pytest.raises(ValueError, match="ring mismatch"):
        q1.exact_div(zero(PrimeField(2)))
    with pytest.raises(ValueError, match="zero polynomial"):
        zero(QQ).exact_div(zero(QQ))
    with pytest.raises(InexactDivision, match="below degree"):
        q1.exact_div(g)
    with pytest.raises(InexactDivision, match="does not divide"):
        (g * q1 + one(QQ)).exact_div(g)
    assert zero(QQ).exact_div(g) == zero(QQ)


def test_quantum_integer_examples():
    assert quantum_integer(5) == from_rationals([1, 1, 1, 1, 1])
    assert quantum_integer(1) == one(QQ)
    F2 = PrimeField(2)
    assert quantum_integer(2, F2) == Polynomial(F2, [1, 1])
    with pytest.raises(ValueError):
        quantum_integer(0)


def test_scaled_quantum_integer_examples():
    assert scaled_quantum_integer(3, -1) == from_rationals([1, -1, 1])
    assert scaled_quantum_integer(7, 1) == quantum_integer(7)
    K = CyclotomicField(4)
    f = scaled_quantum_integer(2, K.zeta, K)
    assert f == Polynomial(K, [K.one, K.zeta])
    with pytest.raises(ValueError):
        scaled_quantum_integer(3, 0)


def counted_mul(ring):
    """A one-item list that counts ring.mul calls on this ring object."""
    calls = [0]
    real = ring.mul

    def mul(a, b):
        calls[0] += 1
        return real(a, b)

    ring.mul = mul
    return calls


def _scalings():
    """(ring, zeta): every z^k in Q(zeta_12), -1 over Q, every residue of
    GF(13), and the non-roots 2 over Q and 1 + z in Q(zeta_12).  Each ring
    is its own object, so counting its products touches no other test."""
    K = CyclotomicField(12)
    yield from ((CyclotomicField(12), K.pow(K.zeta, k)) for k in range(12))
    yield RationalField(), -1
    yield from ((PrimeField(13), x) for x in range(1, 13))
    yield RationalField(), 2
    yield CyclotomicField(12), K.normalize([1, 1])


@pytest.mark.parametrize("ring, zeta", _scalings(), ids=str)
def test_scaled_quantum_integer_matches_products(ring, zeta):
    """[n]_{zeta q} for n <= 50 against the powers of zeta multiplied out
    one by one.  A root of unity of order l costs min(n, l) - 1 products,
    as its powers repeat from zeta^l = 1 on; any other zeta costs n - 1."""
    order = root_of_unity_order(ring, ring.normalize(zeta))
    calls = counted_mul(ring)
    for n in range(1, 51):
        powers = [ring.one]
        for _ in range(n - 1):
            powers.append(ring.mul(powers[-1], ring.normalize(zeta)))
        expected = Polynomial(ring, powers)
        calls[0] = 0
        assert scaled_quantum_integer(n, zeta, ring) == expected
        assert calls[0] == (n if order is None else min(n, order)) - 1


@pytest.mark.parametrize("call, message", [
    (lambda: one(QQ).shift(-1), "shift exponent must be >= 0"),
    (lambda: zero(QQ).unshift(-2), "unshift exponent must be >= 0"),
    (lambda: monomial(QQ, 1).unshift(-1), "unshift exponent must be >= 0"),
    (lambda: monomial(QQ, -1), "monomial degree must be >= 0"),
    (lambda: scaled_quantum_integer(0, 1), "index must be >= 1, got 0"),
], ids=["shift", "unshift-zero", "unshift", "monomial", "scaled_quantum_integer"])
def test_out_of_range_exponents_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_unshift_undoes_shift():
    f = from_rationals([Fraction(-3, 2), 0, 6])
    assert f.shift(4).unshift(4) == f
    assert f.shift(4).unshift(1) == f.shift(3)
    assert zero(QQ).unshift(3) == zero(QQ)
    with pytest.raises(ValueError, match=r"^q\^1 does not divide -3/2 \+ 6q\^2$"):
        f.unshift(1)
    with pytest.raises(ValueError):
        f.unshift(-1)


def test_degree_of_zero_is_none():
    assert zero(QQ).degree is None
    assert constant(QQ, 0).degree is None
    assert one(QQ).degree == 0
    with pytest.raises(IndexError, match="negative degree"):
        one(QQ).coefficient(-1)


def test_ring_mismatch_raises():
    with pytest.raises(ValueError):
        quantum_integer(2) * quantum_integer(2, PrimeField(2))
    with pytest.raises(ValueError):
        quantum_integer(2) + quantum_integer(2, PrimeField(2))


def test_immutability_and_hash():
    f = from_rationals([1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = ()
    assert hash(from_rationals([1, 2])) == hash(f)
    assert from_rationals([Fraction(2, 1)]) == from_rationals([2])


def test_pretty_printing():
    assert zero(QQ).pretty() == "0"
    assert from_rationals([1, -1, 0, 1, -1, 1, 0, -1, 1]).pretty() == \
        "1 - q + q^3 - q^4 + q^5 - q^7 + q^8"
    assert from_rationals([-1, 1]).pretty() == "-1 + q"
    assert from_rationals([0, 2]).pretty() == "2q"
    assert from_rationals([Fraction(1, 2), Fraction(-3, 2)]).pretty() == "1/2 - (3/2)q"
    K = CyclotomicField(4)
    p = Polynomial(K, [K.one, K.zeta])
    assert p.pretty() == "1 + (z)q"
    F5 = PrimeField(5)
    assert Polynomial(F5, [1, 4]).pretty() == "1 + 4q"


@given(f=polys, g=polys, m=st.integers(1, 5))
def test_dilation_is_a_homomorphism(f, g, m):
    assert (f * g).dilate(m) == f.dilate(m) * g.dilate(m)
    assert (f + g).dilate(m) == f.dilate(m) + g.dilate(m)


@given(f=polys, a=st.integers(1, 4), b=st.integers(1, 4))
def test_dilation_composes(f, a, b):
    assert f.dilate(a).dilate(b) == f.dilate(a * b)


@given(f=nonzero_polys)
def test_reciprocal_is_involutive_when_constant_term_nonzero(f):
    if f.constant_term != 0:
        assert f.reciprocal().reciprocal() == f
    assert f.reciprocal().degree <= f.degree


@given(f=nonzero_polys, g=nonzero_polys)
def test_valuation_is_additive(f, g):
    assert (f * g).valuation() == f.valuation() + g.valuation()


@given(f=polys, g=nonzero_polys)
def test_exact_div_undoes_multiplication(f, g):
    assert (f * g).exact_div(g) == f


def ring_polys(ring):
    if isinstance(ring, CyclotomicField):
        coords = st.sampled_from([-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
        scalars = st.lists(coords, min_size=ring.phi, max_size=ring.phi).map(ring.normalize)
    elif isinstance(ring, PrimeField):
        scalars = st.integers(0, ring.p - 1)
    else:
        scalars = st.fractions(-9, 9, max_denominator=6)
    return st.lists(scalars, max_size=5).map(lambda cs: Polynomial(ring, cs))


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)], ids=str)
@settings(max_examples=40)
@given(data=st.data())
def test_divmod_is_division_with_remainder(ring, data):
    g = data.draw(ring_polys(ring).filter(lambda p: not p.is_zero()), label="g")
    # f = h g + r, with r often zero so that exact quotients come up too.
    h, r = data.draw(ring_polys(ring), label="h"), data.draw(ring_polys(ring), label="r")
    f = h * g + r
    quo, rem = f.divmod(g)
    assert quo * g + rem == f
    assert rem.is_zero() or rem.degree < g.degree
    if rem.is_zero():
        assert f.exact_div(g) == quo
    else:
        with pytest.raises(InexactDivision):
            f.exact_div(g)


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)], ids=str)
@settings(max_examples=10)
@given(data=st.data())
def test_powers_are_repeated_products(ring, data):
    f = data.draw(ring_polys(ring), label="f")
    x = f.coefficient(0)
    acc, power = ring.one, one(ring)
    for k in range(34):
        assert ring.pow(x, k) == acc
        assert f ** k == power
        acc, power = ring.mul(acc, x), power * f
    with pytest.raises(ValueError, match="invert first"):
        ring.pow(x, -1)
    with pytest.raises(ValueError, match="negative power"):
        f ** -1


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), u=st.integers(1, 5), k=st.integers(0, 4))
def test_powers_commute_with_dilation(ring, data, u, k):
    # Dilation is a ring homomorphism, so (f(q^u))^k = (f^k)(q^u): the
    # profile and the peel take the power on the undilated value.
    f = data.draw(ring_polys(ring), label="f")
    assert f.dilate(u) ** k == (f ** k).dilate(u)


def test_power_skips_the_unused_square(monkeypatch):
    # psi^8 takes the squares psi^2, psi^4, psi^8 and one product into the
    # accumulator; squaring psi^8 as well would be the largest product.
    psi = from_rationals([1, 1, 0, 1])
    expected = one(QQ)
    for _ in range(8):
        expected = expected * psi
    calls = []
    mul = Polynomial.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert psi ** 8 == expected
    assert len(calls) <= 4


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)],
                         ids=str)
def test_scale_by_one_returns_an_equal_value_without_a_product(ring, monkeypatch):
    # Over Q(zeta_d) a scale is a product with the constant; by one it is
    # not needed, so scale(1) multiplies nothing over any ring.
    f = quantum_integer(200, ring).scale(3)
    calls = []
    mul = Polynomial.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert f.scale(1) == f
    assert f.scale(ring.one) == f
    assert not calls


@settings(max_examples=30, deadline=None)
@given(f=polys, m=st.integers(1, 4))
def test_compose_with_power_matches_dilate(f, m):
    assert f.compose(monomial(QQ, m)) == f.dilate(m)


def test_quantum_multiplication_identity():
    # The dilation product rebuilds [mn]_q for all m, n <= 64.
    qi = {n: quantum_integer(n) for n in range(1, 65)}
    for m in range(1, 65):
        fm = qi[m]
        for n in range(1, 65):
            assert (fm * qi[n].dilate(m)).coeffs == (1,) * (m * n)
