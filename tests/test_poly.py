from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import (QQ, CyclotomicField, InexactDivision, PrimeField,
                 from_rationals, quantum_integer, scaled_quantum_integer)
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


def test_degree_of_zero_is_none():
    assert zero(QQ).degree is None
    assert constant(QQ, 0).degree is None
    assert one(QQ).degree == 0


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
