"""The packed big-integer kernels over Q against frozen reference loops.

Over Q, ``Polynomial.__mul__`` packs dense or Fraction products into one
bigint product, ``scale`` clears to one common denominator, and
``exact_div`` tries one bigint quotient before falling back to ``divmod``.
The loops below are the schoolbook product and the long division as they
stood before the kernels; production keeps them for sparse integer
products and as the fallback, and here they are frozen as oracles.
Inputs cover solution values and perturbed non-solutions, negative
coefficients, coefficients above 2^64, mixed denominators, sparse and
dilated operands, and divisors that are not monic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import QQ, InexactDivision, PrimeField, PrimeSet, from_seeds
from qfe import poly
from qfe.poly import Polynomial, from_rationals, monomial, quantum_integer


def schoolbook_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return Polynomial(ring, [])
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    apairs = [(i, x) for i, x in enumerate(a) if not is_zero(x)]
    bpairs = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in apairs:
        for j, y in bpairs:
            k = i + j
            out[k] = add(out[k], mul(x, y))
    while out and is_zero(out[-1]):
        out.pop()
    return Polynomial._raw(ring, out)


def long_divmod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    ring = f.ring
    dd = len(g.coeffs) - 1
    if len(f.coeffs) <= dd:
        return Polynomial(ring, []), f
    rem = list(f.coeffs)
    sub, mul, is_zero = ring.sub, ring.mul, ring.is_zero
    lead_inv = ring.inv(g.coeffs[-1])
    g_pairs = [(j, y) for j, y in enumerate(g.coeffs) if not is_zero(y)]
    quo = [ring.zero] * (len(rem) - dd)
    for i in range(len(rem) - dd - 1, -1, -1):
        c = mul(rem[i + dd], lead_inv)
        if not is_zero(c):
            quo[i] = c
            for j, y in g_pairs:
                rem[i + j] = sub(rem[i + j], mul(c, y))
    del rem[dd:]
    while rem and is_zero(rem[-1]):
        rem.pop()
    return Polynomial._raw(ring, quo), Polynomial._raw(ring, rem)


def reference_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    quo, rem = long_divmod(f, g)
    if rem.coeffs:
        if len(f.coeffs) < len(g.coeffs):
            raise InexactDivision(f"degree of {f} is below degree of divisor")
        raise InexactDivision(f"{g} does not divide {f}")
    return quo


def assert_same(got: Polynomial, want: Polynomial):
    """Equal coefficients, each of the oracle's type or of its normalized type.

    The kernels return int where a value is integral and Fraction in lowest
    terms otherwise; the frozen loop may return Fraction(k, 1) instead.
    """
    assert got.coeffs == want.coeffs
    for x, y in zip(got.coeffs, want.coeffs):
        assert type(x) in (type(y), type(QQ.normalize(y))), (x, y)


# -- inputs -------------------------------------------------------------------

big = st.integers(-2 ** 80, 2 ** 80)
scalars = st.one_of(
    st.integers(-3, 3),
    big,
    st.fractions(-10, 10, max_denominator=12),
    st.builds(Fraction, big, st.integers(1, 2 ** 70)),
)
nonzero_scalars = scalars.filter(lambda c: c != 0)
# Often zero, so that sparse operands come up as well as dense ones.
entries = st.one_of(st.just(0), st.just(0), scalars)

# The {2, 3} solution f_n = lambda(n) [n]_{q^5} / [n]_q with lambda_2 = 5/6
# and lambda_3 = -2/3: its values share one denominator per index.
_H = {p: (quantum_integer(p).dilate(5).exact_div(quantum_integer(p))).scale(lam)
      for p, lam in ((2, Fraction(5, 6)), (3, Fraction(-2, 3)))}
SOLUTION = from_seeds(PrimeSet.of([2, 3]), _H)
members = st.sampled_from([2 ** i * 3 ** j for i in range(6) for j in range(4)
                           if 2 ** i * 3 ** j <= 48])


@st.composite
def rational_polys(draw, nonzero=False):
    kind = draw(st.sampled_from(["random", "common", "solution", "perturbed"]))
    if kind == "random":
        f = from_rationals(draw(st.lists(entries, max_size=32)))
    elif kind == "common":
        # lambda times small ints: a solution value's shape.
        lam = draw(nonzero_scalars)
        ints = draw(st.lists(st.integers(-2, 2), max_size=32))
        f = from_rationals([lam * c for c in ints])
    else:
        f = SOLUTION.eval(draw(members))
        if kind == "perturbed":
            f = f + monomial(QQ, draw(st.integers(0, 30)), draw(nonzero_scalars))
    if nonzero and f.is_zero():
        f = from_rationals([draw(nonzero_scalars)])
    return f


# -- properties -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(a=rational_polys(), b=rational_polys(), m=st.integers(1, 6))
def test_product_matches_schoolbook(a, b, m):
    assert_same(a * b, schoolbook_mul(a, b))
    assert_same(a * b.dilate(m), schoolbook_mul(a, b.dilate(m)))


@settings(max_examples=150, deadline=None)
@given(a=rational_polys(), c=nonzero_scalars)
def test_scale_matches_coefficientwise_product(a, c):
    want = Polynomial._raw(QQ, [c * x for x in a.coeffs])
    assert_same(a.scale(c), want)


@settings(max_examples=100, deadline=None)
@given(g=rational_polys(nonzero=True), h=rational_polys(), m=st.integers(1, 3))
def test_exact_div_undoes_the_product(g, h, m):
    g = g.dilate(m)
    num = schoolbook_mul(g, h)
    quo = num.exact_div(g)
    assert quo == h
    assert_same(quo, reference_exact_div(num, g))


@settings(max_examples=100, deadline=None)
@given(f=rational_polys(), g=rational_polys(nonzero=True), r=rational_polys())
def test_exact_div_matches_long_division(f, g, r):
    # g f + r is exact when r is zero or a multiple of g, inexact otherwise.
    num = schoolbook_mul(g, f) + r
    try:
        want = reference_exact_div(num, g)
    except InexactDivision as exc:
        with pytest.raises(InexactDivision) as got:
            num.exact_div(g)
        assert str(got.value) == str(exc)
    else:
        assert_same(num.exact_div(g), want)


# -- fixed cases ----------------------------------------------------------------

@pytest.fixture
def divmod_calls(monkeypatch):
    calls = []
    original = Polynomial.divmod

    def counting(self, g):
        calls.append((self, g))
        return original(self, g)
    monkeypatch.setattr(Polynomial, "divmod", counting)
    return calls


def test_exact_div_falls_back_when_the_quotient_outgrows_the_slots(divmod_calls):
    # (1 - q^64)^6 has coefficients of 5 bits; its quotient by (1 - q)^6,
    # [64]_q^6, needs 30 bits, so the packed quotient cannot be trusted.
    num = from_rationals([1] + [0] * 63 + [-1]) ** 6
    den = from_rationals([1, -1]) ** 6
    quo = num.exact_div(den)
    assert len(divmod_calls) == 1
    assert max(quo.coeffs).bit_length() == 30
    assert_same(quo, reference_exact_div(num, den))


def test_exact_div_packed_path_needs_no_long_division(divmod_calls):
    n = quantum_integer(500)
    assert n.dilate(3).exact_div(n) == reference_exact_div(n.dilate(3), n)
    # Not monic, with a rational quotient: (3/2) [30]_{q^7} / [30]_q.
    g = quantum_integer(30).scale(Fraction(2, 3))
    f = quantum_integer(30).dilate(7)
    assert_same(f.exact_div(g), reference_exact_div(f, g))
    assert divmod_calls == []


def test_inexact_division_keeps_its_message(divmod_calls):
    f = quantum_integer(40).dilate(3) + monomial(QQ, 7)
    g = quantum_integer(40)
    with pytest.raises(InexactDivision, match="does not divide"):
        f.exact_div(g)
    assert len(divmod_calls) == 1


@pytest.fixture
def packed_calls(monkeypatch):
    calls = []
    original = poly._packed_mul

    def counting(a, b):
        calls.append((len(a), len(b)))
        return original(a, b)
    monkeypatch.setattr(poly, "_packed_mul", counting)
    return calls


def test_product_selection(packed_calls):
    q64 = quantum_integer(64)
    third = Fraction(1, 3)
    # Sparse integer products stay schoolbook: [m]_q [n]_{q^m}.
    assert q64 * q64.dilate(64) == quantum_integer(64 * 64)
    # Few pairs stay schoolbook whatever the coefficients.
    assert (quantum_integer(8) * quantum_integer(8).scale(third)).degree == 14
    assert packed_calls == []
    # Dense integer products, and Fraction products that are not very
    # sparse, are packed.
    assert q64 * q64 == schoolbook_mul(q64, q64)
    f = q64.scale(third)
    assert_same(f * f.dilate(8), schoolbook_mul(f, f.dilate(8)))
    assert len(packed_calls) == 2
    # Other rings are never packed.
    gf = PrimeField(7)
    g = quantum_integer(64, gf)
    assert g * g == schoolbook_mul(g, g)
    assert len(packed_calls) == 2
