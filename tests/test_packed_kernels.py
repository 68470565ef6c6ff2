"""The packed big-integer kernels and the balanced compose against frozen
reference loops.

``Polynomial.__mul__`` packs dense products over Q, GF(p) and Q(zeta_d),
and Fraction or Q(zeta_d) products that are not very sparse, into one
bigint product; ``scale`` over Q clears to one common denominator;
``exact_div`` tries one bigint quotient over Q, and one per coordinate
over Q(zeta_d) when the divisor is rational, before falling back to
``divmod``; ``compose`` splits f in balanced halves.  The loops below are
the schoolbook product, the long division and the Horner composition as
they stood before the kernels; production keeps the first two for sparse
products of cheap scalars and as the fallback, and here all three are
frozen as oracles.  Inputs cover solution values and perturbed
non-solutions, negative coefficients and coordinates, values above 2^64,
mixed denominators, sparse and dilated operands, and divisors that are not
monic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from functools import lru_cache

from qfe import (QQ, CyclotomicField, InexactDivision, PrimeField, PrimeSet,
                 from_seeds)
from qfe import poly
from qfe.poly import (Polynomial, constant, from_rationals, monomial,
                      quantum_integer, scaled_quantum_integer)


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


def horner_compose(f: Polynomial, psi: Polynomial) -> Polynomial:
    if not f.coeffs:
        return f
    acc = constant(f.ring, f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        acc = schoolbook_mul(acc, psi) + constant(f.ring, c)
    return acc


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

    def counting(ring, a, b):
        calls.append((str(ring), len(a), len(b)))
        return original(ring, a, b)
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
    # GF(p) follows the integer rule: dense products are packed and the
    # sparse [m]_q [n]_{q^m} stays schoolbook.
    gf = PrimeField(7)
    g = quantum_integer(64, gf)
    assert g * g.dilate(64) == quantum_integer(64 * 64, gf)
    assert len(packed_calls) == 2
    assert g * g == schoolbook_mul(g, g)
    assert packed_calls[2:] == [("GF(7)", 64, 64)]
    # Q(zeta_12) scalars are costly: above PACK_MIN_OPS pairs, even the
    # sparse [m]_q [n]_{q^m} is packed, but few pairs stay schoolbook.
    k12 = CyclotomicField(12)
    c8 = scaled_quantum_integer(8, k12.zeta, k12)
    assert c8 * c8 == schoolbook_mul(c8, c8)
    assert len(packed_calls) == 3
    c64 = quantum_integer(64, k12)
    assert c64 * c64.dilate(64) == quantum_integer(64 * 64, k12)
    assert packed_calls[3:] == [("Q(zeta_12)", 64, 4033)]


# -- GF(p) and Q(zeta_d) ----------------------------------------------------------

FIELDS = [PrimeField(p) for p in (2, 7, 257)] + [
    CyclotomicField(d) for d in (1, 2, 3, 4, 5, 8, 12)]
fields = st.sampled_from(FIELDS)


def field_scalars(ring):
    """Residues (p - 1 often: the widest slot), or phi coordinates from
    ``scalars`` (negative, above 2^64, mixed denominators)."""
    if isinstance(ring, PrimeField):
        return st.one_of(st.just(ring.p - 1), st.integers(0, ring.p - 1))
    return st.lists(scalars, min_size=ring.phi, max_size=ring.phi).map(ring.normalize)


def roots_of_unity(ring):
    if isinstance(ring, PrimeField):
        return [x for x in range(1, ring.p) if x < 9 or x == ring.p - 1]
    return [ring.pow(ring.zeta, k) for k in range(ring.d)]


@lru_cache(maxsize=None)
def field_solution(ring):
    """lambda(n) [n]_{q^5} / [n]_q on P = {2, 3} with nonzero lambda(2), lambda(3)."""
    lam = {2: ring.normalize(5), 3: ring.normalize(-2)}
    if isinstance(ring, CyclotomicField):
        lam[3] = ring.add(ring.normalize(Fraction(-2, 3)), ring.pow(ring.zeta, ring.d - 1))
    lam = {p: ring.one if ring.is_zero(c) else c for p, c in lam.items()}
    return from_seeds(PrimeSet.of([2, 3]), {
        p: quantum_integer(p, ring).dilate(5).exact_div(quantum_integer(p, ring)).scale(lam[p])
        for p in (2, 3)})


@st.composite
def field_polys(draw, ring, nonzero=False):
    kind = draw(st.sampled_from(["random", "quantum", "seeds", "perturbed"]))
    if kind == "random":
        entry = st.one_of(st.just(ring.zero), st.just(ring.zero), field_scalars(ring))
        f = Polynomial(ring, draw(st.lists(entry, max_size=24)))
    elif kind == "quantum":
        f = scaled_quantum_integer(draw(st.integers(1, 40)),
                                   draw(st.sampled_from(roots_of_unity(ring))), ring)
    else:
        f = field_solution(ring).eval(draw(members))
        if kind == "perturbed":
            f = f + monomial(ring, draw(st.integers(0, 30)), draw(field_scalars(ring)))
    if nonzero and f.is_zero():
        f = Polynomial(ring, [ring.one])
    return f


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=fields, m=st.integers(1, 6))
def test_field_product_matches_schoolbook(data, ring, m):
    a = data.draw(field_polys(ring))
    b = data.draw(field_polys(ring))
    assert a * b == schoolbook_mul(a, b)
    assert a * b.dilate(m) == schoolbook_mul(a, b.dilate(m))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), ring=fields, reps=st.integers(1, 8))
def test_field_scale_matches_schoolbook(data, ring, reps):
    # Repeating the coefficients carries many operands past PACK_MIN_OPS
    # nonzero pairs, so over Q(zeta_d) scale takes the packed product too.
    f = data.draw(field_polys(ring))
    f = Polynomial(ring, list(f.coeffs) * reps)
    c = data.draw(field_scalars(ring))
    assert f.scale(c) == schoolbook_mul(f, constant(ring, c))


@pytest.mark.parametrize("d", [3, 5, 12])
def test_cyclotomic_width_holds_the_fullest_slot(d):
    # Every coordinate at the same extreme makes the middle slot of each
    # middle row a sum of phi * min(len) equal products: the width bound's
    # worst case, met at a slot boundary for some bit count.
    ring = CyclotomicField(d)
    for bits in range(1, 70):
        top = ring.normalize([2 ** bits - 1] * ring.phi)
        low = ring.normalize([1 - 2 ** bits] * ring.phi)
        for a, b in (([top] * 15, [top] * 15), ([top] * 15, [low] * 9)):
            f, g = Polynomial(ring, a), Polynomial(ring, b)
            assert f * g == schoolbook_mul(f, g), bits


@pytest.mark.parametrize("p", [2, 3, 257, 65521, 2 ** 31 - 1])
def test_prime_field_width_holds_the_fullest_slot(p):
    ring = PrimeField(p)
    for n in (9, 15, 16, 17, 255, 256):
        f = Polynomial(ring, [p - 1] * n)
        assert f * f == schoolbook_mul(f, f)


@lru_cache(maxsize=None)
def rational_divisor(ring, n, m):
    """[n]_{q^m} scaled by 2/3 and with one more term: a rational divisor."""
    return (quantum_integer(n, ring).dilate(m).scale(ring.normalize(Fraction(2, 3)))
            + monomial(ring, 1, ring.normalize(-7)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ring=fields, n=st.integers(1, 12), m=st.integers(1, 3),
       exact=st.booleans())
def test_field_exact_div_matches_long_division(data, ring, n, m, exact):
    # Over Q(zeta_d) a rational divisor takes the coordinatewise packed
    # quotient once the long division would exceed PACK_MIN_OPS steps.
    g = data.draw(st.sampled_from([rational_divisor(ring, n, m),
                                   data.draw(field_polys(ring, nonzero=True))]))
    h = data.draw(field_polys(ring))
    num = schoolbook_mul(g, h)
    if not exact:
        num = num + data.draw(field_polys(ring))
    try:
        want = reference_exact_div(num, g)
    except InexactDivision as exc:
        with pytest.raises(InexactDivision) as got:
            num.exact_div(g)
        assert str(got.value) == str(exc)
    else:
        assert num.exact_div(g) == want


def test_rational_divisor_divides_coordinatewise(divmod_calls):
    k12 = CyclotomicField(12)
    qn = quantum_integer(120, k12)
    zn = scaled_quantum_integer(120, k12.zeta, k12)
    assert (zn * qn).exact_div(qn) == zn
    g = rational_divisor(k12, 40, 2)
    f = schoolbook_mul(g, zn)
    assert f.exact_div(g) == zn
    assert divmod_calls == []
    # Inexact: a coordinate's packed quotient fails, and divmod raises.
    with pytest.raises(InexactDivision, match="does not divide"):
        (f + monomial(k12, 3)).exact_div(g)
    assert [d for _, d in divmod_calls if d.ring == k12] == [g]


def test_non_rational_divisor_goes_through_divmod(divmod_calls):
    k12 = CyclotomicField(12)
    zn = scaled_quantum_integer(60, k12.zeta, k12)
    h = quantum_integer(60, k12).scale(k12.normalize([1, Fraction(1, 2), 0, 3]))
    f = schoolbook_mul(zn, h)
    assert f.exact_div(zn) == h
    # The long division inverts the leading coefficient by a Euclid over Q.
    assert [g for _, g in divmod_calls if g.ring == k12] == [zn]


# -- compose ----------------------------------------------------------------------

ALL_RINGS = [QQ] + FIELDS


@st.composite
def compose_cases(draw):
    ring = draw(st.sampled_from(ALL_RINGS))
    scalar = scalars.map(QQ.normalize) if ring is QQ else field_scalars(ring)
    k = draw(st.integers(4, 6))
    n = draw(st.sampled_from([1, 2, 8, 9, 2 ** k, 2 ** k + 1]))
    f = Polynomial(ring, draw(st.lists(scalar, min_size=n, max_size=n)))
    c = draw(scalar)
    e = draw(st.integers(0, 4))
    psi = draw(st.sampled_from([
        Polynomial(ring, []),
        Polynomial(ring, [c]),
        monomial(ring, e),
        monomial(ring, e, c),
        Polynomial(ring, draw(st.lists(scalar, min_size=1, max_size=4))),
    ]))
    return f, psi


@settings(max_examples=120, deadline=None)
@given(case=compose_cases())
def test_compose_matches_horner(case):
    f, psi = case
    assert f.compose(psi) == horner_compose(f, psi)
