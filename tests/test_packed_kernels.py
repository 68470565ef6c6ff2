"""The int-slot sum and product, the packed big-integer kernels, the
level-by-level compose and the printer against frozen reference loops, and
the stored (content, exponent, primitive) triple over Q.

``Polynomial.__add__`` adds the encoded int vectors of both operands over
one denominator; ``Polynomial.__mul__`` convolves the primitive int tuples
over Q and the encoded int vectors over GF(p) and Q(zeta_d), by one bigint
product when dense or pair by pair over the nonzero slots, and
``sequences.otimes`` makes the same product with the second operand's
slots at stride m; an operand a q^s [n]_{q^u} instead multiplies the
other by running sums at step u less the same sums un slots on; ``scale`` over Q changes only the content, and over
Q(zeta_d) by a rational scales each coordinate polynomial; ``exact_div``
divides by a divisor c q^s [n]_{q^u} through 1 - q^(un) in two slice passes,
and by any other with an integer form (over Q, and rational over
Q(zeta_d)) by one bigint quotient or a long division in ints, where over
Q(zeta_d) both divide each coordinate polynomial by the divisor's
primitive int part; any other divisor goes to ``divmod``; ``compose``
makes one convolution of int slots per level; ``pretty`` displays each
distinct entry of the primitive part once, takes its q^i texts from a
table shared by the process, and makes the text with one join of a list
that alternates each term's sign and prefix with its q^i text.  The loops
below are the coefficient-by-coefficient sum, the schoolbook product over ring
scalars, the long division, the Horner composition and the
coefficient-by-coefficient printer as they stood before; production
keeps only the long division, as ``divmod``, and here all five are
frozen as oracles.  Over Q every route to a value must
reach the same canonical triple.  Inputs cover solution values and
perturbed non-solutions, negative coefficients and coordinates, values
above 2^64, mixed denominators, sparse and dilated operands, and divisors
that are not monic.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from functools import lru_cache

from qfe import (QQ, CyclotomicField, InexactDivision, PrimeField, PrimeSet,
                 from_seeds, otimes)
from qfe import kernels, poly
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


def reference_add(f: Polynomial, g: Polynomial) -> Polynomial:
    """The sum as it stood before the int-slot codec: one ring addition per
    coefficient of the shorter operand, then a strip of the cancelled top."""
    ring = f.ring
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ring.add(out[i], c)
    while out and ring.is_zero(out[-1]):
        out.pop()
    return Polynomial._raw(ring, out)


def reference_neg(f: Polynomial) -> Polynomial:
    return Polynomial._raw(f.ring, [f.ring.neg(c) for c in f.coeffs])


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
        acc = reference_add(schoolbook_mul(acc, psi), constant(f.ring, c))
    return acc


def reference_exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    quo, rem = long_divmod(f, g)
    if rem.coeffs:
        if len(f.coeffs) < len(g.coeffs):
            raise InexactDivision(f"degree of {f} is below degree of divisor")
        raise InexactDivision(f"{g} does not divide {f}")
    return quo


def reference_pretty(f: Polynomial) -> str:
    """The printer as it stood before the stored pair: one pass over the
    coefficients, each distinct one displayed once."""
    if not f.coeffs:
        return "0"
    ring = f.ring
    parts = []
    shown = {}
    for i, c in enumerate(f.coeffs):
        display = shown.get(c)
        if display is None:
            display = shown[c] = () if ring.is_zero(c) else poly._display(ring, c)
        if not display:
            continue
        negative, mag, prefix = display
        if i == 0:
            term = mag
        else:
            term = prefix + ("q" if i == 1 else f"q^{i}")
        if not parts:
            parts.append("-" + term if negative else term)
        else:
            parts.append((" - " if negative else " + ") + term)
    return "".join(parts)


def assert_same(got: Polynomial, want: Polynomial):
    """Equal coefficients of equal types: int where a value is integral,
    Fraction in lowest terms otherwise, on both sides; over Q(zeta_d)
    coordinate by coordinate."""
    assert got.coeffs == want.coeffs

    def flat(f):
        return [x for c in f.coeffs for x in (c if isinstance(c, tuple) else (c,))]
    for x, y in zip(flat(got), flat(want)):
        assert type(x) is type(y) is type(QQ.normalize(x)), (x, y)


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


@lru_cache(maxsize=None)
def solution():
    """The {2, 3} solution f_n = lambda(n) [n]_{q^5} / [n]_q with lambda_2 =
    5/6 and lambda_3 = -2/3: its values share one denominator per index.
    Built on first use, so a fault in products or division fails the tests
    that draw it rather than the collection of this module."""
    return from_seeds(PrimeSet.of([2, 3]), {
        p: quantum_integer(p).dilate(5).exact_div(quantum_integer(p)).scale(lam)
        for p, lam in ((2, Fraction(5, 6)), (3, Fraction(-2, 3)))})


# A sum whose coefficient 1/2 + 1/2 is integral: DOUBLED's constant term
# must be the int 1, not Fraction(1, 1).
_HALF = from_rationals([Fraction(1, 2)] + [1] * 15)
DOUBLED = _HALF + _HALF
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
        f = solution().eval(draw(members))
        if kind == "perturbed":
            f = f + monomial(QQ, draw(st.integers(0, 30)), draw(nonzero_scalars))
    if nonzero and f.is_zero():
        f = from_rationals([draw(nonzero_scalars)])
    return f


# -- properties -----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(a=rational_polys(), b=rational_polys(), m=st.integers(1, 6))
@example(a=DOUBLED, b=DOUBLED, m=1)
@example(a=DOUBLED, b=_HALF, m=2)
def test_product_matches_schoolbook(a, b, m):
    assert_same(a * b, schoolbook_mul(a, b))
    assert_same(a * b.dilate(m), schoolbook_mul(a, b.dilate(m)))


@settings(max_examples=150, deadline=None)
@given(a=rational_polys(), c=nonzero_scalars)
@example(a=DOUBLED, c=3)
@example(a=DOUBLED, c=Fraction(-2, 3))
def test_scale_matches_coefficientwise_product(a, c):
    want = Polynomial._raw(QQ, [c * x for x in a.coeffs])
    assert_same(a.scale(c), want)
    assert_same(a.scale(c), schoolbook_mul(a, constant(QQ, c)))


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


@settings(max_examples=150, deadline=None)
@given(f=rational_polys(), g=rational_polys(nonzero=True), m=st.integers(1, 3))
def test_divmod_matches_long_division(f, g, m):
    # Over Q divmod divides the primitive int parts, scaling as it goes.
    for num in (f, schoolbook_mul(f, g.dilate(m)) + g):
        got, want = num.divmod(g), long_divmod(num, g)
        for x, y in zip(got, want):
            assert_same(x, y)
            assert_canonical(x)


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


@pytest.fixture
def quotient_calls(monkeypatch):
    """The divisor of every packed bigint quotient."""
    calls = []
    original = kernels._packed_quotient

    def counting(vf, vg):
        calls.append(vg)
        return original(vf, vg)
    monkeypatch.setattr(kernels, "_packed_quotient", counting)
    return calls


@pytest.fixture
def int_divmod_calls(monkeypatch):
    """The divisor of every long division in ints."""
    calls = []
    original = kernels._int_divmod

    def counting(f, g):
        calls.append(tuple(g))
        return original(f, g)
    monkeypatch.setattr(kernels, "_int_divmod", counting)
    return calls


def test_exact_div_falls_back_when_the_quotient_outgrows_the_slots(
        divmod_calls, quotient_calls, int_divmod_calls):
    # (1 - q^64)^6 has coefficients of 5 bits; its quotient by (1 - q)^6,
    # [64]_q^6, needs 30 bits, so the packed quotient cannot be trusted and
    # the long division in ints decides.
    num = from_rationals([1] + [0] * 63 + [-1]) ** 6
    den = from_rationals([1, -1]) ** 6
    quo = num.exact_div(den)
    assert quotient_calls == int_divmod_calls == [den.primitive]
    assert divmod_calls == []
    assert max(quo.coeffs).bit_length() == 30
    assert_same(quo, reference_exact_div(num, den))


def test_exact_div_packed_path_needs_no_long_division(divmod_calls, quotient_calls):
    n = quantum_integer(500)
    assert n.dilate(3).exact_div(n) == reference_exact_div(n.dilate(3), n)
    # Rational quotient: (3/2) [30]_{q^7} / [30]_q.
    g = quantum_integer(30).scale(Fraction(2, 3))
    f = quantum_integer(30).dilate(7)
    assert_same(f.exact_div(g), reference_exact_div(f, g))
    # Both divisors are c [n]_q, which divide through 1 - q^n.
    assert quotient_calls == []
    # Twins of another shape take the packed quotient: [500]_q (1 + 2q), and
    # (2/3) [30]_q (3 + 2q), whose primitive part is not monic.
    g = n * from_rationals([1, 2])
    f = n.dilate(3) * from_rationals([1, 2])
    assert f.exact_div(g) == reference_exact_div(f, g)
    g = quantum_integer(30).scale(Fraction(2, 3)) * from_rationals([3, 2])
    f = quantum_integer(30).dilate(7) * from_rationals([3, 2])
    assert_same(f.exact_div(g), reference_exact_div(f, g))
    assert len(quotient_calls) == 2
    assert divmod_calls == []


def test_inexact_division_keeps_its_message(divmod_calls, quotient_calls,
                                            int_divmod_calls):
    f = quantum_integer(40).dilate(3) + monomial(QQ, 7)
    g = quantum_integer(40)
    with pytest.raises(InexactDivision, match="does not divide"):
        f.exact_div(g)
    # [40]_q divides through 1 - q^40, which proves the remainder nonzero.
    assert divmod_calls == [] and quotient_calls == [] and int_divmod_calls == []
    # A divisor of another shape: the packed quotient fails, and the long
    # division in ints leaves a nonzero remainder.
    f = quantum_integer(40).dilate(3) * from_rationals([1, 2]) + monomial(QQ, 7)
    g = quantum_integer(40) * from_rationals([1, 2])
    with pytest.raises(InexactDivision, match="does not divide"):
        f.exact_div(g)
    assert quotient_calls == int_divmod_calls == [g.primitive]
    assert divmod_calls == []


@pytest.fixture
def packed_calls(monkeypatch):
    """(slots, stride) of every operand packed, two entries per packed
    product and one per packed square."""
    calls = []
    original = kernels._pack

    def counting(ints, k, m=1, w=1):
        calls.append((len(ints), m))
        return original(ints, k, m, w)
    monkeypatch.setattr(kernels, "_pack", counting)
    return calls


def twisted(n: int, ring=QQ) -> Polynomial:
    """(1 + 2q) [n]_q = 1 + 3q + ... + 3q^(n-1) + 2q^n: n + 1 nonzero
    entries, and not of the form a q^s [n]_{q^u}, so its products convolve."""
    return Polynomial(ring, [1] + [3] * (n - 1) + [2])


def test_product_selection(packed_calls):
    # One rule in every ring, for ``*`` and for otimes, counted on slots and
    # bytes: pack above PACK_MIN_OPS nonzero slot pairs when there are more
    # than PACK_DENSE of them per byte of the packed result.
    t16, t64 = twisted(16), twisted(64)
    third = Fraction(1, 3)
    # Sparse products go pair by pair: t16 (x) t16 at 64 has 289 pairs
    # over 1041 two-byte result slots.
    assert otimes(t16, t16, 64) == schoolbook_mul(t16, t16.dilate(64))
    # Few pairs go pair by pair whatever the coefficients.
    assert (twisted(7) * twisted(7).scale(third)).degree == 14
    assert packed_calls == []
    # Dense products are packed, Fraction ones as well; a square packs its
    # one operand once, and otimes(f, f, m) packs f twice, once at stride m.
    assert t64 * t64 == schoolbook_mul(t64, t64)
    assert otimes(t64, t64, 3) == schoolbook_mul(t64, t64.dilate(3))
    f = t64.scale(third)
    assert_same(otimes(f, f, 8), schoolbook_mul(f, f.dilate(8)))
    assert packed_calls == [(65, 1), (65, 1), (65, 3), (65, 1), (65, 8)]
    # Bytes, not slots: t16 (x) t16 at 8 has 289 pairs over 145 result
    # slots of 2 bytes, and packs; with 102-bit coefficients the slots take
    # 14 bytes, and the same shape goes pair by pair.
    packed_calls.clear()
    assert otimes(t16, t16, 8) == schoolbook_mul(t16, t16.dilate(8))
    assert packed_calls == [(17, 1), (17, 8)]
    wide = from_rationals([3 ** 64] * 15 + [1])
    assert otimes(wide, t16, 8) == schoolbook_mul(wide, t16.dilate(8))
    assert len(packed_calls) == 2
    # GF(p) follows the same rule.
    packed_calls.clear()
    gf = PrimeField(7)
    g16, g64 = twisted(16, gf), twisted(64, gf)
    assert otimes(g16, g16, 64) == schoolbook_mul(g16, g16.dilate(64))
    assert packed_calls == []
    assert g64 * g64 == schoolbook_mul(g64, g64)
    assert g64 * g64.scale(3) == schoolbook_mul(g64, g64.scale(3))
    assert otimes(g64, g64, 2) == schoolbook_mul(g64, g64.dilate(2))
    assert packed_calls == [(65, 1), (65, 1), (65, 1), (65, 1), (65, 2)]
    # Over Q(zeta_12) a coefficient is a row of 2 phi - 1 = 7 slots, and the
    # stride is m rows.  The 8 powers of z hold 10 nonzero coordinates: 100
    # slot pairs over 105 one-byte result slots, so the square packs.  The
    # sparse t64 (x) t64 at 64 goes pair by pair; at 2 it packs.
    packed_calls.clear()
    k12 = CyclotomicField(12)
    c8 = scaled_quantum_integer(8, k12.zeta, k12)
    assert c8 * c8 == schoolbook_mul(c8, c8)
    assert packed_calls == [(53, 1)]
    c64 = twisted(64, k12)
    assert otimes(c64, c64, 64) == schoolbook_mul(c64, c64.dilate(64))
    assert len(packed_calls) == 1
    assert otimes(c64, c64, 2) == schoolbook_mul(c64, c64.dilate(2))
    assert packed_calls[1:] == [(452, 1), (452, 2)]
    # Slots, not coefficients: (1 + 2z + 3z^2 + 4z^3) (1 + 2q) [8]_q, not of
    # the form, has 9 coefficients: 81 coefficient pairs but 1296 slot pairs
    # over 119 slots, so its square packs.
    full = Polynomial(k12, [k12.normalize([1, 2, 3, 4])] * 8) * Polynomial(k12, [1, 2])
    assert full * full == schoolbook_mul(full, full)
    assert packed_calls[3:] == [(60, 1)]


def test_geometric_operand_never_convolves(monkeypatch):
    # a q^s [n]_{q^u} on either side of * or of otimes takes the geometric
    # row: no convolution and no packing.
    cases = []
    for ring in (QQ, PrimeField(7), CyclotomicField(12)):
        for geo in (quantum_integer(64, ring), quantum_integer(200, ring).dilate(3),
                    quantum_integer(5, ring).dilate(2).shift(3).scale(-1)):
            for other in (twisted(64, ring), twisted(16, ring).dilate(4).shift(1),
                          monomial(ring, 3), geo):
                for m in (1, 2, 7):
                    cases.append((other, geo, m, schoolbook_mul(other, geo.dilate(m))))
                    cases.append((geo, other, m, schoolbook_mul(geo, other.dilate(m))))
    # (1 + q)^2 has equal ends and is not of the form: it convolves.
    squared = (from_rationals([1, 2, 1]), twisted(5))
    # zeta [9]_q, whose scalar is not rational, takes the row as well: zeta
    # scales the other operand first, a product with a 1-term constant.
    k12 = CyclotomicField(12)
    zeta_row = (quantum_integer(9, k12).scale(k12.zeta), twisted(5, k12))
    wants = [schoolbook_mul(f, g) for f, g in (squared, zeta_row)]
    calls = []

    def record(name, original):
        def counting(*args):
            # A convolution is recorded with its shorter operand's slots.
            calls.append((name, min(map(len, args[:2]))) if name == "_convolve" else name)
            return original(*args)
        return counting
    for name in ("_convolve", "_pack", "_running_sum"):
        monkeypatch.setattr(kernels, name, record(name, getattr(kernels, name)))
    for f, g, m, want in cases:
        assert_same(otimes(f, g, m), want)
    assert set(calls) == {"_running_sum"}
    for (f, g), want in zip((squared, zeta_row), wants):
        calls.clear()
        assert_same(f * g, want)
        assert_same(g * f, want)
        if f.ring == QQ:
            assert calls == [("_convolve", 3)] * 2
        else:  # the 1-term scale holds one coefficient: phi slots
            assert calls == [("_convolve", k12.phi), "_running_sum"] * 2


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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ring=fields)
def test_field_difference_is_the_coefficientwise_sub(data, ring):
    a = data.draw(field_polys(ring))
    b = data.draw(field_polys(ring))
    diff = a - b
    assert diff + b == a
    n = max(len(a.coeffs), len(b.coeffs))
    want = [ring.sub(a.coefficient(i), b.coefficient(i)) for i in range(n)]
    while want and ring.is_zero(want[-1]):
        want.pop()
    assert diff.coeffs == tuple(want)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), ring=fields, reps=st.integers(1, 8))
def test_field_scale_matches_schoolbook(data, ring, reps):
    # Repeating the coefficients carries many operands past PACK_MIN_OPS
    # nonzero slot pairs, so over Q(zeta_d) scale takes the packed product too.
    f = data.draw(field_polys(ring))
    f = Polynomial(ring, list(f.coeffs) * reps)
    c = data.draw(field_scalars(ring))
    assert f.scale(c) == schoolbook_mul(f, constant(ring, c))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.sampled_from([3, 4, 12]), c=scalars)
def test_rational_scale_over_cyclotomic_makes_no_product(data, d, c):
    # A rational scalar, -1 among them, scales the slots: scale, negation
    # and difference convolve nothing.
    ring = CyclotomicField(d)
    f, g = data.draw(field_polys(ring)), data.draw(field_polys(ring))
    want = (schoolbook_mul(f, constant(ring, c)), reference_neg(f),
            reference_add(f, reference_neg(g)))
    calls = []
    original = kernels._convolve

    def counting(*args):
        calls.append(1)
        return original(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_convolve", counting)
        got = f.scale(c), -f, f - g
    assert calls == []
    for x, y in zip(got, want):
        assert x == y
        assert_same(x, y)


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


_Z17 = CyclotomicField(17)  # phi = 16: a wide row, and a dense Phi_17


def without_coordinate(h: Polynomial, j: int) -> Polynomial:
    """h with its coordinate polynomial h_j (the coordinates of z^j) zero."""
    return Polynomial(h.ring, [c[:j] + (0,) + c[j + 1:] for c in h.coeffs])


def in_coordinate(ring, j: int, values) -> Polynomial:
    """sum_i values[i] z^j q^i: one nonzero coordinate polynomial."""
    return Polynomial(ring, [ring.normalize([0] * j + [x]) for x in values])


@st.composite
def coordinate_dividends(draw, g_prime, h):
    """g' h with a coordinate polynomial of h zero, so that f_j = 0, or f_j
    then set to a nonzero polynomial shorter than the rational g'."""
    ring = g_prime.ring
    j = draw(st.integers(0, ring.phi - 1))
    f = schoolbook_mul(g_prime, without_coordinate(h, j))
    if draw(st.booleans()):
        size = draw(st.integers(1, len(g_prime.primitive) - 1))
        values = draw(st.lists(scalars, min_size=size - 1, max_size=size - 1))
        f = f + in_coordinate(ring, j, values + [draw(nonzero_scalars)])
    return f


@st.composite
def field_divisions(draw):
    """(f, g) over GF(p) or Q(zeta_d), with g = a g' and g' in Q[q] (or any
    nonzero g): g' rational and not geometric, as short as 2/3 [n]_{q^m} - 7q
    or long enough for more than PACK_MIN_OPS steps, or g' = [n]_{q^m} and a
    a root of unity, zeta^k over Q(zeta_d).  f is g h, perturbed or not, or
    over Q(zeta_d) a dividend with a zero or a short coordinate polynomial."""
    ring = draw(st.sampled_from(FIELDS + [_Z17]))
    n, m = draw(st.integers(1, 4 if ring is _Z17 else 12)), draw(st.integers(1, 3))
    rational = rational_divisor(ring, n, m)
    options = [(rational, ring.one),
               (rational * quantum_integer(draw(st.integers(2, 3 if ring is _Z17 else 8)), ring),
                ring.one),
               (quantum_integer(n + 1, ring).dilate(m), draw(st.sampled_from(roots_of_unity(ring)))),
               (draw(field_polys(ring, nonzero=True)), None)]
    g_prime, a = draw(st.sampled_from(options[:3] if ring is _Z17 else options))
    g = g_prime if a is None else g_prime.scale(a)
    h = draw(field_polys(ring))
    kind = draw(st.sampled_from(["exact", "perturbed", "coordinate"]))
    if kind == "coordinate" and a is not None and isinstance(ring, CyclotomicField):
        return draw(coordinate_dividends(g_prime, h)), g
    f = schoolbook_mul(g, h)
    if kind == "perturbed":
        f = f + draw(field_polys(ring))
    return f, g


@settings(max_examples=100, deadline=None)
@given(case=field_divisions())
def test_field_exact_div_matches_long_division(case):
    # Over Q(zeta_d) a divisor a g' with g' rational divides g' into each
    # coordinate polynomial of f: through 1 - q^(un) for g' = [n]_{q^u}, by
    # packed quotients for another g' once the long division would exceed
    # PACK_MIN_OPS steps.
    num, g = case
    try:
        want = reference_exact_div(num, g)
    except InexactDivision as exc:
        with pytest.raises(InexactDivision) as got:
            num.exact_div(g)
        assert str(got.value) == str(exc)
    else:
        assert num.exact_div(g) == want


def test_rational_divisor_divides_coordinatewise(divmod_calls, int_divmod_calls):
    k12 = CyclotomicField(12)
    qn = quantum_integer(120, k12)
    zn = scaled_quantum_integer(120, k12.zeta, k12)
    assert (zn * qn).exact_div(qn) == zn
    g = rational_divisor(k12, 40, 2)
    f = schoolbook_mul(g, zn)
    assert f.exact_div(g) == zn
    assert divmod_calls == [] and int_divmod_calls == []
    # Inexact: the perturbed coordinate's packed quotient fails, and the long
    # division in ints of that coordinate by g's primitive part raises.
    with pytest.raises(InexactDivision, match="does not divide"):
        (f + monomial(k12, 3)).exact_div(g)
    assert [d for _, d in divmod_calls if d.ring == k12] == []
    assert int_divmod_calls == [rational_divisor(QQ, 40, 2).primitive]


def test_coordinatewise_routes_skip_the_row_codec(monkeypatch):
    # Over Q(zeta_12) the division by a [n]_{q^u} with a rational, the
    # packed division by a rational divisor and the scale by a rational
    # work on coordinate polynomials: no row of 2 phi - 1 slots is encoded
    # or decoded.
    k12 = CyclotomicField(12)
    zn = scaled_quantum_integer(60, k12.zeta, k12)
    geometric = quantum_integer(7, k12).dilate(3).scale(k12.normalize(Fraction(-2, 3)))
    rational = rational_divisor(k12, 20, 2)
    cases = [(schoolbook_mul(zn, g), g) for g in (geometric, quantum_integer(5, k12), rational)]
    scaled = schoolbook_mul(zn, constant(k12, Fraction(5, 7)))
    perturbed = cases[0][0] + monomial(k12, 30, k12.zeta)
    calls = []
    for name in ("_slots", "_decode"):
        def counting(*args, name=name, original=getattr(poly, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(poly, name, counting)
    for f, g in cases:
        assert f.exact_div(g) == zn
    assert zn.scale(Fraction(5, 7)) == scaled
    with pytest.raises(InexactDivision, match="does not divide"):
        perturbed.exact_div(geometric)
    assert calls == []


# -- the division table ----------------------------------------------------------

GEOMETRIC, PACKED, LONG, DIVMOD = "_geometric_div", "_packed_quotient", "_int_divmod", "divmod"


@pytest.fixture
def routes(monkeypatch):
    """The division kernels that ran: ``_geometric_div``, the packed
    quotient, the long division in ints and ``Polynomial.divmod``.  What
    runs inside ``divmod`` (the ring inverse of its leading coefficient) is
    not recorded."""
    ran, depth = [], [0]

    def wrap(name, original):
        nested = name == DIVMOD

        def counting(*args):
            if not depth[0]:
                ran.append(name)
            depth[0] += nested
            try:
                return original(*args)
            finally:
                depth[0] -= nested
        return counting
    for name in (GEOMETRIC, PACKED, LONG):
        monkeypatch.setattr(kernels, name, wrap(name, getattr(kernels, name)))
    monkeypatch.setattr(Polynomial, "divmod", wrap(DIVMOD, Polynomial.divmod))
    return ran


def table_divisions(ring):
    """(form, f, g, f / g) per row of the division table over ring."""
    h = (scaled_quantum_integer(15, ring.zeta, ring) if isinstance(ring, CyclotomicField)
         else Polynomial(ring, [3, -1, 0, 4, 2, 0, 0, -5, 1, 1, 2, -2, 0, 7, 1]))
    third = ring.normalize(Fraction(2, 3))
    divisors = {
        "geometric": quantum_integer(6, ring).dilate(2).shift(3).scale(third),
        "short": Polynomial(ring, [2, 1, -3]).scale(third),
        "long": quantum_integer(20, ring).dilate(2).scale(third) + monomial(ring, 1, -5),
    }
    if isinstance(ring, CyclotomicField):
        divisors["non-rational"] = Polynomial(ring, [1, ring.zeta, 2])
    rows = [(form, schoolbook_mul(g, h), g, h) for form, g in divisors.items()]
    # [64]_q^6 needs 30 bits, more than the packed width proves.
    ones = quantum_integer(64, ring) ** 6
    step = Polynomial(ring, [1, -1]) ** 6
    return rows + [("unproven", schoolbook_mul(ones, step), step, ones)]


# (routes when g divides f, routes when f is perturbed) by the form of g.
TABLE_ROUTES = {"geometric": ({GEOMETRIC}, {GEOMETRIC}),
                "short": ({LONG}, {LONG}),
                "long": ({PACKED}, {PACKED, LONG}),
                "unproven": ({PACKED, LONG}, {PACKED, LONG}),
                "non-rational": ({DIVMOD}, {DIVMOD})}


@pytest.mark.parametrize("ring", [QQ, PrimeField(7), CyclotomicField(12)], ids=str)
def test_division_table_routes(ring, routes):
    # Every divisor with an integer form stays on int vectors: only GF(p)
    # and a coefficient outside Q over Q(zeta_d) reach divmod.
    for form, f, g, want in table_divisions(ring):
        perturbed = f + monomial(ring, f.degree - 1)
        for num, exact in ((f, True), (perturbed, False)):
            routes.clear()
            if exact:
                assert num.exact_div(g) == want
            else:
                with pytest.raises(InexactDivision) as got:
                    num.exact_div(g)
                assert str(got.value) == f"{g} does not divide {num}"
            expected = TABLE_ROUTES[form][not exact]
            if isinstance(ring, PrimeField):
                # (1 - q)^6 = (1 - q^7) / (1 - q) = [7]_q over GF(7).
                expected = {GEOMETRIC} if form in ("geometric", "unproven") else {DIVMOD}
            assert set(routes) == expected, (form, exact)


def test_non_rational_divisor_goes_through_divmod(divmod_calls):
    k12 = CyclotomicField(12)
    zn = scaled_quantum_integer(60, k12.zeta, k12)
    h = quantum_integer(60, k12).scale(k12.normalize([1, Fraction(1, 2), 0, 3]))
    f = schoolbook_mul(zn, h)
    assert f.exact_div(zn) == h
    # The long division inverts the leading coefficient by a Euclid over Q.
    assert [g for _, g in divmod_calls if g.ring == k12] == [zn]


# -- divisors c [n]_{q^u} -----------------------------------------------------------

GEOMETRIC_RINGS = [QQ, PrimeField(2), PrimeField(7), CyclotomicField(5), CyclotomicField(12), _Z17]


def geometric_units(ring):
    """c of c [n]_{q^u}: -1, 2/3 and zeta where the ring has them, or any
    nonzero scalar."""
    units = [ring.normalize(-1), ring.normalize(Fraction(2, 3))]
    if isinstance(ring, CyclotomicField):
        units.append(ring.zeta)
    elif isinstance(ring, PrimeField):
        units.append(ring.normalize(3))  # a primitive root mod 7
    fixed = st.sampled_from([c for c in units if not ring.is_zero(c)])
    if ring is _Z17:  # the long division by a dense unit is slow at phi = 16
        return fixed
    return st.one_of(fixed, nonzero_scalars if ring is QQ else nonzero_field_scalars(ring))


@st.composite
def geometric_cases(draw):
    """(f, c q^s [n]_{q^u}), s often 0, with f = h g, h g plus a monomial
    (below q^s too), one coefficient shorter than g, or zero; over
    Q(zeta_d) also [n]_{q^u} h with a zero coordinate polynomial of h, and
    then f_j zero or nonzero and short."""
    ring = draw(st.sampled_from(GEOMETRIC_RINGS))
    n, u = draw(st.integers(2, 6 if ring is _Z17 else 40)), draw(st.integers(1, 5))
    g_prime = quantum_integer(n, ring).dilate(u)
    g = g_prime.scale(draw(geometric_units(ring))).shift(draw(st.sampled_from([0, 0, 1, 3])))
    h = draw(rational_polys() if ring is QQ else field_polys(ring))
    kinds = ["exact", "perturbed", "shorter", "zero"]
    if isinstance(ring, CyclotomicField):
        kinds.append("coordinate")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return Polynomial(ring, []), g
    if kind == "coordinate":
        return draw(coordinate_dividends(g_prime, h)), g
    if kind == "shorter":
        size = len(g.coeffs) - 2
        return Polynomial(ring, (list(h.coeffs) + [ring.zero] * size)[:size] + [ring.one]), g
    f = schoolbook_mul(h, g)
    if kind == "perturbed":
        c = draw(nonzero_scalars if ring is QQ else nonzero_field_scalars(ring))
        f = f + monomial(ring, draw(st.integers(0, len(f.coeffs) + n * u)), c)
    return f, g


_GF7 = PrimeField(7)
_Z12 = CyclotomicField(12)


def _geometric_example(ring, n, u, h):
    g = quantum_integer(n, ring).dilate(u)
    return schoolbook_mul(Polynomial(ring, h), g), g


@settings(max_examples=150, deadline=None)
@given(case=geometric_cases())
# Slots that agree mod 7 only: (1 + 6q) [2]_q is 1 + 6q^2 in GF(7).
@example(case=_geometric_example(_GF7, 2, 1, [1, 6]))
# p | n: [7]_q and [14]_{q^2} over GF(7).
@example(case=_geometric_example(_GF7, 7, 1, [3, 5, 0, 6]))
@example(case=_geometric_example(_GF7, 14, 2, [6, 1, 4]))
# Over Q(zeta_12), rows of 7 slots: a slice per block of un rows, and a
# running sum per residue class once the quotient has more than 7 (un)^2
# coefficients.
@example(case=_geometric_example(_Z12, 3, 2, [1, _Z12.zeta, 2, -1]))
@example(case=(schoolbook_mul(scaled_quantum_integer(40, _Z12.zeta, _Z12),
                              quantum_integer(2, _Z12)), quantum_integer(2, _Z12)))
# a = zeta, which is not rational: the quotient is divided by zeta last.
@example(case=(schoolbook_mul(Polynomial(_Z12, [1, _Z12.zeta, 0, 3]),
                              quantum_integer(4, _Z12).dilate(2).scale(_Z12.zeta)),
               quantum_integer(4, _Z12).dilate(2).scale(_Z12.zeta)))
# The z coordinate polynomial, 1 + q, is shorter than [3]_{q^2}, and those
# of z^2 and z^3 are zero.
@example(case=(_geometric_example(_Z12, 3, 2, [1, 2, 0, 5])[0]
               + Polynomial(_Z12, [_Z12.zeta, _Z12.zeta]), quantum_integer(3, _Z12).dilate(2)))
# q^s [n]_{q^u} with s >= 1, and q^3 [4]_q over a dividend of valuation 2.
@example(case=(_geometric_example(QQ, 5, 2, [3, 0, 1])[0].shift(4),
               quantum_integer(5).dilate(2).shift(2)))
@example(case=(_geometric_example(_GF7, 4, 1, [2, 1])[0].shift(2),
               quantum_integer(4, _GF7).shift(3)))
def test_geometric_divisor_matches_long_division(case):
    # Divided through 1 - q^(un), with no long division and no packed
    # quotient, once f has g's valuation and a degree span (degree less
    # valuation) as large as g's; refused with neither before that.
    f, g = case
    ring = f.ring
    calls = []
    original_divmod, original_quotient = Polynomial.divmod, kernels._packed_quotient
    original_geometric = kernels._geometric_div

    def counting_divmod(self, d):
        if self.ring == ring:  # not the Euclid of CyclotomicField.inv over Q
            calls.append("divmod")
        return original_divmod(self, d)

    def counting_quotient(vf, vg):
        calls.append("packed")
        return original_quotient(vf, vg)

    def counting_geometric(p, v, n, u):
        calls.append("geometric")
        return original_geometric(p, v, n, u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "divmod", counting_divmod)
        mp.setattr(kernels, "_packed_quotient", counting_quotient)
        mp.setattr(kernels, "_geometric_div", counting_geometric)
        try:
            want = reference_exact_div(f, g)
        except InexactDivision as exc:
            with pytest.raises(InexactDivision) as got:
                f.exact_div(g)
            assert str(got.value) == str(exc)
        else:
            assert_same(f.exact_div(g), want)
    reached = (not f.is_zero() and f.valuation() >= g.valuation()
               and f.degree - f.valuation() >= g.degree - g.valuation())
    assert set(calls) == ({"geometric"} if reached else set())


def test_divisor_of_higher_valuation_is_refused_before_any_slot_work(monkeypatch):
    # P_g(0) != 0, so q^(s_g) P_g cannot divide q^(s_f) P_f when s_g > s_f:
    # InexactDivision with no product, long division or quotient kernel.
    cases = []
    for ring in (QQ, PrimeField(7), CyclotomicField(12)):
        f = quantum_integer(300, ring).dilate(3).shift(2)
        for g in (quantum_integer(300, ring).shift(3), monomial(ring, 5),
                  (quantum_integer(30, ring) * Polynomial(ring, [1, 2])).shift(3)):
            cases.append((f, g, "does not divide"))
        cases.append((f, monomial(ring, 1000), "degree of .* is below"))
    calls = []
    for name in ("_convolve", "_geometric_div", "_packed_quotient", "_int_divmod"):
        monkeypatch.setattr(kernels, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(Polynomial, "divmod", lambda *args: calls.append("divmod"))
    for f, g, message in cases:
        with pytest.raises(InexactDivision, match=message):
            f.exact_div(g)
    assert calls == []


def test_geometric_divisor_takes_neither_division(divmod_calls, quotient_calls):
    # [2401]_q divides [2401]_{q^5} through 1 - q^2401, and [500]_q over
    # GF(101) [500]_{q^3}: neither calls divmod or the packed quotient.
    for ring, n, a in ((QQ, 2401, 5), (PrimeField(101), 500, 3)):
        g = quantum_integer(n, ring)
        f = g.dilate(a)
        assert f.exact_div(g) * g == f
    assert divmod_calls == [] and quotient_calls == []
    # A dense divisor of another shape still takes one packed quotient.
    g = quantum_integer(500) * from_rationals([1, 2])
    f = quantum_integer(500).dilate(3) * from_rationals([1, 2])
    assert f.exact_div(g) * g == f
    assert len(quotient_calls) == 1 and divmod_calls == []


# -- compose ----------------------------------------------------------------------

ALL_RINGS = [QQ] + FIELDS


# -- otimes -----------------------------------------------------------------------

OTIMES_RINGS = [QQ, PrimeField(2), PrimeField(7), CyclotomicField(3), CyclotomicField(12)]
# (PACK_MIN_OPS, PACK_DENSE): the kernels' rule, every product packed, none.
RULES = [(kernels.PACK_MIN_OPS, kernels.PACK_DENSE), (0, 0), (kernels.PACK_MIN_OPS, 10 ** 18)]


@st.composite
def extreme_polys(draw, ring):
    """Every slot at one extreme of 1 to 80 bits, negative or positive: the
    fullest result slot the width bound allows, at 1, 2, 4, 8 and more than
    8 bytes a slot.  Over Q the slots are the primitive part, so the last
    coefficient is 1."""
    n = draw(st.integers(1, 40))
    x = draw(st.sampled_from([1, -1])) * (2 ** draw(st.integers(1, 80)) - 1)
    if isinstance(ring, PrimeField):
        return Polynomial(ring, [ring.p - 1] * n)
    if isinstance(ring, CyclotomicField):
        return Polynomial(ring, [ring.normalize([x] * ring.phi)] * n)
    return from_rationals([x] * (n - 1) + [1])


@st.composite
def otimes_cases(draw):
    ring = draw(st.sampled_from(OTIMES_RINGS))
    polys = st.one_of(rational_polys() if ring is QQ else field_polys(ring),
                      extreme_polys(ring))
    return draw(polys), draw(polys)


_Q64 = quantum_integer(64)
_WIDE = from_rationals([-(2 ** 70 - 1)] * 30 + [1])


@settings(max_examples=150, deadline=None)
@given(case=otimes_cases(), m=st.integers(1, 70))
# otimes(f, f, m) with m > 1 packs f twice, the second time at stride m.
@example(case=(_Q64, _Q64), m=3)
@example(case=(_WIDE, _WIDE), m=5)
def test_otimes_matches_the_dilated_schoolbook(case, m):
    # f(q) g(q^m) with g's slots at stride m, packed or pair by pair.
    f, g = case
    want = schoolbook_mul(f, g.dilate(m))
    for min_ops, dense in RULES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "PACK_MIN_OPS", min_ops)
            mp.setattr(kernels, "PACK_DENSE", dense)
            assert_same(otimes(f, g, m), want)


# -- products by a q^s [n]_{q^u} ------------------------------------------------------

@st.composite
def geometric_factors(draw, ring):
    """a q^s [n]_{q^u}, n = 2..40, u = 1..5, a = 1, -1 or 2/3 (its residue
    over GF(p), 1 where that is 0), and over Q(zeta_d) also zeta^k or
    1 + 2 zeta, which are not rational but for zeta^k = -1."""
    n, u = draw(st.integers(2, 40)), draw(st.integers(1, 5))
    units = [1, -1, Fraction(2, 3)]
    if isinstance(ring, CyclotomicField):
        units += [ring.pow(ring.zeta, k) for k in range(1, ring.d)] + [[1, 2]]
    a = ring.normalize(draw(st.sampled_from(units)))
    # Built from its coefficients, not by scale, which shares the row's tails.
    g = Polynomial(ring, [ring.one if ring.is_zero(a) else a] * n)
    return g.dilate(u).shift(draw(st.sampled_from([0, 0, 1, 3])))


@st.composite
def geometric_products(draw):
    """(f, g) with a q^s [n]_{q^u} on either side; the other operand random,
    strided, a monomial, of Fraction content, or a q^s [n]_{q^u} itself."""
    ring = draw(st.sampled_from(OTIMES_RINGS))
    geo = draw(geometric_factors(ring))
    polys = rational_polys() if ring is QQ else field_polys(ring)
    kind = draw(st.sampled_from(["random", "strided", "monomial", "fraction", "geometric"]))
    if kind == "random":
        other = draw(polys)
    elif kind == "strided":
        other = draw(polys).dilate(draw(st.integers(2, 5))).shift(draw(st.integers(0, 3)))
    elif kind == "monomial":
        other = monomial(ring, draw(st.integers(0, 9)), draw(st.sampled_from([1, -1, 5])))
    elif kind == "fraction":
        other = draw(polys).scale(Fraction(-5, 3))
    else:
        other = draw(geometric_factors(ring))
    return (geo, other) if draw(st.booleans()) else (other, geo)


@settings(max_examples=200, deadline=None)
@given(case=geometric_products(), m=st.integers(1, 70))
# Equal ends that are not the form: (1 + q)^2 convolves.
@example(case=(from_rationals([1, 2, 1]), quantum_integer(3)), m=1)
@example(case=(Polynomial(_GF7, [3, 1, 3]), quantum_integer(2, _GF7).scale(3)), m=2)
# Cancellation raises the stride: (1 - q) [2]_q = 1 - q^2.
@example(case=(from_rationals([1, -1]), quantum_integer(2)), m=1)
@example(case=(quantum_integer(4, _Z12).dilate(3).scale(Fraction(2, 3)),
               Polynomial(_Z12, [_Z12.zeta, 0, Fraction(1, 2)])), m=5)
def test_geometric_row_matches_the_schoolbook(case, m):
    # The row takes running sums at step k and subtracts them k n later.
    f, g = case
    assert_same(f * g, schoolbook_mul(f, g))
    assert_same(otimes(f, g, m), schoolbook_mul(f, g.dilate(m)))


@pytest.mark.parametrize("ring", [CyclotomicField(3), _Z12], ids=str)
def test_geometric_operands_with_scalars_that_are_not_rational(ring):
    # zeta [5]_q and (1 + zeta) [3]_{q^2} both take the row, whose scalar
    # scales the other operand first: a product of two 1-term values
    # convolves, so the row does not call itself again.
    f = quantum_integer(5, ring).scale(ring.zeta)
    g = quantum_integer(3, ring).dilate(2).scale(ring.add(ring.one, ring.zeta))
    want = schoolbook_mul(f, g)
    assert_same(f * g, want)
    assert_same(g * f, want)
    assert want.exact_div(g) == f and want.exact_div(f) == g
    for m in (2, 7):
        assert_same(otimes(f, g, m), schoolbook_mul(f, g.dilate(m)))
        assert_same(otimes(g, f, m), schoolbook_mul(g, f.dilate(m)))


# -- sums -------------------------------------------------------------------------

@st.composite
def summands(draw):
    ring = draw(st.sampled_from(ALL_RINGS))
    polys = rational_polys() if ring is QQ else field_polys(ring)
    return draw(polys), draw(polys)


@settings(max_examples=200, deadline=None)
@given(case=summands())
# Tops that cancel: 7q is zero in GF(7), zq - zq in Q(zeta_12), and over Q
# a sum of fractions that is integral and one whose top cancels.
@example(case=(monomial(_GF7, 1, 3), monomial(_GF7, 1, 4)))
@example(case=(Polynomial(_GF7, [1, 3]), monomial(_GF7, 1, 4)))
@example(case=(monomial(_Z12, 1, _Z12.zeta), monomial(_Z12, 1, _Z12.zeta)))
@example(case=(from_rationals([Fraction(1, 2), Fraction(1, 3)]),
               from_rationals([Fraction(1, 2), Fraction(2, 3)])))
@example(case=(from_rationals([1, Fraction(1, 2)]), from_rationals([0, Fraction(-1, 2)])))
# Different denominators, the longer operand's the smaller: both are scaled.
@example(case=(_HALF, constant(QQ, Fraction(1, 3))))
def test_sum_matches_the_coefficient_loop(case):
    f, g = case
    ring = f.ring
    for got, want in ((f + g, reference_add(f, g)),
                      (f - g, reference_add(f, reference_neg(g))),
                      (-f, reference_neg(f))):
        assert_same(got, want)
        assert got == want
        if ring is QQ:
            assert_canonical(got)
    assert (f + (-f)).primitive == ()
    assert f - f == Polynomial(ring, [])


@st.composite
def compose_cases(draw):
    if draw(st.integers(0, 7)) == 0:
        # A few long ones: GF(p), psi of degree 1 to 3 and up to 2^10 + 1
        # terms, so that levels lay blocks out both ways, by row and by block.
        ring = draw(st.sampled_from(FIELDS[:3]))
        rng = draw(st.randoms(use_true_random=False))
        n = draw(st.one_of(st.sampled_from([2 ** 10 + 1, 2 ** 9]),
                           st.integers(2, 2 ** 10 + 1)))
        d = draw(st.integers(1, 3))
        psi = [rng.randrange(ring.p) for _ in range(d)] + [rng.randrange(1, ring.p)]
        return (Polynomial(ring, [rng.randrange(ring.p) for _ in range(n)]),
                Polynomial(ring, psi))
    ring = draw(st.sampled_from(ALL_RINGS))
    scalar = scalars.map(QQ.normalize) if ring is QQ else field_scalars(ring)
    k = draw(st.integers(4, 6))
    # 3, 6 and 7 terms leave an odd term unpaired at one level only.
    n = draw(st.sampled_from([1, 2, 3, 6, 7, 8, 9, 2 ** k, 2 ** k + 1]))
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
@example(case=(Polynomial(QQ, []), Polynomial(QQ, [1, 2])))
@example(case=(Polynomial(QQ, [3, -1, 2]), Polynomial(QQ, [1, 2])))
@example(case=(Polynomial(QQ, [3, -1, 2, 5, 1, 4]), Polynomial(QQ, [1, 2])))
@example(case=(Polynomial(QQ, [3, -1, 2, 5, 1, 4, 7]), Polynomial(QQ, [1, 2])))
# 2^10 + 1 terms leave an odd term unpaired at every level.
@example(case=(quantum_integer(2 ** 10 + 1, PrimeField(2)), Polynomial(PrimeField(2), [1, 1])))
def test_compose_matches_horner(case):
    f, psi = case
    assert f.compose(psi) == horner_compose(f, psi)


@pytest.mark.parametrize("n", [2, 3, 64, 65, 700])
def test_compose_makes_one_product_per_level(monkeypatch, n):
    # ceil(log2 n) levels, each one product with psi^(2^i), and a square of
    # psi between levels: at most 2 ceil(log2 n) products of int slots.
    calls = []
    original = kernels._convolve

    def counting(u, v):
        calls.append(len(u))
        return original(u, v)
    monkeypatch.setattr(kernels, "_convolve", counting)
    for ring in [PrimeField(7)] + ([QQ, CyclotomicField(12)] if n < 100 else []):
        f = scaled_quantum_integer(n, ring.normalize(3), ring)
        psi = Polynomial(ring, [1, 1, 0, 3])
        calls.clear()
        got = f.compose(psi)
        assert len(calls) <= 2 * (n - 1).bit_length()
        assert got.degree == 3 * (n - 1)
        if n < 100:
            assert got == horner_compose(f, psi)


# -- the stored triple over Q -------------------------------------------------------

def assert_canonical(f: Polynomial):
    """P primitive with nonzero first and positive last entries, the content
    an int when integral, the stride the gcd of the positions of the nonzero
    coefficients past q^s (0 for a monomial), and the quadruple rebuilt from
    the coefficients."""
    c, s, u, P = f.content, f.exponent, f.stride, f.primitive
    if not P:
        assert (c, type(c), s, u) == (1, int, 0, 0)
    else:
        assert all(type(x) is int for x in P)
        assert gcd(*P) == 1 and P[0] != 0 and P[-1] > 0
        assert c != 0 and type(c) is type(QQ.normalize(c))
        assert type(s) is int and s == f.valuation() >= 0
        assert type(u) is int and u == gcd(*(i - s for i, x in enumerate(f.coeffs) if x))
    for x in f.coeffs:
        assert type(x) is type(QQ.normalize(x)), x
    rebuilt = Polynomial(QQ, f.coeffs)
    assert (rebuilt.content, rebuilt.exponent, rebuilt.stride, rebuilt.primitive) == (c, s, u, P)


@settings(max_examples=150, deadline=None)
@given(f=rational_polys(), g=rational_polys(nonzero=True), c=nonzero_scalars)
@example(f=_HALF, g=_HALF, c=2)
@example(f=from_rationals([0, 0, 2, -4]), g=from_rationals([0, 1]), c=-3)
# (1 + q)(1 - q) = 1 - q^2: the product's stride is raised to 2.
@example(f=from_rationals([1, 1]), g=from_rationals([1, -1]), c=2)
# Monomials, of stride 0 however they are built.
@example(f=from_rationals([0, 0, 3]), g=from_rationals([0, 2]), c=5)
# Strides 6 and 4, whose sum is in q^2.
@example(f=quantum_integer(4).dilate(6), g=quantum_integer(3).dilate(4).shift(2), c=3)
def test_every_route_reaches_the_same_pair(f, g, c):
    # Every route yields f's value (the tests above check the arithmetic);
    # the form is canonical when every route also yields f's triple.
    one = constant(QQ, 1)
    routes = [
        from_rationals(list(f.coeffs)),
        Polynomial(QQ, [Fraction(x) for x in f.coeffs]),
        f.scale(c).scale(1 / Fraction(c)),
        f.scale(c) * constant(QQ, 1 / Fraction(c)),
        (f + g) - g,
        -(-f),
        (f * g).exact_div(g),
        schoolbook_mul(f, g).exact_div(g),
        f.shift(5).unshift(5),
        # The low terms cancel: _decode strips them.
        ((f.shift(3) + one) - one).unshift(3),
    ]
    if not f.is_zero():
        routes.append(f.reciprocal().reciprocal().shift(f.valuation()))
    for r in routes:
        assert_canonical(r)
        assert r == f and hash(r) == hash(f)
    product = f * g
    assert_canonical(product)
    assert product == schoolbook_mul(f, g) and hash(product) == hash(schoolbook_mul(f, g))
    assert f + f == f.scale(2) and hash(f + f) == hash(f.scale(2))
    assert_canonical(f + g)
    assert_canonical(f.scale(c))


def test_integral_coefficients_are_ints():
    a = from_rationals([Fraction(1, 2), 1])
    assert repr(a + a) == "Polynomial(Q, [1, 2])"
    third = quantum_integer(5).scale(Fraction(1, 3))
    for f in (a + a, a * a.scale(2), a.scale(4), third * constant(QQ, 3),
              third + third + third, (third * third).exact_div(third.scale(Fraction(1, 3))),
              DOUBLED, DOUBLED * _HALF, DOUBLED.exact_div(_HALF.scale(2))):
        assert_canonical(f)
    assert [type(x) for x in (third + third + third).coeffs] == [int] * 5


def nonzero_field_scalars(ring):
    return field_scalars(ring).filter(lambda c: not ring.is_zero(c))


PRINT_RINGS = [QQ, PrimeField(2), PrimeField(7), CyclotomicField(3), CyclotomicField(4)]


def test_pretty_matches_the_coefficient_loop_on_contents_other_than_1():
    cases = [quantum_integer(7).scale(Fraction(-2, 3)), from_rationals([0, 0, -4, 6]),
             from_rationals([Fraction(-1, 2), 0, Fraction(3, 4), -1]),
             from_rationals([0, Fraction(5, 6)] * 4)]
    assert [f.content for f in cases] == [Fraction(-2, 3), 2, Fraction(-1, 4), Fraction(5, 6)]
    for f in cases:
        assert f.pretty() == reference_pretty(f)
    assert cases[2].pretty() == "-1/2 + (3/4)q^2 - q^3"


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ring=st.sampled_from(PRINT_RINGS))
def test_pretty_matches_the_coefficient_loop(data, ring):
    """A drawn value; values of 1 and 2 terms; one of more than 2000 terms,
    a drawn pattern with zeros repeated; and the drawn and the long value
    at stride > 1 from an exponent > 0.  Each is printed as built, scaled
    (over Q to a content other than 1) and negated."""
    if ring is QQ:
        f = data.draw(rational_polys())
        entry, nonzero = entries, nonzero_scalars
    else:
        f = data.draw(field_polys(ring))
        entry = st.one_of(st.just(ring.zero), field_scalars(ring))
        nonzero = nonzero_field_scalars(ring)
    a, b, c = data.draw(nonzero), data.draw(nonzero), data.draw(nonzero)
    i, j = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 40))
    pattern = [data.draw(nonzero)] + data.draw(st.lists(entry, max_size=5))
    long = Polynomial(ring, [a] + pattern * (2001 // len(pattern) + 1) + [b])
    u, s = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 9))
    values = [f, monomial(ring, i, a), monomial(ring, i, a) + monomial(ring, i + j, b),
              long, f.dilate(u).shift(s), long.dilate(u).shift(s)]
    assert len(long.primitive) > 2000 and long.dilate(u).stride >= u
    for g in values:
        for h in (g, g.scale(c), -g):
            assert h.pretty() == reference_pretty(h)


def test_pretty_is_independent_of_what_the_process_printed_before():
    """The q^i texts come from ``poly._POWERS``, a table shared by every
    call and grown to the longest primitive part printed so far, so a
    printed value must not depend on the calls before it.  In each ring,
    with the first nonzero term at index 0, 1 and 3 and zero coefficients
    between terms, print a polynomial longer than the table, then a short
    one, then one longer than the table again, each as built, scaled
    (over Q to a content other than 1) and negated.  Then q^40, q^5000 and
    q^40 again, whose texts are read from q^s on, past the stored zeros."""
    k12 = CyclotomicField(12)
    z = k12.zeta
    rings = [
        (QQ, [Fraction(2, 3), 0, -4, Fraction(-1, 2), 0, 0, 6, 1], Fraction(-5, 7)),
        (PrimeField(7), [3, 0, 6, 1, 0, 0, 2, 1], 4),
        (k12, [z, k12.zero, k12.add(k12.one, k12.pow(z, 2)), k12.neg(k12.one),
               k12.zero, k12.zero, k12.normalize(Fraction(1, 3)), k12.pow(z, 5)],
         k12.add(z, k12.normalize(2))),
    ]
    for ring, pattern, c in rings:
        for lead in (0, 1, 3):
            for longer in (True, False, True):
                size = len(poly._POWERS) + 9 if longer else lead + 4
                body = [pattern[i % len(pattern)] for i in range(size - lead - 1)]
                f = Polynomial(ring, [ring.zero] * lead + body + [pattern[-1]])
                assert f.valuation() == lead
                assert (len(f.primitive) > len(poly._POWERS)) == longer
                cases = [f, f.scale(c), -f]
                if ring is QQ:
                    assert [g.content != 1 for g in cases] == [True] * 3
                for g in cases:
                    assert g.pretty() == reference_pretty(g)
    for f in (monomial(QQ, 40), monomial(QQ, 5000), monomial(QQ, 40)):
        for g in (f, f.scale(Fraction(-5, 7)), -f):
            assert g.pretty() == reference_pretty(g)
    assert monomial(QQ, 40).pretty() == "q^40" and len(poly._POWERS) > 5000


def test_pretty_grows_the_shared_table_safely_from_several_threads():
    """Threads that print values longer than the table at the same time
    must each read a table whose entry i is the text of q^i: growing it
    without the lock let two threads append the same texts."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            start = len(poly._POWERS) + 2
            values = [quantum_integer(n) for n in range(start, start + 800, 20)]
            bad = []
            ready = threading.Barrier(4)

            def work(k):
                ready.wait()
                bad.extend(len(f.primitive) for f in values[k::4]
                           if not f.pretty().endswith(f" + q^{len(f.primitive) - 1}"))
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert bad == []
    finally:
        sys.setswitchinterval(interval)
    assert poly._POWERS == ["", "q"] + [f"q^{i}" for i in range(2, len(poly._POWERS))]
