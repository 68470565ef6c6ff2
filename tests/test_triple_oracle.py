"""The stored quadruple (content, exponent, stride, primitive) against the
pair-form Polynomial it replaced, frozen in ``tests/pair_poly.py``, which
writes every power of q and every stride's zeros out.

Each public operation runs on both forms of the same inputs, over Q, GF(p)
and Q(zeta_d), on values of valuation 0 and of large valuation, and the
results must agree in ``coeffs`` (with their types), ``degree``,
``valuation``, ``pretty()`` and ``==``, and in the type and message of any
error; every result must be stored as its coefficients are.  Divisors
include q^s c [n]_{q^u}, so the exact quotients of products reach the
linear-time branch with s >= 1.  Inputs include strided values built by
the pair form: dilations by 2 to 40, products of two dilations, and sums
of two at different strides and offsets, where cancellation can raise the
stride.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import QQ, CyclotomicField, PrimeField, otimes
from qfe.poly import Polynomial

from tests import pair_poly

RINGS = [QQ, PrimeField(2), PrimeField(7), CyclotomicField(5), CyclotomicField(12)]
# Often 0; else small, or large against the length of the rest.
VALUATIONS = st.sampled_from([0, 0, 0, 1, 2, 9, 40, 150])
rationals = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                      st.fractions(-10, 10, max_denominator=12))


def scalars(ring, entries=rationals):
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    if isinstance(ring, CyclotomicField):
        return st.lists(entries, min_size=ring.phi, max_size=ring.phi).map(ring.normalize)
    return entries


def nonzero_scalars(ring):
    return scalars(ring).map(ring.normalize).filter(lambda c: not ring.is_zero(c))


@st.composite
def strided_lists(draw, ring, entries):
    """The coefficients of a dilation by 2 to 40, of a product of two, or of
    a sum of two shifted by 0 to 3, each of up to 6 random entries."""
    def dilation():
        body = draw(st.lists(scalars(ring, entries), min_size=1, max_size=6))
        return pair_poly.Polynomial(ring, body).dilate(draw(st.integers(2, 40)))
    f = dilation()
    how = draw(st.sampled_from(["dilation", "product", "sum"]))
    if how == "product":
        f = f * dilation()
    elif how == "sum":
        f = f.shift(draw(st.integers(0, 3))) + dilation().shift(draw(st.integers(0, 3)))
    return list(f.coeffs)


@st.composite
def coefficient_lists(draw, ring, entries=rationals, nonzero=False):
    """s zeros, then random entries (often zero), c [n]_{q^u} or a strided
    value."""
    kind = draw(st.sampled_from(["random", "geometric", "strided"]))
    if kind == "random":
        body = draw(st.lists(st.one_of(st.just(ring.zero), scalars(ring, entries)), max_size=16))
    elif kind == "strided":
        body = draw(strided_lists(ring, entries))
    else:
        n, u, c = draw(st.integers(2, 12)), draw(st.integers(1, 3)), draw(nonzero_scalars(ring))
        body = [ring.zero] * ((n - 1) * u + 1)
        body[::u] = [c] * n
    if nonzero and not any(not ring.is_zero(ring.normalize(x)) for x in body):
        body.append(ring.one)
    return [ring.zero] * draw(VALUATIONS) + body


def outcome(op):
    try:
        return op()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def flat(coeffs):
    return [x for c in coeffs for x in (c if isinstance(c, tuple) else (c,))]


def stored(f):
    return f.content, f.exponent, f.stride, f.primitive


def assert_agrees(got, want, name):
    """The same outcome: a scalar, an error, or a polynomial whose coeffs,
    degree, valuation and printed form are the oracle's, stored as the
    polynomial of its coefficients is."""
    if isinstance(want, pair_poly.Polynomial):
        assert isinstance(got, Polynomial), (name, got)
        assert stored(got) == stored(Polynomial(got.ring, got.coeffs)), name
        assert got.coeffs == want.coeffs, name
        assert [type(x) for x in flat(got.coeffs)] == [type(x) for x in flat(want.coeffs)], name
        assert got.degree == want.degree, name
        assert outcome(got.valuation) == outcome(want.valuation), name
        assert got.pretty() == want.pretty(), name
    else:
        assert got == want and type(got) is type(want), (name, got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ring=st.sampled_from(RINGS))
def test_every_operation_matches_the_pair_form(data, ring):
    # g, psi and x small: f's long division by g, f(psi) and f(x) raise
    # them to powers up to 330.
    small = st.integers(-2, 2)
    f_list = data.draw(coefficient_lists(ring), "f")
    g_list = data.draw(coefficient_lists(ring, small, nonzero=True), "g")
    small = scalars(ring, small)
    psi_list = [ring.zero] * data.draw(st.integers(0, 1)) + data.draw(st.lists(small, max_size=3))
    c, x = data.draw(nonzero_scalars(ring), "c"), data.draw(small, "x")
    k, m = data.draw(st.integers(0, 170), "k"), data.draw(st.integers(1, 4), "m")
    check(ring, f_list, g_list, psi_list, c, x, k, m)


def check(ring, f_list, g_list, psi_list, c, x, k, m):
    f, g, psi = (Polynomial(ring, v) for v in (f_list, g_list, psi_list))
    F, G, PSI = (pair_poly.Polynomial(ring, v) for v in (f_list, g_list, psi_list))
    ops = {
        "+": (lambda: f + g, lambda: F + G),
        "-": (lambda: f - g.shift(k), lambda: F - G.shift(k)),
        "*": (lambda: f * g, lambda: F * G),
        "otimes": (lambda: otimes(f, g, m), lambda: pair_poly._product(F, G, m)),
        "scale": (lambda: f.scale(c), lambda: F.scale(c)),
        "shift": (lambda: f.shift(k), lambda: F.shift(k)),
        "unshift": (lambda: f.unshift(k), lambda: F.unshift(k)),
        "dilate": (lambda: f.dilate(m), lambda: F.dilate(m)),
        "compose": (lambda: f.compose(psi), lambda: F.compose(PSI)),
        "reciprocal": (lambda: f.reciprocal(), lambda: F.reciprocal()),
        "divmod": (lambda: f.divmod(g), lambda: F.divmod(G)),
        "exact_div": (lambda: f.exact_div(g), lambda: F.exact_div(G)),
        "exact_div of f g": (lambda: (f * g).exact_div(g), lambda: (F * G).exact_div(G)),
        "exact_div of f g(q^m)": (lambda: otimes(f, g, m).exact_div(g.dilate(m)),
                                  lambda: pair_poly._product(F, G, m).exact_div(G.dilate(m))),
        "exact_div by g q^k": (lambda: f.exact_div(g.shift(k)), lambda: F.exact_div(G.shift(k))),
        "evaluate": (lambda: f.evaluate(x), lambda: F.evaluate(x)),
    }
    got, want = [f, g, psi], [F, G, PSI]
    for name, (new, old) in ops.items():
        a, b = outcome(new), outcome(old)
        if name == "divmod" and isinstance(b[0], pair_poly.Polynomial):
            (a, rem), (b, REM) = a, b
            assert_agrees(rem, REM, "divmod remainder")
        assert_agrees(a, b, name)
        if isinstance(b, pair_poly.Polynomial):
            got.append(a)
            want.append(b)
    assert [[a == b for b in got] for a in got] == [[a == b for b in want] for a in want]


def test_fixed_cases_match_the_pair_form():
    """Cases a random draw reaches seldom: the linear-time branch on a
    divisor q^3 (2/3) [5]_{q^2}, a sum whose low terms cancel, and a
    divisor of higher valuation than the dividend."""
    geometric = [0] * 3 + [Fraction(2, 3), 0] * 4 + [Fraction(2, 3)]
    check(QQ, [0] * 7 + [1, -2, 5], geometric, [0, 1, 1], 3, 2, 3, 2)
    check(QQ, [0] * 3 + [4, 1], [0] * 3 + [-4, 1], [2], Fraction(1, 3), 5, 0, 3)
    z = CyclotomicField(12)
    check(z, [0, 0, z.zeta, 1], [0] * 5 + [z.one], [z.zeta], z.zeta, z.zeta, 2, 4)


def test_strided_fixed_cases_match_the_pair_form():
    """Cancellation that raises the stride: (1 + q)(1 - q) = 1 - q^2 and
    (1 + q + q^2) - q = 1 + q^2; a sum of strides 6 and 4 at offsets 0 and
    2, and so in q^2; q^3 [4]_{q^6} over q^3 [2]_{q^6} and over [2]_{q^3}."""
    for ring in RINGS:
        one, z = ring.one, ring.zero
        check(ring, [one, one], [one, ring.normalize(-1)], [z, one], one, one, 1, 1)
        check(ring, [one, one, one], [z, one], [z, one], one, one, 1, 2)
        check(ring, [one, z, z, z, z, z, one], [z, z, one, z, z, z, one], [z, one, one],
              one, one, 2, 3)
        geometric = [z] * 3 + ([one] + [z] * 5) * 3 + [one]
        check(ring, geometric, [z] * 3 + [one] + [z] * 5 + [one], [one], one, one, 3, 2)
        check(ring, geometric, [one, z, z, one], [z, one], one, one, 0, 6)
