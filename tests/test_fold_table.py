"""Reduction modulo Phi_d through the fold table, against the top-first loops.

``CyclotomicField`` builds z^t mod Phi_d once, for phi <= t <= max(phi,
2 phi - 2), and every reduction modulo Phi_d reads it: ``poly._reduce``
folds each high column of a slot vector straight into the low columns,
and ``CyclotomicField._reduce`` folds each high coordinate of an int list
onto its row, for ``mul`` and ``normalize``.  The two loops below are the
reductions the table replaced, kept as the oracles: each high slot, top
first, is replaced by minus the low part of Phi_d one degree lower, until
none is left.  ``schoolbook`` is the scalar product that ``mul``'s one
``kernels._convolve`` replaced.

At d = 105 the rows hold coefficients +-2, so the fold's general branch
runs; at d = 1, 2 (phi = 1) a row is one slot and nothing folds.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfe import CyclotomicField, quantum_sequence, verify_fe
from qfe.poly import Polynomial, _reduce

ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 17, 105]
ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
rationals = st.one_of(ints, st.fractions(-10, 10, max_denominator=12))


def reduce_rows(K: CyclotomicField, v: list[int]) -> list[int]:
    """Each row of 2 phi - 1 slots reduced to its first phi, top slot
    first, all rows at once; v holds whole rows."""
    v, phi = list(v), K.phi
    w = 2 * phi - 1
    terms = [(j, m) for j, m in enumerate(K.modulus[:phi]) if m]
    for t in range(w - 1, phi - 1, -1):
        top = v[t::w]
        if any(top):
            for j, m in terms:
                s = t - phi + j
                v[s::w] = [x - m * c for x, c in zip(v[s::w], top)]
            v[t::w] = [0] * len(top)
    return v


def reduce_coordinates(K: CyclotomicField, coeffs) -> list:
    """A coordinate list of any length reduced modulo Phi_d, top first."""
    phi, mod, c = K.phi, K.modulus, list(coeffs)
    for i in range(len(c) - 1, phi - 1, -1):
        t = c[i]
        if t:
            for j in range(phi):
                c[i - phi + j] -= t * mod[j]
            c[i] = 0
    c = [int(x) if x == int(x) else Fraction(x) for x in c[:phi]]
    return c + [0] * (phi - len(c))


def schoolbook(K: CyclotomicField, a, b) -> tuple:
    """``CyclotomicField.mul`` before a rational operand became a scale,
    before the fold table and before ``kernels._convolve``: the nonzero
    coordinates convolved, then reduced top first."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return tuple(reduce_coordinates(K, prod))


def scalars(K, entries=rationals):
    return st.lists(entries, min_size=K.phi, max_size=K.phi).map(K.normalize)


def unit(n: int, t: int) -> list[int]:
    return [int(i == t) for i in range(n)]


@pytest.mark.parametrize("d", ORDERS)
def test_fold_rows_are_the_powers_of_zeta(d):
    K = CyclotomicField(d)
    phi = K.phi
    assert len(K.fold) == max(phi - 1, 1)
    for t, row in enumerate(K.fold, phi):
        power = reduce_coordinates(K, unit(t + 1, t))
        assert row == tuple((j, r) for j, r in enumerate(power) if r), t


@pytest.mark.parametrize("d", ORDERS)
def test_reduce_folds_every_slot_of_a_row_as_the_loop_does(d):
    # One nonzero slot at a time, of weight 1 and 3: each high slot reads
    # exactly its row, at its coefficients, and is cleared.
    K = CyclotomicField(d)
    w = 2 * K.phi - 1
    for t in range(w):
        for c in (1, 3):
            v = [c * x for x in unit(2 * w, w + t)]
            assert _reduce(K, list(v)) == reduce_rows(K, v), (t, c)


@pytest.mark.parametrize("d", ORDERS)
@settings(max_examples=25)
@given(data=st.data())
def test_reduce_matches_the_top_first_loop(d, data):
    # One row or many; the last one possibly cut after its phi slots,
    # as _slots writes a polynomial and _decode pads it.
    K = CyclotomicField(d)
    phi, w = K.phi, 2 * K.phi - 1
    rows = data.draw(st.integers(1, 5))
    cut = data.draw(st.booleans()) * (phi - 1)
    v = data.draw(st.lists(ints, min_size=rows * w - cut, max_size=rows * w - cut))
    want = reduce_rows(K, v + [0] * cut)[:len(v)]
    assert _reduce(K, list(v)) == want


@pytest.mark.parametrize("d", ORDERS)
@settings(max_examples=25)
@given(data=st.data())
def test_mul_matches_the_schoolbook_and_the_top_first_loop(d, data):
    K = CyclotomicField(d)
    a, b = data.draw(scalars(K)), data.draw(scalars(K))
    got, want = K.mul(a, b), schoolbook(K, a, b)
    assert got == want and [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("d", ORDERS)
@settings(max_examples=10)
@given(data=st.data())
def test_compose_matches_horner_over_the_top_first_loop(d, data):
    # f(psi) by Horner on coefficient lists, every scalar product the
    # schoolbook one; compose reduces each level's rows with the table.
    K = CyclotomicField(d)
    small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    entries = scalars(K, small) if K.phi < 10 else scalars(K, st.integers(-2, 2))
    f = data.draw(st.lists(entries, min_size=1, max_size=5))
    psi = data.draw(st.lists(entries, min_size=1, max_size=4))
    acc = [K.zero]
    for c in reversed(f):
        prod = [K.zero] * (len(acc) + len(psi) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(psi):
                prod[i + j] = K.add(prod[i + j], schoolbook(K, x, y))
        prod[0] = K.add(prod[0], c)
        acc = prod
    assert Polynomial(K, f).compose(Polynomial(K, psi)) == Polynomial(K, acc)


@pytest.mark.parametrize("d", ORDERS)
@settings(max_examples=25)
@given(data=st.data())
def test_normalize_reduces_a_list_of_any_length(d, data):
    # Past 2 phi - 1 coordinates a power of z is beyond the table.
    K = CyclotomicField(d)
    n = data.draw(st.integers(1, 3 * K.phi + 4))
    v = data.draw(st.lists(rationals, min_size=n, max_size=n))
    got, want = K.normalize(v), tuple(reduce_coordinates(K, v))
    assert got == want and [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("d", ORDERS)
def test_powers_of_zeta_past_the_table(d):
    K = CyclotomicField(d)
    for k in range(3 * d + 2):
        power = K.normalize(unit(k + 1, k))
        assert power == K.pow(K.zeta, k), k
        assert (power == K.one) == (k % d == 0)


def test_phi_one_has_one_row_and_folds_nothing():
    # 2 phi - 2 < phi: the table holds z^1 alone, and a row is one slot.
    for d, z in ((1, 1), (2, -1)):
        K = CyclotomicField(d)
        assert K.fold == (((0, z),),)
        assert K.zeta == (z,) == K.normalize([0, 1])
        assert K.normalize([0, 0, 0, 5]) == (5 * z ** 3,)
        assert K.normalize([Fraction(1, 2), 3]) == (Fraction(1, 2) + 3 * z,)
        assert _reduce(K, [4, -7, 2 ** 80]) == [4, -7, 2 ** 80]


def test_a_field_that_reduces_no_power_of_zeta_never_looks_its_table_up():
    # At d = 935 the table holds 70k terms; rational values never need it.
    K = CyclotomicField(935)
    assert verify_fe(quantum_sequence(K), 30).fe_ok
    assert "fold" not in K.__dict__
    K.mul(K.zeta, K.zeta)
    assert "fold" in K.__dict__
