"""Dense exact univariate polynomials in q.

A polynomial is a ring handle plus a tuple of coefficients in ascending
degree order.  The representation is always normalized: the last
coefficient is nonzero and the zero polynomial is the empty tuple.  The
degree of the zero polynomial is None (a true "minus infinity" sentinel:
it cannot slip into arithmetic the way -1 could).

Polynomials are immutable values and every operation is pure.

Every product runs on int slots, in all three rings.  It writes each
operand as one int vector over one common denominator, convolves the two
vectors and maps the result slots back:

* over Q a coefficient is one slot, and the slots are divided by the
  product of the two denominators;
* over GF(p) the residues are the slots, and the result is reduced mod p;
* over Q(zeta_d) a coefficient's phi coordinates take the first phi of a
  row of 2 phi - 1 slots, so the product of two rows never spills into
  the next: the convolution gives the product in Z[q, z] before
  reduction.  Every result row is then reduced modulo the monic integer
  Phi_d, top slot first, and divided by the two denominators.  Q is the
  phi = 1 layout of the same encoding.

One rule, counted on slots, picks the convolution in every ring: more
than PACK_MIN_OPS nonzero slot pairs, and more than PACK_DENSE of them per
result slot, make one bigint product (Kronecker substitution) at a width
that provably holds every result slot.  Any other product goes pair by
pair over the nonzero slots, so the zeros of a dilated operand make none.

Scaling over Q clears to one common denominator the same way when the
scalar or the leading coefficient is a Fraction; scaling over Q(zeta_d) is
the product with the constant polynomial.  Exact division, when the
long division would take more than PACK_MIN_OPS steps (quotient length
times nonzero divisor coefficients), packs both sides over Q, takes one
bigint quotient and accepts it only when the width proves it exact.  Over
Q(zeta_d), when every divisor coefficient g lies in Q, it divides each
coordinate polynomial f_j by g the same way: g divides f in Q(zeta_d)[q]
exactly when it divides every f_j in Q[q], because g is rational and
1, z, ..., z^(phi - 1) is a basis of Q(zeta_d) over Q.  Every other case,
and every quotient the width does not prove, falls back to ``divmod``.

Composition f(psi) = sum c_i psi^i = sum (c_2i + c_2i+1 psi) (psi^2)^i
pairs the terms, starting from the coefficients of f, and composes what is
left with psi^2 the same way, until one term is left; an odd last term is
carried up unpaired.  psi is squared only while more than one term
remains, so level i multiplies by psi^(2^i).  The products are balanced
and dense, not deg f products of a growing accumulator by a short psi.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, lcm
from operator import attrgetter, is_
from typing import Iterable, Sequence

from .rings import QQ, CyclotomicField, PrimeField, RationalField, Ring, power

# Product selection, on slots; see the module docstring.  Measured on a
# 2-CPU x86 host with Python 3.11: an int slot pair costs about 0.08 us
# pair by pair, a packed result slot about 0.2-0.3 us.
PACK_MIN_OPS = 64
PACK_DENSE = 4


class InexactDivision(ArithmeticError):
    """Raised when exact_div is asked for a division with nonzero remainder."""


class Polynomial:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs: Iterable = ()):
        vals = [ring.normalize(c) for c in coeffs]
        while vals and ring.is_zero(vals[-1]):
            vals.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(vals))

    @classmethod
    def _raw(cls, ring: Ring, vals: Iterable) -> "Polynomial":
        # Internal fast path: vals already normalized, trailing zeros stripped.
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(vals))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure --

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        if i < 0:
            raise IndexError("negative degree")
        return self.coeffs[i] if i < len(self.coeffs) else self.ring.zero

    @property
    def constant_term(self):
        return self.coefficient(0)

    def valuation(self) -> int:
        """Largest power of q dividing the polynomial (index of first nonzero)."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no valuation")
        is_zero = self.ring.is_zero
        for i, c in enumerate(self.coeffs):
            if not is_zero(c):
                return i
        raise AssertionError("unnormalized polynomial")

    # -- arithmetic --

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = ring.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        while out and ring.is_zero(out[-1]):
            out.pop()
        return Polynomial._raw(ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.neg
        return Polynomial._raw(self.ring, [neg(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial._raw(ring, [])
        # The top slot is a[-1] b[-1], nonzero in a field: nothing to strip.
        return Polynomial._raw(ring, _product(ring, a, b))

    def scale(self, c) -> "Polynomial":
        """Multiply by a scalar of the same ring."""
        ring = self.ring
        c = ring.normalize(c)
        if c == ring.one:
            return self
        if ring.is_zero(c):
            return Polynomial._raw(ring, [])
        if isinstance(ring, CyclotomicField):
            return self * constant(ring, c)
        a = self.coeffs
        if (a and isinstance(ring, RationalField)
                and (type(c) is Fraction or type(a[-1]) is Fraction)):
            den, ints = _clear(a)
            return Polynomial._raw(ring, _over(ints, c.numerator, den * c.denominator))
        mul = ring.mul
        return Polynomial._raw(ring, [mul(c, x) for x in a])

    def shift(self, k: int) -> "Polynomial":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if not self.coeffs:
            return self
        return Polynomial._raw(self.ring, [self.ring.zero] * k + list(self.coeffs))

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, Polynomial.__mul__) if k else one(self.ring)

    # -- the operations the functional equation is built from --

    def dilate(self, m: int) -> "Polynomial":
        """The substitution q -> q**m."""
        if m < 1:
            raise ValueError(f"dilation exponent must be >= 1, got {m}")
        if m == 1 or not self.coeffs:
            return self
        out = [self.ring.zero] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return Polynomial._raw(self.ring, out)

    def compose(self, psi: "Polynomial") -> "Polynomial":
        """f(psi(q)), by the pairing of the module docstring."""
        self._check_ring(psi)
        ring = self.ring
        terms = [Polynomial._raw(ring, [] if ring.is_zero(c) else [c])
                 for c in self.coeffs]
        while len(terms) > 1:
            paired = [lo + psi * hi for lo, hi in zip(terms[::2], terms[1::2])]
            terms = paired + terms[2 * len(paired):]  # and the odd last term
            if len(terms) > 1:
                psi = psi * psi
        return terms[0] if terms else self

    def reciprocal(self) -> "Polynomial":
        """q**deg(f) * f(1/q): the coefficient-reversed polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no reciprocal")
        out = list(reversed(self.coeffs))
        while out and self.ring.is_zero(out[-1]):
            out.pop()
        return Polynomial._raw(self.ring, out)

    def divmod(self, g: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(quo, rem) with f = quo * g + rem and rem zero or of lower degree than g.

        The one general long division; every nonzero scalar is a unit here.
        """
        self._check_ring(g)
        if not g.coeffs:
            raise ValueError("division by the zero polynomial")
        ring = self.ring
        dd = len(g.coeffs) - 1
        if len(self.coeffs) <= dd:
            return Polynomial._raw(ring, []), self
        rem = list(self.coeffs)
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

    def exact_div(self, g: "Polynomial") -> "Polynomial":
        """The quotient f / g when g divides f exactly; InexactDivision otherwise."""
        self._check_ring(g)
        ring = self.ring
        f, d = self.coeffs, g.coeffs
        if (len(f) >= len(d)
                and (len(f) - len(d) + 1) * (len(d) - d.count(ring.zero)) > PACK_MIN_OPS):
            quo = _packed_div(ring, f, d)
            if quo is not None:
                return Polynomial._raw(ring, quo)
        quo, rem = self.divmod(g)
        if rem.coeffs:
            if len(self.coeffs) < len(g.coeffs):
                raise InexactDivision(f"degree of {self} is below degree of divisor")
            raise InexactDivision(f"{g} does not divide {self}")
        return quo

    def evaluate(self, x):
        """Value at a scalar of the same ring (Horner)."""
        ring = self.ring
        x = ring.normalize(x)
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, x), c)
        return acc

    # -- equality, hashing, display --

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Polynomial({self.ring}, {list(self.coeffs)!r})"

    def pretty(self) -> str:
        """Ascending terms joined with " + " / " - "; unit coefficients elided."""
        if not self.coeffs:
            return "0"
        ring = self.ring
        parts = []
        # (negative, magnitude, prefix before q) per distinct coefficient,
        # () for zero: a value's coefficients repeat a few scalars.
        shown = {}
        for i, c in enumerate(self.coeffs):
            display = shown.get(c)
            if display is None:
                display = shown[c] = () if ring.is_zero(c) else _display(ring, c)
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


def _display(ring: Ring, c) -> tuple[bool, str, str]:
    """(negative, magnitude, prefix of q) for a nonzero coefficient c."""
    negative, mag = ring.coeff_display(c)
    if mag == "1":
        prefix = ""
    elif mag.isdigit() or (mag.startswith("(") and mag.endswith(")")):
        prefix = mag
    else:
        prefix = f"({mag})"
    return negative, mag, prefix


# -- int-slot kernels -----------------------------------------------------------
#
# An int vector v is packed at k bytes per slot as X = sum v_i 2^(8k i).  When
# every |v_i| < 2^(8k-1) the slots are balanced digits: adding the bias
# B = sum 2^(8k-1) 2^(8k i) makes every slot a plain unsigned byte string, and
# flipping each slot's top bit (xor B) turns it into the slot's two's
# complement, so packing and unpacking are byte-level conversions.  Two int
# polynomials whose coefficients are all below 2^(8k-1) in magnitude are equal
# exactly when their packed values are.

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")
# Signed array typecodes by item size, for slots of 1, 2, 4 or 8 bytes.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}


def _ints(values) -> bool:
    """Whether every value is an int; stops at the first that is not."""
    return all(map(is_, map(type, values), repeat(int)))


def _clear(coeffs) -> tuple[int, Sequence[int]]:
    """(D, v) with coeffs[i] = v[i] / D and D the lcm of the denominators.

    All-int coefficients come back unchanged, not copied.  The test is on
    types: a sum over Q may hold Fraction(k, 1), whose denominator is 1.
    """
    if _ints(coeffs):
        return 1, coeffs
    den = lcm(*set(map(_denominator, coeffs)))
    if den == 1:
        return 1, list(map(_numerator, coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _over(ints, num: int, den: int) -> list:
    """The normalized rationals ints[i] * num / den (den > 0)."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return ints if num == 1 else [x * num for x in ints]
    # Values repeat (a solution's coefficients are often lambda(n) times a
    # few small ints), so each distinct one is divided once.
    value = {}
    for x in set(ints):
        y = x * num
        value[x] = y // den if y % den == 0 else Fraction(y, den)
    return list(map(value.__getitem__, ints))


def _bits(ints) -> int:
    return max(map(int.bit_length, ints))


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for magnitudes below 2^(bits-1): 1, 2, 4, 8 or more."""
    k = (bits + 7) // 8
    return k if k > 8 else next(s for s in (1, 2, 4, 8) if s >= k)


def _bias(n: int, k: int) -> int:
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _pack(ints, k: int) -> int:
    """sum ints[i] 2^(8k i); every |ints[i]| must be below 2^(8k-1)."""
    code = _SLOT_CODES.get(k)
    if code is not None:
        slots = array(code, ints)
        if sys.byteorder == "big":
            slots.byteswap()
        raw = slots.tobytes()
    else:
        raw = b"".join([x.to_bytes(k, "little", signed=True) for x in ints])
    bias = _bias(len(ints), k)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(z: int, n: int, k: int) -> list[int]:
    """The n balanced k-byte digits c_i with z = sum c_i 2^(8k i).

    Raises OverflowError when z has no such digits.
    """
    bias = _bias(n, k)
    raw = ((z + bias) ^ bias).to_bytes(n * k, "little")
    code = _SLOT_CODES.get(k)
    if code is not None:
        slots = array(code, raw)
        if sys.byteorder == "big":
            slots.byteswap()
        return slots.tolist()
    return [int.from_bytes(raw[i:i + k], "little", signed=True)
            for i in range(0, n * k, k)]


def _encode(ring: Ring, a, b) -> tuple[int, Sequence[int], Sequence[int]]:
    """(D, u, v): a = u / D_a and b = v / D_b as int vectors, D = D_a D_b.

    Over Q(zeta_d) coefficient i takes slots (2 phi - 1) i + j for its
    coordinates j < phi; the padding after the last coefficient is dropped.
    """
    if isinstance(ring, CyclotomicField):
        a, b = _rows(ring.phi, a), _rows(ring.phi, b)
    elif isinstance(ring, PrimeField) or _ints(a + b):
        return 1, a, b
    da, u = _clear(a)
    db, v = _clear(b)
    return da * db, u, v


def _rows(phi: int, coeffs) -> list:
    """Q(zeta_d) coefficients laid out in rows of 2 phi - 1 slots."""
    w = 2 * phi - 1
    flat = [0] * (w * len(coeffs))
    for j, column in enumerate(zip(*coeffs)):
        flat[j::w] = column
    del flat[len(flat) - w + phi:]
    return flat


def _decode(ring: Ring, v: list[int], den: int) -> list:
    """The coefficients whose slots, over the denominator den, are v."""
    if isinstance(ring, RationalField):
        return _over(v, 1, den)
    if isinstance(ring, PrimeField):
        p = ring.p
        return [x % p for x in v]
    phi = ring.phi
    w = 2 * phi - 1
    # Row r holds the coordinates of z^0 .. z^(2 phi - 2) of coefficient r.
    # With Phi_d = z^phi + sum m_j z^j, slot t >= phi of a row carries c z^t
    # = -c sum m_j z^(t - phi + j); reduce the top slot first, all rows at once.
    terms = [(j, m) for j, m in enumerate(ring.modulus[:phi]) if m]
    for t in range(w - 1, phi - 1, -1):
        top = v[t::w]
        if any(top):
            for j, m in terms:
                s = t - phi + j
                v[s::w] = [x - m * c for x, c in zip(v[s::w], top)]
    return list(zip(*[_over(v[j::w], 1, den) for j in range(phi)]))


def _product(ring: Ring, a, b) -> list:
    """The product of two nonzero coefficient tuples, on int slots.

    When packed, each result slot sums at most min(nnz) products of slots,
    so it is below 2^(bits(max|u|) + bits(max|v|) + bits(min(nnz))) in
    magnitude and the packed slots hold it.
    """
    den, u, v = _encode(ring, a, b)
    n = len(u) + len(v) - 1
    nu, nv = len(u) - u.count(0), len(v) - v.count(0)
    ops = nu * nv
    if ops > PACK_MIN_OPS and ops > PACK_DENSE * n:
        k = _slot_bytes(_bits(u) + _bits(v) + min(nu, nv).bit_length() + 2)
        out = _unpack(_pack(u, k) * _pack(v, k), n, k)
    else:
        out = [0] * n
        js = list(compress(range(len(v)), v))
        for i in compress(range(len(u)), u):
            x = u[i]
            for j in js:
                out[i + j] += x * v[j]
    return _decode(ring, out, den)


def _packed_div(ring: Ring, f, g) -> list | None:
    """f / g by bigint quotients, or None when that proves nothing."""
    if isinstance(ring, RationalField):
        return _packed_quotient(f, g)
    if not isinstance(ring, CyclotomicField) or any(any(c[1:]) for c in g):
        return None
    # A rational divisor divides coordinate by coordinate.
    g = [c[0] for c in g]
    columns = []
    for column in zip(*f):
        h = _packed_quotient(column, g)
        if h is None:
            return None
        columns.append(h)
    return list(zip(*columns))


def _packed_quotient(f, g) -> list | None:
    """f / g over Q by one bigint division, or None when that proves nothing.

    With F = v_f / D_f and G = c v_g / D_g, v_g primitive, Gauss's lemma makes
    v_f / v_g an int polynomial H whenever G divides F, and then packing maps
    v_f = v_g H to X = Y * pack(H) at any width.  So a nonzero remainder of
    X / Y means G does not divide F.  A zero remainder is accepted once the
    slots hold every coefficient of v_f and of v_g H: the two sides are then
    equal as polynomials because their packed values are.
    """
    df, vf = _clear(f)
    dg, vg = _clear(g)
    content = gcd(*vg)
    if content != 1:
        vg = [y // content for y in vg]
    nq = len(f) - len(g) + 1
    terms = min(len(g), nq).bit_length()
    bf, bg = _bits(vf), _bits(vg)
    k = _slot_bytes(bf + bg + terms + 2)
    quo, rem = divmod(_pack(vf, k), _pack(vg, k))
    if rem:
        return None
    try:
        h = _unpack(quo, nq, k)
    except OverflowError:
        return None
    if bg + _bits(h) + terms >= 8 * k or bf >= 8 * k:
        return None
    return _over(h, dg, df * content)


def zero(ring: Ring) -> Polynomial:
    return Polynomial._raw(ring, [])


def one(ring: Ring) -> Polynomial:
    return Polynomial._raw(ring, [ring.one])


def constant(ring: Ring, c) -> Polynomial:
    c = ring.normalize(c)
    return Polynomial._raw(ring, [] if ring.is_zero(c) else [c])


def monomial(ring: Ring, k: int, coeff=None) -> Polynomial:
    """coeff * q**k (coefficient 1 by default)."""
    if k < 0:
        raise ValueError("monomial degree must be >= 0")
    c = ring.one if coeff is None else ring.normalize(coeff)
    if ring.is_zero(c):
        return Polynomial._raw(ring, [])
    return Polynomial._raw(ring, [ring.zero] * k + [c])


def quantum_integer(n: int, ring: Ring = QQ) -> Polynomial:
    """1 + q + ... + q**(n-1): the polynomial that counts to n at q = 1."""
    if n < 1:
        raise ValueError(f"quantum integer index must be >= 1, got {n}")
    return Polynomial._raw(ring, [ring.one] * n)


def scaled_quantum_integer(n: int, zeta, ring: Ring = QQ) -> Polynomial:
    """sum of zeta**i q**i for i < n; equals quantum_integer(n) at zeta = 1."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    zeta = ring.normalize(zeta)
    if ring.is_zero(zeta):
        raise ValueError("scaling constant must be nonzero")
    vals = [ring.one]
    acc = ring.one
    for _ in range(n - 1):
        acc = ring.mul(acc, zeta)
        vals.append(acc)
    return Polynomial(ring, vals)


def from_rationals(coeffs: Iterable[int | Fraction]) -> Polynomial:
    """Convenience constructor over the rationals."""
    return Polynomial(QQ, coeffs)
