"""Dense exact univariate polynomials in q.

A polynomial is a ring handle plus a tuple of coefficients in ascending
degree order.  The representation is always normalized: the last
coefficient is nonzero and the zero polynomial is the empty tuple.  The
degree of the zero polynomial is None (a true "minus infinity" sentinel:
it cannot slip into arithmetic the way -1 could).

Polynomials are immutable values and every operation is pure.

Multiplication is schoolbook convolution over the sparse operands, except
over Q, where a product with more than PACK_MIN_OPS nonzero coefficient
pairs goes through a packed big-integer kernel (Kronecker substitution)
when it is dense (more than PACK_DENSE pairs per output coefficient) or
carries Fractions (more than one pair per PACK_FRACTION output
coefficients, read off the leading coefficients).  The kernel clears each
operand to one common denominator and an int vector, packs the vector
into one int at a width that provably holds every result coefficient,
makes one bigint product, and unpacks.  Scaling over Q clears to one
common denominator the same way when the scalar or the leading
coefficient is a Fraction.  Exact division over Q, when the long division
would take more than PACK_MIN_OPS steps (quotient length times nonzero
divisor coefficients), packs both sides, takes one bigint quotient and accepts it only when the width
proves it exact; otherwise it falls back to ``divmod``.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable

from .rings import QQ, RationalField, Ring

# Packed-kernel selection over Q; see the module docstring.  Measured on a
# 2-CPU x86 host with Python 3.11: a schoolbook pair costs about 0.08 us on
# ints and 4 us on Fractions, a packed output coefficient about 0.2-0.3 us.
PACK_MIN_OPS = 64
PACK_DENSE = 4
PACK_FRACTION = 16


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
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        # Skip zero coefficients up front: dilated operands are mostly zeros.
        apairs = [(i, x) for i, x in enumerate(a) if not is_zero(x)]
        bpairs = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
        n = len(a) + len(b) - 1
        ops = len(apairs) * len(bpairs)
        # Sparse integer products stay schoolbook: unpacking the packed
        # product costs more than the few pairs do.
        if (ops > PACK_MIN_OPS and isinstance(ring, RationalField)
                and (ops > PACK_DENSE * n
                     or (PACK_FRACTION * ops > n
                         and (type(a[-1]) is Fraction or type(b[-1]) is Fraction)))):
            return Polynomial._raw(ring, _packed_mul(a, b))
        out = [ring.zero] * n
        for i, x in apairs:
            for j, y in bpairs:
                k = i + j
                out[k] = add(out[k], mul(x, y))
        while out and is_zero(out[-1]):
            out.pop()
        return Polynomial._raw(ring, out)

    def scale(self, c) -> "Polynomial":
        """Multiply by a scalar of the same ring."""
        ring = self.ring
        c = ring.normalize(c)
        if ring.is_zero(c):
            return Polynomial._raw(ring, [])
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
        acc = one(self.ring)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

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
        """f(psi(q)) by Horner evaluation in the polynomial ring."""
        self._check_ring(psi)
        if not self.coeffs:
            return self
        acc = constant(self.ring, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * psi + constant(self.ring, c)
        return acc

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
        if not g.coeffs:
            raise ValueError("division by the zero polynomial")
        f, d = self.coeffs, g.coeffs
        if (len(f) >= len(d) and isinstance(self.ring, RationalField)
                and (len(f) - len(d) + 1) * (len(d) - d.count(0)) > PACK_MIN_OPS):
            quo = _packed_quotient(f, d)
            if quo is not None:
                return Polynomial._raw(self.ring, quo)
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
        for i, c in enumerate(self.coeffs):
            if ring.is_zero(c):
                continue
            negative, mag = ring.coeff_display(c)
            if i == 0:
                term = mag
            else:
                var = "q" if i == 1 else f"q^{i}"
                if mag == "1":
                    term = var
                elif mag.isdigit() or (mag.startswith("(") and mag.endswith(")")):
                    term = mag + var
                else:
                    term = f"({mag}){var}"
            if not parts:
                parts.append("-" + term if negative else term)
            else:
                parts.append((" - " if negative else " + ") + term)
        return "".join(parts)


# -- packed kernels over Q ----------------------------------------------------
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


def _clear(coeffs) -> tuple[int, list[int]]:
    """(D, v) with coeffs[i] = v[i] / D and D the lcm of the denominators."""
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


def _packed_mul(a, b) -> list:
    """The product of two nonzero coefficient tuples over Q, by one bigint product.

    Each result coefficient is a sum of at most min(len) products, so it is
    below 2^(bits(max|A|) + bits(max|B|) + bits(min len)) in magnitude and
    the slots hold it.
    """
    da, va = _clear(a)
    db, vb = _clear(b)
    k = _slot_bytes(_bits(va) + _bits(vb) + min(len(a), len(b)).bit_length() + 2)
    z = _pack(va, k) * _pack(vb, k)
    return _over(_unpack(z, len(a) + len(b) - 1, k), 1, da * db)


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
