"""The pair-form Polynomial, frozen as the oracle for ``qfe.poly``.

This is ``qfe.poly`` as it stood while a polynomial stored the pair
(content, primitive), with every power of q dividing it written out as
leading zeros of P.  ``tests/test_triple_oracle.py`` checks the stored
triple (content, exponent, primitive) against it operation by operation.
Only the import of the rings differs from that version.

A polynomial is a ring handle and one stored pair (content, primitive):
a nonzero scalar c and a tuple P of ring elements in ascending degree
order, with value c P.  P is normalized: its last entry is nonzero, and
the zero polynomial is (ring.one, ()).  The degree of the zero polynomial
is None (a true "minus infinity" sentinel: it cannot slip into arithmetic
the way -1 could).

Over Q the pair is canonical: P is a primitive int tuple (gcd 1, last
entry positive) and c is a nonzero rational, an int when integral.  Each
rational polynomial has exactly one such pair, so ``==`` and ``hash``
compare pairs.  Gauss's lemma (a product of primitive int polynomials is
primitive) makes the pair of a product (c_a c_b, P_a P_b), with no common
denominator and no gcd, and the pair of an exact quotient
(c_f / c_g, P_f / P_g), where P_f / P_g is an int polynomial.  Scaling,
negation, dilation, shifts and the reciprocal change c, or its sign, and
keep or rearrange P.  Over GF(p) and Q(zeta_d) the content is ring.one
and P is the coefficient tuple.  ``coeffs`` is the tuple of coefficients
c P_i, normalized as the ring normalizes scalars; over Q it is P itself
when c = 1.

Polynomials are immutable values and every operation is pure.

Every sum, product and composition runs on int slots, in all three
rings, through one codec: ``_slots`` writes a polynomial as one int vector
over one denominator, a slotwise sum or a convolution combines the
vectors, and ``_decode`` reduces the result slots, drops the top
coefficients that cancel, and maps the rest back over the denominators:

* over Q the slots are the primitive part times the content's numerator,
  over its denominator.  A product skips the codec: by Gauss's lemma it
  is (c_a c_b, P_a P_b), with no denominator and no gcd;
* over GF(p) the residues are the slots, and the result is reduced mod p;
* over Q(zeta_d) a coefficient's phi coordinates take the first phi of a
  row of 2 phi - 1 slots, so the product of two rows never spills into
  the next: the convolution gives the product in Z[q, z] before
  reduction.  The last row stops after its phi coordinates, so a product
  has whole rows.  Each result row is reduced modulo the monic integer
  Phi_d, top slot first, and divided by the denominators.

Every product is f(q) g(q^m), one convolution with g's slots at stride
m: m = 1 for ``*``, and the paper's f_m(q) (x) f_n(q) = f_m(q) f_n(q^m)
for ``sequences.otimes``, which so never builds f_n(q^m).  Over Q and
GF(p) the stride is m slots; over Q(zeta_d) it is m rows of 2 phi - 1.
One rule, counted on slots and bytes, picks the convolution in every ring:
more than PACK_MIN_OPS nonzero slot pairs, and more than PACK_DENSE of
them per byte of the packed result, make one bigint product (Kronecker
substitution) at a width of k bytes per slot that provably holds every
result slot.  The stride spreads g's bytes as it packs them.  Any other
product goes pair by pair over the nonzero slots, so the zeros of a
dilation make no work.  A packed square packs its operand once, and
CPython squares an int faster than it multiplies two.

Over Q(zeta_d), f = sum_j z^j f_j (j < phi) with coordinate polynomials
f_j in Q[q].  ``_coordinatewise`` applies a Q-linear map to each nonzero
f_j, an int vector over its denominator.  Scaling by a rational, -1 among
them, is such a map; by any other scalar it is a product with a constant.

Exact division has three branches, chosen by the divisor's shape and size.
The first two divide one int vector at a time: over Q the primitive part,
over GF(p) the residues, and over Q(zeta_d), for a divisor a g' with g' in
Q[q], each f_j.  g' divides f exactly when it divides every f_j, since 1,
z, ..., z^(phi - 1) is a basis over Q; the quotient is (sum z^j f_j / g') / a.

* A divisor a [n]_{q^u} (n >= 2, u >= 1: one nonzero entry a at each of
  0, u, ..., (n - 1) u) divides v in linear time through the identity
  (1 - q^u) [n]_{q^u} = 1 - q^(un).  One pass of subtractions makes
  t = (1 - q^u) v, and the power series division of t by 1 - q^(un),
  h_i = t_i + h_(i - un), runs one slice addition per block of un entries
  or one running sum per residue class, whichever is fewer.  Then
  h (1 - q^(un)) equals t below the quotient's length, and the branch
  accepts h only when the top un entries of t equal those of -q^(un) h,
  mod p over GF(p).  That proves t = h (1 - q^u) [n]_{q^u}, so
  v = h [n]_{q^u} as 1 - q^u is no zero divisor; conversely, when
  [n]_{q^u} divides v the power series quotient is the exact one, so a
  mismatch, or a nonzero v shorter than [n]_{q^u}, proves it inexact.
* Any other divisor, over Q or rational over Q(zeta_d), when the long
  division would take more than PACK_MIN_OPS steps (quotient length times
  nonzero divisor coefficients), takes one bigint quotient of packed int
  vectors, accepted only when the width proves it exact.
* Every other case, and every packed quotient the width does not prove,
  falls back to ``divmod``, the long division, which over Q also divides
  the primitive parts in ints.

Composition f(psi) = sum c_i psi^i = sum (c_2i + c_2i+1 psi) (psi^2)^i
runs level by level on int slots.  f and psi are encoded once, padded to
whole rows over Q(zeta_d), and the result is decoded once.  Level i holds
its terms, polynomials of fewer than w coefficients, as blocks of one slot
vector.  It lays the odd terms out as blocks of width w + deg psi_i, with
psi_i = psi^(2^i): each block's product with psi_i has degree below that
width, so one convolution of the vector with psi_i makes every product of
the level, none overlapping the next.  The even terms, laid out the same
way and scaled by psi_i's denominator, are added as one vector, which also
carries an odd last term up unpaired.  Only while more than one term
remains are the level's slots then reduced (mod p, or each row modulo
Phi_d) and psi_i squared; the decoder reduces the last level's.  So f of
length N costs about 2 log2 N convolutions, not one product per pair of
terms.  Blocks move by slice assignment, one slice per row or one per
block, whichever is fewer.  A constant psi is a scalar: f(psi) is then f
evaluated there.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat, zip_longest
from math import gcd, lcm
from operator import add, attrgetter, is_, ne, sub
from threading import Lock

from qfe.rings import QQ, CyclotomicField, PrimeField, RationalField, Ring, power

# Product selection, on slots; see the module docstring.  Measured on a
# 2-CPU x86 host with Python 3.11: an int slot pair costs 0.06-0.17 us pair
# by pair, a packed result byte 0.014-0.09 us, a ratio of 0.16-1.1 by
# shape.  Over every product of more than PACK_MIN_OPS pairs in two blocks
# of each perfbench workload, the total time is flat for PACK_DENSE from
# 0.2 to 0.6, and 0.5 holds back the wide slots where packing costs most.
PACK_MIN_OPS = 64
PACK_DENSE = 0.5


class InexactDivision(ArithmeticError):
    """Raised when exact_div is asked for a division with nonzero remainder."""


class Polynomial:
    __slots__ = ("ring", "content", "primitive")

    def __new__(cls, ring: Ring, coeffs: Iterable = ()):
        vals = [ring.normalize(c) for c in coeffs]
        while vals and ring.is_zero(vals[-1]):
            vals.pop()
        return cls._raw(ring, vals)

    @classmethod
    def _raw(cls, ring: Ring, vals: Sequence) -> "Polynomial":
        # Internal: vals already normalized, trailing zeros stripped.
        return cls._pair(ring, *_split(ring, vals))

    @classmethod
    def _pair(cls, ring: Ring, content, primitive: tuple) -> "Polynomial":
        # Internal: (content, primitive) already in the stored form.
        self = object.__new__(cls)
        _set_ring(self, ring)
        _set_content(self, content)
        _set_primitive(self, primitive)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure --

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending degree order, content times P."""
        c = self.content
        if c == self.ring.one:
            return self.primitive
        return tuple(_over(self.primitive, c.numerator, c.denominator))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.primitive) - 1 if self.primitive else None

    def is_zero(self) -> bool:
        return not self.primitive

    def coefficient(self, i: int):
        if i < 0:
            raise IndexError("negative degree")
        P, ring = self.primitive, self.ring
        if i >= len(P):
            return ring.zero
        c = self.content
        return P[i] if c == ring.one else ring.normalize(ring.mul(c, P[i]))

    @property
    def constant_term(self):
        return self.coefficient(0)

    def valuation(self) -> int:
        """Largest power of q dividing the polynomial (index of first nonzero)."""
        P = self.primitive
        if not P:
            raise ValueError("the zero polynomial has no valuation")
        return next(compress(range(len(P)), _mask(self.ring, P)))

    # -- arithmetic --

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Slot by slot, both operands over the lcm of their denominators."""
        self._check_ring(other)
        if not (self.primitive and other.primitive):
            return other if self.is_zero() else self
        ring = self.ring
        da, u = _slots(ring, self)
        db, v = _slots(ring, other)
        den = lcm(da, db)
        ka, kb = den // da, den // db
        if len(u) < len(v):
            u, v, ka, kb = v, u, kb, ka
        out = list(u) if ka == 1 else [x * ka for x in u]
        for i in compress(range(len(v)), v):
            out[i] += kb * v[i]
        return _decode(ring, out, den)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return _product(self, other, 1)

    def scale(self, c) -> "Polynomial":
        """Multiply by a scalar of the same ring."""
        ring = self.ring
        c = ring.normalize(c)
        if c == ring.one or not self.primitive:
            return self
        if ring.is_zero(c):
            return zero(ring)
        if isinstance(ring, RationalField):
            return Polynomial._pair(ring, ring.normalize(c * self.content), self.primitive)
        if isinstance(ring, CyclotomicField):  # a rational c makes no product
            return self * constant(ring, c) if any(c[1:]) else _coordinatewise(self, c[0], list)
        mul = ring.mul
        return Polynomial._pair(ring, ring.one, tuple([mul(c, x) for x in self.primitive]))

    def shift(self, k: int) -> "Polynomial":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if not k or not self.primitive:
            return self
        return Polynomial._pair(self.ring, self.content,
                                (self.ring.zero,) * k + self.primitive)

    def unshift(self, k: int) -> "Polynomial":
        """Divide by q**k, which must divide the polynomial."""
        if k < 0:
            raise ValueError("unshift exponent must be >= 0")
        if not k or not self.primitive:
            return self
        if self.valuation() < k:
            raise ValueError(f"q^{k} does not divide {self}")
        # P without leading zeros is still primitive: the content is kept.
        return Polynomial._pair(self.ring, self.content, self.primitive[k:])

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, Polynomial.__mul__) if k else one(self.ring)

    # -- the operations the functional equation is built from --

    def dilate(self, m: int) -> "Polynomial":
        """The substitution q -> q**m."""
        if m < 1:
            raise ValueError(f"dilation exponent must be >= 1, got {m}")
        P = self.primitive
        if m == 1 or not P:
            return self
        out = [self.ring.zero] * ((len(P) - 1) * m + 1)
        out[::m] = P
        return Polynomial._pair(self.ring, self.content, tuple(out))

    def compose(self, psi: "Polynomial") -> "Polynomial":
        """f(psi(q)), level by level on int slots; see the module docstring."""
        self._check_ring(psi)
        ring, n = self.ring, len(self.primitive)
        if n < 2:
            return self
        d = len(psi.primitive) - 1
        if d < 1:
            return constant(ring, self.evaluate(psi.constant_term))
        # Slots per coefficient: a row of 2 phi - 1 over Q(zeta_d), else 1.
        r = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
        # The top coefficient of f(psi), c_(n-1) lead(psi)^(n-1), is nonzero.
        top = r * ((n - 1) * d + 1)
        den, v = _slots(ring, self)  # the n terms, w = 1 coefficient each
        den_psi, s = _slots(ring, psi)  # psi_i = s / den_psi, of degree d
        if r > 1:  # whole rows: _slots stops the last after phi coordinates
            v, s = v + [0] * (r // 2), s + [0] * (r // 2)
        w = 1
        while n > 1:
            half, b, B = n // 2, r * w, r * (w + d)
            # Block j of odd * psi_i has degree below w + d: it fills
            # [j B, j B + B) and nothing past half B.
            odd = _relay(v, b, 2 * b, half, b, B)
            del odd[len(odd) - B + b:]
            prod = _convolve(odd, s)
            v = _relay(v, 0, 2 * b, n - half, b, B)  # and the odd last term
            if den_psi != 1:
                v = [x * den_psi for x in v]
            v[:half * B] = map(add, v[:half * B], prod)
            den *= den_psi
            n, w = n - half, w + d
            if n > 1:  # _decode reduces the last level
                v = _reduce(ring, v)
                s = _convolve(s, s)
                del s[r * (2 * d + 1):]
                s = _reduce(ring, s)
                den_psi *= den_psi
                d *= 2
        del v[top:]
        return _decode(ring, v, den)

    def reciprocal(self) -> "Polynomial":
        """q**deg(f) * f(1/q): the coefficient-reversed polynomial."""
        if not self.primitive:
            raise ValueError("the zero polynomial has no reciprocal")
        ring, c = self.ring, self.content
        out = self.primitive[self.valuation():][::-1]
        if isinstance(ring, RationalField) and out[-1] < 0:
            return Polynomial._pair(ring, -c, tuple([-x for x in out]))
        return Polynomial._pair(ring, c, out)

    def divmod(self, g: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(quo, rem) with f = quo * g + rem and rem zero or of lower degree than g.

        The one general long division; every nonzero scalar is a unit here.
        Over Q it divides the primitive parts in ints (``_int_divmod``):
        D P_f = Q P_g + R gives f = (c_f / (c_g D)) Q g + (c_f / D) R.
        """
        self._check_ring(g)
        if not g.primitive:
            raise ValueError("division by the zero polynomial")
        ring = self.ring
        dd = len(g.primitive) - 1
        if len(self.primitive) <= dd:
            return zero(ring), self
        if isinstance(ring, RationalField):
            den, quo, rem = _int_divmod(self.primitive, g.primitive)
            c = self.content
            cq, quo = _primitive(quo, den)
            quo = Polynomial._pair(ring, ring.normalize(Fraction(c) * cq / g.content), quo)
            if not rem:
                return quo, zero(ring)
            cr, rem = _primitive(rem, den)
            return quo, Polynomial._pair(ring, ring.normalize(c * cr), rem)
        rem = list(self.primitive)
        divisor = g.primitive
        sub, mul, is_zero = ring.sub, ring.mul, ring.is_zero
        lead_inv = ring.inv(divisor[-1])
        g_pairs = [(j, y) for j, y in enumerate(divisor) if not is_zero(y)]
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
        """The quotient f / g when g divides f exactly; InexactDivision otherwise.

        The branch follows the divisor (see the module docstring): through
        1 - q^(un) for g = a [n]_{q^u}, one bigint quotient for a longer
        division, and ``divmod`` for the rest and for any packed quotient
        that its width does not prove.
        """
        self._check_ring(g)
        ring = self.ring
        f, d = self.primitive, g.primitive
        if len(f) >= len(d):
            shape = _geometric_shape(ring, d)
            if shape:  # g = a [n]_{q^u}, with a the content over Q
                a = g.content if isinstance(ring, RationalField) else d[0]
                quo = _quotient(self, a, lambda R, v: _geometric_div(R, v, *shape))
                if quo is None:
                    raise InexactDivision(f"{g} does not divide {self}")
                return quo
            if (len(f) - len(d) + 1) * (len(d) - d.count(ring.zero)) > PACK_MIN_OPS:
                quo = _packed_div(self, g)
                if quo is not None:
                    return quo
        quo, rem = self.divmod(g)
        if rem.primitive:
            if len(f) < len(d):
                raise InexactDivision(f"degree of {self} is below degree of divisor")
            raise InexactDivision(f"{g} does not divide {self}")
        return quo

    def evaluate(self, x):
        """Value at a scalar of the same ring (Horner)."""
        ring = self.ring
        x = ring.normalize(x)
        acc = ring.zero
        for c in reversed(self.primitive):
            acc = ring.add(ring.mul(acc, x), c)
        c = self.content
        return acc if c == ring.one else ring.normalize(ring.mul(c, acc))

    # -- equality, hashing, display --

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.content == other.content
                and self.primitive == other.primitive)

    def __hash__(self):
        return hash((self.ring, self.content, self.primitive))

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Polynomial({self.ring}, {list(self.coeffs)!r})"

    def pretty(self) -> str:
        """Ascending terms joined with " + " / " - "; unit coefficients elided."""
        P = self.primitive
        if not P:
            return "0"
        ring, c = self.ring, self.content
        scaled = c != ring.one
        # (negative, magnitude, prefix before q) per distinct nonzero entry
        # of P: a value's coefficients repeat a few scalars.
        shown = {x: _display(ring, ring.normalize(ring.mul(c, x)) if scaled else x)
                 for x in set(P) if not ring.is_zero(x)}
        if len(_POWERS) < len(P):
            with _POWERS_GROWING:  # two threads must not append the same q^i
                _POWERS.extend([f"q^{i}" for i in range(len(_POWERS), len(P))])
        # One mask picks the nonzero entries and the texts of their powers;
        # tuple() returns P itself, and materialises the map over Q(zeta_d).
        mask = tuple(_mask(ring, P))
        scalars, powers = compress(P, mask), compress(_POWERS, mask)
        negative, mag, prefix = shown[next(scalars)]
        power = next(powers)
        head = prefix + power if power else mag
        # Every later term has i >= 1: its sign, prefix and q^i.
        joined = {x: (" - " if neg else " + ") + pre
                  for x, (neg, _, pre) in shown.items()}
        tail = map(add, map(joined.__getitem__, scalars), powers)
        return ("-" + head if negative else head) + "".join(tail)


# The slots' own setters, which __setattr__ does not reach.
_set_ring = Polynomial.ring.__set__
_set_content = Polynomial.content.__set__
_set_primitive = Polynomial.primitive.__set__


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


# "", "q", "q^2", ...: the text of q^i at index i, shared by every pretty
# call and grown to the longest primitive part printed so far.  It never
# shrinks, so a call that found it long enough can read it while another
# thread grows it.
_POWERS = ["", "q"]
_POWERS_GROWING = Lock()


def _mask(ring: Ring, P) -> Iterable:
    """P's entries as truth values, true where nonzero: P itself, or over
    Q(zeta_d), where a zero tuple is truthy, a lazy map read once."""
    if isinstance(ring, CyclotomicField):
        return map(ne, P, repeat(ring.zero))
    return P


def _split(ring: Ring, vals: Sequence) -> tuple:
    """The stored pair of the normalized coefficients vals (no trailing zero)."""
    if not vals:
        return ring.one, ()
    if isinstance(ring, RationalField):
        den, ints = _clear(vals)
        return _primitive(ints, den)
    return ring.one, tuple(vals)


def _primitive(ints: Sequence[int], den: int = 1) -> tuple:
    """(c, P) with ints / den = c P, P primitive with a positive last entry.

    ints must end in a nonzero entry; den > 0.
    """
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    P = tuple(ints) if g == 1 else tuple([x // g for x in ints])
    return (g if den == 1 else QQ.normalize(Fraction(g, den))), P


def _int_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(D, q, r) with D f = q g + r for int vectors, r shorter than g and
    without trailing zeros, for g with a positive last entry.

    Before each step the long division scales what is left of f, and q so
    far, by the least factor that makes the leading term divisible by g's,
    so a monic g never scales and every step stays in ints.
    """
    lead, dd = g[-1], len(g) - 1
    g_pairs = [(j, y) for j, y in enumerate(g) if y]
    rem, quo, den = list(f), [0] * (len(f) - dd), 1
    for i in range(len(quo) - 1, -1, -1):
        t = rem[i + dd]
        if t:
            s = lead // gcd(t, lead)
            if s != 1:
                rem = [x * s for x in rem]
                quo = [x * s for x in quo]
                den *= s
            c = rem[i + dd] // lead
            quo[i] = c
            for j, y in g_pairs:
                rem[i + j] -= c * y
    del rem[dd:]
    while rem and not rem[-1]:
        rem.pop()
    return den, quo, rem


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
    types: a rational sum may hold Fraction(k, 1), whose denominator is 1.
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


def _pack(ints, k: int, m: int = 1, w: int = 1) -> int:
    """sum ints[i] 2^(8k s_i); every |ints[i]| must be below 2^(8k-1).

    The slots come in rows of w, and row r lands at row m r: slot
    i = w r + j at s_i = w m r + j, so m = 1 packs ints as they stand.  The
    spread moves bytes: one slice assignment per byte of a row.
    """
    code = _SLOT_CODES.get(k)
    if code is not None:
        slots = array(code, ints)
        if sys.byteorder == "big":
            slots.byteswap()
        raw = slots.tobytes()
    else:
        raw = b"".join([x.to_bytes(k, "little", signed=True) for x in ints])
    if m > 1:
        row = w * k
        buf = bytearray(len(raw) + (len(ints) - 1) // w * (m - 1) * row)
        for b in range(row):
            buf[b::m * row] = raw[b::row]
        raw = buf
    bias = _bias(len(raw) // k, k)
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


def _slots(ring: Ring, f: Polynomial) -> tuple[int, Sequence[int]]:
    """(D, v) with f = v / D on slots: over Q the primitive part times the
    content's numerator, over GF(p) the residues.  Over Q(zeta_d)
    coefficient i takes slots (2 phi - 1) i + j for its coordinates j < phi,
    and v ends after the last coefficient's.  f must be nonzero."""
    P = f.primitive
    if isinstance(ring, RationalField):
        c = f.content
        if type(c) is int:
            return 1, (P if c == 1 else [c * x for x in P])
        return c.denominator, [c.numerator * x for x in P]
    if isinstance(ring, PrimeField):
        return 1, P
    phi = ring.phi
    w = 2 * phi - 1
    flat = [0] * (w * len(P) - phi + 1)
    for j, column in enumerate(zip(*P)):
        flat[j::w] = column
    return _clear(flat)


def _decode(ring: Ring, v: list[int], den: int) -> Polynomial:
    """The polynomial whose slots over den are v, reduced and stripped of
    top coefficients that cancel (a sum may cancel to zero); over Q(zeta_d)
    rows of 2 phi - 1 slots, the last possibly cut after phi."""
    v = _reduce(ring, v)
    while v and not v[-1]:
        v.pop()
    if not v:
        return zero(ring)
    if isinstance(ring, RationalField):
        return Polynomial._pair(ring, *_primitive(v, den))
    if isinstance(ring, PrimeField):
        return Polynomial._pair(ring, ring.one, tuple(v))
    phi = ring.phi
    w = 2 * phi - 1
    v += [0] * (phi - 1 - (len(v) - 1) % w)  # the last row's phi coordinates
    columns = [_over(v[j::w], 1, den) for j in range(phi)]
    return Polynomial._pair(ring, ring.one, tuple(zip(*columns)))


def _reduce(ring: Ring, v: list[int]) -> list[int]:
    """The slots v with each coefficient reduced: mod p over GF(p); over
    Q(zeta_d) each row to its first phi slots, in place; as they are over Q.
    """
    if isinstance(ring, PrimeField):
        p = ring.p
        return [x % p for x in v]
    if isinstance(ring, CyclotomicField):
        phi = ring.phi
        w = 2 * phi - 1
        # Row r holds the coordinates of z^0 .. z^(2 phi - 2) of coefficient
        # r.  With Phi_d = z^phi + sum m_j z^j, slot t >= phi of a row carries
        # c z^t = -c sum m_j z^(t - phi + j); reduce the top slot first, all
        # rows at once.
        terms = [(j, m) for j, m in enumerate(ring.modulus[:phi]) if m]
        for t in range(w - 1, phi - 1, -1):
            top = v[t::w]
            if any(top):
                for j, m in terms:
                    s = t - phi + j
                    v[s::w] = [x - m * c for x, c in zip(v[s::w], top)]
                v[t::w] = [0] * len(top)
    return v


def _relay(v: Sequence[int], start: int, step: int, count: int, width: int,
           stride: int) -> list[int]:
    """count blocks of width slots, read from v at start + j step and laid
    out at j stride over zeros: one slice per row or one per block,
    whichever is fewer."""
    out = [0] * (count * stride)
    if width < count:
        end = start + count * step
        for t in range(width):
            out[t::stride] = v[start + t:end + t:step]
    else:
        for j in range(count):
            a = start + j * step
            out[j * stride:j * stride + width] = v[a:a + width]
    return out


def _product(f: Polynomial, g: Polynomial, m: int) -> Polynomial:
    """f(q) g(q^m), with g's slots at stride m: f_n(q^m) is never built."""
    f._check_ring(g)
    ring = f.ring
    a, b = f.primitive, g.primitive
    if not a or not b:
        return zero(ring)
    if isinstance(ring, RationalField):
        # Gauss: P_a P_b(q^m) is primitive, with a positive last entry.
        return Polynomial._pair(ring, ring.normalize(f.content * g.content),
                                tuple(_convolve(a, b, m)))
    da, u = _slots(ring, f)
    db, v = (da, u) if g is f else _slots(ring, g)
    w = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
    return _decode(ring, _convolve(u, v, m, w), da * db)


def _convolve(u: Sequence[int], v: Sequence[int], m: int = 1,
              w: int = 1) -> list[int]:
    """The product of u and v at stride m, two nonempty int vectors: v's
    rows of w slots spread m rows apart, as ``_pack`` lays them out, so
    u(q) v(q^m) when a coefficient is a row.  A square (v is u, m = 1)
    packs once.

    The packed product costs about the result's bytes, n k, and the pair
    by pair one its nonzero slot pairs, so it packs when there are more
    than PACK_MIN_OPS pairs and more than PACK_DENSE per result byte.  Each
    result slot then sums at most min(nnz) products of slots, so it is
    below 2^(bits(max|u|) + bits(max|v|) + bits(min(nnz))) in magnitude
    and the k-byte slots hold it.  Pair by pair, the outer loop places each
    nonzero slot of v once at its spread slot, and the inner one runs over
    u's nonzero slots; at m = 1 the operand with fewer takes the outer loop.
    """
    n = len(u) + len(v) - 1 + (len(v) - 1) // w * w * (m - 1)
    nu, nv = len(u) - u.count(0), len(v) - v.count(0)
    ops = nu * nv
    if ops > PACK_MIN_OPS and ops > PACK_DENSE * n:
        k = _slot_bytes(_bits(u) + _bits(v) + min(nu, nv).bit_length() + 2)
        if ops > PACK_DENSE * n * k:
            x = _pack(u, k)
            y = x if v is u and m == 1 else _pack(v, k, m, w)
            return _unpack(x * y, n, k)
    if m == 1 and nv > nu:
        u, v = v, u
    out = [0] * n
    inner = list(compress(range(len(u)), u))
    spread = w * (m - 1)
    for j in compress(range(len(v)), v):
        y, s = v[j], j + j // w * spread  # v's slot j lands at slot s
        for i in inner:
            out[s + i] += u[i] * y
    return out


def _geometric_shape(ring: Ring, d: tuple) -> tuple[int, int] | None:
    """(n, u) when the primitive part d is a [n]_{q^u} with n >= 2, u >= 1:
    the entry a at 0, u, ..., (n - 1) u and zeros elsewhere."""
    if len(d) < 2 or d[0] != d[-1]:
        return None
    a = d[0]
    u = d.index(a, 1)
    n = (len(d) - 1) // u + 1
    if (len(d) - 1) % u or d.count(ring.zero) != len(d) - n or d[::u].count(a) != n:
        return None
    return n, u


def _geometric_div(ring: Ring, v: Sequence[int], n: int, u: int) -> list[int] | None:
    """v / [n]_{q^u} through 1 - q^(un) for an int vector v over Q or GF(p),
    or None when [n]_{q^u} does not divide v.  See the module docstring."""
    period, nq = u * n, len(v) - u * (n - 1)
    if nq < 1:  # a nonzero v shorter than [n]_{q^u}
        return None
    h = list(map(sub, chain(v, repeat(0, u)), chain(repeat(0, u), v)))  # t = (1 - q^u) v
    top = h[nq:]
    del h[nq:]
    if period * period < nq:  # h = t / (1 - q^(un)): h_i += h_(i - un)
        for r in range(period):
            h[r::period] = accumulate(h[r::period])
    else:
        for s in range(period, nq, period):
            h[s:s + period] = map(add, h[s:s + period], h[s - period:s])
    # Above h's slots, h (1 - q^(un)) leaves only -q^(un) h.
    lo = max(0, period - nq)
    top[lo:] = map(add, top[lo:], h[nq - period + lo:])
    return None if any(_reduce(ring, top)) else h


def _packed_div(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g by bigint quotients over Q, and over Q(zeta_d) for a rational
    g, or None when that proves nothing."""
    ring, d = f.ring, g.primitive
    if isinstance(ring, RationalField):
        return _quotient(f, g.content, lambda R, v: _packed_quotient(v, d))
    if isinstance(ring, CyclotomicField) and not any(any(c[1:]) for c in d):
        c, vg = _split(QQ, [c[0] for c in d])
        return _quotient(f, ring.normalize(c), lambda R, v: _packed_quotient(v, vg))
    return None


def _quotient(f: Polynomial, a, divide) -> Polynomial | None:
    """f / (a g') for a scalar a and an int polynomial g', with divide(R, v)
    the int vector v / g' over R = Q or GF(p), or None when it fails."""
    ring = f.ring
    if isinstance(ring, CyclotomicField):
        rational = not any(a[1:])
        quo = _coordinatewise(f, Fraction(1, a[0]) if rational else 1, lambda v: divide(QQ, v))
        return quo if rational or quo is None else quo.scale(ring.inv(a))
    h = divide(ring, f.primitive)
    if h is None:
        return None
    if isinstance(ring, RationalField):
        # Gauss: P_g h = P_f is primitive, so h is, with a positive last entry.
        return Polynomial._pair(ring, ring.normalize(Fraction(f.content) / a), tuple(h))
    return _decode(ring, h, 1).scale(ring.inv(a))


def _coordinatewise(f: Polynomial, r, linear) -> Polynomial | None:
    """r sum_j z^j linear(f_j) for f = sum_j z^j f_j over Q(zeta_d), a rational
    r and a Q-linear map on int vectors, or None when linear returns None:
    each nonzero f_j = v / D, without its top zeros, maps to linear(v) r / D."""
    columns = []
    for column in zip(*f.primitive):
        n = len(column)
        if any(column):
            while not column[n - 1]:
                n -= 1
            den, v = _clear(column[:n])
            h = linear(v)
            if h is None:
                return None
            columns.append(_over(h, r.numerator, r.denominator * den))
        else:
            columns.append(())
    return Polynomial._pair(f.ring, f.ring.one, tuple(zip_longest(*columns, fillvalue=0)))


def _packed_quotient(vf: Sequence[int], vg: Sequence[int]) -> list[int] | None:
    """vf / vg for a primitive vg by one bigint division, or None when that
    proves nothing.

    By Gauss's lemma vf / vg is an int polynomial H whenever vg divides vf
    over Q, and then packing maps vf = vg H to X = Y * pack(H) at any width.
    So a nonzero remainder of X / Y means vg does not divide vf.  A zero
    remainder is accepted once the slots hold every coefficient of vf and
    of vg H: the two sides are then equal as polynomials because their
    packed values are.
    """
    nq = len(vf) - len(vg) + 1
    terms = min(len(vg), nq).bit_length()
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
    return h


def zero(ring: Ring) -> Polynomial:
    return Polynomial._pair(ring, ring.one, ())


def one(ring: Ring) -> Polynomial:
    return Polynomial._pair(ring, ring.one, (ring.one,))


def constant(ring: Ring, c) -> Polynomial:
    c = ring.normalize(c)
    if ring.is_zero(c):
        return zero(ring)
    if isinstance(ring, RationalField):
        return Polynomial._pair(ring, c, (1,))
    return Polynomial._pair(ring, ring.one, (c,))


def monomial(ring: Ring, k: int, coeff=None) -> Polynomial:
    """coeff * q**k (coefficient 1 by default)."""
    if k < 0:
        raise ValueError("monomial degree must be >= 0")
    return (one(ring) if coeff is None else constant(ring, coeff)).shift(k)


def quantum_integer(n: int, ring: Ring = QQ) -> Polynomial:
    """1 + q + ... + q**(n-1): the polynomial that counts to n at q = 1."""
    if n < 1:
        raise ValueError(f"quantum integer index must be >= 1, got {n}")
    return Polynomial._pair(ring, ring.one, (ring.one,) * n)


def scaled_quantum_integer(n: int, zeta, ring: Ring = QQ) -> Polynomial:
    """sum of zeta**i q**i for i < n, with the powers of zeta multiplied out
    only until one returns to ring.one: from there they repeat."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if zeta == ring.one:
        return quantum_integer(n, ring)
    zeta = ring.normalize(zeta)
    if ring.is_zero(zeta):
        raise ValueError("scaling constant must be nonzero")
    powers, acc = [ring.one], zeta
    while len(powers) < n and acc != ring.one:
        powers.append(acc)
        acc = ring.mul(acc, zeta)
    return Polynomial._raw(ring, (powers * (n // len(powers) + 1))[:n])


def from_rationals(coeffs: Iterable[int | Fraction]) -> Polynomial:
    """Convenience constructor over the rationals."""
    return Polynomial(QQ, coeffs)
