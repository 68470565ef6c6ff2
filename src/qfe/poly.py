"""Dense exact univariate polynomials in q.

A polynomial is a ring handle and one stored quadruple (content, exponent,
stride, primitive): a nonzero scalar c, ints s, u >= 0 and a tuple P of
ring elements in ascending degree order, with value c q^s P(q^u).  P's
first and last entries are nonzero, so s is the valuation, and u is the gcd
of the exponents of P(q^u)'s terms (FLINT's deflation), 0 for a monomial.
The zero polynomial is (ring.one, 0, 0, ()), of degree None (a true "minus
infinity" sentinel: it cannot slip into arithmetic the way -1 could).

Over Q the quadruple is canonical: P is a primitive int tuple (gcd 1, last
entry positive) and c a nonzero rational, an int when integral, so ``==``
and ``hash`` compare quadruples.  By Gauss's lemma (a product of primitive
int polynomials is primitive) f(q) g(q^m) has content c_f c_g, with no
denominator, gcd or low zero as P_f(0) P_g(0) != 0, and an exact quotient
c_f / c_g.  Scaling, negation, dilation (s and u times m), shifts and the
reciprocal change c or its sign, s and u, and keep or rearrange P.  Over
GF(p) and Q(zeta_d) c is ring.one.  ``coeffs`` is s zeros, then the c P_i
u - 1 zeros apart, normalized as the ring normalizes scalars.  Zeros are
written out only in ``coeffs``, ``coefficient``, ``evaluate`` (Horner at
x^u), ``compose``, ``divmod`` and the int vectors that ``kernels`` takes.
Polynomials are immutable values and every operation is pure.

Every sum, product and composition runs on int slots, in all three
rings, through one codec: ``_slots`` writes a polynomial as one int vector
over one denominator, a slotwise sum or a convolution combines the
vectors, and ``_decode`` reduces the result slots, drops the top and low
coefficients that cancel, deflates, and maps the rest back over the
denominators:

* over Q the slots are the primitive part times the content's numerator,
  over its denominator.  A product skips the codec (Gauss's lemma);
* over GF(p) the residues are the slots, and the result is reduced mod p;
* over Q(zeta_d) a coefficient's phi coordinates take the first phi of a
  row of 2 phi - 1 slots, so the product of two rows never spills into
  the next: the convolution gives the product in Z[q, z] before
  reduction.  The last row stops after its phi coordinates, so a product
  has whole rows.  Each result row is reduced modulo Phi_d by the ring's
  fold table: each high column folds straight into the low columns that
  z^t mod Phi_d names, and the rows are divided by the denominators.

Sums and products run in q^d, d the gcd of the strides (and of the
valuations' gap, for a sum; 1 with no gcd when no stride passes 1), with
an operand's slots (rows) u / d apart.  The result is deflated once, as
cancellation can raise the stride: (1 + q)(1 - q) = 1 - q^2.  Slot 1
nonzero proves stride d with no scan.

Every product is f(q) g(q^m): m = 1 for ``*``, and the paper's
f_m(q) (x) f_n(q) = f_m(q) f_n(q^m) for ``sequences.otimes``, which so
never builds f_n(q^m).  By the operands' forms:

* a q^s [n]_{q^(dk)} on either side (P is n >= 2 entries a), in every
  ring and for every a, takes the geometric row, in linear time: the
  other's int vector times [n]_{q^k} is its running sums at step k less
  the same sums kn slots on (see ``kernels``), a map that ``_mapped``
  (below) applies with a.
* Any other product is one ``kernels._convolve`` with g's slots at stride
  m u_g / d, f written out to stride d only when u_f / d > 1: one packed
  bigint product or pair by pair, by the one rule of ``kernels``.

``_mapped`` makes a c_f q^s P(q^u) from a scalar a and a Z-linear map on
int vectors that keeps a vector's ends nonzero (a product, an exact
quotient, the identity), P the map of P_f, with one tail per ring: over
Q the content is c_f a (Gauss: no gcd), over GF(p) a is folded in and the
result reduced once (a field has no zero divisors, so the ends stay
nonzero), and over Q(zeta_d), f = sum_j z^j f_j (j < phi) with f_j in
Q[q], each nonzero f_j, an int vector over its denominator, is mapped,
with a rational a folded into that denominator.  A scalar a that is not
rational acts on z and the map on q, so it scales f first.  Scaling by a
scalar of GF(p), or by a rational over Q(zeta_d), is the identity map; by
any other scalar over Q(zeta_d) it is a product with a constant.

As P_g(0) != 0, g divides f exactly only when s_g <= s_f and g's degree
span (degree less valuation) is no larger than f's: anything else is
inexact before any slot work.  Then one table, keyed by the form of g,
divides P_f at d = gcd(u_f, u_g) and subtracts s_g.  For g = a g' with g'
an int polynomial, its kernels divide one int vector at a time, through
``_mapped`` with 1 / a: over Q the primitive part, over GF(p) the
residues, and over Q(zeta_d) each f_j, as g' divides f exactly when it
divides every f_j (1, z, ..., z^(phi - 1) is a basis over Q).

* g = a q^(s_g) only scales.
* g = a q^(s_g) [n]_{q^(du)} (n >= 2), in every ring, divides v by
  [n]_{q^u} in linear time with ``kernels._geometric_div``, the geometric
  row run backwards, at p = 0 over Q and Q(zeta_d) and at p over GF(p).
* Any other g with an integer form, a q^(s_g) g' with g' a primitive int
  vector (over Q, and with rational coefficients over Q(zeta_d)), divides
  by g' in ints with ``kernels._int_quotient``: one packed bigint quotient
  or a long division.
* Any other g takes ``divmod``, the long division over ring scalars.

Composition f(psi) = sum c_i psi^i = sum (c_2i + c_2i+1 psi) (psi^2)^i
runs level by level on int slots.  f and psi are encoded once, written out
in full in whole rows, and the result is decoded once.  Level i holds
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

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress, repeat, zip_longest
from math import gcd, lcm
from operator import add, ne, sub
from threading import Lock

from . import kernels
from .rings import QQ, CyclotomicField, PrimeField, RationalField, Ring, power


class InexactDivision(ArithmeticError):
    """Raised when exact_div is asked for a division with nonzero remainder."""


class Polynomial:
    __slots__ = ("ring", "content", "exponent", "stride", "primitive")

    def __new__(cls, ring: Ring, coeffs: Iterable = ()):
        vals = [ring.normalize(c) for c in coeffs]
        while vals and ring.is_zero(vals[-1]):
            vals.pop()
        return cls._raw(ring, vals)

    @classmethod
    def _raw(cls, ring: Ring, vals: Sequence) -> "Polynomial":
        # Internal: vals already normalized, trailing zeros stripped.
        return cls._stored(ring, *_split(ring, vals))

    @classmethod
    def _stored(cls, ring, content, exponent, stride, primitive) -> "Polynomial":
        # Internal: the stored quadruple, set plainly on a _Settable made a Polynomial.
        self = object.__new__(_Settable)
        self.ring, self.content, self.exponent = ring, content, exponent
        self.stride, self.primitive = stride, primitive
        self.__class__ = cls
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic structure --

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending degree order: s zeros, then c P(q^u)."""
        c, s, P = self.content, self.exponent, self.primitive
        if c != self.ring.one:
            P = tuple(kernels._over(P, c.numerator, c.denominator))
        P = tuple(kernels._inflate(P, self.stride, zero=self.ring.zero))
        return (self.ring.zero,) * s + P if s else P

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        P = self.primitive
        return self.exponent + (len(P) - 1) * self.stride if P else None

    def is_zero(self) -> bool:
        return not self.primitive

    def coefficient(self, i: int):
        if i < 0:
            raise IndexError("negative degree")
        P, ring, (i, r) = self.primitive, self.ring, divmod(i - self.exponent, self.stride or 1)
        if r or not 0 <= i < len(P):
            return ring.zero
        c = self.content
        return P[i] if c == ring.one else ring.normalize(ring.mul(c, P[i]))

    @property
    def constant_term(self):
        return self.coefficient(0)

    def valuation(self) -> int:
        """Largest power of q dividing the polynomial: the stored exponent."""
        if not self.primitive:
            raise ValueError("the zero polynomial has no valuation")
        return self.exponent

    # -- arithmetic --

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Slot by slot over the lcm of the denominators, in q^d from the lower valuation."""
        self._check_ring(other)
        if not (self.primitive and other.primitive):
            return other if self.is_zero() else self
        ring = self.ring
        a, b = (self, other) if self.exponent <= other.exponent else (other, self)
        (da, u), (db, v) = _slots(ring, a), _slots(ring, b)
        den = lcm(da, db)
        ka, kb = den // da, den // db
        w = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
        d = gcd(a.stride, b.stride, b.exponent - a.exponent) if a.stride > 1 or b.stride > 1 else 1
        v = kernels._inflate(v, b.stride // d, w)
        lo = (b.exponent - a.exponent) // d * w
        hi = lo + len(v)
        out = kernels._inflate(list(u) if ka == 1 else [x * ka for x in u], a.stride // d, w)
        out += repeat(0, hi - len(out))
        out[lo:hi] = map(add, out[lo:hi], v if kb == 1 else [kb * y for y in v])
        return _decode(ring, out, den, a.exponent, d)

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
        s, u = self.exponent, self.stride
        if isinstance(ring, RationalField):
            return Polynomial._stored(ring, ring.normalize(c * self.content), s, u, self.primitive)
        if isinstance(ring, CyclotomicField) and any(c[1:]):  # a rational c makes no product
            return self * constant(ring, c)
        return _mapped(self, c, s, u, list)

    def shift(self, k: int) -> "Polynomial":
        """Multiply by q**k."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if not k or not self.primitive:
            return self
        return Polynomial._stored(self.ring, self.content, self.exponent + k, self.stride,
                                  self.primitive)

    def unshift(self, k: int) -> "Polynomial":
        """Divide by q**k, which must divide the polynomial."""
        if k < 0:
            raise ValueError("unshift exponent must be >= 0")
        if not k or not self.primitive:
            return self
        if self.exponent < k:
            raise ValueError(f"q^{k} does not divide {self}")
        return Polynomial._stored(self.ring, self.content, self.exponent - k, self.stride,
                                  self.primitive)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, k, Polynomial.__mul__) if k else one(self.ring)

    # -- the operations the functional equation is built from --

    def dilate(self, m: int) -> "Polynomial":
        """The substitution q -> q**m: s and u times m, sharing P."""
        if m < 1:
            raise ValueError(f"dilation exponent must be >= 1, got {m}")
        if m == 1 or not self.primitive:
            return self
        return Polynomial._stored(self.ring, self.content, self.exponent * m, self.stride * m,
                                  self.primitive)

    def compose(self, psi: "Polynomial") -> "Polynomial":
        """f(psi(q)), level by level on int slots; see the module docstring."""
        self._check_ring(psi)
        ring, n, d = self.ring, (self.degree or 0) + 1, psi.degree or 0
        if n < 2:
            return self
        if d < 1:
            return constant(ring, self.evaluate(psi.constant_term))
        # Slots per coefficient: a row of 2 phi - 1 over Q(zeta_d), else 1.
        r = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
        # The top coefficient of f(psi), c_(n-1) lead(psi)^(n-1), is nonzero.
        top = r * ((n - 1) * d + 1)
        # In full, in whole rows (_slots stops the last after phi coordinates):
        # the n terms of w = 1 coefficient each, and psi_i = s / den_psi.
        (den, v), (den_psi, s) = _slots(ring, self), _slots(ring, psi)
        v = [0] * (r * self.exponent) + kernels._inflate(list(v), self.stride, r) + [0] * (r // 2)
        s = [0] * (r * psi.exponent) + kernels._inflate(list(s), psi.stride, r) + [0] * (r // 2)
        w = 1
        while n > 1:
            half, b, B = n // 2, r * w, r * (w + d)
            # Block j of odd * psi_i has degree below w + d: it fills
            # [j B, j B + B) and nothing past half B.
            odd = kernels._relay(v, b, 2 * b, half, b, B)
            del odd[len(odd) - B + b:]
            prod = kernels._convolve(odd, s)
            v = kernels._relay(v, 0, 2 * b, n - half, b, B)  # and the odd last term
            if den_psi != 1:
                v = [x * den_psi for x in v]
            v[:half * B] = map(add, v[:half * B], prod)
            den *= den_psi
            n, w = n - half, w + d
            if n > 1:  # _decode reduces the last level
                v = _reduce(ring, v)
                s = kernels._convolve(s, s)
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
        ring, c, u, out = self.ring, self.content, self.stride, self.primitive[::-1]
        if isinstance(ring, RationalField) and out[-1] < 0:
            return Polynomial._stored(ring, -c, 0, u, tuple([-x for x in out]))
        return Polynomial._stored(ring, c, 0, u, out)

    def divmod(self, g: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """(quo, rem) with f = quo * g + rem and rem zero or of lower degree than g.

        The one general long division, on f and g written out in full;
        every nonzero scalar is a unit here.  Over Q it divides the padded
        primitive parts in ints (``kernels._int_divmod``): D P_f = Q P_g + R gives
        f = (c_f / (c_g D)) Q g + (c_f / D) R.
        """
        self._check_ring(g)
        if not g.primitive:
            raise ValueError("division by the zero polynomial")
        ring, dd = self.ring, g.degree
        if not self.primitive or self.degree < dd:
            return zero(ring), self
        if isinstance(ring, RationalField):
            x, y = ([0] * h.exponent + list(kernels._inflate(h.primitive, h.stride))
                    for h in (self, g))
            den, quo, rem = kernels._int_divmod(x, y)
            c = Fraction(self.content)
            return _decode(ring, quo, den).scale(c / g.content), _decode(ring, rem, den).scale(c)
        rem = list(self.coeffs)
        divisor = g.coeffs
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
        return Polynomial._raw(ring, quo), Polynomial(ring, rem[:dd])

    def exact_div(self, g: "Polynomial") -> "Polynomial":
        """The quotient f / g when g divides f exactly; InexactDivision otherwise.

        The valuations and degree spans refuse first; then one table keyed
        by the form of g picks the division, run at the gcd of the strides
        on int vectors written out to it (see the module docstring).
        """
        self._check_ring(g)
        ring, f, d = self.ring, self.primitive, g.primitive
        if not d:
            raise ValueError("division by the zero polynomial")
        if not f:
            return self
        if g.exponent > self.exponent or g.degree - g.exponent > self.degree - self.exponent:
            raise InexactDivision(f"degree of {self} is below degree of divisor"
                                  if self.degree < g.degree else f"{g} does not divide {self}")
        a = g.content if isinstance(ring, RationalField) else d[0]
        u = gcd(self.stride, g.stride) if self.stride > 1 or g.stride > 1 else 1
        kf, k = self.stride // u, g.stride // u
        cyclo = isinstance(ring, CyclotomicField)
        if len(d) == 1:
            quo = self.scale(ring.inv(a))
        elif _geometric(d):  # g = a q^(s_g) [n]_{q^(uk)}; over Q(zeta_d) each f_j over Q
            p = ring.p if isinstance(ring, PrimeField) else 0
            quo = _mapped(self, a if a == ring.one else ring.inv(a), self.exponent, u,
                          lambda w: kernels._geometric_div(p, kernels._inflate(w, kf), len(d), k))
        elif isinstance(ring, RationalField) or cyclo and not any(map(any, list(zip(*d))[1:])):
            if cyclo:  # rational coefficients: g = a q^(s_g) d(q^(uk)) over Q
                c, _, _, d = _split(QQ, [x[0] for x in d])
                a = ring.normalize(c)
            quo = _mapped(self, a if a == ring.one else ring.inv(a), self.exponent, u,
                          lambda w: kernels._int_quotient(kernels._inflate(w, kf),
                                                          kernels._inflate(d, k)))
        else:  # as s_g <= s_f and P_g(0) != 0, g divides f when g / q^(s_g) does
            quo, rem = self.divmod(g.unshift(g.exponent))
            quo = None if rem.primitive else quo
        if quo is None:
            raise InexactDivision(f"{g} does not divide {self}")
        return quo.unshift(g.exponent)

    def evaluate(self, x):
        """Value at a scalar of the same ring (Horner at x^u, then times x^s)."""
        ring = self.ring
        x = ring.normalize(x)
        acc, xu = ring.zero, ring.pow(x, self.stride) if self.stride > 1 else x
        for c in reversed(self.primitive):
            acc = ring.add(ring.mul(acc, xu), c)
        c = ring.mul(self.content, ring.pow(x, self.exponent)) if self.exponent else self.content
        return acc if c == ring.one else ring.normalize(ring.mul(c, acc))

    # -- equality, hashing, display --

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring
                and self.exponent == other.exponent
                and self.stride == other.stride
                and self.content == other.content
                and self.primitive == other.primitive)

    def __hash__(self):
        return hash((self.ring, self.content, self.exponent, self.stride, self.primitive))

    def __str__(self):
        return self.pretty()

    def __repr__(self):
        return f"Polynomial({self.ring}, {list(self.coeffs)!r})"

    def pretty(self) -> str:
        """Ascending terms joined with " + " / " - "; unit coefficients elided."""
        P = self.primitive
        if not P:
            return "0"
        ring, c, s = self.ring, self.content, self.exponent
        scaled = c != ring.one
        # Per distinct nonzero entry of P (a value's coefficients repeat a few
        # scalars): its display, and its sign and prefix as a later term.
        shown, joined, distinct = {}, {}, set(P)
        for x in distinct - {ring.zero}:
            negative, _, prefix = shown[x] = _display(
                ring, ring.normalize(ring.mul(c, x)) if scaled else x)
            joined[x] = (" - " if negative else " + ") + prefix
        end = self.degree + 1
        if len(_POWERS) < end:
            with _POWERS_GROWING:  # two threads must not append the same q^i
                _POWERS.extend([f"q^{i}" for i in range(len(_POWERS), end)])
        # The q^i texts, q^s on and u apart; where P has zeros, a mask keeps
        # the nonzero entries: P, or over Q(zeta_d) those with a nonzero coordinate.
        texts, scalars = _POWERS[s:end:self.stride or 1], P
        if ring.zero in distinct:
            mask = tuple(map(any, P)) if isinstance(ring, CyclotomicField) else P
            texts, scalars = list(compress(texts, mask)), compress(P, mask)
        # One join of the signs and prefixes alternating with the q^i texts (no
        # string per term); the first term has no sign, and at q^0 its magnitude.
        parts = texts * 2
        parts[::2], parts[1::2] = map(joined.__getitem__, scalars), texts
        negative, mag, prefix = shown[P[0]]
        parts[0] = "-" * negative + (prefix if s else mag)
        return "".join(parts)


class _Settable(Polynomial):  # the slots with object's setattr, for _stored
    __slots__ = ()
    __setattr__ = object.__setattr__


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
# call and grown to the highest degree printed so far.  It never shrinks, so
# a call that found it long enough can read it while another thread grows it.
_POWERS = ["", "q"]
_POWERS_GROWING = Lock()


def _split(ring: Ring, vals: Sequence) -> tuple:
    """The stored quadruple of the normalized coefficients vals (no trailing zero)."""
    if not vals:
        return ring.one, 0, 0, ()
    s = next(i for i, x in enumerate(vals) if not ring.is_zero(x))
    if isinstance(ring, RationalField):
        den, ints = kernels._clear(vals[s:])
        return _primitive(ints, den, s, 1)
    return ring.one, s, *_deflate(ring, 1, tuple(vals[s:]))


def _deflate(ring: Ring, u: int, P: Sequence) -> tuple:
    """(u k, P[::k]) for P(q^u), P[0] != 0, and k the gcd of the positions
    of P's nonzero entries: 0 for one entry, 1 with no scan when P[1] != 0."""
    if len(P) < 2 or P[1] != ring.zero:
        return (u if len(P) > 1 else 0), P
    mask = map(ne, P, repeat(ring.zero)) if isinstance(ring, CyclotomicField) else P
    k = gcd(*compress(range(len(P)), mask))
    return u * k, P[::k]


def _geometric(P: tuple) -> bool:
    """Whether c q^s P(q^u) is c a q^s [n]_{q^u}, n >= 2: ends before count."""
    return len(P) > 1 and P[0] == P[1] == P[-1] and P.count(P[0]) == len(P)


def _primitive(ints: Sequence[int], den: int, s: int, u: int) -> tuple:
    """The stored quadruple (c, s, u k, P) of q^s ints(q^u) / den over Q,
    for ints with nonzero ends and den > 0: ints / den = c P(q^k), P
    primitive with a positive last entry, k as ``_deflate`` finds it."""
    u, ints = _deflate(QQ, u, ints)
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    P = tuple(ints) if g == 1 else tuple([x // g for x in ints])
    return (g if den == 1 else QQ.normalize(Fraction(g, den))), s, u, P


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
    return kernels._clear(flat)


def _decode(ring: Ring, v: list[int], den: int, s: int = 0, u: int = 1) -> Polynomial:
    """q^s times the polynomial in q^u whose slots over den are v, reduced,
    stripped of top and low coefficients that cancel (a sum may cancel to
    zero) and deflated; over Q(zeta_d) rows of 2 phi - 1 slots, the last
    possibly cut after phi."""
    v = _reduce(ring, v)
    while v and not v[-1]:
        v.pop()
    if not v:
        return zero(ring)
    w = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
    low = next(compress(range(len(v)), v)) // w  # a reduced row is 0 past phi
    del v[:low * w]
    s += low * u
    if isinstance(ring, RationalField):
        return Polynomial._stored(ring, *_primitive(v, den, s, u))
    if isinstance(ring, PrimeField):
        return Polynomial._stored(ring, ring.one, s, *_deflate(ring, u, tuple(v)))
    v += [0] * (ring.phi - 1 - (len(v) - 1) % w)  # the last row's phi coordinates
    columns = [kernels._over(v[j::w], 1, den) for j in range(ring.phi)]
    return Polynomial._stored(ring, ring.one, s, *_deflate(ring, u, tuple(zip(*columns))))


def _reduce(ring: Ring, v: list[int]) -> list[int]:
    """The slots v with each coefficient reduced: mod p over GF(p); over
    Q(zeta_d) each row to its first phi slots, in place, by the ring's fold
    table; as they are over Q.
    """
    if isinstance(ring, PrimeField):
        p = ring.p
        return [x % p for x in v]
    if isinstance(ring, CyclotomicField):
        phi = ring.phi
        w = 2 * phi - 1
        # Row r holds the coordinates of z^0 .. z^(2 phi - 2) of coefficient
        # r.  Slot t >= phi of a row carries c z^t = c sum r_j z^j, the fold
        # table's row t - phi: each high column folds straight into the low
        # columns, all rows at once, and is then cleared.
        for t, row in zip(range(phi, w), ring.fold):
            top = v[t::w]
            if any(top):
                end = len(top) * w
                for j, r in row:
                    col = v[j:end:w]
                    v[j:end:w] = (map(add, col, top) if r == 1 else map(sub, col, top)
                                  if r == -1 else [x + r * c for x, c in zip(col, top)])
                v[t::w] = [0] * len(top)
    return v


def _product(f: Polynomial, g: Polynomial, m: int) -> Polynomial:
    """f(q) g(q^m) by the product table of the module docstring, in q^d,
    d = gcd(u_f, m u_g), with g's slots at stride m u_g / d."""
    f._check_ring(g)
    ring = f.ring
    a, b = f.primitive, g.primitive
    if not a or not b:
        return zero(ring)
    s, uf, ug = f.exponent + m * g.exponent, f.stride, m * g.stride
    if _geometric(b):
        return _geometric_product(f, uf, g, ug, s)
    if _geometric(a):
        return _geometric_product(g, ug, f, uf, s)
    d = gcd(uf, ug) if uf > 1 or ug > 1 else 1  # no gcd at strides 0 and 1
    kf, kg = uf // d, ug // d or 1
    if isinstance(ring, RationalField):
        # Gauss: P_a P_b(q^m) is primitive, last entry > 0, and P_a(0) P_b(0) != 0.
        d, P = _deflate(ring, d, kernels._convolve(kernels._inflate(a, kf), b, kg))
        return Polynomial._stored(ring, ring.normalize(f.content * g.content), s, d, tuple(P))
    da, u = _slots(ring, f)
    db, v = (da, u) if g is f else _slots(ring, g)
    w = 2 * ring.phi - 1 if isinstance(ring, CyclotomicField) else 1
    return _decode(ring, kernels._convolve(kernels._inflate(u, kf, w), v, kg, w), da * db, s, d)


def _geometric_product(f: Polynomial, uf: int, g: Polynomial, ug: int, s: int) -> Polynomial:
    """q^s c_f P_f(q^uf) c_g P_g(q^ug), P_g n >= 2 entries a: the geometric row."""
    n, d = len(g.primitive), gcd(uf, ug)
    kf, k = uf // d, ug // d

    def times(v):  # v [n]_{q^k}: running sums at step k less the same k n on
        h = [*kernels._inflate(v, kf), *repeat(0, k * (n - 1))]
        kernels._running_sum(h, k)
        h[k * n:] = map(sub, h[k * n:], h[:len(h) - k * n])
        return h
    return _mapped(f, g.content if isinstance(f.ring, RationalField) else g.primitive[0],
                   s, d, times)


def _mapped(f: Polynomial, a, s: int, u: int, linear) -> Polynomial | None:
    """a c_f q^s linear(P_f)(q^u) for a nonzero scalar a, or None when
    linear returns None; see the module docstring.  Over Q linear must keep
    a primitive vector primitive with a positive last entry, as a product
    or an exact quotient by a primitive int vector does."""
    ring = f.ring
    if not isinstance(ring, CyclotomicField):
        h = linear(f.primitive)
        if h is None:
            return None
        if isinstance(ring, RationalField):
            c = f.content if a == 1 else ring.normalize(f.content * a)
            return Polynomial._stored(ring, c, s, *_deflate(ring, u, tuple(h)))
        p = ring.p
        P = tuple([x * a % p for x in h])
        return Polynomial._stored(ring, ring.one, s, *_deflate(ring, u, P))
    if any(a[1:]):
        f, a = f.scale(a), ring.one
    r, columns = a[0], []
    for column in zip(*f.primitive):
        n = len(column)
        if any(column):
            while not column[n - 1]:
                n -= 1
            den, v = kernels._clear(column[:n])
            h = linear(v)
            if h is None:
                return None
            columns.append(kernels._over(h, r.numerator, r.denominator * den))
        else:
            columns.append(())
    P = tuple(zip_longest(*columns, fillvalue=0))
    return Polynomial._stored(ring, ring.one, s, *_deflate(ring, u, P))


def zero(ring: Ring) -> Polynomial:
    return Polynomial._stored(ring, ring.one, 0, 0, ())


def one(ring: Ring) -> Polynomial:
    return Polynomial._stored(ring, ring.one, 0, 0, (ring.one,))


def constant(ring: Ring, c) -> Polynomial:
    c = ring.normalize(c)
    if ring.is_zero(c):
        return zero(ring)
    if isinstance(ring, RationalField):
        return Polynomial._stored(ring, c, 0, 0, (1,))
    return Polynomial._stored(ring, ring.one, 0, 0, (c,))


def monomial(ring: Ring, k: int, coeff=None) -> Polynomial:
    """coeff * q**k (coefficient 1 by default)."""
    if k < 0:
        raise ValueError("monomial degree must be >= 0")
    return (one(ring) if coeff is None else constant(ring, coeff)).shift(k)


def quantum_integer(n: int, ring: Ring = QQ) -> Polynomial:
    """1 + q + ... + q**(n-1): the polynomial that counts to n at q = 1."""
    if n < 1:
        raise ValueError(f"quantum integer index must be >= 1, got {n}")
    return Polynomial._stored(ring, ring.one, 0, int(n > 1), (ring.one,) * n)


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
