"""Exact scalar arithmetic in the three coefficient domains.

Scalars are plain immutable Python values; a ring object knows how to
combine them:

* ``RationalField`` -- arbitrary-precision rationals.  Values are ``int``
  where integral and ``fractions.Fraction`` otherwise; the two mix freely
  under ``==`` and ``hash``, and Fraction keeps lowest terms with positive
  denominator.
* ``PrimeField(p)`` -- residues ``0..p-1`` mod a prime p.
* ``CyclotomicField(d)`` -- the rationals with a primitive d-th root of
  unity ``z`` adjoined.  Values are length-phi(d) tuples of rationals,
  each normalized as over Q: coordinates on ``1, z, ..., z^(phi-1)``,
  reduced modulo the d-th cyclotomic polynomial so that nonzero elements
  are invertible.  A product outside Q is one ``kernels._convolve``.

No floating point anywhere; equality of scalars is exact and decidable.
Ring objects hold only values fixed by their parameters (Q(z) looks its
fold table up on first use, and threads that race to do so get equal
tables) and all operations are pure, so concurrent use needs no
synchronization.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import kernels
from .semigroup import MAX_PRIME, divisors, is_prime

# Largest cyclotomic order accepted from outside input: Phi_d and Q(z)
# arithmetic cost grow with d, and d = 10**9 would not finish.
MAX_CYCLOTOMIC_ORDER = 1000

_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class DigitLimitError(ValueError):
    """A scalar has more digits than Python converts an int to text."""


def _text(x) -> str:
    """str(x) of an int or Fraction: every scalar is written out here."""
    try:
        return str(x)
    except ValueError:
        raise DigitLimitError(f"cannot print a coefficient of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None


def _as_rational(v):
    """Normalize to the rational representation: int when integral."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"not an exact rational value: {v!r}")


def _scalar_from_json(obj, what: str, integral: bool = False):
    """The one literal grammar: a JSON integer, or a string "a" or "a/b".

    "a" parses straight to an int; only "a/b" builds a Fraction."""
    if type(obj) is int:  # not bool
        return obj
    if isinstance(obj, str):
        m = _LITERAL.fullmatch(obj)
        if m and not m.group(1):
            return int(obj)
        if m and not integral:
            return _as_rational(Fraction(obj))
    form = "\"a\"" if integral else "\"a\" or \"a/b\""
    raise ValueError(f"{what} must be an integer or a string {form}, got {obj!r}")


def power(x, k: int, mul, one=None):
    """x**k for k >= 0 from the ring's mul and one, by square-and-multiply
    that skips the unused square of the top bit's power.

    Without one (k >= 1 only) the product starts from the first factor, so
    x**1 is x itself and no product is spent on one * x."""
    acc = one
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


class Ring:
    """Handle for exact arithmetic on one coefficient domain."""

    width = 1  # int slots per coefficient in poly's slot vectors

    def normalize(self, v):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, k: int):
        """a**k for k >= 0."""
        if k < 0:
            raise ValueError("negative exponent; invert first")
        return power(a, k, self.mul, self.one)

    def is_zero(self, a) -> bool:
        return a == self.zero

    # -- textual interface (seed files, reports) --

    def scalar_to_json(self, a):
        return _text(a)

    def scalar_from_json(self, obj):
        raise NotImplementedError

    def coeff_display(self, a) -> tuple[bool, str]:
        """(is_negative, magnitude string) for the pretty-printer."""
        raise NotImplementedError

    @property
    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring)
                                 and self.descriptor == other.descriptor)

    def __hash__(self):
        return hash(tuple(self.descriptor.items()))

    def __repr__(self):
        return str(self)


class RationalField(Ring):
    """The field of rationals; the default coefficient domain."""

    zero = 0
    one = 1

    normalize = staticmethod(_as_rational)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _as_rational(Fraction(1) / a)

    def scalar_from_json(self, obj):
        return _scalar_from_json(obj, "rational scalar")

    def coeff_display(self, a):
        return (a < 0, _text(abs(a)))

    @property
    def descriptor(self):
        return {"kind": "rational"}

    def __str__(self):
        return "Q"


QQ = RationalField()


class PrimeField(Ring):
    """GF(p): integers mod a prime, residues in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"prime field modulus must be prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, v):
        v = _as_rational(v)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def scalar_from_json(self, obj):
        return _scalar_from_json(obj, f"GF({self.p}) scalar", integral=True) % self.p

    def coeff_display(self, a):
        return (False, _text(a))

    @property
    def descriptor(self):
        return {"kind": "prime_field", "p": self.p}

    def __str__(self):
        return f"GF({self.p})"


class CyclotomicField(Ring):
    """Q(z) for z a primitive d-th root of unity; Cyclotomic(1) is just Q.

    ``mul`` scales by a rational operand; any other product is one
    ``kernels._convolve`` of the operands cleared to ints, which
    ``_reduce`` folds and divides by their denominator once.

    ``fold`` (``_fold_table``, looked up when a field first reduces a power
    of z) is the library's one reduction modulo Phi_d, read on ints by
    ``_reduce``, ``poly._reduce`` and ``_root_orders``.
    """

    def __init__(self, d: int):
        self.d = d
        self.modulus = cyclotomic_polynomial(d).coeffs
        self.phi = len(self.modulus) - 1  # deg Phi_d = euler_phi(d)
        self.width = 2 * self.phi - 1  # a row holds a product of two
        self.zero = (0,) * self.phi
        self.one = self.normalize(1)
        # z is the class of x in Q[x]/Phi_d: the rational -c when Phi_d = x + c.
        self.zeta = self.normalize([0, 1])

    @cached_property
    def fold(self) -> tuple:
        """The fold table of Phi_d, looked up once per field."""
        return _fold_table(self.d)

    def normalize(self, v):
        if type(v) is tuple and len(v) == self.phi and kernels._ints(v):
            return v  # already normalized
        if isinstance(v, (int, Fraction)):
            v = [v]
        vec = [_as_rational(c) for c in v]
        if len(vec) > self.phi:
            return tuple(self._reduce(*kernels._clear(vec)))
        return tuple(vec + [0] * (self.phi - len(vec)))

    def _reduce(self, den: int, c: list[int]) -> list:
        """c / den for an int list c longer than phi, reduced in place: a
        power of z past the fold table first, top first, as z^(t - phi)
        z^phi, then each power the table covers straight onto its row."""
        phi, fold = self.phi, self.fold
        while len(c) > self.width:
            x = c.pop()
            if x:
                s = len(c) - phi
                for j, r in fold[0]:
                    c[s + j] += r * x
        for t in range(phi, len(c)):
            x = c[t]
            if x:
                for j, r in fold[t - phi]:
                    c[j] += r * x
        del c[phi:]
        return c if den == 1 else kernels._over(c, 1, den)

    def add(self, a, b):
        return tuple(_as_rational(x + y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(_as_rational(x - y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        if not any(a[1:]):
            a, b = b, a
        if not any(b[1:]):  # a rational operand scales the other's coordinates
            c = b[0]
            return a if c == 1 else tuple([x and _as_rational(c * x) for x in a])
        da, u = kernels._clear(a)
        db, v = (da, u) if b is a else kernels._clear(b)
        return tuple(self._reduce(da * db, kernels._convolve(u, v)))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if not any(a[1:]):  # a rational: one inverse over Q
            return self.normalize(QQ.inv(a[0]))
        from .poly import Polynomial, one, zero

        # Extended Euclid over Q against the irreducible modulus: the last
        # nonzero remainder is a nonzero constant g with s * a = g mod Phi_d.
        old_r, r = Polynomial(QQ, a), Polynomial(QQ, self.modulus)
        old_s, s = one(QQ), zero(QQ)
        while not r.is_zero():
            quo, rem = old_r.divmod(r)
            old_r, r = r, rem
            old_s, s = s, old_s - quo * s
        return self.normalize(old_s.scale(QQ.inv(old_r.constant_term)).coeffs)

    def scalar_to_json(self, a):
        return [_text(Fraction(x)) for x in a]

    def scalar_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.phi:
            raise ValueError(
                f"cyclotomic({self.d}) scalar must be an array of {self.phi} "
                f"rationals, got {obj!r}")
        return self.normalize([_scalar_from_json(c, "coordinate") for c in obj])

    def coeff_display(self, a):
        if any(a[1:]):
            return (False, "(" + _zeta_string(a) + ")")
        return QQ.coeff_display(a[0])

    @property
    def descriptor(self):
        return {"kind": "cyclotomic", "d": self.d}

    def __str__(self):
        return f"Q(zeta_{self.d})"


def _zeta_string(vec) -> str:
    """Render a cyclotomic coordinate vector as a polynomial in z."""
    parts = []
    for i, c in enumerate(vec):
        if c:
            var = "" if i == 0 else "z" if i == 1 else f"z^{i}"
            mag = _text(abs(c))
            sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
            parts.append(sign + (var if var and mag == "1" else mag + var))
    return "".join(parts) if parts else "0"


def scalar_text(ring: Ring, a) -> str:
    """One-token rendering of a scalar, as the pretty-printer would show it."""
    negative, mag = ring.coeff_display(a)
    return "-" + mag if negative else mag


def ring_from_descriptor(obj: dict) -> Ring:
    """Build a ring from its JSON descriptor (see each ring's .descriptor).

    The one path from outside input to a ring: p and d are JSON integers,
    capped before any primality test or Phi_d runs.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"ring descriptor must be an object with a \"kind\": {obj!r}")
    kind = obj["kind"]
    if kind == "rational":
        return QQ
    if kind == "prime_field":
        return PrimeField(_capped_int(obj, "p", MAX_PRIME))
    if kind == "cyclotomic":
        return CyclotomicField(_capped_int(obj, "d", MAX_CYCLOTOMIC_ORDER))
    raise ValueError(f"unknown ring kind {kind!r}")


def _capped_int(obj: dict, key: str, cap: int) -> int:
    v = obj.get(key)
    if type(v) is not int:  # bool is an int subclass
        raise ValueError(f"{obj['kind']} {key} must be an integer, got {v!r}")
    if v > cap:
        raise ValueError(f"{obj['kind']} {key} must be at most {cap}")
    return v


@lru_cache(maxsize=None)
def _fold_table(d: int) -> tuple:
    """z^t mod Phi_d for phi <= t <= max(phi, 2 phi - 2): row t - phi holds
    the nonzero terms (j, r) of z^t = sum r z^j, j < phi.

    z^phi is minus the low part of Phi_d, and each next power is the last
    times z, built on the terms alone.  At d = 935 the rows hold 70k terms,
    so it is built once per d, when a field first reduces a power of z.
    """
    modulus = cyclotomic_polynomial(d).coeffs
    phi = len(modulus) - 1
    low = {j: -m for j, m in enumerate(modulus[:phi]) if m}
    fold = [low]
    for _ in range(phi - 2):
        row = {j + 1: r for j, r in fold[-1].items()}
        top = row.pop(phi, 0)
        if top:
            for j, r in low.items():
                row[j] = row.get(j, 0) + r * top
        fold.append({j: r for j, r in sorted(row.items()) if r})
    return tuple(tuple(row.items()) for row in fold)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int):
    """The d-th cyclotomic polynomial over the rationals (integer coefficients).

    The exact recursion Phi_d = (q^d - 1) / prod of Phi_e over e | d, e < d, on
    int lists: no product runs, so rings built on Phi_d rest on no kernel they test."""
    from .poly import Polynomial

    if d < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {d}")
    c = [-1] + [0] * (d - 1) + [1]
    for e in divisors(d)[:-1]:
        m = cyclotomic_polynomial(e).coeffs
        k = len(m) - 1
        terms = [(j - k, y) for j, y in enumerate(m[:k]) if y]
        for i in range(len(c) - 1, k - 1, -1):  # Phi_e monic: c[i] is the quotient's entry i - k
            for j, y in terms:
                c[i + j] -= c[i] * y
        c = c[k:]
    return Polynomial(QQ, c)


def root_of_unity_order(ring: Ring, z) -> int | None:
    """Least l >= 1 with z**l = 1, or None if z is not a root of unity.

    Over Q(zeta_d) the order is read off the roots of unity, built once per
    d (``_root_orders``).  Every root of unity of GF(p) has order dividing
    p - 1 and of Q order dividing 2, so only the divisors of that exponent
    are tried, each by one power.
    """
    if ring.is_zero(z):
        raise ValueError("zero is not a root of unity")
    if isinstance(ring, CyclotomicField):
        return _root_orders(ring.d).get(ring.normalize(z))
    exponent = ring.p - 1 if isinstance(ring, PrimeField) else 2
    return next((k for k in divisors(exponent) if ring.pow(z, k) == ring.one),
                None)


@lru_cache(maxsize=None)
def _root_orders(d: int) -> dict:
    """The order of each root of unity of Q(zeta_d), keyed by coordinates.

    They are the +-z^j.  z^j has order d / gcd(d, j); for even d, -1 is
    z^(d/2), and for odd d, -z^j is no power of z and has twice the order
    of z^j.  Each power is the last times z: one shift of the coordinates
    and one fold of the top one by z^phi, the fold table's first row.
    """
    K = CyclotomicField(d)
    orders, x = {}, list(K.one)
    for j in range(d):
        k = d // gcd(d, j)
        orders[tuple(x)] = k
        if d % 2:
            orders[tuple([-a for a in x])] = 2 * k
        t = x.pop()
        x.insert(0, 0)
        if t:
            for i, r in K.fold[0]:
                x[i] += r * t
    return orders


def first_inadmissible_prime(primes, zeta, ring: Ring) -> int | None:
    """The first p of primes with zeta**(p-1) != 1, or None: the one rule
    for [n]_{zeta q} to satisfy the law on S(primes)."""
    order = root_of_unity_order(ring, zeta)
    return next((p for p in primes if order is None or (p - 1) % order), None)
