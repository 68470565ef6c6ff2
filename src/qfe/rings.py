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
  are invertible.

No floating point anywhere; equality of scalars is exact and decidable.
Ring objects are stateless and all operations are pure, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache

from .semigroup import MAX_PRIME, divisors, is_prime

# Largest cyclotomic order accepted from outside input: Phi_d and Q(z)
# arithmetic cost grow with d, and d = 10**9 would not finish.
MAX_CYCLOTOMIC_ORDER = 1000

_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


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
    """The one literal grammar: a JSON integer, or a string "a" or "a/b"."""
    if type(obj) is int:  # not bool
        return obj
    if isinstance(obj, str):
        m = _LITERAL.fullmatch(obj)
        if m and not (integral and m.group(1)):
            return _as_rational(Fraction(obj))
    form = "\"a\"" if integral else "\"a\" or \"a/b\""
    raise ValueError(f"{what} must be an integer or a string {form}, got {obj!r}")


class Ring:
    """Handle for exact arithmetic on one coefficient domain."""

    kind: str

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

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def pow(self, a, k: int):
        """a**k for k >= 0 by repeated squaring."""
        if k < 0:
            raise ValueError("negative exponent; invert first")
        acc = self.one
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, k: int):
        return self.normalize(k)

    # -- textual interface (seed files, reports) --

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, obj):
        raise NotImplementedError

    def coeff_display(self, a) -> tuple[bool, str]:
        """(is_negative, magnitude string) for the pretty-printer."""
        raise NotImplementedError

    @property
    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        raise NotImplementedError

    def __repr__(self):
        return str(self)


class RationalField(Ring):
    """The field of rationals; the default coefficient domain."""

    kind = "rational"
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

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_from_json(self, obj):
        return _scalar_from_json(obj, "rational scalar")

    def coeff_display(self, a):
        return (a < 0, str(abs(a)))

    @property
    def descriptor(self):
        return {"kind": "rational"}

    def _key(self):
        return ("rational",)

    def __str__(self):
        return "Q"


QQ = RationalField()


class PrimeField(Ring):
    """GF(p): integers mod a prime, residues in [0, p)."""

    kind = "prime_field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"prime field modulus must be prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def normalize(self, v):
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return int(v) % self.p

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

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_from_json(self, obj):
        return _scalar_from_json(obj, f"GF({self.p}) scalar", integral=True) % self.p

    def coeff_display(self, a):
        return (False, str(a))

    @property
    def descriptor(self):
        return {"kind": "prime_field", "p": self.p}

    def _key(self):
        return ("prime_field", self.p)

    def __str__(self):
        return f"GF({self.p})"


class CyclotomicField(Ring):
    """Q(z) for z a primitive d-th root of unity; Cyclotomic(1) is just Q."""

    kind = "cyclotomic"

    def __init__(self, d: int):
        self.d = d
        self.modulus = cyclotomic_polynomial(d).coeffs
        self.phi = len(self.modulus) - 1  # deg Phi_d = euler_phi(d)
        self.zero = (0,) * self.phi
        self.one = self.normalize(1)
        # z is the class of x in Q[x]/Phi_d: the rational -c when Phi_d = x + c.
        self.zeta = self.normalize([0, 1])

    def normalize(self, v):
        if isinstance(v, (int, Fraction)):
            v = [v]
        vec = [_as_rational(c) for c in v]
        if len(vec) > self.phi:
            vec = self._reduce(vec)
        return tuple(vec + [0] * (self.phi - len(vec)))

    def _reduce(self, coeffs: list) -> list:
        """Reduce a coordinate list modulo the cyclotomic modulus (monic)."""
        phi = self.phi
        mod = self.modulus
        c = list(coeffs)
        for i in range(len(c) - 1, phi - 1, -1):
            t = c[i]
            if t:
                for j in range(phi):
                    c[i - phi + j] -= t * mod[j]
                c[i] = 0
        out = c[:phi]
        return [_as_rational(Fraction(x)) if not isinstance(x, int) else x for x in out]

    def add(self, a, b):
        return tuple(_as_rational(x + y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(_as_rational(x - y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return tuple(self._reduce(prod))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        from .poly import Polynomial, one, zero

        # Extended Euclid over Q against the irreducible modulus: the last
        # nonzero remainder is a nonzero constant g with s * a = g mod Phi_d.
        old_r, r = Polynomial(QQ, a), Polynomial(QQ, self.modulus)
        old_s, s = one(QQ), zero(QQ)
        while not r.is_zero():
            quo, rem = old_r.divmod(r)
            old_r, r = r, rem
            old_s, s = s, old_s - quo * s
        return self.normalize(old_s.scale(QQ.inv(old_r.coeffs[0])).coeffs)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def scalar_to_json(self, a):
        return [str(Fraction(x)) for x in a]

    def scalar_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.phi:
            raise ValueError(
                f"cyclotomic({self.d}) scalar must be an array of {self.phi} "
                f"rationals, got {obj!r}")
        return self.normalize([_scalar_from_json(c, "coordinate") for c in obj])

    def coeff_display(self, a):
        if all(x == 0 for x in a[1:]):
            r = a[0]
            return (r < 0, str(abs(r)))
        return (False, "(" + _zeta_string(a) + ")")

    @property
    def descriptor(self):
        return {"kind": "cyclotomic", "d": self.d}

    def _key(self):
        return ("cyclotomic", self.d)

    def __str__(self):
        return f"Q(zeta_{self.d})"


def _zeta_string(vec) -> str:
    """Render a cyclotomic coordinate vector as a polynomial in z."""
    parts = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        mag = str(abs(c))
        if i == 0:
            term = mag
        else:
            var = "z" if i == 1 else f"z^{i}"
            term = var if mag == "1" else f"{mag}{var}"
        if not parts:
            parts.append("-" + term if c < 0 else term)
        else:
            parts.append((" - " if c < 0 else " + ") + term)
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
def cyclotomic_polynomial(d: int):
    """The d-th cyclotomic polynomial over the rationals (integer coefficients).

    The exact recursion Phi_d = (q^d - 1) / prod of Phi_e over e | d, e < d.
    """
    from .poly import monomial, one

    if d < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {d}")
    lower = one(QQ)
    for e in divisors(d)[:-1]:
        lower = lower * cyclotomic_polynomial(e)
    return (monomial(QQ, d) - one(QQ)).exact_div(lower)


def root_of_unity_order(ring: Ring, z) -> int | None:
    """Least l >= 1 with z**l = 1, or None if none exists within the bound.

    The search bound is 4d in a cyclotomic field (any root of unity there has
    order dividing lcm(2, d)), p - 1 in GF(p), and 2 over the rationals.
    """
    if ring.is_zero(z):
        raise ValueError("zero is not a root of unity")
    if isinstance(ring, CyclotomicField):
        bound = 4 * ring.d
    elif isinstance(ring, PrimeField):
        bound = ring.p - 1
    else:
        bound = 2
    acc = z
    for order in range(1, bound + 1):
        if acc == ring.one:
            return order
        acc = ring.mul(acc, z)
    return None
