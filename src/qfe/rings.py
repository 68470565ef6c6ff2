"""Exact scalar arithmetic in the three coefficient domains.

Scalars are plain immutable Python values; a ring object knows how to
combine them:

* ``RationalField`` -- arbitrary-precision rationals.  Values are ``int``
  where integral and ``fractions.Fraction`` otherwise; the two mix freely
  under ``==`` and ``hash``, and Fraction keeps lowest terms with positive
  denominator.
* ``PrimeField(p)`` -- residues ``0..p-1`` mod a prime p.
* ``CyclotomicField(d)`` -- the rationals with a primitive d-th root of
  unity ``z`` adjoined.  Values are length-phi(d) tuples of rationals:
  coordinates on ``1, z, ..., z^(phi-1)``, reduced modulo the d-th
  cyclotomic polynomial so that nonzero elements are invertible.

No floating point anywhere; equality of scalars is exact and decidable.
Ring objects are stateless and all operations are pure, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .semigroup import divisors, euler_phi, is_prime


def _as_rational(v):
    """Normalize to the rational representation: int when integral."""
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else v
    raise TypeError(f"not an exact rational value: {v!r}")


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
        raise NotImplementedError

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
        f = Fraction(1, 1) / a
        return int(f) if f.denominator == 1 else f

    def is_zero(self, a) -> bool:
        return a == 0

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, obj):
        if isinstance(obj, int):
            return obj
        if isinstance(obj, str):
            return _as_rational(Fraction(obj))
        raise ValueError(f"rational scalar must be \"a/b\" or \"a\", got {obj!r}")

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

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, obj):
        if isinstance(obj, int):
            return obj % self.p
        if isinstance(obj, str):
            return int(obj, 10) % self.p
        raise ValueError(f"GF({self.p}) scalar must be a decimal string, got {obj!r}")

    def coeff_display(self, a):
        return (False, str(a))

    @property
    def descriptor(self):
        return {"kind": "prime_field", "p": self.p}

    def _key(self):
        return ("prime_field", self.p)

    def __str__(self):
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, ascending.

    Computed by the exact recursion (x^d - 1) / prod of lower-order factors.
    """
    if d < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {d}")
    num = [0] * (d + 1)
    num[0], num[d] = -1, 1
    for e in divisors(d):
        if e == d:
            continue
        num = _int_poly_divexact(num, _cyclotomic_coeffs(e))
    return tuple(num)


def _int_poly_divexact(num: list[int], den) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quo = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd]
        if c:
            quo[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("division was not exact")
    return quo


def _frac_poly_divmod(num, den):
    """Divide coefficient lists over the rationals; returns (quotient, remainder)."""
    rem = list(num)
    while rem and rem[-1] == 0:
        rem.pop()
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(rem) < len(den):
        return [], rem
    lead_inv = Fraction(1, 1) / den[-1]
    quo = [Fraction(0)] * (len(rem) - len(den) + 1)
    for i in range(len(rem) - len(den), -1, -1):
        c = rem[i + len(den) - 1] * lead_inv
        if c:
            quo[i] = c
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


class CyclotomicField(Ring):
    """Q(z) for z a primitive d-th root of unity; Cyclotomic(1) is just Q."""

    kind = "cyclotomic"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"cyclotomic index must be >= 1, got {d}")
        self.d = d
        self.phi = euler_phi(d)
        self.modulus = _cyclotomic_coeffs(d)
        self.zero = (0,) * self.phi
        one = [0] * self.phi
        one[0] = 1
        self.one = tuple(one)
        if self.phi == 1:
            # z is rational: the root of the linear modulus x + c.
            self.zeta = (_as_rational(-self.modulus[0]),)
        else:
            z = [0] * self.phi
            z[1] = 1
            self.zeta = tuple(z)

    def normalize(self, v):
        if isinstance(v, (int, Fraction)):
            vec = [_as_rational(v)] + [0] * (self.phi - 1)
            return tuple(vec)
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
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return tuple(self._reduce(prod) + [0] * max(0, self.phi - len(prod)))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        # Extended Euclid against the (irreducible) modulus.
        old_r, r = [Fraction(x) for x in a], [Fraction(x) for x in self.modulus]
        old_s, s = [Fraction(1)], [Fraction(0)]
        while any(r):
            quo, rem = _frac_poly_divmod(old_r, r)
            old_r, r = r, rem
            prod = [Fraction(0)] * (len(quo) + len(s))
            for i, qi in enumerate(quo):
                if qi:
                    for j, sj in enumerate(s):
                        prod[i + j] += qi * sj
            new_s = [x - y for x, y in zip(old_s + [Fraction(0)] * len(prod),
                                           prod + [Fraction(0)] * len(old_s))]
            old_s, s = s, new_s
        g = next(x for x in old_r if x)
        out = [x / g for x in old_s]
        return self.normalize(out)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def scalar_to_json(self, a):
        return [str(Fraction(x)) for x in a]

    def scalar_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != self.phi:
            raise ValueError(
                f"cyclotomic({self.d}) scalar must be an array of {self.phi} "
                f"rational strings, got {obj!r}")
        return self.normalize([Fraction(str(c)) for c in obj])

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
    """Build a ring from its JSON descriptor (see each ring's .descriptor)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"ring descriptor must be an object with a \"kind\": {obj!r}")
    kind = obj["kind"]
    if kind == "rational":
        return QQ
    if kind == "prime_field":
        return PrimeField(int(obj["p"]))
    if kind == "cyclotomic":
        return CyclotomicField(int(obj["d"]))
    raise ValueError(f"unknown ring kind {kind!r}")


def cyclotomic_polynomial(d: int):
    """The d-th cyclotomic polynomial as a Polynomial over the rationals."""
    from .poly import Polynomial

    return Polynomial(QQ, list(_cyclotomic_coeffs(d)))


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
