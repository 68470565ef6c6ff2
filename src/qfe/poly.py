"""Dense exact univariate polynomials in q.

A polynomial is a ring handle plus a tuple of coefficients in ascending
degree order.  The representation is always normalized: the last
coefficient is nonzero and the zero polynomial is the empty tuple.  The
degree of the zero polynomial is None (a true "minus infinity" sentinel:
it cannot slip into arithmetic the way -1 could).

Polynomials are immutable values and every operation is pure.
Multiplication is schoolbook convolution -- coefficients are exact
rationals, residues, or cyclotomic vectors, and those dominate the cost at
the degree scale this library works at.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .rings import QQ, Ring


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
    def _raw(cls, ring: Ring, vals: list) -> "Polynomial":
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
        out = [ring.zero] * (len(a) + len(b) - 1)
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
        mul = ring.mul
        return Polynomial._raw(ring, [mul(c, x) for x in self.coeffs])

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
