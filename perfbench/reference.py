"""Exact arithmetic for the benchmark's output checks, written apart from qfe.

Every expectation a job carries is checked here by a route other than the
one under test: sparse polynomials as ``{exponent: coefficient}`` dicts,
small coefficient fields of our own, identities multiplied through by
binomials instead of divided, and a parser for the CLI's printed
polynomials.  Nothing here imports qfe.
"""

from __future__ import annotations

from fractions import Fraction


def rational(v):
    """int when integral, Fraction otherwise (the printed form of a scalar)."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class Rationals:
    zero, one = 0, 1

    def add(self, a, b):
        return rational(Fraction(a) + b)

    def mul(self, a, b):
        return rational(Fraction(a) * b)

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        num, _, den = text.partition("/")
        return rational(Fraction(int(num), int(den))) if den else int(num)


class Residues:
    def __init__(self, p):
        self.p, self.zero, self.one = p, 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        return int(text) % self.p


def cyclotomic_coeffs(d: int) -> list[int]:
    """Phi_d, ascending integer coefficients: (x^d - 1) / prod_{e | d, e < d} Phi_e."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e:
            continue
        den = cyclotomic_coeffs(e)
        quo = [0] * (len(num) - len(den) + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = num[i + len(den) - 1]
            quo[i] = c
            for j, y in enumerate(den):
                num[i + j] -= c * y
        num = quo
    return num


class CyclotomicVectors:
    """Q(z), z a primitive d-th root of unity, as coordinate tuples on 1..z^(phi-1)."""

    def __init__(self, d):
        self.d = d
        self.mod = cyclotomic_coeffs(d)
        self.phi = len(self.mod) - 1
        self.zero = (0,) * self.phi
        self.one = (1,) + (0,) * (self.phi - 1)

    def reduce(self, c):
        c = list(c) + [0] * max(0, self.phi - len(c))
        for i in range(len(c) - 1, self.phi - 1, -1):
            t = c[i]
            if t:
                for j in range(self.phi):
                    c[i - self.phi + j] -= t * self.mod[j]
        return tuple(rational(x) for x in c[:self.phi])

    def power_of_z(self, k):
        return self.reduce([0] * (k % self.d) + [1])

    def neg(self, a):
        return tuple(-x for x in a)

    def is_zero(self, a):
        return not any(a)

    def parse(self, text):
        """A rational, or a parenthesised expression in z as printed."""
        if not text.startswith("("):
            return (rational(Fraction(text)),) + (0,) * (self.phi - 1)
        vec = [Fraction(0)] * self.phi
        for sign, body in _split_terms(text[1:-1]):
            coef, _, power = body.partition("z")
            if "z" not in body:
                k = 0
            else:
                k = int(power[1:]) if power else 1
            c = Fraction(coef) if coef else Fraction(1)
            vec[k] += sign * c
        return tuple(rational(x) for x in vec)


# -- sparse polynomials: dict exponent -> nonzero coefficient ----------------

def sparse(dense, F) -> dict:
    return {i: c for i, c in enumerate(dense) if not F.is_zero(c)}


def padd(f, g, F) -> dict:
    out = dict(f)
    for k, c in g.items():
        s = F.add(out.get(k, F.zero), c)
        if F.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def pmul(f, g, F) -> dict:
    out: dict = {}
    for i, x in f.items():
        for j, y in g.items():
            k = i + j
            out[k] = F.add(out.get(k, F.zero), F.mul(x, y))
    return {k: c for k, c in out.items() if not F.is_zero(c)}


def dilate(f, m) -> dict:
    return {m * k: c for k, c in f.items()}


def times_binomial(f: dict, k: int) -> dict:
    """f * (1 - q^k) over the rationals, in one pass."""
    out = dict(f)
    for e, c in f.items():
        s = out.get(e + k, 0) - c
        if s:
            out[e + k] = s
        else:
            del out[e + k]
    return out


def quantum_ratio_ok(g: dict, n: int, a: int, scale=1) -> bool:
    """g == scale [n]_{q^a} / [n]_q over the rationals, checked as
    (1-q^n)(1-q^a) g == scale (1-q^an)(1-q)."""
    rhs = {0: scale, 1: -scale, a * n: -scale, a * n + 1: scale} if a * n > 1 else {}
    return times_binomial(times_binomial(g, n), a) == rhs


# -- number theory -----------------------------------------------------------

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def prime_factors(n: int) -> dict[int, int]:
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- the CLI's printed polynomials -------------------------------------------

def _split_terms(text: str):
    """Yield (sign, body) for the top-level " + " / " - " separated terms."""
    depth, start, sign = 0, 0, 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            yield sign, text[start:i]
            sign = -1 if text[i + 1] == "-" else 1
            start = i + 3
            i += 2
        i += 1
    yield sign, text[start:]


def parse_poly(text: str, F) -> dict:
    """Invert the pretty-printer: text -> {exponent: coefficient}."""
    if text == "0":
        return {}
    out = {}
    for sign, body in _split_terms(text):
        head, q, power = body.rpartition("q")
        if not q:
            head, k = body, 0          # constant term
        else:
            k = int(power[1:]) if power else 1
            head = head or "1"
            if head.startswith("(") and "z" not in head:
                head = head[1:-1]
        c = F.parse(head)
        if sign < 0:
            c = F.neg(c)
        if k in out or F.is_zero(c):
            raise ValueError(f"malformed term {body!r} in {text[:80]!r}")
        out[k] = c
    return out


def scalar_text(c) -> str:
    """How the CLI prints a rational scalar."""
    return str(rational(c))
