"""Verification and classification of functional-equation sequences.

This module is the other half of a dual-route design: sequences are built
by construction rules in ``sequences`` and then checked here by exact
identities.  Nothing in this module trusts a construction -- ``verify_fe``
compares every value up to the bound with a quantum-type form that it
builds itself from ``poly``, and expands both sides of exactly the
identities that this per-index profile does not decide, in the rows of
each pair sweep where a first failure can lie;
``additive_law_holds`` checks the additive law at its generator pairs;
``decompose`` recovers the canonical (t, lambda, G) factorization from raw
coefficient data, and ``uniqueness_oracle`` re-derives the quantum integers
from the coefficient constraints alone, with the scaling unknown treated
symbolically.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import reduce
from operator import mul

from . import poly
from .poly import (InexactDivision, Polynomial, monomial, quantum_integer,
                   scaled_quantum_integer)
from .record import Record
from .rings import QQ, Ring, first_inadmissible_prime, root_of_unity_order
from .semigroup import (PrimeSet, divisors, first_nonmultiplicative, is_prime,
                        seed_gcd, support_members)
from .sequences import FESequence, first_failing_pair, oplus, otimes


# The most peels, and the largest exponent, that verify_fe's profile tries
# when it reads its shape e from f_p (see _peel_exponents).  The paper's
# constructions need one or two of each.
_PEEL_LIMIT = 16


class FailedIdentity(Record):
    """A counterexample pair with both fully expanded sides."""

    m: int
    n: int
    lhs: Polynomial
    rhs: Polynomial


class VerificationReport(Record):
    bound: int
    fe_ok: bool
    commutativity_ok: bool
    support_ok: bool
    first_failure: FailedIdentity | None

    @property
    def ok(self) -> bool:
        return self.fe_ok and self.commutativity_ok and self.support_ok


def verify_fe(F: FESequence, bound: int) -> VerificationReport:
    """Exactly check a sequence up to an index bound.

    Three checks, all exact:
      * the multiplicative law f_{mn} = f_m(q) f_n(q^m) for every ordered
        pair with mn <= bound (mn <= bound rather than m,n <= bound keeps
        expanded degrees at desk scale without losing coverage per bound);
      * the commutation identity f_m(q) f_n(q^m) = f_n(q) f_m(q^n) for every
        unordered pair of support members m < n <= bound (a strictly weaker
        condition: the constant sequence f_n = 2 passes it and fails the law
        at (1,1));
      * the support law: the nonzero indices <= bound must be exactly the
        declared semigroup.
    Both pair sweeps run in lexicographic order and stop at their first
    failure, which is returned with both sides; failures are report
    content, not errors.  Each sweep visits only the rows where a first
    failure can lie, and in them expands only the pairs that a per-index
    profile does not decide.  So every pair left out holds or comes after
    a failure, and the first failure and its sides are those of the full
    sweep.

    The profile reads a shape e, an exponent e_u and a root of unity
    zeta_u for each dilation u, by peeling the first prime member's value
    that peels (``_peel_exponents``), and sets
        G_n = prod_u [n]_{zeta_u q^u}^(e_u).
    e = {} when no value peels, or when some zeta_u^(p-1) != 1 at a prime
    member p <= bound (``first_inadmissible_prime``).  So zeta_u^(m-1) = 1
    at every member m <= bound, a product of such p, and on members G
    satisfies the law and the commutation identity identically:
    [mn]_{zeta q^u} = [m]_{zeta q^u} [n]_{zeta^m q^(um)} with zeta^m = zeta.
    Index n is regular when n is a member and f_n = c_n q^(s_n) G_n, with
    c_n and s_n the trailing coefficient and valuation of f_n, or when n is
    not a member and f_n = 0; every other index n <= bound is exceptional.
    The shape is only a guess: the comparison at each n, one tuple
    comparison of f_n's primitive part (see ``_profile``), is the proof.
    Each [k]_{zeta q^u} has constant term 1, so dividing out G maps
    f_m(q) f_n(q^m) to the monomial (c_m c_n, s_m + m s_n), or to 0 when
    f_m or f_n is a regular zero.  So an identity between regular values
    holds iff it holds between their monomials.  Pairs whose monomials
    agree are skipped; every other pair is expanded.  A solution with no
    exceptional index expands nothing.

    Write x_n = (f_n, n) in the monoid (a, m)(b, n) = (a(q) b(q^m), mn),
    which is associative: (a(q) b(q^m)) c(q^(mn)) = a(q) (b c(q^n))(q^m).
    The law at (m, n) says x_{mn} = x_m x_n, and the commutation identity
    says x_m x_n = x_n x_m.

    Law rows.  Once the support law holds, the law sweep visits only pairs
    of support members: S(P) is closed under divisors, so when m or n is
    not a member neither is mn, and f_m(q) f_n(q^m) and f_mn are both
    regular zeros, a pair the profile decides.  Its swept indices, the
    members or every n <= bound, are closed under divisors and under
    products <= bound.  Its rows are m = 1 and the primes m.  Suppose the
    first failing pair (a, b) had a composite a = p a', p prime.  Then
    (p, a'), (a', b) and (p, a'b) come before it, as p < a and a' < a, and
    their products a, a'b and ab are all <= bound, so they are swept pairs
    and hold.  So x_ab = x_p x_{a'b} = x_p x_{a'} x_b = x_a x_b, and (a, b)
    holds after all.

    Commutation rows.  The commutation sweep visits the member pairs
    m < n in the rows of the first two regular members r1 < r2 (the
    anchors) and of every exceptional member.  Regular members m < n
    commute iff their monomials agree, as the scalars commute: iff
    s_m + m s_n = s_n + n s_m, that is s_m (n - 1) = s_n (m - 1).  A
    nonzero exceptional member n commutes with no regular r >= 2.  If it
    did, dividing f_r(q) f_n(q^r) = f_n(q) f_r(q^n) by
    G_r(q) G_n(q^r) = G_n(q) G_r(q^n), which holds as r and n are members,
    would give q^(s_r) h(q^r) = q^(n s_r) h(q) for the Laurent series
    h = f_n / G_n (G_n(0) = 1).  With h = a q^k u and u(0) = 1 this says
    r k + s_r = k + n s_r and u(q^r) = u(q).  The lowest term u_j q^j of u
    with j >= 1 would equal the coefficient of q^j in u(q^r): zero when r
    does not divide j, and u_(j/r) = 0 with 0 < j/r < j when it does.  So
    u = 1 and f_n = a q^k G_n, that is, the member n would be regular.
    Now suppose the first failing member pair (a, b) had a regular a that
    is not an anchor, so r2 < a < b.
      * If b is regular, a pair in an anchor's row fails first.  When
        r1 > 1, (r1, a) and (r1, b) holding would give s_n = sigma (n - 1)
        at n = a, b with sigma = s_r1 / (r1 - 1), and then
        s_a (b - 1) = sigma (a - 1)(b - 1) = s_b (a - 1).  When r1 = 1,
        (1, r2) fails unless s_1 = 0, and then (r2, a) and (r2, b) holding
        would fix sigma = s_r2 / (r2 - 1) the same way.  Each of these
        pairs comes before (a, b).
      * If f_b != 0 is exceptional, it fails against r1 or r2, one of
        which is >= 2, at (r_i, b), which comes before (a, b).
      * If f_b = 0, both sides are 0 and (a, b) holds.
    So the first failing member pair lies in an anchor or exceptional row.

    Commutation once the law holds.  Then pairs (1, n) commute, and the
    first failing member pair is a prime pair p1 < p2 with p1 p2 > bound.
    A member k <= bound is the product of x_p over its prime factors p,
    all members <= bound; the centraliser {y : x y = y x} is a submonoid,
    so x_m and x_n commute once x_p and x_r do for all primes p | m,
    r | n; and a prime pair with p1 p2 <= bound commutes, as
    x_{p1} x_{p2} = x_{p1 p2} = x_{p2} x_{p1}.  If (m, n) fails, some
    primes p | m, r | n with p != r fail, and (min(p, r), max(p, r)) is
    lexicographically <= (m, n): min <= m, and min = m forces p = m prime
    and max = r <= n.  So the sweep takes only the prime pairs past the
    bound in the anchor and exceptional rows.  When the law fails the
    report names the law's pair, and the sweep, over all pairs in those
    rows, decides ``commutativity_ok``.
    """
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    ring = F.ring
    members = support_members(F.support, bound)
    profile, support_ok = _profile(F, members, bound)

    def times(m: int, n: int):
        """The monomial of f_m(q) f_n(q^m); 0 when f_m or f_n is a regular
        zero, None when it is unknown."""
        x, y = profile.get(m), profile.get(n)
        if x and y:
            return ring.mul(x[0], y[0]), x[1] + m * y[1]
        return 0 if x == 0 or y == 0 else None

    # The law's rows where a first failure can lie; see the docstring.
    idx = members if support_ok else range(1, bound + 1)
    law = first_failing_pair(
        ((m, n) for m in idx if m == 1 or is_prime(m)
         for n in idx[:bisect(idx, bound // m)]
         if (x := times(m, n)) is None or x != profile.get(m * n)),
        lambda m, n: (F.eval(m * n), otimes(F.eval(m), F.eval(n), m)))
    fe_ok = law is None

    def commutation(m: int, n: int):
        fm, fn = F.eval(m), F.eval(n)
        return otimes(fm, fn, m), otimes(fn, fm, n)

    # The commutation rows where a first failure can lie, and once the law
    # holds only their prime pairs past the bound; see the docstring.
    anchors = [n for n in members if n in profile][:2]
    hit = first_failing_pair(
        ((m, n) for i, m in enumerate(members)
         if m in anchors or m not in profile
         if not fe_ok or is_prime(m)
         for n in members[i + 1:]
         if not fe_ok or m * n > bound and is_prime(n)
         if (x := times(m, n)) is None or x != times(n, m)), commutation)
    first = law or hit
    return VerificationReport(
        bound, fe_ok, hit is None, support_ok,
        None if first is None else FailedIdentity(*first))


def _profile(F: FESequence, members: list[int], bound: int
             ) -> tuple[dict, bool]:
    """``verify_fe``'s profile of the indices n <= bound, and the support law.

    The profile maps n to 0 when n is not a support member and f_n = 0, and
    a member n to the monomial (c_n, s_n) of f_n / G_n when that quotient
    is one; exceptional indices are absent.  ``members`` are the support
    members <= bound, and the flag says whether they are exactly the
    indices with f_n != 0.  Off the support, ``FESequence.eval`` returns
    its zero at every n without reading the rule, so a sequence with that
    eval is 0 there by construction and no index is read.  A sequence
    that overrides eval may be nonzero off its declared support, so each
    of its off-support values is read, all in one pass.  Only the members
    go on to the regularity test below.

    A member n is regular iff (w, P) == (v, t), for f_n = c q^s P(q^w)
    with P(0) != 0 (``poly``'s stored quadruple): as G_n(0) = 1,
    f_n = c_n q^s G_n says P(q^w) = P[0] G_n, and over Q, where P is
    primitive, that t and v are the primitive tuple and stride of P[0] G_n.
    For G_n = [n]_{q^u} t is P[0] n times at stride u, and for G_n = 1
    (u = 0 or n = 1) once at stride 0.  Otherwise G_n is the product of the
    factors of e_u > 0 (a peel leaves one) divided exactly, in linear time,
    by [n]_{q^u} once per unit of each e_u < 0: no member value is
    multiplied.  An inexact division makes n exceptional: prod(den)(0) = 1,
    and f_n prod(den) = c_n q^(s_n) prod(num) force prod(den) | prod(num).
    """
    ring = F.ring
    peels = (_peel_exponents(F.eval(p), p) for p in members if is_prime(p))
    e = next((e for e in peels if e is not None), {})
    zetas = {z for _, z in e.values()}
    if any(first_inadmissible_prime(filter(is_prime, members), z, ring)
           for z in zetas - {ring.one}):
        e, zetas = {}, set()
    # G_n = [n]_{q^u}, or 1 with u = 0: a template decides (see above).
    u = next(iter(e), 0)
    by_template = not e or len(e) == 1 and e[u] == (1, ring.one)
    member_set = set(members)
    off = [n for n in range(1, bound + 1) if n not in member_set]
    if type(F).eval is FESequence.eval:
        profile = dict.fromkeys(off, 0)
    else:
        profile = {n: 0 for n in off if not F.eval(n).primitive}
    support_ok = len(profile) == len(off)
    for n in members:
        f = F.eval(n)
        if f.is_zero():
            support_ok = False
            continue
        P = f.primitive
        if by_template:
            v, t = (u, (P[0],) * n) if u and n > 1 else (0, P[:1])
        else:
            base = {z: scaled_quantum_integer(n, z, ring) for z in zetas}
            # Dilation is a ring map: take the power first, on the shorter value.
            num = [(base[z] ** k).dilate(v) for v, (k, z) in e.items() if k > 0]
            den = [base[z].dilate(v) for v, (k, z) in e.items() for _ in range(-k)]
            try:
                G = reduce(Polynomial.exact_div, den, reduce(mul, num))
            except InexactDivision:
                continue
            G = G.scale(P[0])
            v, t = G.stride, G.primitive
        if f.stride == v and P == t:
            s = f.valuation()
            profile[n] = (f.coefficient(s), s)
    return profile, support_ok


def _peel_exponents(g: Polynomial, p: int) -> dict[int, tuple] | None:
    """A guess at e: u -> (e_u, zeta_u) with g = a q^v prod_u
    [p]_{zeta_u q^u}^(e_u), for some a != 0.

    Work on P = g / q^v, which starts at the trailing term a (deg P is g's
    degree less its valuation, however g is stored).
    [p]_{zeta q^u}^c = 1 + c zeta q^u + (higher terms), so the lowest
    nonzero P[u] = x P[0], u >= 1, gives e_u = c, zeta_u = 1 when x is an
    integer c, and else e_u = 1, zeta_u = x when x is a root of unity;
    dividing out [p]_{zeta q^u}^c (or multiplying in [p]_{q^u}^(-c)) clears
    it, and the next lowest term sits at a larger u.  Repeat until P is
    constant.

    A wrong guess must stay cheap: give up (None) when g = 0, when x is
    neither an integer k with |k| <= min(deg P, _PEEL_LIMIT) (over GF(l)
    the k of least |k|, the balanced residue) nor a root of unity of the
    ring, when the number of peels would pass that cap, when a peel would
    take the degree below 0 or above twice the starting degree, or when a
    division is inexact.  Each rule bounds a different growth: without the
    cap a dense seed with coefficients -1, -2, -3 reads a large c and
    divides by [p]_q^c, and without the degree window 1 - q^D, which peels
    c = -1 at u = D, pD, p^2 D, ..., reaches degree p^cap D.  With both
    there are at most _PEEL_LIMIT products or quotients of degree at most
    2 deg P above the valuation.
    """
    if g.is_zero():
        return None
    ring, P, span = g.ring, g.primitive, g.degree - g.exponent
    cap, top = min(span, _PEEL_LIMIT), 2 * span
    e = {}
    while len(P) > 1:
        j = next(j for j in range(1, len(P)) if not ring.is_zero(P[j]))
        u, span = j * g.stride, g.degree - g.exponent
        x = ring.mul(P[j], ring.inv(P[0]))
        c = next((k for k in sorted(range(cap, -cap - 1, -1), key=abs)
                  if k and ring.normalize(k) == x), None)
        zeta = ring.one
        if c is None and root_of_unity_order(ring, x):
            c, zeta = 1, x
        if c is None or len(e) == cap:
            return None
        if not 0 <= span - c * u * (p - 1) <= top:
            return None
        factor = (scaled_quantum_integer(p, zeta, ring) ** abs(c)).dilate(u)
        try:
            g = g.exact_div(factor) if c > 0 else g * factor
        except InexactDivision:
            return None
        P = g.primitive
        e[u] = c, zeta
    return e


def additive_law_holds(value: Callable[[int], Polynomial], bound: int) -> bool:
    """f_{m+n} = f_m(q) + q^m f_n(q) for every m, n >= 1 with m + n <= bound.

    ``value(k)`` supplies f_k.  Only the generator pairs (k, 1), k < bound,
    are expanded.  Write x_k = (f_k, k) in the monoid
    (a, m)(b, n) = (a + q^m b, m + n), which is associative:
    (a + q^m b) + q^(m+n) c = a + q^m (b + q^n c).  The law at (m, n) says
    x_{m+n} = x_m x_n.  The pairs (k, 1) give x_k = x_1^k for k <= bound by
    induction, so x_m x_n = x_1^(m+n) = x_{m+n} whenever m + n <= bound;
    and they are themselves law pairs, so the two checks agree.
    """
    f1 = value(1)
    return all(value(k + 1) == oplus(value(k), f1, k)
               for k in range(1, bound))


class DeltaInconsistencyError(ValueError):
    """The table cannot be written as delta(n) = t(n-1) for a single t."""

    def __init__(self, m: int, delta_m, n: int, delta_n):
        self.witness = (m, delta_m, n, delta_n)
        if m == 1:
            super().__init__(f"delta(1) = {delta_m} but t(1-1) is always 0")
        else:
            super().__init__(
                f"delta({m}) = {delta_m} gives slope {Fraction(delta_m, m - 1)} "
                f"but delta({n}) = {delta_n} gives slope "
                f"{Fraction(delta_n, n - 1)}")


def solve_delta(table: Mapping[int, int | Fraction]) -> Fraction:
    """Fit delta(n) = t(n-1) to a table over support members; exact t.

    The slope is anchored at the smallest tabulated n >= 2 and every other
    entry is cross-checked; a mismatch raises with the witness pair.  A table
    with no entry beyond n = 1 leaves t undetermined and is an error rather
    than a guess.
    """
    if 1 in table and table[1] != 0:
        raise DeltaInconsistencyError(1, table[1], 1, table[1])
    keys = sorted(n for n in table if n >= 2)
    if not keys:
        raise ValueError("t is undetermined: no table entry with n >= 2")
    anchor = keys[0]
    t = Fraction(table[anchor]) / (anchor - 1)
    for n in keys[1:]:
        if Fraction(table[n]) / (n - 1) != t:
            raise DeltaInconsistencyError(anchor, table[anchor], n, table[n])
    return t


def infer_degree_t(F: FESequence, bound: int) -> Fraction:
    """The slope t with deg(f_n) = t(n-1) across the support up to bound."""
    table = {}
    for n in support_members(F.support, bound):
        deg = F.eval(n).degree
        if deg is None:
            raise ValueError(f"f_{n} is zero on the declared support")
        table[n] = deg
    return solve_delta(table)


class DecompositionError(ValueError):
    pass


class Decomposition(Record):
    """The canonical factorization f_n = lambda(n) q^(t(n-1)) g_n(q).

    delta tabulates the valuation of f_n, lambda its trailing nonzero
    coefficient, and G is the monic-at-0 cofactor sequence (g_n(0) = 1 on
    the support); all three are uniquely determined by F.
    """

    t: Fraction
    delta: dict[int, int]
    lam: dict[int, object]
    G: FESequence


def decompose(F: FESequence, bound: int) -> Decomposition:
    """Split F into slope, multiplicative scalar part, and unit-constant core.

    Expects a sequence satisfying the functional equation up to the bound
    (run verify_fe first when in doubt); a delta table off the t(n-1) line,
    or a member n whose lambda(n) is not the product of lambda(p)^e over
    n = prod p^e, means the input was not a solution, and raises
    DecompositionError naming the first such n.
    """
    ring = F.ring
    members = support_members(F.support, bound)
    delta: dict[int, int] = {}
    lam: dict[int, object] = {}
    for n in members:
        f = F.eval(n)
        if f.is_zero():
            raise DecompositionError(f"f_{n} is zero on the declared support")
        v = f.valuation()
        delta[n] = v
        lam[n] = f.coefficient(v)
    try:
        t = solve_delta(delta)
    except ValueError as exc:
        raise DecompositionError(f"valuation table: {exc}") from exc
    bad = first_nonmultiplicative(lam, ring.mul, ring.pow, ring.one)
    if bad is not None:
        raise DecompositionError(f"lambda is not completely multiplicative at "
                                 f"{bad}: not the product over its primes")

    def core_rule(n: int) -> Polynomial:
        f = F.eval(n)
        v = f.valuation()
        return f.exact_div(monomial(ring, v, f.coefficient(v)))

    G = FESequence(ring, F.support, core_rule, f"core({F.name})")
    return Decomposition(t, delta, lam, G)


class QuantumForcedReport(Record):
    """Outcome of the forced-form check deg f_n = n-1, f_n(0) = 1 => [n]_q.

    Hypothesis failures are outcomes, not errors: callers legitimately probe
    sequences that violate them.
    """

    confirmed: bool
    failed_hypothesis: str | None
    witness: int | None


def check_quantum_forced(F: FESequence, bound: int) -> QuantumForcedReport:
    """Check the hypotheses and conclusion forcing f_n = [n]_q.

    Hypotheses: the support S(P) contains 2 and an odd member > 1, that is,
    P is all primes or holds 2 and an odd prime, whatever the bound; and
    every support member n <= bound has deg f_n = n-1 and constant term 1.
    When they hold, the conclusion f_n = [n]_q is asserted for every
    support member <= bound.
    """
    P = F.support
    if not (P.is_all or 2 in P.primes):
        return QuantumForcedReport(False, "support does not contain 2", 2)
    if not (P.is_all or P.primes[-1] > 2):
        return QuantumForcedReport(
            False, "support has no odd member greater than 1", None)
    members = support_members(P, bound)
    for n in members:
        f = F.eval(n)
        if f.degree != n - 1:
            return QuantumForcedReport(False, "degree is not n-1", n)
        if f.constant_term != F.ring.one:
            return QuantumForcedReport(False, "constant term is not 1", n)
    for n in members:
        if F.eval(n) != quantum_integer(n, F.ring):
            return QuantumForcedReport(False, "conclusion fails", n)
    return QuantumForcedReport(True, None, None)


class OracleFamily(Record):
    """One solution of the degree-(n-1), unit-constant constraint system."""

    a: Fraction
    polynomials: dict[int, Polynomial]


def _rational_roots(c: Polynomial) -> set[Fraction]:
    """All rational roots of a nonzero polynomial over the rationals."""
    ints = c.primitive
    roots = set()
    lead, const = ints[-1], ints[0]
    for p in divisors(abs(const)):
        for q in divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if c.evaluate(cand) == 0:
                    roots.add(cand)
    if c.evaluate(Fraction(0)) == 0:
        roots.add(Fraction(0))
    return roots


def _forced_coefficients(n: int, a, one):
    """What f_n(q) f_2(q^n) = f_2(q) f_n(q^2) forces, degree by degree.

    Take f_2 = 1 + a q and f_n = b_0 + b_1 q + ... + b_{n-1} q^{n-1} with
    b_0 = 1.  At degree k the left side is b_k for k < n and a b_{k-n} for
    n <= k < 2n; the right side is b_{k//2} for even k and a b_{k//2} for
    odd k; from degree 2n up both sides are zero.  So each k < n pins b_k
    to an earlier coefficient, and each n <= k < 2n leaves diffs[k - n],
    left minus right, which a solution must make zero.

    a and one are values of one ring: the unknown and 1 in Q[a] (symbolic),
    or a rational and 1 (numeric).  Returns (b, diffs).
    """
    b = [one]

    def right(k: int):
        return b[k // 2] if k % 2 == 0 else a * b[k // 2]

    for k in range(1, n):
        b.append(right(k))
    return b, [a * b[k - n] - right(k) for k in range(n, 2 * n)]


def uniqueness_oracle(N: int) -> list[OracleFamily]:
    """Reconstruct, from scratch, all length-N solutions with deg f_n = n-1
    and f_n(0) = 1 over the rationals.

    Works the coefficient recurrence of ``_forced_coefficients`` directly.
    With f_2 = 1 + a q, the identity f_n(q) f_2(q^n) = f_2(q) f_n(q^2) pins
    b_k = b_{k//2} (k even) or a b_{k//2} (k odd) for k < n and leaves the
    differences a b_{k-n} - (b_{k//2} or a b_{k//2}) for n <= k < 2n.  At
    n = 3 these are polynomials in the unknown a (a - a^2 and a^2 - a); the
    admissible values of a are their common nonzero rational roots.  Each
    candidate is then run through every odd n <= N over Q, extended to even
    indices by f_{2m} = f_2(q) f_m(q^2), and kept only if every difference
    vanishes.  b_{n-1} = a^popcount(n-1) is nonzero, so deg f_n = n-1 holds.

    Candidates that fail, and non-unique outcomes, are returned rather than
    suppressed.
    """
    if N < 3:
        raise ValueError(f"the constraint system needs N >= 3, got {N}")
    _, diffs = _forced_coefficients(3, monomial(QQ, 1), poly.one(QQ))
    candidates = set.intersection(*({r for r in _rational_roots(c) if r != 0}
                                    for c in diffs if not c.is_zero()))

    families = []
    for a in sorted(candidates):
        fs = {1: poly.one(QQ), 2: poly.from_rationals([1, a])}
        for n in range(3, N + 1):
            if n % 2 == 0:
                fs[n] = otimes(fs[2], fs[n // 2], 2)
                continue
            b, diffs = _forced_coefficients(n, a, QQ.one)
            if any(diffs):
                break
            fs[n] = poly.from_rationals(b)
        else:
            families.append(OracleFamily(a, fs))
    return families


class ZetaAdmissibilityReport(Record):
    admissible: bool
    d: int
    counterexample: int | None


def zeta_admissibility(primes, zeta, ring: Ring = QQ,
                       bound: int = 1000) -> ZetaAdmissibilityReport:
    """Decide zeta**d = 1 for d = gcd{p-1}, that is, zeta**(p-1) = 1 at
    every p in P.  The counterexample is the least member m <= bound with
    zeta**(m-1) != 1: the least such prime, as the m with zeta**(m-1) = 1
    are closed under products."""
    P = PrimeSet.of(primes)
    d = seed_gcd(P)
    p = first_inadmissible_prime(P.primes, ring.normalize(zeta), ring)
    return ZetaAdmissibilityReport(p is None, d,
                                   p if p is not None and p <= bound else None)
