"""Kernels on int vectors: no ring and no polynomial object.

Every function here takes int vectors, coefficients in ascending degree
order, with their lengths, strides and widths, and returns int vectors.
``poly`` owns the forms, the codec and normalisation above them and calls
these as ``kernels.<name>``, the line FLINT draws between its
``_fmpz_poly_*`` / ``_fmpz_vec_*`` functions and ``fmpz_poly_t``.  This
module imports only the standard library.

Packing.  An int vector v is packed at k bytes per slot as
X = sum v_i 2^(8k i).  When every |v_i| < 2^(8k-1) the slots are balanced
digits: adding the bias B = sum 2^(8k-1) 2^(8k i) makes every slot a plain
unsigned byte string, and flipping each slot's top bit (xor B) turns it
into the slot's two's complement, so packing and unpacking are byte-level
conversions.  Two int vectors whose entries are all below 2^(8k-1) in
magnitude are equal exactly when their packed values are.  A slot is 1, 2,
4 or 8 bytes, an array item, or any wider count of bytes.

Products.  One rule, counted on slots and bytes, picks ``_convolve``'s
route for the slots of every ring: more than PACK_MIN_OPS nonzero slot pairs, and more
than PACK_DENSE of them per byte of the packed result, make one bigint
product (Kronecker substitution) at a width of k bytes per slot that
provably holds every result slot.  A stride spreads the second operand's
bytes as it packs them.  Any other product goes pair by pair over the
nonzero slots.  A packed square packs its operand once, and CPython
squares an int faster than it multiplies two.

Running sums.  h_i += h_(i - k) for i in turn multiplies a vector by
1 / (1 - q^k) to its length; less the same sums kn slots on, it multiplies by [n]_{q^k},
as (1 - q^k) [n]_{q^k} = 1 - q^(kn).  ``_running_sum`` makes one
``accumulate`` per residue class or one slice addition per block,
whichever is fewer.

Geometric division.  ``_geometric_div`` divides v by [n]_{q^u} in linear
time, the geometric row run backwards: one pass of subtractions makes
t = (1 - q^u) v, and a running sum at step un, h_i = t_i + h_(i - un),
divides t by 1 - q^(un).  Then h (1 - q^(un)) equals t below the
quotient's length, and the kernel accepts h only when the top un entries
of t equal those of -q^(un) h, mod p over GF(p).  That proves
t = h (1 - q^u) [n]_{q^u}, so v = h [n]_{q^u} as 1 - q^u is no zero
divisor; conversely, when [n]_{q^u} divides v the power series quotient is
the exact one, so a mismatch, or a nonzero v shorter than [n]_{q^u},
proves it inexact.

Exact quotients.  ``_int_quotient`` divides by a primitive int vector in
one packed bigint quotient when the long division takes more than
PACK_MIN_OPS steps and the width proves it (the proof is
``_packed_quotient``'s), else by ``_int_divmod``.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import add, attrgetter, sub

# Product selection, on slots; see the module docstring.  Measured on a
# 2-CPU x86 host with Python 3.11: an int slot pair costs 0.06-0.17 us pair
# by pair, a packed result byte 0.014-0.09 us, a ratio of 0.16-1.1 by
# shape.  Over every product of more than PACK_MIN_OPS pairs in two blocks
# of each perfbench workload, the total time is flat for PACK_DENSE from
# 0.2 to 0.6, and 0.5 holds back the wide slots where packing costs most.
PACK_MIN_OPS = 64
PACK_DENSE = 0.5

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")
# Signed array typecodes by item size, for slots of 1, 2, 4 or 8 bytes.
_SLOT_CODES = {array(code).itemsize: code for code in "bhilq"}


def _ints(values) -> bool:
    """Whether every value is an int; stops at the first that is not."""
    return all(map(operator.is_, map(type, values), repeat(int)))


def _inflate(v: Sequence, k: int, w: int = 1, zero=0) -> Sequence:
    """v's rows of w entries k rows apart over zero fills, or v for k <= 1;
    the last row may be cut short, as ``_slots`` cuts it."""
    if k < 2 or len(v) <= w:
        return v
    out = [zero] * ((len(v) - 1) // w * w * (k - 1) + len(v))
    for j in range(w):
        out[j::k * w] = v[j::w]
    return out


def _int_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """(D, q, r) with D f = q g + r for int vectors, r shorter than g, for
    g with a positive last entry.

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
    return den, quo, rem


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
    return k if k > 8 else (1, 1, 2, 4, 4, 8, 8, 8, 8)[k]


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


def _geometric_div(p: int, v: Sequence[int], n: int, u: int) -> list[int] | None:
    """v / [n]_{q^u} through 1 - q^(un) for an int vector v over Q (p = 0)
    or GF(p), or None when [n]_{q^u} does not divide v.  See the module
    docstring."""
    period, nq = u * n, len(v) - u * (n - 1)
    if nq < 1:  # a nonzero v shorter than [n]_{q^u}
        return None
    h = list(map(sub, chain(v, repeat(0, u)), chain(repeat(0, u), v)))  # t = (1 - q^u) v
    top = h[nq:]
    del h[nq:]
    _running_sum(h, period)  # h = t / (1 - q^(un))
    # Above h's slots, h (1 - q^(un)) leaves only -q^(un) h.
    lo = max(0, period - nq)
    top[lo:] = map(add, top[lo:], h[nq - period + lo:])
    return None if any([x % p for x in top] if p else top) else h


def _running_sum(h: list[int], step: int) -> None:
    """h_i += h_(i - step) for i in turn, in place (see the module docstring)."""
    if step * step < len(h):
        for r in range(step):
            h[r::step] = accumulate(h[r::step])
    else:
        for s in range(step, len(h), step):
            h[s:s + step] = map(add, h[s:s + step], h[s - step:s])


def _packed_quotient(vf: Sequence[int], vg: Sequence[int]) -> list[int] | None:
    """vf / vg for a primitive vg by one bigint division, or None when that
    proves nothing.  By Gauss's lemma vf = vg H with H an int vector when vg
    divides vf over Q, so X = Y pack(H) at any width: a nonzero remainder of
    X / Y means vg does not divide vf.  A zero one proves vf = vg H once the
    slots hold every coefficient of vf and of vg H."""
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


def _int_quotient(vf: Sequence[int], vg: Sequence[int]) -> list[int] | None:
    """vf / vg for a primitive vg, or None when vg does not divide vf: the
    packed quotient past PACK_MIN_OPS steps when its width proves it, else
    the long division, whose quotient over D is in ints by Gauss's lemma."""
    nq = len(vf) - len(vg) + 1
    if nq * (len(vg) - vg.count(0)) > PACK_MIN_OPS:
        if (h := _packed_quotient(vf, vg)) is not None:
            return h
    den, quo, rem = _int_divmod(vf, vg)
    return None if any(rem) else quo if den == 1 else [x // den for x in quo]
