"""Command-line surface: construct, verify, decompose, demo, oracle.

Outputs are deterministic: tables sorted by index, JSON keys sorted, no
timestamps.  Exit statuses: 0 success / all checks confirmed, 1 a
mathematical check failed, 2 malformed input, 3 seed commutativity failed,
141 stdout was closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import analyze, poly, sequences
from .poly import Polynomial, quantum_integer
from .rings import (QQ, CyclotomicField, PrimeField, Ring,
                    ring_from_descriptor, scalar_text)
from .semigroup import (ALL_PRIMES, PrimeSet, enumerate_semigroup,
                        primeset_from_json, seed_gcd, support_members)
from .sequences import (CommutativityError, FESequence, additive_sequence,
                        assemble, from_seeds, identity_sequence,
                        monomial_sequence, oplus, psi_substitute_sequence,
                        quantum_sequence, reciprocal_sequence,
                        zeta_scaled_sequence, ZetaAdmissibilityError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_COMMUTATIVITY = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Degrees grow like t * upto; this cap keeps the largest printed polynomial
# well under ~10^5 terms for the sequences the tool builds.
MAX_UPTO = 5000

BUILTIN_NAMES = ("quantum", "monomial", "identity", "constant2", "power7-third")
DEMO_NAMES = ("nathanson-257", "zeta-neg1-p3", "additive", "frobenius-gf2",
              "reciprocal")


class SeedSpecError(ValueError):
    """A seed file that does not match the documented JSON shape."""


@dataclass
class SeedSpec:
    ring: Ring
    primes: PrimeSet
    seeds: dict[int, Polynomial]


def parse_seed_spec(obj) -> SeedSpec:
    """Validate and decode the seed-file JSON object."""
    if not isinstance(obj, dict):
        raise SeedSpecError("top level must be a JSON object")
    for key in ("ring", "primes", "seeds"):
        if key not in obj:
            raise SeedSpecError(f"missing top-level key {key!r}")
    try:
        ring = ring_from_descriptor(obj["ring"])
    except ValueError as exc:
        raise SeedSpecError(f"ring: {exc}") from exc
    try:
        primes = primeset_from_json(obj["primes"])
    except ValueError as exc:
        raise SeedSpecError(f"primes: {exc}") from exc
    if primes.is_all:
        raise SeedSpecError("primes: seed construction needs a finite set")
    raw_seeds = obj["seeds"]
    if not isinstance(raw_seeds, dict):
        raise SeedSpecError("seeds: must be an object keyed by prime strings")
    seeds: dict[int, Polynomial] = {}
    for key, coeffs in raw_seeds.items():
        # Only the canonical decimal of a positive integer: int() alone
        # would also read "+2", " 2", "0_2" and non-ASCII digits as 2.
        try:
            p = int(key, 10)
        except ValueError:
            p = 0
        if p < 1 or str(p) != key:
            raise SeedSpecError(f"seeds: key {key!r} is not a positive decimal integer")
        if not isinstance(coeffs, list) or not coeffs:
            raise SeedSpecError(f"seeds[{key}]: must be a nonempty array")
        try:
            vals = [ring.scalar_from_json(c) for c in coeffs]
        except (ValueError, TypeError) as exc:
            raise SeedSpecError(f"seeds[{key}]: {exc}") from exc
        except ZeroDivisionError as exc:
            raise SeedSpecError(f"seeds[{key}]: zero denominator") from exc
        h = Polynomial(ring, vals)
        if h.degree != len(coeffs) - 1:
            raise SeedSpecError(f"seeds[{key}]: last coefficient must be nonzero")
        seeds[p] = h
    if set(seeds) != set(primes.primes):
        raise SeedSpecError(
            f"seed keys {sorted(seeds)} must match primes {list(primes.primes)}")
    return SeedSpec(ring, primes, seeds)


def load_seed_spec(path: str) -> SeedSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SeedSpecError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SeedSpecError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer over Python's digit limit,
        # or nesting deeper than the decoder's recursion limit.
        raise SeedSpecError(f"{path}: {exc}") from exc
    return parse_seed_spec(obj)


RING_FLAG_KINDS = {"gfp": ("prime_field", "p"), "cyclotomic": ("cyclotomic", "d")}


def parse_ring_flag(text: str) -> Ring:
    """--ring values: rational | gfp:p | cyclotomic:d, built as descriptors."""
    if text == "rational":
        return QQ
    prefix, colon, number = text.partition(":")
    if not colon or prefix not in RING_FLAG_KINDS:
        raise SeedSpecError(f"unknown ring {text!r}; use rational, gfp:p, cyclotomic:d")
    kind, key = RING_FLAG_KINDS[prefix]
    try:
        if not re.fullmatch(r"-?[0-9]+", number):
            raise ValueError(f"{key} must be a decimal integer")
        return ring_from_descriptor({"kind": kind, key: int(number)})
    except ValueError as exc:
        raise SeedSpecError(f"--ring {text}: {exc}") from exc


def builtin_sequence(name: str, ring: Ring = QQ) -> FESequence:
    if name == "quantum":
        return quantum_sequence(ring)
    if name == "monomial":
        return monomial_sequence(ring)
    if name == "identity":
        return identity_sequence(ring)
    if name == "constant2":
        two = poly.constant(ring, ring.from_int(2))
        return FESequence(ring, ALL_PRIMES, lambda n: two, "constant2")
    if name == "power7-third":
        base = identity_sequence(ring, PrimeSet.of([7]))
        F = assemble(Fraction(1, 3), {1: ring.one, 7: ring.one}, base)
        F.name = name
        return F
    raise SeedSpecError(f"unknown builtin {name!r}; have {', '.join(BUILTIN_NAMES)}")


def resolve_sequence(token: str, ring_flag: str | None) -> FESequence:
    """A builtin name, or a path to a seed file.

    Builtins are built over the --ring ring, rational when it is not given.
    A seed file carries its own ring; an explicit --ring must name it.
    """
    ring = parse_ring_flag("rational" if ring_flag is None else ring_flag)
    if token in BUILTIN_NAMES:
        return builtin_sequence(token, ring)
    spec = load_seed_spec(token)
    if ring_flag is not None and ring != spec.ring:
        raise SeedSpecError(
            f"--ring {ring_flag} conflicts with the seed file's ring {spec.ring}")
    return from_seeds(spec.primes, spec.seeds)


def _check_upto(n: int, low: int = 1, high: int = MAX_UPTO) -> int:
    if not low <= n <= high:
        raise SeedSpecError(f"--upto must be in [{low}, {high}], got {n}")
    return n


# -- construct --------------------------------------------------------------

def write_table(F: FESequence, upto: int, fh) -> None:
    """One tab-separated row per n <= upto, each written as it is built."""
    for n in range(1, upto + 1):
        f = F.eval(n)
        if f.is_zero():
            fh.write(f"{n}\tfalse\t-\t0\n")
        else:
            fh.write(f"{n}\ttrue\t{f.degree}\t{f.pretty()}\n")


def cmd_construct(args) -> int:
    upto = _check_upto(args.upto)
    spec = load_seed_spec(args.seed_file)
    F = from_seeds(spec.primes, spec.seeds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_table(F, upto, fh)
    else:
        write_table(F, upto, sys.stdout)
    return EXIT_OK


# -- verify -----------------------------------------------------------------

def report_to_json(name: str, report: analyze.VerificationReport) -> dict:
    obj = {
        "sequence": name,
        "bound": report.bound,
        "fe_ok": report.fe_ok,
        "commutativity_ok": report.commutativity_ok,
        "support_ok": report.support_ok,
        "first_failure": None,
    }
    if report.first_failure is not None:
        fail = report.first_failure
        obj["first_failure"] = {"m": fail.m, "n": fail.n,
                                "lhs": fail.lhs.pretty(), "rhs": fail.rhs.pretty()}
    return obj


def print_report(name: str, report: analyze.VerificationReport, as_json: bool):
    if as_json:
        print(json.dumps(report_to_json(name, report), sort_keys=True))
        return
    print(f"sequence: {name}")
    print(f"bound: {report.bound}")
    print(f"fe_ok: {_yn(report.fe_ok)}")
    print(f"commutativity_ok: {_yn(report.commutativity_ok)}")
    print(f"support_ok: {_yn(report.support_ok)}")
    if report.first_failure is None:
        print("first_failure: none")
    else:
        fail = report.first_failure
        print(f"first_failure: m={fail.m} n={fail.n} "
              f"lhs={fail.lhs.pretty()} rhs={fail.rhs.pretty()}")


def _yn(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_verify(args) -> int:
    upto = _check_upto(args.upto, low=2)
    F = resolve_sequence(args.sequence, args.ring)
    report = analyze.verify_fe(F, upto)
    print_report(F.name, report, args.json)
    return EXIT_OK if report.fe_ok else EXIT_CHECK_FAILED


# -- decompose --------------------------------------------------------------

def decomposition_to_json(dec: analyze.Decomposition, ring: Ring,
                          members: list[int]) -> dict:
    return {
        "t": str(dec.t),
        "delta": {str(n): dec.delta[n] for n in members},
        "lambda": {str(n): ring.scalar_to_json(dec.lam[n]) for n in members},
        "g": {str(n): dec.G.eval(n).pretty() for n in members},
    }


def cmd_decompose(args) -> int:
    upto = _check_upto(args.upto, low=2)
    F = resolve_sequence(args.sequence, args.ring)
    report = analyze.verify_fe(F, upto)
    if not report.ok:
        print_report(F.name, report, args.json)
        return EXIT_CHECK_FAILED
    dec = analyze.decompose(F, upto)
    members = support_members(F.support, upto)
    if args.json:
        print(json.dumps(decomposition_to_json(dec, F.ring, members),
                         sort_keys=True))
        return EXIT_OK
    print(f"sequence: {F.name}")
    print(f"t: {dec.t}")
    print("n\tdelta\tlambda\tg")
    for n in members:
        lam_text = scalar_text(F.ring, dec.lam[n])
        print(f"{n}\t{dec.delta[n]}\t{lam_text}\t{dec.G.eval(n).pretty()}")
    return EXIT_OK


# -- oracle -----------------------------------------------------------------

def cmd_oracle(args) -> int:
    if not 3 <= args.upto <= 25:
        raise SeedSpecError(f"--upto must be in [3, 25], got {args.upto}")
    families = analyze.uniqueness_oracle(args.upto)
    print(f"families: {len(families)}")
    for fam in families:
        print(f"a = {fam.a}")
        for n in range(1, args.upto + 1):
            print(f"  f_{n} = {fam.polynomials[n].pretty()}")
    if len(families) == 1 and all(
            fam.polynomials[n] == quantum_integer(n)
            for fam in families for n in range(1, args.upto + 1)):
        print("unique: the all-ones family")
        return EXIT_OK
    print("unique: no")
    return EXIT_CHECK_FAILED


# -- demos ------------------------------------------------------------------

SEEDS_257 = {
    2: poly.from_rationals([1, -1, 1]),
    5: poly.from_rationals([1, -1, 0, 1, -1, 1, 0, -1, 1]),
    7: poly.from_rationals([1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1]),
}


def _say(ok: bool, text: str) -> bool:
    print(("ok    " if ok else "FAIL  ") + text)
    return ok


def demo_nathanson_257() -> int:
    """Three printed seeds over P = {2,5,7}; every value is a ratio of
    dilated to plain quantum integers, with degree 2(n-1)."""
    P = PrimeSet.of([2, 5, 7])
    good = True
    failure = sequences.check_seed_commutativity(SEEDS_257)
    good &= _say(failure is None, "seed pairs commute")
    F = from_seeds(P, SEEDS_257)
    members = enumerate_semigroup(P, 500)
    ratio_ok = all(
        F.eval(n) == quantum_integer(n).dilate(3).exact_div(quantum_integer(n))
        for n in members)
    good &= _say(ratio_ok, "f_n = [n]_{q^3} / [n]_q for all n in S(P), n <= 500")
    deg_ok = all(F.eval(n).degree == 2 * (n - 1) for n in members)
    good &= _say(deg_ok, "deg f_n = 2(n-1) for all n in S(P), n <= 500")
    report = analyze.verify_fe(F, 100)
    good &= _say(report.ok, "functional equation verified up to 100")
    t_deg = analyze.infer_degree_t(F, 100)
    good &= _say(t_deg == 2, f"degree slope t = {t_deg}")
    dec = analyze.decompose(F, 200)
    good &= _say(dec.t == 0, f"valuation slope t = {dec.t} (constant terms are 1)")
    return EXIT_OK if good else EXIT_CHECK_FAILED


def demo_zeta_neg1_p3() -> int:
    """Scaling by -1 is admissible for P = {3} (d = 2) and refused for
    P = {2} (d = 1), with the refusal confirmed by direct expansion."""
    ring = CyclotomicField(2)
    zeta = ring.zeta
    good = True
    good &= _say(seed_gcd(PrimeSet.of([3])) == 2, "P = {3}: d = gcd{p-1} = 2")
    F = zeta_scaled_sequence([3], zeta, ring)
    report = analyze.verify_fe(F, 81)
    good &= _say(report.ok, "P = {3}, zeta = -1: verified up to 3^4")
    verdict = analyze.zeta_admissibility([3], zeta, ring, 1000)
    good &= _say(verdict.admissible, "algebraic and exhaustive verdicts agree")
    refused = False
    try:
        zeta_scaled_sequence([2], zeta, ring)
    except ZetaAdmissibilityError:
        refused = True
    good &= _say(refused, "P = {2}, zeta = -1: construction refused (d = 1)")
    f2 = poly.scaled_quantum_integer(2, zeta, ring)
    lhs = sequences.otimes(f2, f2, 2)
    rhs = poly.scaled_quantum_integer(4, zeta, ring)
    good &= _say(lhs != rhs,
                 f"direct check: f_2(q) f_2(q^2) = {lhs.pretty()} differs "
                 f"from [4]_{{-q}} = {rhs.pretty()}")
    return EXIT_OK if good else EXIT_CHECK_FAILED


def demo_additive() -> int:
    """The shifted sum law on quantum integers and its h-scaled solutions."""
    good = True
    base_ok = all(
        oplus(quantum_integer(m), quantum_integer(n), m) == quantum_integer(m + n)
        for m in range(1, 101) for n in range(1, 101))
    good &= _say(base_ok, "[m]_q + q^m [n]_q = [m+n]_q for all m, n <= 100")
    h = poly.from_rationals([1, 1])
    F = additive_sequence(h)
    ext_ok = all(
        F.eval(m + n) == oplus(F.eval(m), F.eval(n), m)
        for m in range(1, 60) for n in range(1, 60) if m + n <= 60)
    good &= _say(ext_ok, "h = 1+q: f_n = h [n]_q solves the additive law "
                         "for m+n <= 60")
    return EXIT_OK if good else EXIT_CHECK_FAILED


def demo_frobenius_gf2() -> int:
    """Over GF(2) every substitution commutes with squaring, so psi = 1+q+q^3
    carries the quantum solution on S({2}) to a new solution."""
    ring = PrimeField(2)
    base = quantum_sequence(ring, PrimeSet.of([2]))
    psi = Polynomial(ring, [1, 1, 0, 1])
    good = True
    good &= _say(psi ** 2 == psi.dilate(2), "psi(q)^2 = psi(q^2) over GF(2)")
    F = psi_substitute_sequence(base, psi)
    report = analyze.verify_fe(F, 32)
    good &= _say(report.ok, "substituted sequence verified up to 2^5")
    return EXIT_OK if good else EXIT_CHECK_FAILED


def demo_reciprocal() -> int:
    """Coefficient reversal carries solutions to solutions."""
    good = True
    mono = monomial_sequence()
    ident = identity_sequence()
    good &= _say(all(reciprocal_sequence(mono).eval(n) == ident.eval(n)
                     for n in range(1, 65)),
                 "reversal of q^(n-1) is the identity sequence")
    quant = quantum_sequence()
    good &= _say(all(reciprocal_sequence(quant).eval(n) == quant.eval(n)
                     for n in range(1, 65)),
                 "[n]_q is self-reciprocal")
    F = from_seeds(PrimeSet.of([2, 5, 7]), SEEDS_257)
    twice = reciprocal_sequence(reciprocal_sequence(F))
    good &= _say(all(twice.eval(n) == F.eval(n) for n in range(1, 101)),
                 "reversal is involutive on the {2,5,7} seed sequence "
                 "(constant terms are nonzero)")
    rep = analyze.verify_fe(reciprocal_sequence(F), 50)
    good &= _say(rep.ok, "reversed seed sequence still verifies")
    return EXIT_OK if good else EXIT_CHECK_FAILED


DEMOS = {
    "nathanson-257": demo_nathanson_257,
    "zeta-neg1-p3": demo_zeta_neg1_p3,
    "additive": demo_additive,
    "frobenius-gf2": demo_frobenius_gf2,
    "reciprocal": demo_reciprocal,
}


def cmd_demo(args) -> int:
    fn = DEMOS.get(args.name)
    if fn is None:
        raise SeedSpecError(
            f"unknown demo {args.name!r}; have {', '.join(DEMO_NAMES)}")
    print(f"demo: {args.name}")
    return fn()


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfe",
        description="Construct, verify, transform, and classify polynomial "
                    "sequences multiplying like quantum integers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a sequence from a seed file "
                                         "and print a value table")
    p.add_argument("seed_file")
    p.add_argument("--upto", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustively check the functional "
                                      "equation up to a bound")
    p.add_argument("sequence", help="builtin name or seed file path")
    p.add_argument("--upto", type=int, default=64)
    p.add_argument("--json", action="store_true")
    p.add_argument("--ring", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="canonical lambda(n) q^(t(n-1)) g_n "
                                         "factorization")
    p.add_argument("sequence", help="builtin name or seed file path")
    p.add_argument("--upto", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.add_argument("--ring", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("demo", help="run a named end-to-end scenario")
    p.add_argument("name", help=", ".join(DEMO_NAMES))
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("oracle", help="brute-force the degree-(n-1) "
                                      "constraint system")
    p.add_argument("--upto", type=int, default=12)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (``qfe ... | head``).  Point stdout at
        # devnull so that the interpreter's flush at exit stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except CommutativityError as exc:
        fail = exc.failure
        print(f"error: seeds for ({fail.p1}, {fail.p2}) do not commute",
              file=sys.stderr)
        print(f"  h_{fail.p1}(q) h_{fail.p2}(q^{fail.p1}) = {fail.lhs.pretty()}",
              file=sys.stderr)
        print(f"  h_{fail.p2}(q) h_{fail.p1}(q^{fail.p2}) = {fail.rhs.pretty()}",
              file=sys.stderr)
        return EXIT_COMMUTATIVITY
    except SeedSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
