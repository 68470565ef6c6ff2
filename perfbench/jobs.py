"""Seeded jobs for the three workloads, each with an expectation known by
construction.

A job is one call into qfe's public surface: ``qfe.cli.main(argv)`` run
in-process with stdout and stderr captured, or a short library chain for
sequences the CLI cannot name (transforms, tampered near-solutions).  The
job's ``run`` is what the benchmark times; ``prepare`` writes its input
files first and ``check`` compares the outcome with the expectation
afterwards, both outside the timed region.  Checks go through
``reference``, never through the qfe route under test.

Jobs come in rounds: every round holds one job of each kind of the
workload, in a seeded order.  Sizes are stratified per kind: over each
block of ``STRATA`` rounds a kind draws once from each equal slice of its
size range, at one of ``OFFSETS`` points of the slice that the block's
index picks.  Parameters that change the cost are tied to the slice, or
drawn from a generator keyed by the slice instead of the seed, so every
block of a kind pairs the same parameters with the same slice, whatever
the seed.  A run measures whole blocks, so its cost depends little on the
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as R

STRATA = 4
# Points per slice.  Block b takes point b % OFFSETS of every slice, so
# OFFSETS consecutive blocks spread a kind's sizes evenly over its range
# instead of repeating four sizes: job costs then have no wide gaps for
# the median or the tail to jump across.
OFFSETS = 3
QR = R.Rationals()


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when correct, else why not
    prepare: Callable[[], None] | None = None


class Failed(Exception):
    """An expectation that does not hold; the message says which."""


def expect(cond, why):
    if not cond:
        raise Failed(why)


def _checked(fn):
    """Turn a check that raises Failed (or anything) into one that returns why."""
    def check(outcome):
        try:
            fn(outcome)
        except Failed as exc:
            return str(exc)
        except Exception as exc:  # a malformed output is a wrong output
            return f"check raised {type(exc).__name__}: {exc}"
        return None
    return check


def cli(argv):
    """qfe.cli.main in-process; (exit status, stdout, stderr)."""
    import qfe.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qfe.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def report_text(name, bound, fe, comm, supp, failure="none"):
    yn = {True: "true", False: "false"}
    return (f"sequence: {name}\nbound: {bound}\nfe_ok: {yn[fe]}\n"
            f"commutativity_ok: {yn[comm]}\nsupport_ok: {yn[supp]}\n"
            f"first_failure: {failure}\n")


def report_json(name, bound, fe, comm, supp, failure=None):
    return {"sequence": name, "bound": bound, "fe_ok": fe,
            "commutativity_ok": comm, "support_ok": supp,
            "first_failure": failure}


def check_cli_report(outcome, as_json, rc, *fields):
    got_rc, out, err = outcome
    expect(got_rc == rc, f"exit status {got_rc}, expected {rc}; stderr {err[:200]!r}")
    if as_json:
        expect(json.loads(out) == report_json(*fields), f"report {out[:300]!r}")
    else:
        expect(out == report_text(*fields), f"report {out[:300]!r}")


def check_report(rep, bound, fe, comm, supp, pair=None):
    got = (rep.bound, rep.fe_ok, rep.commutativity_ok, rep.support_ok)
    expect(got == (bound, fe, comm, supp), f"report flags {got}")
    fail = rep.first_failure
    expect((fail and (fail.m, fail.n)) == pair,
           f"first failure {fail and (fail.m, fail.n)}, expected {pair}")


def check_demo(outcome, name, lines):
    rc, out, _ = outcome
    got = out.splitlines()
    expect(rc == 0, f"demo {name} exit status {rc}")
    expect(got[0] == f"demo: {name}" and len(got) == lines + 1
           and all(s.startswith("ok    ") for s in got[1:]), f"demo output {out!r}")


def demo_job(name, lines):
    return Job("demo", f"demo {name}", lambda: cli(["demo", name]),
               _checked(lambda o: check_demo(o, name, lines)))


def dense(poly, F):
    return R.sparse(poly.coeffs, F)


def seeds_name(P):
    """The name the CLI gives a sequence read from a seed file on P."""
    return "seeds(P={" + ",".join(map(str, P)) + "})"


def check_decompose_output(out, P, t, mem, row_ok):
    """CLI decompose output: a header, then one row per member n with delta
    t(n-1); row_ok(n, lambda text, g text) checks the rest of the row."""
    lines = out.split("\n")
    expect(lines[:3] == [f"sequence: {seeds_name(P)}", f"t: {t}", "n\tdelta\tlambda\tg"]
           and len(lines) == len(mem) + 4, f"decompose head {lines[:3]}")
    for n, line in zip(mem, lines[3:]):
        cols = line.split("\t")
        expect(cols[:2] == [str(n), str(t * (n - 1))], f"row {line[:80]!r}")
        row_ok(n, cols[2], cols[3])


# -- size stratification -----------------------------------------------------

class Sizes:
    """Per-kind stratified sizes: occurrence i of a kind takes a point of a
    slice given by a seeded permutation of the STRATA slices of its block;
    the block's index picks the point.  So block b of every seed holds the
    same sizes, and the seed changes only their order.  A size near a
    job's median cost that moved with the seed would move job_s_p50 with
    it."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.base = f"{workload}:{seed}"
        self.rngs, self.count, self.perm = {}, {}, {}

    def rng(self, kind) -> random.Random:
        if kind not in self.rngs:
            self.rngs[kind] = random.Random(f"{self.base}:{kind}")
            self.count[kind] = 0
        return self.rngs[kind]

    def draw(self, kind, lo, hi) -> int:
        r = self.rng(kind)
        i = self.count[kind]
        self.count[kind] += 1
        if i % STRATA == 0:
            self.perm[kind] = r.sample(range(STRATA), STRATA)
        point = self.perm[kind][i % STRATA] * OFFSETS + i // STRATA % OFFSETS
        return lo + (2 * point + 1) * (hi - lo) // (2 * STRATA * OFFSETS)

    def tied(self, kind, options):
        """The option tied to the slice of kind's latest draw: slice j takes
        options[j % len(options)].  An option that is a tuple holds choices
        of like cost, and the seed picks one."""
        assert STRATA % len(options) == 0
        i = self.count[kind] - 1
        opt = options[self.perm[kind][i % STRATA] % len(options)]
        return self.rng(kind).choice(opt) if isinstance(opt, tuple) else opt

    def shape_rng(self, kind) -> random.Random:
        """A generator for kind's latest draw that depends on its slice and
        block but not on the seed.  Parameters drawn from it set the cost,
        so every seed pairs the same ones with the same slice."""
        i = self.count[kind] - 1
        return random.Random(f"{self.workload}:{kind}:{self.perm[kind][i % STRATA]}:{i // STRATA}")

    def cycle(self, kind, options):
        """The options in turn, from a seeded start, so a block holds each."""
        r = self.rng(kind)
        key = f"{kind}:cycle"
        if key not in self.count:
            self.count[key] = r.randrange(len(options))
        self.count[key] += 1
        return options[self.count[key] % len(options)]


def fit_bound(members, cost, budget, slack=1.35):
    """The largest member at which the running sum of cost(smaller members,
    n) stays within budget * slack, provided it reaches budget / slack
    there; None when the members' sizes jump over that window."""
    total, bound = 0, None
    for i, n in enumerate(members):
        total += cost(members[:i], n)
        if total > budget * slack:
            break
        bound, reached = n, total
    if bound is None or reached < budget / slack:
        return None
    return bound


# -- verify-full: rational ring, full support --------------------------------

def quantum_like(n, step=1):
    """[n]_{q^step} as a sparse dict."""
    return {step * i: 1 for i in range(n)}


def tampered(c, k, coef):
    """The quantum solution with f_c replaced by [c]_q + coef q^k."""
    import qfe
    delta = qfe.monomial(qfe.QQ, k, coef)

    def rule(n):
        f = qfe.quantum_integer(n, qfe.QQ)
        return f + delta if n == c else f
    return qfe.FESequence(qfe.QQ, qfe.ALL_PRIMES, rule, f"tampered({c})")


def tampered_value(n, c, k, coef):
    f = quantum_like(n)
    return R.padd(f, {k: coef}, QR) if n == c else f


def first_fe_failure(c, bound):
    """Lexicographically first (m, n), mn <= bound, whose identity touches f_c.

    Exactly the pairs (m, c/m) with 1 < m < c, (m, c) with m >= 2 and
    (c, n) with n >= 2 fail, because the tampering term is a monomial."""
    pairs = [(m, c // m) for m in range(2, c) if c % m == 0]
    pairs += [(m, c) for m in range(2, bound // c + 1)]
    pairs += [(c, n) for n in range(2, bound // c + 1)]
    return min(pairs)


def fe_sides(m, n, value):
    """(f_mn, f_m(q) f_n(q^m)) from a value function, in sparse form."""
    return value(m * n), R.pmul(value(m), R.dilate(value(n), m), QR)


def verify_full_kinds(sz: Sizes):
    import qfe

    def cli_verify(name, lo, hi):
        def make():
            B = sz.draw(name, lo, hi)
            as_json = sz.tied(name, (True, False, False, False))
            argv = ["verify", name, "--upto", str(B)] + (["--json"] if as_json else [])
            return Job(f"cli-verify-{name}", " ".join(argv), lambda: cli(argv),
                       _checked(lambda o: check_cli_report(
                           o, as_json, 0, name, B, True, True, True)))
        return make

    def constant2():
        B = sz.draw("constant2", 2, 80)
        argv = ["verify", "constant2", "--upto", str(B)]
        return Job("cli-constant2", " ".join(argv), lambda: cli(argv),
                   _checked(lambda o: check_cli_report(
                       o, False, 1, "constant2", B, False, True, True,
                       "m=1 n=1 lhs=2 rhs=4")))

    def library(kind, lo, hi, build, expected_value):
        """verify_fe on a transformed solution, plus values at sampled indices."""
        def make():
            r = sz.rng(kind)
            B = sz.draw(kind, lo, hi)
            sample = sorted(r.sample(range(1, B + 1), 4))

            def run():
                F = build()
                return qfe.verify_fe(F, B), {n: F.eval(n) for n in sample}

            def check(outcome):
                rep, values = outcome
                check_report(rep, B, True, True, True)
                for n, v in values.items():
                    expect(dense(v, QR) == expected_value(n), f"value at n={n}")
            return Job(kind, f"{kind} upto {B}", run, _checked(check))
        return make

    def qs():
        return qfe.quantum_sequence()

    def product_value(n):
        # [n]_q [n]_{q^2}, multiplied out independently
        return R.pmul(quantum_like(n), quantum_like(n, 2), QR)

    def near_solution(kind, lo, hi, pick):
        def make():
            r = sz.rng(kind)
            B = sz.draw(kind, lo, hi)
            c = pick(r, B)
            k = r.randint(0, c + 2)
            coef = r.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
            prime = R.is_prime(c)
            pair = (2, c) if prime else first_fe_failure(c, B)

            def check(rep):
                check_report(rep, B, prime, False, True, pair)
                value = lambda n: tampered_value(n, c, k, coef)
                if prime:   # the commutation identity at (2, p)
                    lhs = R.pmul(value(2), R.dilate(value(c), 2), QR)
                    rhs = R.pmul(value(c), R.dilate(value(2), c), QR)
                else:
                    lhs, rhs = fe_sides(*pair, value)
                got = (dense(rep.first_failure.lhs, QR), dense(rep.first_failure.rhs, QR))
                expect(got == (lhs, rhs), f"failure sides at {pair}")
            return Job(kind, f"{kind} f_{c} += {coef} q^{k}, upto {B}",
                       lambda: qfe.verify_fe(tampered(c, k, coef), B), _checked(check))
        return make

    def pick_prime(r, B):
        return r.choice([p for p in range(B // 2 + 1, B + 1) if R.is_prime(p)])

    def pick_composite(r, B):
        # The smallest prime factor p sets how far the FE sweep gets before it
        # fails at (p, c/p), so p is tied to the size slice.
        p = sz.tied("near-composite", (2, 3))
        return r.choice([c for c in range(B // 2 + 1, B + 1)
                         if not R.is_prime(c) and min(R.prime_factors(c)) == p])

    def demo():
        return demo_job(*sz.cycle("demo", [("additive", 2), ("reciprocal", 4)]))

    return [
        cli_verify("quantum", 32, 64),
        cli_verify("monomial", 32, 80),
        cli_verify("identity", 32, 80),
        constant2,
        library("lib-dilate", 24, 44, lambda: qfe.dilate_sequence(qs(), 3),
                lambda n: quantum_like(n, 3)),
        library("lib-reciprocal", 28, 52,
                lambda: qfe.reciprocal_sequence(qfe.dilate_sequence(qs(), 2)),
                lambda n: quantum_like(n, 2)),
        library("lib-product", 20, 32,
                lambda: qfe.product_sequence(qs(), qfe.dilate_sequence(qs(), 2)),
                product_value),
        library("lib-substitute", 24, 44,
                lambda: qfe.psi_substitute_sequence(qs(), qfe.monomial(qfe.QQ, 2)),
                lambda n: quantum_like(n, 2)),
        library("lib-quotient", 24, 44,
                lambda: qfe.exact_quotient_sequence(
                    qfe.product_sequence(qs(), qfe.dilate_sequence(qs(), 2)),
                    qfe.dilate_sequence(qs(), 2)),
                quantum_like),
        near_solution("near-prime", 32, 60, pick_prime),
        near_solution("near-composite", 32, 60, pick_composite),
        demo,
    ]


# -- seed-tables: rational seed files on finite prime sets -------------------

def members(P, bound):
    """S(P) up to bound, ascending."""
    out = [1]
    for p in P:
        out = [m * p ** e for m in out for e in range(bound.bit_length()) if m * p ** e <= bound]
    return sorted(out)


@dataclass
class Family:
    """f_n = lam(n) q^(t(n-1)) [n]_{q^a} / [n]_q on S(P)."""

    P: list
    a: int
    t: int
    lam_p: dict

    def lam(self, n):
        out = Fraction(1)
        for p, e in R.prime_factors(n).items():
            out *= self.lam_p[p] ** e
        return R.rational(out)

    def degree(self, n):
        return (self.t + self.a - 1) * (n - 1)

    def nnz(self, n):
        """Nonzero coefficients of f_n, taking g_n as dense."""
        return (self.a - 1) * (n - 1) + 1

    def build_cost(self, n):
        """Coefficient products from_seeds spends on f_n alone: it splits
        off the largest prime power p^e, and from a prime power one p."""
        if n == 1:
            return 0
        factors = R.prime_factors(n)
        p = max(factors)
        pe = p ** factors[p]
        if pe == n:
            return 0 if n == p else self.nnz(p) * self.nnz(n // p)
        return self.nnz(n // pe) * self.nnz(pe)

    def table_cost(self, smaller, n):
        # building f_n, plus a pass over its coefficients to print or scale
        return self.build_cost(n) + self.degree(n) + 1

    def sweep_cost(self, smaller, n):
        # building f_n, plus the commutation identities against smaller members
        return self.build_cost(n) + 2 * sum(self.nnz(m) * self.nnz(n) for m in smaller)

    def members(self, bound):
        return members(self.P, bound)

    def seed_coeffs(self, p):
        """Dense coefficients of f_p, computed as [p]_{q^a} (1-q) / (1-q^p)."""
        num = [0] * (self.a * (p - 1) + 2)
        for i in range(p):
            num[self.a * i] += 1
            num[self.a * i + 1] -= 1
        g = []
        for i in range((self.a - 1) * (p - 1) + 1):
            g.append(num[i] + (g[i - p] if i >= p else 0))
        lam = self.lam(p)
        return [0] * (self.t * (p - 1)) + [R.rational(lam * c) for c in g]

    def spec(self, perturb=None):
        seeds = {p: self.seed_coeffs(p) for p in self.P}
        if perturb is not None:
            p, j, c = perturb
            seeds[p][j] = R.rational(seeds[p][j] + c)
        return {"ring": {"kind": "rational"}, "primes": self.P,
                "seeds": {str(p): [str(x) for x in cs] for p, cs in seeds.items()}}

    def value_ok(self, v: dict, n: int, k: int = 1) -> bool:
        """v == f_n(q^k), checked through the binomial identity for g_n."""
        low = k * self.t * (n - 1)
        if any(e < low or (e - low) % k for e in v):
            return False
        g = {(e - low) // k: c for e, c in v.items()}
        return R.quantum_ratio_ok(g, n, self.a, self.lam(n))


def draw_lambda(r: random.Random, P) -> dict:
    return {p: Fraction(r.choice((1, -1)) * r.choice((1, 2, 4, 5)), r.choice((3, 6)))
            for p in P}


def draw_family(r: random.Random, min_primes=1, shape_r=None) -> Family:
    """A family whose P, a and t come from shape_r (default r) and whose
    lambda comes from r."""
    shape_r = shape_r or r
    P = sorted(shape_r.sample([2, 3, 5, 7, 11, 13], shape_r.randint(min_primes, 3)))
    a = shape_r.choice([a for a in range(2, 10) if all(a % p for p in P)])
    return Family(P, a, shape_r.randint(0, 2), draw_lambda(r, P))


def draw_sized(r: random.Random, shape_r: random.Random, budget, cost, lo, hi,
               accept=lambda fam, bound: True):
    """A family and the bound in [lo, hi] at which the summed
    cost(family, smaller members, n) meets the budget (see fit_bound).
    P, a and t, which set the cost, come from shape_r and are drawn again
    when they miss the budget or accept() refuses them, so a job's cost does
    not hinge on how dense its prime set is; lambda comes from r."""
    while True:
        fam = draw_family(r, shape_r=shape_r)
        bound = fit_bound(fam.members(hi), lambda smaller, n: cost(fam, smaller, n), budget)
        if bound is not None and bound >= lo and accept(fam, bound):
            return fam, bound


def write_spec(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


# Work budgets, in estimated coefficient operations, from which each
# seed-tables job derives its bound, so that a job's cost does not hinge on
# how dense its drawn prime set is.
TABLE_OPS = (150_000, 400_000)
# Nonzero coefficients held by a table job's values: a narrow band, so that
# peak memory does not hinge on the drawn family either.
TABLE_NNZ = (40_000, 70_000)
SWEEP_OPS = (40_000, 160_000)
RECOVER_OPS = (2_000_000, 8_000_000)


def table_nnz_ok(fam, bound):
    return TABLE_NNZ[0] <= sum(fam.nnz(n) for n in fam.members(bound)) <= TABLE_NNZ[1]


def seed_tables_kinds(sz: Sizes, tmp: str):
    import qfe
    counter = iter(range(10 ** 9))

    def seed_file(fam, perturb=None):
        path = os.path.join(tmp, f"seeds-{next(counter)}.json")
        return path, lambda: write_spec(path, fam.spec(perturb))

    def construct():
        r = sz.rng("construct")
        budget = sz.draw("construct", *TABLE_OPS)
        fam, N = draw_sized(r, sz.shape_rng("construct"), budget, Family.table_cost, 1000, 5000,
                            table_nnz_ok)
        path, prepare = seed_file(fam)
        to_file = sz.tied("construct", (True, False, False, False))
        out_path = os.path.join(tmp, f"table-{next(counter)}.tsv") if to_file else None
        argv = ["construct", path, "--upto", str(N)] + (["--out", out_path] if out_path else [])
        mem = fam.members(N)
        sample = sorted(set(r.sample(mem, min(4, len(mem))) + [mem[-1]]
                            + r.sample(range(1, N + 1), 3)))

        def check(outcome):
            rc, out, err = outcome
            expect(rc == 0, f"exit status {rc}: {err[:200]!r}")
            if out_path:
                expect(out == "", "stdout not empty with --out")
                with open(out_path, encoding="utf-8") as fh:
                    out = fh.read()
                os.remove(out_path)
            rows = out.split("\n")
            expect(len(rows) == N + 1 and rows[-1] == "", f"{len(rows) - 1} rows, expected {N}")
            memset = set(mem)
            for n in sample:
                cols = rows[n - 1].split("\t")
                if n not in memset:
                    expect(cols == [str(n), "false", "-", "0"], f"row {n}: {rows[n - 1][:80]!r}")
                    continue
                expect(cols[:3] == [str(n), "true", str(fam.degree(n))], f"row {n} head {cols[:3]}")
                expect(fam.value_ok(R.parse_poly(cols[3], QR), n), f"row {n} value")
        return Job("construct", f"construct P={fam.P} a={fam.a} t={fam.t} --upto {N}",
                   lambda: cli(argv), _checked(check), prepare)

    def decompose_assemble():
        r = sz.rng("decompose")
        budget = sz.draw("decompose", *TABLE_OPS)
        fam, N = draw_sized(r, sz.shape_rng("decompose"), budget, Family.table_cost, 1000, 5000,
                            table_nnz_ok)
        mem = fam.members(N)
        sample = sorted(set(r.sample(mem, min(4, len(mem))) + [mem[-1]]))
        coeffs = {p: fam.seed_coeffs(p) for p in fam.P}

        def run():
            F = qfe.from_seeds(fam.P, {p: qfe.from_rationals(cs) for p, cs in coeffs.items()})
            dec = qfe.decompose(F, N)
            A = qfe.assemble(dec.t, dec.lam, dec.G)
            round_trip = all(A.eval(n) == F.eval(n) for n in mem)
            return dec, round_trip, {n: dec.G.eval(n) for n in sample}

        def check(outcome):
            dec, round_trip, g = outcome
            expect(dec.t == fam.t, f"t = {dec.t}, expected {fam.t}")
            expect(sorted(dec.delta) == mem and sorted(dec.lam) == mem, "decomposed members")
            for n in mem:
                expect(dec.delta[n] == fam.t * (n - 1), f"delta({n}) = {dec.delta[n]}")
                expect(dec.lam[n] == fam.lam(n), f"lambda({n}) = {dec.lam[n]}")
            expect(round_trip, "assemble(decompose(F)) differs from F")
            for n, v in g.items():
                expect(R.quantum_ratio_ok(dense(v, QR), n, fam.a), f"g_{n}")
        return Job("decompose", f"decompose+assemble P={fam.P} a={fam.a} t={fam.t} upto {N}",
                   run, _checked(check))

    def recover():
        r = sz.rng("recover")
        budget = sz.draw("recover", *RECOVER_OPS)
        fam, M = draw_sized(r, sz.shape_rng("recover"), budget,
                            lambda fam, smaller, n: (fam.a - 1) * n * n, 50, 5000)
        mem = fam.members(M)

        def run():
            Q = qfe.quantum_sequence(qfe.QQ, qfe.PrimeSet.of(fam.P))
            G = qfe.exact_quotient_sequence(qfe.dilate_sequence(Q, fam.a), Q)
            return {n: G.eval(n) for n in mem}

        def check(values):
            for n, v in values.items():
                expect(R.quantum_ratio_ok(dense(v, QR), n, fam.a), f"g_{n}")
        return Job("recover", f"recover [n]_(q^{fam.a})/[n]_q on P={fam.P} upto {M}",
                   run, _checked(check))

    def substitute():
        r = sz.rng("substitute")
        budget = sz.draw("substitute", *SWEEP_OPS)
        fam, B = draw_sized(r, sz.shape_rng("substitute"), budget, Family.sweep_cost, 12, 60)
        k = sz.tied("substitute", (2, 3))
        mem = fam.members(B)
        coeffs = {p: fam.seed_coeffs(p) for p in fam.P}

        def run():
            F = qfe.from_seeds(fam.P, {p: qfe.from_rationals(cs) for p, cs in coeffs.items()})
            H = qfe.psi_substitute_sequence(F, qfe.monomial(qfe.QQ, k))
            return qfe.verify_fe(H, B), {n: H.eval(n) for n in mem}

        def check(outcome):
            rep, values = outcome
            check_report(rep, B, True, True, True)
            for n, v in values.items():
                expect(fam.value_ok(dense(v, QR), n, k), f"f_{n}(q^{k})")
        return Job("substitute", f"substitute q^{k} P={fam.P} a={fam.a} upto {B}",
                   run, _checked(check))

    def cli_small():
        r = sz.rng("cli-small")
        budget = sz.draw("cli-small", *SWEEP_OPS)
        fam, B = draw_sized(r, sz.shape_rng("cli-small"), budget, Family.sweep_cost, 12, 60)
        path, prepare = seed_file(fam)
        command = sz.tied("cli-small", ("verify", "decompose"))
        argv = [command, path, "--upto", str(B)]

        def row_ok(n, lam, g):
            expect(lam == R.scalar_text(fam.lam(n)), f"lambda({n}) = {lam}")
            expect(R.quantum_ratio_ok(R.parse_poly(g, QR), n, fam.a), f"g_{n}")

        def check(outcome):
            rc, out, err = outcome
            expect(rc == 0, f"exit status {rc}: {err[:200]!r}")
            if command == "verify":
                expect(out == report_text(seeds_name(fam.P), B, True, True, True),
                       f"report {out[:300]!r}")
            else:
                check_decompose_output(out, fam.P, fam.t, fam.members(B), row_ok)
        return Job(f"cli-{command}", f"{command} P={fam.P} a={fam.a} t={fam.t} --upto {B}",
                   lambda: cli(argv), _checked(check), prepare)

    def perturbed():
        r = sz.rng("perturbed")
        fam = draw_family(r, min_primes=2)
        p = r.choice(fam.P)
        cs = fam.seed_coeffs(p)
        j = r.randrange(len(cs))
        c = r.choice([c for c in (1, -1, Fraction(1, 2)) if cs[j] + c != 0])
        path, prepare = seed_file(fam, (p, j, c))
        command = sz.cycle("perturbed", ("construct", "verify", "decompose"))
        argv = [command, path, "--upto", str(r.randint(20, 60))]
        p1, p2 = next((x, y) for i, x in enumerate(fam.P) for y in fam.P[i + 1:] if p in (x, y))

        def seed(x):
            s = R.sparse(fam.seed_coeffs(x), QR)
            return R.padd(s, {j: c}, QR) if x == p else s

        def check(outcome):
            rc, out, err = outcome
            expect(rc == 3 and out == "", f"exit status {rc}, stdout {out[:80]!r}")
            lines = err.split("\n")
            expect(lines[0] == f"error: seeds for ({p1}, {p2}) do not commute", f"stderr {err[:120]!r}")
            lhs = R.parse_poly(lines[1].split(" = ", 1)[1], QR)
            rhs = R.parse_poly(lines[2].split(" = ", 1)[1], QR)
            expect(lhs == R.pmul(seed(p1), R.dilate(seed(p2), p1), QR)
                   and rhs == R.pmul(seed(p2), R.dilate(seed(p1), p2), QR), "failure sides")
        return Job("perturbed", f"{command} P={fam.P} with f_{p}[{j}] += {c}",
                   lambda: cli(argv), _checked(check), prepare)

    return [construct, decompose_assemble, recover, substitute, cli_small, perturbed,
            lambda: demo_job("nathanson-257", 6)]


# -- fields: GF(p) and Q(zeta_d) ---------------------------------------------

GFP_PRIMES = (2, 13, 101, 257)
CYCLO_ORDERS = (3, 4, 5, 8, 12)
# The orders d tied to the four size slices of a kind (see Sizes.tied); 3
# and 4, both of degree 2, share a slice, and the seed picks one.  Zeta seeds
# over Q(zeta_5) need primes 1 mod 5, whose members only meet the largest
# budgets; a quotient over Q(zeta_5) meets none, so it does without.
CYCLO_SLOTS = (12, 8, 5, (3, 4))
ZETA_SLOTS = (12, 8, (3, 4), 5)
QUOTIENT_SLOTS = (12, 8, 4, 3)
# Coefficient products of a zeta-seed sweep (see pair_products)
ZETA_OPS = (40_000, 120_000)
# (p, bound, degree of psi) for substitutions over GF(p) on S({p}): powers
# of p, and degrees that give the four cases similar costs
PSI_CASES = ((2, 256, 2), (3, 243, 3), (5, 625, 1), (7, 343, 2))
SMALL_PRIMES = [p for p in range(2, 100) if R.is_prime(p)]


def draw_zeta(shape_r: random.Random, r: random.Random, d):
    """(k, order): zeta = z^k in Q(zeta_d), of order d / gcd(k, d) >= 2.
    The order, which sets the admissible primes and so the cost, comes from
    shape_r; k, among the exponents of that order, from r."""
    order = d // math.gcd(shape_r.randrange(1, d), d)
    return r.choice([k for k in range(1, d) if d // math.gcd(k, d) == order]), order


def zeta_coeffs(Z: R.CyclotomicVectors, k: int, n: int):
    """[n]_{zeta q} with zeta = z^k: coefficient i is z^(k i)."""
    return {i: Z.power_of_z(k * i) for i in range(n)}


def fields_kinds(sz: Sizes, tmp: str):
    import qfe
    counter = iter(range(10 ** 9))

    def gfp_verify():
        B = sz.draw("gfp", 32, 56)
        p = sz.tied("gfp", GFP_PRIMES)
        argv = ["verify", "quantum", "--ring", f"gfp:{p}", "--upto", str(B)]
        return Job("cli-verify-gfp", " ".join(argv), lambda: cli(argv),
                   _checked(lambda o: check_cli_report(o, False, 0, "quantum", B, True, True, True)))

    def cyclo_verify():
        B = sz.draw("cyclo", 16, 32)
        d = sz.tied("cyclo", CYCLO_SLOTS)
        argv = ["verify", "quantum", "--ring", f"cyclotomic:{d}", "--upto", str(B)]
        return Job("cli-verify-cyclo", " ".join(argv), lambda: cli(argv),
                   _checked(lambda o: check_cli_report(o, False, 0, "quantum", B, True, True, True)))

    def admissible_primes(r, order, k):
        """k of the four smallest primes p with order | p - 1."""
        return sorted(r.sample([p for p in SMALL_PRIMES if (p - 1) % order == 0][:4], k))

    def pair_products(smaller, n):
        # f_n = [n]_{zeta q} is dense, so the commutation sweep spends m n
        # coefficient products on each side of the identity at (m, n)
        return 2 * n * sum(smaller)

    def zeta_seeds():
        r = sz.rng("zeta-seeds")
        budget = sz.draw("zeta-seeds", *ZETA_OPS)
        shape_r = sz.shape_rng("zeta-seeds")
        d = sz.tied("zeta-seeds", ZETA_SLOTS)
        command = sz.tied("zeta-seeds", ("verify", "decompose"))
        B = None
        while B is None:    # redraw until the members fit the budget
            k, order = draw_zeta(shape_r, r, d)
            P = admissible_primes(shape_r, order, 2)
            B = fit_bound(members(P, 3000), pair_products, budget)
        Z = R.CyclotomicVectors(d)
        path = os.path.join(tmp, f"zeta-{next(counter)}.json")
        spec = {"ring": {"kind": "cyclotomic", "d": d}, "primes": P,
                "seeds": {str(p): [[str(x) for x in v] for _, v in sorted(zeta_coeffs(Z, k, p).items())]
                          for p in P}}
        argv = [command, path, "--upto", str(B)]

        def row_ok(n, lam, g):
            expect(lam == "1", f"lambda({n}) = {lam}")
            expect(R.parse_poly(g, Z) == zeta_coeffs(Z, k, n), f"g_{n}")

        def check(outcome):
            rc, out, err = outcome
            expect(rc == 0, f"exit status {rc}: {err[:200]!r}")
            if command == "verify":
                expect(out == report_text(seeds_name(P), B, True, True, True),
                       f"report {out[:300]!r}")
            else:
                check_decompose_output(out, P, 0, members(P, B), row_ok)
        return Job(f"cli-zeta-{command}", f"{command} [p]_(z^{k} q) over Q(zeta_{d}), P={P} --upto {B}",
                   lambda: cli(argv), _checked(check), lambda: write_spec(path, spec))

    def inadmissible():
        r = sz.rng("inadmissible")
        d = r.choice(CYCLO_ORDERS)
        k, order = draw_zeta(r, r, d)
        while True:
            P = sorted(r.sample(SMALL_PRIMES[:15], r.randint(1, 2)))
            g = math.gcd(*(p - 1 for p in P))
            if g % order:
                break
        counterexample = next(m for m in members(P, 1000) if (m - 1) % order)

        def run():
            ring = qfe.CyclotomicField(d)
            zeta = ring.pow(ring.zeta, k)
            try:
                qfe.zeta_scaled_sequence(P, zeta, ring)
                refused = None
            except qfe.ZetaAdmissibilityError as exc:
                refused = exc.d
            return refused, qfe.zeta_admissibility(P, zeta, ring, 1000)

        def check(outcome):
            refused, rep = outcome
            expect(refused == g, f"refusal d = {refused}, expected ZetaAdmissibilityError d = {g}")
            expect((rep.admissible, rep.d, rep.counterexample) == (False, g, counterexample),
                   f"admissibility report {rep}")
        return Job("inadmissible", f"zeta = z^{k} in Q(zeta_{d}) on P={P}", run, _checked(check))

    def psi_gfp():
        r = sz.rng("psi")
        p, B, degree = sz.cycle("psi", PSI_CASES)
        psi = [r.randint(1, p - 1) for _ in range(degree + 1)]
        mem = [p ** e for e in range(B.bit_length()) if p ** e <= B]
        F = R.Residues(p)

        def run():
            ring = qfe.PrimeField(p)
            base = qfe.quantum_sequence(ring, qfe.PrimeSet.of([p]))
            H = qfe.psi_substitute_sequence(base, qfe.Polynomial(ring, psi))
            return qfe.verify_fe(H, B), {n: H.eval(n) for n in mem}

        def check(outcome):
            rep, values = outcome
            check_report(rep, B, True, True, True)
            s = R.sparse(psi, F)
            s_minus_1 = R.padd(s, {0: F.neg(1)}, F)
            for n, v in values.items():
                # (psi - 1) [n]_psi == psi^n - 1 == psi(q^n) - 1 in characteristic p
                expect(R.pmul(s_minus_1, dense(v, F), F)
                       == R.padd(R.dilate(s, n), {0: F.neg(1)}, F), f"value at {n}")
        return Job("psi-gfp", f"substitute psi={psi} over GF({p}) on P={{{p}}} upto {B}",
                   run, _checked(check))

    def quotient_cyclo():
        r = sz.rng("quotient")
        budget = sz.draw("quotient", 20_000, 60_000)
        shape_r = sz.shape_rng("quotient")
        d = sz.tied("quotient", QUOTIENT_SLOTS)
        M = None
        while M is None:    # redraw until the members fit the budget
            k, order = draw_zeta(shape_r, r, d)
            P = admissible_primes(shape_r, order, shape_r.randint(1, 2))
            M = fit_bound(members(P, 3000), lambda smaller, n: n * n, budget)
        mem = members(P, M)
        Z = R.CyclotomicVectors(d)

        def run():
            ring = qfe.CyclotomicField(d)
            S = qfe.PrimeSet.of(P)
            Zs = qfe.zeta_scaled_sequence(S, ring.pow(ring.zeta, k), ring)
            Qs = qfe.quantum_sequence(ring, S)
            G = qfe.exact_quotient_sequence(qfe.product_sequence(Zs, Qs), Qs)
            return {n: G.eval(n) for n in mem}

        def check(values):
            for n, v in values.items():
                expect(dense(v, Z) == zeta_coeffs(Z, k, n), f"value at {n}")
        return Job("quotient-cyclo", f"([n]_(z^{k} q) [n]_q) / [n]_q over Q(zeta_{d}), P={P} upto {M}",
                   run, _checked(check))

    return [gfp_verify, cyclo_verify, zeta_seeds, inadmissible, psi_gfp, quotient_cyclo,
            lambda: demo_job("zeta-neg1-p3", 5), lambda: demo_job("frobenius-gf2", 2)]


WORKLOADS = {
    "verify-full": lambda sz, tmp: verify_full_kinds(sz),
    "seed-tables": seed_tables_kinds,
    "fields": fields_kinds,
}

# The rings each workload builds; set-up time includes building them.
SETUP_RINGS = {
    "verify-full": ["rational"],
    "seed-tables": ["rational"],
    "fields": [f"gfp:{p}" for p in sorted(set(GFP_PRIMES) | {3, 5, 7})]
    + [f"cyclotomic:{d}" for d in (2,) + CYCLO_ORDERS],
}


def blocks(workload: str, seed: int, tmp: str):
    """Endless seeded job stream in blocks of STRATA rounds; a round holds
    one job of each kind, in a seeded order."""
    sz = Sizes(workload, seed)
    kinds = WORKLOADS[workload](sz, tmp)
    order = random.Random(f"{workload}:{seed}:order")
    while True:
        block = []
        for _ in range(STRATA):
            jobs = [make() for make in kinds]
            order.shuffle(jobs)
            block += jobs
        yield block
