"""Kernel probes at the sizes the ROADMAP names, timed with tracing off.

Polynomial sizes come from the {2,5,7} seed sequence, whose value f_n has
2n - 1 coefficients: n = 50, 500 and 4375 give about 10^2, 10^3 and 10^4.
Each probe reports the median of several repeats.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from jobs import Family

SEEDS_257 = Family([2, 5, 7], 3, 0, {2: 1, 5: 1, 7: 1})
SIZES = {"1e2": 50, "1e3": 500, "1e4": 4375}


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_op(op, pairs, repeats=7):
    """Median seconds per op(x, y) over the pairs."""
    def loop():
        for x, y in pairs:
            op(x, y)
    return _median_time(loop, repeats) / len(pairs)


def seq_257(qfe):
    return qfe.from_seeds([2, 5, 7], {p: qfe.from_rationals(SEEDS_257.seed_coeffs(p))
                                      for p in (2, 5, 7)})


def run_probes(qfe) -> dict:
    r = random.Random(257)
    out = {}

    def frac():
        return Fraction(r.randint(-10 ** 9, 10 ** 9) or 1, r.randint(1, 10 ** 9))
    q_pairs = [(frac(), frac()) for _ in range(2000)]
    out["rings.q.mul_ns"] = (_per_op(qfe.QQ.mul, q_pairs) * 1e9, "ns")

    gf = qfe.PrimeField(101)
    gf_pairs = [(r.randrange(101), r.randrange(101)) for _ in range(2000)]
    out["rings.gfp.mul_ns"] = (_per_op(gf.mul, gf_pairs) * 1e9, "ns")

    c12 = qfe.CyclotomicField(12)

    def elem():
        return c12.normalize([r.randint(-9, 9) for _ in range(4)])
    c_pairs = [(elem(), elem()) for _ in range(500)]
    out["rings.cyclo12.mul_ns"] = (_per_op(c12.mul, c_pairs) * 1e9, "ns")
    nonzero = [x for x, _ in c_pairs if not c12.is_zero(x)][:100]
    out["rings.cyclo12.inv_us"] = (
        _median_time(lambda: [c12.inv(x) for x in nonzero], 5) / len(nonzero) * 1e6, "us")

    F = seq_257(qfe)
    for label, n in SIZES.items():
        f, qn = F.eval(n), qfe.quantum_integer(n)
        repeats = {"1e2": 51, "1e3": 7, "1e4": 3}[label]
        out[f"poly.mul_s.{label}"] = (_median_time(lambda: qn * f, repeats), "s")
    f, n = F.eval(500), 500
    out["poly.dilate_s.1e3"] = (_median_time(lambda: f.dilate(7), 51), "s")
    num, den = qfe.quantum_integer(n).dilate(3), qfe.quantum_integer(n)
    out["poly.exact_div_s.1e3"] = (_median_time(lambda: num.exact_div(den), 5), "s")

    cold = []
    for _ in range(7):
        G = seq_257(qfe)
        t0 = time.perf_counter()
        G.eval(2000)
        cold.append(time.perf_counter() - t0)
    out["sequences.eval_cold_s"] = (statistics.median(cold), "s")
    warm = [2000] * 10000
    out["sequences.eval_warm_s"] = (_median_time(lambda: [G.eval(k) for k in warm], 7)
                                    / len(warm), "s")
    return out
