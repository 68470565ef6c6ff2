"""Byte-for-byte guard on CLI output.

Each case runs ``qfe.cli.main`` on a fixed argument list and compares the
exit status and stdout with ``tests/golden/<case>.txt``, whose first line is
``exit N`` and whose remainder is the captured stdout.  The files were
captured before Q(zeta_d) was rebuilt on ``Polynomial``; decompose over
Q(zeta_12) inverts field elements, so it covers that Euclid end to end.
The ``seeds-23-frac`` files, captured before the packed kernels over Q
were added, cover their Fraction path: the seeds are
lambda(p) [p]_{q^5} / [p]_q on P = {2, 3} with lambda = 5/6 and -2/3, read
to 150, far enough that products exceed 64 coefficient pairs.  The
``seeds-23-gf257`` and ``seeds-713-z12`` files, captured before the packed
kernels over GF(p) and Q(zeta_d) were added, cover those: lambda(n) [n]_q^8
on P = {2, 3} over GF(257), whose products are dense, and
lambda(n) [n]_{z^2 q} [n]_{q^3} / [n]_q on P = {7, 13} over Q(zeta_12), with
lambda(7) and lambda(13) of mixed denominators.  ``oracle-3`` and
``oracle-25``, the smallest and largest accepted ``--upto``, were captured
before the uniqueness oracle was rewritten as the coefficient recurrence.
The two ``constant2-rational-2000`` files, captured before the commutation
sweep after a law failure was cut to two rows and the exceptional pairs,
pin that report at a bound the ``--upto 16`` files never reach.  The
``seeds-2-shapeless`` files, captured before both sweeps were cut to the
rows where a first failure can lie, cover a seed with 40 random
coefficients in {1, -1, 2, -3} on P = {2}: no value but f_1 is regular,
so every law pair of rows 1 and 2 up to 32 is expanded.  The
``seeds-2357-q7`` and ``seeds-2357-q31`` files, captured before a
polynomial stored its stride apart, cover dilated solutions: the seeds
are [p]_{q^t} on P = {2, 3, 5, 7} with t = 7 and 31, read to 200 (their
``construct`` to 60, as every f_n is printed in full).  The
``seeds-2357-zq`` files, captured before the geometric row took a scalar
that is not rational over Q(zeta_d), cover it from the CLI: the seeds are
lambda(p) [p]_q on P = {2, 3, 5, 7} over Q(zeta_12) with lambda = z,
1 + z, -z^3 and 2, so every value is a constant P, read to 200 (``construct``
to 60).  The ``seeds-23-z105`` files, captured before a product in Q(zeta_d)
ran through ``kernels._convolve``, cover it at phi = 48: lambda(p) [p]_q on
P = {2, 3} over Q(zeta_105), lambda dense with coordinates in
{0, 1, -1, 1/2, -2/3, 2}, read to 16.

After a deliberate change of output, re-capture with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qfe.cli import BUILTIN_NAMES, DEMO_NAMES, main

GOLDEN = Path(__file__).parent / "golden"
# Seed-file inputs (also under golden/) and the --upto each is read to.
SEED_FILES = {"seeds-257": 16, "seeds-z4": 27, "seeds-23-frac": 150,
              "seeds-23-gf257": 64, "seeds-713-z12": 200, "seeds-2-shapeless": 32,
              "seeds-2357-q7": 200, "seeds-2357-q31": 200, "seeds-2357-zq": 200,
              "seeds-23-z105": 16}
# construct's --upto where it differs from SEED_FILES'.
CONSTRUCT_UPTO = {"seeds-2357-q7": 60, "seeds-2357-q31": 60, "seeds-2357-zq": 60}
RINGS = ("rational", "gfp:7", "cyclotomic:12")


def _cases() -> dict[str, list[str]]:
    cases = {f"demo-{name}": ["demo", name] for name in DEMO_NAMES}
    for upto in (3, 12, 25):
        cases[f"oracle-{upto}"] = ["oracle", "--upto", str(upto)]
    for stem, upto in SEED_FILES.items():
        path = str(GOLDEN / f"{stem}.json")
        cases[f"construct-{stem}"] = ["construct", path, "--upto",
                                      str(CONSTRUCT_UPTO.get(stem, upto))]
    for cmd in ("verify", "decompose"):
        for fmt in ([], ["--json"]):
            tag = "-".join([cmd] + [f[2:] for f in fmt])
            for ring in RINGS:
                for name in BUILTIN_NAMES:
                    cases[f"{tag}-{name}-{ring.replace(':', '')}"] = [
                        cmd, name, "--upto", "16", "--ring", ring, *fmt]
            for stem, upto in SEED_FILES.items():
                cases[f"{tag}-{stem}"] = [
                    cmd, str(GOLDEN / f"{stem}.json"), "--upto", str(upto), *fmt]
    for fmt in ([], ["--json"]):
        tag = "-".join(["verify"] + [f[2:] for f in fmt])
        cases[f"{tag}-constant2-rational-2000"] = [
            "verify", "constant2", "--upto", "2000", *fmt]
    return cases


CASES = _cases()


def capture(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_bytes()
    assert capture(CASES[case]) == expected


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_bytes(capture(argv))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
