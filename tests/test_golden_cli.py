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
pin that report at a bound the ``--upto 16`` files never reach.

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
              "seeds-23-gf257": 64, "seeds-713-z12": 200}
RINGS = ("rational", "gfp:7", "cyclotomic:12")


def _cases() -> dict[str, list[str]]:
    cases = {f"demo-{name}": ["demo", name] for name in DEMO_NAMES}
    for upto in (3, 12, 25):
        cases[f"oracle-{upto}"] = ["oracle", "--upto", str(upto)]
    for stem, upto in SEED_FILES.items():
        path = str(GOLDEN / f"{stem}.json")
        cases[f"construct-{stem}"] = ["construct", path, "--upto", str(upto)]
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
