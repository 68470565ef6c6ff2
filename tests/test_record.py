"""qfe's ten record classes on the one Record base, and the start-up cost
they no longer carry."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qfe import (QQ, CommutativityFailure, Decomposition, FailedIdentity,
                 Factorization, OracleFamily, PrimeSet, QuantumForcedReport,
                 VerificationReport, ZetaAdmissibilityReport, from_rationals,
                 quantum_integer, quantum_sequence)
from qfe.cli import SeedSpec

SRC = Path(__file__).resolve().parents[1] / "src"
F = from_rationals([1, Fraction(-1, 2)])
G = quantum_integer(3)
FAILURE = FailedIdentity(2, 3, F, G)

# One record of each class, as (class, field values in order).
RECORDS = [
    (FailedIdentity, (2, 3, F, G)),
    (VerificationReport, (6, False, True, True, FAILURE)),
    (Decomposition, (Fraction(1, 2), {1: 0}, {1: 1}, quantum_sequence())),
    (QuantumForcedReport, (False, "degree is not n-1", 4)),
    (OracleFamily, (Fraction(1), {1: G})),
    (ZetaAdmissibilityReport, (True, 2, None)),
    (Factorization, (12, ((2, 2), (3, 1)))),
    (PrimeSet, ((2, 3),)),
    (CommutativityFailure, (2, 3, F, G)),
    (SeedSpec, (QQ, PrimeSet((2,)), {2: F})),
]
FIELDS = {
    FailedIdentity: ("m", "n", "lhs", "rhs"),
    VerificationReport: ("bound", "fe_ok", "commutativity_ok", "support_ok", "first_failure"),
    Decomposition: ("t", "delta", "lam", "G"),
    QuantumForcedReport: ("confirmed", "failed_hypothesis", "witness"),
    OracleFamily: ("a", "polynomials"),
    ZetaAdmissibilityReport: ("admissible", "d", "counterexample"),
    Factorization: ("n", "factors"),
    PrimeSet: ("primes",),
    CommutativityFailure: ("p1", "p2", "lhs", "rhs"),
    SeedSpec: ("ring", "primes", "seeds"),
}
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values):
    names = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(reversed(list(zip(names, values)))))
    assert by_position == by_keyword and not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword)
    assert tuple(getattr(by_keyword, name) for name in names) == values


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_records_are_frozen_and_hash_over_their_fields(cls, values):
    a, b = cls(*values), cls(*values)
    if any(isinstance(v, dict) for v in values):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, FIELDS[cls][0])
    assert a == b


def test_records_equal_only_records_of_their_class():
    class Derived(FailedIdentity):
        pass
    derived = Derived(2, 3, F, G)
    assert derived != FAILURE and FAILURE != derived
    commutation = CommutativityFailure(2, 3, F, G)
    assert FAILURE != commutation and commutation != FAILURE
    assert FAILURE != (2, 3, F, G)
    assert FAILURE != FailedIdentity(2, 3, G, F)


@pytest.mark.parametrize("args, kwargs", [((1, 2, 3), {}), ((1,), {"m": 1, "n": 2}),
                                          ((1, 2, 3, 4, 5), {}),
                                          ((1, 2, 3), {"side": 4})])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        FailedIdentity(*args, **kwargs)


def test_reprs_are_the_dataclass_reprs():
    report = VerificationReport(6, False, True, True, FAILURE)
    assert repr(report) == (
        "VerificationReport(bound=6, fe_ok=False, commutativity_ok=True, "
        "support_ok=True, first_failure=FailedIdentity(m=2, n=3, "
        "lhs=Polynomial(Q, [1, Fraction(-1, 2)]), rhs=Polynomial(Q, [1, 1, 1])))")
    assert not report.ok
    assert repr(PrimeSet((2, 3))) == "PrimeSet(primes=(2, 3))"


def test_importing_qfe_loads_no_dataclasses_inspect_or_typing():
    # -S: no site, so nothing but qfe's own imports can load these modules.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qfe, qfe.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
