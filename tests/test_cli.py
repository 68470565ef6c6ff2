import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfe import (QQ, FESequence, PrimeSet, cli, from_rationals, from_seeds,
                 quantum_integer, quantum_sequence, support_members)
from qfe.cli import (DEMO_NAMES, MAX_UPTO, SEEDS_257, SeedSpec, SeedSpecError,
                     build_parser, builtin_sequence, load_seed_spec, main,
                     parse_ring_flag, parse_seed_spec, write_table)
from qfe.poly import Polynomial, zero
from qfe.rings import DigitLimitError, ring_from_descriptor
from tests.conftest import SEED_COEFFS_257


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def spec_p2(tmp_path):
    return write_spec(tmp_path, "p2.json", {
        "ring": {"kind": "rational"},
        "primes": [2],
        "seeds": {"2": ["1", "1"]},
    })


@pytest.fixture
def spec_257(tmp_path):
    return write_spec(tmp_path, "p257.json", {
        "ring": {"kind": "rational"},
        "primes": [2, 5, 7],
        "seeds": {str(p): [str(c) for c in cs]
                  for p, cs in SEED_COEFFS_257.items()},
    })


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_quantum_seed_table(capsys, spec_p2):
    code, out, _ = run(capsys, "construct", spec_p2, "--upto", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\ttrue\t0\t1"
    assert lines[1] == "2\ttrue\t1\t1 + q"
    assert lines[2] == "3\tfalse\t-\t0"
    assert lines[3] == "4\ttrue\t3\t1 + q + q^2 + q^3"
    assert lines[7] == "8\ttrue\t7\t" + quantum_integer(8).pretty()
    assert len(lines) == 8


def test_construct_row_ten_of_the_257_spec(capsys, spec_257):
    code, out, _ = run(capsys, "construct", spec_257, "--upto", "10")
    assert code == 0
    row = out.splitlines()[9].split("\t")
    expected = quantum_integer(10).dilate(3).exact_div(quantum_integer(10))
    assert row == ["10", "true", "18", expected.pretty()]


def test_construct_writes_out_file(capsys, spec_p2, tmp_path):
    out_path = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "construct", spec_p2, "--upto", "4",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[3] == "4\ttrue\t3\t1 + q + q^2 + q^3"


def test_construct_is_deterministic(capsys, spec_257):
    first = run(capsys, "construct", spec_257, "--upto", "30")
    second = run(capsys, "construct", spec_257, "--upto", "30")
    assert first == second


def test_malformed_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "construct", str(tmp_path / "absent.json"))
    assert code == 2 and "error:" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = run(capsys, "construct", str(bad_json))
    assert code == 2 and "error:" in err

    for broken in (
        {"ring": {"kind": "rational"}, "primes": [2]},
        {"ring": {"kind": "nope"}, "primes": [2], "seeds": {"2": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"3": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": []}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "0"]}},
        {"ring": {"kind": "rational"}, "primes": "all", "seeds": {}},
        {"ring": {"kind": "rational"}, "primes": [4], "seeds": {"4": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "1/0"]}},
        {"ring": {"kind": "cyclotomic", "d": 4}, "primes": [2],
         "seeds": {"2": [["1", "0"], ["1/0", "1"]]}},
        {"ring": {"kind": "prime_field", "p": float("inf")}, "primes": [2],
         "seeds": {"2": ["1"]}},
        # Ring fields are JSON integers, capped before any work runs.
        {"ring": {"kind": "prime_field", "p": 7.5}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "prime_field", "p": "7"}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "cyclotomic", "d": True}, "primes": [2],
         "seeds": {"2": [["1"]]}},
        {"ring": {"kind": "cyclotomic", "d": "12"}, "primes": [2],
         "seeds": {"2": [["1", "0", "0", "0"]]}},
        {"ring": {"kind": "cyclotomic", "d": 10**9}, "primes": [2],
         "seeds": {"2": [["1"]]}},
        {"ring": {"kind": "prime_field", "p": 2**61 - 1}, "primes": [2],
         "seeds": {"2": ["1"]}},
        {"ring": {"kind": "rational"}, "primes": [2**61 - 1],
         "seeds": {str(2**61 - 1): ["1"]}},
        # One literal grammar: a JSON integer or "a" / "a/b".
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1e999999999"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": [" 7 "]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1_000"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["2.5"]}},
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": [True]}},
        # Past the interpreter's cap on int digits, as a string literal.
        {"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "9" * 5000]}},
        {"ring": {"kind": "prime_field", "p": 7}, "primes": [2],
         "seeds": {"2": ["1/2"]}},
        {"ring": {"kind": "cyclotomic", "d": 4}, "primes": [2],
         "seeds": {"2": [[1.5, 0]]}},
        # Seed keys are the canonical decimal of a positive integer.
        *({"ring": {"kind": "rational"}, "primes": [2], "seeds": {key: ["1", "1"]}}
          for key in ("+2", " 2", "2 ", "0_2", "02", "\u0662", "0", "-2", "two")),
    ):
        path = write_spec(tmp_path, "broken.json", broken)
        code, out, err = run(capsys, "construct", path)
        assert code == 2, broken
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    # The last key, "two", is no decimal at all.
    assert err == "error: seeds: key 'two' is not a positive decimal integer\n"

    # An --out that cannot be opened for writing, and a decompose bound with
    # no support member in [2, upto], which leaves t undetermined.
    golden = Path(__file__).parent / "golden"
    for argv in (
        ("construct", str(golden / "seeds-257.json"), "--upto", "3",
         "--out", str(tmp_path / "absent" / "x.tsv")),
        ("construct", str(golden / "seeds-257.json"), "--upto", "3",
         "--out", str(tmp_path)),
        ("decompose", "power7-third", "--upto", "6"),
        ("decompose", str(golden / "seeds-713-z12.json"), "--upto", "6"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1

    # Decoder failures that are not JSONDecodeError: bytes that are not
    # UTF-8, an integer over Python's digit limit, very deep nesting.
    for raw in (b"\xff\xfe",
                b'{"primes": [1' + b"0" * 5000 + b"]}",
                b"[" * 100000 + b"]" * 100000):
        bad_json.write_bytes(raw)
        code, out, err = run(capsys, "verify", str(bad_json))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # The parser is built once; a malformed argv after a good run still
    # exits 2 with the same usage error.
    assert build_parser() is build_parser()

    def usage_error():
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "quantum", "--upto", "x"])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    first = usage_error()
    assert run(capsys, "verify", "quantum", "--upto", "8")[0] == 0
    assert usage_error() == first and "invalid int value: 'x'" in first


def test_noncommuting_seeds_exit_3(capsys, tmp_path):
    path = write_spec(tmp_path, "noncomm.json", {
        "ring": {"kind": "rational"},
        "primes": [2, 3],
        "seeds": {"2": ["1", "1"], "3": ["1", "1", "2"]},
    })
    code, _, err = run(capsys, "construct", path)
    assert code == 3
    assert "do not commute" in err
    assert "1 + q + q^2 + q^3 + 2q^4 + 2q^5" in err
    assert "1 + q + 2q^2 + q^3 + q^4 + 2q^5" in err


@pytest.mark.parametrize("argv", [["construct"], ["decompose"], ["decompose", "--json"]])
def test_coefficient_past_the_digit_limit_exits_2(capsys, tmp_path, argv):
    # lambda(2^k) = 10^(1200 k) passes Python's int-to-text limit of 4300
    # digits at k = 4: the rows before f_16 print, then one error line.
    path = write_spec(tmp_path, "big.json", {
        "ring": {"kind": "rational"},
        "primes": [2],
        "seeds": {"2": ["1" + "0" * 1200, "1"]},
    })
    code, out, err = run(capsys, *argv, path, "--upto", "16")
    assert code == 2
    assert err == (f"error: cannot print a coefficient of more than "
                   f"{sys.get_int_max_str_digits()} digits\n")
    if argv == ["construct"]:
        assert [row.split("\t")[0] for row in out.splitlines()] == [str(n) for n in range(1, 16)]


def test_verify_builtin_quantum(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "64")
    assert code == 0
    assert "fe_ok: true" in out
    assert "first_failure: none" in out


def test_verify_constant2_fails_at_one_one(capsys):
    code, out, _ = run(capsys, "verify", "constant2", "--upto", "4")
    assert code == 1
    assert "fe_ok: false" in out
    assert "commutativity_ok: true" in out
    assert "first_failure: m=1 n=1 lhs=2 rhs=4" in out
    # Over GF(2) the constant 2 is 0: the law holds but the support check
    # fails, and so does the command.
    argv = ("verify", "constant2", "--ring", "gfp:2", "--upto", "10")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "fe_ok: true" in out and "support_ok: false" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["fe_ok"] and not obj["support_ok"]


def test_verify_seed_file_up_to_100(capsys, spec_257):
    code, out, _ = run(capsys, "verify", spec_257, "--upto", "100")
    assert code == 0
    assert "fe_ok: true" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "16", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["fe_ok"] and obj["commutativity_ok"] and obj["support_ok"]
    assert obj["first_failure"] is None
    assert list(obj) == sorted(obj)

    code, out, _ = run(capsys, "verify", "constant2", "--upto", "4", "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["first_failure"] == {"m": 1, "n": 1, "lhs": "2", "rhs": "4"}


def test_decompose_builtins(capsys):
    code, out, _ = run(capsys, "decompose", "monomial", "--upto", "12")
    assert code == 0
    lines = out.splitlines()
    assert "t: 1" in lines
    assert "5\t4\t1\t1" in lines

    code, out, _ = run(capsys, "decompose", "power7-third", "--upto", "400")
    assert code == 0
    assert "t: 1/3" in out

    code, out, _ = run(capsys, "decompose", "quantum", "--upto", "12")
    assert code == 0
    assert "t: 0" in out


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "power7-third", "--upto", "350",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["t"] == "1/3"
    assert obj["delta"] == {"1": 0, "7": 2, "49": 16, "343": 114}
    assert obj["lambda"]["49"] == "1"
    assert obj["g"]["343"] == "1"


def test_decompose_refuses_non_solutions(capsys):
    code, out, _ = run(capsys, "decompose", "constant2", "--upto", "8")
    assert code == 1
    assert "fe_ok: false" in out


def test_oracle_unique_families(capsys):
    code, out, _ = run(capsys, "oracle", "--upto", "12")
    assert code == 0
    assert "families: 1" in out
    assert "a = 1" in out
    assert f"f_12 = {quantum_integer(12).pretty()}" in out
    assert "unique: the all-ones family" in out

    code, out, _ = run(capsys, "oracle", "--upto", "3")
    assert code == 0
    assert "f_3 = 1 + q + q^2" in out

    code, out, _ = run(capsys, "oracle", "--upto", "5")
    assert code == 0
    assert "f_5 = 1 + q + q^2 + q^3 + q^4" in out


def test_oracle_range_guard(capsys):
    code, _, err = run(capsys, "oracle", "--upto", "26")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "oracle", "--upto", "2")
    assert code == 2


def test_upto_caps(capsys, spec_p2):
    code, _, err = run(capsys, "construct", spec_p2, "--upto", "100000")
    assert code == 2 and "--upto" in err


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demos_pass(capsys, name):
    code, out, _ = run(capsys, "demo", name)
    assert code == 0, out
    assert "FAIL" not in out


def test_failing_demo_prints_fail_and_exits_1(capsys, monkeypatch):
    """cmd_demo prints every check a demo yields, and one false check sets
    the exit status, after a true one and before the last."""
    def broken():
        yield True, "first holds"
        yield False, "second fails"
        yield True, "third holds"

    monkeypatch.setitem(cli.DEMOS, "broken", broken)
    code, out, _ = run(capsys, "demo", "broken")
    assert out == ("demo: broken\nok    first holds\nFAIL  second fails\n"
                   "ok    third holds\n")
    assert code == 1


def test_unknown_demo_and_builtin(capsys):
    code, _, err = run(capsys, "demo", "nonesuch")
    assert code == 2 and "unknown demo" in err
    code, _, err = run(capsys, "verify", "nonesuch-builtin")
    assert code == 2


def test_ring_flag_parsing():
    assert parse_ring_flag("rational") is QQ
    assert parse_ring_flag("gfp:5").p == 5
    assert parse_ring_flag("cyclotomic:12").d == 12
    assert parse_ring_flag("cyclotomic:1000").d == 1000
    assert parse_ring_flag("gfp:2147483647").p == 2**31 - 1
    for bad in ("float", "gfp:x", "gfp:4", "gfp:", "cyclotomic:x",
                "cyclotomic:0", "gfp", "gfp:7.5", "gfp: 7", "gfp:+7",
                "gfp:7_0", "cyclotomic:12.0", "cyclotomic:1001",
                "gfp:2305843009213693951", "gfp:" + "9" * 5000):
        with pytest.raises(SeedSpecError):
            parse_ring_flag(bad)


@pytest.mark.parametrize("flag", ["gfp:x", "gfp:4", "cyclotomic:x",
                                  "cyclotomic:1001", "gfp:2305843009213693951"])
def test_bad_ring_flag_exits_2(capsys, flag):
    code, out, err = run(capsys, "verify", "quantum", "--ring", flag)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_explicit_ring_must_match_seed_file(capsys, spec_p2, tmp_path):
    code, _, err = run(capsys, "verify", spec_p2, "--ring", "gfp:3")
    assert code == 2 and "conflicts" in err and err.count("\n") == 1
    code, _, err = run(capsys, "decompose", spec_p2, "--ring", "cyclotomic:4")
    assert code == 2 and "conflicts" in err
    code, out, _ = run(capsys, "verify", spec_p2, "--upto", "16",
                       "--ring", "rational")
    assert code == 0 and "fe_ok: true" in out
    # Without --ring a seed file is read over its own ring.
    spec_z = write_spec(tmp_path, "z4.json", {
        "ring": {"kind": "cyclotomic", "d": 4},
        "primes": [3],
        "seeds": {"3": [["1", "0"], ["0", "1"], ["-1", "0"]]},
    })
    code, out, err = run(capsys, "verify", spec_z, "--upto", "27")
    assert code == 0 and "fe_ok: true" in out, err
    code, out, _ = run(capsys, "verify", spec_z, "--upto", "27",
                       "--ring", "cyclotomic:4")
    assert code == 0 and "fe_ok: true" in out


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=6)
                | st.sampled_from(["1", "-2", "3/4", "1/0", "0/0", "x", "7",
                                   float("inf"), float("nan")]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
ring_params = json_scalars | st.sampled_from(
    [7, 4, 0, -3, 7.5, "7", True, float("inf"), float("nan")])
ring_descriptors = json_values | st.fixed_dictionaries(
    {"kind": st.sampled_from(["rational", "prime_field", "cyclotomic", "x"]),
     "p": ring_params, "d": ring_params})
coefficient_lists = json_values | st.lists(
    json_scalars | st.lists(json_scalars, max_size=3), max_size=4)
seed_specs = json_values | st.fixed_dictionaries(
    {"ring": ring_descriptors,
     "primes": json_values | st.lists(st.integers(-3, 13), max_size=3)
     | st.just("all"),
     "seeds": json_values | st.dictionaries(
         st.sampled_from(["2", "3", "5", "02", "x"]) | st.text(max_size=3),
         coefficient_lists, max_size=3)})

# Seed files of the documented shape, so that main also reaches exits 0 and 3.
literals = st.integers(-2, 2) | st.sampled_from(["1", "-1", "3/4", "0", "0/5"])
well_formed_specs = st.sampled_from([
    ({"kind": "rational"}, literals),
    ({"kind": "prime_field", "p": 3}, literals.filter(lambda c: "/" not in str(c))),
    ({"kind": "cyclotomic", "d": 3}, st.lists(literals, min_size=2, max_size=2)),
]).flatmap(lambda ring_scalars: st.fixed_dictionaries({
    "ring": st.just(ring_scalars[0]),
    "primes": st.just([2, 3]),
    "seeds": st.fixed_dictionaries({
        p: st.lists(ring_scalars[1], min_size=1, max_size=3) for p in ("2", "3")}),
}))


@settings(max_examples=300, deadline=None)
@given(obj=seed_specs)
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1", "1/0"]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": float("inf")},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": 10**9},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "prime_field", "p": 2**61 - 1},
              "primes": [2], "seeds": {"2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2**61 - 1],
              "seeds": {str(2**61 - 1): ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1e999999999"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"+2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {" 2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"0_2": ["1"]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"\u0662": ["1"]}})
def test_parse_seed_spec_returns_a_spec_or_raises_seed_spec_error(obj):
    try:
        spec = parse_seed_spec(obj)
    except SeedSpecError:
        return
    assert isinstance(spec, SeedSpec)
    # Each key is the decimal text of the prime it seeds.
    assert sorted(map(str, spec.seeds)) == sorted(obj["seeds"])


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "seed.json"


@settings(max_examples=200, deadline=None)
@given(obj=seed_specs | well_formed_specs)
@example(obj={"ring": {"kind": "rational"}, "primes": [2], "seeds": {"2": ["1", "1"]}})
@example(obj={"ring": {"kind": "cyclotomic", "d": 10**9},
              "primes": [2], "seeds": {"2": [["1"]]}})
@example(obj={"ring": {"kind": "rational"}, "primes": [2],
              "seeds": {"2": ["1e999999999"]}})
def test_main_never_raises_on_a_seed_file(obj, seed_path):
    seed_path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(seed_path), "--upto", "8"])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_verify_builtin_over_prime_field(capsys):
    code, out, _ = run(capsys, "verify", "quantum", "--upto", "16",
                       "--ring", "gfp:2")
    assert code == 0
    assert "fe_ok: true" in out


def test_builtin_seeds_match_ratio_definition():
    for p, h in SEEDS_257.items():
        assert h == quantum_integer(p).dilate(3).exact_div(quantum_integer(p))
    assert builtin_sequence("quantum").eval(3) == quantum_integer(3)


ROOT = Path(__file__).resolve().parent.parent


def subprocess_env(**extra) -> dict:
    """This environment with the source tree first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def test_scripts_run_and_write_the_golden_seed_file(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                              env=subprocess_env(), timeout=60)

    demos = run(ROOT / "scripts" / "run_demos.py")
    assert demos.returncode == 0, demos.stderr
    headers = [line for line in demos.stdout.decode().splitlines()
               if line.startswith("--- ")]
    assert headers == [f"--- {name}" for name in DEMO_NAMES]

    seed_file = tmp_path / "s.json"
    made = run(ROOT / "scripts" / "make_seed_file.py", seed_file)
    assert made.returncode == 0, made.stderr
    assert seed_file.read_bytes() == (ROOT / "tests" / "golden" / "seeds-257.json").read_bytes()


DECOMPOSE_FIRST = b"sequence: seeds(P={2,5,7})\n"
CONSTRUCT_FIRST = b"1\ttrue\t0\t1\n"


@pytest.mark.parametrize("command, first_line, unbuffered", [
    pytest.param("decompose", DECOMPOSE_FIRST, "", id="buffered"),
    pytest.param("decompose", DECOMPOSE_FIRST, "1", id="unbuffered"),
    pytest.param("construct", CONSTRUCT_FIRST, "", id="construct-buffered"),
    pytest.param("construct", CONSTRUCT_FIRST, "1", id="construct-unbuffered"),
])
def test_closed_stdout_exits_141_without_a_traceback(command, first_line, unbuffered):
    # About 400 kB of output, far more than a pipe holds, written line by line.
    argv = [sys.executable, "-m", "qfe", command,
            str(ROOT / "tests" / "golden" / "seeds-257.json"), "--upto", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=subprocess_env(PYTHONUNBUFFERED=unbuffered)) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == first_line
    assert code == 141 and err == b""


def reference_write_table(F, upto, fh):
    """``write_table`` before it walked the support: every n <= upto is
    evaluated and written as its own row."""
    for n in range(1, upto + 1):
        f = F.eval(n)
        if f.is_zero():
            fh.write(f"{n}\tfalse\t-\t0\n")
        else:
            fh.write(f"{n}\ttrue\t{f.degree}\t{f.pretty()}\n")


def table_text(write, F, upto) -> str:
    fh = io.StringIO()
    write(F, upto, fh)
    return fh.getvalue()


def seed_file_sequence(name):
    spec = load_seed_spec(str(ROOT / "tests" / "golden" / name))
    return from_seeds(spec.primes, spec.seeds)


def seven_seed_sequence():
    """S({7}) with h_7 = 3/2 q^2 [7]_{q^2}."""
    return from_seeds([7], {7: quantum_integer(7).dilate(2).shift(2).scale(Fraction(3, 2))})


@pytest.mark.parametrize("make, member", [
    pytest.param(seven_seed_sequence, 49, id="P={7}"),
    pytest.param(lambda: seed_file_sequence("seeds-23-frac.json"), 54, id="P={2,3}"),
    pytest.param(lambda: seed_file_sequence("seeds-257.json"), 50, id="P={2,5,7}"),
])
def test_table_matches_the_reference(make, member):
    """Byte for byte at --upto 1, at a member, one below it, one above it
    (the table then ends with one row past its last member) and at the
    largest --upto."""
    F = make()
    for upto in (1, member, member - 1, member + 1, MAX_UPTO):
        got = table_text(write_table, F, upto)
        assert got.encode() == table_text(reference_write_table, F, upto).encode()
        assert got.count("\n") == upto


def test_table_writes_false_at_a_zero_member():
    """A member whose value is zero keeps its own false row."""
    Q = quantum_sequence(QQ, PrimeSet.of([2, 3]))
    F = FESequence(QQ, Q.support, lambda n: zero(QQ) if n in (1, 6) else Q.eval(n))
    for upto in (1, 6, 7, 30):
        got = table_text(write_table, F, upto)
        assert got == table_text(reference_write_table, F, upto)
    assert got.splitlines()[5] == "6\tfalse\t-\t0"


def test_table_evaluates_each_support_member_once():
    F = seed_file_sequence("seeds-257.json")
    members = support_members(F.support, 700)
    for n in members:  # fill the memo, so the rule makes no further evals
        F.eval(n)
    calls = []
    real = F.eval

    def counted(n):
        calls.append(n)
        return real(n)

    F.eval = counted
    table_text(write_table, F, 700)
    assert calls == members


def two_seed_sequence():
    """S({2}) with h_2 = -5/6 q [2]_{q^3}."""
    return from_seeds([2], {2: quantum_integer(2).dilate(3).shift(1).scale(Fraction(-5, 6))})


@pytest.mark.parametrize("make, first", [
    pytest.param(two_seed_sequence, 2, id="P={2}"),
    pytest.param(seven_seed_sequence, 7, id="P={7}"),
])
def test_table_joins_long_off_support_runs(make, first):
    """On one prime all but a few of 1000 rows are off the support, in runs
    of up to hundreds, each written as one join.  Byte for byte at --upto
    below, at and just past the first member after 1, and at 1000."""
    F = make()
    for upto in (first - 1, first, first + 1, 1000):
        got = table_text(write_table, F, upto)
        assert got.encode() == table_text(reference_write_table, F, upto).encode()
        assert got.count("\n") == upto


def test_table_past_the_digit_limit_ends_with_the_last_whole_row():
    """lambda(2^k) = 10^(1200 k), so f_16 cannot be printed: the table holds
    the 15 rows before it, as the reference writes them, and no part of
    row 16."""
    F = from_seeds([2], {2: from_rationals([10 ** 1200, 1])})
    texts = []
    for write in (write_table, reference_write_table):
        fh = io.StringIO()
        with pytest.raises(DigitLimitError):
            write(F, 16, fh)
        texts.append(fh.getvalue())
    assert texts[0] == texts[1]
    assert texts[0].endswith("\n") and texts[0].count("\n") == 15


def reference_seeds(obj) -> dict:
    """The seeds as ``parse_seed_spec`` decoded them before it kept each
    parsed literal: every coefficient parsed on its own."""
    ring = ring_from_descriptor(obj["ring"])
    return {int(p): Polynomial(ring, [ring.scalar_from_json(c) for c in cs])
            for p, cs in obj["seeds"].items()}


Z12_ONE = ["1", "0", "0", "0"]


@pytest.mark.parametrize("ring, literals", [
    pytest.param({"kind": "rational"},
                 ["0", "1", "-5/6", "10/12", "-0", "007", 1, -3, "123456789012345678901/3"],
                 id="Q"),
    pytest.param({"kind": "prime_field", "p": 7}, ["0", "3", "-1", "8", "13", 6, "-700"],
                 id="GF(7)"),
    pytest.param({"kind": "cyclotomic", "d": 12},
                 [Z12_ONE, ["-1/2", "0", "3", "0"], [1, "0", "0", "0"], ["0", "1", "0", "0"],
                  [0, 0, 0, 0], ["0", "0", "0", "0"], ["2/4", 0, "-0", "6"]],
                 id="Q(zeta_12)"),
])
def test_seed_literals_repeated_across_seeds_decode_as_before(ring, literals):
    """Literals repeated within and across seeds, JSON ints among them and
    spellings of one value ("10/12" and "5/6", "0" and "-0"), decode to the
    seeds the parser gave on each coefficient alone, of the same types."""
    last = literals[1]
    obj = {"ring": ring, "primes": [2, 3, 5],
           "seeds": {"2": literals * 3 + [last], "3": literals[::-1] * 2 + [last], "5": [last]}}
    spec = parse_seed_spec(obj)
    want = reference_seeds(obj)
    assert spec.seeds == want
    for p, h in spec.seeds.items():
        assert h.coeffs == want[p].coeffs
        assert list(map(type, h.coeffs)) == list(map(type, want[p].coeffs))
        if ring["kind"] == "cyclotomic":
            for x, y in zip(h.coeffs, want[p].coeffs):
                assert list(map(type, x)) == list(map(type, y))


SCALAR = 'rational scalar must be an integer or a string "a" or "a/b", got '
COORDINATE = 'coordinate must be an integer or a string "a" or "a/b", got '


@pytest.mark.parametrize("ring, one, bad, message", [
    pytest.param({"kind": "rational"}, "1", True, SCALAR + "True", id="Q-true"),
    pytest.param({"kind": "rational"}, "1", 1.0, SCALAR + "1.0", id="Q-1.0"),
    pytest.param({"kind": "rational"}, "1", "1/0", "zero denominator", id="Q-1/0"),
    pytest.param({"kind": "rational"}, "1", "+1", SCALAR + "'+1'", id="Q-+1"),
    pytest.param({"kind": "cyclotomic", "d": 12}, Z12_ONE, [True, "0", "0", "0"],
                 COORDINATE + "True", id="z12-true"),
    pytest.param({"kind": "cyclotomic", "d": 12}, Z12_ONE, [1, True, "0", "0"],
                 COORDINATE + "True", id="z12-1,true"),
    pytest.param({"kind": "cyclotomic", "d": 12}, Z12_ONE, [1.0, "0", "0", "0"],
                 COORDINATE + "1.0", id="z12-1.0"),
    pytest.param({"kind": "cyclotomic", "d": 12}, Z12_ONE, ["1/0", "0", "0", "0"],
                 "zero denominator", id="z12-1/0"),
    pytest.param({"kind": "cyclotomic", "d": 12}, Z12_ONE, ["+1", "0", "0", "0"],
                 COORDINATE + "'+1'", id="z12-+1"),
])
def test_a_bad_literal_after_a_parsed_one_exits_2(capsys, tmp_path, ring, one, bad, message):
    """true == 1 and (true, "0") == (1, "0") in Python, so parsed literals
    must not be found by value: after 1 parsed from a string and from a
    JSON int (or the arrays for 1), each of these still exits 2 with the
    message it gives on its own."""
    json_one = [1, "0", "0", "0"] if isinstance(one, list) else 1
    path = write_spec(tmp_path, "bad.json", {
        "ring": ring, "primes": [2, 3], "seeds": {"2": [one, json_one], "3": [one, bad, one]}})
    assert run(capsys, "construct", path, "--upto", "4") == (2, "", f"error: seeds[3]: {message}\n")
